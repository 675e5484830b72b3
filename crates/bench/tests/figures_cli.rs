//! The `figures` binary end to end at `MORELLO_SCALE=test`.

use std::path::Path;
use std::process::Command;

fn figures(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .env("MORELLO_SCALE", "test")
        .args(args)
        .output()
        .expect("figures runs")
}

#[test]
fn dir_receives_every_artefact_of_a_figure() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures_cli");
    let _ = std::fs::remove_dir_all(&dir);
    let out = figures(&[
        "--jobs",
        "2",
        "--dir",
        dir.to_str().unwrap(),
        "fig7_correlation",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for artefact in ["fig7_correlation_hybrid", "fig7_correlation_purecap"] {
        let json = std::fs::read_to_string(dir.join(format!("{artefact}.json"))).unwrap();
        assert!(json.starts_with("[\n"), "{artefact}: a correlation matrix");
    }
    let text = std::fs::read(dir.join("fig7_correlation.txt")).unwrap();
    assert_eq!(text, out.stdout, "stdout carries the figure's text");
    let rows = std::fs::read_to_string(dir.join("suite_rows.json")).unwrap();
    assert!(rows.contains("\"omnetpp_520\""), "the pass's suite rows");
}

#[test]
fn suite_rows_are_written_once_per_pass() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures_cli_rows");
    let _ = std::fs::remove_dir_all(&dir);
    let out = figures(&[
        "--dir",
        dir.to_str().unwrap(),
        "table3_key_metrics",
        "fig3_topdown",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    // Figures that only tabulate the rows write no JSON of their own.
    assert_eq!(
        files,
        [
            "fig3_topdown.txt",
            "suite_rows.json",
            "table3_key_metrics.txt"
        ]
    );
    let rows = std::fs::read_to_string(dir.join("suite_rows.json")).unwrap();
    assert!(rows.contains("\"sqlite\""), "table 3's workloads");
    assert!(
        !rows.contains("\"x264_525\""),
        "only the workloads the pass ran"
    );
}

#[test]
fn unknown_names_and_flags_exit_2() {
    for args in [&["fig99_nothing"][..], &["--out", "x.json"]] {
        let out = figures(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}
