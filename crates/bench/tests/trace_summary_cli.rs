//! The `trace_summary` binary's command line at `MORELLO_SCALE=test`.

use std::path::Path;
use std::process::Command;

fn trace_summary(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_trace_summary"))
        .env("MORELLO_SCALE", "test")
        .args(args)
        .output()
        .expect("trace_summary runs")
}

#[test]
fn flags_may_come_before_the_key() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace_summary_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let first = dir.join("flag_first.json");
    let last = dir.join("flag_last.json");
    let _ = std::fs::remove_file(&first);
    let _ = std::fs::remove_file(&last);
    let a = trace_summary(&["--out", first.to_str().unwrap(), "omnetpp_520"]);
    let b = trace_summary(&["omnetpp_520", "--out", last.to_str().unwrap()]);
    for out in [&a, &b] {
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_eq!(a.stdout, b.stdout, "same table whatever the argument order");
    let json = std::fs::read_to_string(&first).unwrap();
    assert!(json.contains("\"retired\""), "{json}");
    assert_eq!(json, std::fs::read_to_string(&last).unwrap());
}

#[test]
fn bad_arguments_exit_2() {
    for args in [
        &["no_such_workload"][..],
        &["omnetpp_520", "xz_557"],
        &["--bogus", "omnetpp_520"],
    ] {
        let out = trace_summary(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}
