//! Renders the paper's suite-derived tables and figures from one suite
//! pass: `figures [--jobs N] [--journal P] [--trace P] [--dir D] [NAME...]`.
//!
//! With no NAME every figure of the registry is rendered. The suite runs
//! over the full registry when any selected figure reads it, else over
//! the union of the selected figures' workloads; its rows go to
//! `D/suite_rows.json`. Each figure's text goes to `D/<name>.txt` and to
//! stdout (in registry order), each of its JSON artefacts to
//! `D/<artefact>.json`; `D` defaults to `target/experiments`.
//! `--jobs`, `--journal` and `--trace` are the suite flags every
//! experiment binary takes. An unknown figure name or flag exits with
//! status 2.

use morello_bench::cli::operands;
use morello_bench::figures::{self, FIGURES};
use morello_bench::{exit_with_error, trace_phase, BenchCli};
use std::path::PathBuf;

fn main() {
    let cli = BenchCli::parse("figures");
    let names = operands(&["dir"]);
    if let Some(unknown) = names.iter().find(|n| figures::by_name(n).is_none()) {
        eprintln!("unknown figure or flag `{unknown}`");
        std::process::exit(2);
    }
    let selected: Vec<_> = FIGURES
        .iter()
        .filter(|f| names.is_empty() || names.iter().any(|n| n == f.name))
        .collect();
    let args: Vec<String> = std::env::args().collect();
    let dir =
        PathBuf::from(morello_pmu::flag_value(&args, "dir").unwrap_or("target/experiments".into()));
    let rows = cli.suite_rows(figures::suite_keys(&selected).as_deref());
    let unwritable = |e| exit_with_error(&format!("could not write {}", dir.display()), &e);
    std::fs::create_dir_all(&dir).unwrap_or_else(unwritable);
    let rows_path = dir.join(format!("{}.json", figures::SUITE_ROWS));
    morello_pmu::write_json_out(&rows_path, &rows).unwrap_or_else(unwritable);
    for fig in &selected {
        let _report = trace_phase(&format!("report {}", fig.name), "report");
        let rendered = (fig.render)(&fig.rows(&rows));
        print!("{}", rendered.text);
        rendered.write(&dir, fig.name).unwrap_or_else(unwritable);
    }
}
