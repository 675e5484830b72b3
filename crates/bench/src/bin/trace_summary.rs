//! Workload characterisation without the timing model: instruction mix,
//! memory intensity, working set, pointer density and access pattern —
//! the §3.3 axes — per ABI for one workload.
//!
//! `cargo run --release -p morello-bench --bin trace_summary -- [KEY]`
//! (default `omnetpp_520`).
//!
//! Flags, before or after the key: `--out <path>` (JSON artefact; `-` =
//! stdout), `--trace <path>` (phase trace: Chrome JSON + JSONL). An
//! unknown key, a second key or an unknown flag exits with status 2.

use cheri_isa::{lower, Abi, Interp, InterpConfig, TraceSummary};
use cheri_workloads::by_key;
use morello_bench::cli::operands;
use morello_bench::{human, scale_from_env, write_json};
use morello_pmu::Table;

fn main() {
    let _trace = morello_bench::init_trace();
    let keys = operands(&["out"]);
    if let Some(flag) = keys.iter().find(|k| k.starts_with("--")) {
        eprintln!("unknown flag `{flag}`");
        std::process::exit(2);
    }
    let key = match keys.as_slice() {
        [] => "omnetpp_520",
        [key] => key.as_str(),
        [_, extra, ..] => {
            eprintln!("unexpected argument `{extra}`: trace_summary takes one workload key");
            std::process::exit(2);
        }
    };
    let Some(w) = by_key(key) else {
        eprintln!("unknown workload `{key}`");
        std::process::exit(2);
    };
    let scale = scale_from_env();
    let mut t = Table::new(&["quantity", "hybrid", "benchmark", "purecap"]);
    let mut summaries = Vec::new();
    for abi in Abi::ALL {
        if !w.supports(abi) {
            summaries.push(None);
            continue;
        }
        let _span = morello_bench::trace_phase(&format!("trace {key} {abi}"), "run");
        let prog = lower(&w.build(abi, scale));
        let mut s = TraceSummary::new();
        if let Err(e) = Interp::new(InterpConfig::default()).run(&prog, &mut s) {
            morello_bench::exit_with_error(&format!("trace of {key} ({abi}) failed"), &e);
        }
        s.finish();
        summaries.push(Some(s));
    }
    let cell = |f: &dyn Fn(&TraceSummary) -> String| -> Vec<String> {
        summaries
            .iter()
            .map(|s| s.as_ref().map_or("NA".into(), f))
            .collect()
    };
    type RowFn = Box<dyn Fn(&TraceSummary) -> String>;
    let rows: Vec<(&str, RowFn)> = vec![
        ("retired", Box::new(|s| s.retired.to_string())),
        (
            "memory intensity",
            Box::new(|s| format!("{:.3}", s.memory_intensity())),
        ),
        (
            "cap traffic share",
            Box::new(|s| format!("{:.1}%", s.cap_traffic_share() * 100.0)),
        ),
        (
            "chase fraction",
            Box::new(|s| format!("{:.1}%", s.chase_fraction() * 100.0)),
        ),
        (
            "working set",
            Box::new(|s| format!("{} KiB", s.working_set_bytes() / 1024)),
        ),
        ("data pages", Box::new(|s| s.data_pages.to_string())),
        (
            "code lines",
            Box::new(|s| s.code_footprint_lines.to_string()),
        ),
        (
            "indirect branches",
            Box::new(|s| s.indirect_branches.to_string()),
        ),
        ("PCC changes", Box::new(|s| s.pcc_changes.to_string())),
        ("cap-manip insts", Box::new(|s| s.cap_manip.to_string())),
        (
            "access pattern",
            Box::new(|s| s.access_pattern().to_string()),
        ),
    ];
    for (name, f) in &rows {
        let c = cell(f);
        t.row(&[name.to_string(), c[0].clone(), c[1].clone(), c[2].clone()]);
    }
    human!("Trace characterisation: {}", w.name);
    human!("{}", t.render());
    write_json(&format!("trace_summary_{key}"), &summaries);
}
