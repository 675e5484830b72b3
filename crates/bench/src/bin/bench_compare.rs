//! `bench_compare`: the perf-regression gate over two reports of one
//! kind — `BENCH_interp.json`, `BENCH_service.json` or
//! `BENCH_resilience.json`.
//!
//! Diffs the deterministic `model` sections (retired, cycles, simulated
//! seconds, per-opcode-class attribution, cache hit rate) and exits
//! nonzero when any metric moved by more than `--threshold` percent in
//! either direction — the model has no noise, so any movement is a real
//! behaviour change. Host (`host_*`) wall-clock fields are never
//! compared.
//!
//! `--min-host-rate <insts/sec>` additionally gates the *candidate*'s
//! engine-leg throughput (`host_insts_per_sec`, per ABI) against a
//! lower bound: the pre-decoded fast path runs far above any reference
//! fall-back, so a floor catches the fast path silently degrading even
//! though host wall-clock is never diffed against the baseline.
//!
//! ```text
//! bench_compare docs/results/BENCH_interp.baseline.json BENCH_interp.json \
//!     --threshold 10 --min-host-rate 5e7
//! ```
//!
//! Both documents of a run must be the same kind, discriminated by the
//! top-level `kind` field and looked up in one kind table: `"service"`
//! parses as a `ServiceReport` and
//! is gated on `morello_serve::service_metrics`; `"resilience"` parses
//! as a `ResilienceReport` and is gated on
//! `morello_serve::resilience_metrics` (goodput, SLO attainment, retry
//! amplification, p99, silent counts per cell — all deterministic); a
//! missing `kind` parses as an interpreter `BenchReport`. A kind
//! mismatch is a usage error (exit 2) naming both kinds.
//! `--min-host-rate` applies to interpreter reports only.
//!
//! Exit codes: 0 = within threshold, 1 = regression or floor violation,
//! 2 = usage/schema error.

use morello_bench::speed::{
    compare_metric_sets, diff_table, doc_kind, host_rate_floor, model_metrics, BenchReport,
};
use morello_pmu::fmt_metric;
use morello_serve::{resilience_metrics, service_metrics, ResilienceReport, ServiceReport};
use std::path::Path;

fn load_text(path: &str) -> String {
    std::fs::read_to_string(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("could not read {path}: {e}");
        std::process::exit(2);
    })
}

fn parse<T: serde::Deserialize>(path: &str, text: &str) -> T {
    serde_json::from_str(text).unwrap_or_else(|e| {
        eprintln!("could not parse {path}: {e}");
        std::process::exit(2);
    })
}

/// Parses one kind of report (path, text) into what the gate reads: its
/// schema version and its deterministic metric vector.
type Gate = fn(&str, &str) -> (u64, Vec<(String, f64)>);

/// Every report kind this gate understands, with its [`Gate`].
const KINDS: [(&str, Gate); 3] = [
    ("interp", |path, text| {
        let r: BenchReport = parse(path, text);
        (r.schema_version, model_metrics(&r))
    }),
    ("service", |path, text| {
        let r: ServiceReport = parse(path, text);
        (r.schema_version.into(), service_metrics(&r))
    }),
    ("resilience", |path, text| {
        let r: ResilienceReport = parse(path, text);
        (r.schema_version.into(), resilience_metrics(&r))
    }),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<&str> = Vec::new();
    let mut threshold = 5.0_f64;
    let mut min_host_rate: Option<f64> = None;
    let parse_num = |flag: &str, raw: Option<&str>| -> f64 {
        raw.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("invalid {flag} value (expected a number)");
            std::process::exit(2);
        })
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--threshold" {
            threshold = parse_num("--threshold", it.next().map(String::as_str));
        } else if let Some(v) = arg.strip_prefix("--threshold=") {
            threshold = parse_num("--threshold", Some(v));
        } else if arg == "--min-host-rate" {
            min_host_rate = Some(parse_num("--min-host-rate", it.next().map(String::as_str)));
        } else if let Some(v) = arg.strip_prefix("--min-host-rate=") {
            min_host_rate = Some(parse_num("--min-host-rate", Some(v)));
        } else if arg.starts_with("--") {
            eprintln!("unknown flag `{arg}`");
            std::process::exit(2);
        } else {
            positional.push(arg);
        }
    }
    let [base_path, new_path] = positional.as_slice() else {
        eprintln!(
            "usage: bench_compare <baseline.json> <candidate.json> \
             [--threshold <pct>] [--min-host-rate <insts/sec>]"
        );
        std::process::exit(2);
    };

    let base_text = load_text(base_path);
    let new_text = load_text(new_path);
    let kind = {
        let base_kind = doc_kind(&base_text);
        let new_kind = doc_kind(&new_text);
        if base_kind != new_kind {
            eprintln!(
                "kind mismatch: baseline {base_path} is a `{base_kind}` report but \
                 candidate {new_path} is a `{new_kind}` report — compare like with like"
            );
            std::process::exit(2);
        }
        base_kind
    };
    if kind != "interp" && min_host_rate.is_some() {
        eprintln!("--min-host-rate does not apply to {kind} reports");
        std::process::exit(2);
    }

    let Some(&(_, gated)) = KINDS.iter().find(|(k, _)| *k == kind) else {
        eprintln!(
            "unknown report kind `{kind}` in {base_path} — \
             this bench_compare understands interp, service, and resilience"
        );
        std::process::exit(2);
    };
    let (base_schema, base_metrics) = gated(base_path, &base_text);
    let (new_schema, new_metrics) = gated(new_path, &new_text);
    if base_schema != new_schema {
        eprintln!(
            "schema mismatch: baseline v{base_schema} vs candidate v{new_schema} — \
             regenerate the baseline"
        );
        std::process::exit(2);
    }
    let outcome = compare_metric_sets(&base_metrics, &new_metrics, threshold);
    let mut failed = false;
    let section = if kind == "interp" {
        "model"
    } else {
        kind.as_str()
    };
    if outcome.diffs.is_empty() && outcome.regressions.is_empty() {
        println!("bench_compare: {section} sections identical (threshold {threshold}%)");
    } else {
        if !outcome.diffs.is_empty() {
            println!("{section} metrics that moved:");
            println!("{}", diff_table(&outcome.diffs).render());
        }
        if outcome.regressions.is_empty() {
            println!(
                "bench_compare: {} metric(s) moved, all within {threshold}%",
                outcome.diffs.len()
            );
        } else {
            eprintln!(
                "bench_compare: {} metric(s) beyond {threshold}%:",
                outcome.regressions.len()
            );
            eprintln!("{}", diff_table(&outcome.regressions).render());
            failed = true;
        }
    }

    if let Some(min) = min_host_rate {
        let new: BenchReport = parse(new_path, &new_text);
        let violations = host_rate_floor(&new, min);
        if violations.is_empty() {
            println!(
                "bench_compare: engine-leg host_insts_per_sec >= {} on every ABI",
                fmt_metric(min)
            );
        } else {
            for (abi, rate) in &violations {
                eprintln!(
                    "bench_compare: {abi} engine leg ran at {} insts/s, below the {} floor \
                     — the fast path may have fallen back to the reference executor",
                    fmt_metric(*rate),
                    fmt_metric(min)
                );
            }
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
