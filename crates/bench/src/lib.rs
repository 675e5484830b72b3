//! # morello-bench
//!
//! The experiment harness: one function per table/figure of the paper,
//! shared by the experiment binaries and the criterion benches.
//!
//! Every generator takes the already-computed suite results, so the
//! expensive simulation runs once per invocation (the [`figures`]
//! registry renders every suite-derived figure from one pass); binaries
//! print the paper-style text table and drop a machine-readable JSON
//! file next to it (like the paper's published artefact data).

#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod figures;
pub mod speed;

pub use cli::{flag_present, BenchCli};

use cheri_workloads::Scale;
use morello_obs::Tracer;
use morello_sim::{NullSpanSink, Platform, Runner, SpanGuard, SpanSink};
use std::path::PathBuf;
use std::sync::OnceLock;

/// Reads the harness scale from `MORELLO_SCALE` (`test`, `small`, or
/// `default`). Binaries default to the full (`default`) size; set
/// `MORELLO_SCALE=small` for a quick look.
pub fn scale_from_env() -> Scale {
    match std::env::var("MORELLO_SCALE").as_deref() {
        Ok("test") => Scale::Test,
        Ok("small") => Scale::Small,
        _ => Scale::Default,
    }
}

/// The standard harness runner at the environment-selected scale.
pub fn harness_runner() -> Runner {
    Runner::new(Platform::morello().with_scale(scale_from_env()))
}

/// The suite worker count for this invocation: `--jobs N` on the command
/// line, else the `MORELLO_JOBS` environment variable, else the host's
/// available parallelism. An unparsable value aborts with exit code 2
/// rather than silently running at a default.
pub fn jobs_from_env() -> usize {
    let args: Vec<String> = std::env::args().collect();
    match morello_pmu::jobs_flag(&args) {
        Some(Ok(n)) => n,
        Some(Err(raw)) => exit_not_a_number("--jobs", &raw),
        None => match std::env::var("MORELLO_JOBS") {
            Ok(raw) => raw
                .parse()
                .unwrap_or_else(|_| exit_not_a_number("MORELLO_JOBS", &raw)),
            Err(_) => morello_sim::suite::default_jobs(),
        },
    }
}

/// Rejects the non-numeric value `raw` of the setting `what`: exits with
/// status 2.
pub(crate) fn exit_not_a_number(what: &str, raw: &str) -> ! {
    eprintln!("invalid {what} value `{raw}` (expected a number)");
    std::process::exit(2);
}

static TRACE: OnceLock<Option<(Tracer, PathBuf)>> = OnceLock::new();
static NULL_SINK: NullSpanSink = NullSpanSink;

fn trace_state() -> &'static Option<(Tracer, PathBuf)> {
    TRACE.get_or_init(|| {
        let args: Vec<String> = std::env::args().collect();
        morello_pmu::trace_flag(&args).map(|path| (Tracer::new(), path))
    })
}

/// The process-wide span sink: the recording [`Tracer`] when `--trace
/// <path>` is on the command line, the inert [`NullSpanSink`] otherwise.
pub fn span_sink() -> &'static dyn SpanSink {
    match trace_state() {
        Some((tracer, _)) => tracer,
        None => &NULL_SINK,
    }
}

/// Flushes the recorded trace when dropped — hold one for the duration
/// of `main` (see [`init_trace`]).
pub struct TraceGuard(());

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if let Some((tracer, path)) = trace_state() {
            match tracer.save(path) {
                Ok(jsonl) => eprintln!(
                    "(trace: {} [chrome://tracing] + {} [jsonl])",
                    path.display(),
                    jsonl.display()
                ),
                Err(e) => eprintln!("warning: could not write trace {}: {e}", path.display()),
            }
        }
    }
}

/// Arms `--trace <path>` support: every experiment binary calls this at
/// the top of `main` and keeps the guard alive. When the flag is
/// present, phase spans recorded anywhere in the process (the suite
/// engine's `sweep`/`lower`/`run` spans, [`trace_phase`] marks) are
/// written on exit as Chrome `trace_event` JSON at `<path>` plus JSONL
/// alongside; without the flag this is free.
pub fn init_trace() -> TraceGuard {
    let _ = trace_state();
    TraceGuard(())
}

/// Opens a named phase span (`"fault-campaign"`, `"report"`, …) on the
/// process-wide sink; the span ends when the guard drops.
pub fn trace_phase(name: &str, cat: &str) -> SpanGuard<'static> {
    morello_sim::span(span_sink(), name, cat)
}

/// True when `--out -` routes the JSON artefact to stdout — in which
/// case every human-readable line must go to stderr (see [`human!`]).
pub fn out_is_stdout() -> bool {
    static STDOUT_OUT: OnceLock<bool> = OnceLock::new();
    *STDOUT_OUT.get_or_init(|| {
        let args: Vec<String> = std::env::args().collect();
        morello_pmu::out_flag(&args).is_some_and(|p| p == std::path::Path::new("-"))
    })
}

/// Prints a human-readable progress/table line: to stdout normally, to
/// stderr when `--out -` has claimed stdout for the JSON artefact — so
/// `fig8_revocation --out - | jq .` always parses.
#[macro_export]
macro_rules! human {
    ($($arg:tt)*) => {
        if $crate::out_is_stdout() {
            eprintln!($($arg)*);
        } else {
            println!($($arg)*);
        }
    };
}

/// The experiment binaries' shared failure path: prints `context`,
/// the error, and its full [`std::error::Error::source`] chain to
/// stderr, then exits with status 1 — a formatted diagnosis instead of
/// a panic backtrace.
pub fn exit_with_error(context: &str, e: &dyn std::error::Error) -> ! {
    eprintln!("error: {context}: {e}");
    let mut source = e.source();
    while let Some(s) = source {
        eprintln!("  caused by: {s}");
        source = s.source();
    }
    std::process::exit(1);
}

/// Writes an experiment's JSON artefact: to the `--out <path>` path
/// (a binary that emits several artefacts overwrites, last one wins), to
/// stdout for `--out -`, else under `target/experiments/<name>.json`.
/// See [`write_report`].
pub fn write_json(name: &str, value: &impl serde::Serialize) {
    write_report(&format!("target/experiments/{name}.json"), value);
}

/// Writes a binary's JSON document: to the `--out <path>` path, to
/// stdout for `--out -` (for piping), else to `default_path`. Exits with
/// status 1 when the document cannot be written.
pub fn write_report(default_path: &str, value: &impl serde::Serialize) {
    let args: Vec<String> = std::env::args().collect();
    let out = morello_pmu::out_flag(&args).unwrap_or_else(|| PathBuf::from(default_path));
    let written = if out == std::path::Path::new("-") {
        serde_json::to_string_pretty(value)
            .map(|s| println!("{s}"))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    } else {
        morello_pmu::write_json_out(&out, value)
            .map(|()| eprintln!("(json artefact: {})", out.display()))
    };
    if let Err(e) = written {
        exit_with_error(&format!("could not write {}", out.display()), &e);
    }
}
