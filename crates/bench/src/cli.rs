//! The shared command-line front-end of the figure/table binaries.
//!
//! Every experiment binary historically re-parsed the same four flags
//! (`--jobs`, `--out`, `--trace`, `--journal`) plus `MORELLO_SCALE` by
//! hand at the top of `main`. [`BenchCli::parse`] bundles that into one
//! call: it arms the trace guard, resolves the scale and worker count,
//! notes `--quick`, and remembers the artefact name so
//! [`BenchCli::write_json`] lands the JSON in the standard place
//! (`--out <path>`, `-` for stdout, default `target/experiments/`).
//! [`BenchCli::suite_rows`] runs the suite with those settings, and
//! [`BenchCli::sweep_config`] adds the serving sweeps' flags.

use crate::TraceGuard;
use cheri_workloads::{registry, Scale};
use morello_obs::JsonlJournal;
use morello_serve::{SweepConfig, TrafficModel};
use morello_sim::suite::{run_suite_traced, select, SuiteConfig, SuiteRow};
use morello_sim::{ProgramCache, RunObserver};
use std::path::PathBuf;

/// Returns `true` when the bare flag `--<name>` is on the command line
/// (presence-only flags like `--quick`, as opposed to the valued flags
/// [`morello_pmu::flag_value`] parses).
pub fn flag_present(name: &str) -> bool {
    let want = format!("--{name}");
    std::env::args().any(|a| a == want)
}

/// The value of the numeric flag `--<name> N` (or `--<name>=N`), else
/// `default`. A value that is not a number exits with status 2.
fn numeric_flag(name: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    morello_pmu::flag_value(&args, name).map_or(default, |raw| {
        raw.parse()
            .unwrap_or_else(|_| crate::exit_not_a_number(&format!("--{name}"), &raw))
    })
}

/// The valued suite flags [`BenchCli::parse`] reads (`--jobs`,
/// `--journal`, `--trace`); [`operands`] skips them and their values.
pub const SUITE_FLAGS: [&str; 3] = ["jobs", "journal", "trace"];

/// The command-line operands: every argument after the program name
/// that is neither a [`SUITE_FLAGS`] or `own_flags` flag (`--name value`
/// or `--name=value`) nor such a flag's value. Any other flag comes back
/// as an operand, for the caller to reject.
pub fn operands(own_flags: &[&str]) -> Vec<String> {
    let mut operands = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let flag = arg.strip_prefix("--").unwrap_or_default();
        let (name, inline_value) = flag
            .split_once('=')
            .map_or((flag, false), |(n, _)| (n, true));
        if SUITE_FLAGS.contains(&name) || own_flags.contains(&name) {
            if !inline_value {
                it.next();
            }
        } else {
            operands.push(arg);
        }
    }
    operands
}

/// The parsed shared flags of one experiment binary invocation.
pub struct BenchCli {
    /// Artefact name (`fig11_service`, …) — the default JSON file stem.
    pub name: &'static str,
    /// `MORELLO_SCALE` (test/small/default).
    pub scale: Scale,
    /// `--jobs N` / `MORELLO_JOBS` / available parallelism. Worker
    /// fan-out only; never affects computed results.
    pub jobs: usize,
    /// `--quick` was given: binaries that support it shrink their sweep.
    pub quick: bool,
    /// `--journal <path>`: append per-cell JSONL run records there.
    pub journal: Option<PathBuf>,
    _trace: TraceGuard,
}

impl BenchCli {
    /// Parses the shared flags and arms `--trace` support. Call once at
    /// the top of `main` and keep the value alive (dropping it flushes
    /// the trace).
    pub fn parse(name: &'static str) -> BenchCli {
        let trace = crate::init_trace();
        let args: Vec<String> = std::env::args().collect();
        BenchCli {
            name,
            scale: crate::scale_from_env(),
            jobs: crate::jobs_from_env(),
            quick: flag_present("quick"),
            journal: morello_pmu::journal_flag(&args),
            _trace: trace,
        }
    }

    /// Opens the `--journal` path for appending, exiting with a
    /// diagnostic (status 1) when it cannot be opened; `None` without
    /// the flag.
    pub fn open_journal(&self) -> Option<JsonlJournal> {
        self.journal.as_ref().map(|path| {
            let j = JsonlJournal::append(path).unwrap_or_else(|e| {
                eprintln!("could not open journal {}: {e}", path.display());
                std::process::exit(1);
            });
            eprintln!("(run journal: {})", path.display());
            j
        })
    }

    /// Runs the full registry (`keys: None`) or a key selection on the
    /// parallel suite engine at this invocation's scale and `--jobs`,
    /// with a shared lowered-program cache, appending one
    /// [`morello_sim::RunRecord`] per cell to the `--journal` when given.
    /// A one-line engine summary (cells, jobs, cache hits, wall-time)
    /// goes to stderr so the tables on stdout stay machine-diffable.
    pub fn suite_rows(&self, keys: Option<&[&str]>) -> Vec<SuiteRow> {
        let workloads = keys.map_or_else(registry, select);
        let runner = crate::harness_runner();
        let cache = ProgramCache::new();
        let config = SuiteConfig::with_jobs(self.jobs);
        let mut journal = self.open_journal();
        let observer = journal.as_mut().map(|j| j as &mut dyn RunObserver);
        let started = std::time::Instant::now();
        let rows = run_suite_traced(
            &runner,
            &workloads,
            &cache,
            &config,
            observer,
            crate::span_sink(),
        )
        .unwrap_or_else(|e| crate::exit_with_error("suite run failed", &e));
        eprintln!(
            "(suite: {} workloads, jobs={}, lowered {} cells ({} cache hits), {:.2?})",
            workloads.len(),
            config.effective_jobs(),
            cache.misses(),
            cache.hits(),
            started.elapsed()
        );
        rows
    }

    /// Writes the binary's JSON artefact under its registered name (see
    /// [`crate::write_json`]).
    pub fn write_json(&self, value: &impl serde::Serialize) {
        crate::write_json(self.name, value);
    }

    /// The serving sweeps' configuration: `--quick` and `--jobs`, plus
    /// `--seed N`, `--fault-ppm N` (background corruption rate, requests
    /// per million), and `--burst` (on/off arrivals instead of Poisson).
    pub fn sweep_config(&self) -> SweepConfig {
        SweepConfig {
            quick: self.quick,
            jobs: self.jobs,
            seed: numeric_flag("seed", SweepConfig::default().seed),
            fault_rate_ppm: numeric_flag("fault-ppm", 0),
            traffic: if flag_present("burst") {
                TrafficModel::OnOff {
                    // 1 ms period, 25% duty cycle at the modelled 2.5 GHz.
                    period_cycles: 2_500_000,
                    on_share: 0.25,
                }
            } else {
                TrafficModel::Poisson
            },
            ..SweepConfig::default()
        }
    }
}
