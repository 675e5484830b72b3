//! The shared command-line front-end of the figure/table binaries.
//!
//! Every experiment binary historically re-parsed the same four flags
//! (`--jobs`, `--out`, `--trace`, `--journal`) plus `MORELLO_SCALE` by
//! hand at the top of `main`. [`BenchCli::parse`] bundles that into one
//! call: it arms the trace guard, resolves the scale and worker count,
//! notes `--quick`, and remembers the artefact name so
//! [`BenchCli::write_json`] lands the JSON in the standard place
//! (`--out <path>`, `-` for stdout, default `target/experiments/`).
//! [`BenchCli::sweep_config`] adds the serving sweeps' flags.

use crate::TraceGuard;
use cheri_workloads::Scale;
use morello_obs::JsonlJournal;
use morello_serve::{SweepConfig, TrafficModel};
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
    match morello_pmu::flag_value(&args, name) {
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("invalid --{name} value `{raw}` (expected a number)");
            std::process::exit(2);
        }),
        None => default,
    }
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
