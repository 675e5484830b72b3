//! Detection-coverage campaigns: injection rate × ABI × workload sweeps
//! over the parallel cell engine, aggregated into the fig. 9 table.
//!
//! The campaign is deterministic end to end. Per-cell plan seeds are
//! derived from the campaign seed and the cell's *coordinates*
//! (workload key, rate, trial) — never from scheduling — and cells are
//! aggregated in canonical order, so the report is byte-identical
//! across `--jobs` settings; CI locks this by diffing a `--jobs 1` run
//! against a `--jobs 4` run.

use crate::plan::FaultPlan;
use crate::runner::{CleanReference, FaultOutcome, FaultRunner};
use cheri_isa::{Abi, Program, RecoveryPolicy};
use cheri_workloads::Workload;
use morello_pmu::{fmt_metric, Table};
use morello_sim::engine::{run_cells, CellOutcome};
use morello_sim::{Platform, RunError, Runner, Watchdog};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Campaign shape: seed, injection rates, trials per cell, disposition.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Root seed; every cell derives its plan seed from this and its
    /// coordinates.
    pub seed: u64,
    /// Injection rates swept, in faults per million clean-run retired
    /// instructions (of the cell's shortest-ABI run).
    pub rates_per_million: Vec<u64>,
    /// Independent seeded trials per (workload, rate, ABI) cell.
    pub trials: u32,
    /// Fault disposition for every injected run.
    pub policy: RecoveryPolicy,
    /// Worker threads for the cell fan-out. Scheduling never influences
    /// the results, so it is not part of the serialised artefact — the
    /// CI `--jobs 1` vs `--jobs 4` diff depends on that.
    #[serde(skip)]
    pub jobs: usize,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 0x5EED_FA17,
            rates_per_million: vec![50, 200, 800],
            trials: 3,
            // Skip-and-continue keeps capability ABIs running past the
            // first trap, so every armed trigger gets its chance to
            // fire — the densest version of the coverage experiment.
            policy: RecoveryPolicy::SkipFaultingOp,
            jobs: 1,
        }
    }
}

/// One aggregated table cell: a (workload, rate, ABI) coordinate summed
/// over the campaign's trials.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageCell {
    /// Workload name.
    pub workload: String,
    /// Workload key.
    pub key: String,
    /// The ABI run.
    pub abi: Abi,
    /// Injection rate in faults per million instructions.
    pub rate_per_million: u64,
    /// Trials aggregated.
    pub runs: u32,
    /// Total injections fired across the trials.
    pub injected: u64,
    /// Runs classified trapped.
    pub trapped_runs: u32,
    /// Runs classified silently corrupted.
    pub silent_runs: u32,
    /// Runs classified benign.
    pub benign_runs: u32,
    /// Runs that crashed on a non-capability error (including panicked
    /// workers, surfaced here instead of tearing the campaign down).
    pub crashed_runs: u32,
}

impl CoverageCell {
    /// Share of runs with at least one fired injection that trapped —
    /// the detection-coverage headline. Runs where nothing fired are
    /// excluded: there was nothing to detect.
    pub fn trap_coverage(&self) -> f64 {
        let eligible = self.runs - self.quiet_runs();
        if eligible == 0 {
            return 0.0;
        }
        f64::from(self.trapped_runs) / f64::from(eligible)
    }

    /// Share of all runs that completed with a wrong answer undetected.
    pub fn silent_rate(&self) -> f64 {
        if self.runs == 0 {
            return 0.0;
        }
        f64::from(self.silent_runs) / f64::from(self.runs)
    }

    fn quiet_runs(&self) -> u32 {
        // Benign runs with zero injections never armed anything; the
        // aggregation counts them via `injected == 0` only when *no*
        // trial fired, which at the swept rates does not occur — kept
        // for the rate-0 baseline cells a caller may add.
        if self.injected == 0 {
            self.runs
        } else {
            0
        }
    }
}

/// A full campaign result: configuration echo plus the aggregated cells
/// in canonical (workload, rate, ABI) order.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CoverageReport {
    /// The configuration that produced the report.
    pub config: CampaignConfig,
    /// Aggregated cells, workload-major, then rate, then ABI in
    /// `Abi::ALL` order.
    pub cells: Vec<CoverageCell>,
}

/// splitmix64 — the standard 64-bit seed scrambler.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-cell plan seed: campaign seed scrambled with the cell's
/// coordinates. Deliberately independent of the ABI so the *same plan*
/// meets all three ABIs — the comparison the coverage table makes.
pub fn plan_seed(campaign_seed: u64, key: &str, rate_per_million: u64, trial: u32) -> u64 {
    let mut h = mix(campaign_seed);
    for b in key.bytes() {
        h = mix(h ^ u64::from(b));
    }
    h = mix(h ^ rate_per_million);
    mix(h ^ u64::from(trial))
}

/// Runs the detection-coverage campaign: for every workload, a clean
/// per-ABI reference fixes the trigger horizon (the shortest supported
/// ABI's retired count), then every (rate, trial, ABI) cell runs a
/// seeded tag-clear plan through the parallel cell engine and is
/// aggregated in canonical order.
///
/// The table reads only each run's outcome and injection count, so the
/// cells do only that work: each supported (workload, ABI) is lowered and
/// run clean once, up front on the same pool, and the injected runs
/// drive no timing model and stop once both are settled
/// (`FaultRunner::run_outcome`): a run that has trapped with every
/// trigger fired counts as trapped with the whole plan injected, exactly
/// as its full run would.
///
/// # Errors
///
/// Fails only if a *clean* reference run fails (a harness bug);
/// injected-run failures are classified into the table.
pub fn run_coverage(
    platform: &Platform,
    workloads: &[Workload],
    config: &CampaignConfig,
) -> Result<CoverageReport, RunError> {
    let runner = FaultRunner::new(*platform);

    // Phase 0: lower every supported (workload, ABI) once and run its
    // clean reference once, on the cell pool; every cell of the pair
    // reuses both. The horizon is the minimum retired count across the
    // workload's supported ABIs, so every trigger point is reachable
    // under every ABI, whichever worker ran which reference.
    struct Reference {
        abi: Abi,
        prog: Arc<Program>,
        clean: CleanReference,
    }
    let pairs: Vec<(usize, Abi)> = workloads
        .iter()
        .enumerate()
        .flat_map(|(w, wl)| {
            Abi::ALL
                .into_iter()
                .filter(|a| wl.supports(*a))
                .map(move |a| (w, a))
        })
        .collect();
    let cleans = run_cells(pairs.len(), config.jobs, |i| {
        let (w, abi) = pairs[i];
        let prog = Runner::new(*platform).program(&workloads[w], abi, None)?;
        let clean = runner.clean_reference_lowered(&prog)?;
        Ok::<_, RunError>(Reference { abi, prog, clean })
    });
    let mut refs: Vec<Vec<Reference>> = workloads.iter().map(|_| Vec::new()).collect();
    for (&(w, _), clean) in pairs.iter().zip(cleans) {
        match clean {
            CellOutcome::Done(reference) => refs[w].push(reference?),
            CellOutcome::Panicked(msg) => panic!("clean reference panicked: {msg}"),
        }
    }
    let horizons: Vec<u64> = refs
        .iter()
        .map(|pairs| {
            pairs
                .iter()
                .map(|r| r.clean.retired)
                .min()
                .unwrap_or(u64::MAX)
        })
        .collect();

    // Phase 1: the injection cells, canonical order (workload-major,
    // then rate, then trial, then ABI).
    struct Cell {
        w: usize,
        rate: u64,
        trial: u32,
        /// Index into `refs[w]`.
        reference: usize,
    }
    let mut cells: Vec<Cell> = Vec::new();
    for (w, pairs) in refs.iter().enumerate() {
        for &rate in &config.rates_per_million {
            for trial in 0..config.trials {
                for reference in 0..pairs.len() {
                    cells.push(Cell {
                        w,
                        rate,
                        trial,
                        reference,
                    });
                }
            }
        }
    }
    let outcomes = run_cells(cells.len(), config.jobs, |i| {
        let cell = &cells[i];
        let w = &workloads[cell.w];
        let reference = &refs[cell.w][cell.reference];
        let horizon = horizons[cell.w];
        let n = ((cell.rate.saturating_mul(horizon)) / 1_000_000).max(1) as usize;
        let mut plan = FaultPlan::tag_clear_campaign(
            plan_seed(config.seed, w.key, cell.rate, cell.trial),
            n,
            horizon,
        );
        plan.policy = config.policy;
        // Fuel watchdog: a nudged hybrid pointer can corrupt a loop
        // bound into a near-infinite spin. Cap injected runs at a
        // generous multiple of the clean horizon; a run that blows it
        // classifies as crashed (detected by watchdog, not by the
        // capability system) instead of stalling the campaign.
        let watchdog = Watchdog::budgeted(horizon.saturating_mul(8).saturating_add(100_000));
        FaultRunner::new(watchdog.cap_platform(platform, 1)).run_outcome(
            &reference.prog,
            reference.clean,
            &plan,
        )
    });

    // Phase 2: aggregation, in cell order.
    let mut out: Vec<CoverageCell> = Vec::new();
    for (cell, outcome) in cells.iter().zip(outcomes) {
        let w = &workloads[cell.w];
        let abi = refs[cell.w][cell.reference].abi;
        let slot = out
            .iter_mut()
            .find(|c| c.key == w.key && c.rate_per_million == cell.rate && c.abi == abi);
        let slot = match slot {
            Some(s) => s,
            None => {
                out.push(CoverageCell {
                    workload: w.name.to_owned(),
                    key: w.key.to_owned(),
                    abi,
                    rate_per_million: cell.rate,
                    runs: 0,
                    injected: 0,
                    trapped_runs: 0,
                    silent_runs: 0,
                    benign_runs: 0,
                    crashed_runs: 0,
                });
                out.last_mut().expect("just pushed")
            }
        };
        slot.runs += 1;
        match outcome {
            CellOutcome::Done(Ok((outcome, injected))) => {
                slot.injected += injected;
                match outcome {
                    FaultOutcome::Trapped => slot.trapped_runs += 1,
                    FaultOutcome::SilentCorruption { .. } => slot.silent_runs += 1,
                    FaultOutcome::Benign => slot.benign_runs += 1,
                    FaultOutcome::Crashed(_) => slot.crashed_runs += 1,
                }
            }
            // UnsupportedAbi is filtered upfront; anything else — like a
            // panicked worker — degrades to a crashed run instead of
            // aborting the campaign.
            CellOutcome::Done(Err(_)) | CellOutcome::Panicked(_) => slot.crashed_runs += 1,
        }
    }
    Ok(CoverageReport {
        config: config.clone(),
        cells: out,
    })
}

/// Renders the fig. 9 detection-coverage table.
pub fn coverage_table(cells: &[CoverageCell]) -> Table {
    let mut t = Table::new(&[
        "Workload",
        "ABI",
        "Rate/M",
        "Runs",
        "Injected",
        "Trapped",
        "Silent",
        "Benign",
        "Crashed",
        "Coverage %",
        "Silent %",
    ]);
    for c in cells {
        t.row(&[
            c.workload.clone(),
            c.abi.to_string(),
            c.rate_per_million.to_string(),
            c.runs.to_string(),
            c.injected.to_string(),
            c.trapped_runs.to_string(),
            c.silent_runs.to_string(),
            c.benign_runs.to_string(),
            c.crashed_runs.to_string(),
            fmt_metric(c.trap_coverage() * 100.0),
            fmt_metric(c.silent_rate() * 100.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_seeds_depend_on_every_coordinate() {
        let base = plan_seed(1, "xz_557", 50, 0);
        assert_ne!(base, plan_seed(2, "xz_557", 50, 0));
        assert_ne!(base, plan_seed(1, "sqlite", 50, 0));
        assert_ne!(base, plan_seed(1, "xz_557", 200, 0));
        assert_ne!(base, plan_seed(1, "xz_557", 50, 1));
        assert_eq!(base, plan_seed(1, "xz_557", 50, 0), "pure function");
    }

    #[test]
    fn coverage_ratios() {
        let c = CoverageCell {
            workload: "w".into(),
            key: "w".into(),
            abi: Abi::Purecap,
            rate_per_million: 50,
            runs: 4,
            injected: 12,
            trapped_runs: 4,
            silent_runs: 0,
            benign_runs: 0,
            crashed_runs: 0,
        };
        assert!((c.trap_coverage() - 1.0).abs() < 1e-12);
        assert!(c.silent_rate().abs() < 1e-12);
    }
}
