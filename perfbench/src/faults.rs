//! `faults`: the fig. 9 detection-coverage campaign — seeded tag-clear
//! plans on three pointer-dense workloads × three injection rates ×
//! trials × every supported ABI, each run skipping its faulting ops.
//!
//! The untraced pass times `morello_fault::run_coverage` itself, so a
//! change anywhere inside it moves the figures. Its cells run inside the
//! program's own pool, where they cannot be timed one by one, so a cell of
//! this workload is one pass.
//!
//! The traced pass drives the campaign's cells with the public pieces
//! `run_coverage` composes (clean references first, then the injected runs
//! on the cell pool), so that each clean reference and injected run gets a
//! span and the `fault.*` measurements. Its table lines are checked
//! against the same oracle as `run_coverage`'s.

use crate::common::{cells_of, timed, traced, Pass, Programs, Tr};
use crate::stats;
use cheri_isa::Abi;
use cheri_workloads::{Scale, Workload};
use morello_fault::{
    plan_seed, run_coverage, CampaignConfig, CoverageCell, FaultOutcome, FaultPlan, FaultRunner,
    RecoveryPolicy,
};
use morello_sim::engine::{run_cells, CellOutcome};
use morello_sim::suite::select;
use morello_sim::{Runner, Watchdog};
use std::sync::OnceLock;

/// fig. 9's workloads.
pub const KEYS: [&str; 3] = ["omnetpp_520", "xz_557", "sqlite"];
/// fig. 9's quick scale: a small-scale campaign takes about a minute on
/// two workers, longer than one benchmark run may last.
pub const SCALE: Scale = Scale::Test;
/// Eight trials instead of fig. 9's two: how many runs spin to the fuel
/// cap (each costing about eight clean runs) varies with the seed, and
/// more trials per pass average that out.
const TRIALS: u32 = 8;
const RATES: [u64; 3] = [50, 200, 800];

pub struct Faults {
    pub programs: Programs,
    pub workloads: Vec<Workload>,
    pub config: CampaignConfig,
    /// See [`Faults::count_sim_insts`].
    counted: OnceLock<(u64, Vec<String>)>,
}

/// One table cell of the coverage report, as a canonical line.
fn line(key: &str, abi: Abi, rate: u64, counts: [u64; 6]) -> String {
    let [runs, injected, trapped, silent, benign, crashed] = counts;
    format!(
        "{key}/{abi}/r{rate} runs={runs} injected={injected} trapped={trapped} \
         silent={silent} benign={benign} crashed={crashed}"
    )
}

/// [`line`] of one cell of `run_coverage`'s report.
fn coverage_line(c: &CoverageCell) -> String {
    line(
        &c.key,
        c.abi,
        c.rate_per_million,
        [
            u64::from(c.runs),
            c.injected,
            u64::from(c.trapped_runs),
            u64::from(c.silent_runs),
            u64::from(c.benign_runs),
            u64::from(c.crashed_runs),
        ],
    )
}

/// One coverage table cell: (workload index, rate, ABI) and the counts of
/// [`line`].
type TableCell = ((usize, u64, Abi), [u64; 6]);

/// The fuel cap `run_coverage` puts on every injected run.
fn fuel_cap(horizon: u64) -> u64 {
    horizon.saturating_mul(8).saturating_add(100_000)
}

impl Faults {
    pub fn new(seed: u64, jobs: usize) -> Faults {
        let workloads = select(&KEYS);
        Faults {
            programs: Programs::new(cells_of(&workloads), SCALE),
            workloads,
            config: CampaignConfig {
                seed,
                rates_per_million: RATES.to_vec(),
                trials: TRIALS,
                policy: RecoveryPolicy::SkipFaultingOp,
                jobs,
            },
            counted: OnceLock::new(),
        }
    }

    /// One campaign on `jobs` workers: `run_coverage` when untraced, the
    /// instrumented campaign when traced.
    pub fn pass(&self, jobs: usize, tr: Option<Tr<'_>>) -> Pass {
        match tr {
            None => self.coverage_pass(jobs),
            Some(_) => self.instrumented_pass(jobs, tr),
        }
    }

    /// Simulated instructions one campaign retires, with the table lines
    /// of the pass that counted them. `run_coverage`'s report does not say
    /// how many instructions its runs retired, but a campaign retires the
    /// same number on every pass at one seed, so one untimed instrumented
    /// pass counts them.
    pub fn count_sim_insts(&self, jobs: usize) -> &(u64, Vec<String>) {
        self.counted.get_or_init(|| {
            let p = self.instrumented_pass(jobs, None);
            (p.sim_insts, p.lines)
        })
    }

    /// One `run_coverage` call, timed as a whole.
    fn coverage_pass(&self, jobs: usize) -> Pass {
        let (sim_insts, counted_lines) = self.count_sim_insts(jobs);
        let config = CampaignConfig {
            jobs,
            ..self.config.clone()
        };
        let (report, wall) =
            timed(|| run_coverage(&self.programs.platform, &self.workloads, &config));
        let mut pass = Pass {
            wall,
            cell_ms: vec![wall * 1e3],
            sim_insts: *sim_insts,
            ..Pass::default()
        };
        match report {
            Ok(report) => {
                for c in &report.cells {
                    pass.lines.push(coverage_line(c));
                    pass.line_cells.push(c.runs as usize);
                    pass.work += u64::from(c.runs);
                }
                pass.attempted = pass.work as usize;
            }
            Err(e) => {
                pass.attempted = 1;
                pass.errors = 1;
                pass.notes.push(format!("campaign failed: {e}"));
                pass.lines.push("campaign failed".into());
                pass.line_cells.push(1);
            }
        }
        if pass.lines != *counted_lines {
            pass.notes.push(
                "the instrumented campaign's table differs from run_coverage's, \
                 so its instruction count does not apply"
                    .into(),
            );
            pass.errors = pass.attempted;
        }
        pass
    }

    /// One campaign driven run by run, each run timed and, when traced, in
    /// a span of its own.
    fn instrumented_pass(&self, jobs: usize, tr: Option<Tr<'_>>) -> Pass {
        let mut pass = Pass::default();
        let ((clean_s, horizons, runs, outcomes), wall) = timed(|| {
            let runner = FaultRunner::new(self.programs.platform);
            // Phase 0, sequential as in `run_coverage`: the horizon is the
            // shortest supported ABI's clean retired count.
            let (horizons, clean_s) = timed(|| {
                self.workloads
                    .iter()
                    .map(|w| {
                        let mut horizon = u64::MAX;
                        for c in self.programs.cells.iter().filter(|c| c.w.key == w.key) {
                            let r = traced(
                                tr,
                                "fault.clean_ref",
                                || c.label(),
                                None,
                                || runner.clean_reference(&c.w, c.abi),
                            );
                            match r {
                                Ok(r) => {
                                    horizon = horizon.min(r.retired);
                                    pass.sim_insts += r.retired;
                                }
                                Err(e) => pass.notes.push(format!("clean {}: {e}", c.label())),
                            }
                        }
                        horizon
                    })
                    .collect::<Vec<u64>>()
            });
            // Phase 1: workload-major, then rate, trial, ABI.
            let mut runs: Vec<(usize, u64, u32, Abi)> = Vec::new();
            for (wi, w) in self.workloads.iter().enumerate() {
                for rate in RATES {
                    for trial in 0..TRIALS {
                        for abi in Abi::ALL.into_iter().filter(|a| w.supports(*a)) {
                            runs.push((wi, rate, trial, abi));
                        }
                    }
                }
            }
            let outcomes = run_cells(runs.len(), jobs, |i| {
                let (wi, rate, trial, abi) = runs[i];
                let w = &self.workloads[wi];
                let horizon = horizons[wi];
                traced(
                    tr,
                    "fault.injected_run",
                    || format!("{}/{abi}/r{rate}/t{trial}", w.key),
                    Some(i),
                    || {
                        timed(|| {
                            let n = (rate.saturating_mul(horizon) / 1_000_000).max(1) as usize;
                            let mut plan = FaultPlan::tag_clear_campaign(
                                plan_seed(self.config.seed, w.key, rate, trial),
                                n,
                                horizon,
                            );
                            plan.policy = self.config.policy;
                            let watchdog = Watchdog::budgeted(fuel_cap(horizon));
                            FaultRunner::new(watchdog.cap_platform(&self.programs.platform, 1))
                                .run(w, abi, &plan)
                        })
                    },
                )
            });
            (clean_s, horizons, runs, outcomes)
        });
        pass.wall = wall;
        pass.attempted = runs.len();

        // Aggregation in run order, one table cell per (workload, rate, ABI).
        let mut table: Vec<TableCell> = Vec::new();
        let mut run_ms = Vec::new();
        let mut watchdog_runs = 0;
        let mut useful_s = 0.0;
        let mut outcome_totals = [0u64; 4];
        for (&(wi, rate, _, abi), outcome) in runs.iter().zip(outcomes) {
            let idx = match table.iter().position(|(k, _)| *k == (wi, rate, abi)) {
                Some(i) => i,
                None => {
                    table.push(((wi, rate, abi), [0; 6]));
                    table.len() - 1
                }
            };
            let (_, counts) = &mut table[idx];
            counts[0] += 1;
            let class = match outcome {
                CellOutcome::Done((Ok(run), secs)) => {
                    run_ms.push(secs * 1e3);
                    pass.sim_insts += run.stats.inst_retired;
                    counts[1] += run.journal.len() as u64;
                    let capped = matches!(run.outcome, FaultOutcome::Crashed(_))
                        && run.stats.inst_retired >= fuel_cap(horizons[wi]);
                    if capped {
                        watchdog_runs += 1;
                    } else {
                        useful_s += secs;
                    }
                    match run.outcome {
                        FaultOutcome::Trapped => 0,
                        FaultOutcome::SilentCorruption { .. } => 1,
                        FaultOutcome::Benign => 2,
                        FaultOutcome::Crashed(_) => 3,
                    }
                }
                CellOutcome::Done((Err(e), _)) => {
                    pass.errors += 1;
                    pass.notes
                        .push(format!("{}/{abi}: {e}", self.workloads[wi].key));
                    3
                }
                CellOutcome::Panicked(msg) => {
                    pass.errors += 1;
                    pass.notes
                        .push(format!("{}/{abi}: panicked: {msg}", self.workloads[wi].key));
                    3
                }
            };
            counts[2 + class] += 1;
            outcome_totals[class] += 1;
        }
        pass.work = run_ms.len() as u64;
        for ((wi, rate, abi), counts) in &table {
            pass.lines
                .push(line(self.workloads[*wi].key, *abi, *rate, *counts));
            pass.line_cells.push(counts[0] as usize);
        }
        let injected_s: f64 = run_ms.iter().sum::<f64>() / 1e3;
        pass.extra = vec![
            ("fault.clean_ref_s", clean_s, "s"),
            ("fault.injected_runs_s", injected_s, "s"),
            ("fault.injected_run_ms_p50", stats::median(&run_ms), "ms"),
            ("fault.watchdog_runs", f64::from(watchdog_runs), "count"),
            (
                "fault.useful_ratio",
                useful_s / injected_s.max(f64::MIN_POSITIVE),
                "ratio",
            ),
            ("fault.trapped", outcome_totals[0] as f64, "count"),
            ("fault.silent", outcome_totals[1] as f64, "count"),
            ("fault.benign", outcome_totals[2] as f64, "count"),
            ("fault.crashed", outcome_totals[3] as f64, "count"),
        ];
        pass
    }

    /// The expected lines, from the program's own campaign entry point.
    pub fn reference_lines(&self, jobs: usize) -> Vec<String> {
        let config = CampaignConfig {
            jobs,
            ..self.config.clone()
        };
        match run_coverage(&self.programs.platform, &self.workloads, &config) {
            Ok(report) => report.cells.iter().map(coverage_line).collect(),
            Err(e) => vec![format!("campaign failed: {e}")],
        }
    }

    /// Purecap-over-hybrid simulated slowdown of each campaign workload's
    /// clean run, from the set-up programs.
    pub fn slowdowns(&self) -> Vec<(&'static str, f64)> {
        let runner = Runner::new(self.programs.platform);
        self.workloads
            .iter()
            .filter_map(|w| {
                let secs = |abi| {
                    runner
                        .run_with_cache(w, abi, &self.programs.cache)
                        .ok()
                        .map(|r| r.seconds)
                };
                Some((w.key, secs(Abi::Purecap)? / secs(Abi::Hybrid)?))
            })
            .collect()
    }
}
