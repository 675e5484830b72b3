//! Whole-suite execution: the parallel suite engine.
//!
//! The paper's evaluation is a workload × ABI matrix (× scale, across
//! harness invocations). Every cell is an independent pure simulation,
//! so the engine schedules all cells over a bounded work-stealing pool
//! ([`SuiteConfig::jobs`] std threads), shares lowered programs through
//! a [`ProgramCache`] so each cell shape is lowered exactly once, and
//! reduces the results deterministically: rows come back in workload
//! order with ABI cells in [`Abi::ALL`] order, byte-identical no matter
//! how many workers ran or which finished first. The golden-report and
//! determinism tests under `tests/` lock that contract.

use crate::cache::ProgramCache;
use crate::engine::{run_cells, CellOutcome};
use crate::observe::{RunObserver, RunRecord};
use crate::report::RunReport;
use crate::runner::{RunError, Runner};
use crate::span::{span, NullSpanSink, SpanSink};
use cheri_isa::Abi;
use cheri_workloads::{registry, Workload};
use serde::{Deserialize, Serialize};

/// One workload's results across the three ABIs (`None` = NA).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SuiteRow {
    /// The workload name.
    pub name: String,
    /// Stable key.
    pub key: String,
    /// Reports indexed as `[hybrid, benchmark, purecap]` (the order of
    /// [`Abi::ALL`]).
    pub reports: [Option<RunReport>; 3],
}

impl SuiteRow {
    /// The report for an ABI, if the cell ran.
    pub fn get(&self, abi: Abi) -> Option<&RunReport> {
        let idx = Abi::ALL.iter().position(|a| *a == abi).expect("known abi");
        self.reports[idx].as_ref()
    }

    /// Execution time normalised to hybrid (`None` when NA). This is the
    /// paper's Figure 1 quantity.
    pub fn normalized_time(&self, abi: Abi) -> Option<f64> {
        let h = self.get(Abi::Hybrid)?.seconds;
        Some(self.get(abi)?.seconds / h)
    }

    /// The purecap slowdown factor.
    pub fn purecap_slowdown(&self) -> Option<f64> {
        self.normalized_time(Abi::Purecap)
    }
}

/// The default worker count: the host's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// How the suite engine schedules the cell matrix.
#[derive(Clone, Copy, Debug, Default)]
pub struct SuiteConfig {
    /// Worker threads for the cell matrix. `0` means "use
    /// [`default_jobs`]"; `1` is the sequential reference the
    /// determinism tests compare the parallel schedules against.
    pub jobs: usize,
}

impl SuiteConfig {
    /// A config running `jobs` workers (`0` = available parallelism).
    pub fn with_jobs(jobs: usize) -> SuiteConfig {
        SuiteConfig { jobs }
    }

    /// The worker count actually used.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            default_jobs()
        } else {
            self.jobs
        }
    }
}

/// One schedulable cell of the suite matrix.
#[derive(Clone, Copy)]
struct Cell {
    workload: usize,
    abi_idx: usize,
}

/// Runs a set of workloads across all ABIs on the parallel suite engine,
/// sharing `cache` and scheduling over `config.effective_jobs()` workers.
///
/// Rows are returned in workload order with ABI cells in [`Abi::ALL`]
/// order regardless of completion order, so results are bit-identical
/// across worker counts. If several cells fail, the error of the first
/// failing cell **in canonical order** (not completion order) is
/// returned, again independent of scheduling. A panicking cell surfaces
/// as [`RunError::WorkerPanicked`] without tearing down sibling cells.
///
/// # Errors
///
/// The canonically-first failing supported cell's error.
pub fn run_suite_with(
    runner: &Runner,
    workloads: &[Workload],
    cache: &ProgramCache,
    config: &SuiteConfig,
) -> Result<Vec<SuiteRow>, RunError> {
    let (rows, _) = run_suite_cells(runner, workloads, cache, config, &NullSpanSink)?;
    Ok(rows)
}

/// The fully-instrumented suite entry point: as [`run_suite_with`], with
/// per-cell `lower`/`run` spans (thread-tagged by the [`SpanSink`]
/// implementation) plus an enclosing `sweep` span emitted on `spans`,
/// and — when `observer` is given — one [`RunRecord`] per completed
/// cell, in canonical order.
///
/// # Errors
///
/// As [`run_suite_with`]; on error nothing is journalled.
pub fn run_suite_traced(
    runner: &Runner,
    workloads: &[Workload],
    cache: &ProgramCache,
    config: &SuiteConfig,
    observer: Option<&mut dyn RunObserver>,
    spans: &dyn SpanSink,
) -> Result<Vec<SuiteRow>, RunError> {
    let (rows, walls) = run_suite_cells(runner, workloads, cache, config, spans)?;
    if let Some(observer) = observer {
        let platform = runner.platform();
        for (row, row_walls) in rows.iter().zip(&walls) {
            for (report, wall) in row.reports.iter().zip(row_walls) {
                if let (Some(report), Some(wall)) = (report, wall) {
                    let record =
                        RunRecord::from_report(report, platform.scale, &platform.uarch, *wall);
                    observer.observe(&record);
                }
            }
        }
    }
    Ok(rows)
}

/// The engine: runs every supported cell on the pool with per-cell
/// spans on `spans`, and returns the rows plus each cell's host
/// wall-time (journalled so speedups are observable), failing on the
/// first failing cell in canonical order.
#[allow(clippy::type_complexity)]
fn run_suite_cells(
    runner: &Runner,
    workloads: &[Workload],
    cache: &ProgramCache,
    config: &SuiteConfig,
    spans: &dyn SpanSink,
) -> Result<(Vec<SuiteRow>, Vec<[Option<f64>; 3]>), RunError> {
    let mut cells = Vec::new();
    for (workload, w) in workloads.iter().enumerate() {
        for (abi_idx, abi) in Abi::ALL.iter().enumerate() {
            if w.supports(*abi) {
                cells.push(Cell { workload, abi_idx });
            }
        }
    }

    let _sweep = span(
        spans,
        &format!("sweep {} workloads, {} cells", workloads.len(), cells.len()),
        "sweep",
    );
    let outcomes = run_cells(cells.len(), config.effective_jobs(), |i| {
        let cell = cells[i];
        let (w, abi) = (&workloads[cell.workload], Abi::ALL[cell.abi_idx]);
        let started = std::time::Instant::now();
        let result = runner.run_with_cache_spanned(w, abi, cache, spans);
        (result, started.elapsed().as_secs_f64())
    });

    let mut rows: Vec<SuiteRow> = workloads
        .iter()
        .map(|w| SuiteRow {
            name: w.name.to_owned(),
            key: w.key.to_owned(),
            reports: [None, None, None],
        })
        .collect();
    let mut walls: Vec<[Option<f64>; 3]> = vec![[None, None, None]; workloads.len()];
    for (cell, outcome) in cells.into_iter().zip(outcomes) {
        match outcome {
            CellOutcome::Panicked(message) => {
                return Err(RunError::WorkerPanicked {
                    abi: Abi::ALL[cell.abi_idx],
                    message,
                });
            }
            CellOutcome::Done((result, wall_seconds)) => {
                rows[cell.workload].reports[cell.abi_idx] = Some(result?);
                walls[cell.workload][cell.abi_idx] = Some(wall_seconds);
            }
        }
    }
    Ok((rows, walls))
}

/// Runs a set of workloads across all ABIs with a fresh private
/// [`ProgramCache`] and the default worker count.
///
/// # Errors
///
/// As [`run_suite_with`].
pub fn run_suite(runner: &Runner, workloads: &[Workload]) -> Result<Vec<SuiteRow>, RunError> {
    run_suite_with(
        runner,
        workloads,
        &ProgramCache::new(),
        &SuiteConfig::default(),
    )
}

/// Runs the full 21-workload registry.
///
/// # Errors
///
/// As [`run_suite`].
pub fn run_full_suite(runner: &Runner) -> Result<Vec<SuiteRow>, RunError> {
    run_suite(runner, &registry())
}

/// The 12 representative workloads of the paper's Table 3/4, in column
/// order.
pub const TABLE3_KEYS: [&str; 12] = [
    "parest_510",
    "lbm_519",
    "omnetpp_520",
    "xalancbmk_523",
    "deepsjeng_531",
    "leela_541",
    "nab_544",
    "xz_557",
    "llama_inference",
    "llama_matmul",
    "sqlite",
    "quickjs",
];

/// The 6 workloads of the paper's Table 4 top-down breakdown.
pub const TABLE4_KEYS: [&str; 6] = [
    "lbm_519",
    "omnetpp_520",
    "leela_541",
    "llama_inference",
    "sqlite",
    "quickjs",
];

/// Selects registry workloads by key, preserving order.
///
/// # Panics
///
/// Panics on an unknown key (the constants above are tested).
pub fn select(keys: &[&str]) -> Vec<Workload> {
    keys.iter()
        .map(|k| cheri_workloads::by_key(k).unwrap_or_else(|| panic!("unknown workload {k}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Platform;
    use crate::VecObserver;
    use cheri_workloads::Scale;

    #[test]
    fn table_keys_resolve() {
        assert_eq!(select(&TABLE3_KEYS).len(), 12);
        assert_eq!(select(&TABLE4_KEYS).len(), 6);
    }

    #[test]
    fn small_suite_runs_and_normalizes() {
        let runner = Runner::new(Platform::morello().with_scale(Scale::Test));
        let rows = run_suite(&runner, &select(&["lbm_519", "quickjs"])).unwrap();
        assert_eq!(rows.len(), 2);
        let lbm = &rows[0];
        assert!((lbm.normalized_time(Abi::Hybrid).unwrap() - 1.0).abs() < 1e-12);
        assert!(lbm.purecap_slowdown().unwrap() > 0.5);
        let quickjs = &rows[1];
        assert!(quickjs.normalized_time(Abi::Benchmark).is_none(), "NA cell");
        assert!(quickjs.purecap_slowdown().is_some());
    }

    #[test]
    fn suite_lowers_each_cell_once() {
        let runner = Runner::new(Platform::morello().with_scale(Scale::Test));
        let cache = ProgramCache::new();
        let workloads = select(&["lbm_519", "quickjs"]);
        let cfg = SuiteConfig::with_jobs(2);
        run_suite_with(&runner, &workloads, &cache, &cfg).unwrap();
        // lbm: 3 ABIs; quickjs: 2 (benchmark is NA).
        assert_eq!(cache.misses(), 5);
        assert_eq!(cache.hits(), 0);
        // A second sweep is all hits.
        run_suite_with(&runner, &workloads, &cache, &cfg).unwrap();
        assert_eq!(cache.misses(), 5);
        assert_eq!(cache.hits(), 5);
    }

    #[test]
    fn observed_suite_journals_cells_in_canonical_order() {
        let runner = Runner::new(Platform::morello().with_scale(Scale::Test));
        let mut obs = VecObserver::default();
        let rows = run_suite_traced(
            &runner,
            &select(&["quickjs", "lbm_519"]),
            &ProgramCache::new(),
            &SuiteConfig::with_jobs(3),
            Some(&mut obs),
            &NullSpanSink,
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        // quickjs hybrid, quickjs purecap, then lbm's three cells.
        let seen: Vec<(String, Abi)> = obs.records.iter().map(|r| (r.key.clone(), r.abi)).collect();
        assert_eq!(
            seen,
            vec![
                ("quickjs".to_owned(), Abi::Hybrid),
                ("quickjs".to_owned(), Abi::Purecap),
                ("lbm_519".to_owned(), Abi::Hybrid),
                ("lbm_519".to_owned(), Abi::Benchmark),
                ("lbm_519".to_owned(), Abi::Purecap),
            ]
        );
        assert!(obs.records.iter().all(|r| r.wall_seconds > 0.0));
    }

    #[test]
    fn canonically_first_error_wins_regardless_of_jobs() {
        // quickjs under the benchmark ABI is NA; forcing the cell in
        // directly through run() is the error path, but through the
        // suite NA cells are skipped — so build an error another way:
        // a workload list where a later workload panics must still
        // report the earlier workload's error first. Here every cell
        // succeeds, so just lock the jobs-independence of the rows.
        let runner = Runner::new(Platform::morello().with_scale(Scale::Test));
        let workloads = select(&["xz_557", "sqlite"]);
        let reference = run_suite_with(
            &runner,
            &workloads,
            &ProgramCache::new(),
            &SuiteConfig::with_jobs(1),
        )
        .unwrap();
        for jobs in [2, 4] {
            let rows = run_suite_with(
                &runner,
                &workloads,
                &ProgramCache::new(),
                &SuiteConfig::with_jobs(jobs),
            )
            .unwrap();
            let a = serde_json::to_string(&reference).unwrap();
            let b = serde_json::to_string(&rows).unwrap();
            assert_eq!(a, b, "jobs={jobs} must match the sequential reference");
        }
    }
}
