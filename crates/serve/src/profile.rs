//! Request-shape profiling: the measured half of the serving model.
//!
//! A "shape" is one workload from the registry at a small scale — the
//! body of one request. Before any queueing simulation runs, every
//! (shape × ABI) cell is executed once through the full timing model to
//! measure its **service demand** in cycles, its allocation volume
//! (which scales the tenant heap churn), and — when a background
//! corruption rate is configured — the cycle cost and classified
//! outcome of a fault-injected variant of the same request.
//!
//! Profiling runs on the work-stealing pool with a per-cell fuel
//! watchdog (the shared [`morello_sim::Watchdog`], the same helper the
//! fault campaign uses): each attempt caps
//! `interp.max_insts`, and a cell that exhausts its budget retries with
//! the budget doubled (deterministic backoff) up to a bounded number of
//! attempts before the shape is marked **degraded**. Degraded shapes
//! are rejected at admission by the service rather than allowed to
//! stall a core. Every cell is a pure simulation and outcomes are read
//! back in cell order, so the profile table is byte-identical whatever
//! `--jobs` is.

use cheri_isa::Abi;
use cheri_workloads::Workload;
use morello_fault::{FaultOutcome, FaultPlan, FaultRunner};
use morello_sim::engine::{run_cells, CellOutcome};
use morello_sim::{Platform, ProgramCache, Runner, Watchdog};
use morello_uarch::TimingCore;
use serde::{Deserialize, Serialize};

/// Initial per-attempt instruction budget for the profiling watchdog.
/// Small-scale shapes retire well under this; the doubling retry ladder
/// covers honest outliers.
pub const PROFILE_FUEL: u64 = 200_000_000;

/// Watchdog retries before a shape is declared degraded (budget doubles
/// per attempt: 1×, 2×, 4×).
pub const PROFILE_RETRIES: u32 = 2;

/// How a faulted request variant ends, from the service's viewpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultClass {
    /// The capability system trapped: the service returns an error.
    Trapped,
    /// The run completed with a wrong answer: served, silently corrupt.
    Silent,
    /// The injected corruption was dead; the response is correct.
    Benign,
    /// Non-capability crash (wild branch, fuel death): service error.
    Crashed,
}

impl FaultClass {
    /// `true` when the faulted request still produces a response
    /// (correct or not) rather than an error.
    pub fn serves(self) -> bool {
        matches!(self, FaultClass::Silent | FaultClass::Benign)
    }
}

/// The fault-injected variant of a shape: what a request hit by the
/// background corruption campaign costs and how it ends.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Cycles the injected run consumed (a trapped run is truncated, so
    /// this is typically *less* than the clean service demand).
    pub cycles: u64,
    /// Classified outcome.
    pub class: FaultClass,
}

/// One (shape × ABI) profile row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShapeProfile {
    /// Workload key (`xz_557`, …).
    pub key: String,
    /// The ABI profiled.
    pub abi: Abi,
    /// The watchdog exhausted its retry ladder (or the shape does not
    /// support this ABI): the service rejects this shape at admission.
    pub degraded: bool,
    /// Service demand in simulated cycles (0 when degraded).
    pub service_cycles: u64,
    /// Instructions retired by one request (0 when degraded).
    pub retired: u64,
    /// Heap allocations one request performs — the churn scale driven
    /// through the owning tenant's heap on completion.
    pub allocs: u64,
    /// Watchdog attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// The faulted variant, when a corruption campaign is configured.
    pub fault: Option<FaultProfile>,
}

/// Derives the per-shape campaign seed from the sweep seed — splitmix
/// of the shape index, matching the arrival generator's scrambler.
fn shape_seed(base: u64, index: usize) -> u64 {
    crate::arrival::SimRng::new(base.wrapping_add(index as u64)).next_u64()
}

/// Profiles every `shapes[i]` under `abi` on the work-stealing pool.
/// `fault_seed` of `Some` additionally measures the tag-clear-injected
/// variant of each (non-degraded) shape.
///
/// # Panics
///
/// Panics if a profiling worker itself panics — a harness bug, not a
/// workload outcome (workload failures become `degraded` rows).
pub fn profile_shapes(
    platform: Platform,
    shapes: &[Workload],
    abi: Abi,
    jobs: usize,
    fault_seed: Option<u64>,
) -> Vec<ShapeProfile> {
    let cache = ProgramCache::new();
    let outcomes = run_cells(shapes.len(), jobs, |i| {
        profile_one(
            platform,
            &shapes[i],
            abi,
            &cache,
            fault_seed.map(|s| shape_seed(s, i)),
        )
    });
    unwrap_cells(outcomes, "shape profiling")
}

/// Unwraps a pool's cell outcomes in cell order, re-raising the first
/// worker panic as a panic naming the `what` cell kind.
pub(crate) fn unwrap_cells<T>(outcomes: Vec<CellOutcome<T>>, what: &str) -> Vec<T> {
    outcomes
        .into_iter()
        .map(|o| match o {
            CellOutcome::Done(v) => v,
            CellOutcome::Panicked(msg) => panic!("{what} cell panicked: {msg}"),
        })
        .collect()
}

fn profile_one(
    platform: Platform,
    shape: &Workload,
    abi: Abi,
    cache: &ProgramCache,
    fault_seed: Option<u64>,
) -> ShapeProfile {
    let mut degraded_row = ShapeProfile {
        key: shape.key.to_owned(),
        abi,
        degraded: true,
        service_cycles: 0,
        retired: 0,
        allocs: 0,
        attempts: 0,
        fault: None,
    };
    if !shape.supports(abi) {
        return degraded_row;
    }
    let watchdog = Watchdog::budgeted(PROFILE_FUEL).with_retries(PROFILE_RETRIES);
    let (result, attempts) = watchdog.run(&platform, |_, fuelled| {
        Runner::new(*fuelled)
            .run_with_cache(shape, abi, cache)
            .map(|report| (report, *fuelled))
    });
    match result {
        Ok((report, fuelled)) => {
            // The timed report is the clean reference: the same cached
            // program on the same fuelled platform, and runs are
            // deterministic, so a second clean run would repeat it.
            let fault = fault_seed.map(|seed| {
                let plan = FaultPlan::tag_clear_campaign(seed, 1, report.retired);
                let prog = cache.get_or_lower(shape, abi, fuelled.scale);
                let core = TimingCore::new(fuelled.uarch);
                let run = FaultRunner::new(fuelled).inject(&prog, &plan, report.exit_code, core);
                FaultProfile {
                    cycles: run.run.stats.cpu_cycles,
                    class: match run.outcome {
                        FaultOutcome::Trapped => FaultClass::Trapped,
                        FaultOutcome::SilentCorruption { .. } => FaultClass::Silent,
                        FaultOutcome::Benign => FaultClass::Benign,
                        FaultOutcome::Crashed(_) => FaultClass::Crashed,
                    },
                }
            });
            ShapeProfile {
                key: shape.key.to_owned(),
                abi,
                degraded: false,
                service_cycles: report.stats.cpu_cycles,
                retired: report.retired,
                allocs: report.heap.allocs,
                attempts,
                fault,
            }
        }
        Err(_) => {
            degraded_row.attempts = attempts;
            degraded_row
        }
    }
}

/// Mean service demand in cycles over the non-degraded shapes of a
/// profile table (requests draw shapes uniformly, so the unweighted
/// mean is the offered per-request demand). `None` when every shape
/// degraded.
pub fn mean_service_cycles(profiles: &[ShapeProfile]) -> Option<f64> {
    let live: Vec<u64> = profiles
        .iter()
        .filter(|p| !p.degraded)
        .map(|p| p.service_cycles)
        .collect();
    if live.is_empty() {
        return None;
    }
    Some(live.iter().sum::<u64>() as f64 / live.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_workloads::Scale;
    use morello_sim::suite::select;

    fn platform() -> Platform {
        Platform::morello().with_scale(Scale::Test)
    }

    #[test]
    fn profiles_are_deterministic_and_jobs_independent() {
        let shapes = select(&["xz_557", "alloc_stress"]);
        let one = profile_shapes(platform(), &shapes, Abi::Purecap, 1, Some(11));
        let four = profile_shapes(platform(), &shapes, Abi::Purecap, 4, Some(11));
        assert_eq!(
            serde_json::to_string(&one).unwrap(),
            serde_json::to_string(&four).unwrap()
        );
        for p in &one {
            assert!(!p.degraded);
            assert!(p.service_cycles > 0);
            assert_eq!(p.attempts, 1);
            let f = p.fault.expect("fault variant requested");
            assert!(f.cycles > 0);
            // Purecap traps on tag-cleared capability use.
            assert_eq!(f.class, FaultClass::Trapped);
        }
        // The allocator stressor drives real churn volume.
        assert!(one.iter().any(|p| p.allocs > 0));
    }

    /// The pooled-`RunState` contract the profiler leans on: repeated
    /// shape×ABI profiling on one thread is byte-identical across
    /// passes (phase A is a pure function of its inputs, warm pool or
    /// cold), and once the fast engine's thread-local arena pool is
    /// warm every profiled run reuses an arena instead of allocating.
    #[test]
    fn repeat_profiling_is_byte_identical_and_reuses_run_arenas() {
        let shapes = select(&["xz_557", "alloc_stress"]);
        let cache = ProgramCache::new();
        let pass = |cache: &ProgramCache| -> Vec<ShapeProfile> {
            let mut rows = Vec::new();
            for abi in [Abi::Hybrid, Abi::Purecap] {
                for shape in &shapes {
                    rows.push(profile_one(platform(), shape, abi, cache, None));
                }
            }
            rows
        };
        let before = cheri_isa::run_arena_stats();
        let first = pass(&cache);
        let mid = cheri_isa::run_arena_stats();
        let second = pass(&cache);
        let after = cheri_isa::run_arena_stats();

        assert_eq!(
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&second).unwrap(),
            "repeat profiling over a warm arena pool must be byte-identical"
        );
        // Every profiled cell is one fast-engine run.
        let acq_cold = mid.acquires - before.acquires;
        assert_eq!(acq_cold, (shapes.len() * 2) as u64);
        // The single profiling thread releases each arena before the
        // next run acquires, so a cold pool allocates at most once.
        assert!(
            mid.reuses - before.reuses >= acq_cold - 1,
            "cold pass reused {} of {} acquires",
            mid.reuses - before.reuses,
            acq_cold
        );
        // Warm pool: reuse one-for-one, zero fresh allocations.
        assert_eq!(
            after.acquires - mid.acquires,
            after.reuses - mid.reuses,
            "warm pass must serve every run from the pool"
        );
    }

    #[test]
    fn hybrid_faults_never_trap() {
        let shapes = select(&["xz_557"]);
        let rows = profile_shapes(platform(), &shapes, Abi::Hybrid, 1, Some(3));
        let f = rows[0].fault.unwrap();
        assert!(
            matches!(
                f.class,
                FaultClass::Silent | FaultClass::Benign | FaultClass::Crashed
            ),
            "hybrid has no capability traps, got {:?}",
            f.class
        );
    }

    #[test]
    fn unsupported_abi_is_a_degraded_row() {
        let shapes = select(&["quickjs"]);
        let rows = profile_shapes(platform(), &shapes, Abi::Benchmark, 1, None);
        assert!(rows[0].degraded);
        assert_eq!(rows[0].service_cycles, 0);
    }

    #[test]
    fn mean_ignores_degraded_rows() {
        let rows = vec![
            ShapeProfile {
                key: "a".into(),
                abi: Abi::Hybrid,
                degraded: false,
                service_cycles: 100,
                retired: 1,
                allocs: 1,
                attempts: 1,
                fault: None,
            },
            ShapeProfile {
                key: "b".into(),
                abi: Abi::Hybrid,
                degraded: true,
                service_cycles: 0,
                retired: 0,
                allocs: 0,
                attempts: 3,
                fault: None,
            },
            ShapeProfile {
                key: "c".into(),
                abi: Abi::Hybrid,
                degraded: false,
                service_cycles: 300,
                retired: 1,
                allocs: 1,
                attempts: 1,
                fault: None,
            },
        ];
        assert_eq!(mean_service_cycles(&rows), Some(200.0));
        assert_eq!(mean_service_cycles(&rows[1..2]), None);
    }
}
