//! Platform configuration, the experiment runner, and the one run
//! pipeline ([`Runner::program`] then [`Runner::execute`]) that every
//! run front end in this crate, `morello-obs` and `morello-fault` wraps.

use crate::report::{HeapSummary, RunReport, TopDown};
use cheri_isa::{
    lower, Abi, BinaryLayout, EventSink, FaultInjector, Interp, InterpConfig, InterpError,
    NoInjector, NullSink, Program, RunResult,
};
use cheri_mem::HeapStats;
use cheri_revoke::StrategyKind;
use cheri_workloads::{Scale, Workload};
use core::fmt;
use morello_pmu::{DerivedMetrics, EventCounts, MultiplexedSession, PmuEvent};
use morello_uarch::{TimingCore, UarchConfig, UarchStats};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A simulated evaluation platform: microarchitecture + interpreter limits
/// + workload scale.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Platform {
    /// The timing-model configuration.
    pub uarch: UarchConfig,
    /// Interpreter limits (fuel, call depth, dependence window).
    /// `default` keeps journals written before this field serialised
    /// loadable.
    #[serde(default)]
    pub interp: InterpConfig,
    /// Problem scale for workload builders.
    pub scale: Scale,
}

impl Platform {
    /// The paper's platform: Morello (Neoverse N1 + prototype CHERI
    /// artefacts) at the default harness scale.
    pub fn morello() -> Platform {
        Platform {
            uarch: UarchConfig::neoverse_n1_morello(),
            interp: InterpConfig::default(),
            scale: Scale::Default,
        }
    }

    /// The §5 projection: CHERI-native microarchitecture.
    pub fn projected() -> Platform {
        Platform {
            uarch: UarchConfig::projected_cheri_native(),
            ..Platform::morello()
        }
    }

    /// Returns a copy at a different workload scale.
    #[must_use]
    pub fn with_scale(mut self, scale: Scale) -> Platform {
        self.scale = scale;
        self
    }

    /// Returns a copy with a different microarchitecture.
    #[must_use]
    pub fn with_uarch(mut self, uarch: UarchConfig) -> Platform {
        self.uarch = uarch;
        self
    }

    /// Returns a copy with a different capability-heap allocator
    /// strategy (ignored by non-capability ABIs, which always run the
    /// classic allocator).
    #[must_use]
    pub fn with_cap_alloc(mut self, kind: StrategyKind) -> Platform {
        self.interp.cap_alloc = kind;
        self
    }
}

impl Default for Platform {
    fn default() -> Platform {
        Platform::morello()
    }
}

/// Why a run could not produce a report.
#[derive(Clone, Debug, PartialEq)]
pub enum RunError {
    /// The workload does not support the requested ABI (the paper's NA
    /// cells, e.g. QuickJS under the benchmark ABI).
    UnsupportedAbi {
        /// Workload name.
        workload: String,
        /// The ABI that is not supported.
        abi: Abi,
    },
    /// The architectural execution failed.
    Interp(InterpError),
    /// A worker thread running one ABI cell panicked (a bug in the
    /// workload or the model, surfaced as an error instead of tearing
    /// down the caller).
    WorkerPanicked {
        /// The ABI whose worker died.
        abi: Abi,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::UnsupportedAbi { workload, abi } => {
                write!(f, "{workload} does not run under the {abi} ABI (NA)")
            }
            RunError::Interp(e) => write!(f, "execution failed: {e}"),
            RunError::WorkerPanicked { abi, message } => {
                write!(f, "worker thread for the {abi} ABI panicked: {message}")
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Interp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<InterpError> for RunError {
    fn from(e: InterpError) -> RunError {
        RunError::Interp(e)
    }
}

/// What a run is observed through: an [`EventSink`] that, once the run
/// ends, hands back the full-run statistics plus whatever else it
/// collected. Collectors stay generic on the per-event path.
pub trait Collector: EventSink {
    /// Output beyond the statistics: `()` for a bare timing core, the
    /// window series for a sampler, the region rows for a profiler.
    type Extra;

    /// Ends collection, returning the full-run statistics and the extra
    /// output.
    fn finish(self) -> (UarchStats, Self::Extra);

    /// Hands `credit` the last window of a time-series `extra`, where the
    /// run totals read at exit belong. The default has no windows.
    fn credit_last_window(extra: &mut Self::Extra, credit: impl FnOnce(&mut EventCounts)) {
        let _ = (extra, credit);
    }
}

impl Collector for TimingCore {
    type Extra = ();

    fn finish(self) -> (UarchStats, ()) {
        (TimingCore::finish(self), ())
    }
}

/// Functional-only runs: only the run totals folded at exit are set.
impl Collector for NullSink {
    type Extra = ();

    fn finish(self) -> (UarchStats, ()) {
        (UarchStats::default(), ())
    }
}

/// The run totals read at exit rather than counted per cycle: the
/// allocator's revocation counters and the fault counters.
const RUN_TOTAL_EVENTS: [PmuEvent; 8] = [
    PmuEvent::SweepGranulesVisited,
    PmuEvent::SweepTagsCleared,
    PmuEvent::RevocationEpochs,
    PmuEvent::QuarantineBytesHighWater,
    PmuEvent::FaultsInjected,
    PmuEvent::FaultsTrapped,
    PmuEvent::SilentCorruptions,
    PmuEvent::RecoveryUnwinds,
];

/// Everything one pass through [`Runner::execute`] produced.
#[derive(Clone, Debug)]
pub struct Observed<X> {
    /// Full-run statistics, with the run totals folded in.
    pub stats: UarchStats,
    /// The collector's output beyond the statistics.
    pub extra: X,
    /// What the engine returned; each front end documents what an error
    /// means to it.
    pub result: Result<RunResult, InterpError>,
}

impl<X> Observed<X> {
    /// The program's exit code, when the run completed.
    pub fn exit_code(&self) -> Option<u64> {
        self.result.as_ref().ok().map(|r| r.exit_code)
    }

    /// The observers' truncation policy: a run the instruction budget
    /// cut short is a partial observation (`Ok(true)`); any other error
    /// fails it.
    ///
    /// # Errors
    ///
    /// [`RunError::Interp`] for every engine error but fuel exhaustion.
    pub fn truncated(&self) -> Result<bool, RunError> {
        match &self.result {
            Ok(_) => Ok(false),
            Err(InterpError::FuelExhausted { .. }) => Ok(true),
            Err(e) => Err(e.clone().into()),
        }
    }
}

/// Runs workloads on a platform and assembles [`RunReport`]s.
#[derive(Clone, Copy, Debug, Default)]
pub struct Runner {
    platform: Platform,
}

impl Runner {
    /// Creates a runner for the platform.
    pub fn new(platform: Platform) -> Runner {
        Runner { platform }
    }

    /// The platform in force.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// `workload` built at the platform's scale and lowered for `abi`:
    /// through `cache` when one is given, afresh otherwise.
    ///
    /// # Errors
    ///
    /// [`RunError::UnsupportedAbi`] for the paper's NA cells.
    pub fn program(
        &self,
        workload: &Workload,
        abi: Abi,
        cache: Option<&crate::ProgramCache>,
    ) -> Result<Arc<Program>, RunError> {
        if !workload.supports(abi) {
            return Err(RunError::UnsupportedAbi {
                workload: workload.name.to_owned(),
                abi,
            });
        }
        Ok(match cache {
            Some(cache) => cache.get_or_lower(workload, abi, self.platform.scale),
            None => Arc::new(lower(&workload.build(abi, self.platform.scale))),
        })
    }

    /// The run pipeline: runs `prog` into `collector` under `injector`
    /// ([`NoInjector`] for a clean run), folds a completed run's heap
    /// stats, calls `settle` (where fault injection classifies and folds
    /// its counters), then credits the run totals to the last window.
    pub fn execute<C: Collector, I: FaultInjector>(
        &self,
        prog: &Program,
        mut collector: C,
        injector: &mut I,
        settle: impl FnOnce(&mut UarchStats, &Result<RunResult, InterpError>, &I),
    ) -> Observed<C::Extra> {
        let result =
            Interp::new(self.platform.interp).run_with_faults(prog, &mut collector, injector);
        let (mut stats, mut extra) = collector.finish();
        if let Ok(r) = &result {
            fold_heap_stats(&mut stats, &r.heap_stats);
        }
        settle(&mut stats, &result, injector);
        C::credit_last_window(&mut extra, |window| {
            let full = EventCounts::from_uarch(&stats);
            for event in RUN_TOTAL_EVENTS {
                window.set(event, full.get(event));
            }
        });
        Observed {
            stats,
            extra,
            result,
        }
    }

    /// Runs one workload under one ABI and reports everything.
    ///
    /// # Errors
    ///
    /// [`RunError::UnsupportedAbi`] for the paper's NA cells;
    /// [`RunError::Interp`] if execution faults (which, for the shipped
    /// workloads, indicates a bug — capability faults are tested for
    /// separately).
    pub fn run(&self, workload: &Workload, abi: Abi) -> Result<RunReport, RunError> {
        let prog = self.program(workload, abi, None)?;
        self.run_lowered(workload, abi, &prog)
    }

    /// As [`run`](Runner::run), but fetches the lowered program from
    /// `cache` (lowering it on first use) instead of re-lowering per
    /// call. Lowering depends only on (workload, ABI, scale), so the
    /// cache can safely be shared across platforms that differ in
    /// microarchitecture or interpreter limits — the suite engine and
    /// the ablation ladders exploit exactly that.
    ///
    /// # Errors
    ///
    /// As [`run`](Runner::run).
    pub fn run_with_cache(
        &self,
        workload: &Workload,
        abi: Abi,
        cache: &crate::ProgramCache,
    ) -> Result<RunReport, RunError> {
        let prog = self.program(workload, abi, Some(cache))?;
        self.run_lowered(workload, abi, &prog)
    }

    /// As [`run_with_cache`](Runner::run_with_cache), with the lowering
    /// and execution phases bracketed by spans on `spans` — the traced
    /// per-cell path of the suite engine. A cache hit shows up as a
    /// near-zero `lower` span, which is exactly what the trace should
    /// say.
    ///
    /// # Errors
    ///
    /// As [`run`](Runner::run).
    pub fn run_with_cache_spanned(
        &self,
        workload: &Workload,
        abi: Abi,
        cache: &crate::ProgramCache,
        spans: &dyn crate::SpanSink,
    ) -> Result<RunReport, RunError> {
        let prog = {
            let _s = crate::span(spans, &format!("lower {} {abi}", workload.key), "lower");
            self.program(workload, abi, Some(cache))?
        };
        let _s = crate::span(spans, &format!("run {} {abi}", workload.key), "run");
        self.run_lowered(workload, abi, &prog)
    }

    /// Executes an already-lowered program and assembles the report.
    /// Public so traced drivers can split lowering from execution; the
    /// program must come from [`program`](Runner::program) for the same
    /// (workload, ABI, scale), or the report will describe a mismatched
    /// binary.
    ///
    /// # Errors
    ///
    /// [`RunError::Interp`] if execution faults.
    pub fn run_lowered(
        &self,
        workload: &Workload,
        abi: Abi,
        prog: &Program,
    ) -> Result<RunReport, RunError> {
        let core = TimingCore::new(self.platform.uarch);
        let run = self.execute(prog, core, &mut NoInjector, |_, _, _| {});
        let result = run.result?;
        Ok(self.assemble(workload, abi, run.stats, prog, result))
    }

    /// Executes an already-lowered program on the architectural fast
    /// path alone: no timing model is attached, so the engine's batched
    /// per-class accumulation is the only per-instruction bookkeeping.
    /// This is the engine-throughput mode behind `bench_speed`'s
    /// per-ABI `host_insts_per_sec` rate; architectural results
    /// (retired count, class counts, exit code, heap statistics) are
    /// identical to a timed run's.
    ///
    /// # Errors
    ///
    /// [`RunError::Interp`] if execution faults.
    pub fn run_lowered_arch(&self, prog: &Program) -> Result<RunResult, RunError> {
        Ok(self
            .execute(prog, NullSink, &mut NoInjector, |_, _, _| {})
            .result?)
    }

    /// Runs one workload under one ABI and, on success, appends a
    /// [`RunRecord`](crate::RunRecord) — counts, derived metrics,
    /// configuration hash, and the host wall-time of the simulation —
    /// to the given observer (a structured run journal).
    ///
    /// # Errors
    ///
    /// As [`run`](Runner::run); failed runs are not journalled.
    pub fn run_observed(
        &self,
        workload: &Workload,
        abi: Abi,
        observer: &mut dyn crate::RunObserver,
    ) -> Result<RunReport, RunError> {
        let started = std::time::Instant::now();
        let report = self.run(workload, abi)?;
        let record = crate::RunRecord::from_report(
            &report,
            self.platform.scale,
            &self.platform.uarch,
            started.elapsed().as_secs_f64(),
        );
        observer.observe(&record);
        Ok(report)
    }

    /// Runs one workload the way the paper measured it: a
    /// [`MultiplexedSession`] over the full Table 1 event set, re-running
    /// the (deterministic) workload once per six-counter group. Returns
    /// the merged counts and the number of runs used.
    ///
    /// # Errors
    ///
    /// As [`run`](Runner::run).
    pub fn run_multiplexed(
        &self,
        workload: &Workload,
        abi: Abi,
    ) -> Result<(EventCounts, usize), RunError> {
        let prog = self.program(workload, abi, None)?;
        let session = MultiplexedSession::plan_full();
        let counts = session.collect(|_group| {
            let core = TimingCore::new(self.platform.uarch);
            let run = self.execute(&prog, core, &mut NoInjector, |_, _, _| {});
            run.result.map(|_| run.stats)
        })?;
        Ok((counts, session.required_runs()))
    }

    fn assemble(
        &self,
        workload: &Workload,
        abi: Abi,
        stats: UarchStats,
        prog: &Program,
        result: RunResult,
    ) -> RunReport {
        let counts = EventCounts::from_uarch(&stats);
        let derived = DerivedMetrics::from_counts(&counts);
        let topdown = TopDown::from_stats(&stats, &derived);
        RunReport {
            workload: workload.name.to_owned(),
            key: workload.key.to_owned(),
            abi,
            seconds: self.platform.uarch.cycles_to_seconds(stats.cpu_cycles),
            retired: stats.inst_retired,
            exit_code: result.exit_code,
            heap: HeapSummary {
                allocs: result.heap_stats.total_allocs,
                frees: result.heap_stats.total_frees,
                peak_live_bytes: result.heap_stats.peak_live_bytes,
                padding_bytes: result.heap_stats.padding_bytes,
                pages_touched: result.pages_touched,
                quarantine_bytes_hwm: result.heap_stats.quarantine_bytes_hwm,
                quarantine_blocks_hwm: result.heap_stats.quarantine_blocks_hwm,
                revocation_epochs: result.heap_stats.revocation_epochs,
            },
            binary: BinaryLayout::of(prog),
            stats,
            counts,
            derived,
            topdown,
        }
    }
}

/// Copies the allocator's revocation counters into the microarchitectural
/// stats so they surface as PMU events. [`Runner::execute`] calls it once
/// for every completed run, whatever collects it, so the synthetic
/// counters stay consistent with the hardware-modelled ones.
pub fn fold_heap_stats(stats: &mut UarchStats, heap: &HeapStats) {
    stats.sweep_granules_visited = heap.sweep_granules_visited;
    stats.sweep_tags_cleared = heap.sweep_tags_cleared;
    stats.revocation_epochs = heap.revocation_epochs;
    stats.quarantine_bytes_hwm = heap.quarantine_bytes_hwm;
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_workloads::by_key;
    use morello_pmu::PmuEvent;

    fn test_runner() -> Runner {
        Runner::new(Platform::morello().with_scale(Scale::Test))
    }

    #[test]
    fn run_produces_consistent_report() {
        let r = test_runner();
        let w = by_key("lbm_519").unwrap();
        let rep = r.run(&w, Abi::Hybrid).unwrap();
        assert!(rep.seconds > 0.0);
        assert!(rep.retired > 0);
        assert_eq!(rep.stats.inst_retired, rep.retired);
        assert!(rep.ipc() > 0.0 && rep.ipc() <= 4.0);
        // Top-down shares are sane.
        let t = rep.topdown;
        assert!(t.frontend_bound >= 0.0 && t.frontend_bound < 1.0);
        assert!(t.backend_bound >= 0.0 && t.backend_bound < 1.0);
        assert!((t.l1_bound + t.l2_bound + t.ext_mem_bound - t.memory_bound).abs() < 1e-6);
    }

    #[test]
    fn cached_run_matches_direct_run() {
        let r = test_runner();
        let w = by_key("xz_557").unwrap();
        let cache = crate::ProgramCache::new();
        let direct = r.run(&w, Abi::Purecap).unwrap();
        let first = r.run_with_cache(&w, Abi::Purecap, &cache).unwrap();
        let second = r.run_with_cache(&w, Abi::Purecap, &cache).unwrap();
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        for rep in [&first, &second] {
            assert_eq!(rep.counts, direct.counts);
            assert_eq!(rep.stats, direct.stats);
            assert_eq!(rep.exit_code, direct.exit_code);
            assert!((rep.seconds - direct.seconds).abs() < 1e-15);
        }
    }

    #[test]
    fn na_cell_is_reported() {
        let r = test_runner();
        let q = by_key("quickjs").unwrap();
        assert!(matches!(
            r.run(&q, Abi::Benchmark),
            Err(RunError::UnsupportedAbi { .. })
        ));
    }

    #[test]
    fn multiplexed_session_matches_single_run() {
        let r = test_runner();
        let w = by_key("deepsjeng_531").unwrap();
        let single = r.run(&w, Abi::Purecap).unwrap();
        let (multi, runs) = r.run_multiplexed(&w, Abi::Purecap).unwrap();
        assert!(runs >= 7, "full event set needs several runs, got {runs}");
        for (e, v) in single.counts.iter() {
            assert_eq!(multi.get(e), v, "mismatch on {e}");
        }
        assert!(multi.get(PmuEvent::CapMemAccessRd) > 0);
    }

    #[test]
    fn swept_strategy_surfaces_revocation_events() {
        let w = by_key("alloc_stress").unwrap();
        let swept = Runner::new(
            Platform::morello()
                .with_scale(Scale::Test)
                .with_cap_alloc(StrategyKind::swept_bytes(16 * 1024)),
        );
        let p = swept.run(&w, Abi::Purecap).unwrap();
        assert!(p.counts.get(PmuEvent::RevocationEpochs) > 0);
        assert!(p.counts.get(PmuEvent::SweepGranulesVisited) > 0);
        assert!(p.counts.get(PmuEvent::QuarantineBytesHighWater) > 0);
        assert!(p.heap.quarantine_bytes_hwm > 0);
        assert!(p.heap.revocation_epochs > 0);
        // The sweep's memory traffic must be visible to the cache model.
        let d = test_runner().run(&w, Abi::Purecap).unwrap();
        assert!(p.stats.mem_access_rd > d.stats.mem_access_rd);
        // Hybrid runs the classic allocator: no sweeps, whatever the knob.
        let h = swept.run(&w, Abi::Hybrid).unwrap();
        assert_eq!(h.counts.get(PmuEvent::SweepGranulesVisited), 0);
        assert_eq!(h.heap.revocation_epochs, 0);
        assert_eq!(h.heap.quarantine_bytes_hwm, 0);
        // The default padded strategy quarantines but never tag-sweeps.
        assert_eq!(d.counts.get(PmuEvent::SweepTagsCleared), 0);
        assert!(d.heap.quarantine_blocks_hwm > 0);
    }

    #[test]
    fn purecap_is_slower_for_pointer_heavy_workload() {
        let r = test_runner();
        let w = by_key("omnetpp_520").unwrap();
        let h = r.run(&w, Abi::Hybrid).unwrap();
        let p = r.run(&w, Abi::Purecap).unwrap();
        assert!(
            p.seconds > h.seconds,
            "omnetpp purecap ({}) must be slower than hybrid ({})",
            p.seconds,
            h.seconds
        );
        assert!(p.derived.cap_traffic_share > 0.2);
        assert!(h.derived.cap_traffic_share < 0.05);
    }
}
