//! Fault-aware run paths and run-outcome classification.
//!
//! [`FaultRunner`] mirrors the plain [`morello_sim::Runner`] but threads
//! a [`FaultSession`] through the interpreter, classifies what the
//! injection did to the run, and folds the four fault counters
//! (`FAULTS_INJECTED`, `FAULTS_TRAPPED`, `SILENT_CORRUPTIONS`,
//! `RECOVERY_UNWINDS`) into the statistics of every collection mode the
//! harness knows: direct, multiplexed, sampled, and profiled.
//!
//! Classification needs ground truth, so every fault run first executes
//! the program *clean* (functional interpreter only, no timing model)
//! and records the reference exit code. A run that completes with a
//! different exit and never trapped is a **silent corruption** — the
//! hybrid-ABI failure mode the paper's capability ABIs exist to close.
//!
//! Every injected run, whatever it measures, goes through one helper
//! generic over the event sink: the run paths here hand it a timing
//! core, sampler or profiler, and the coverage campaign hands it a
//! [`NullSink`] because its table reads only the outcome and the journal.

use crate::plan::FaultPlan;
use crate::session::{FaultSession, InjectionRecord};
use cheri_isa::{lower, Abi, EventSink, Interp, InterpError, NullSink, Program, RunResult};
use cheri_workloads::Workload;
use morello_obs::{IntervalSample, IntervalSampler, Profiler, RegionProfile};
use morello_pmu::{DerivedMetrics, EventCounts, MultiplexedSession, PmuEvent};
use morello_sim::{fold_heap_stats, Platform, RunError};
use morello_uarch::{TimingCore, UarchStats};
use serde::{Deserialize, Serialize};

/// What an injection campaign did to one run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultOutcome {
    /// At least one capability fault reached the recovery handler — the
    /// corruption was *detected* (CheriBSD would have raised SIGPROT).
    Trapped,
    /// The run completed without a single trap but produced the wrong
    /// answer: the corruption flowed into the result undetected.
    SilentCorruption {
        /// The clean run's exit code.
        expected: u64,
        /// What the corrupted run returned instead.
        got: u64,
    },
    /// The run completed with the correct answer; the injected
    /// corruption was dead (overwritten or never consumed).
    Benign,
    /// The run died on a non-capability error (wild branch, fuel
    /// exhaustion from a corrupted loop bound, …) — detected by crash,
    /// not by the capability system.
    Crashed(String),
}

impl FaultOutcome {
    /// `true` for [`FaultOutcome::SilentCorruption`].
    pub fn is_silent(&self) -> bool {
        matches!(self, FaultOutcome::SilentCorruption { .. })
    }
}

/// The clean-reference facts classification is anchored on.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CleanReference {
    /// Exit code of the uninjected run.
    pub exit_code: u64,
    /// Retired instructions of the uninjected run — the campaign
    /// generator's trigger horizon.
    pub retired: u64,
}

/// A fault-injected direct run: classification, journal, and the same
/// counts/derived metrics a plain run produces (now carrying the fault
/// events).
#[derive(Clone, Debug, Serialize)]
pub struct FaultRun {
    /// Workload name.
    pub workload: String,
    /// The ABI run.
    pub abi: Abi,
    /// What the campaign did to the run.
    pub outcome: FaultOutcome,
    /// The clean run's exit code.
    pub expected_exit: u64,
    /// The injected run's exit code, when it completed.
    pub exit_code: Option<u64>,
    /// Full-run statistics with the fault counters folded in.
    pub stats: UarchStats,
    /// PMU event counts (46 events including the fault four).
    pub counts: EventCounts,
    /// Table 1 derived metrics plus fault coverage/silent-rate.
    pub derived: DerivedMetrics,
    /// Every injection that fired, in firing order.
    pub journal: Vec<InjectionRecord>,
}

/// A fault-injected sampled run (windowed PMU time-series).
#[derive(Clone, Debug, Serialize)]
pub struct FaultSampledRun {
    /// Workload name.
    pub workload: String,
    /// The ABI run.
    pub abi: Abi,
    /// Window length in cycles.
    pub window: u64,
    /// What the campaign did to the run.
    pub outcome: FaultOutcome,
    /// Full-run statistics with the fault counters folded in.
    pub stats: UarchStats,
    /// Per-window event deltas; run-total fault counters are credited
    /// to the last window, as with the allocator counters.
    pub samples: Vec<IntervalSample>,
    /// Every injection that fired, in firing order.
    pub journal: Vec<InjectionRecord>,
    /// The run ended early (abort-on-trap or crash): the time-series
    /// covers the executed prefix only.
    pub truncated: bool,
}

/// A fault-injected profiled run (cycle attribution by region).
#[derive(Clone, Debug, Serialize)]
pub struct FaultProfiledRun {
    /// Workload name.
    pub workload: String,
    /// The ABI run.
    pub abi: Abi,
    /// What the campaign did to the run.
    pub outcome: FaultOutcome,
    /// Full-run statistics with the fault counters folded in.
    pub stats: UarchStats,
    /// Per-region attribution covering the executed (possibly
    /// truncated) prefix.
    pub regions: Vec<RegionProfile>,
    /// Every injection that fired, in firing order.
    pub journal: Vec<InjectionRecord>,
    /// The run ended early (abort-on-trap or crash).
    pub truncated: bool,
}

/// Copies the session's counters into the run statistics — the bridge
/// that makes injections visible to the PMU model, mirroring
/// [`morello_sim::fold_heap_stats`] for the allocator.
pub fn fold_fault_stats(stats: &mut UarchStats, session: &FaultSession, silent: bool) {
    stats.faults_injected = session.injected();
    stats.faults_trapped = session.trapped_count();
    stats.recovery_unwinds = session.unwinds();
    stats.silent_corruptions = u64::from(silent);
}

/// Classifies a finished (or aborted) injected run against the clean
/// reference. Precedence: trapped beats everything (a trap *is*
/// detection even if recovery then produced a wrong answer), silent
/// corruption beats benign, non-capability errors are crashes.
fn classify(
    result: &Result<RunResult, InterpError>,
    session: &FaultSession,
    expected: u64,
) -> FaultOutcome {
    if session.trapped_count() > 0 {
        return FaultOutcome::Trapped;
    }
    match result {
        Ok(r) if r.exit_code != expected => FaultOutcome::SilentCorruption {
            expected,
            got: r.exit_code,
        },
        Ok(_) => FaultOutcome::Benign,
        Err(e @ InterpError::Fault { .. }) => {
            // Unreachable in practice: the handler counts the trap
            // before aborting. Kept so classification never lies if the
            // injector miscounts.
            let _ = e;
            FaultOutcome::Trapped
        }
        Err(e) => FaultOutcome::Crashed(e.to_string()),
    }
}

/// One finished injected run: what the interpreter returned, the session
/// that drove it, and the classification of the two.
struct Injected {
    result: Result<RunResult, InterpError>,
    session: FaultSession,
    outcome: FaultOutcome,
}

impl Injected {
    /// The injected run's exit code, when it completed.
    fn exit_code(&self) -> Option<u64> {
        self.result.as_ref().ok().map(|r| r.exit_code)
    }

    /// Folds the run's heap counters (when it completed) and the fault
    /// counters into statistics its sink collected.
    fn fold(&self, stats: &mut UarchStats) {
        if let Ok(r) = &self.result {
            fold_heap_stats(stats, &r.heap_stats);
        }
        fold_fault_stats(stats, &self.session, self.outcome.is_silent());
    }
}

/// Runs workloads with fault plans over every collection mode.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultRunner {
    platform: Platform,
}

impl FaultRunner {
    /// Creates a fault runner for the platform.
    pub fn new(platform: Platform) -> FaultRunner {
        FaultRunner { platform }
    }

    /// The platform in force.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// `workload` built at the platform's scale under `abi` and lowered.
    pub(crate) fn lowered(&self, workload: &Workload, abi: Abi) -> Result<Program, RunError> {
        if !workload.supports(abi) {
            return Err(RunError::UnsupportedAbi {
                workload: workload.name.to_owned(),
                abi,
            });
        }
        Ok(lower(&workload.build(abi, self.platform.scale)))
    }

    /// Runs the program clean — functional interpreter only, no timing
    /// model — and returns the reference exit code and retired count.
    ///
    /// # Errors
    ///
    /// [`RunError::UnsupportedAbi`] for NA cells; [`RunError::Interp`]
    /// when the *uninjected* workload fails (a harness bug, not a
    /// campaign outcome).
    pub fn clean_reference(
        &self,
        workload: &Workload,
        abi: Abi,
    ) -> Result<CleanReference, RunError> {
        let prog = self.lowered(workload, abi)?;
        self.clean_reference_lowered(&prog)
    }

    pub(crate) fn clean_reference_lowered(
        &self,
        prog: &Program,
    ) -> Result<CleanReference, RunError> {
        let r = Interp::new(self.platform.interp).run(prog, &mut NullSink)?;
        Ok(CleanReference {
            exit_code: r.exit_code,
            retired: r.retired,
        })
    }

    /// The direct path: one injected run against the timing model.
    ///
    /// # Errors
    ///
    /// As [`clean_reference`](FaultRunner::clean_reference) — injected
    /// failures are *classified*, never returned as errors.
    pub fn run(
        &self,
        workload: &Workload,
        abi: Abi,
        plan: &FaultPlan,
    ) -> Result<FaultRun, RunError> {
        let prog = self.lowered(workload, abi)?;
        let clean = self.clean_reference_lowered(&prog)?;
        let mut core = TimingCore::new(self.platform.uarch);
        let run = self.inject(&prog, plan, clean.exit_code, &mut core);
        let mut stats = core.finish();
        run.fold(&mut stats);
        let counts = EventCounts::from_uarch(&stats);
        Ok(FaultRun {
            workload: workload.name.to_owned(),
            abi,
            expected_exit: clean.exit_code,
            exit_code: run.exit_code(),
            outcome: run.outcome,
            stats,
            derived: DerivedMetrics::from_counts(&counts),
            counts,
            journal: run.session.into_journal(),
        })
    }

    /// The coverage campaign's path: one injected run of an already
    /// lowered program, reporting only its outcome and how many
    /// injections fired. No timing model runs.
    ///
    /// `clean` is the program's reference run on an uncapped platform.
    /// It stands in for this runner's own clean run only when it retired
    /// fewer instructions than this runner's `max_insts`, where the
    /// capped run would be identical. Otherwise the capped clean run is
    /// repeated, so a reference the cap cuts short fails here as it
    /// would in [`run`](FaultRunner::run).
    pub(crate) fn run_outcome(
        &self,
        prog: &Program,
        clean: CleanReference,
        plan: &FaultPlan,
    ) -> Result<(FaultOutcome, u64), RunError> {
        let clean = if clean.retired < self.platform.interp.max_insts {
            clean
        } else {
            self.clean_reference_lowered(prog)?
        };
        let run = self.inject(prog, plan, clean.exit_code, &mut NullSink);
        Ok((run.outcome, run.session.injected()))
    }

    /// The one injected-run path: arms a fresh session for `plan`, runs
    /// `prog` under it on `sink`, and classifies the result against the
    /// clean exit code `expected`.
    fn inject<S: EventSink>(
        &self,
        prog: &Program,
        plan: &FaultPlan,
        expected: u64,
        sink: &mut S,
    ) -> Injected {
        let mut session = FaultSession::new(plan);
        let result = Interp::new(self.platform.interp).run_with_faults(prog, sink, &mut session);
        let outcome = classify(&result, &session, expected);
        Injected {
            result,
            session,
            outcome,
        }
    }

    /// The multiplexed path: the paper's counter-group scheme, re-running
    /// the injected workload once per PMU group with a fresh session
    /// each leg. Determinism makes every leg identical, so the merged
    /// counts are consistent and the returned journal (from the final
    /// leg) describes them all.
    ///
    /// # Errors
    ///
    /// As [`run`](FaultRunner::run).
    pub fn run_multiplexed(
        &self,
        workload: &Workload,
        abi: Abi,
        plan: &FaultPlan,
    ) -> Result<(FaultRun, usize), RunError> {
        let prog = self.lowered(workload, abi)?;
        let clean = self.clean_reference_lowered(&prog)?;
        let msession = MultiplexedSession::plan_full();
        let mut last: Option<(Injected, UarchStats)> = None;
        let counts = msession.collect(|_group| {
            let mut core = TimingCore::new(self.platform.uarch);
            let run = self.inject(&prog, plan, clean.exit_code, &mut core);
            let mut stats = core.finish();
            run.fold(&mut stats);
            last = Some((run, stats));
            Ok::<_, RunError>(stats)
        })?;
        let (run, stats) = last.expect("the plan always schedules at least one group");
        let runs = msession.required_runs();
        Ok((
            FaultRun {
                workload: workload.name.to_owned(),
                abi,
                expected_exit: clean.exit_code,
                exit_code: run.exit_code(),
                outcome: run.outcome,
                stats,
                derived: DerivedMetrics::from_counts(&counts),
                counts,
                journal: run.session.into_journal(),
            },
            runs,
        ))
    }

    /// The sampled path: windowed PMU collection of an injected run.
    /// Run-total fault counters are credited to the last window, as the
    /// plain sampler does for the allocator counters.
    ///
    /// # Errors
    ///
    /// As [`run`](FaultRunner::run).
    pub fn run_sampled(
        &self,
        workload: &Workload,
        abi: Abi,
        plan: &FaultPlan,
        window: u64,
    ) -> Result<FaultSampledRun, RunError> {
        let prog = self.lowered(workload, abi)?;
        let clean = self.clean_reference_lowered(&prog)?;
        let mut sampler = IntervalSampler::new(self.platform.uarch, window);
        let run = self.inject(&prog, plan, clean.exit_code, &mut sampler);
        let (mut stats, mut samples) = sampler.finish();
        run.fold(&mut stats);
        if let Some(last) = samples.last_mut() {
            let full = EventCounts::from_uarch(&stats);
            for event in [
                PmuEvent::FaultsInjected,
                PmuEvent::FaultsTrapped,
                PmuEvent::SilentCorruptions,
                PmuEvent::RecoveryUnwinds,
            ] {
                last.counts.set(event, full.get(event));
            }
            last.derived = DerivedMetrics::from_counts(&last.counts);
        }
        Ok(FaultSampledRun {
            workload: workload.name.to_owned(),
            abi,
            window,
            truncated: run.result.is_err(),
            outcome: run.outcome,
            stats,
            samples,
            journal: run.session.into_journal(),
        })
    }

    /// The profiled path: cycle attribution by region over an injected
    /// run. A truncated run keeps the attribution of its executed
    /// prefix, so a campaign can see *where* execution was when the
    /// trap landed.
    ///
    /// # Errors
    ///
    /// As [`run`](FaultRunner::run).
    pub fn run_profiled(
        &self,
        workload: &Workload,
        abi: Abi,
        plan: &FaultPlan,
    ) -> Result<FaultProfiledRun, RunError> {
        let prog = self.lowered(workload, abi)?;
        let clean = self.clean_reference_lowered(&prog)?;
        let mut profiler = Profiler::new(self.platform.uarch, prog.regions.clone());
        let run = self.inject(&prog, plan, clean.exit_code, &mut profiler);
        let (mut stats, regions) = profiler.finish();
        run.fold(&mut stats);
        Ok(FaultProfiledRun {
            workload: workload.name.to_owned(),
            abi,
            truncated: run.result.is_err(),
            outcome: run.outcome,
            stats,
            regions,
            journal: run.session.into_journal(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_isa::RecoveryPolicy;
    use cheri_workloads::{by_key, Scale};

    /// The coverage path reuses an uncapped clean reference only below
    /// the fuel cap; at or above it, it repeats the capped clean run and
    /// answers as the timed path does — a crashed cell when the cap cuts
    /// the clean run short.
    #[test]
    fn clean_reference_is_reused_only_below_the_fuel_cap() {
        let platform = Platform::morello().with_scale(Scale::Test);
        let w = by_key("sqlite").expect("known workload");
        let prog = FaultRunner::new(platform).lowered(&w, Abi::Hybrid).unwrap();
        let clean = FaultRunner::new(platform)
            .clean_reference_lowered(&prog)
            .unwrap();
        let plan = FaultPlan::tag_clear_campaign(7, 3, clean.retired);
        let capped = |max_insts| {
            let mut p = platform;
            p.interp.max_insts = max_insts;
            FaultRunner::new(p)
        };
        let timed = |runner: &FaultRunner| {
            runner
                .run(&w, Abi::Hybrid, &plan)
                .map(|r| (r.outcome, r.journal.len() as u64))
        };
        // Each cap answers as the timed path does.
        let over = capped(clean.retired - 1);
        assert!(matches!(
            over.run_outcome(&prog, clean, &plan),
            Err(RunError::Interp(InterpError::FuelExhausted { .. }))
        ));
        assert!(timed(&over).is_err(), "the timed path fails the same way");
        for runner in [capped(clean.retired), capped(clean.retired + 1)] {
            assert_eq!(
                runner.run_outcome(&prog, clean, &plan).unwrap(),
                timed(&runner).unwrap()
            );
        }

        // A reference carrying the wrong exit code shows whether it was
        // trusted: an uninjected run classifies silent against it.
        let wrong = CleanReference {
            exit_code: clean.exit_code ^ 1,
            ..clean
        };
        let quiet = FaultPlan::empty(RecoveryPolicy::SkipFaultingOp);
        assert_eq!(
            capped(clean.retired)
                .run_outcome(&prog, wrong, &quiet)
                .unwrap(),
            (FaultOutcome::Benign, 0),
            "at the cap the clean run is repeated"
        );
        assert!(
            capped(clean.retired + 1)
                .run_outcome(&prog, wrong, &quiet)
                .unwrap()
                .0
                .is_silent(),
            "below the cap the given reference is used as is"
        );
    }
}
