//! The fault-injected run path and run-outcome classification.
//!
//! [`FaultRunner::inject`] is the one injected path. It arms a
//! [`FaultSession`] for a plan and runs an already lowered program
//! through [`morello_sim::Runner::execute`], the same pipeline as every
//! clean run, into whatever [`Collector`] the caller passes: a timing
//! core for [`FaultRunner::run`] and serve's fault pricing, an
//! `IntervalSampler` or `Profiler` for windowed or region-attributed
//! views, a [`NullSink`] for the coverage campaign. The pipeline's hook
//! classifies the run and folds the four fault counters
//! (`FAULTS_INJECTED`, `FAULTS_TRAPPED`, `SILENT_CORRUPTIONS`,
//! `RECOVERY_UNWINDS`) into its statistics; the pipeline then credits
//! them, with the allocator's run totals, to the last window.
//!
//! Classification needs ground truth, so every fault run is anchored on
//! the program's *clean* run (functional interpreter only, no timing
//! model) and its reference exit code. A run that completes with a
//! different exit and never trapped is a **silent corruption** — the
//! hybrid-ABI failure mode the paper's capability ABIs exist to close.

use crate::plan::FaultPlan;
use crate::session::{FaultSession, InjectionRecord};
use cheri_isa::{Abi, InterpError, NullSink, Program, RunResult};
use cheri_workloads::Workload;
use morello_pmu::{DerivedMetrics, EventCounts};
use morello_sim::{Collector, Observed, Platform, RunError, Runner};
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
        // Unreachable in practice: the handler counts the trap before
        // aborting. Kept so classification never lies if the injector
        // miscounts.
        Err(InterpError::Fault { .. }) => FaultOutcome::Trapped,
        Err(e) => FaultOutcome::Crashed(e.to_string()),
    }
}

/// One finished injected run: what the pipeline observed, what the
/// injection did to the run, and every injection that fired.
#[derive(Clone, Debug)]
pub struct Injected<X> {
    /// What the collector observed, with the fault counters folded in.
    pub run: Observed<X>,
    /// The run's classification against the clean exit code.
    pub outcome: FaultOutcome,
    /// Every injection that fired, in firing order.
    pub journal: Vec<InjectionRecord>,
}

/// Runs workloads with fault plans.
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

    fn runner(&self) -> Runner {
        Runner::new(self.platform)
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
        let prog = self.runner().program(workload, abi, None)?;
        self.clean_reference_lowered(&prog)
    }

    pub(crate) fn clean_reference_lowered(
        &self,
        prog: &Program,
    ) -> Result<CleanReference, RunError> {
        let r = self.runner().run_lowered_arch(prog)?;
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
        let prog = self.runner().program(workload, abi, None)?;
        let clean = self.clean_reference_lowered(&prog)?;
        let core = TimingCore::new(self.platform.uarch);
        let Injected {
            run,
            outcome,
            journal,
        } = self.inject(&prog, plan, clean.exit_code, core);
        let counts = EventCounts::from_uarch(&run.stats);
        Ok(FaultRun {
            workload: workload.name.to_owned(),
            abi,
            expected_exit: clean.exit_code,
            exit_code: run.exit_code(),
            outcome,
            stats: run.stats,
            derived: DerivedMetrics::from_counts(&counts),
            counts,
            journal,
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
        let run = self.inject(prog, plan, clean.exit_code, NullSink);
        Ok((run.outcome, run.journal.len() as u64))
    }

    /// The one injected-run path: arms a fresh session for `plan`, runs
    /// `prog` under it through the run pipeline into `collector`, and
    /// classifies the result against the clean exit code `expected`.
    /// Injected failures are classified, never returned: a run the
    /// instruction budget cut short is [`FaultOutcome::Crashed`], and
    /// its collector keeps the executed prefix.
    pub fn inject<C: Collector>(
        &self,
        prog: &Program,
        plan: &FaultPlan,
        expected: u64,
        collector: C,
    ) -> Injected<C::Extra> {
        let mut session = FaultSession::new(plan);
        let mut outcome = FaultOutcome::Benign;
        let run = self
            .runner()
            .execute(prog, collector, &mut session, |stats, result, session| {
                outcome = classify(result, session, expected);
                fold_fault_stats(stats, session, outcome.is_silent());
            });
        Injected {
            run,
            outcome,
            journal: session.into_journal(),
        }
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
        let prog = Runner::new(platform)
            .program(&w, Abi::Hybrid, None)
            .unwrap();
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
