//! The run-pipeline contract: every front end — plain, sampled,
//! profiled, multiplexed, injected under an inert plan, and sampled with
//! injection — is one pass through `Runner::execute`, so each must
//! report the same full-run statistics and exit code, window deltas must
//! sum to the run totals for every event (run totals read at exit
//! included), and a run cut short by the instruction budget must be
//! reported the way its front end documents.
//!
//! This crate is the only one that sees all three front ends.

use cheri_isa::{Abi, InterpError, Program, RecoveryPolicy};
use cheri_workloads::{by_key, Scale, Workload};
use morello_fault::{FaultOutcome, FaultPlan, FaultRunner};
use morello_obs::{run_profiled, run_sampled, IntervalSample, IntervalSampler};
use morello_pmu::{EventCounts, PmuEvent};
use morello_sim::{Platform, RunError, RunReport, Runner, StrategyKind};
use morello_uarch::TimingCore;

const WINDOW: u64 = 2_000;

/// (workload, capability-heap strategy). `alloc_stress` runs under a
/// swept heap so the revocation counters, which are run totals read at
/// exit, are nonzero and must reach the last window.
fn rows() -> [(&'static str, StrategyKind); 3] {
    [
        ("omnetpp_520", StrategyKind::default()),
        ("xz_557", StrategyKind::default()),
        ("alloc_stress", StrategyKind::swept_bytes(16 * 1024)),
    ]
}

fn platform(heap: StrategyKind) -> Platform {
    Platform::morello()
        .with_scale(Scale::Test)
        .with_cap_alloc(heap)
}

fn capped(platform: Platform, max_insts: u64) -> Platform {
    let mut p = platform;
    p.interp.max_insts = max_insts;
    p
}

fn inert() -> FaultPlan {
    FaultPlan::empty(RecoveryPolicy::Abort)
}

/// Asserts the window deltas sum to `totals` for every event.
fn assert_telescopes(samples: &[IntervalSample], totals: &EventCounts, label: &str) {
    assert!(!samples.is_empty(), "{label}: no windows");
    let mut sum = EventCounts::new();
    for s in samples {
        sum.accumulate(&s.counts);
    }
    for (event, total) in totals.iter() {
        assert_eq!(sum.get(event), total, "{label}: windows of {event}");
    }
}

/// Asserts a path's full-run statistics and exit code match the plain
/// run's.
fn assert_same_run(
    plain: &RunReport,
    stats: &morello_uarch::UarchStats,
    exit: Option<u64>,
    label: &str,
) {
    assert_eq!(stats, &plain.stats, "{label}: stats");
    assert_eq!(
        EventCounts::from_uarch(stats),
        plain.counts,
        "{label}: counts"
    );
    assert_eq!(exit, Some(plain.exit_code), "{label}: exit code");
}

fn check_complete(platform: Platform, w: &Workload, abi: Abi, prog: &Program) -> RunReport {
    let label = |path: &str| format!("{}/{abi}/{path}", w.key);
    let plain = Runner::new(platform).run(w, abi).unwrap();

    let sampled = run_sampled(&platform, w, abi, WINDOW).unwrap();
    assert!(!sampled.truncated);
    assert_same_run(
        &plain,
        &sampled.stats,
        Some(sampled.exit_code),
        &label("sampled"),
    );
    assert_telescopes(&sampled.samples, &plain.counts, &label("sampled"));

    let profiled = run_profiled(&platform, w, abi).unwrap();
    assert!(!profiled.truncated);
    assert_same_run(
        &plain,
        &profiled.stats,
        Some(profiled.exit_code),
        &label("profiled"),
    );
    let retired: u64 = profiled.regions.iter().map(|r| r.retired).sum();
    let cycles: u64 = profiled.regions.iter().map(|r| r.cycles).sum();
    assert_eq!(retired, plain.stats.inst_retired, "{}", label("profiled"));
    assert_eq!(cycles, plain.stats.cpu_cycles, "{}", label("profiled"));

    let (multiplexed, _) = Runner::new(platform).run_multiplexed(w, abi).unwrap();
    assert_eq!(multiplexed, plain.counts, "{}", label("multiplexed"));

    let injected = FaultRunner::new(platform).run(w, abi, &inert()).unwrap();
    assert_eq!(injected.outcome, FaultOutcome::Benign);
    assert_same_run(
        &plain,
        &injected.stats,
        injected.exit_code,
        &label("injected"),
    );
    assert_eq!(injected.counts, plain.counts, "{}", label("injected"));

    let sampler = IntervalSampler::new(platform.uarch, WINDOW);
    let both = FaultRunner::new(platform).inject(prog, &inert(), plain.exit_code, sampler);
    assert_eq!(both.outcome, FaultOutcome::Benign);
    assert_same_run(
        &plain,
        &both.run.stats,
        both.run.exit_code(),
        &label("sampled+injected"),
    );
    assert_telescopes(&both.run.extra, &plain.counts, &label("sampled+injected"));
    plain
}

/// Whether `r` is the plain front ends' truncation: a fuel-exhaustion
/// error.
fn fuel<T>(r: Result<T, RunError>) -> bool {
    matches!(r, Err(RunError::Interp(InterpError::FuelExhausted { .. })))
}

fn check_truncated(platform: Platform, w: &Workload, abi: Abi, prog: &Program, clean: &RunReport) {
    let label = |path: &str| format!("{}/{abi}/{path} (capped)", w.key);
    let platform = capped(platform, clean.retired / 2);
    assert!(
        fuel(Runner::new(platform).run(w, abi)),
        "{}",
        label("plain")
    );
    assert!(
        fuel(Runner::new(platform).run_multiplexed(w, abi)),
        "{}",
        label("multiplexed")
    );

    let sampled = run_sampled(&platform, w, abi, WINDOW).unwrap();
    assert!(sampled.truncated, "{}", label("sampled"));
    assert_eq!(sampled.exit_code, 0);
    let totals = EventCounts::from_uarch(&sampled.stats);
    assert_telescopes(&sampled.samples, &totals, &label("sampled"));

    let profiled = run_profiled(&platform, w, abi).unwrap();
    assert!(profiled.truncated, "{}", label("profiled"));
    assert_eq!(profiled.exit_code, 0);
    assert_eq!(profiled.stats, sampled.stats, "{}", label("profiled"));

    let runner = FaultRunner::new(platform);
    let core = TimingCore::new(platform.uarch);
    let injected = runner.inject(prog, &inert(), clean.exit_code, core);
    assert!(
        matches!(injected.outcome, FaultOutcome::Crashed(_)),
        "{}: {:?}",
        label("injected"),
        injected.outcome
    );
    assert_eq!(injected.run.stats, sampled.stats, "{}", label("injected"));

    let sampler = IntervalSampler::new(platform.uarch, WINDOW);
    let both = runner.inject(prog, &inert(), clean.exit_code, sampler);
    assert!(
        matches!(both.outcome, FaultOutcome::Crashed(_)),
        "{}",
        label("sampled+injected")
    );
    assert_telescopes(&both.run.extra, &totals, &label("sampled+injected"));
}

#[test]
fn every_front_end_is_one_pass_through_the_pipeline() {
    for (key, heap) in rows() {
        let w = by_key(key).unwrap();
        let platform = platform(heap);
        for abi in Abi::ALL.into_iter().filter(|a| w.supports(*a)) {
            let prog = Runner::new(platform).program(&w, abi, None).unwrap();
            let clean = check_complete(platform, &w, abi, &prog);
            check_truncated(platform, &w, abi, &prog, &clean);
        }
    }
}

/// The swept row is the one whose run totals are nonzero: without this,
/// the telescoping checks above could pass on all-zero counters.
#[test]
fn the_swept_row_has_run_totals_to_credit() {
    let w = by_key("alloc_stress").unwrap();
    let platform = platform(StrategyKind::swept_bytes(16 * 1024));
    let plain = Runner::new(platform).run(&w, Abi::Purecap).unwrap();
    assert!(plain.counts.get(PmuEvent::RevocationEpochs) > 0);
    assert!(plain.counts.get(PmuEvent::SweepGranulesVisited) > 0);
    assert!(plain.counts.get(PmuEvent::QuarantineBytesHighWater) > 0);
}
