//! Integration tests for the fault-injection layer: reproducibility of
//! seeded campaigns, the detection-coverage contrast between the
//! capability ABIs and hybrid, and the fault counters flowing through
//! every collector the injected path accepts.

use cheri_isa::{Abi, Program};
use cheri_workloads::{by_key, Scale, Workload};
use morello_fault::{
    run_coverage, CampaignConfig, FaultKind, FaultOutcome, FaultPlan, FaultRunner, RecoveryPolicy,
};
use morello_obs::{IntervalSampler, Profiler};
use morello_pmu::PmuEvent;
use morello_sim::{Platform, Runner};
use std::sync::Arc;

fn platform() -> Platform {
    let mut p = Platform::morello().with_scale(Scale::Test);
    // A nudged hybrid pointer can spin a loop towards the default
    // two-billion-instruction budget; test-scale clean runs retire well
    // under a million, so this watchdog keeps runaways sub-second while
    // never truncating a healthy run.
    p.interp.max_insts = 4_000_000;
    p
}

/// `workload` lowered for `abi` at the test platform's scale.
fn program(w: &Workload, abi: Abi) -> Arc<Program> {
    Runner::new(platform()).program(w, abi, None).unwrap()
}

/// A dense tag-clear plan for `workload` sized off its own clean run.
fn tag_plan(runner: &FaultRunner, key: &str, seed: u64, n: usize) -> FaultPlan {
    let w = by_key(key).unwrap();
    let horizon = Abi::ALL
        .iter()
        .filter(|a| w.supports(**a))
        .map(|a| runner.clean_reference(&w, *a).unwrap().retired)
        .min()
        .unwrap();
    FaultPlan::tag_clear_campaign(seed, n, horizon)
}

#[test]
fn seeded_plans_reproduce_identical_journals() {
    let runner = FaultRunner::new(platform());
    let w = by_key("omnetpp_520").unwrap();
    let plan = tag_plan(&runner, "omnetpp_520", 0xDECAF, 6);
    let a = runner.run(&w, Abi::Purecap, &plan).unwrap();
    let b = runner.run(&w, Abi::Purecap, &plan).unwrap();
    assert!(!a.journal.is_empty(), "a dense plan must fire");
    assert_eq!(a.journal, b.journal, "same plan, same journal, bit for bit");
    assert_eq!(a.counts, b.counts, "and the same PMU counts");
    // A different seed must not reproduce the same firing sites.
    let other = tag_plan(&runner, "omnetpp_520", 0xBEEF, 6);
    let c = runner.run(&w, Abi::Purecap, &other).unwrap();
    assert_ne!(a.journal, c.journal);
}

#[test]
fn purecap_traps_where_hybrid_corrupts_silently() {
    let runner = FaultRunner::new(platform());
    let w = by_key("omnetpp_520").unwrap();
    // Several seeds so the property is not an accident of one draw.
    let mut hybrid_silent = 0;
    for seed in 0..6u64 {
        let plan = tag_plan(&runner, "omnetpp_520", seed, 4);
        let pure = runner.run(&w, Abi::Purecap, &plan).unwrap();
        let bench = runner.run(&w, Abi::Benchmark, &plan).unwrap();
        let hybrid = runner.run(&w, Abi::Hybrid, &plan).unwrap();
        if !pure.journal.is_empty() {
            assert_eq!(pure.outcome, FaultOutcome::Trapped, "seed {seed}");
            assert!(pure.stats.faults_trapped > 0);
        }
        if !bench.journal.is_empty() {
            assert_eq!(bench.outcome, FaultOutcome::Trapped, "seed {seed}");
        }
        // Hybrid has no tags to check: the same plan must never trap.
        assert_ne!(hybrid.outcome, FaultOutcome::Trapped, "seed {seed}");
        assert_eq!(hybrid.stats.faults_trapped, 0);
        if hybrid.outcome.is_silent() {
            hybrid_silent += 1;
        }
    }
    assert!(
        hybrid_silent > 0,
        "across six seeds, hybrid must show at least one silent corruption"
    );
}

#[test]
fn fault_counters_flow_through_every_injected_collector() {
    let runner = FaultRunner::new(platform());
    let w = by_key("xz_557").unwrap();
    let plan = tag_plan(&runner, "xz_557", 7, 5);

    let direct = runner.run(&w, Abi::Purecap, &plan).unwrap();
    assert!(direct.counts.get(PmuEvent::FaultsInjected) > 0);
    assert!(direct.counts.get(PmuEvent::FaultsTrapped) > 0);
    assert!(direct.derived.fault_trap_coverage > 0.0);

    let prog = program(&w, Abi::Purecap);
    let uarch = platform().uarch;
    let sampled = runner.inject(
        &prog,
        &plan,
        direct.expected_exit,
        IntervalSampler::new(uarch, 10_000),
    );
    assert!(!sampled.run.extra.is_empty());
    assert_eq!(sampled.outcome, FaultOutcome::Trapped);
    assert_eq!(sampled.journal, direct.journal);
    let credited: u64 = sampled
        .run
        .extra
        .iter()
        .map(|s| s.counts.get(PmuEvent::FaultsInjected))
        .sum();
    assert_eq!(
        credited,
        direct.counts.get(PmuEvent::FaultsInjected),
        "run-total fault counters are credited to the last window once"
    );

    let profiler = Profiler::new(uarch, prog.regions.clone());
    let profiled = runner.inject(&prog, &plan, direct.expected_exit, profiler);
    assert_eq!(profiled.outcome, FaultOutcome::Trapped);
    assert_eq!(
        profiled.run.stats.faults_injected,
        direct.stats.faults_injected
    );
    assert_eq!(profiled.journal, direct.journal);
}

#[test]
fn abort_policy_ends_the_run_at_the_first_trap() {
    let runner = FaultRunner::new(platform());
    let w = by_key("omnetpp_520").unwrap();
    let mut plan = tag_plan(&runner, "omnetpp_520", 11, 8);
    plan.policy = RecoveryPolicy::Abort;
    let r = runner.run(&w, Abi::Purecap, &plan).unwrap();
    assert_eq!(r.outcome, FaultOutcome::Trapped);
    assert_eq!(r.exit_code, None, "aborted runs have no exit code");
    assert_eq!(r.stats.faults_trapped, 1, "abort stops at the first trap");
    // Sampled collection: the truncated prefix is still observed.
    let prog = program(&w, Abi::Purecap);
    let sampler = IntervalSampler::new(platform().uarch, 10_000);
    let s = runner.inject(&prog, &plan, r.expected_exit, sampler);
    assert!(s.run.result.is_err(), "the run is truncated");
    assert!(!s.run.extra.is_empty());
}

#[test]
fn unwind_policy_survives_and_counts_unwinds() {
    let runner = FaultRunner::new(platform());
    let w = by_key("omnetpp_520").unwrap();
    let mut plan = tag_plan(&runner, "omnetpp_520", 3, 4);
    plan.policy = RecoveryPolicy::UnwindToCheckpoint;
    let r = runner.run(&w, Abi::Purecap, &plan).unwrap();
    assert_eq!(r.outcome, FaultOutcome::Trapped);
    assert!(
        r.stats.recovery_unwinds > 0,
        "unwinding recovery must journal its frame pops"
    );
    assert_eq!(
        r.counts.get(PmuEvent::RecoveryUnwinds),
        r.stats.recovery_unwinds
    );
}

#[test]
fn coverage_report_is_byte_identical_across_jobs() {
    let platform = platform();
    let workloads = vec![by_key("xz_557").unwrap(), by_key("sqlite").unwrap()];
    let config = |jobs| CampaignConfig {
        seed: 0xC0FFEE,
        rates_per_million: vec![100, 400],
        trials: 2,
        policy: RecoveryPolicy::SkipFaultingOp,
        jobs,
    };
    let seq = run_coverage(&platform, &workloads, &config(1)).unwrap();
    let par = run_coverage(&platform, &workloads, &config(4)).unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&seq).unwrap(),
        serde_json::to_string_pretty(&par).unwrap(),
        "campaign reports must not depend on scheduling"
    );
}

#[test]
fn coverage_contrast_purecap_full_hybrid_leaky() {
    let platform = platform();
    let workloads = vec![by_key("omnetpp_520").unwrap(), by_key("xz_557").unwrap()];
    let config = CampaignConfig {
        seed: 0x5EED,
        rates_per_million: vec![400],
        trials: 3,
        policy: RecoveryPolicy::SkipFaultingOp,
        jobs: 2,
    };
    let report = run_coverage(&platform, &workloads, &config).unwrap();
    let mut hybrid_silent = 0u32;
    for cell in &report.cells {
        assert_eq!(cell.runs, 3);
        assert!(cell.injected > 0, "dense campaigns fire in every cell");
        match cell.abi {
            Abi::Purecap | Abi::Benchmark => {
                assert_eq!(
                    cell.trapped_runs, cell.runs,
                    "{} {:?}: every capability-ABI run must trap",
                    cell.key, cell.abi
                );
                assert!((cell.trap_coverage() - 1.0).abs() < 1e-12);
                assert_eq!(cell.silent_runs, 0);
            }
            Abi::Hybrid => {
                assert_eq!(cell.trapped_runs, 0, "hybrid has nothing to trap on");
                hybrid_silent += cell.silent_runs;
            }
        }
    }
    assert!(
        hybrid_silent > 0,
        "the campaign must surface hybrid silent corruptions"
    );
}

#[test]
fn mixed_kind_plans_fire_and_classify() {
    let runner = FaultRunner::new(platform());
    let w = by_key("sqlite").unwrap();
    let horizon = runner.clean_reference(&w, Abi::Hybrid).unwrap().retired;
    let plan = FaultPlan::campaign(
        21,
        &[
            FaultKind::TagClear,
            FaultKind::BoundsNudge { delta: 64 },
            FaultKind::PermDrop,
        ],
        6,
        horizon,
        RecoveryPolicy::SkipFaultingOp,
    );
    let pure = runner.run(&w, Abi::Purecap, &plan).unwrap();
    assert!(!pure.journal.is_empty());
    assert_eq!(pure.outcome, FaultOutcome::Trapped);
    let hybrid = runner.run(&w, Abi::Hybrid, &plan).unwrap();
    assert_ne!(hybrid.outcome, FaultOutcome::Trapped);
}

#[test]
fn empty_plans_are_benign_and_cost_free() {
    let runner = FaultRunner::new(platform());
    let w = by_key("xz_557").unwrap();
    let plan = FaultPlan::empty(RecoveryPolicy::Abort);
    let faulted = runner.run(&w, Abi::Purecap, &plan).unwrap();
    assert_eq!(faulted.outcome, FaultOutcome::Benign);
    assert_eq!(faulted.stats.faults_injected, 0);
    // An inert injector must be bit-identical to the plain runner.
    let plain = morello_sim::Runner::new(*runner.platform())
        .run(&w, Abi::Purecap)
        .unwrap();
    assert_eq!(plain.counts, faulted.counts);
    assert_eq!(plain.exit_code, faulted.exit_code.unwrap());
}
