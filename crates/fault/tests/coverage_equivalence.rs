//! Coverage equivalence: `run_coverage`'s outcome-only cells equal cells
//! aggregated from the timed path, [`FaultRunner::run`], run by run.
//!
//! The campaign lowers and runs each (workload, ABI) clean once and
//! drives its injected runs without a timing model, stopping each once
//! its outcome is decided; the first test rebuilds every cell's plan and
//! fuel cap independently, runs each one through `FaultRunner::run`
//! (which re-lowers, re-runs the capped clean reference and times the
//! whole injected run), and aggregates the table. The second compares
//! the two paths run by run, under every recovery policy.

use cheri_isa::Abi;
use cheri_workloads::Scale;
use morello_fault::{
    plan_seed, run_coverage, CampaignConfig, CoverageCell, FaultOutcome, FaultPlan, FaultRunner,
    RecoveryPolicy,
};
use morello_sim::suite::select;
use morello_sim::{Platform, Runner, Watchdog};

#[test]
fn coverage_cells_equal_cells_of_timed_runs() {
    let platform = Platform::morello().with_scale(Scale::Test);
    let workloads = select(&["xz_557", "sqlite"]);
    let config = CampaignConfig {
        seed: 0x5EED_FA17,
        rates_per_million: vec![200, 800],
        trials: 2,
        policy: RecoveryPolicy::SkipFaultingOp,
        jobs: 2,
    };
    let report = run_coverage(&platform, &workloads, &config).expect("campaign");

    let runner = FaultRunner::new(platform);
    let mut expected: Vec<CoverageCell> = Vec::new();
    for w in &workloads {
        let abis: Vec<Abi> = Abi::ALL.into_iter().filter(|a| w.supports(*a)).collect();
        let horizon = abis
            .iter()
            .map(|a| runner.clean_reference(w, *a).expect("clean run").retired)
            .min()
            .expect("a supported ABI");
        for &rate in &config.rates_per_million {
            let first = expected.len();
            for &abi in &abis {
                expected.push(CoverageCell {
                    workload: w.name.to_owned(),
                    key: w.key.to_owned(),
                    abi,
                    rate_per_million: rate,
                    runs: 0,
                    injected: 0,
                    trapped_runs: 0,
                    silent_runs: 0,
                    benign_runs: 0,
                    crashed_runs: 0,
                });
            }
            for trial in 0..config.trials {
                let n = (rate * horizon / 1_000_000).max(1) as usize;
                let mut plan = FaultPlan::tag_clear_campaign(
                    plan_seed(config.seed, w.key, rate, trial),
                    n,
                    horizon,
                );
                plan.policy = config.policy;
                let capped = Watchdog::budgeted(horizon * 8 + 100_000).cap_platform(&platform, 1);
                for (i, &abi) in abis.iter().enumerate() {
                    let cell = &mut expected[first + i];
                    cell.runs += 1;
                    match FaultRunner::new(capped).run(w, abi, &plan) {
                        Ok(run) => {
                            cell.injected += run.journal.len() as u64;
                            match run.outcome {
                                FaultOutcome::Trapped => cell.trapped_runs += 1,
                                FaultOutcome::SilentCorruption { .. } => cell.silent_runs += 1,
                                FaultOutcome::Benign => cell.benign_runs += 1,
                                FaultOutcome::Crashed(_) => cell.crashed_runs += 1,
                            }
                        }
                        Err(_) => cell.crashed_runs += 1,
                    }
                }
            }
        }
    }
    assert_eq!(report.cells, expected);
    assert!(
        report.cells.iter().any(|c| c.trapped_runs > 0)
            && report.cells.iter().any(|c| c.injected > 0),
        "the campaign must fire and trap"
    );
}

/// Run by run, the coverage path's `(outcome, injected)` — a run that
/// stops once it has trapped with every trigger fired — equals the full
/// timed run's: three fig. 9 workloads × every supported ABI × rates
/// {50, 200, 800} × three seeds × every recovery policy, under the
/// campaign's own plans and fuel cap.
#[test]
fn outcome_runs_equal_full_runs_run_by_run() {
    let platform = Platform::morello().with_scale(Scale::Test);
    let runner = FaultRunner::new(platform);
    let policies = [
        RecoveryPolicy::Abort,
        RecoveryPolicy::SkipFaultingOp,
        RecoveryPolicy::UnwindToCheckpoint,
    ];
    let (mut runs, mut trapped) = (0, 0);
    for w in select(&["omnetpp_520", "xz_557", "sqlite"]) {
        let refs: Vec<_> = Abi::ALL
            .into_iter()
            .filter(|a| w.supports(*a))
            .map(|abi| {
                let prog = Runner::new(platform)
                    .program(&w, abi, None)
                    .expect("lowered");
                let clean = runner.clean_reference(&w, abi).expect("clean run");
                (abi, prog, clean)
            })
            .collect();
        let horizon = refs.iter().map(|(_, _, c)| c.retired).min().unwrap();
        let capped = Watchdog::budgeted(horizon * 8 + 100_000).cap_platform(&platform, 1);
        let capped = FaultRunner::new(capped);
        for rate in [50, 200, 800] {
            for seed in [1, 7, 42] {
                for policy in policies {
                    let n = (rate * horizon / 1_000_000).max(1) as usize;
                    let plan = FaultPlan {
                        policy,
                        ..FaultPlan::tag_clear_campaign(plan_seed(seed, w.key, rate, 0), n, horizon)
                    };
                    for (abi, prog, clean) in &refs {
                        let ctx = format!("{}/{abi}/r{rate}/s{seed}/{policy:?}", w.key);
                        let full = capped
                            .run(&w, *abi, &plan)
                            .map(|r| (r.outcome, r.journal.len() as u64))
                            .map_err(|e| e.to_string());
                        let outcome = capped
                            .run_outcome(prog, *clean, &plan)
                            .map_err(|e| e.to_string());
                        assert_eq!(outcome, full, "{ctx}");
                        runs += 1;
                        trapped += u32::from(matches!(full, Ok((FaultOutcome::Trapped, _))));
                    }
                }
            }
        }
    }
    assert_eq!(runs, 3 * 3 * 3 * 3 * 3, "every run of the matrix");
    assert!(trapped > 0, "the matrix must trap");
}
