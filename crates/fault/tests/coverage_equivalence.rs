//! Coverage equivalence: `run_coverage`'s outcome-only cells equal cells
//! aggregated from the timed path, [`FaultRunner::run`], run by run.
//!
//! The campaign lowers and runs each (workload, ABI) clean once and
//! drives its injected runs without a timing model; this test rebuilds
//! every cell's plan and fuel cap independently, runs each one through
//! `FaultRunner::run` (which re-lowers, re-runs the capped clean
//! reference and times the injected run), and aggregates the table.

use cheri_isa::Abi;
use cheri_workloads::Scale;
use morello_fault::{
    plan_seed, run_coverage, CampaignConfig, CoverageCell, FaultOutcome, FaultPlan, FaultRunner,
    RecoveryPolicy,
};
use morello_sim::suite::select;
use morello_sim::{Platform, Watchdog};

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
