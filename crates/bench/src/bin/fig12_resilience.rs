//! Figure 12: resilient serving under seeded chaos — goodput, SLO
//! attainment, retry amplification, and time-to-recovery per ABI.
//!
//! Sweeps storm intensity × policy tier over the multi-tenant serving
//! simulator (see `morello-serve`): every cell endures the same seeded
//! chaos campaign (a fault storm, a tenant heap-pressure spike, a
//! one-core outage) under one of three reliability tiers — `naive`
//! (the fig. 11 tier, no intervention), `resilient` (deadlines, budgeted
//! retries with decorrelated-jitter backoff, per-tenant circuit
//! breakers), and `full` (plus SLO-aware load shedding and hedged
//! requests). The headline: under a storm, the capability ABIs' faults
//! *trap deterministically*, so retries convert them into served
//! requests and goodput recovers — while hybrid's silent corruptions
//! look like well-formed 200s that no policy can see, so its poisoned
//! responses sail through every tier unimproved.
//!
//! Everything is simulated time: the sweep is byte-identical across
//! `--jobs` values for a fixed seed (CI diffs exactly that).
//!
//! Flags: `--quick` (fewer storm intensities and requests), `--jobs N`
//! (sweep fan-out; never affects results), `--fault-ppm N` (background
//! corruption rate outside storms), `--burst` (bursty arrivals),
//! `--seed N`, `--out <path>` (default `BENCH_resilience.json`;
//! `-` = stdout), `--trace <path>` (phase trace: Chrome JSON + JSONL).

use morello_bench::{human, BenchCli};
use morello_pmu::{fmt_metric, Table};
use morello_serve::{run_resilience_sweep, ResilienceReport};

fn opt_ms(v: Option<f64>) -> String {
    v.map_or_else(|| "-".into(), |ms| format!("{ms:.2}"))
}

fn policy_table(report: &ResilienceReport) -> Table {
    let mut t = Table::new(&[
        "ABI",
        "storm ppm",
        "policy",
        "goodput rps",
        "slo att",
        "amp",
        "p99 ms",
        "err",
        "silent",
        "timeout",
        "shed",
        "brk rej",
        "recovery ms",
    ]);
    for a in &report.abis {
        for c in &a.cells {
            t.row(&[
                a.abi.to_string(),
                c.storm_ppm.to_string(),
                c.policy.clone(),
                fmt_metric(c.goodput_rps),
                format!("{:.3}", c.slo_attainment),
                format!("{:.3}", c.retry_amplification),
                format!("{:.3}", c.p99_ms),
                c.errors.to_string(),
                c.silent.to_string(),
                c.timeouts.to_string(),
                c.shed.to_string(),
                c.breaker_rejected.to_string(),
                opt_ms(c.recovery_ms),
            ]);
        }
    }
    t
}

fn breaker_table(report: &ResilienceReport) -> Table {
    let mut t = Table::new(&[
        "ABI",
        "storm ppm",
        "policy",
        "tenant",
        "weight",
        "retries",
        "shed",
        "brk opens",
        "closed at end",
        "p99 ms",
    ]);
    for a in &report.abis {
        // The hottest storm under the full tier is where the breaker
        // and shed stories live.
        let Some(c) = a
            .cells
            .iter()
            .filter(|c| c.policy == "full")
            .max_by_key(|c| c.storm_ppm)
        else {
            continue;
        };
        for ten in &c.tenants {
            t.row(&[
                a.abi.to_string(),
                c.storm_ppm.to_string(),
                c.policy.clone(),
                ten.tenant.clone(),
                ten.weight.to_string(),
                ten.retries.to_string(),
                ten.shed.to_string(),
                ten.breaker_opens.to_string(),
                ten.breaker_closed_at_end.to_string(),
                format!("{:.3}", ten.p99_ms),
            ]);
        }
    }
    t
}

fn main() {
    let cli = BenchCli::parse("fig12_resilience");
    let cfg = cli.sweep_config();

    let started = std::time::Instant::now();
    let report = {
        let _sweep = morello_bench::trace_phase(
            &format!("resilience sweep seed {:#x}", cfg.seed),
            "resilience-sweep",
        );
        run_resilience_sweep(&cfg)
    };
    eprintln!(
        "(resilience sweep: {} ABIs x {} storms x {} policies x {} requests, jobs={}, {:.2?})",
        report.abis.len(),
        report.storm_ppm.len(),
        report.policies.len(),
        report.requests_per_cell,
        cli.jobs,
        started.elapsed()
    );

    human!("Figure 12: resilient serving under seeded chaos, by ABI and policy tier");
    human!(
        "{} arrivals at {} rps ({:.0}% of hybrid capacity), {} cores, {} tenants, \
         SLO {:.2} ms, seed {:#x}",
        report.traffic,
        fmt_metric(report.offered_rps),
        report.offered_utilization * 100.0,
        report.cores,
        report.tenants.len(),
        report.slo_ms,
        report.seed
    );
    human!("{}", policy_table(&report).render());
    human!("per-tenant view at the hottest storm under the full tier:");
    human!("{}", breaker_table(&report).render());

    morello_bench::write_report("BENCH_resilience.json", &report);
}
