//! Figure 11: Morello as a service — throughput-vs-load and
//! latency-vs-load per ABI, with per-tenant quarantine capacity.
//!
//! Serves the request shapes open-loop against a multi-tenant simulated
//! server (see `morello-serve`): every tenant owns a revoking heap
//! under its own quarantine policy, a deficit-round-robin scheduler
//! shares a fixed core pool, and offered load sweeps fixed fractions of
//! the *hybrid* ABI's capacity. Below saturation throughput tracks the
//! offered rate for every ABI; past it the curves plateau at each ABI's
//! own capacity and tail latency (p999) climbs — with purecap
//! saturating at a measurably lower offered load than hybrid, the
//! serving-facing restatement of the paper's throughput gap.
//!
//! Everything is simulated time: the sweep is byte-identical across
//! `--jobs` values for a fixed seed (CI diffs exactly that).
//!
//! Flags: `--quick` (fewer load points and requests), `--jobs N`
//! (sweep fan-out; never affects results), `--fault-ppm N` (background
//! tag-clear corruption rate, requests per million), `--burst` (on/off
//! bursty arrivals instead of Poisson), `--seed N`,
//! `--out <path>` (default `BENCH_service.json`; `-` = stdout),
//! `--trace <path>` (phase trace: Chrome JSON + JSONL).

use morello_bench::{human, BenchCli};
use morello_pmu::{fmt_metric, Table};
use morello_serve::{run_service_sweep, ServiceReport};

fn capacity_table(report: &ServiceReport) -> Table {
    let mut t = Table::new(&[
        "ABI",
        "mean svc cycles",
        "capacity rps",
        "saturation rps",
        "vs hybrid",
    ]);
    let hybrid = report
        .abis
        .iter()
        .find(|a| a.abi.to_string() == "hybrid")
        .map_or(0.0, |a| a.capacity_rps);
    for a in &report.abis {
        t.row(&[
            a.abi.to_string(),
            fmt_metric(a.mean_service_cycles),
            fmt_metric(a.capacity_rps),
            fmt_metric(a.saturation_offered_rps),
            if hybrid > 0.0 {
                format!("{:.2}x", a.capacity_rps / hybrid)
            } else {
                "-".into()
            },
        ]);
    }
    t
}

fn load_table(report: &ServiceReport) -> Table {
    let mut t = Table::new(&[
        "ABI",
        "load",
        "offered rps",
        "tput rps",
        "p50 ms",
        "p99 ms",
        "p999 ms",
        "drop",
        "err",
        "silent",
    ]);
    for a in &report.abis {
        for p in &a.points {
            t.row(&[
                a.abi.to_string(),
                format!("{:.2}", p.offered_ratio),
                fmt_metric(p.offered_rps),
                fmt_metric(p.throughput_rps),
                format!("{:.3}", p.p50_ms),
                format!("{:.3}", p.p99_ms),
                format!("{:.3}", p.p999_ms),
                p.dropped.to_string(),
                p.errors.to_string(),
                p.silent.to_string(),
            ]);
        }
    }
    t
}

fn tenant_table(report: &ServiceReport) -> Table {
    let mut t = Table::new(&[
        "ABI",
        "tenant",
        "policy",
        "completed",
        "dropped",
        "p99 ms",
        "quarantine hwm",
        "epochs",
        "pressure",
    ]);
    for a in &report.abis {
        // The capacity row: the highest offered load of the sweep is
        // where quarantine pressure and fairness matter.
        let Some(p) = a.points.last() else { continue };
        for ten in &p.tenants {
            t.row(&[
                a.abi.to_string(),
                ten.tenant.clone(),
                ten.policy.clone(),
                ten.completed.to_string(),
                ten.dropped.to_string(),
                format!("{:.3}", ten.p99_ms),
                fmt_metric(ten.quarantine_bytes_hwm as f64),
                ten.revocation_epochs.to_string(),
                ten.heap_pressure.to_string(),
            ]);
        }
    }
    t
}

fn main() {
    let cli = BenchCli::parse("fig11_service");
    let cfg = cli.sweep_config();

    let started = std::time::Instant::now();
    let report = {
        let _sweep = morello_bench::trace_phase(
            &format!("service sweep seed {:#x}", cfg.seed),
            "service-sweep",
        );
        run_service_sweep(&cfg)
    };
    eprintln!(
        "(service sweep: {} ABIs x {} load points x {} requests, {} tenants, jobs={}, {:.2?})",
        report.abis.len(),
        report.load_ratios.len(),
        report.requests_per_point,
        report.tenants.len(),
        cli.jobs,
        started.elapsed()
    );

    human!("Figure 11: Morello-as-a-service — capacity and tail latency by ABI");
    human!(
        "{} arrivals, {} cores, {} tenants, seed {:#x}, fault rate {} ppm",
        report.traffic,
        report.cores,
        report.tenants.len(),
        report.seed,
        report.fault_rate_ppm
    );
    human!("{}", capacity_table(&report).render());
    human!("{}", load_table(&report).render());
    human!("per-tenant capacity at the highest offered load:");
    human!("{}", tenant_table(&report).render());

    morello_bench::write_report("BENCH_service.json", &report);
}
