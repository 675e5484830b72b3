//! `bench_speed`: how fast does the reproduction itself run?
//!
//! Drives a fixed workload × ABI matrix and writes a schema-versioned
//! `BENCH_interp.json` at the repo root: per-ABI host-side retired
//! instructions per second, suite wall-clock at `--jobs {1,N}`,
//! lowered-program cache hit rate, simulated-vs-host throughput
//! ratios, per-opcode-class model attribution, and the observer-effect
//! overhead of sampling/tracing. The `model` section is deterministic
//! (gated by `bench_compare`); every host field carries a `host_`
//! prefix and is informational only.
//!
//! ```text
//! cargo run --release -p morello-bench --bin bench_speed -- --quick
//! ```
//!
//! Flags: `--quick` (golden five at test scale; default: Table 3 set at
//! `MORELLO_SCALE`), `--jobs N` (parallel-sweep worker count),
//! `--out <path>` (default `BENCH_interp.json`; `-` = stdout),
//! `--trace <path>` (phase trace: Chrome JSON + JSONL),
//! `--block-hist <path>` (write the model's dispatch subsection — the
//! engine's dispatch mode plus per-ABI superblock block-size
//! histogram — as a standalone JSON artefact).

use morello_bench::speed::{run_bench, speed_table};
use morello_bench::{exit_with_error, human, BenchCli};

fn main() {
    let cli = BenchCli::parse("bench_speed");
    let (quick, jobs) = (cli.quick, cli.jobs);
    let report = run_bench(quick, jobs, morello_bench::span_sink())
        .unwrap_or_else(|e| exit_with_error("bench_speed failed", &e));

    human!(
        "bench_speed ({}, scale {}, jobs {}):",
        if quick { "quick" } else { "full" },
        report.scale,
        jobs
    );
    human!("{}", speed_table(&report).render());
    human!(
        "suite wall-clock: {:.3}s @ jobs=1, {:.3}s @ jobs={jobs} ({:.2}x); cache hit rate {:.2}",
        report.host.host_wall_seconds_jobs1,
        report.host.host_wall_seconds_jobs_n,
        report.host.host_parallel_speedup,
        report.model.cache.hit_rate
    );
    let oe = &report.host.host_observer_effect;
    human!(
        "observer effect on {} {}: sampling {:.2}x, tracing {:.2}x vs plain",
        oe.workload,
        oe.abi,
        oe.host_sampling_overhead,
        oe.host_tracing_overhead
    );

    let args: Vec<String> = std::env::args().collect();
    if let Some(path) = morello_pmu::flag_value(&args, "block-hist") {
        match morello_pmu::write_json_out(path.as_ref(), &report.model.dispatch) {
            Ok(()) => eprintln!("(block-size histogram: {path})"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    morello_bench::write_report("BENCH_interp.json", &report);
}
