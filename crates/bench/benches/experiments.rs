//! Experiment benches: every table/figure path of the paper, exercised at
//! `Scale::Test` so `cargo bench` regenerates each one end-to-end.

use cheri_workloads::Scale;
use criterion::{criterion_group, criterion_main, Criterion};
use morello_bench::figures::FIGURES;
use morello_sim::suite::{run_suite_with, select, SuiteConfig, SuiteRow, TABLE4_KEYS};
use morello_sim::{project, Platform, ProgramCache, Runner};

const BENCH_KEYS: [&str; 5] = [
    "lbm_519",
    "omnetpp_520",
    "xalancbmk_523",
    "sqlite",
    "quickjs",
];

fn rows_with_jobs(jobs: usize, cache: &ProgramCache) -> Vec<SuiteRow> {
    let runner = Runner::new(Platform::morello().with_scale(Scale::Test));
    run_suite_with(
        &runner,
        &select(&BENCH_KEYS),
        cache,
        &SuiteConfig::with_jobs(jobs),
    )
    .expect("suite runs")
}

fn test_rows() -> Vec<SuiteRow> {
    rows_with_jobs(0, &ProgramCache::new())
}

fn bench_tables_and_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("experiments");
    g.sample_size(10);

    // The engine at one worker vs the host's parallelism, each with a
    // cold cache, plus the default path on a warm shared cache — the
    // three points that make the tentpole speedup visible in CI logs.
    g.bench_function("suite_run_test_scale_jobs1_cold", |b| {
        b.iter(|| rows_with_jobs(1, &ProgramCache::new()))
    });
    g.bench_function("suite_run_test_scale_cold", |b| b.iter(test_rows));
    let warm = ProgramCache::new();
    rows_with_jobs(0, &warm);
    g.bench_function("suite_run_test_scale_warm_cache", |b| {
        b.iter(|| rows_with_jobs(0, &warm))
    });

    let rows = test_rows();
    for fig in &FIGURES {
        g.bench_function(fig.name, |b| b.iter(|| (fig.render)(&rows)));
    }
    g.finish();

    let mut g = c.benchmark_group("projection");
    g.sample_size(10);
    let platform = Platform::morello().with_scale(Scale::Test);
    let w = cheri_workloads::by_key(TABLE4_KEYS[1]).unwrap(); // omnetpp
    g.bench_function("ablation_projection_one_workload", |b| {
        b.iter(|| project(platform, &w).expect("projection runs"))
    });
    g.finish();
}

criterion_group!(benches, bench_tables_and_figures);
criterion_main!(benches);
