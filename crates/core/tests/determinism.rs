//! Determinism tests: the parallel suite engine's deterministic-
//! reduction contract. A sweep's results — the `Vec<SuiteRow>` and its
//! JSON serialisation — must be identical whatever the worker count and
//! across repeated runs, or no two measurement campaigns are
//! comparable (the bit-identical-re-runs bar the MTE / CHERI-allocator
//! measurement studies set).

use cheri_workloads::Scale;
use morello_sim::suite::{run_suite_traced, run_suite_with, select, SuiteConfig, SuiteRow};
use morello_sim::{NullSpanSink, Platform, ProgramCache, Runner, VecObserver};

const KEYS: [&str; 5] = ["lbm_519", "omnetpp_520", "xz_557", "sqlite", "quickjs"];

fn sweep(jobs: usize) -> Vec<SuiteRow> {
    let runner = Runner::new(Platform::morello().with_scale(Scale::Test));
    run_suite_with(
        &runner,
        &select(&KEYS),
        &ProgramCache::new(),
        &SuiteConfig::with_jobs(jobs),
    )
    .expect("suite runs")
}

fn as_json(rows: &[SuiteRow]) -> String {
    serde_json::to_string(rows).expect("rows serialise")
}

#[test]
fn jobs_1_and_jobs_4_produce_identical_rows_and_json() {
    let sequential = sweep(1);
    let parallel = sweep(4);
    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.key, p.key, "row order must be canonical");
        for (a, b) in s.reports.iter().zip(&p.reports) {
            match (a, b) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.counts, b.counts, "{}: event counts differ", s.key);
                    assert_eq!(a.stats, b.stats, "{}: uarch stats differ", s.key);
                    assert_eq!(a.exit_code, b.exit_code);
                    assert_eq!(
                        a.seconds.to_bits(),
                        b.seconds.to_bits(),
                        "{}: simulated seconds must be bit-identical",
                        s.key
                    );
                }
                _ => panic!("{}: NA cells differ between schedules", s.key),
            }
        }
    }
    assert_eq!(
        as_json(&sequential),
        as_json(&parallel),
        "serialised sweeps must be byte-identical across worker counts"
    );
}

#[test]
fn repeated_sweeps_are_byte_identical() {
    assert_eq!(as_json(&sweep(4)), as_json(&sweep(4)));
}

#[test]
fn shared_cache_does_not_change_results() {
    let runner = Runner::new(Platform::morello().with_scale(Scale::Test));
    let cache = ProgramCache::new();
    let cfg = SuiteConfig::with_jobs(4);
    let cold = run_suite_with(&runner, &select(&KEYS), &cache, &cfg).expect("suite runs");
    assert_eq!(cache.hits(), 0);
    let warm = run_suite_with(&runner, &select(&KEYS), &cache, &cfg).expect("suite runs");
    assert!(cache.hits() > 0, "second sweep must hit the cache");
    assert_eq!(as_json(&cold), as_json(&warm));
}

#[test]
fn journals_are_canonically_ordered_for_any_worker_count() {
    let runner = Runner::new(Platform::morello().with_scale(Scale::Test));
    let order = |jobs: usize| {
        let mut obs = VecObserver::default();
        run_suite_traced(
            &runner,
            &select(&KEYS),
            &ProgramCache::new(),
            &SuiteConfig::with_jobs(jobs),
            Some(&mut obs),
            &NullSpanSink,
        )
        .expect("suite runs");
        obs.records
            .iter()
            .map(|r| format!("{}/{}", r.key, r.abi))
            .collect::<Vec<_>>()
    };
    let reference = order(1);
    assert_eq!(reference.len(), 14, "5 workloads, one NA cell");
    assert_eq!(order(4), reference);
}
