//! Integration tests for the serving subsystem: the three properties
//! the ISSUE locks.
//!
//! 1. **Determinism**: the sweep report — every row of it — is
//!    byte-identical across `--jobs 1` and `--jobs 4` for a fixed seed,
//!    and to the committed `BENCH_service.baseline.json`.
//! 2. **Fairness**: deficit round robin stops a heavy tenant from
//!    starving light tenants under overload.
//! 3. **Saturation**: crossing an ABI's capacity the p999 sojourn time
//!    never decreases, and purecap saturates at a lower offered load
//!    than hybrid.

use cheri_isa::Abi;
use morello_serve::{
    run_service_sweep, service_metrics, simulate_resilient, ChaosPlan, ResiliencePolicy,
    ResilientSimParams, ServiceConfig, ShapeProfile, SweepConfig, TenantSpec, TrafficModel,
};
use morello_sim::StrategyKind;

fn quick_cfg(jobs: usize) -> SweepConfig {
    SweepConfig {
        quick: true,
        jobs,
        ..SweepConfig::default()
    }
}

#[test]
fn sweep_is_byte_identical_across_jobs() {
    let a = run_service_sweep(&quick_cfg(1));
    let b = run_service_sweep(&quick_cfg(4));
    let a_json = serde_json::to_string_pretty(&a).expect("serialise");
    let b_json = serde_json::to_string_pretty(&b).expect("serialise");
    assert_eq!(
        a_json, b_json,
        "BENCH_service.json must not depend on --jobs"
    );
    assert!(
        a_json == include_str!("../../../docs/results/BENCH_service.baseline.json"),
        "the quick sweep drifted from docs/results/BENCH_service.baseline.json"
    );
    // Row-level check too, so a future serialisation change cannot mask
    // a real divergence in the numbers bench_compare gates on.
    assert_eq!(service_metrics(&a), service_metrics(&b));
}

#[test]
fn sweep_shows_the_throughput_gap_and_saturation() {
    let report = run_service_sweep(&quick_cfg(2));
    let abi = |want: Abi| {
        report
            .abis
            .iter()
            .find(|a| a.abi == want)
            .expect("abi present")
    };
    let hybrid = abi(Abi::Hybrid);
    let purecap = abi(Abi::Purecap);

    // The serving restatement of the paper's throughput gap: purecap's
    // per-request demand is higher, so at the same absolute offered
    // loads it saturates strictly earlier than hybrid.
    assert!(
        purecap.capacity_rps < hybrid.capacity_rps,
        "purecap capacity {} !< hybrid {}",
        purecap.capacity_rps,
        hybrid.capacity_rps
    );
    assert!(
        purecap.saturation_offered_rps < hybrid.saturation_offered_rps,
        "purecap saturation {} !< hybrid {}",
        purecap.saturation_offered_rps,
        hybrid.saturation_offered_rps
    );

    for a in &report.abis {
        // Below saturation throughput tracks the offered rate.
        for p in a.points.iter().filter(|p| p.offered_ratio <= 0.5) {
            let err = (p.throughput_rps - p.offered_rps).abs() / p.offered_rps;
            assert!(
                err < 0.1,
                "{} at {:.2}: tput {} vs offered {}",
                a.abi,
                p.offered_ratio,
                p.throughput_rps,
                p.offered_rps
            );
        }
        // Crossing capacity the tail never recovers: p999 is
        // non-decreasing from the last under-capacity point onward.
        let tail: Vec<f64> = a
            .points
            .iter()
            .filter(|p| p.offered_rps >= 0.75 * a.capacity_rps)
            .map(|p| p.p999_ms)
            .collect();
        assert!(tail.len() >= 2, "sweep must cross {}'s capacity", a.abi);
        for w in tail.windows(2) {
            assert!(
                w[1] >= w[0],
                "{}: p999 fell from {} to {} crossing capacity",
                a.abi,
                w[0],
                w[1]
            );
        }
        // And the overloaded tail is far above the lightly-loaded one.
        let first = a.points.first().expect("points");
        let last = a.points.last().expect("points");
        assert!(
            last.p999_ms > 2.0 * first.p999_ms,
            "{}: no tail growth",
            a.abi
        );
    }
}

fn flat_profile(key: &str, cycles: u64) -> ShapeProfile {
    ShapeProfile {
        key: key.to_owned(),
        abi: Abi::Purecap,
        degraded: false,
        service_cycles: cycles,
        retired: cycles,
        allocs: 2,
        attempts: 1,
        fault: None,
    }
}

#[test]
fn heavy_tenant_cannot_starve_light_tenants() {
    // One shape, 1M cycles: capacity = 2 cores × 2.5 GHz / 1M = 5000
    // rps. Offer 12000 rps with tenant-0 sending 90% of the traffic:
    // its own demand (10800 rps) dwarfs the machine, but DRR caps what
    // it can take, so the light tenants' 600 rps each must ride through
    // without a single drop.
    let profiles = [flat_profile("svc", 1_000_000)];
    let mk = |name: &str, share: f64| TenantSpec {
        name: name.to_owned(),
        policy: StrategyKind::CapabilityPadded,
        weight: 1,
        traffic_share: share,
    };
    let specs = vec![mk("heavy", 0.90), mk("light-a", 0.05), mk("light-b", 0.05)];
    let config = ServiceConfig {
        cores: 2,
        queue_per_tenant: 64,
        quantum_cycles: 1_000_001,
        fault_rate_ppm: 0,
        seed: 0xFA112,
        traffic: TrafficModel::Poisson,
    };
    let r = simulate_resilient(&ResilientSimParams {
        config: &config,
        policy: &ResiliencePolicy::naive(10_000_000, 12_500_000),
        chaos: &ChaosPlan::none(),
        profiles: &profiles,
        specs: &specs,
        abi: Abi::Purecap,
        offered_rps: 12_000.0,
        clock_ghz: 2.5,
        requests: 8_000,
    });

    let heavy = &r.tenants[0];
    let lights = &r.tenants[1..];
    assert!(
        heavy.counters.dropped > 0,
        "the overloaded tenant must feel the backpressure"
    );
    for t in lights {
        assert_eq!(
            t.counters.dropped, 0,
            "light tenant {} was starved ({} drops)",
            t.name, t.counters.dropped
        );
        assert!(
            t.counters.completed > 0,
            "light tenant {} served nothing",
            t.name
        );
    }
    // DRR also bounds the light tenants' queueing delay: their p99 must
    // sit well below the heavy tenant's, which queues behind itself.
    let light_p99 = lights
        .iter()
        .map(|t| t.latency.quantile(0.99))
        .max()
        .unwrap();
    let heavy_p99 = heavy.latency.quantile(0.99);
    assert!(
        light_p99 < heavy_p99 / 2,
        "light p99 {light_p99} not clearly below heavy p99 {heavy_p99}"
    );
}
