//! Oracle parity: the event loop's naive tier replays the naive serving
//! loop kept in `oracle/` field for field.
//!
//! Fig. 11 runs on [`simulate_resilient`] under [`ResiliencePolicy::naive`]
//! with [`ChaosPlan::none`]. The property draws random streams (seed,
//! Poisson or on/off traffic, background fault rate), shape tables
//! (degraded shapes, fault twins of every [`FaultClass`]), tenant
//! populations (count, weights, shares), service geometry, and offered
//! load from light to 3× overload, and requires every field the oracle
//! reports to match: the terminal counters, the run length, the merged
//! latency histogram, and per tenant the counters, latency histogram and
//! heap statistics.

mod oracle;

use cheri_isa::Abi;
use morello_serve::{
    default_tenants, simulate_resilient, ChaosPlan, FaultClass, FaultProfile, ResiliencePolicy,
    ResilientSimParams, ServiceConfig, ShapeProfile, TenantCounters, TenantSpec, TrafficModel,
};
use proptest::collection::vec;
use proptest::prelude::*;

const CLOCK_GHZ: f64 = 2.5;

/// A shape table of 1–4 shapes. Shape 0 is always runnable (the loop
/// refuses a table with none); the others are degraded one time in six.
/// Each shape may carry a fault twin of any class.
fn shapes() -> impl Strategy<Value = Vec<ShapeProfile>> {
    let class = prop_oneof![
        Just(None),
        Just(Some(FaultClass::Trapped)),
        Just(Some(FaultClass::Silent)),
        Just(Some(FaultClass::Benign)),
        Just(Some(FaultClass::Crashed)),
    ];
    let shape = (
        (20_000_u64..3_000_000, 1_u64..40),
        class,
        1_u64..300,
        0_u8..6,
    );
    vec(shape, 1..5).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(
                |(i, ((cycles, allocs), class, fault_pct, degraded))| ShapeProfile {
                    key: format!("shape-{i}"),
                    abi: Abi::Purecap,
                    degraded: i > 0 && degraded == 0,
                    service_cycles: cycles,
                    retired: cycles,
                    allocs,
                    attempts: 1,
                    fault: class.map(|class| FaultProfile {
                        cycles: cycles * fault_pct / 100,
                        class,
                    }),
                },
            )
            .collect()
    })
}

/// 1–4 tenants with random DRR weights and traffic shares, quarantine
/// policies cycling as in the default population.
fn tenants() -> impl Strategy<Value = Vec<TenantSpec>> {
    vec((1_u32..9, 1_u32..100), 1..5).prop_map(|rows| {
        default_tenants(rows.len())
            .into_iter()
            .zip(rows)
            .map(|(spec, (weight, share))| TenantSpec {
                weight,
                traffic_share: f64::from(share),
                ..spec
            })
            .collect()
    })
}

/// Service geometry and stream: cores, queue depth, DRR quantum, fault
/// rate (zero a third of the time), seed, Poisson or on/off arrivals.
fn configs() -> impl Strategy<Value = ServiceConfig> {
    let traffic = prop_oneof![
        Just(TrafficModel::Poisson),
        (200_000_u64..20_000_000, 0.1_f64..0.9).prop_map(|(period_cycles, on_share)| {
            TrafficModel::OnOff {
                period_cycles,
                on_share,
            }
        }),
    ];
    (
        (1_usize..5, 1_usize..48),
        10_000_u64..4_000_000,
        prop_oneof![Just(0_u64), 1_u64..1_000_001, 1_u64..100_000],
        (any::<u64>(), traffic),
    )
        .prop_map(
            |((cores, queue_per_tenant), quantum_cycles, fault_rate_ppm, (seed, traffic))| {
                ServiceConfig {
                    cores,
                    queue_per_tenant,
                    quantum_cycles,
                    fault_rate_ppm,
                    seed,
                    traffic,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn naive_tier_replays_the_oracle(
        profiles in shapes(),
        specs in tenants(),
        config in configs(),
        load in (0_usize..3, 0.05_f64..3.0, 100_u64..1_200),
    ) {
        let (abi_index, load_ratio, requests) = load;
        let abi = Abi::ALL[abi_index];
        let live: Vec<f64> = profiles
            .iter()
            .filter(|p| !p.degraded)
            .map(|p| p.service_cycles as f64)
            .collect();
        let mean = live.iter().sum::<f64>() / live.len() as f64;
        let offered_rps = load_ratio * config.cores as f64 * CLOCK_GHZ * 1e9 / mean;

        let want = oracle::simulate(
            &config, &profiles, &specs, abi, offered_rps, CLOCK_GHZ, requests,
        );
        let got = simulate_resilient(&ResilientSimParams {
            config: &config,
            policy: &ResiliencePolicy::naive(mean as u64 * 8, mean as u64 * 32),
            chaos: &ChaosPlan::none(),
            profiles: &profiles,
            specs: &specs,
            abi,
            offered_rps,
            clock_ghz: CLOCK_GHZ,
            requests,
        });

        let case = format!("{config:?} {abi} {offered_rps} rps x {requests}");
        prop_assert_eq!(got.arrivals, want.arrivals, "arrivals: {}", case);
        prop_assert_eq!(got.completed, want.completed, "completed: {}", case);
        prop_assert_eq!(got.dropped, want.dropped, "dropped: {}", case);
        prop_assert_eq!(got.rejected, want.rejected, "rejected: {}", case);
        prop_assert_eq!(got.errors, want.errors, "errors: {}", case);
        prop_assert_eq!(got.silent, want.silent, "silent: {}", case);
        prop_assert_eq!(got.sim_cycles, want.sim_cycles, "sim_cycles: {}", case);
        prop_assert_eq!(&got.latency, &want.latency, "latency: {}", case);
        prop_assert_eq!(got.tenants.len(), want.tenants.len());
        for (g, w) in got.tenants.iter().zip(&want.tenants) {
            prop_assert_eq!(&g.name, &w.name);
            prop_assert_eq!(g.policy, w.policy);
            // The oracle has no SLO, so it never counts attainment.
            prop_assert!(g.counters.slo_attained <= g.counters.completed + g.counters.silent);
            let counters = TenantCounters {
                slo_attained: 0,
                ..g.counters.clone()
            };
            prop_assert_eq!(&counters, &w.counters, "{} counters: {}", w.name, case);
            prop_assert_eq!(&g.latency, &w.latency, "{} latency: {}", w.name, case);
            prop_assert_eq!(g.heap, w.heap, "{} heap: {}", w.name, case);
        }
        // Nothing beyond the oracle's vocabulary ever fires.
        prop_assert_eq!(got.attempts, got.first_attempts);
        prop_assert_eq!(got.timeouts + got.shed + got.breaker_rejected, 0);
        prop_assert_eq!(got.retries + got.hedges + got.breaker_opens + got.unfinished, 0);
    }
}
