//! Morello-as-a-service: a multi-tenant request-serving simulation
//! over the Morello performance model, with tail-latency and capacity
//! reporting.
//!
//! The paper characterises Morello with batch workloads; this crate
//! asks the deployment-facing question the same numbers imply: *if
//! those workloads were request bodies behind a service, what do the
//! CHERI ABIs do to tail latency and capacity?* The pieces:
//!
//! - Traffic: [`ArrivalGen`] emits open-loop, request-shaped workload
//!   instances under a seeded Poisson or bursty on/off [`TrafficModel`].
//! - Tenants: each [`TenantState`] owns a real
//!   [`cheri_revoke::RevokingHeap`] under its own quarantine policy,
//!   churned per completed request.
//! - Demand: [`profile_shapes`] prices every (shape × ABI) through the
//!   full timing model, with a fuel watchdog and fault-injected twins
//!   classified as [`FaultClass`]es.
//! - The event loop: [`simulate_resilient`] is the one deterministic
//!   discrete-event scheduler — bounded admission queues (backpressure),
//!   deficit-round-robin fairness across tenants, a fixed core pool, all
//!   in simulated cycles — with the reliability tier of a
//!   [`ResiliencePolicy`] (deadlines, budgeted retries, hedging, circuit
//!   breakers, SLO-aware shedding) and a [`ChaosPlan`] (fault storms,
//!   heap-pressure spikes, core outages). Fig. 11 is its naive tier.
//! - Sweeps: [`run_service_sweep`] (offered load × ABI, behind
//!   `BENCH_service.json`) and [`run_resilience_sweep`] (storm intensity
//!   × policy tier × ABI, behind `BENCH_resilience.json`) share one
//!   setup; [`service_metrics`] and [`resilience_metrics`] are the
//!   vectors `bench_compare` gates on in CI.
//!
//! Latency quantiles come from [`morello_obs::LogHistogram`], whose
//! exact-merge property keeps every number byte-identical across
//! `--jobs` counts.

mod arrival;
mod chaos;
mod profile;
mod report;
mod resilience;
mod tenant;

pub use arrival::{ArrivalGen, Request, SimRng, TrafficModel};
pub use chaos::{ChaosPlan, CoreOutage, FaultStorm, HeapSpike};
pub use profile::{
    mean_service_cycles, profile_shapes, FaultClass, FaultProfile, ShapeProfile, PROFILE_FUEL,
    PROFILE_RETRIES,
};
pub use report::{
    resilience_metrics, run_resilience_sweep, run_service_sweep, service_metrics, AbiResilience,
    AbiService, LoadPoint, ResilienceCell, ResilienceReport, ResilienceTenantPoint, ServiceReport,
    SweepConfig, TenantPoint, FULL_RATIOS, FULL_STORM_PPM, POLICY_TIERS, QUICK_RATIOS,
    QUICK_STORM_PPM, RESILIENCE_UTILIZATION, SHAPE_KEYS,
};
pub use resilience::{
    simulate_resilient, BreakerPolicy, HedgePolicy, ResiliencePolicy, ResilientSimParams,
    ResilientSimResult, ResilientTenantOutcome, RetryPolicy, ServiceConfig, WindowPoint,
};
pub use tenant::{default_tenants, TenantCounters, TenantSpec, TenantState};
