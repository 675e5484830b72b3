//! The sweep drivers and the `BENCH_service.json` /
//! `BENCH_resilience.json` schemas.
//!
//! Both sweeps start from one [`SweepSetup`]: the request shapes
//! profiled per ABI (phase A), the hybrid-anchored capacity, the tenants
//! and the service geometry. [`run_service_sweep`] then simulates every
//! (ABI × offered-load) cell (phase B) under the naive policy, and
//! [`run_resilience_sweep`] every (ABI × storm × policy tier) cell, each
//! on the work-stealing pool.
//! Offered loads are fixed *fractions of the hybrid ABI's capacity*, so
//! all three ABIs face the same absolute request rates and the
//! capability ABIs — whose per-request service demand is higher —
//! saturate at a measurably lower offered load, the serving-facing
//! restatement of the paper's throughput gap.
//!
//! Every cell is a pure function of the seed and the profile table, and
//! cells are reduced in cell order, so the report is byte-identical
//! whatever `--jobs` is — the property `bench_compare` and CI lock.

use crate::arrival::{SimRng, TrafficModel};
use crate::chaos::ChaosPlan;
use crate::profile::{mean_service_cycles, profile_matrix, unwrap_cells, ShapeProfile};
use crate::resilience::{
    simulate_resilient, ResiliencePolicy, ResilientSimParams, ResilientSimResult, ServiceConfig,
    WindowPoint,
};
use crate::tenant::{default_tenants, TenantSpec};
use cheri_isa::Abi;
use cheri_workloads::Scale;
use morello_sim::engine::run_cells;
use morello_sim::suite::select;
use morello_sim::Platform;
use serde::{Deserialize, Serialize};

/// Request shapes served: a pointer-light compressor, a pointer-chasing
/// simulator, a request-shaped database workload, and the allocator
/// stressor (the shape that exercises the tenant quarantines hardest).
pub const SHAPE_KEYS: [&str; 4] = ["xz_557", "omnetpp_520", "sqlite", "alloc_stress"];

/// Offered-load ratios (of hybrid capacity) for the quick sweep.
pub const QUICK_RATIOS: [f64; 5] = [0.25, 0.5, 0.75, 1.0, 1.25];

/// Offered-load ratios for the full sweep.
pub const FULL_RATIOS: [f64; 9] = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5];

/// Sweep-level configuration (the knobs `fig11_service` exposes).
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Quick mode: fewer load points, fewer requests per point.
    pub quick: bool,
    /// Worker threads for the profile and sweep pools (never affects
    /// results).
    pub jobs: usize,
    /// Master seed for arrival streams and fault campaigns.
    pub seed: u64,
    /// Number of tenants.
    pub tenants: usize,
    /// Serving cores.
    pub cores: usize,
    /// Background corruption rate in requests per million (0 disables
    /// the fault campaign entirely).
    pub fault_rate_ppm: u64,
    /// Arrival process.
    pub traffic: TrafficModel,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            quick: false,
            jobs: 1,
            seed: 0x5EE7_CE11,
            tenants: 3,
            cores: 4,
            fault_rate_ppm: 0,
            traffic: TrafficModel::Poisson,
        }
    }
}

impl SweepConfig {
    /// Requests simulated per load point.
    pub fn requests_per_point(&self) -> u64 {
        if self.quick {
            2_000
        } else {
            20_000
        }
    }

    /// The offered-load ratios swept.
    pub fn ratios(&self) -> &'static [f64] {
        if self.quick {
            &QUICK_RATIOS
        } else {
            &FULL_RATIOS
        }
    }

    /// Requests per resilience cell (longer runs than the load sweep so
    /// the storm window and the recovery tail are both well populated).
    pub fn resilience_requests_per_cell(&self) -> u64 {
        if self.quick {
            4_000
        } else {
            16_000
        }
    }

    /// Storm intensities swept.
    pub fn storm_ppms(&self) -> &'static [u64] {
        if self.quick {
            &QUICK_STORM_PPM
        } else {
            &FULL_STORM_PPM
        }
    }
}

/// Per-tenant row of one load point.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TenantPoint {
    /// Tenant name.
    pub tenant: String,
    /// Effective quarantine policy label.
    pub policy: String,
    /// Requests served correctly.
    pub completed: u64,
    /// Requests dropped at admission.
    pub dropped: u64,
    /// Requests rejected (degraded shape).
    pub rejected: u64,
    /// Faulted requests returning errors.
    pub errors: u64,
    /// Silently corrupted responses.
    pub silent: u64,
    /// Tenant p99 sojourn time in milliseconds.
    pub p99_ms: f64,
    /// Tenant quarantine high-water mark in bytes.
    pub quarantine_bytes_hwm: u64,
    /// Revocation epochs the tenant heap ran.
    pub revocation_epochs: u64,
    /// Allocation failures under quarantine pressure.
    pub heap_pressure: u64,
}

/// One (ABI × offered-load) row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LoadPoint {
    /// Offered load in requests per second.
    pub offered_rps: f64,
    /// Offered load as a fraction of hybrid capacity.
    pub offered_ratio: f64,
    /// Requests emitted by the arrival process.
    pub arrivals: u64,
    /// Requests served correctly.
    pub completed: u64,
    /// Requests dropped at admission (backpressure).
    pub dropped: u64,
    /// Requests rejected (degraded shape).
    pub rejected: u64,
    /// Faulted requests returning errors.
    pub errors: u64,
    /// Silently corrupted responses (hybrid's failure mode).
    pub silent: u64,
    /// Responses per simulated second.
    pub throughput_rps: f64,
    /// Simulated run length in seconds.
    pub sim_seconds: f64,
    /// Median sojourn time in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile sojourn time in milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile sojourn time in milliseconds.
    pub p999_ms: f64,
    /// Worst sojourn time in milliseconds.
    pub max_ms: f64,
    /// Mean sojourn time in milliseconds.
    pub mean_ms: f64,
    /// Sum of tenant quarantine high-water marks in bytes.
    pub quarantine_bytes_hwm: u64,
    /// Per-tenant breakdown.
    pub tenants: Vec<TenantPoint>,
}

/// One ABI's sweep: capacity plus the per-load-point curve.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AbiService {
    /// The ABI served.
    pub abi: Abi,
    /// Analytic capacity: `cores × clock / mean service cycles`.
    pub capacity_rps: f64,
    /// Mean per-request service demand in cycles (uniform shape mix).
    pub mean_service_cycles: f64,
    /// Highest offered load (rps) at which measured throughput stayed
    /// within 5% of offered — the measured saturation knee.
    pub saturation_offered_rps: f64,
    /// The shape profile table this sweep served from.
    pub profiles: Vec<ShapeProfile>,
    /// The load curve.
    pub points: Vec<LoadPoint>,
}

/// The `BENCH_service.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Schema version of this document.
    pub schema_version: u32,
    /// Document discriminator (`"service"`), how `bench_compare` tells
    /// this report apart from `BENCH_interp.json`.
    pub kind: String,
    /// Quick mode was used.
    pub quick: bool,
    /// Workload scale of the request shapes.
    pub scale: String,
    /// Serving cores.
    pub cores: usize,
    /// Admission queue depth per tenant.
    pub queue_per_tenant: usize,
    /// DRR quantum in cycles.
    pub quantum_cycles: u64,
    /// Requests per load point.
    pub requests_per_point: u64,
    /// Master seed.
    pub seed: u64,
    /// Arrival process label.
    pub traffic: String,
    /// Background corruption rate (requests per million).
    pub fault_rate_ppm: u64,
    /// Tenant specs served.
    pub tenants: Vec<TenantSpec>,
    /// Request-shape keys.
    pub shapes: Vec<String>,
    /// Offered-load ratios swept (of hybrid capacity).
    pub load_ratios: Vec<f64>,
    /// Per-ABI results.
    pub abis: Vec<AbiService>,
}

fn cycles_to_ms(cycles: u64, clock_hz: f64) -> f64 {
    cycles as f64 / clock_hz * 1e3
}

fn load_point(r: &ResilientSimResult, offered_rps: f64, ratio: f64, clock_hz: f64) -> LoadPoint {
    LoadPoint {
        offered_rps,
        offered_ratio: ratio,
        arrivals: r.arrivals,
        completed: r.completed,
        dropped: r.dropped,
        rejected: r.rejected,
        errors: r.errors,
        silent: r.silent,
        throughput_rps: r.throughput_rps(clock_hz),
        sim_seconds: r.sim_cycles as f64 / clock_hz,
        p50_ms: cycles_to_ms(r.latency.quantile(0.50), clock_hz),
        p99_ms: cycles_to_ms(r.latency.quantile(0.99), clock_hz),
        p999_ms: cycles_to_ms(r.latency.quantile(0.999), clock_hz),
        max_ms: cycles_to_ms(r.latency.max(), clock_hz),
        mean_ms: r.latency.mean() / clock_hz * 1e3,
        quarantine_bytes_hwm: r.tenants.iter().map(|t| t.heap.quarantine_bytes_hwm).sum(),
        tenants: r
            .tenants
            .iter()
            .map(|t| TenantPoint {
                tenant: t.name.clone(),
                policy: t.policy.to_owned(),
                completed: t.counters.completed,
                dropped: t.counters.dropped,
                rejected: t.counters.rejected,
                errors: t.counters.errors,
                silent: t.counters.silent,
                p99_ms: cycles_to_ms(t.latency.quantile(0.99), clock_hz),
                quarantine_bytes_hwm: t.heap.quarantine_bytes_hwm,
                revocation_epochs: t.heap.revocation_epochs,
                heap_pressure: t.counters.heap_pressure,
            })
            .collect(),
    }
}

/// What both sweeps share: the platform clock, the shape profiles of
/// every ABI, the hybrid-anchored capacity, the tenants, the service
/// geometry, and the SLO the windows are measured against.
struct SweepSetup {
    clock_ghz: f64,
    clock_hz: f64,
    abi_profiles: Vec<(Abi, Vec<ShapeProfile>)>,
    hybrid_mean: f64,
    specs: Vec<TenantSpec>,
    service: ServiceConfig,
    /// SLO at 8× the healthy hybrid mean demand: met with room to spare
    /// in steady state, blown through under storm + outage pressure.
    slo: u64,
    /// Shed-controller and recovery-series window: 4× the SLO.
    window: u64,
}

impl SweepSetup {
    /// Profiles every ABI's shape table (phase A, one pool cell per
    /// (ABI, shape); fault twins priced when `fault_seed` is set) and
    /// derives the shared sweep geometry from the hybrid table.
    ///
    /// # Panics
    ///
    /// Panics if the hybrid profile table is entirely degraded or a
    /// pool worker panics.
    fn new(cfg: &SweepConfig, fault_seed: Option<u64>) -> SweepSetup {
        let platform = Platform::morello().with_scale(Scale::Test);
        let clock_ghz = platform.uarch.clock_ghz;
        let clock_hz = clock_ghz * 1e9;
        let shapes = select(&SHAPE_KEYS);
        let abi_profiles = profile_matrix(platform, &shapes, &Abi::ALL, cfg.jobs, fault_seed);
        let hybrid_mean = abi_profiles
            .iter()
            .find(|(abi, _)| *abi == Abi::Hybrid)
            .and_then(|(_, p)| mean_service_cycles(p))
            .expect("hybrid shapes must profile");
        let slo = (hybrid_mean * 8.0) as u64;
        SweepSetup {
            clock_ghz,
            clock_hz,
            abi_profiles,
            hybrid_mean,
            specs: default_tenants(cfg.tenants),
            service: ServiceConfig {
                cores: cfg.cores,
                queue_per_tenant: 256,
                // Quantum of one hybrid mean service demand: a visit's
                // credit buys roughly one median request, the classic
                // DRR setting.
                quantum_cycles: hybrid_mean as u64 + 1,
                fault_rate_ppm: cfg.fault_rate_ppm,
                seed: cfg.seed,
                traffic: cfg.traffic,
            },
            slo,
            window: slo * 4,
        }
    }

    /// Analytic capacity `cores × clock / mean` (0 for a zero mean).
    fn capacity(&self, mean: f64) -> f64 {
        if mean > 0.0 {
            self.service.cores as f64 * self.clock_hz / mean
        } else {
            0.0
        }
    }

    /// Runs one cell of the event loop against this setup.
    fn simulate(
        &self,
        abi: Abi,
        profiles: &[ShapeProfile],
        policy: &ResiliencePolicy,
        chaos: &ChaosPlan,
        offered_rps: f64,
        requests: u64,
    ) -> ResilientSimResult {
        simulate_resilient(&ResilientSimParams {
            config: &self.service,
            policy,
            chaos,
            profiles,
            specs: &self.specs,
            abi,
            offered_rps,
            clock_ghz: self.clock_ghz,
            requests,
        })
    }
}

/// Runs the full sweep: profile each ABI's shapes, derive capacities,
/// simulate every (ABI × load ratio) cell under the naive policy with no
/// chaos, and assemble the report.
///
/// # Panics
///
/// Panics if the hybrid profile table is entirely degraded (no capacity
/// to anchor the sweep on) or a pool worker panics.
pub fn run_service_sweep(cfg: &SweepConfig) -> ServiceReport {
    let fault_seed = (cfg.fault_rate_ppm > 0).then_some(cfg.seed ^ 0xFA17);
    let setup = SweepSetup::new(cfg, fault_seed);
    let clock_hz = setup.clock_hz;
    let ratios = cfg.ratios();
    let requests = cfg.requests_per_point();
    let hybrid_capacity = setup.capacity(setup.hybrid_mean);
    let naive = ResiliencePolicy::naive(setup.slo, setup.window);
    let calm = ChaosPlan::none();

    // Phase B: one pure cell per (ABI × ratio).
    let n_cells = setup.abi_profiles.len() * ratios.len();
    let mut points = unwrap_cells(
        run_cells(n_cells, cfg.jobs, |i| {
            let (abi, profiles) = &setup.abi_profiles[i / ratios.len()];
            let ratio = ratios[i % ratios.len()];
            let offered = hybrid_capacity * ratio;
            let r = setup.simulate(*abi, profiles, &naive, &calm, offered, requests);
            load_point(&r, offered, ratio, clock_hz)
        }),
        "sweep",
    );

    let abis = setup
        .abi_profiles
        .iter()
        .map(|(abi, profiles)| {
            let abi_points: Vec<LoadPoint> = points.drain(..ratios.len()).collect();
            let mean = mean_service_cycles(profiles).unwrap_or(0.0);
            let saturation = abi_points
                .iter()
                .filter(|p| p.throughput_rps >= 0.95 * p.offered_rps)
                .map(|p| p.offered_rps)
                .fold(0.0, f64::max);
            AbiService {
                abi: *abi,
                capacity_rps: setup.capacity(mean),
                mean_service_cycles: mean,
                saturation_offered_rps: saturation,
                profiles: profiles.clone(),
                points: abi_points,
            }
        })
        .collect();

    ServiceReport {
        schema_version: 1,
        kind: "service".to_owned(),
        quick: cfg.quick,
        scale: format!("{:?}", Scale::Test),
        cores: cfg.cores,
        queue_per_tenant: setup.service.queue_per_tenant,
        quantum_cycles: setup.service.quantum_cycles,
        requests_per_point: requests,
        seed: cfg.seed,
        traffic: cfg.traffic.label().to_owned(),
        fault_rate_ppm: cfg.fault_rate_ppm,
        tenants: setup.specs,
        shapes: SHAPE_KEYS.iter().map(|s| (*s).to_owned()).collect(),
        load_ratios: ratios.to_vec(),
        abis,
    }
}

/// The deterministic metrics `bench_compare` gates on: per-ABI capacity
/// plus throughput and p99 at every load point. All of these are pure
/// functions of the seed, so any drift is a real model change.
pub fn service_metrics(report: &ServiceReport) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for a in &report.abis {
        out.push((format!("{}.capacity_rps", a.abi), a.capacity_rps));
        for p in &a.points {
            out.push((
                format!("{}.r{:.2}.throughput_rps", a.abi, p.offered_ratio),
                p.throughput_rps,
            ));
            out.push((
                format!("{}.r{:.2}.p99_ms", a.abi, p.offered_ratio),
                p.p99_ms,
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The resilience sweep (fig. 12): storm intensity × policy tier per ABI.
// ---------------------------------------------------------------------------

/// Storm intensities (requests per million faulted inside the storm
/// window) for the quick resilience sweep.
pub const QUICK_STORM_PPM: [u64; 2] = [0, 250_000];

/// Storm intensities for the full resilience sweep.
pub const FULL_STORM_PPM: [u64; 4] = [0, 50_000, 250_000, 600_000];

/// Policy tiers swept, weakest first: `naive` (the fig. 11 tier: no
/// intervention), `resilient` (deadline + budgeted retries + breaker),
/// `full` (`resilient` plus SLO-aware shedding and hedging).
pub const POLICY_TIERS: [&str; 3] = ["naive", "resilient", "full"];

/// Offered load for every resilience cell, as a fraction of hybrid
/// capacity — enough headroom that the healthy service meets its SLO,
/// little enough that a one-core outage plus retry pressure hurts.
pub const RESILIENCE_UTILIZATION: f64 = 0.55;

/// Per-tenant row of one resilience cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResilienceTenantPoint {
    /// Tenant name.
    pub tenant: String,
    /// Effective quarantine policy label.
    pub policy: String,
    /// DRR weight (shed order is lowest weight first).
    pub weight: u32,
    /// Requests served correctly.
    pub completed: u64,
    /// Silently corrupted responses.
    pub silent: u64,
    /// Requests returning errors after retries.
    pub errors: u64,
    /// Requests that exhausted their deadline.
    pub timeouts: u64,
    /// Fresh arrivals dropped by load shedding.
    pub shed: u64,
    /// Arrivals fast-failed by an open breaker.
    pub breaker_rejected: u64,
    /// Retry attempts granted from the tenant budget.
    pub retries: u64,
    /// Tenant p99 sojourn in milliseconds.
    pub p99_ms: f64,
    /// Times the tenant's breaker tripped open.
    pub breaker_opens: u64,
    /// The breaker finished the run closed (healthy).
    pub breaker_closed_at_end: bool,
    /// Tenant quarantine high-water mark in bytes.
    pub quarantine_bytes_hwm: u64,
    /// Allocation failures under quarantine pressure.
    pub heap_pressure: u64,
}

/// One (ABI × storm intensity × policy) cell of the resilience sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResilienceCell {
    /// Policy tier label (one of [`POLICY_TIERS`]).
    pub policy: String,
    /// Storm fault intensity in requests per million (0 = no chaos).
    pub storm_ppm: u64,
    /// Requests emitted by the arrival process.
    pub arrivals: u64,
    /// Service attempts dispatched (retries and hedges included).
    pub attempts: u64,
    /// Requests served correctly.
    pub completed: u64,
    /// Silently corrupted responses (hybrid's failure mode).
    pub silent: u64,
    /// Requests returning errors after retries.
    pub errors: u64,
    /// Requests that exhausted their deadline.
    pub timeouts: u64,
    /// Requests dropped at admission (queue full).
    pub dropped: u64,
    /// Requests rejected (degraded shape).
    pub rejected: u64,
    /// Fresh arrivals dropped by load shedding.
    pub shed: u64,
    /// Arrivals fast-failed by an open breaker.
    pub breaker_rejected: u64,
    /// Retry attempts granted.
    pub retries: u64,
    /// Hedge legs launched.
    pub hedges: u64,
    /// Breaker open transitions across tenants.
    pub breaker_opens: u64,
    /// Correct responses per simulated second (silent corruptions do
    /// **not** count — a poisoned 200 is not good service).
    pub goodput_rps: f64,
    /// All responses per simulated second.
    pub throughput_rps: f64,
    /// Dispatched attempts per first attempt (retry/hedge cost).
    pub retry_amplification: f64,
    /// Fraction of arrivals served within the SLO.
    pub slo_attainment: f64,
    /// Fraction of served responses that were silently corrupt.
    pub silent_rate: f64,
    /// Median end-to-end sojourn in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile sojourn in milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile sojourn in milliseconds.
    pub p999_ms: f64,
    /// Storm window start in simulated milliseconds (None when calm).
    pub storm_start_ms: Option<f64>,
    /// Storm window end in simulated milliseconds.
    pub storm_end_ms: Option<f64>,
    /// Worst windowed p99 observed before the storm, in milliseconds.
    pub pre_storm_p99_ms: f64,
    /// Simulated milliseconds after storm end until a measurement
    /// window's p99 returned to within 25% of the pre-storm worst p99
    /// (None: no storm, no pre-storm baseline, or never recovered).
    pub recovery_ms: Option<f64>,
    /// Per-tenant breakdown.
    pub tenants: Vec<ResilienceTenantPoint>,
}

/// One ABI's resilience sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AbiResilience {
    /// The ABI served.
    pub abi: Abi,
    /// Mean per-request service demand in cycles.
    pub mean_service_cycles: f64,
    /// Analytic capacity at full core count.
    pub capacity_rps: f64,
    /// Hedge delay used by the `full` tier (1.5 × p95 service demand).
    pub hedge_delay_cycles: u64,
    /// The cells, in (storm intensity, policy tier) order.
    pub cells: Vec<ResilienceCell>,
}

/// The `BENCH_resilience.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResilienceReport {
    /// Schema version of this document.
    pub schema_version: u32,
    /// Document discriminator (`"resilience"`).
    pub kind: String,
    /// Quick mode was used.
    pub quick: bool,
    /// Workload scale of the request shapes.
    pub scale: String,
    /// Serving cores (the chaos campaign downs one mid-storm).
    pub cores: usize,
    /// Admission queue depth per tenant.
    pub queue_per_tenant: usize,
    /// DRR quantum in cycles.
    pub quantum_cycles: u64,
    /// Requests per cell.
    pub requests_per_cell: u64,
    /// Master seed.
    pub seed: u64,
    /// Arrival process label.
    pub traffic: String,
    /// Background corruption rate outside storms (requests per million).
    pub fault_rate_ppm: u64,
    /// Offered load (requests per second), shared by every cell.
    pub offered_rps: f64,
    /// Offered load as a fraction of hybrid capacity.
    pub offered_utilization: f64,
    /// The SLO in milliseconds.
    pub slo_ms: f64,
    /// Shed-controller measurement window in milliseconds.
    pub window_ms: f64,
    /// Storm intensities swept (requests per million).
    pub storm_ppm: Vec<u64>,
    /// Policy tiers swept.
    pub policies: Vec<String>,
    /// Tenant specs served.
    pub tenants: Vec<TenantSpec>,
    /// Request-shape keys.
    pub shapes: Vec<String>,
    /// Per-ABI results.
    pub abis: Vec<AbiResilience>,
}

/// p95 of the non-degraded service demands (1 when all degraded) — the
/// hedge-delay anchor.
fn p95_service_cycles(profiles: &[ShapeProfile]) -> u64 {
    let mut live: Vec<u64> = profiles
        .iter()
        .filter(|p| !p.degraded)
        .map(|p| p.service_cycles)
        .collect();
    if live.is_empty() {
        return 1;
    }
    live.sort_unstable();
    let rank = ((live.len() as f64 * 0.95).ceil() as usize).clamp(1, live.len());
    live[rank - 1]
}

/// Pre-storm p99 baseline and time-to-recovery from the measurement
/// window series: the worst windowed p99 entirely before the storm, and
/// the delay from storm end until a populated window's p99 returns to
/// within 25% of that baseline.
fn recovery_from_windows(
    windows: &[WindowPoint],
    storm: Option<(u64, u64)>,
    clock_hz: f64,
) -> (f64, Option<f64>) {
    let Some((start, end)) = storm else {
        return (0.0, None);
    };
    let pre = windows
        .iter()
        .filter(|w| w.end_cycle <= start && w.samples > 0)
        .map(|w| w.p99_cycles)
        .max()
        .unwrap_or(0);
    if pre == 0 {
        return (0.0, None);
    }
    let threshold = pre.saturating_add(pre / 4);
    let recovery = windows
        .iter()
        .filter(|w| w.end_cycle > end && w.samples > 0)
        .find(|w| w.p99_cycles <= threshold)
        .map(|w| cycles_to_ms(w.end_cycle.saturating_sub(end), clock_hz));
    (cycles_to_ms(pre, clock_hz), recovery)
}

/// The chaos seed for one storm intensity — shared by every (ABI ×
/// policy) cell at that intensity, so the tiers face the *same* storm.
fn storm_seed(base: u64, ppm: u64) -> u64 {
    SimRng::new(base ^ ppm.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x00C4_A050).next_u64()
}

fn resilience_cell(
    r: &ResilientSimResult,
    policy: &str,
    storm_ppm: u64,
    chaos: &ChaosPlan,
    clock_hz: f64,
) -> ResilienceCell {
    let served = r.completed + r.silent;
    let storm = chaos.storm_window();
    let (pre_storm_p99_ms, recovery_ms) = recovery_from_windows(&r.windows, storm, clock_hz);
    ResilienceCell {
        policy: policy.to_owned(),
        storm_ppm,
        arrivals: r.arrivals,
        attempts: r.attempts,
        completed: r.completed,
        silent: r.silent,
        errors: r.errors,
        timeouts: r.timeouts,
        dropped: r.dropped,
        rejected: r.rejected,
        shed: r.shed,
        breaker_rejected: r.breaker_rejected,
        retries: r.retries,
        hedges: r.hedges,
        breaker_opens: r.breaker_opens,
        goodput_rps: r.goodput_rps(clock_hz),
        throughput_rps: r.throughput_rps(clock_hz),
        retry_amplification: r.amplification(),
        slo_attainment: r.slo_attained as f64 / r.arrivals.max(1) as f64,
        silent_rate: r.silent as f64 / served.max(1) as f64,
        p50_ms: cycles_to_ms(r.latency.quantile(0.50), clock_hz),
        p99_ms: cycles_to_ms(r.latency.quantile(0.99), clock_hz),
        p999_ms: cycles_to_ms(r.latency.quantile(0.999), clock_hz),
        storm_start_ms: storm.map(|(s, _)| cycles_to_ms(s, clock_hz)),
        storm_end_ms: storm.map(|(_, e)| cycles_to_ms(e, clock_hz)),
        pre_storm_p99_ms,
        recovery_ms,
        tenants: r
            .tenants
            .iter()
            .map(|t| ResilienceTenantPoint {
                tenant: t.name.clone(),
                policy: t.policy.to_owned(),
                weight: t.weight,
                completed: t.counters.completed,
                silent: t.counters.silent,
                errors: t.counters.errors,
                timeouts: t.counters.timeouts,
                shed: t.counters.shed,
                breaker_rejected: t.counters.breaker_rejected,
                retries: t.counters.retries,
                p99_ms: cycles_to_ms(t.latency.quantile(0.99), clock_hz),
                breaker_opens: t.breaker_opens,
                breaker_closed_at_end: t.breaker_closed_at_end,
                quarantine_bytes_hwm: t.heap.quarantine_bytes_hwm,
                heap_pressure: t.counters.heap_pressure,
            })
            .collect(),
    }
}

/// Runs the resilience sweep: profile each ABI's shapes (fault variants
/// always measured — the storms need them), derive the shared offered
/// load from hybrid capacity, then simulate every (ABI × storm
/// intensity × policy tier) cell on the work-stealing pool. Cells are
/// pure functions of the seed and reduced in cell order, so the report
/// is byte-identical whatever `cfg.jobs` is.
///
/// # Panics
///
/// Panics if the hybrid profile table is entirely degraded or a pool
/// worker panics.
pub fn run_resilience_sweep(cfg: &SweepConfig) -> ResilienceReport {
    // Fault variants are always profiled here: the chaos storms need a
    // price and a classification for every shape's faulted twin.
    let setup = SweepSetup::new(cfg, Some(cfg.seed ^ 0xFA17));
    let clock_hz = setup.clock_hz;
    let (slo, window) = (setup.slo, setup.window);
    let offered = setup.capacity(setup.hybrid_mean) * RESILIENCE_UTILIZATION;
    let requests = cfg.resilience_requests_per_cell();
    let horizon = (requests as f64 / offered * clock_hz) as u64;
    let storms = cfg.storm_ppms();

    // Per-ABI policy tiers (the standard tier is parameterised by that
    // ABI's own mean demand; hedge delay by its p95).
    struct AbiCtx<'a> {
        abi: Abi,
        profiles: &'a [ShapeProfile],
        mean: f64,
        hedge_delay: u64,
        policies: Vec<ResiliencePolicy>,
    }
    let abis: Vec<AbiCtx> = setup
        .abi_profiles
        .iter()
        .map(|(abi, profiles)| {
            let mean = mean_service_cycles(profiles).unwrap_or(setup.hybrid_mean);
            let hedge_delay = p95_service_cycles(profiles).saturating_mul(3) / 2;
            let standard = ResiliencePolicy::standard(mean as u64, slo, window);
            let policies = vec![
                ResiliencePolicy::naive(slo, window),
                standard,
                standard.with_shedding().with_hedge(hedge_delay),
            ];
            AbiCtx {
                abi: *abi,
                profiles,
                mean,
                hedge_delay,
                policies,
            }
        })
        .collect();

    let n_tenants = setup.specs.len();
    let per_abi = storms.len() * POLICY_TIERS.len();
    let mut cells = unwrap_cells(
        run_cells(abis.len() * per_abi, cfg.jobs, |i| {
            let ctx = &abis[i / per_abi];
            let rest = i % per_abi;
            let ppm = storms[rest / POLICY_TIERS.len()];
            let pi = rest % POLICY_TIERS.len();
            let chaos =
                ChaosPlan::storm_campaign(storm_seed(cfg.seed, ppm), horizon, ppm, n_tenants);
            let r = setup.simulate(
                ctx.abi,
                ctx.profiles,
                &ctx.policies[pi],
                &chaos,
                offered,
                requests,
            );
            resilience_cell(&r, POLICY_TIERS[pi], ppm, &chaos, clock_hz)
        }),
        "resilience",
    );

    let abi_rows = abis
        .iter()
        .map(|ctx| AbiResilience {
            abi: ctx.abi,
            mean_service_cycles: ctx.mean,
            capacity_rps: setup.capacity(ctx.mean),
            hedge_delay_cycles: ctx.hedge_delay,
            cells: cells.drain(..per_abi).collect(),
        })
        .collect();

    ResilienceReport {
        schema_version: 1,
        kind: "resilience".to_owned(),
        quick: cfg.quick,
        scale: format!("{:?}", Scale::Test),
        cores: cfg.cores,
        queue_per_tenant: setup.service.queue_per_tenant,
        quantum_cycles: setup.service.quantum_cycles,
        requests_per_cell: requests,
        seed: cfg.seed,
        traffic: cfg.traffic.label().to_owned(),
        fault_rate_ppm: cfg.fault_rate_ppm,
        offered_rps: offered,
        offered_utilization: RESILIENCE_UTILIZATION,
        slo_ms: cycles_to_ms(slo, clock_hz),
        window_ms: cycles_to_ms(window, clock_hz),
        storm_ppm: storms.to_vec(),
        policies: POLICY_TIERS.iter().map(|p| (*p).to_owned()).collect(),
        tenants: setup.specs,
        shapes: SHAPE_KEYS.iter().map(|s| (*s).to_owned()).collect(),
        abis: abi_rows,
    }
}

/// The deterministic metrics `bench_compare` gates on for the
/// resilience sweep: per cell, goodput, SLO attainment, retry
/// amplification, tail latency, and the silent-corruption count. All
/// pure functions of the seed — any drift is a real model change.
pub fn resilience_metrics(report: &ResilienceReport) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for a in &report.abis {
        for c in &a.cells {
            let prefix = format!("{}.{}.s{}", a.abi, c.policy, c.storm_ppm);
            out.push((format!("{prefix}.goodput_rps"), c.goodput_rps));
            out.push((format!("{prefix}.slo_attainment"), c.slo_attainment));
            out.push((
                format!("{prefix}.retry_amplification"),
                c.retry_amplification,
            ));
            out.push((format!("{prefix}.p99_ms"), c.p99_ms));
            out.push((format!("{prefix}.silent"), c.silent as f64));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique() {
        let report = ServiceReport {
            schema_version: 1,
            kind: "service".into(),
            quick: true,
            scale: "Test".into(),
            cores: 4,
            queue_per_tenant: 256,
            quantum_cycles: 1,
            requests_per_point: 1,
            seed: 0,
            traffic: "poisson".into(),
            fault_rate_ppm: 0,
            tenants: default_tenants(2),
            shapes: vec!["xz_557".into()],
            load_ratios: vec![0.5, 1.0],
            abis: vec![AbiService {
                abi: Abi::Hybrid,
                capacity_rps: 1.0,
                mean_service_cycles: 1.0,
                saturation_offered_rps: 1.0,
                profiles: Vec::new(),
                points: Vec::new(),
            }],
        };
        let metrics = service_metrics(&report);
        let mut names: Vec<&String> = metrics.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), metrics.len());
    }

    fn window(end_cycle: u64, samples: u64, p99_cycles: u64) -> WindowPoint {
        WindowPoint {
            end_cycle,
            samples,
            p99_cycles,
        }
    }

    #[test]
    fn recovery_finds_the_first_calm_window_after_the_storm() {
        let clock_hz = 1e9; // 1 cycle = 1 ns
        let windows = vec![
            window(1_000_000, 50, 2_000_000), // pre-storm baseline
            window(2_000_000, 50, 1_500_000), // pre-storm
            window(3_000_000, 40, 9_000_000), // mid-storm blowup
            window(4_000_000, 0, 0),          // post-storm, empty: skipped
            window(5_000_000, 30, 4_000_000), // still hot (> 1.25 × 2M)
            window(6_000_000, 30, 2_400_000), // recovered (≤ 2.5M)
        ];
        let (pre, rec) = recovery_from_windows(&windows, Some((2_100_000, 3_500_000)), clock_hz);
        assert!((pre - 2.0).abs() < 1e-9, "pre-storm worst p99: {pre}");
        // 6_000_000 − 3_500_000 cycles = 2.5 ms.
        assert!((rec.unwrap() - 2.5).abs() < 1e-9, "recovery: {rec:?}");
        // No storm → no recovery story.
        assert_eq!(recovery_from_windows(&windows, None, clock_hz), (0.0, None));
        // Never calms down → None.
        let hot = vec![window(1_000, 10, 100), window(9_000, 10, 100_000)];
        let (_, rec) = recovery_from_windows(&hot, Some((2_000, 3_000)), clock_hz);
        assert_eq!(rec, None);
    }

    #[test]
    fn storm_seed_is_shared_per_intensity_and_distinct_across() {
        assert_eq!(storm_seed(7, 250_000), storm_seed(7, 250_000));
        assert_ne!(storm_seed(7, 250_000), storm_seed(7, 50_000));
        assert_ne!(storm_seed(7, 250_000), storm_seed(8, 250_000));
    }

    #[test]
    fn resilience_metric_names_are_unique() {
        let cell = |policy: &str, ppm: u64| ResilienceCell {
            policy: policy.into(),
            storm_ppm: ppm,
            arrivals: 0,
            attempts: 0,
            completed: 0,
            silent: 0,
            errors: 0,
            timeouts: 0,
            dropped: 0,
            rejected: 0,
            shed: 0,
            breaker_rejected: 0,
            retries: 0,
            hedges: 0,
            breaker_opens: 0,
            goodput_rps: 0.0,
            throughput_rps: 0.0,
            retry_amplification: 1.0,
            slo_attainment: 1.0,
            silent_rate: 0.0,
            p50_ms: 0.0,
            p99_ms: 0.0,
            p999_ms: 0.0,
            storm_start_ms: None,
            storm_end_ms: None,
            pre_storm_p99_ms: 0.0,
            recovery_ms: None,
            tenants: Vec::new(),
        };
        let report = ResilienceReport {
            schema_version: 1,
            kind: "resilience".into(),
            quick: true,
            scale: "Test".into(),
            cores: 4,
            queue_per_tenant: 256,
            quantum_cycles: 1,
            requests_per_cell: 1,
            seed: 0,
            traffic: "poisson".into(),
            fault_rate_ppm: 0,
            offered_rps: 1.0,
            offered_utilization: RESILIENCE_UTILIZATION,
            slo_ms: 1.0,
            window_ms: 4.0,
            storm_ppm: vec![0, 250_000],
            policies: POLICY_TIERS.iter().map(|p| (*p).to_owned()).collect(),
            tenants: default_tenants(2),
            shapes: vec!["xz_557".into()],
            abis: vec![
                AbiResilience {
                    abi: Abi::Hybrid,
                    mean_service_cycles: 1.0,
                    capacity_rps: 1.0,
                    hedge_delay_cycles: 1,
                    cells: vec![
                        cell("naive", 0),
                        cell("resilient", 0),
                        cell("naive", 250_000),
                        cell("resilient", 250_000),
                    ],
                },
                AbiResilience {
                    abi: Abi::Purecap,
                    mean_service_cycles: 1.0,
                    capacity_rps: 1.0,
                    hedge_delay_cycles: 1,
                    cells: vec![cell("naive", 0)],
                },
            ],
        };
        let metrics = resilience_metrics(&report);
        let mut names: Vec<&String> = metrics.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), metrics.len());
    }
}
