//! The serving event loop: open-loop arrivals, bounded per-tenant
//! admission queues, and deficit round robin over a fixed core pool, with
//! an optional reliability tier — deadlines, budgeted retries with
//! decorrelated jitter, hedged requests, per-tenant circuit breakers, and
//! SLO-aware load shedding — and a [`ChaosPlan`] injecting fault storms,
//! heap-pressure spikes, and core outages.
//!
//! Fig. 11 is the naive tier of this loop: [`ResiliencePolicy::naive`]
//! under [`ChaosPlan::none`] measures SLO attainment and windows but never
//! intervenes, so the load sweep and every fig. 12 tier share one
//! implementation and face identical streams and storms.
//!
//! **Deficit round robin.** Each visit to a non-empty tenant queue
//! credits `quantum × weight` cycles of deficit, and the head request is
//! served only when the accrued deficit covers its profiled service
//! demand, so a tenant sending heavyweight requests cannot starve tenants
//! sending light ones. A full admission queue drops the arrival
//! (backpressure). The loop is a pure single-threaded function of its
//! inputs: simulated time comes from the timing model's cycle counts,
//! never from the host clock.
//!
//! The semantics worth spelling out:
//!
//! * **Deadlines** are per *attempt*, measured from the attempt's
//!   enqueue. A request that queues past its deadline fails without
//!   occupying a core; a response landing past it is discarded as a
//!   timeout even if the computation succeeded. Sojourn histograms are
//!   always end-to-end from the original arrival.
//! * **Retries** draw from a per-tenant token budget (milli-tokens
//!   accrued per admitted arrival, [`RetryPolicy::budget_per_mille`]
//!   each), capping amplification at `1 + budget/1000` plus a constant
//!   burst allowance however hard the storm blows. Backoff is
//!   exponential with decorrelated jitter — `min(cap, uniform(base,
//!   3 × prev))` — seeded from the request id and attempt number, never
//!   from scheduling. Every retry re-draws its fault lottery: under a
//!   *deterministically trapping* ABI a storm-faulted request usually
//!   completes on retry, which is the figure's headline.
//! * **Silent corruptions are successes** to every policy here: the
//!   service observes a well-formed 200. Retries, breakers, and
//!   hedging cannot engage — the hybrid ABI's poisoned responses ride
//!   straight through, which is the point.
//! * **Circuit breakers** are per tenant: `failure_threshold`
//!   consecutive failures (traps, crashes, timeouts) open the breaker;
//!   admissions fast-fail while open; after `open_cycles` the breaker
//!   half-opens and admits `half_open_probes` probe requests whose
//!   outcomes close it ([`BreakerPolicy::close_after`] successes) or
//!   re-open it (any failure).
//! * **Load shedding** watches the measured p99 per
//!   [`ResiliencePolicy::window_cycles`] window: each window over SLO
//!   raises the shed level by one tier, each compliant window lowers
//!   it. Tier *k* sheds fresh arrivals of the *k* lowest-weight
//!   tenants (retries are exempt — money already spent). The
//!   highest-weight tenant is never shed.
//! * **Hedging** (optional) launches a duplicate leg if a dispatched
//!   request is still running after [`HedgePolicy::delay_cycles`]
//!   (sweep-derived from the p95 of the profiled service demand); the
//!   first successful leg wins and cancels its sibling, and a hedge is
//!   only launched when a core is idle.

use crate::arrival::{ArrivalGen, SimRng, TrafficModel};
use crate::chaos::ChaosPlan;
use crate::profile::{FaultClass, ShapeProfile};
use crate::tenant::{TenantCounters, TenantSpec, TenantState};
use cheri_isa::Abi;
use cheri_mem::HeapStats;
use morello_obs::LogHistogram;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Service-side configuration, constant across a sweep.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Cores serving requests.
    pub cores: usize,
    /// Bounded admission queue depth per tenant; arrivals beyond it are
    /// dropped (backpressure).
    pub queue_per_tenant: usize,
    /// DRR quantum in cycles credited per visit (scaled by tenant
    /// weight). Of the order of one mean service demand.
    pub quantum_cycles: u64,
    /// Background corruption rate: requests per million that carry an
    /// injected tag-clearing fault.
    pub fault_rate_ppm: u64,
    /// Stream seed (arrivals, tenant draws, shape draws, fault draws).
    pub seed: u64,
    /// Arrival process.
    pub traffic: TrafficModel,
}

/// One milli-token; a retry costs 1000 of them.
const MILLI: u64 = 1000;

/// Retry-token cap per tenant (10 whole retries of burst headroom).
const TOKEN_CAP: u64 = 10 * MILLI;

/// Bounded retry with exponential backoff and decorrelated jitter.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts allowed per request (1 = no retries).
    pub max_attempts: u32,
    /// Backoff floor in cycles (first retry draws in `[base, 3·base)`).
    pub base_backoff_cycles: u64,
    /// Backoff ceiling in cycles.
    pub max_backoff_cycles: u64,
    /// Retry budget accrued per admitted arrival, in milli-tokens: a
    /// retry costs 1000, so a budget of 500 caps steady-state retry
    /// amplification at 1.5×.
    pub budget_per_mille: u32,
}

/// Per-tenant circuit breaker (closed → open → half-open → closed).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct BreakerPolicy {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Cycles the breaker stays open before half-opening.
    pub open_cycles: u64,
    /// Probe requests admitted while half-open.
    pub half_open_probes: u32,
    /// Probe successes required to close again.
    pub close_after: u32,
}

/// Hedged requests: duplicate a still-running attempt after a delay.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct HedgePolicy {
    /// Cycles a dispatched attempt may run before a hedge leg is
    /// launched (derived from a high quantile of the profiled service
    /// demand by the sweep driver).
    pub delay_cycles: u64,
}

/// The full reliability policy one simulation cell runs under.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ResiliencePolicy {
    /// The per-request SLO in cycles (end-to-end sojourn) that
    /// attainment and shedding are measured against.
    pub slo_cycles: u64,
    /// Measurement window for the shed controller and the recovery
    /// time-series.
    pub window_cycles: u64,
    /// Per-attempt deadline in cycles, measured from the attempt's
    /// enqueue; `None` waits forever (the naive policy).
    pub deadline_cycles: Option<u64>,
    /// Retry policy; `None` fails requests on first error.
    pub retry: Option<RetryPolicy>,
    /// Circuit-breaker policy; `None` never fast-fails.
    pub breaker: Option<BreakerPolicy>,
    /// SLO-aware load shedding on/off.
    pub shed: bool,
    /// Hedged-request policy; `None` never duplicates work.
    pub hedge: Option<HedgePolicy>,
}

impl ResiliencePolicy {
    /// The fig. 11 tier: measure SLO attainment and windows, intervene
    /// never — no deadline, no retries, no breaker, no shedding.
    pub fn naive(slo_cycles: u64, window_cycles: u64) -> ResiliencePolicy {
        ResiliencePolicy {
            slo_cycles,
            window_cycles,
            deadline_cycles: None,
            retry: None,
            breaker: None,
            shed: false,
            hedge: None,
        }
    }

    /// The standard resilient tier, parameterised by the mean profiled
    /// service demand: a generous 100×-mean deadline, three attempts
    /// under a 500 ‰ retry budget with jittered backoff in
    /// `[mean/4, 8×mean]`, and a 10-consecutive-failure breaker that
    /// half-opens after 32 mean demands with 4 probes.
    pub fn standard(
        mean_service_cycles: u64,
        slo_cycles: u64,
        window_cycles: u64,
    ) -> ResiliencePolicy {
        let mean = mean_service_cycles.max(1);
        ResiliencePolicy {
            slo_cycles,
            window_cycles,
            deadline_cycles: Some(mean.saturating_mul(100)),
            retry: Some(RetryPolicy {
                max_attempts: 3,
                base_backoff_cycles: (mean / 4).max(1),
                max_backoff_cycles: mean.saturating_mul(8),
                budget_per_mille: 500,
            }),
            breaker: Some(BreakerPolicy {
                failure_threshold: 10,
                open_cycles: mean.saturating_mul(32),
                half_open_probes: 4,
                close_after: 2,
            }),
            shed: false,
            hedge: None,
        }
    }

    /// Enables SLO-aware load shedding.
    #[must_use]
    pub fn with_shedding(mut self) -> ResiliencePolicy {
        self.shed = true;
        self
    }

    /// Enables hedged requests after `delay_cycles`.
    #[must_use]
    pub fn with_hedge(mut self, delay_cycles: u64) -> ResiliencePolicy {
        self.hedge = Some(HedgePolicy { delay_cycles });
        self
    }
}

/// One measurement window of the recovery time-series: how many
/// responses landed in it and their p99 sojourn.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowPoint {
    /// The window's closing cycle.
    pub end_cycle: u64,
    /// Responses recorded in the window.
    pub samples: u64,
    /// p99 end-to-end sojourn of the window's responses (0 when empty).
    pub p99_cycles: u64,
}

/// One tenant's end-of-run outcome under a resilient policy.
#[derive(Clone, Debug, Serialize)]
pub struct ResilientTenantOutcome {
    /// Tenant name.
    pub name: String,
    /// Effective quarantine policy label.
    pub policy: &'static str,
    /// DRR weight (shedding order is lowest weight first).
    pub weight: u32,
    /// Service counters (including the resilience counters).
    pub counters: TenantCounters,
    /// End-to-end sojourn histogram (served responses), cycles.
    pub latency: LogHistogram,
    /// Tenant heap statistics.
    pub heap: HeapStats,
    /// Times this tenant's breaker tripped open.
    pub breaker_opens: u64,
    /// The breaker finished the run closed (healthy).
    pub breaker_closed_at_end: bool,
}

/// The outcome of one resilient simulation cell.
#[derive(Clone, Debug, Serialize)]
pub struct ResilientSimResult {
    /// Requests emitted by the arrival process.
    pub arrivals: u64,
    /// Service attempts dispatched to cores (retries and hedge legs
    /// included).
    pub attempts: u64,
    /// First attempts dispatched (the amplification denominator).
    pub first_attempts: u64,
    /// Requests served with a correct response.
    pub completed: u64,
    /// Requests served with silently corrupted responses.
    pub silent: u64,
    /// Requests that ended in an error (trap or crash) after retries.
    pub errors: u64,
    /// Requests that exhausted their deadline after retries.
    pub timeouts: u64,
    /// Requests dropped at admission (queue full).
    pub dropped: u64,
    /// Requests rejected for a degraded shape.
    pub rejected: u64,
    /// Fresh arrivals dropped by load shedding.
    pub shed: u64,
    /// Arrivals fast-failed by an open breaker.
    pub breaker_rejected: u64,
    /// Retry attempts granted from tenant budgets.
    pub retries: u64,
    /// Hedge legs launched.
    pub hedges: u64,
    /// Breaker open transitions across all tenants.
    pub breaker_opens: u64,
    /// Requests still queued, in flight, or awaiting retry when the
    /// stream ended (not counted in any terminal bucket).
    pub unfinished: u64,
    /// Served responses whose end-to-end sojourn met the SLO.
    pub slo_attained: u64,
    /// Simulated cycle of the last event.
    pub sim_cycles: u64,
    /// Merged end-to-end sojourn histogram (served responses), cycles.
    pub latency: LogHistogram,
    /// The measurement-window time-series (recovery analysis).
    pub windows: Vec<WindowPoint>,
    /// Per-tenant outcomes, in spec order.
    pub tenants: Vec<ResilientTenantOutcome>,
}

impl ResilientSimResult {
    /// Correct responses per simulated second — the goodput. Unlike
    /// [`throughput_rps`](Self::throughput_rps), silent corruptions do
    /// **not** count: a poisoned 200 is not good service.
    pub fn goodput_rps(&self, clock_hz: f64) -> f64 {
        self.per_second(self.completed, clock_hz)
    }

    /// All responses per simulated second (completed + silent).
    pub fn throughput_rps(&self, clock_hz: f64) -> f64 {
        self.per_second(self.completed + self.silent, clock_hz)
    }

    /// `n` events over the run length, per simulated second.
    fn per_second(&self, n: u64, clock_hz: f64) -> f64 {
        if self.sim_cycles == 0 {
            return 0.0;
        }
        n as f64 / (self.sim_cycles as f64 / clock_hz)
    }

    /// Dispatched attempts per first attempt — the retry/hedge
    /// amplification factor (1.0 when no retries or hedges launched).
    pub fn amplification(&self) -> f64 {
        if self.first_attempts == 0 {
            return 1.0;
        }
        self.attempts as f64 / self.first_attempts as f64
    }
}

/// Everything one resilient simulation cell needs.
pub struct ResilientSimParams<'a> {
    /// Service geometry and stream seed.
    pub config: &'a ServiceConfig,
    /// The reliability policy under test.
    pub policy: &'a ResiliencePolicy,
    /// The chaos campaign injected into the cell.
    pub chaos: &'a ChaosPlan,
    /// Profiled request shapes for this ABI.
    pub profiles: &'a [ShapeProfile],
    /// Tenant population.
    pub specs: &'a [TenantSpec],
    /// The ABI (selects tenant heap policies).
    pub abi: Abi,
    /// Offered load in requests per simulated second.
    pub offered_rps: f64,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Arrivals to generate.
    pub requests: u64,
}

/// A queued service attempt (fresh arrival, retry, or breaker probe).
#[derive(Clone, Copy, Debug)]
struct Attempt {
    id: u64,
    tenant: usize,
    shape: usize,
    orig_arrival: u64,
    enqueued: u64,
    attempt: u32,
    prev_backoff: u64,
    probe: bool,
    fault_draw: f64,
}

/// How one dispatched leg ends (decided at dispatch, realised at its
/// finish event).
const LEG_OK: u8 = 0;
const LEG_SILENT: u8 = 1;
const LEG_ERROR: u8 = 2;

/// A dispatched attempt: its queue record plus how many legs (1, or 2
/// once hedged) are still occupying cores.
struct Flight {
    att: Attempt,
    legs: u32,
    resolved: bool,
}

/// Why an attempt failed — drives the terminal counter if retries are
/// exhausted.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FailKind {
    Timeout,
    Error,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open { until: u64 },
    HalfOpen,
}

enum Admit {
    Normal,
    Probe,
    Reject,
}

/// One tenant's circuit breaker.
struct Breaker {
    policy: Option<BreakerPolicy>,
    state: BreakerState,
    consecutive_failures: u32,
    probes_in_flight: u32,
    probe_successes: u32,
    opens: u64,
}

impl Breaker {
    fn new(policy: Option<BreakerPolicy>) -> Breaker {
        Breaker {
            policy,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            probes_in_flight: 0,
            probe_successes: 0,
            opens: 0,
        }
    }

    fn trip(&mut self, now: u64) {
        let p = self.policy.expect("trip only under a policy");
        self.state = BreakerState::Open {
            until: now.saturating_add(p.open_cycles),
        };
        self.opens += 1;
        self.consecutive_failures = 0;
        self.probes_in_flight = 0;
        self.probe_successes = 0;
    }

    /// Admission decision for an attempt arriving at `now`.
    fn admit(&mut self, now: u64) -> Admit {
        let Some(p) = self.policy else {
            return Admit::Normal;
        };
        match self.state {
            BreakerState::Closed => Admit::Normal,
            BreakerState::Open { until } if now < until => Admit::Reject,
            BreakerState::Open { .. } => {
                // Open window elapsed: half-open and try to admit this
                // attempt as the first probe.
                self.state = BreakerState::HalfOpen;
                self.probes_in_flight = 1;
                self.probe_successes = 0;
                Admit::Probe
            }
            BreakerState::HalfOpen => {
                if self.probes_in_flight < p.half_open_probes {
                    self.probes_in_flight += 1;
                    Admit::Probe
                } else {
                    Admit::Reject
                }
            }
        }
    }

    /// Records an attempt outcome (success = a served response —
    /// silent corruption included, the service cannot tell).
    fn on_outcome(&mut self, now: u64, success: bool, probe: bool) {
        let Some(p) = self.policy else {
            return;
        };
        if probe {
            self.probes_in_flight = self.probes_in_flight.saturating_sub(1);
        }
        match self.state {
            BreakerState::Closed => {
                if success {
                    self.consecutive_failures = 0;
                } else {
                    self.consecutive_failures += 1;
                    if self.consecutive_failures >= p.failure_threshold {
                        self.trip(now);
                    }
                }
            }
            BreakerState::HalfOpen => {
                if !probe {
                    // A straggler admitted before the trip; its outcome
                    // does not vote on the probe round.
                    return;
                }
                if success {
                    self.probe_successes += 1;
                    if self.probe_successes >= p.close_after {
                        self.state = BreakerState::Closed;
                        self.consecutive_failures = 0;
                    }
                } else {
                    self.trip(now);
                }
            }
            // Outcomes landing while open are stragglers from before
            // the trip; the open timer is authoritative.
            BreakerState::Open { .. } => {}
        }
    }

    fn is_closed(&self) -> bool {
        matches!(self.state, BreakerState::Closed)
    }
}

/// The SLO-aware shed controller plus the window time-series recorder
/// (the series is recorded even when shedding is off, so the naive
/// policy yields the same recovery analysis).
struct ShedController {
    enabled: bool,
    slo: u64,
    window: u64,
    next_tick: u64,
    hist: LogHistogram,
    level: usize,
    max_level: usize,
    /// Tenant indices, lowest weight first (ties: lower index first) —
    /// the shedding order.
    order: Vec<usize>,
    shed_set: Vec<bool>,
    windows: Vec<WindowPoint>,
}

impl ShedController {
    fn new(policy: &ResiliencePolicy, specs: &[TenantSpec]) -> ShedController {
        let mut order: Vec<usize> = (0..specs.len()).collect();
        order.sort_by_key(|&i| (specs[i].weight, i));
        ShedController {
            enabled: policy.shed,
            slo: policy.slo_cycles,
            window: policy.window_cycles.max(1),
            next_tick: policy.window_cycles.max(1),
            hist: LogHistogram::new(),
            level: 0,
            // The highest-weight tenant is never shed.
            max_level: specs.len().saturating_sub(1),
            order,
            shed_set: vec![false; specs.len()],
            windows: Vec::new(),
        }
    }

    /// Closes every window boundary at or before `now`.
    fn tick_to(&mut self, now: u64) {
        while self.next_tick <= now {
            self.close_window();
        }
    }

    fn close_window(&mut self) {
        let samples = self.hist.count();
        let p99 = if samples == 0 {
            0
        } else {
            self.hist.quantile(0.99)
        };
        self.windows.push(WindowPoint {
            end_cycle: self.next_tick,
            samples,
            p99_cycles: p99,
        });
        if self.enabled {
            if samples > 0 && p99 > self.slo {
                self.level = (self.level + 1).min(self.max_level);
            } else {
                self.level = self.level.saturating_sub(1);
            }
            self.shed_set.iter_mut().for_each(|s| *s = false);
            for &t in self.order.iter().take(self.level) {
                self.shed_set[t] = true;
            }
        }
        self.hist = LogHistogram::new();
        self.next_tick += self.window;
    }

    fn observe(&mut self, sojourn: u64) {
        self.hist.record(sojourn);
    }

    fn is_shedding(&self, tenant: usize) -> bool {
        self.shed_set[tenant]
    }

    /// Closes the final partial window and returns the series.
    fn finish(mut self) -> Vec<WindowPoint> {
        self.close_window();
        self.windows
    }
}

/// Backoff with decorrelated jitter: `min(cap, uniform(base, 3·prev))`.
fn decorrelated_backoff(rng: &mut SimRng, base: u64, prev: u64, cap: u64) -> u64 {
    let base = base.max(1);
    let hi = prev.saturating_mul(3).max(base + 1);
    base.saturating_add(rng.below(hi - base)).min(cap.max(base))
}

/// The per-retry RNG: seeded from the stream seed, request id, and
/// attempt number — coordinates, never scheduling.
fn retry_rng(seed: u64, id: u64, attempt: u32) -> SimRng {
    SimRng::new(
        seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ u64::from(attempt).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
    )
}

/// Prices one leg of `profile` whose fault lottery drew `draw` against
/// a fault rate of `ppm`: its service cycles (at least 1) and its
/// outcome code. Only a shape with a profiled fault twin can fault.
fn leg(profile: &ShapeProfile, draw: f64, ppm: u64) -> (u64, u8) {
    let (cycles, code) = match profile.fault {
        Some(f) if draw < ppm as f64 / 1e6 => (
            f.cycles,
            match f.class {
                FaultClass::Silent => LEG_SILENT,
                FaultClass::Benign => LEG_OK,
                FaultClass::Trapped | FaultClass::Crashed => LEG_ERROR,
            },
        ),
        _ => (profile.service_cycles, LEG_OK),
    };
    (cycles.max(1), code)
}

/// Runs one resilient simulation cell. See the module docs for the
/// policy semantics.
///
/// # Panics
///
/// Panics when every profiled shape is degraded (the sweep driver
/// filters such ABIs out first).
#[allow(clippy::too_many_lines)]
pub fn simulate_resilient(p: &ResilientSimParams) -> ResilientSimResult {
    assert!(
        p.profiles.iter().any(|pr| !pr.degraded),
        "no runnable shapes to serve"
    );
    let config = p.config;
    let policy = p.policy;
    let shares: Vec<f64> = p.specs.iter().map(|s| s.traffic_share).collect();
    let mut gen = ArrivalGen::new(
        config.seed,
        config.traffic,
        p.offered_rps,
        p.clock_ghz,
        &shares,
        p.profiles.len(),
    );
    let mut tenants: Vec<TenantState> = p
        .specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            TenantState::new(
                s,
                p.abi,
                SimRng::new(config.seed ^ (i as u64 + 1)).next_u64(),
            )
        })
        .collect();
    let mut breakers: Vec<Breaker> = p
        .specs
        .iter()
        .map(|_| Breaker::new(policy.breaker))
        .collect();
    let mut tokens: Vec<u64> = vec![0; p.specs.len()];
    let mut shed = ShedController::new(policy, p.specs);

    let mut queues: Vec<VecDeque<Attempt>> = vec![VecDeque::new(); p.specs.len()];
    let mut deficit: Vec<u64> = vec![0; p.specs.len()];
    let mut cursor = 0_usize;
    let mut queued = 0_usize;
    let mut busy = 0_usize;

    // Leg finish events: (finish, leg_seq, flight_id, outcome code).
    let mut legs: BinaryHeap<Reverse<(u64, u64, u64, u8)>> = BinaryHeap::new();
    let mut lseq = 0_u64;
    let mut flights: HashMap<u64, Flight> = HashMap::new();
    let mut next_fid = 0_u64;
    // Pending retries: (due, retry_seq) plus the attempt records.
    let mut retry_heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut retry_map: HashMap<u64, Attempt> = HashMap::new();
    let mut rseq = 0_u64;
    // Hedge timers: (due, flight_id).
    let mut hedge_heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();

    let boundaries = p.chaos.boundaries();
    let mut bi = 0_usize;

    let mut arrivals = 0_u64;
    let mut attempts = 0_u64;
    let mut first_attempts = 0_u64;
    let mut rejected = 0_u64;
    let mut timeouts = 0_u64;
    let mut errors = 0_u64;
    let mut sim_cycles = 0_u64;
    let mut next_arrival = (arrivals < p.requests).then(|| gen.next_request());

    // The failure path: vote the breaker, spend the retry budget or
    // take the terminal counter. A macro rather than a closure so it
    // can borrow the locals it needs per call site.
    macro_rules! on_failure {
        ($att:expr, $kind:expr, $now:expr) => {{
            let att: Attempt = $att;
            let kind: FailKind = $kind;
            let now: u64 = $now;
            breakers[att.tenant].on_outcome(now, false, att.probe);
            let mut retried = false;
            if let Some(rp) = policy.retry {
                if att.attempt < rp.max_attempts && tokens[att.tenant] >= MILLI {
                    tokens[att.tenant] -= MILLI;
                    tenants[att.tenant].counters.retries += 1;
                    let mut rng = retry_rng(config.seed, att.id, att.attempt);
                    let backoff = decorrelated_backoff(
                        &mut rng,
                        rp.base_backoff_cycles,
                        att.prev_backoff,
                        rp.max_backoff_cycles,
                    );
                    let fault_draw = rng.next_f64();
                    retry_map.insert(
                        rseq,
                        Attempt {
                            attempt: att.attempt + 1,
                            prev_backoff: backoff,
                            probe: false,
                            fault_draw,
                            ..att
                        },
                    );
                    retry_heap.push(Reverse((now.saturating_add(backoff), rseq)));
                    rseq += 1;
                    retried = true;
                }
            }
            if !retried {
                match kind {
                    FailKind::Timeout => {
                        tenants[att.tenant].counters.timeouts += 1;
                        timeouts += 1;
                    }
                    FailKind::Error => {
                        tenants[att.tenant].counters.errors += 1;
                        errors += 1;
                    }
                }
            }
        }};
    }

    // The success path: a served response (correct or silently
    // corrupt) landing at `finish`.
    macro_rules! on_served {
        ($att:expr, $silent:expr, $finish:expr) => {{
            let att: Attempt = $att;
            let finish: u64 = $finish;
            breakers[att.tenant].on_outcome(finish, true, att.probe);
            let sojourn = finish.saturating_sub(att.orig_arrival);
            let tenant = &mut tenants[att.tenant];
            if $silent {
                tenant.counters.silent += 1;
            } else {
                tenant.counters.completed += 1;
            }
            if sojourn <= policy.slo_cycles {
                tenant.counters.slo_attained += 1;
            }
            tenant.latency.record(sojourn);
            shed.observe(sojourn);
            let mult = p.chaos.churn_mult_at(finish, att.tenant);
            for _ in 0..mult {
                tenant.churn(p.profiles[att.shape].allocs);
            }
        }};
    }

    loop {
        // Skip boundaries the clock has already passed.
        while bi < boundaries.len() && boundaries[bi] <= sim_cycles {
            bi += 1;
        }
        let t_arr = next_arrival.as_ref().map(|r| r.arrival);
        let t_done = legs.peek().map(|&Reverse((f, ..))| f);
        let t_retry = retry_heap.peek().map(|&Reverse((at, _))| at);
        let t_hedge = hedge_heap.peek().map(|&Reverse((at, _))| at);
        // A chaos boundary is only an event while work is waiting on it
        // (an outage ending must restart dispatch); it never keeps an
        // otherwise-finished simulation alive.
        let t_chaos = if queued > 0 {
            boundaries.get(bi).copied()
        } else {
            None
        };
        let Some(now) = [t_done, t_retry, t_hedge, t_arr, t_chaos]
            .into_iter()
            .flatten()
            .min()
        else {
            break;
        };
        sim_cycles = sim_cycles.max(now);
        shed.tick_to(now);

        // Leg completions (ties: completions before arrivals, so a freed
        // core serves a same-cycle arrival).
        while let Some(&Reverse((finish, _, fid, code))) = legs.peek() {
            if finish > now {
                break;
            }
            legs.pop();
            let flight = flights.get_mut(&fid).expect("flight for leg");
            if flight.resolved {
                flight.legs -= 1;
                if flight.legs == 0 {
                    flights.remove(&fid);
                }
                continue;
            }
            let att = flight.att;
            if code == LEG_ERROR {
                // An erroring leg only resolves the flight if it is the
                // last leg still running (a hedge sibling may yet win).
                busy -= 1;
                flight.legs -= 1;
                if flight.legs == 0 {
                    flights.remove(&fid);
                    let kind = match policy.deadline_cycles {
                        Some(d) if finish.saturating_sub(att.enqueued) > d => FailKind::Timeout,
                        _ => FailKind::Error,
                    };
                    on_failure!(att, kind, finish);
                }
            } else {
                // First served leg wins: cancel the sibling (its core
                // frees immediately) and resolve.
                busy -= flight.legs as usize;
                flight.resolved = true;
                flight.legs -= 1;
                if flight.legs == 0 {
                    flights.remove(&fid);
                }
                match policy.deadline_cycles {
                    Some(d) if finish.saturating_sub(att.enqueued) > d => {
                        // The response landed past the deadline: the
                        // client already gave up; classify as timeout.
                        on_failure!(att, FailKind::Timeout, finish);
                    }
                    _ => on_served!(att, code == LEG_SILENT, finish),
                }
            }
        }

        // Hedge timers due: duplicate still-running single-leg flights
        // when a core is idle.
        while let Some(&Reverse((at, fid))) = hedge_heap.peek() {
            if at > now {
                break;
            }
            hedge_heap.pop();
            let effective = config.cores.saturating_sub(p.chaos.cores_down_at(now));
            let Some(flight) = flights.get_mut(&fid) else {
                continue;
            };
            if flight.resolved || flight.legs != 1 || busy >= effective {
                continue;
            }
            let att = flight.att;
            let mut rng = retry_rng(config.seed ^ 0x4ED6_E5F1, att.id, att.attempt);
            let ppm = p.chaos.fault_ppm_at(now, config.fault_rate_ppm);
            let (cost, code) = leg(&p.profiles[att.shape], rng.next_f64(), ppm);
            flight.legs = 2;
            busy += 1;
            attempts += 1;
            tenants[att.tenant].counters.hedges += 1;
            legs.push(Reverse((now + cost, lseq, fid, code)));
            lseq += 1;
        }

        // Retries due: re-admit through the breaker into the queue.
        while let Some(&Reverse((at, seq))) = retry_heap.peek() {
            if at > now {
                break;
            }
            retry_heap.pop();
            let mut att = retry_map.remove(&seq).expect("retry attempt");
            att.enqueued = now;
            match breakers[att.tenant].admit(now) {
                Admit::Reject => {
                    tenants[att.tenant].counters.breaker_rejected += 1;
                }
                admit => {
                    att.probe = matches!(admit, Admit::Probe);
                    if queues[att.tenant].len() >= config.queue_per_tenant {
                        tenants[att.tenant].counters.dropped += 1;
                    } else {
                        queues[att.tenant].push_back(att);
                        queued += 1;
                    }
                }
            }
        }

        // Fresh arrivals.
        while let Some(req) = next_arrival.take() {
            if req.arrival > now {
                next_arrival = Some(req);
                break;
            }
            arrivals += 1;
            if arrivals < p.requests {
                next_arrival = Some(gen.next_request());
            }
            let t = req.tenant;
            if p.profiles[req.shape].degraded {
                tenants[t].counters.rejected += 1;
                rejected += 1;
                continue;
            }
            // Budget accrual is per admitted-class arrival, shed or not
            // — shedding must not starve the budget that drains the
            // backlog it sheds for.
            if let Some(rp) = policy.retry {
                tokens[t] = (tokens[t] + u64::from(rp.budget_per_mille)).min(TOKEN_CAP);
            }
            if shed.is_shedding(t) {
                tenants[t].counters.shed += 1;
                continue;
            }
            match breakers[t].admit(now) {
                Admit::Reject => {
                    tenants[t].counters.breaker_rejected += 1;
                }
                admit => {
                    if queues[t].len() >= config.queue_per_tenant {
                        tenants[t].counters.dropped += 1;
                    } else {
                        queues[t].push_back(Attempt {
                            id: req.id,
                            tenant: t,
                            shape: req.shape,
                            orig_arrival: req.arrival,
                            enqueued: req.arrival,
                            attempt: 1,
                            prev_backoff: policy.retry.map_or(0, |rp| rp.base_backoff_cycles),
                            probe: matches!(admit, Admit::Probe),
                            fault_draw: req.fault_draw,
                        });
                        queued += 1;
                    }
                }
            }
        }

        // DRR dispatch over the effective (outage-shrunk) core pool.
        let effective = config.cores.saturating_sub(p.chaos.cores_down_at(now));
        let mut free = effective.saturating_sub(busy);
        while free > 0 && queued > 0 {
            let t = cursor;
            cursor = (cursor + 1) % queues.len();
            if queues[t].is_empty() {
                deficit[t] = 0;
                continue;
            }
            deficit[t] = deficit[t].saturating_add(
                config
                    .quantum_cycles
                    .saturating_mul(u64::from(p.specs[t].weight.max(1))),
            );
            while free > 0 {
                let Some(&head) = queues[t].front() else {
                    deficit[t] = 0;
                    break;
                };
                // An attempt that out-queued its deadline fails without
                // occupying a core.
                if let Some(d) = policy.deadline_cycles {
                    if now.saturating_sub(head.enqueued) > d {
                        queues[t].pop_front();
                        queued -= 1;
                        on_failure!(head, FailKind::Timeout, now);
                        continue;
                    }
                }
                let ppm = p.chaos.fault_ppm_at(now, config.fault_rate_ppm);
                let (cost, code) = leg(&p.profiles[head.shape], head.fault_draw, ppm);
                if deficit[t] < cost {
                    break;
                }
                deficit[t] -= cost;
                queues[t].pop_front();
                queued -= 1;
                free -= 1;
                busy += 1;
                attempts += 1;
                if head.attempt == 1 {
                    first_attempts += 1;
                }
                flights.insert(
                    next_fid,
                    Flight {
                        att: head,
                        legs: 1,
                        resolved: false,
                    },
                );
                legs.push(Reverse((now + cost, lseq, next_fid, code)));
                lseq += 1;
                if let Some(h) = policy.hedge {
                    hedge_heap.push(Reverse((now.saturating_add(h.delay_cycles), next_fid)));
                }
                next_fid += 1;
            }
        }
    }

    let windows = shed.finish();
    let mut latency = LogHistogram::new();
    let mut totals = TenantCounters::default();
    let mut breaker_opens = 0_u64;
    let tenant_rows: Vec<ResilientTenantOutcome> = tenants
        .into_iter()
        .zip(&breakers)
        .map(|(t, b)| {
            latency.merge(&t.latency);
            totals.completed += t.counters.completed;
            totals.silent += t.counters.silent;
            totals.dropped += t.counters.dropped;
            totals.shed += t.counters.shed;
            totals.breaker_rejected += t.counters.breaker_rejected;
            totals.retries += t.counters.retries;
            totals.hedges += t.counters.hedges;
            totals.slo_attained += t.counters.slo_attained;
            breaker_opens += b.opens;
            ResilientTenantOutcome {
                name: t.spec.name.clone(),
                policy: t.effective_policy().name(),
                weight: t.spec.weight,
                heap: t.heap_stats(),
                counters: t.counters.clone(),
                latency: t.latency.clone(),
                breaker_opens: b.opens,
                breaker_closed_at_end: b.is_closed(),
            }
        })
        .collect();
    let terminal = totals.completed
        + totals.silent
        + errors
        + timeouts
        + totals.dropped
        + rejected
        + totals.shed
        + totals.breaker_rejected;
    ResilientSimResult {
        arrivals,
        attempts,
        first_attempts,
        completed: totals.completed,
        silent: totals.silent,
        errors,
        timeouts,
        dropped: totals.dropped,
        rejected,
        shed: totals.shed,
        breaker_rejected: totals.breaker_rejected,
        retries: totals.retries,
        hedges: totals.hedges,
        breaker_opens,
        unfinished: arrivals.saturating_sub(terminal),
        slo_attained: totals.slo_attained,
        sim_cycles,
        latency,
        windows,
        tenants: tenant_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::TrafficModel;
    use crate::chaos::FaultStorm;
    use crate::tenant::default_tenants;

    fn profile(cycles: u64, fault: Option<(u64, FaultClass)>) -> ShapeProfile {
        ShapeProfile {
            key: "shape".into(),
            abi: Abi::Purecap,
            degraded: false,
            service_cycles: cycles,
            retired: cycles,
            allocs: 2,
            attempts: 1,
            fault: fault.map(|(cycles, class)| crate::profile::FaultProfile { cycles, class }),
        }
    }

    fn config(seed: u64, fault_ppm: u64) -> ServiceConfig {
        ServiceConfig {
            cores: 2,
            queue_per_tenant: 64,
            quantum_cycles: 1_000_000,
            fault_rate_ppm: fault_ppm,
            seed,
            traffic: TrafficModel::Poisson,
        }
    }

    fn run(
        cfg: &ServiceConfig,
        policy: &ResiliencePolicy,
        chaos: &ChaosPlan,
        profiles: &[ShapeProfile],
        specs: &[TenantSpec],
        rps: f64,
        requests: u64,
    ) -> ResilientSimResult {
        simulate_resilient(&ResilientSimParams {
            config: cfg,
            policy,
            chaos,
            profiles,
            specs,
            abi: Abi::Purecap,
            offered_rps: rps,
            clock_ghz: 2.5,
            requests,
        })
    }

    /// The fig. 11 tier: no intervention, no chaos.
    fn naive(
        cfg: &ServiceConfig,
        profiles: &[ShapeProfile],
        specs: &[TenantSpec],
        rps: f64,
        requests: u64,
    ) -> ResilientSimResult {
        let policy = ResiliencePolicy::naive(10_000_000, 12_500_000);
        run(
            cfg,
            &policy,
            &ChaosPlan::none(),
            profiles,
            specs,
            rps,
            requests,
        )
    }

    #[test]
    fn light_load_completes_everything_and_is_deterministic() {
        let profiles = vec![profile(500_000, None), profile(1_500_000, None)];
        let specs = default_tenants(3);
        // Capacity = 2 cores / 1e6 mean cycles at 2.5 GHz = 5000 rps;
        // offer a tenth of it.
        let a = naive(&config(5, 0), &profiles, &specs, 500.0, 2_000);
        let b = naive(&config(5, 0), &profiles, &specs, 500.0, 2_000);
        assert_eq!(a.arrivals, 2_000);
        assert_eq!(a.completed, 2_000);
        assert_eq!(a.dropped + a.rejected + a.errors + a.silent, 0);
        assert_eq!(a.attempts, a.first_attempts);
        assert_eq!(a.timeouts + a.shed + a.breaker_rejected + a.hedges, 0);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        // At a tenth of capacity queueing is rare: p50 stays near the
        // bare service demand.
        assert!(a.latency.quantile(0.5) < 4_000_000);
    }

    #[test]
    fn overload_saturates_and_drops() {
        let profiles = vec![profile(1_000_000, None)];
        let specs = default_tenants(2);
        let light = naive(&config(9, 0), &profiles, &specs, 1_000.0, 3_000);
        let heavy = naive(&config(9, 0), &profiles, &specs, 20_000.0, 3_000);
        let clock = 2.5e9;
        // Below capacity (5000 rps): throughput tracks the offered rate.
        let light_tp = light.throughput_rps(clock);
        assert!(
            (light_tp - 1_000.0).abs() / 1_000.0 < 0.1,
            "light {light_tp}"
        );
        // Far above capacity: throughput plateaus at ~capacity and the
        // bounded queues shed the excess.
        let heavy_tp = heavy.throughput_rps(clock);
        assert!(heavy_tp < 6_000.0, "plateau breached: {heavy_tp}");
        assert!(heavy.dropped > 0, "backpressure must drop");
        // Tail latency explodes across saturation.
        assert!(heavy.latency.quantile(0.999) > light.latency.quantile(0.999));
    }

    #[test]
    fn degraded_shapes_are_rejected_not_served() {
        let mut bad = profile(0, None);
        bad.degraded = true;
        let profiles = vec![profile(1_000_000, None), bad];
        let r = naive(
            &config(3, 0),
            &profiles,
            &default_tenants(1),
            1_000.0,
            1_000,
        );
        assert!(r.rejected > 300, "about half the draws hit the bad shape");
        assert_eq!(r.completed + r.rejected + r.dropped, 1_000);
    }

    #[test]
    fn faulted_requests_split_by_class() {
        // 20% of requests faulted.
        let cfg = config(17, 200_000);
        let specs = default_tenants(2);
        let trapped = [profile(1_000_000, Some((200_000, FaultClass::Trapped)))];
        let r = naive(&cfg, &trapped, &specs, 1_000.0, 2_000);
        assert!(r.errors > 250, "~20% should trap, got {}", r.errors);
        assert_eq!(r.silent, 0);
        assert_eq!(r.completed + r.errors, 2_000);
        // Silent class instead: responses count, corruption is tallied.
        let silent = [profile(1_000_000, Some((1_000_000, FaultClass::Silent)))];
        let r2 = naive(&cfg, &silent, &specs, 1_000.0, 2_000);
        assert!(r2.silent > 250);
        assert_eq!(r2.errors, 0);
    }

    #[test]
    fn replays_are_byte_identical() {
        let profiles = vec![profile(800_000, Some((200_000, FaultClass::Trapped)))];
        let specs = default_tenants(3);
        let cfg = config(11, 50_000);
        let policy = ResiliencePolicy::standard(800_000, 8_000_000, 12_500_000)
            .with_shedding()
            .with_hedge(1_200_000);
        let chaos = ChaosPlan::storm_campaign(11, 20_000_000, 250_000, 3);
        let a = run(&cfg, &policy, &chaos, &profiles, &specs, 900.0, 3_000);
        let b = run(&cfg, &policy, &chaos, &profiles, &specs, 900.0, 3_000);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn retries_rescue_deterministic_traps() {
        // Every request faults (trap) on its first draw only with
        // probability ppm; a retry re-draws, so with retries the
        // trapped population is mostly recovered.
        let profiles = vec![profile(600_000, Some((150_000, FaultClass::Trapped)))];
        let specs = default_tenants(2);
        let cfg = config(21, 300_000); // 30% background trap rate
        let slo = 50_000_000;
        let naive = ResiliencePolicy::naive(slo, 12_500_000);
        let resilient = ResiliencePolicy::standard(600_000, slo, 12_500_000);
        let chaos = ChaosPlan::none();
        let base = run(&cfg, &naive, &chaos, &profiles, &specs, 400.0, 2_000);
        let res = run(&cfg, &resilient, &chaos, &profiles, &specs, 400.0, 2_000);
        assert!(base.errors > 100, "naive must be drowning: {}", base.errors);
        assert!(
            res.completed > base.completed,
            "retries must convert traps into served requests: {} vs {}",
            res.completed,
            base.completed
        );
        assert!(res.errors < base.errors / 2);
        assert!(res.retries > 0);
        assert!(res.amplification() > 1.0);
    }

    #[test]
    fn retry_budget_caps_amplification() {
        // 100% fault rate: every first attempt fails, and with three
        // allowed attempts amplification would hit 3.0 unbudgeted. A
        // 250‰ budget caps it near 1.25 (plus the burst allowance).
        let profiles = vec![profile(500_000, Some((100_000, FaultClass::Trapped)))];
        let specs = default_tenants(2);
        let cfg = config(31, 1_000_000);
        let mut policy = ResiliencePolicy::standard(500_000, 50_000_000, 12_500_000);
        policy.retry = Some(RetryPolicy {
            max_attempts: 3,
            base_backoff_cycles: 100_000,
            max_backoff_cycles: 2_000_000,
            budget_per_mille: 250,
        });
        policy.breaker = None; // isolate the budget from fast-fail
        let r = run(
            &cfg,
            &policy,
            &ChaosPlan::none(),
            &profiles,
            &specs,
            300.0,
            4_000,
        );
        let amp = r.amplification();
        assert!(amp > 1.1, "budget should still grant retries: {amp}");
        assert!(
            amp <= 1.25 + 0.05,
            "amplification must respect the 250‰ budget: {amp}"
        );
    }

    #[test]
    fn silent_corruption_is_invisible_to_every_policy() {
        // The hybrid failure mode: faulted requests serve corrupt
        // bytes. No retries fire, no breaker opens, goodput (correct
        // responses) is NOT recovered.
        let profiles = vec![profile(500_000, Some((500_000, FaultClass::Silent)))];
        let specs = default_tenants(2);
        let cfg = config(41, 400_000);
        let policy = ResiliencePolicy::standard(500_000, 50_000_000, 12_500_000);
        let r = run(
            &cfg,
            &policy,
            &ChaosPlan::none(),
            &profiles,
            &specs,
            300.0,
            2_000,
        );
        assert!(r.silent > 100, "silent corruptions must flow: {}", r.silent);
        assert_eq!(r.retries, 0, "nothing to retry: the 200s look fine");
        assert_eq!(r.breaker_opens, 0);
        assert_eq!(r.errors, 0);
    }

    #[test]
    fn breaker_opens_under_storm_and_recloses_after() {
        // One tenant, total fault storm in the middle of the run: the
        // breaker must trip during the storm, fast-fail arrivals, and
        // re-close via half-open probes once the storm passes.
        let profiles = vec![profile(400_000, Some((100_000, FaultClass::Trapped)))];
        let specs = default_tenants(1);
        let cfg = config(51, 0);
        let mut policy = ResiliencePolicy::standard(400_000, 50_000_000, 12_500_000);
        policy.retry = None; // every trap votes the breaker immediately
        policy.breaker = Some(BreakerPolicy {
            failure_threshold: 5,
            // Several mean inter-arrival times (5M cycles at 500 rps on
            // a 2.5 GHz clock), so an open breaker actually fast-fails
            // arrivals before half-opening.
            open_cycles: 40_000_000,
            half_open_probes: 2,
            close_after: 2,
        });
        // 8000 arrivals × 5M cycles mean inter-arrival ≈ 40G cycles.
        let horizon = 40_000_000_000;
        let chaos = ChaosPlan {
            storms: vec![FaultStorm {
                start: horizon / 4,
                end: horizon / 2,
                fault_ppm: 1_000_000,
            }],
            heap_spikes: vec![],
            outages: vec![],
        };
        let r = run(&cfg, &policy, &chaos, &profiles, &specs, 500.0, 8_000);
        assert!(r.breaker_opens >= 1, "storm must trip the breaker");
        assert!(r.breaker_rejected > 0, "open breaker must fast-fail");
        assert!(
            r.tenants[0].breaker_closed_at_end,
            "breaker must recover after the storm"
        );
        assert!(r.completed > 0);
    }

    #[test]
    fn shedding_drops_lowest_weight_tenants_first() {
        // Three tenants, one heavyweight. Overload past capacity with a
        // tight SLO: the shed controller must shed the weight-1 tenants
        // and never the weight-8 one.
        let profiles = vec![profile(1_000_000, None)];
        let mut specs = default_tenants(3);
        specs[2].weight = 8;
        let cfg = config(61, 0);
        // 2 cores @ 1M cycles/req => capacity 2 req/M-cycles; offered
        // well past it so queues build and p99 blows through the SLO.
        let policy = ResiliencePolicy::naive(2_000_000, 6_000_000).with_shedding();
        let r = run(
            &cfg,
            &policy,
            &ChaosPlan::none(),
            &profiles,
            &specs,
            9_000.0,
            9_000,
        );
        assert!(r.shed > 0, "overload must trigger shedding");
        assert!(r.tenants[0].counters.shed > 0);
        assert!(r.tenants[1].counters.shed > 0);
        assert_eq!(
            r.tenants[2].counters.shed, 0,
            "the heavyweight tenant is never shed"
        );
    }

    #[test]
    fn hedging_launches_and_counts_legs() {
        let profiles = vec![profile(2_000_000, None)];
        let specs = default_tenants(2);
        let cfg = config(71, 0);
        let policy = ResiliencePolicy::naive(50_000_000, 12_500_000).with_hedge(500_000);
        let r = run(
            &cfg,
            &policy,
            &ChaosPlan::none(),
            &profiles,
            &specs,
            100.0,
            1_000,
        );
        assert!(r.hedges > 0, "slow requests must hedge");
        assert_eq!(r.attempts, r.first_attempts + r.hedges);
        assert!(r.amplification() > 1.0);
        // Hedging never loses requests: every arrival terminates.
        assert_eq!(r.unfinished, 0);
        assert_eq!(r.completed, r.arrivals);
    }

    #[test]
    fn deadlines_classify_queue_stalls_as_timeouts() {
        // One core down to zero via outage for the whole run start: not
        // possible (outage needs end), so instead: overload with a hard
        // deadline and no shedding — queued requests expire.
        let profiles = vec![profile(2_000_000, None)];
        let specs = default_tenants(2);
        let cfg = config(81, 0);
        let mut policy = ResiliencePolicy::naive(4_000_000, 12_500_000);
        policy.deadline_cycles = Some(4_000_000);
        let r = run(
            &cfg,
            &policy,
            &ChaosPlan::none(),
            &profiles,
            &specs,
            5_000.0,
            3_000,
        );
        assert!(r.timeouts > 0, "overload past deadline must time out");
        assert_eq!(
            r.arrivals,
            r.completed + r.silent + r.errors + r.timeouts + r.dropped + r.rejected,
            "every arrival reaches exactly one terminal state"
        );
    }

    #[test]
    fn backoff_is_jittered_bounded_and_deterministic() {
        let mut rng = SimRng::new(7);
        let mut prev = 1_000;
        for _ in 0..64 {
            let b = decorrelated_backoff(&mut rng, 1_000, prev, 50_000);
            assert!(b >= 1_000, "floor: {b}");
            assert!(b <= 50_000, "cap: {b}");
            prev = b;
        }
        // Degenerate inputs stay sane.
        assert_eq!(decorrelated_backoff(&mut SimRng::new(1), 0, 0, 0), 1);
        let mut a = SimRng::new(9);
        let mut b = SimRng::new(9);
        assert_eq!(
            decorrelated_backoff(&mut a, 500, 2_000, 10_000),
            decorrelated_backoff(&mut b, 500, 2_000, 10_000)
        );
    }

    #[test]
    fn windows_record_the_recovery_series_even_when_not_shedding() {
        let profiles = vec![profile(500_000, None)];
        let specs = default_tenants(2);
        let cfg = config(91, 0);
        let policy = ResiliencePolicy::naive(10_000_000, 2_000_000);
        let r = run(
            &cfg,
            &policy,
            &ChaosPlan::none(),
            &profiles,
            &specs,
            400.0,
            1_000,
        );
        assert!(!r.windows.is_empty());
        assert!(r.windows.iter().any(|w| w.samples > 0));
        // Windows are strictly ordered by end cycle.
        assert!(r
            .windows
            .windows(2)
            .all(|w| w[0].end_cycle < w[1].end_cycle));
        assert_eq!(r.shed, 0);
    }
}
