//! The naive serving loop, kept as the reference implementation that
//! [`morello_serve::simulate_resilient`] is tested against.
//!
//! Open-loop arrivals, bounded per-tenant admission queues (a full queue
//! drops the arrival), and deficit round robin over a fixed core pool,
//! with faulted requests routed by class (trap/crash → error, silent →
//! corrupted response) — and nothing else: no deadlines, retries,
//! breakers, shedding, hedging or chaos. `simulate_resilient` under
//! `ResiliencePolicy::naive` and `ChaosPlan::none()` is fig. 11's event
//! loop and must reproduce this one field for field; `parity.rs` checks
//! that over random configurations. Neither the library nor any binary
//! compiles this file.

use cheri_isa::Abi;
use cheri_mem::HeapStats;
use morello_obs::LogHistogram;
use morello_serve::{
    ArrivalGen, FaultClass, Request, ServiceConfig, ShapeProfile, SimRng, TenantCounters,
    TenantSpec, TenantState,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One tenant's end-of-run outcome; each field means what the
/// same-named field of `ResilientTenantOutcome` means.
pub struct TenantOutcome {
    pub name: String,
    pub policy: &'static str,
    pub counters: TenantCounters,
    pub latency: LogHistogram,
    pub heap: HeapStats,
}

/// The outcome of one simulation cell; each field means what the
/// same-named field of `ResilientSimResult` means.
pub struct SimResult {
    pub arrivals: u64,
    pub completed: u64,
    pub dropped: u64,
    pub rejected: u64,
    pub errors: u64,
    pub silent: u64,
    pub latency: LogHistogram,
    pub sim_cycles: u64,
    pub tenants: Vec<TenantOutcome>,
}

/// A request in service on some core.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct InFlight {
    finish: u64,
    seq: u64,
    tenant: usize,
    shape: usize,
    arrival: u64,
    faulted: bool,
}

/// Runs one simulation cell: `requests` arrivals at `offered_rps`
/// against the profiled shapes, under `abi`'s tenant heaps.
///
/// # Panics
///
/// Panics when `profiles` is empty or every shape is degraded (the
/// sweep driver filters such ABIs out before simulating).
pub fn simulate(
    config: &ServiceConfig,
    profiles: &[ShapeProfile],
    specs: &[TenantSpec],
    abi: Abi,
    offered_rps: f64,
    clock_ghz: f64,
    requests: u64,
) -> SimResult {
    assert!(
        profiles.iter().any(|p| !p.degraded),
        "no runnable shapes to serve"
    );
    let shares: Vec<f64> = specs.iter().map(|s| s.traffic_share).collect();
    let mut gen = ArrivalGen::new(
        config.seed,
        config.traffic,
        offered_rps,
        clock_ghz,
        &shares,
        profiles.len(),
    );
    let mut tenants: Vec<TenantState> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            TenantState::new(s, abi, SimRng::new(config.seed ^ (i as u64 + 1)).next_u64())
        })
        .collect();
    let mut queues: Vec<VecDeque<Request>> = vec![VecDeque::new(); specs.len()];
    let mut deficit: Vec<u64> = vec![0; specs.len()];
    let mut inflight: BinaryHeap<Reverse<InFlight>> = BinaryHeap::new();
    let mut cursor = 0_usize;
    let mut free_cores = config.cores;
    let mut queued = 0_usize;
    let mut seq = 0_u64;
    let mut arrivals = 0_u64;
    let mut sim_cycles = 0_u64;
    let fault_p = config.fault_rate_ppm as f64 / 1e6;

    let mut next_arrival = (arrivals < requests).then(|| gen.next_request());

    loop {
        let t_arr = next_arrival.as_ref().map(|r| r.arrival);
        let t_done = inflight.peek().map(|Reverse(f)| f.finish);
        // Completions win ties so a core freed at cycle t can serve an
        // arrival at cycle t in the same dispatch pass.
        let now = match (t_arr, t_done) {
            (None, None) => break,
            (Some(a), None) => a,
            (None, Some(d)) => d,
            (Some(a), Some(d)) => a.min(d),
        };
        sim_cycles = sim_cycles.max(now);

        while let Some(Reverse(top)) = inflight.peek() {
            if top.finish > now {
                break;
            }
            let Reverse(f) = inflight.pop().expect("peeked");
            free_cores += 1;
            let tenant = &mut tenants[f.tenant];
            let profile = &profiles[f.shape];
            let served = if f.faulted {
                match profile.fault.map(|fp| fp.class) {
                    Some(FaultClass::Silent) => {
                        tenant.counters.silent += 1;
                        true
                    }
                    Some(FaultClass::Benign) | None => {
                        tenant.counters.completed += 1;
                        true
                    }
                    Some(FaultClass::Trapped) | Some(FaultClass::Crashed) => {
                        tenant.counters.errors += 1;
                        false
                    }
                }
            } else {
                tenant.counters.completed += 1;
                true
            };
            if served {
                tenant.latency.record(f.finish - f.arrival);
                tenant.churn(profile.allocs);
            }
        }

        while let Some(req) = next_arrival.take() {
            if req.arrival > now {
                next_arrival = Some(req);
                break;
            }
            arrivals += 1;
            if arrivals < requests {
                next_arrival = Some(gen.next_request());
            }
            let tenant = &mut tenants[req.tenant];
            if profiles[req.shape].degraded {
                tenant.counters.rejected += 1;
            } else if queues[req.tenant].len() >= config.queue_per_tenant {
                tenant.counters.dropped += 1;
            } else {
                queues[req.tenant].push_back(req);
                queued += 1;
            }
        }

        // DRR dispatch: visit tenant queues round-robin from the cursor,
        // crediting deficit and serving heads the credit covers.
        while free_cores > 0 && queued > 0 {
            let t = cursor;
            cursor = (cursor + 1) % queues.len();
            if queues[t].is_empty() {
                deficit[t] = 0;
                continue;
            }
            deficit[t] = deficit[t].saturating_add(
                config
                    .quantum_cycles
                    .saturating_mul(u64::from(specs[t].weight.max(1))),
            );
            while free_cores > 0 {
                let Some(head) = queues[t].front() else {
                    deficit[t] = 0;
                    break;
                };
                let faulted = head.fault_draw < fault_p && profiles[head.shape].fault.is_some();
                let cost = if faulted {
                    profiles[head.shape].fault.expect("checked").cycles
                } else {
                    profiles[head.shape].service_cycles
                }
                .max(1);
                if deficit[t] < cost {
                    break;
                }
                deficit[t] -= cost;
                let req = queues[t].pop_front().expect("front checked");
                queued -= 1;
                free_cores -= 1;
                let start = now.max(req.arrival);
                inflight.push(Reverse(InFlight {
                    finish: start + cost,
                    seq,
                    tenant: req.tenant,
                    shape: req.shape,
                    arrival: req.arrival,
                    faulted,
                }));
                seq += 1;
            }
        }
    }

    let mut latency = LogHistogram::new();
    let mut totals = TenantCounters::default();
    let tenants: Vec<TenantOutcome> = tenants
        .into_iter()
        .map(|t| {
            latency.merge(&t.latency);
            totals.completed += t.counters.completed;
            totals.dropped += t.counters.dropped;
            totals.rejected += t.counters.rejected;
            totals.errors += t.counters.errors;
            totals.silent += t.counters.silent;
            TenantOutcome {
                name: t.spec.name.clone(),
                policy: t.effective_policy().name(),
                heap: t.heap_stats(),
                counters: t.counters.clone(),
                latency: t.latency.clone(),
            }
        })
        .collect();
    SimResult {
        arrivals,
        completed: totals.completed,
        dropped: totals.dropped,
        rejected: totals.rejected,
        errors: totals.errors,
        silent: totals.silent,
        latency,
        sim_cycles,
        tenants,
    }
}
