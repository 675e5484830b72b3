//! The tenant model: per-tenant quarantine policy, heap churn, and
//! accumulated service statistics.
//!
//! Every simulated tenant owns a [`RevokingHeap`] under its own
//! [`StrategyKind`] quarantine discipline. Tenants store nothing in
//! their blocks, so the heap runs without memory: no bitmap (its base
//! is a dummy 0), nothing to sweep. Each completed request drives a
//! bounded, seeded malloc/free churn through that heap, scaled to what
//! the request's program allocated, so quarantine occupancy, epochs and
//! the per-tenant quarantine high-water mark emerge from the real
//! allocator machinery rather than a closed-form model: the "quarantine
//! memory amplification under churn" axis of *Picking a CHERI
//! Allocator* recast per tenant.

use crate::arrival::SimRng;
use cheri_isa::Abi;
use cheri_revoke::{RevokingHeap, StrategyKind};
use morello_obs::LogHistogram;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Tenant heap arena geometry (per tenant; tenants are disjoint
/// simulations so every tenant gets the same virtual window).
const HEAP_LO: u64 = 0x4010_0000;
const HEAP_HI: u64 = 0x5000_0000;

/// Live blocks a tenant keeps between requests before the churn starts
/// freeing the oldest — the knob that turns allocation volume into
/// free-side quarantine pressure.
const LIVE_CAP: usize = 64;

/// Churn allocations per completed request are clamped to this bound so
/// a pathological shape cannot make the simulation quadratic.
const CHURN_CAP: u64 = 24;

/// Static description of one tenant.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Display name (`tenant-0`, …).
    pub name: String,
    /// Quarantine discipline for the tenant's heap. Non-capability ABIs
    /// run [`StrategyKind::Classic`] regardless, mirroring the
    /// interpreter's per-ABI allocator selection.
    pub policy: StrategyKind,
    /// Deficit-round-robin weight (quantum multiplier, ≥ 1).
    pub weight: u32,
    /// Share of offered traffic (normalised across tenants).
    pub traffic_share: f64,
}

/// The default tenant population: equal traffic shares and weights,
/// quarantine policies cycling through the allocator lab's disciplines
/// (padded, small swept quarantine, large swept quarantine).
pub fn default_tenants(n: usize) -> Vec<TenantSpec> {
    (0..n)
        .map(|i| TenantSpec {
            name: format!("tenant-{i}"),
            policy: match i % 3 {
                0 => StrategyKind::CapabilityPadded,
                1 => StrategyKind::swept_bytes(32 * 1024),
                _ => StrategyKind::swept_bytes(256 * 1024),
            },
            weight: 1,
            traffic_share: 1.0,
        })
        .collect()
}

/// Per-tenant service counters, reported per load point.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantCounters {
    /// Requests admitted and completed.
    pub completed: u64,
    /// Requests refused at admission (tenant queue full — backpressure).
    pub dropped: u64,
    /// Requests refused at dispatch because their shape was degraded
    /// (profiling watchdog quarantined it).
    pub rejected: u64,
    /// Faulted requests that trapped or crashed (the service returned
    /// an error).
    pub errors: u64,
    /// Faulted requests served with silently corrupted results (the
    /// hybrid failure mode).
    pub silent: u64,
    /// Churn allocations driven through the tenant heap.
    pub churn_allocs: u64,
    /// Churn frees driven through the tenant heap.
    pub churn_frees: u64,
    /// Allocation failures under quarantine pressure (the heap emptied
    /// half its live set to recover).
    pub heap_pressure: u64,
    /// Requests that exhausted their deadline (queued too long or
    /// finished past it) — resilient policies only.
    #[serde(default)]
    pub timeouts: u64,
    /// Retry attempts this tenant's failed requests were granted from
    /// its retry budget — resilient policies only.
    #[serde(default)]
    pub retries: u64,
    /// Fresh arrivals dropped by SLO-aware load shedding — resilient
    /// policies only.
    #[serde(default)]
    pub shed: u64,
    /// Arrivals fast-rejected by an open circuit breaker — resilient
    /// policies only.
    #[serde(default)]
    pub breaker_rejected: u64,
    /// Hedge legs launched for this tenant's slow requests — resilient
    /// policies only.
    #[serde(default)]
    pub hedges: u64,
    /// Served requests whose end-to-end sojourn met the SLO — resilient
    /// policies only.
    #[serde(default)]
    pub slo_attained: u64,
}

/// One tenant's live simulation state.
pub struct TenantState {
    /// The spec this state was built from.
    pub spec: TenantSpec,
    /// The tenant's heap, under its own quarantine policy.
    heap: RevokingHeap,
    live: VecDeque<u64>,
    rng: SimRng,
    /// Sojourn-time histogram (simulated cycles).
    pub latency: LogHistogram,
    /// Service counters.
    pub counters: TenantCounters,
}

impl TenantState {
    /// Builds the tenant's heap for one simulation run. The effective
    /// policy is the spec's for capability ABIs and
    /// [`StrategyKind::Classic`] for hybrid, exactly as the interpreter
    /// selects allocators per ABI.
    pub fn new(spec: &TenantSpec, abi: Abi, seed: u64) -> TenantState {
        let policy = match abi {
            Abi::Hybrid => StrategyKind::Classic,
            Abi::Purecap | Abi::Benchmark => spec.policy,
        };
        TenantState {
            spec: spec.clone(),
            heap: RevokingHeap::new(HEAP_LO, HEAP_HI, 0, policy),
            live: VecDeque::new(),
            rng: SimRng::new(seed),
            latency: LogHistogram::new(),
            counters: TenantCounters::default(),
        }
    }

    /// The effective quarantine policy of the tenant's heap.
    pub fn effective_policy(&self) -> StrategyKind {
        self.heap.kind()
    }

    /// Heap statistics (quarantine occupancy/high-water, epochs, sweep
    /// counters) accumulated over the run so far.
    pub fn heap_stats(&self) -> cheri_mem::HeapStats {
        self.heap.stats()
    }

    /// Drives one completed request's allocation churn through the
    /// tenant heap: `shape_allocs`-scaled mallocs (clamped to a bound),
    /// then frees of the oldest live blocks beyond the live-set cap.
    /// Free-side quarantine pressure is what fires revocation epochs.
    pub fn churn(&mut self, shape_allocs: u64) {
        for _ in 0..shape_allocs.clamp(1, CHURN_CAP) {
            // Size classes 16 B .. 8 KiB, biased small like real churn.
            let size = 16_u64 << self.rng.below(6);
            let size = size + self.rng.below(size / 2 + 1);
            match self.heap.malloc(size) {
                Ok(a) => {
                    self.counters.churn_allocs += 1;
                    self.live.push_back(a.addr);
                }
                Err(_) => {
                    // Quarantine pressure exhausted the arena: shed half
                    // the live set and carry on — the request is served,
                    // the pressure event is counted.
                    self.counters.heap_pressure += 1;
                    for _ in 0..(self.live.len() / 2).max(1) {
                        self.free_oldest();
                    }
                }
            }
        }
        while self.live.len() > LIVE_CAP {
            self.free_oldest();
        }
    }

    /// Frees the oldest live churn block, if there is one.
    fn free_oldest(&mut self) {
        if let Some(addr) = self.live.pop_front() {
            if self.heap.free(None, addr).is_ok() {
                self.counters.churn_frees += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_tenants_run_classic_regardless_of_policy() {
        let spec = &default_tenants(3)[1];
        assert_eq!(spec.policy, StrategyKind::swept_bytes(32 * 1024));
        let h = TenantState::new(spec, Abi::Hybrid, 1);
        assert_eq!(h.effective_policy(), StrategyKind::Classic);
        let p = TenantState::new(spec, Abi::Purecap, 1);
        assert_eq!(p.effective_policy(), spec.policy);
    }

    #[test]
    fn churn_fills_quarantine_and_fires_epochs_under_swept_policy() {
        let spec = TenantSpec {
            name: "t".into(),
            policy: StrategyKind::swept_bytes(32 * 1024),
            weight: 1,
            traffic_share: 1.0,
        };
        let mut t = TenantState::new(&spec, Abi::Purecap, 9);
        for _ in 0..200 {
            t.churn(16);
        }
        let stats = t.heap_stats();
        assert!(stats.quarantine_bytes_hwm > 0, "quarantine must fill");
        assert!(stats.revocation_epochs > 0, "epochs must fire under churn");
        assert_eq!(stats.sweep_granules_visited, 0, "nothing to sweep");
        assert!(t.counters.churn_allocs > t.counters.heap_pressure);
        // The classic (hybrid) tenant pays nothing.
        let mut h = TenantState::new(&spec, Abi::Hybrid, 9);
        for _ in 0..200 {
            h.churn(16);
        }
        assert_eq!(h.heap_stats().quarantine_bytes_hwm, 0);
        assert_eq!(h.heap_stats().revocation_epochs, 0);
    }

    #[test]
    fn churn_is_deterministic_for_a_seed() {
        let spec = &default_tenants(1)[0];
        let run = || {
            let mut t = TenantState::new(spec, Abi::Purecap, 77);
            for i in 0..100 {
                t.churn(1 + i % 20);
            }
            (t.heap_stats(), t.counters.clone())
        };
        assert_eq!(run(), run());
    }
}
