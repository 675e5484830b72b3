//! Micro-benchmarks for the revocation subsystem: sweep throughput
//! (granules visited per second at small and medium quarantine sizes)
//! and the per-request tenant heap churn the serving sweeps drive.

use cheri_cap::Capability;
use cheri_isa::Abi;
use cheri_mem::{TaggedMemory, CAP_GRANULE};
use cheri_revoke::{RevocationEpoch, StrategyKind};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use morello_serve::{TenantSpec, TenantState};

const LO: u64 = 0x4010_0000;
const BM: u64 = 0x4008_0000;

/// Builds an arena of `blocks` 1 KiB blocks, each holding data and a
/// tagged capability pointing back at the block; every second block is
/// marked revoked (a half-stale quarantine, the sweep's working case).
fn prepare(blocks: u64) -> (TaggedMemory, RevocationEpoch, Vec<(u64, u64)>) {
    let mut mem = TaggedMemory::new();
    let root = Capability::root_rw();
    let mut ranges = Vec::new();
    for i in 0..blocks {
        let base = LO + i * 1024;
        mem.write_u64(base, i).unwrap();
        let cap = root.set_bounds_exact(base, 512).unwrap();
        mem.store_cap(base + CAP_GRANULE, cap.to_compressed(), true)
            .unwrap();
        if i % 2 == 0 {
            ranges.push((base, 1024));
        }
    }
    (mem, RevocationEpoch::new(BM, LO), ranges)
}

fn bench_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("revocation_sweep");
    for (label, blocks) in [("small_64KiB", 64u64), ("medium_1MiB", 1024)] {
        let span_hi = LO + blocks * 1024;
        let (mut mem, eng, mut ranges) = prepare(blocks);
        // Prime once so every iteration measures the steady state: the
        // stale tags are already cleared, but the sweep still walks the
        // full arena (every granule of every touched page).
        let granules = eng
            .sweep(&mut mem, &mut ranges, LO, span_hi)
            .granules_visited;
        g.throughput(Throughput::Elements(granules));
        g.bench_function(label, |b| {
            b.iter(|| eng.sweep(&mut mem, &mut ranges, LO, span_hi))
        });
    }
    g.finish();
}

/// Churn allocations per simulated request: about what the serving
/// sweeps' request shapes allocate on average (the churn clamps each
/// request to 1..=24).
const CHURN_ALLOCS: u64 = 17;

/// Requests churned before timing, so the quarantine, free lists and
/// arena are in their steady state.
const WARM_REQUESTS: u64 = 5_000;

/// One request's allocation churn through a purecap tenant's heap, per
/// quarantine policy: the host cost `fig11_service` and
/// `fig12_resilience` pay for every completed request.
fn bench_tenant_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("tenant_churn");
    g.throughput(Throughput::Elements(CHURN_ALLOCS));
    for (label, policy) in [
        ("classic", StrategyKind::Classic),
        ("padded", StrategyKind::CapabilityPadded),
        ("swept_32KiB", StrategyKind::swept_bytes(32 << 10)),
        ("swept_256KiB", StrategyKind::swept_bytes(256 << 10)),
    ] {
        let spec = TenantSpec {
            name: label.into(),
            policy,
            weight: 1,
            traffic_share: 1.0,
        };
        let mut tenant = TenantState::new(&spec, Abi::Purecap, 1);
        for _ in 0..WARM_REQUESTS {
            tenant.churn(CHURN_ALLOCS);
        }
        g.bench_function(label, |b| b.iter(|| tenant.churn(CHURN_ALLOCS)));
    }
    g.finish();
}

criterion_group!(benches, bench_sweep, bench_tenant_churn);
criterion_main!(benches);
