//! Property tests for the revocation subsystem: allocator padding
//! cross-checked against `cheri-cap` representability, allocator safety
//! invariants under arbitrary malloc/free traces, and tag-sweep
//! exactness (revoked granules lose their tags, nothing else does).

use cheri_cap::{
    representable_alignment, representable_alignment_mask, round_representable_length, Capability,
};
use cheri_mem::{size_class, TaggedMemory, CAP_GRANULE};
use cheri_revoke::{RevocationEpoch, RevokingHeap, StrategyKind};
use proptest::prelude::*;
use std::collections::HashSet;

const LO: u64 = 0x4010_0000;
const HI: u64 = 0x6000_0000;
const BM: u64 = 0x4008_0000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every capability-discipline allocation is padded exactly per the
    /// compressed-bounds contract: `padded` is the representable rounding
    /// of the size class, the base honours the CRAM alignment mask, and
    /// exact bounds always encode.
    #[test]
    fn padding_matches_cap_representability(
        sizes in proptest::collection::vec(1u64..(8 << 20), 1..40),
        swept in any::<bool>(),
    ) {
        let kind = if swept {
            StrategyKind::swept_bytes(1 << 30) // never fires; layout only
        } else {
            StrategyKind::CapabilityPadded
        };
        let mut h = RevokingHeap::new(LO, HI, BM, kind);
        let root = Capability::root_rw();
        for &size in &sizes {
            let a = h.malloc(size).unwrap();
            let usable = size_class(size).unwrap();
            prop_assert_eq!(a.usable, usable);
            prop_assert_eq!(a.padded, round_representable_length(usable));
            let mask = representable_alignment_mask(a.padded);
            prop_assert_eq!(a.addr & !mask, 0, "base obeys the CRAM mask");
            prop_assert_eq!(
                a.addr % representable_alignment(a.padded).max(16), 0,
                "base obeys the alignment in bytes"
            );
            let cap = root.set_bounds_exact(a.addr, a.padded);
            prop_assert!(cap.is_ok(), "size={} alloc={:?}: {:?}", size, a, cap);
        }
    }

    /// Allocator safety under arbitrary malloc/free traces, classic and
    /// padded: no live block overlap, bounds always representable
    /// (padded), and no immediate temporal reuse (padded).
    #[test]
    fn allocator_trace_invariants(
        trace in proptest::collection::vec((any::<bool>(), 1u64..20000), 1..200),
        padded in any::<bool>(),
    ) {
        let kind = if padded { StrategyKind::CapabilityPadded } else { StrategyKind::Classic };
        let mut h = RevokingHeap::new(0x1000_0000, 0x4000_0000, BM, kind);
        let mut mem = TaggedMemory::new();
        let mut live: Vec<(u64, u64)> = Vec::new();
        let root = Capability::root_rw();
        for (do_free, size) in trace {
            if do_free && !live.is_empty() {
                let (addr, _) = live.swap_remove(0);
                h.free(&mut mem, addr).unwrap();
                // Double free must be rejected.
                prop_assert!(h.free(&mut mem, addr).is_err());
                if padded {
                    // Temporal safety: the very next allocation of the
                    // same size must not reuse this address.
                    let again = h.malloc(8).unwrap();
                    prop_assert_ne!(again.addr, addr);
                    h.free(&mut mem, again.addr).unwrap();
                }
            } else {
                let a = h.malloc(size).unwrap();
                prop_assert!(a.padded >= size);
                if padded {
                    prop_assert!(
                        root.set_bounds_exact(a.addr, a.padded).is_ok(),
                        "bounds must be exactly representable: {:?}", a
                    );
                }
                // No overlap with any live block.
                for (b, len) in &live {
                    let disjoint = a.addr + a.padded <= *b || b + len <= a.addr;
                    prop_assert!(disjoint, "overlap: {:?} vs ({:#x}, {})", a, b, len);
                }
                live.push((a.addr, a.padded));
            }
        }
        // Bookkeeping agrees.
        prop_assert_eq!(h.live_count(), live.len());
        let expect_live: u64 = live.iter().map(|(_, l)| l).sum();
        prop_assert_eq!(h.stats().live_bytes, expect_live);
    }

    /// A tag sweep clears exactly the tags of capabilities whose base
    /// lies in a revoked range — no survivor among stale capabilities,
    /// no collateral damage among live ones, and data bits untouched.
    #[test]
    fn sweep_clears_exactly_revoked_granules(
        slots in proptest::collection::vec(
            ((0u64..2048), (0u64..64), any::<bool>()),
            1..80
        ),
        ranges in proptest::collection::vec(0u64..60, 1..6),
    ) {
        let mut mem = TaggedMemory::new();
        let root = Capability::root_rw();
        // Revoked ranges: disjoint 1 KiB blocks inside the arena.
        let blocks: HashSet<u64> = ranges.iter().map(|r| LO + r * 1024).collect();
        let ranges: Vec<(u64, u64)> = blocks.iter().map(|&b| (b, 1024)).collect();

        // Store capabilities at distinct granules; each points at some
        // 1 KiB block, tagged or not.
        let mut stored: Vec<(u64, u64, bool)> = Vec::new();
        let mut used = HashSet::new();
        for &(slot, target, tagged) in &slots {
            let addr = LO + slot * CAP_GRANULE;
            if !used.insert(addr) {
                continue;
            }
            let base = LO + target * 1024;
            let cap = root.set_bounds_exact(base, 512).unwrap();
            mem.store_cap(addr, cap.to_compressed(), tagged).unwrap();
            stored.push((addr, base, tagged));
        }

        let eng = RevocationEpoch::new(BM, LO);
        let out = eng.sweep(&mut mem, &mut ranges.clone(), LO, LO + (1 << 21));

        let mut expect_cleared = 0u64;
        for &(addr, base, tagged) in &stored {
            let (cc, tag) = mem.peek_cap(addr).unwrap();
            let should_revoke = tagged && blocks.contains(&base);
            if should_revoke {
                expect_cleared += 1;
            }
            prop_assert_eq!(tag, tagged && !should_revoke,
                "granule {:#x} (base {:#x})", addr, base);
            // Sweeps only clear tags; the capability image is untouched.
            let img = root.set_bounds_exact(base, 512).unwrap().to_compressed();
            prop_assert_eq!(cc, img);
        }
        prop_assert_eq!(out.tags_cleared, expect_cleared);
        prop_assert!(out.granules_visited >= out.tags_cleared);
    }
}
