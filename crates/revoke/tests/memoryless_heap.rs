//! A heap run without memory (`free(None, ..)`) against the same heap
//! run over a fresh `TaggedMemory` that nothing else writes: seeded
//! malloc/free churn must give the same results, the same `HeapStats`
//! and the same sweep outcomes under every discipline. Only the
//! memory-backed heap paints a bitmap, and its sweeps find no stored
//! capability to revoke.

use cheri_mem::{AllocError, TaggedMemory};
use cheri_revoke::{RevokingHeap, StrategyKind, SweepOutcome};
use proptest::prelude::*;

const LO: u64 = 0x4010_0000;
/// The bitmap window, which ends where the arena starts.
const BM: u64 = 0x4008_0000;

fn kind_strategy() -> impl Strategy<Value = StrategyKind> {
    prop_oneof![
        Just(StrategyKind::Classic),
        Just(StrategyKind::CapabilityPadded),
        (0u64..300_000).prop_map(StrategyKind::swept_bytes),
        ((0u64..65_536), (1usize..300)).prop_map(|(quarantine_bytes, quarantine_blocks)| {
            StrategyKind::QuarantineSwept {
                quarantine_bytes,
                quarantine_blocks,
            }
        }),
    ]
}

/// One xorshift64 draw.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_heap_without_memory_frees_like_one_over_untouched_memory(
        kind in kind_strategy(),
        seed in 1u64..u64::MAX,
        // Small arenas run out under quarantine pressure, large ones not.
        arena_pages in prop_oneof![16u64..256, Just(1 << 16)],
        live_cap in 1usize..96,
        steps in 1usize..1500,
    ) {
        let hi = LO + arena_pages * 4096;
        let mut bare = RevokingHeap::new(LO, hi, BM, kind);
        let mut backed = RevokingHeap::new(LO, hi, BM, kind);
        let mut mem = TaggedMemory::new();
        let mut live = std::collections::VecDeque::new();
        let mut freed = Vec::new();
        let mut x = seed;
        for step in 0..steps {
            let r = next(&mut x);
            let addr = match r % 16 {
                // A double free of a recent block, then a wild free.
                0 if !freed.is_empty() => freed[(r >> 8) as usize % freed.len()],
                1 => LO + (r >> 8) % (hi - LO) / 16 * 16 + 8,
                2..=6 if !live.is_empty() => live.pop_front().expect("not empty"),
                _ => {
                    // Sizes 16 B .. 64 KiB, biased small, like tenant churn.
                    let size = 16u64 << ((r >> 4) % 13);
                    let size = size + (r >> 20) % (size / 2 + 1);
                    let got = bare.malloc(size);
                    prop_assert_eq!(got, backed.malloc(size), "step {} malloc({})", step, size);
                    if let Ok(a) = got {
                        live.push_back(a.addr);
                    }
                    if live.len() <= live_cap {
                        continue;
                    }
                    live.pop_front().expect("over the cap")
                }
            };
            let got = bare.free(None, addr);
            let want = backed.free(Some(&mut mem), addr);
            let got: Result<Option<SweepOutcome>, AllocError> = got.map(|o| o.sweep);
            let want: Result<Option<SweepOutcome>, AllocError> = want.map(|o| o.sweep);
            prop_assert_eq!(&got, &want, "step {} free({:#x})", step, addr);
            if got.is_ok() {
                freed.push(addr);
            }
            prop_assert_eq!(bare.stats(), backed.stats(), "step {}", step);
            prop_assert_eq!(bare.live_count(), backed.live_count());
            prop_assert_eq!(bare.quarantined_blocks(), backed.quarantined_blocks());
        }
        // The comparison is not vacuous: the backed heap did paint.
        if kind.maintains_bitmap() && !freed.is_empty() {
            prop_assert!(mem.pages_touched() > 0, "the backed heap painted its bitmap");
        }
    }
}
