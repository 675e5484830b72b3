//! Property tests for tagged memory: tag hygiene under arbitrary
//! interleavings of data and capability traffic. The allocator's trace
//! invariants live with the allocator, in `cheri-revoke`.

use cheri_cap::Capability;
use cheri_mem::{TaggedMemory, CAP_GRANULE};
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Data written is data read back, across arbitrary offsets/lengths
    /// (including page-straddling), against a mirror model.
    #[test]
    fn read_write_matches_mirror(
        writes in proptest::collection::vec(
            ((0u64..(1 << 16)), proptest::collection::vec(any::<u8>(), 1..64)),
            1..64
        )
    ) {
        let mut mem = TaggedMemory::new();
        let mut mirror: HashMap<u64, u8> = HashMap::new();
        for (addr, bytes) in &writes {
            mem.write_bytes(*addr, bytes).unwrap();
            for (i, b) in bytes.iter().enumerate() {
                mirror.insert(addr + i as u64, *b);
            }
        }
        for (addr, bytes) in &writes {
            let mut buf = vec![0u8; bytes.len()];
            mem.read_bytes(*addr, &mut buf).unwrap();
            for (i, b) in buf.iter().enumerate() {
                prop_assert_eq!(*b, *mirror.get(&(addr + i as u64)).unwrap());
            }
        }
    }

    /// Tag hygiene: a capability survives round-trips unless plain data
    /// overlapped its granule, in which case the tag is gone — never the
    /// other way around.
    #[test]
    fn tag_cleared_iff_overlapped(
        cap_at in (0u64..256).prop_map(|s| s * CAP_GRANULE),
        data_at in 0u64..(256 * CAP_GRANULE),
        data_len in 1u64..48,
    ) {
        let mut mem = TaggedMemory::new();
        let cap = Capability::root_rw().set_bounds_exact(0x8000, 128).unwrap();
        mem.store_cap(cap_at, cap.to_compressed(), true).unwrap();
        let data = vec![0xA5u8; data_len as usize];
        mem.write_bytes(data_at, &data).unwrap();
        let (_, tag) = mem.load_cap(cap_at).unwrap();
        let overlap = data_at < cap_at + CAP_GRANULE && data_at + data_len > cap_at;
        prop_assert_eq!(tag, !overlap, "cap at {:#x}, data [{:#x}; {})", cap_at, data_at, data_len);
    }

    /// Capability stores only ever set the tag of their own granule.
    #[test]
    fn cap_store_is_granule_local(slots in proptest::collection::vec(0u64..64, 1..16)) {
        let mut mem = TaggedMemory::new();
        let cap = Capability::root_rw().set_bounds_exact(0x1000, 64).unwrap();
        for s in &slots {
            mem.store_cap(s * CAP_GRANULE, cap.to_compressed(), true).unwrap();
        }
        for g in 0..64u64 {
            let expect = slots.contains(&g);
            prop_assert_eq!(mem.peek_tag(g * CAP_GRANULE), expect);
        }
    }
}
