//! The strategy-driven heap: size classes, free lists and a bump arena
//! under a [`StrategyKind`] discipline, with a revocation epoch engine
//! attached.

use crate::epoch::{RevocationEpoch, SweepOutcome};
use crate::strategy::{EpochAction, StrategyKind};
use cheri_mem::{size_class, AllocError, Allocation, HeapStats, PageHasher, TaggedMemory};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// What a [`RevokingHeap::free`] did beyond releasing the block.
#[derive(Debug, Default)]
pub struct FreeOutcome {
    /// The tag sweep an epoch trigger performed, if any — the caller
    /// replays its accesses through the timing model.
    pub sweep: Option<SweepOutcome>,
}

/// The live blocks, base address → reserved size: an open-addressing
/// table with linear probing on the multiplicative [`PageHasher`] and
/// backward-shift deletion. Without tombstones, malloc/free churn never
/// lengthens probes or forces a rehash.
///
/// A small table stays at most a quarter full, so a churning tenant
/// heap's few dozen blocks rarely probe past one occupied slot. Beyond
/// [`SPARSE_SLOTS`] it fills to three quarters: an interpreter heap can
/// hold a hundred thousand blocks, and there the table's size, not its
/// probe length, is what the run pays for (it sets the suite's peak
/// RSS).
#[derive(Default)]
struct LiveTable {
    /// `(base, padded)` pairs; a [`VACANT`] base marks a free slot.
    slots: Vec<(u64, u64)>,
    len: usize,
}

/// No block starts here: block bases are 16-byte aligned.
const VACANT: u64 = u64::MAX;

/// Slots up to which [`LiveTable`] stays at most a quarter full.
const SPARSE_SLOTS: usize = 4096;

impl LiveTable {
    fn home(&self, addr: u64) -> usize {
        let mut h = PageHasher::default();
        h.write_u64(addr);
        h.finish() as usize & (self.slots.len() - 1)
    }

    /// Records a block; `addr` must not be live already.
    fn insert(&mut self, addr: u64, padded: u64) {
        let cap = self.slots.len();
        let max_len = if cap <= SPARSE_SLOTS {
            cap / 4
        } else {
            cap / 4 * 3
        };
        if self.len == max_len {
            let slots = vec![(VACANT, 0); (2 * cap).max(16)];
            for (a, p) in std::mem::replace(&mut self.slots, slots) {
                if a != VACANT {
                    self.place(a, p);
                }
            }
        }
        self.place(addr, padded);
        self.len += 1;
    }

    fn place(&mut self, addr: u64, padded: u64) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(addr);
        while self.slots[i].0 != VACANT {
            i = (i + 1) & mask;
        }
        self.slots[i] = (addr, padded);
    }

    /// Forgets the block at `addr`, returning its reserved size.
    fn remove(&mut self, addr: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut hole = self.home(addr);
        while self.slots[hole].0 != addr {
            if self.slots[hole].0 == VACANT {
                return None;
            }
            hole = (hole + 1) & mask;
        }
        let padded = self.slots[hole].1;
        // Close the gap: shift back every later member of the probe run
        // whose home slot does not lie between the hole and itself.
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let a = self.slots[j].0;
            if a == VACANT {
                break;
            }
            if j.wrapping_sub(self.home(a)) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole].0 = VACANT;
        self.len -= 1;
        Some(padded)
    }
}

/// Largest padded size whose free list lives in the dense,
/// size-indexed table; larger blocks keep theirs in a map.
const DENSE_FREE_MAX: u64 = 8192;

/// A size-class heap allocator over a fixed arena whose padding,
/// quarantine, and revocation behaviour is decided by a
/// [`StrategyKind`].
///
/// Requests round up to [`size_class`]; the discipline pads the class to
/// its reserved size. Freed blocks are recycled through per-reserved-size
/// free lists (last freed, first reused), so address reuse behaves like a
/// real `malloc`, which the cache model downstream depends on; the
/// quarantining disciplines park frees first, and the attached
/// [`RevocationEpoch`] engine keeps the revocation bitmap and runs the
/// sweeps.
pub struct RevokingHeap {
    kind: StrategyKind,
    start: u64,
    end: u64,
    bump: u64,
    /// Free lists of reserved sizes up to [`DENSE_FREE_MAX`], indexed by
    /// `padded / 16` (size classes, and so reserved sizes, are multiples
    /// of 16) and grown on demand.
    small_free: Vec<Vec<u64>>,
    /// Free lists of larger reserved sizes.
    large_free: HashMap<u64, Vec<u64>, BuildHasherDefault<PageHasher>>,
    live: LiveTable,
    quarantine: VecDeque<(u64, u64)>,
    /// The quarantine's ranges handed to a tag sweep, kept to reuse the
    /// buffer across epochs.
    sweep_ranges: Vec<(u64, u64)>,
    epoch: RevocationEpoch,
    stats: HeapStats,
}

impl core::fmt::Debug for RevokingHeap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RevokingHeap")
            .field("strategy", &self.kind.name())
            .field("arena", &(self.start..self.end))
            .field("live", &self.live.len)
            .field("quarantined", &self.quarantine.len())
            .finish()
    }
}

impl RevokingHeap {
    /// Creates a heap over the arena `[start, end)` with the revocation
    /// bitmap window at `bitmap_base` (outside the arena; painted only
    /// in memory handed to [`free`](RevokingHeap::free)).
    ///
    /// # Panics
    ///
    /// Panics if `start` is not 16-byte aligned or `end <= start`.
    pub fn new(start: u64, end: u64, bitmap_base: u64, kind: StrategyKind) -> RevokingHeap {
        assert!(
            start.is_multiple_of(16),
            "arena start must be 16-byte aligned"
        );
        assert!(end > start, "empty arena");
        RevokingHeap {
            kind,
            start,
            end,
            bump: start,
            small_free: Vec::new(),
            large_free: HashMap::default(),
            live: LiveTable::default(),
            quarantine: VecDeque::new(),
            sweep_ranges: Vec::new(),
            epoch: RevocationEpoch::new(bitmap_base, start),
            stats: HeapStats::default(),
        }
    }

    /// The discipline selector this heap was built with.
    pub fn kind(&self) -> StrategyKind {
        self.kind
    }

    /// Cumulative statistics (including quarantine occupancy and sweep
    /// counters).
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Number of currently live allocations.
    pub fn live_count(&self) -> usize {
        self.live.len
    }

    /// Number of blocks currently in quarantine.
    pub fn quarantined_blocks(&self) -> usize {
        self.quarantine.len()
    }

    /// The epoch engine (bitmap geometry).
    pub fn epoch_engine(&self) -> &RevocationEpoch {
        &self.epoch
    }

    /// Allocates `size` bytes under the configured discipline.
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] when the arena is exhausted, or when
    /// the request's size class or padded layout cannot fit the arena at
    /// all (sizes near `u64::MAX` included).
    pub fn malloc(&mut self, size: u64) -> Result<Allocation, AllocError> {
        let oom = AllocError::OutOfMemory { requested: size };
        let arena = self.end - self.start;
        let usable = size_class(size)
            .filter(|&usable| usable <= arena)
            .ok_or(oom)?;
        let (padded, align) = self.kind.layout(usable);
        if padded < usable || padded > arena {
            return Err(oom);
        }
        let addr = match self.free_list(padded).and_then(Vec::pop) {
            Some(a) => a,
            None => {
                let base = self.bump.checked_add(align - 1).ok_or(oom)? & !(align - 1);
                let next = base.checked_add(padded).ok_or(oom)?;
                if next > self.end {
                    return Err(oom);
                }
                self.bump = next;
                self.stats.arena_used = self.bump - self.start;
                base
            }
        };

        let alloc = Allocation {
            addr,
            usable,
            padded,
        };
        self.live.insert(addr, padded);
        self.stats.total_allocs += 1;
        self.stats.requested_bytes += size;
        self.stats.live_bytes += padded;
        self.stats.padding_bytes += padded - usable;
        self.stats.peak_live_bytes = self.stats.peak_live_bytes.max(self.stats.live_bytes);
        Ok(alloc)
    }

    /// Releases a block; may trigger a revocation epoch per the
    /// discipline's thresholds.
    ///
    /// `mem` is the memory the heap's blocks live in: the revocation
    /// bitmap is painted there and an epoch's tag sweep walks it. A heap
    /// whose blocks hold no data runs with `None`: it paints no bitmap,
    /// and its epochs sweep nothing (memory that stores nothing holds no
    /// capabilities), while quarantine, epochs, recycling and
    /// [`HeapStats`] proceed exactly as with memory.
    ///
    /// # Errors
    ///
    /// [`AllocError::DoubleFreeQuarantined`] for a double free of a block
    /// still in quarantine, [`AllocError::InvalidFree`] for a wild free.
    pub fn free(
        &mut self,
        mut mem: Option<&mut TaggedMemory>,
        addr: u64,
    ) -> Result<FreeOutcome, AllocError> {
        let padded = match self.live.remove(addr) {
            Some(padded) => padded,
            None if self.quarantine.iter().any(|&(a, _)| a == addr) => {
                return Err(AllocError::DoubleFreeQuarantined { addr });
            }
            None => return Err(AllocError::InvalidFree { addr }),
        };
        self.stats.total_frees += 1;
        self.stats.live_bytes -= padded;

        if !self.kind.quarantines() {
            self.push_free(padded, addr);
            return Ok(FreeOutcome::default());
        }

        self.quarantine.push_back((addr, padded));
        self.stats.quarantine_bytes += padded;
        self.stats.quarantine_blocks += 1;
        self.stats.quarantine_bytes_hwm = self
            .stats
            .quarantine_bytes_hwm
            .max(self.stats.quarantine_bytes);
        self.stats.quarantine_blocks_hwm = self
            .stats
            .quarantine_blocks_hwm
            .max(self.stats.quarantine_blocks);
        if let (true, Some(mem)) = (self.kind.maintains_bitmap(), mem.as_deref_mut()) {
            self.epoch.mark_range(mem, addr, padded, true);
        }

        let action = self
            .kind
            .epoch_after_free(self.stats.quarantine_bytes, self.quarantine.len());
        match action {
            None => Ok(FreeOutcome::default()),
            Some(EpochAction::SilentDrain { count }) => {
                self.stats.revocation_epochs += 1;
                for _ in 0..count {
                    if let Some((a, sz)) = self.quarantine.pop_front() {
                        self.recycle(mem.as_deref_mut(), a, sz);
                    }
                }
                Ok(FreeOutcome::default())
            }
            Some(EpochAction::TagSweep) => {
                self.stats.revocation_epochs += 1;
                let mut sweep = SweepOutcome::default();
                if let Some(mem) = mem.as_deref_mut() {
                    self.sweep_ranges.clear();
                    self.sweep_ranges.extend(self.quarantine.iter().copied());
                    sweep = self
                        .epoch
                        .sweep(mem, &mut self.sweep_ranges, self.start, self.bump);
                }
                while let Some((a, sz)) = self.quarantine.pop_front() {
                    sweep.bytes_recycled += sz;
                    sweep.blocks_recycled += 1;
                    self.recycle(mem.as_deref_mut(), a, sz);
                }
                self.stats.sweep_granules_visited += sweep.granules_visited;
                self.stats.sweep_tags_cleared += sweep.tags_cleared;
                Ok(FreeOutcome { sweep: Some(sweep) })
            }
        }
    }

    fn recycle(&mut self, mem: Option<&mut TaggedMemory>, addr: u64, size: u64) {
        self.stats.quarantine_bytes -= size;
        self.stats.quarantine_blocks -= 1;
        if let (true, Some(mem)) = (self.kind.maintains_bitmap(), mem) {
            self.epoch.mark_range(mem, addr, size, false);
        }
        self.push_free(size, addr);
    }

    /// The free list of blocks reserving `padded` bytes, if one exists.
    fn free_list(&mut self, padded: u64) -> Option<&mut Vec<u64>> {
        if padded <= DENSE_FREE_MAX {
            self.small_free.get_mut((padded / 16) as usize)
        } else {
            self.large_free.get_mut(&padded)
        }
    }

    /// Puts the block at `addr`, reserving `padded` bytes, on its free
    /// list.
    fn push_free(&mut self, padded: u64, addr: u64) {
        if padded <= DENSE_FREE_MAX {
            let class = (padded / 16) as usize;
            if class >= self.small_free.len() {
                self.small_free.resize_with(class + 1, Vec::new);
            }
            self.small_free[class].push(addr);
        } else {
            self.large_free.entry(padded).or_default().push(addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_cap::Capability;

    const LO: u64 = 0x4010_0000;
    const HI: u64 = 0x5000_0000;
    const BM: u64 = 0x4008_0000;

    fn heap(kind: StrategyKind) -> RevokingHeap {
        RevokingHeap::new(LO, HI, BM, kind)
    }

    #[test]
    fn classic_never_pads() {
        let mut h = heap(StrategyKind::Classic);
        let a = h.malloc(40_000).unwrap(); // page-rounded class
        assert_eq!(a.usable, 40_960);
        assert_eq!(a.usable, a.padded);
        assert_eq!(h.stats().padding_bytes, 0);
    }

    #[test]
    fn padded_allocations_take_exact_bounds() {
        let mut h = heap(StrategyKind::CapabilityPadded);
        let root = Capability::root_rw();
        for size in [1u64, 16, 100, 4097, 70_000, 1 << 20, (1 << 20) + 1] {
            let a = h.malloc(size).unwrap();
            assert!(a.padded >= size);
            let c = root.set_bounds_exact(a.addr, a.padded);
            assert!(c.is_ok(), "size={size} alloc={a:?}: {c:?}");
        }
    }

    #[test]
    fn capability_padding_only_for_large_blocks() {
        let mut h = heap(StrategyKind::CapabilityPadded);
        let small = h.malloc(100).unwrap();
        assert_eq!(small.padded, small.usable);
        // Below 4 MiB the representability granule (<= 2 KiB) divides the
        // page-rounded size class, so no padding appears.
        let medium = h.malloc((1 << 20) + 1).unwrap();
        assert_eq!(medium.padded, medium.usable);
        // Above 4 MiB the granule exceeds a page and padding kicks in.
        let large = h.malloc((4 << 20) + 1).unwrap();
        assert!(large.padded > large.usable);
        assert!(h.stats().padding_bytes > 0);
    }

    #[test]
    fn padded_free_quarantines_before_reuse() {
        let mut h = heap(StrategyKind::CapabilityPadded);
        let mut mem = TaggedMemory::new();
        let a = h.malloc(64).unwrap();
        h.free(Some(&mut mem), a.addr).unwrap();
        let b = h.malloc(64).unwrap();
        assert_ne!(
            a.addr, b.addr,
            "temporal safety must quarantine freed blocks"
        );
        // After enough frees a silent drain recycles quarantined blocks.
        let mut addrs = Vec::new();
        for _ in 0..600 {
            let x = h.malloc(64).unwrap();
            addrs.push(x.addr);
            h.free(Some(&mut mem), x.addr).unwrap();
        }
        let recycled = addrs.windows(2).any(|w| w[0] == w[1]) || addrs.contains(&a.addr);
        assert!(recycled, "quarantine must eventually drain");
    }

    #[test]
    fn double_and_wild_frees_rejected() {
        let mut mem = TaggedMemory::new();
        let mut h = heap(StrategyKind::CapabilityPadded);
        let a = h.malloc(64).unwrap();
        h.free(Some(&mut mem), a.addr).unwrap();
        // A double free of a *quarantined* block is diagnosed as such,
        // not as a generic wild free.
        assert_eq!(
            h.free(Some(&mut mem), a.addr).unwrap_err(),
            AllocError::DoubleFreeQuarantined { addr: a.addr }
        );
        assert_eq!(
            h.free(Some(&mut mem), 0xdea0).unwrap_err(),
            AllocError::InvalidFree { addr: 0xdea0 }
        );
        // Classic recycles immediately, so its double free is a plain
        // invalid free (the block is back on the free list).
        let mut c = heap(StrategyKind::Classic);
        let b = c.malloc(64).unwrap();
        c.free(Some(&mut mem), b.addr).unwrap();
        assert_eq!(
            c.free(Some(&mut mem), b.addr).unwrap_err(),
            AllocError::InvalidFree { addr: b.addr }
        );
    }

    #[test]
    fn quarantine_occupancy_tracked() {
        let mut h = heap(StrategyKind::CapabilityPadded);
        let mut mem = TaggedMemory::new();
        let a = h.malloc(64).unwrap();
        let b = h.malloc(64).unwrap();
        h.free(Some(&mut mem), a.addr).unwrap();
        h.free(Some(&mut mem), b.addr).unwrap();
        let s = h.stats();
        assert_eq!(s.quarantine_blocks, 2);
        assert_eq!(s.quarantine_bytes, a.padded + b.padded);
        assert_eq!(s.quarantine_blocks_hwm, 2);
        assert_eq!(s.revocation_epochs, 0);
        // Push past the epoch threshold and check the drain is accounted.
        for _ in 0..600 {
            let x = h.malloc(64).unwrap();
            h.free(Some(&mut mem), x.addr).unwrap();
        }
        let s = h.stats();
        assert!(s.revocation_epochs > 0, "epochs must trigger: {s:?}");
        assert!(s.quarantine_blocks <= crate::PADDED_QUARANTINE_BLOCKS as u64 + 1);
        assert!(s.quarantine_blocks_hwm > s.quarantine_blocks / 2);
        assert_eq!(mem.pages_touched(), 0, "padded discipline keeps no bitmap");
    }

    #[test]
    fn out_of_memory() {
        let mut h = RevokingHeap::new(0x1000, 0x2000, BM, StrategyKind::Classic);
        assert!(h.malloc(2048).is_ok());
        assert_eq!(
            h.malloc(8192),
            Err(AllocError::OutOfMemory { requested: 8192 })
        );
    }

    #[test]
    fn huge_requests_are_out_of_memory_on_every_discipline() {
        for kind in [
            StrategyKind::Classic,
            StrategyKind::CapabilityPadded,
            StrategyKind::swept_bytes(4096),
        ] {
            let mut h = heap(kind);
            let before = h.stats();
            for size in [u64::MAX, u64::MAX - 4094, 1 << 63, HI - LO + 1] {
                assert_eq!(
                    h.malloc(size),
                    Err(AllocError::OutOfMemory { requested: size }),
                    "{kind:?} size {size:#x}"
                );
            }
            assert_eq!(h.stats(), before, "a refused request changes nothing");
            // The arena is still whole: an exact fit succeeds.
            let fit = h.malloc(HI - LO).unwrap();
            assert_eq!(fit.addr, LO, "{kind:?}");
        }
    }

    #[test]
    fn stats_track_live_and_peak() {
        let mut h = heap(StrategyKind::CapabilityPadded);
        let mut mem = TaggedMemory::new();
        let a = h.malloc(1000).unwrap();
        let b = h.malloc(2000).unwrap();
        let peak = h.stats().live_bytes;
        h.free(Some(&mut mem), a.addr).unwrap();
        assert!(h.stats().live_bytes < peak);
        assert_eq!(h.stats().peak_live_bytes, peak);
        h.free(Some(&mut mem), b.addr).unwrap();
        assert_eq!(h.stats().live_bytes, 0);
        assert_eq!(h.live_count(), 0);
        assert_eq!(h.stats().total_allocs, 2);
        assert_eq!(h.stats().total_frees, 2);
    }

    #[test]
    fn padded_uses_more_arena_than_classic() {
        // The footprint-growth mechanism: identical allocation sequences
        // consume more address space under the capability discipline.
        let mut classic = RevokingHeap::new(0x1000_0000, 0x8000_0000, BM, StrategyKind::Classic);
        let mut padded =
            RevokingHeap::new(0x1000_0000, 0x8000_0000, BM, StrategyKind::CapabilityPadded);
        for i in 0..200u64 {
            let sz = 5000 + i * 977; // odd sizes above the exact threshold
            classic.malloc(sz).unwrap();
            padded.malloc(sz).unwrap();
        }
        assert!(padded.stats().arena_used > classic.stats().arena_used);
    }

    #[test]
    fn free_lists_are_per_reserved_size_and_lifo() {
        // Dense-table sizes and map sizes alike.
        for size in [16u64, 8192, 8193, 1 << 20] {
            let mut h = heap(StrategyKind::Classic);
            let mut mem = TaggedMemory::new();
            let a = h.malloc(size).unwrap();
            let b = h.malloc(size).unwrap();
            let other = h.malloc(size + 4096).unwrap();
            h.free(Some(&mut mem), a.addr).unwrap();
            h.free(Some(&mut mem), b.addr).unwrap();
            h.free(Some(&mut mem), other.addr).unwrap();
            assert_eq!(h.malloc(size).unwrap().addr, b.addr, "last freed first");
            assert_eq!(h.malloc(size).unwrap().addr, a.addr);
            let used = h.stats().arena_used;
            assert_ne!(h.malloc(size).unwrap().addr, other.addr, "{size}");
            assert!(h.stats().arena_used > used, "{size}: fresh block");
        }
    }

    #[test]
    fn live_table_matches_a_map_through_growth_and_churn() {
        // Both fill regimes (sparse below SPARSE_SLOTS, half full above)
        // and long probe runs from clustered keys.
        let mut table = LiveTable::default();
        let mut model = std::collections::HashMap::new();
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for step in 0..200_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Grow to ~12 K live blocks, then churn around that size.
            let addr = LO + (x % 40_000) * 16;
            if step < 60_000 || x & 1 == 0 {
                if let std::collections::hash_map::Entry::Vacant(e) = model.entry(addr) {
                    e.insert(step);
                    table.insert(addr, step);
                }
            } else {
                assert_eq!(table.remove(addr), model.remove(&addr), "step {step}");
            }
            assert_eq!(table.len, model.len());
        }
        assert!(table.slots.len() > SPARSE_SLOTS, "reached the dense regime");
        for (addr, padded) in model {
            assert_eq!(table.remove(addr), Some(padded));
        }
        assert_eq!(table.len, 0);
        assert!(table.slots.iter().all(|&(a, _)| a == VACANT));
        assert_eq!(table.remove(LO), None);
    }

    #[test]
    fn classic_recycles_immediately_without_traffic() {
        let mut h = RevokingHeap::new(LO, HI, BM, StrategyKind::Classic);
        let mut mem = TaggedMemory::new();
        let a = h.malloc(64).unwrap();
        let out = h.free(Some(&mut mem), a.addr).unwrap();
        assert!(out.sweep.is_none());
        let b = h.malloc(64).unwrap();
        assert_eq!(a.addr, b.addr);
        assert_eq!(h.stats().revocation_epochs, 0);
        assert_eq!(h.stats().quarantine_blocks_hwm, 0);
    }

    #[test]
    fn swept_epoch_triggers_on_byte_threshold_and_recycles() {
        let mut h = RevokingHeap::new(LO, HI, BM, StrategyKind::swept_bytes(4096));
        let mut mem = TaggedMemory::new();
        let mut swept = None;
        for _ in 0..200 {
            let a = h.malloc(256).unwrap();
            mem.write_u64(a.addr, 1).unwrap(); // touch the heap page
            if let Some(s) = h.free(Some(&mut mem), a.addr).unwrap().sweep {
                swept = Some(s);
                break;
            }
        }
        let s = swept.expect("byte threshold must trigger an epoch");
        assert!(s.blocks_recycled > 0);
        assert!(s.pages_visited > 0);
        assert!(h.stats().revocation_epochs == 1);
        assert_eq!(h.stats().quarantine_blocks, 0, "sweep drains everything");
        // Freed blocks are reusable: the next malloc comes off the free
        // lists without growing the arena.
        let used = h.stats().arena_used;
        h.malloc(256).unwrap();
        assert_eq!(h.stats().arena_used, used, "post-sweep reuse, not bump");
    }

    #[test]
    fn sweep_revokes_stale_heap_capabilities() {
        let mut h = RevokingHeap::new(LO, HI, BM, StrategyKind::swept_bytes(1024));
        let mut mem = TaggedMemory::new();
        let a = h.malloc(64).unwrap();
        let b = h.malloc(64).unwrap();
        // Store a capability to block `a` inside block `b` (a dangling
        // pointer once `a` is freed).
        let cap_a = Capability::root_rw()
            .set_bounds_exact(a.addr, a.padded)
            .unwrap();
        mem.store_cap(b.addr, cap_a.to_compressed(), true).unwrap();
        h.free(Some(&mut mem), a.addr).unwrap();
        // Flood frees until the epoch fires.
        let mut sweep = None;
        for _ in 0..100 {
            let x = h.malloc(512).unwrap();
            if let Some(s) = h.free(Some(&mut mem), x.addr).unwrap().sweep {
                sweep = Some(s);
                break;
            }
        }
        let s = sweep.expect("epoch fires");
        assert!(s.tags_cleared >= 1);
        assert!(!mem.peek_cap(b.addr).unwrap().1, "dangling cap revoked");
    }
}
