//! The heap oracle: random malloc/free/store sequences driven through
//! [`RevokingHeap`] and through a verbatim copy of the heap it replaced
//! (SipHash maps, a boxed strategy object, a per-granule bitmap loop and
//! a sweep that clones and sorts the quarantine). After every step the
//! two must agree on every result and error, the heap statistics, every
//! sweep outcome (its access list included), and the backing
//! [`TaggedMemory`]'s content and statistics.

use cheri_cap::Capability;
use cheri_mem::{AllocError, Allocation, TaggedMemory, CAP_GRANULE, PAGE_SIZE};
use cheri_revoke::{RevokingHeap, StrategyKind, SweepOutcome};
use proptest::prelude::*;

/// The previous heap, copied unchanged apart from the module paths:
/// `StrategyKind::strategy` and `HeapAllocator::size_class` became free
/// functions here.
#[allow(dead_code, clippy::all)]
mod oracle {
    use cheri_cap::{representable_alignment, round_representable_length, Capability};
    use cheri_mem::{AllocError, Allocation, HeapStats, TaggedMemory, CAP_GRANULE, PAGE_SIZE};
    use cheri_revoke::{EpochAction, MemAccess, StrategyKind, SweepOutcome, BITMAP_BYTES};
    use std::collections::{HashMap, VecDeque};

    // ---- strategy.rs ----
    /// An allocation discipline: how blocks are laid out, whether frees are
    /// quarantined, and when a revocation epoch fires.
    ///
    /// Strategies are stateless policy objects; all bookkeeping lives in
    /// [`RevokingHeap`](crate::RevokingHeap).
    pub trait AllocStrategy {
        /// Short human-readable discipline name.
        fn name(&self) -> &'static str;

        /// Reserved size and base alignment for a size-class-rounded request.
        /// Returns `(padded, align)` with `padded >= usable` and
        /// `align >= 16`.
        fn layout(&self, usable: u64) -> (u64, u64);

        /// Whether frees are parked in the temporal-safety quarantine (false
        /// means immediate free-list reuse).
        fn quarantines(&self) -> bool;

        /// Whether the per-granule revocation bitmap in `TaggedMemory` is
        /// maintained (only sweeping strategies consult it).
        fn maintains_bitmap(&self) -> bool {
            false
        }

        /// Epoch decision, evaluated after every quarantined free against the
        /// current quarantine occupancy.
        fn epoch_after_free(
            &self,
            quarantine_bytes: u64,
            quarantine_blocks: usize,
        ) -> Option<EpochAction>;
    }

    /// Capability-style layout shared by the padded disciplines: the
    /// size-class-rounded block is grown to a representable length and its
    /// base aligned per the compressed-bounds contract, so
    /// `set_bounds_exact(addr, padded)` always succeeds.
    fn capability_layout(usable: u64) -> (u64, u64) {
        let padded = round_representable_length(usable);
        let align = representable_alignment(padded).max(16);
        (padded, align)
    }

    /// Classic `malloc`: 16-byte alignment, no representability padding,
    /// immediate free-list reuse, no revocation. The hybrid-ABI discipline —
    /// structurally zero sweep cost.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct Classic;

    impl AllocStrategy for Classic {
        fn name(&self) -> &'static str {
            "classic"
        }

        fn layout(&self, usable: u64) -> (u64, u64) {
            (usable, 16)
        }

        fn quarantines(&self) -> bool {
            false
        }

        fn epoch_after_free(&self, _bytes: u64, _blocks: usize) -> Option<EpochAction> {
            None
        }
    }

    /// Blocks a [`CapabilityPadded`] quarantine holds before silently
    /// recycling half of them (the legacy fixed-size quarantine).
    pub const PADDED_QUARANTINE_BLOCKS: usize = 256;

    /// CHERI-aware padding plus the legacy fixed-size quarantine: freed
    /// blocks park until the quarantine exceeds
    /// [`PADDED_QUARANTINE_BLOCKS`], then half drain to the free lists with
    /// no sweep. This is the pre-`cheri-revoke` purecap behaviour, refactored
    /// onto the strategy trait.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct CapabilityPadded;

    impl AllocStrategy for CapabilityPadded {
        fn name(&self) -> &'static str {
            "capability-padded"
        }

        fn layout(&self, usable: u64) -> (u64, u64) {
            capability_layout(usable)
        }

        fn quarantines(&self) -> bool {
            true
        }

        fn epoch_after_free(&self, _bytes: u64, blocks: usize) -> Option<EpochAction> {
            (blocks > PADDED_QUARANTINE_BLOCKS).then_some(EpochAction::SilentDrain {
                count: PADDED_QUARANTINE_BLOCKS / 2,
            })
        }
    }

    /// CHERI-aware padding plus a swept quarantine: freed blocks park until
    /// either threshold is exceeded, then a revocation epoch tag-sweeps the
    /// heap and recycles the whole quarantine. Larger thresholds mean fewer,
    /// larger sweeps — the amortisation knob `fig8_revocation` characterises.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct QuarantineSwept {
        /// Epoch fires once quarantined bytes exceed this.
        pub quarantine_bytes: u64,
        /// Epoch fires once quarantined blocks exceed this.
        pub quarantine_blocks: usize,
    }

    impl AllocStrategy for QuarantineSwept {
        fn name(&self) -> &'static str {
            "quarantine-swept"
        }

        fn layout(&self, usable: u64) -> (u64, u64) {
            capability_layout(usable)
        }

        fn quarantines(&self) -> bool {
            true
        }

        fn maintains_bitmap(&self) -> bool {
            true
        }

        fn epoch_after_free(&self, bytes: u64, blocks: usize) -> Option<EpochAction> {
            (bytes > self.quarantine_bytes || blocks > self.quarantine_blocks)
                .then_some(EpochAction::TagSweep)
        }
    }

    // ---- epoch.rs ----
    /// The epoch engine: owns the bitmap geometry and performs sweeps.
    ///
    /// The per-granule revocation bitmap lives *in* [`TaggedMemory`] at
    /// `bitmap_base` (a [`BITMAP_BYTES`]-sized window below the arena), so
    /// bitmap maintenance has a real memory footprint, exactly like
    /// CheriBSD's shadow bitmap.
    #[derive(Clone, Copy, Debug)]
    pub struct RevocationEpoch {
        bitmap_base: u64,
        arena_lo: u64,
    }

    impl RevocationEpoch {
        /// Creates an engine for an arena starting at `arena_lo`, with the
        /// bitmap window at `bitmap_base`.
        pub fn new(bitmap_base: u64, arena_lo: u64) -> RevocationEpoch {
            RevocationEpoch {
                bitmap_base,
                arena_lo,
            }
        }

        /// Address of the bitmap word holding the bit for granule `addr`.
        pub fn bitmap_word(&self, addr: u64) -> u64 {
            let bit = (addr.wrapping_sub(self.arena_lo)) / CAP_GRANULE;
            let byte = (bit / 8) % BITMAP_BYTES;
            self.bitmap_base + (byte & !7)
        }

        fn bitmap_bit(&self, addr: u64) -> (u64, u32) {
            let bit = (addr.wrapping_sub(self.arena_lo)) / CAP_GRANULE;
            let byte = (bit / 8) % BITMAP_BYTES;
            (
                self.bitmap_base + (byte & !7),
                ((byte & 7) * 8 + bit % 8) as u32,
            )
        }

        /// Marks (`set = true`) or clears every granule of `[addr,
        /// addr + len)` in the bitmap, one functional word access per touched
        /// bitmap word.
        pub fn mark_range(&self, mem: &mut TaggedMemory, addr: u64, len: u64, set: bool) {
            let mut g = addr;
            let end = addr.saturating_add(len);
            let mut pending: Option<(u64, u64)> = None;
            while g < end {
                let (word, bit) = self.bitmap_bit(g);
                match pending {
                    Some((w, ref mut bits)) if w == word => *bits |= 1 << bit,
                    _ => {
                        if let Some((w, bits)) = pending.take() {
                            Self::apply_word(mem, w, bits, set);
                        }
                        pending = Some((word, 1u64 << bit));
                    }
                }
                g += CAP_GRANULE;
            }
            if let Some((w, bits)) = pending {
                Self::apply_word(mem, w, bits, set);
            }
        }

        fn apply_word(mem: &mut TaggedMemory, word: u64, bits: u64, set: bool) {
            let cur = mem.read_u64(word).expect("bitmap window in range");
            let new = if set { cur | bits } else { cur & !bits };
            mem.write_u64(word, new).expect("bitmap window in range");
        }

        /// Performs a load-side tag sweep of `[span_lo, span_hi)`: probes the
        /// tags of every touched heap page, loads each tagged capability, and
        /// clears the tag of every capability whose *base* points into one of
        /// the quarantined `ranges` (`(base, len)` pairs, any order).
        ///
        /// The returned [`SweepOutcome`] carries the traffic to replay
        /// through the timing model; the tag clears have already been applied
        /// to `mem`.
        pub fn sweep(
            &self,
            mem: &mut TaggedMemory,
            ranges: &[(u64, u64)],
            span_lo: u64,
            span_hi: u64,
        ) -> SweepOutcome {
            let mut sorted: Vec<(u64, u64)> = ranges.to_vec();
            sorted.sort_unstable();
            let revoked = |addr: u64| -> bool {
                match sorted.binary_search_by(|&(base, _)| base.cmp(&addr)) {
                    Ok(_) => true,
                    Err(0) => false,
                    Err(i) => {
                        let (base, len) = sorted[i - 1];
                        addr < base + len
                    }
                }
            };

            let mut out = SweepOutcome::default();
            for page in mem.touched_pages_in(span_lo, span_hi) {
                out.pages_visited += 1;
                out.granules_visited += PAGE_SIZE / CAP_GRANULE;
                // One bitmap-word load per page: is anything here quarantined?
                out.accesses.push(MemAccess {
                    addr: self.bitmap_word(page),
                    size: 8,
                    write: false,
                    is_cap: false,
                });
                // CHERIvoke-style load-side scan: one capability-width load
                // per granule (the tag rides along with the load), with a
                // tag-clearing store for every stale capability found. This
                // per-granule traffic is what a larger quarantine amortises.
                let tagged = mem.tagged_granules_in(page, page + PAGE_SIZE);
                let mut next_tagged = 0;
                let mut granule = page;
                while granule < page + PAGE_SIZE {
                    let is_tagged = tagged.get(next_tagged) == Some(&granule);
                    out.accesses.push(MemAccess {
                        addr: granule,
                        size: 16,
                        write: false,
                        is_cap: is_tagged,
                    });
                    if is_tagged {
                        next_tagged += 1;
                        let (cc, tag) = mem.peek_cap(granule).expect("tagged page is touched");
                        let cap = Capability::from_compressed(cc, tag);
                        if revoked(cap.base()) {
                            mem.clear_tag(granule);
                            out.tags_cleared += 1;
                            out.accesses.push(MemAccess {
                                addr: granule,
                                size: 16,
                                write: true,
                                is_cap: false,
                            });
                        }
                    }
                    granule += CAP_GRANULE;
                }
            }
            out
        }
    }

    // ---- heap.rs ----
    /// What a [`RevokingHeap::free`] did beyond releasing the block.
    #[derive(Debug, Default)]
    pub struct FreeOutcome {
        /// The tag sweep an epoch trigger performed, if any — the caller
        /// replays its accesses through the timing model.
        pub sweep: Option<SweepOutcome>,
    }

    /// A size-class heap allocator over a fixed arena whose padding,
    /// quarantine, and revocation behaviour is decided by an
    /// [`AllocStrategy`].
    ///
    /// Mechanically this mirrors [`cheri_mem::HeapAllocator`] (same size
    /// classes, free lists, and bump arena, so the
    /// [`StrategyKind::CapabilityPadded`] discipline reproduces it
    /// address-for-address); the difference is the policy object and the
    /// attached [`RevocationEpoch`] engine.
    pub struct RevokingHeap {
        strategy: Box<dyn AllocStrategy + Send + Sync>,
        kind: StrategyKind,
        start: u64,
        end: u64,
        bump: u64,
        free_lists: HashMap<u64, Vec<u64>>,
        live: HashMap<u64, Allocation>,
        quarantine: VecDeque<(u64, u64)>,
        epoch: RevocationEpoch,
        stats: HeapStats,
    }

    impl core::fmt::Debug for RevokingHeap {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.debug_struct("RevokingHeap")
                .field("strategy", &self.strategy.name())
                .field("arena", &(self.start..self.end))
                .field("live", &self.live.len())
                .field("quarantined", &self.quarantine.len())
                .finish()
        }
    }

    impl RevokingHeap {
        /// Creates a heap over the arena `[start, end)` with the revocation
        /// bitmap window at `bitmap_base` (outside the arena).
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
                strategy: strategy(kind),
                kind,
                start,
                end,
                bump: start,
                free_lists: HashMap::new(),
                live: HashMap::new(),
                quarantine: VecDeque::new(),
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
            self.live.len()
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
        /// [`AllocError::OutOfMemory`] when the arena is exhausted.
        pub fn malloc(&mut self, size: u64) -> Result<Allocation, AllocError> {
            let usable = size_class(size);
            let (padded, align) = self.strategy.layout(usable);
            let addr = self.free_lists.get_mut(&padded).and_then(|list| list.pop());
            let addr = match addr {
                Some(a) => a,
                None => {
                    let base = (self.bump + align - 1) & !(align - 1);
                    let next = base
                        .checked_add(padded)
                        .ok_or(AllocError::OutOfMemory { requested: size })?;
                    if next > self.end {
                        return Err(AllocError::OutOfMemory { requested: size });
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
            self.live.insert(addr, alloc);
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
        /// # Errors
        ///
        /// [`AllocError::DoubleFreeQuarantined`] for a double free of a block
        /// still in quarantine, [`AllocError::InvalidFree`] for a wild free.
        pub fn free(
            &mut self,
            mem: &mut TaggedMemory,
            addr: u64,
        ) -> Result<FreeOutcome, AllocError> {
            let alloc = match self.live.remove(&addr) {
                Some(a) => a,
                None if self.quarantine.iter().any(|&(a, _)| a == addr) => {
                    return Err(AllocError::DoubleFreeQuarantined { addr });
                }
                None => return Err(AllocError::InvalidFree { addr }),
            };
            self.stats.total_frees += 1;
            self.stats.live_bytes -= alloc.padded;

            if !self.strategy.quarantines() {
                self.free_lists.entry(alloc.padded).or_default().push(addr);
                return Ok(FreeOutcome::default());
            }

            self.quarantine.push_back((addr, alloc.padded));
            self.stats.quarantine_bytes += alloc.padded;
            self.stats.quarantine_blocks += 1;
            self.stats.quarantine_bytes_hwm = self
                .stats
                .quarantine_bytes_hwm
                .max(self.stats.quarantine_bytes);
            self.stats.quarantine_blocks_hwm = self
                .stats
                .quarantine_blocks_hwm
                .max(self.stats.quarantine_blocks);
            if self.strategy.maintains_bitmap() {
                self.epoch.mark_range(mem, addr, alloc.padded, true);
            }

            let action = self
                .strategy
                .epoch_after_free(self.stats.quarantine_bytes, self.quarantine.len());
            match action {
                None => Ok(FreeOutcome::default()),
                Some(EpochAction::SilentDrain { count }) => {
                    self.stats.revocation_epochs += 1;
                    for _ in 0..count {
                        if let Some((a, sz)) = self.quarantine.pop_front() {
                            self.recycle(mem, a, sz);
                        }
                    }
                    Ok(FreeOutcome::default())
                }
                Some(EpochAction::TagSweep) => {
                    self.stats.revocation_epochs += 1;
                    let ranges: Vec<(u64, u64)> = self.quarantine.iter().copied().collect();
                    let mut sweep = self.epoch.sweep(mem, &ranges, self.start, self.bump);
                    while let Some((a, sz)) = self.quarantine.pop_front() {
                        sweep.bytes_recycled += sz;
                        sweep.blocks_recycled += 1;
                        self.recycle(mem, a, sz);
                    }
                    self.stats.sweep_granules_visited += sweep.granules_visited;
                    self.stats.sweep_tags_cleared += sweep.tags_cleared;
                    Ok(FreeOutcome { sweep: Some(sweep) })
                }
            }
        }

        fn recycle(&mut self, mem: &mut TaggedMemory, addr: u64, size: u64) {
            self.stats.quarantine_bytes -= size;
            self.stats.quarantine_blocks -= 1;
            if self.strategy.maintains_bitmap() {
                self.epoch.mark_range(mem, addr, size, false);
            }
            self.free_lists.entry(size).or_default().push(addr);
        }
    }

    // ---- alloc.rs: `HeapAllocator::size_class` ----
    /// Rounds a request up to its size class (16-byte granules below 1 KiB,
    /// 64-byte granules below 8 KiB, pages above).
    pub fn size_class(size: u64) -> u64 {
        let size = size.max(1);
        if size <= 1024 {
            (size + 15) & !15
        } else if size <= 8192 {
            (size + 63) & !63
        } else {
            (size + 4095) & !4095
        }
    }

    /// `StrategyKind::strategy`: instantiates the discipline.
    pub fn strategy(kind: StrategyKind) -> Box<dyn AllocStrategy + Send + Sync> {
        match kind {
            StrategyKind::Classic => Box::new(Classic),
            StrategyKind::CapabilityPadded => Box::new(CapabilityPadded),
            StrategyKind::QuarantineSwept {
                quarantine_bytes,
                quarantine_blocks,
            } => Box::new(QuarantineSwept {
                quarantine_bytes,
                quarantine_blocks,
            }),
        }
    }
}

const LO: u64 = 0x4010_0000;
const BM: u64 = 0x4008_0000;

/// One step of a random heap workload.
#[derive(Clone, Debug)]
enum Step {
    /// `malloc(size)`.
    Malloc(u64),
    /// Frees a live block (picked modulo the live count).
    Free(usize),
    /// Frees an address freed before: a double free while it sits in
    /// quarantine, a wild free once recycled, or a valid free if it was
    /// handed out again.
    FreeAgain(usize),
    /// Frees an arena address no block may start at.
    FreeWild(u64),
    /// Serving-style churn: `n` rounds of `malloc(size)` then `free`.
    Churn { size: u64, n: u32 },
    /// Stores, in a live block, a tagged capability whose base is a
    /// block ever allocated (live, quarantined or recycled), so sweeps
    /// find stale capabilities to revoke.
    StoreCap { src: usize, dst: usize, slot: u64 },
    /// A plain-data write into a live block, clearing any tag there.
    WriteData { block: usize, slot: u64 },
}

fn size_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        1u64..=256,
        257u64..=9000,
        9000u64..=300_000,
        // Larger than the tiny arena; up to far beyond any arena.
        (1u64 << 20)..(1u64 << 40),
    ]
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        size_strategy().prop_map(Step::Malloc),
        size_strategy().prop_map(Step::Malloc),
        any::<usize>().prop_map(Step::Free),
        any::<usize>().prop_map(Step::Free),
        any::<usize>().prop_map(Step::FreeAgain),
        (0u64..(1 << 16)).prop_map(|off| Step::FreeWild(LO + off * 16 + 8)),
        ((1u64..=4096), (1u32..80)).prop_map(|(size, n)| Step::Churn { size, n }),
        (any::<usize>(), any::<usize>(), any::<u64>())
            .prop_map(|(src, dst, slot)| Step::StoreCap { src, dst, slot }),
        (any::<usize>(), any::<u64>()).prop_map(|(block, slot)| Step::WriteData { block, slot }),
    ]
}

fn kind_strategy() -> impl Strategy<Value = StrategyKind> {
    prop_oneof![
        Just(StrategyKind::Classic),
        Just(StrategyKind::CapabilityPadded),
        (0u64..16_384).prop_map(StrategyKind::swept_bytes),
        ((0u64..65_536), (1usize..48)).prop_map(|(quarantine_bytes, quarantine_blocks)| {
            StrategyKind::QuarantineSwept {
                quarantine_bytes,
                quarantine_blocks,
            }
        }),
    ]
}

/// Both heaps, each over its own memory, driven in lockstep.
struct Pair {
    new: RevokingHeap,
    old: oracle::RevokingHeap,
    mem_new: TaggedMemory,
    mem_old: TaggedMemory,
    live: Vec<Allocation>,
    freed: Vec<u64>,
    ever: Vec<Allocation>,
}

impl Pair {
    fn new(arena: u64, kind: StrategyKind) -> Pair {
        Pair {
            new: RevokingHeap::new(LO, LO + arena, BM, kind),
            old: oracle::RevokingHeap::new(LO, LO + arena, BM, kind),
            mem_new: TaggedMemory::new(),
            mem_old: TaggedMemory::new(),
            live: Vec::new(),
            freed: Vec::new(),
            ever: Vec::new(),
        }
    }

    fn malloc(&mut self, size: u64) -> Result<Option<Allocation>, TestCaseError> {
        let got = self.new.malloc(size);
        prop_assert_eq!(got, self.old.malloc(size), "malloc({})", size);
        if let Ok(a) = got {
            self.live.push(a);
            self.ever.push(a);
        }
        Ok(got.ok())
    }

    fn free(&mut self, addr: u64) -> Result<(), TestCaseError> {
        let got = self.new.free(Some(&mut self.mem_new), addr);
        let want = self.old.free(&mut self.mem_old, addr);
        let got: Result<Option<SweepOutcome>, AllocError> = got.map(|o| o.sweep);
        let want: Result<Option<SweepOutcome>, AllocError> = want.map(|o| o.sweep);
        prop_assert_eq!(&got, &want, "free({:#x})", addr);
        if got.is_ok() {
            self.live.retain(|a| a.addr != addr);
            self.freed.push(addr);
        }
        Ok(())
    }

    /// Applies one memory operation to both memories.
    fn on_mem(&mut self, op: impl Fn(&mut TaggedMemory)) {
        op(&mut self.mem_new);
        op(&mut self.mem_old);
    }

    fn step(&mut self, step: &Step) -> Result<(), TestCaseError> {
        match *step {
            Step::Malloc(size) => {
                self.malloc(size)?;
            }
            Step::Free(i) if !self.live.is_empty() => {
                let addr = self.live[i % self.live.len()].addr;
                self.free(addr)?;
            }
            Step::FreeAgain(i) if !self.freed.is_empty() => {
                let addr = self.freed[i % self.freed.len()];
                self.free(addr)?;
            }
            Step::FreeWild(addr) => self.free(addr)?,
            Step::Churn { size, n } => {
                for _ in 0..n {
                    if let Some(a) = self.malloc(size)? {
                        self.free(a.addr)?;
                    }
                    prop_assert_eq!(self.new.stats(), self.old.stats());
                }
            }
            Step::StoreCap { src, dst, slot } if !self.live.is_empty() => {
                let src = self.live[src % self.live.len()];
                let dst = self.ever[dst % self.ever.len()];
                let at = src.addr + slot % (src.padded / CAP_GRANULE) * CAP_GRANULE;
                let cap = Capability::root_rw()
                    .set_bounds_exact(dst.addr, CAP_GRANULE)
                    .expect("one granule is representable");
                self.on_mem(|m| m.store_cap(at, cap.to_compressed(), true).unwrap());
            }
            Step::WriteData { block, slot } if !self.live.is_empty() => {
                let b = self.live[block % self.live.len()];
                let at = b.addr + slot % (b.padded / 8) * 8;
                self.on_mem(|m| m.write_u64(at, slot).unwrap());
            }
            _ => {}
        }
        self.check()
    }

    /// Heap statistics and occupancy, then memory statistics and the
    /// content and tag of every granule of every touched page.
    fn check(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.new.stats(), self.old.stats());
        prop_assert_eq!(self.new.live_count(), self.old.live_count());
        prop_assert_eq!(self.new.quarantined_blocks(), self.old.quarantined_blocks());
        prop_assert_eq!(self.mem_new.stats(), self.mem_old.stats());
        let pages = self.mem_new.touched_pages_in(0, u64::MAX);
        prop_assert_eq!(&pages, &self.mem_old.touched_pages_in(0, u64::MAX));
        for page in pages {
            for granule in (page..page + PAGE_SIZE).step_by(CAP_GRANULE as usize) {
                prop_assert_eq!(
                    self.mem_new.peek_cap(granule),
                    self.mem_old.peek_cap(granule),
                    "granule {:#x}",
                    granule
                );
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The heap matches the oracle step for step under every discipline,
    /// in a tiny arena (out-of-memory paths) and a roomy one.
    #[test]
    fn heap_matches_oracle(
        kind in kind_strategy(),
        tiny in any::<bool>(),
        steps in proptest::collection::vec(step_strategy(), 1..200),
    ) {
        let arena = if tiny { 64 << 10 } else { 16 << 20 };
        let mut pair = Pair::new(arena, kind);
        for step in &steps {
            pair.step(step)?;
        }
    }
}

/// Requests whose size class or padded layout cannot fit the arena are
/// refused as out of memory (the oracle overflowed on some of these),
/// and the heap then goes on matching the oracle.
#[test]
fn oversized_requests_are_refused_then_the_heap_matches_the_oracle() {
    let arena = 64 << 10;
    for kind in [
        StrategyKind::Classic,
        StrategyKind::CapabilityPadded,
        StrategyKind::swept_bytes(1024),
    ] {
        let mut pair = Pair::new(arena, kind);
        for size in [u64::MAX, u64::MAX - 4094, u64::MAX / 2, arena + 1] {
            assert_eq!(
                pair.new.malloc(size),
                Err(AllocError::OutOfMemory { requested: size })
            );
        }
        // Same stream through both heaps afterwards (the oracle never saw
        // the oversized requests).
        for (i, step) in [Step::Malloc(64), Step::Malloc(arena), Step::Free(0)]
            .iter()
            .cycle()
            .take(30)
            .enumerate()
        {
            pair.step(step)
                .unwrap_or_else(|e| panic!("{kind:?} step {i}: {e:?}"));
        }
    }
}
