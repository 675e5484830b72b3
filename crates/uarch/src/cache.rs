//! Set-associative caches and TLBs.

use cheri_mem::PageHasher;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Geometry of a set-associative cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line: u64,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `line` and the implied set count are powers of two.
    pub fn new(size: u64, ways: u32, line: u64) -> CacheGeometry {
        assert!(line.is_power_of_two());
        let sets = size / (ways as u64 * line);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheGeometry { size, ways, line }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size / (self.ways as u64 * self.line)
    }
}

/// Access counters of one cache instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups (reads + writes).
    pub accesses: u64,
    /// Lookups that missed and triggered a refill.
    pub refills: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

/// One cache line's metadata, packed into 16 bytes so a 4-way set spans
/// exactly one host cache line: `meta` holds the tag (a full line
/// address, at most 58 bits for ≥64-byte lines) with the valid and
/// dirty flags in the top two bits.
#[derive(Clone, Copy, Default)]
struct Line {
    meta: u64,
    lru: u64,
}

const LINE_VALID: u64 = 1 << 63;
const LINE_DIRTY: u64 = 1 << 62;
const LINE_TAG_MASK: u64 = LINE_DIRTY - 1;

impl Line {
    #[inline]
    fn valid(self) -> bool {
        self.meta & LINE_VALID != 0
    }

    #[inline]
    fn dirty(self) -> bool {
        self.meta & LINE_DIRTY != 0
    }

    #[inline]
    fn tag(self) -> u64 {
        self.meta & LINE_TAG_MASK
    }

    /// `valid && tag == want` as a single comparison (a hit check).
    #[inline]
    fn matches(self, want: u64) -> bool {
        self.meta & (LINE_VALID | LINE_TAG_MASK) == LINE_VALID | want
    }
}

/// A write-back, write-allocate set-associative cache with LRU
/// replacement.
///
/// Addresses are treated as physical (the simulator maps VA→PA
/// identically, so cache-conflict behaviour follows virtual layout — which
/// is precisely how allocation-alignment side effects become visible).
#[derive(Clone)]
pub struct Cache {
    geo: CacheGeometry,
    sets: Vec<Line>,
    set_mask: u64,
    line_shift: u32,
    stamp: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    pub fn new(geo: CacheGeometry) -> Cache {
        let sets = geo.sets();
        Cache {
            geo,
            sets: vec![Line::default(); (sets * geo.ways as u64) as usize],
            set_mask: sets - 1,
            line_shift: geo.line.trailing_zeros(),
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// A cache of no lines, standing in for one moved out of its owner;
    /// it must never be accessed.
    pub(crate) fn detached() -> Cache {
        Cache {
            geo: CacheGeometry {
                size: 0,
                ways: 0,
                line: 1,
            },
            sets: Vec::new(),
            set_mask: 0,
            line_shift: 0,
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// Empties the cache in place: afterwards it behaves exactly as
    /// [`Cache::new`] of its geometry, without allocating the lines again.
    pub(crate) fn reset(&mut self) {
        self.sets.fill(Line::default());
        self.stamp = 0;
        self.stats = CacheStats::default();
    }

    /// The geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geo
    }

    /// The access counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    #[inline]
    fn set_range(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize * self.geo.ways as usize;
        (set, line_addr)
    }

    /// Looks up `addr`; on miss, fills the line (evicting LRU). Returns
    /// `true` on hit.
    #[inline(always)]
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        self.access_wb(addr, write).0
    }

    /// As [`access`](Cache::access), additionally reporting the address of
    /// a dirty line evicted by the refill (the write-back the next cache
    /// level must absorb).
    ///
    /// The hit paths inline into the caller, the refill stays out of
    /// line: a timing core keeps its cycle ledger in registers across a
    /// hit, which a call would spill.
    #[inline(always)]
    pub fn access_wb(&mut self, addr: u64, write: bool) -> (bool, Option<u64>) {
        self.stats.accesses += 1;
        self.stamp += 1;
        let (set, tag) = self.set_range(addr);
        debug_assert!(tag <= LINE_TAG_MASK);
        if let Some(i) = self.find(set, tag) {
            let way = &mut self.sets[set + i];
            way.lru = self.stamp;
            way.meta |= if write { LINE_DIRTY } else { 0 };
            return (true, None);
        }
        self.refill(set, tag, write)
    }

    /// The way of set `set` holding `tag`, if any. A tag lives in at
    /// most one way (lines are filled only on a miss), so the lowest
    /// matching way is the match. The common geometries compare every
    /// way without a branch per way: which way hits is data, and a
    /// branch on it would mispredict.
    #[inline(always)]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        #[inline(always)]
        fn mask<const W: usize>(ways: &[Line], tag: u64) -> u32 {
            let ways: &[Line; W] = ways.try_into().expect("a set of W ways");
            let mut m = 0;
            for (i, w) in ways.iter().enumerate() {
                m |= u32::from(w.matches(tag)) << i;
            }
            m
        }
        let ways = &self.sets[set..set + self.geo.ways as usize];
        let m = match ways.len() {
            4 => mask::<4>(ways, tag),
            8 => mask::<8>(ways, tag),
            16 => mask::<16>(ways, tag),
            _ => return ways.iter().position(|w| w.matches(tag)),
        };
        (m != 0).then(|| m.trailing_zeros() as usize)
    }

    #[inline(never)]
    fn refill(&mut self, set: usize, tag: u64, write: bool) -> (bool, Option<u64>) {
        self.stats.refills += 1;
        let victim = self.fill_line(set, tag, write);
        (false, victim)
    }

    /// Installs a line without counting an access (prefetch).
    pub fn prefetch(&mut self, addr: u64) {
        self.stamp += 1;
        let (set, tag) = self.set_range(addr);
        let ways = self.geo.ways as usize;
        for way in &self.sets[set..set + ways] {
            if way.matches(tag) {
                return;
            }
        }
        self.fill_line(set, tag, false);
    }

    /// Returns `true` if the line holding `addr` is present (no state
    /// change, no counting).
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_range(addr);
        let ways = self.geo.ways as usize;
        self.sets[set..set + ways].iter().any(|w| w.matches(tag))
    }

    fn fill_line(&mut self, set: usize, tag: u64, write: bool) -> Option<u64> {
        let ways = self.geo.ways as usize;
        let victim = self.sets[set..set + ways]
            .iter_mut()
            .min_by_key(|w| if w.valid() { w.lru } else { 0 })
            .expect("nonzero associativity");
        let wb = if victim.valid() && victim.dirty() {
            self.stats.writebacks += 1;
            Some(victim.tag() << self.line_shift)
        } else {
            None
        };
        *victim = Line {
            meta: tag | LINE_VALID | if write { LINE_DIRTY } else { 0 },
            lru: self.stamp,
        };
        wb
    }
}

/// TLB access counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbStats {
    /// Lookups.
    pub accesses: u64,
    /// Misses (refilled from the next level or the walker).
    pub refills: u64,
}

/// Page hints per TLB (see [`Tlb`]'s `hints`), as a power of two.
const HINT_BITS: u32 = 6;

/// A fully associative TLB with LRU replacement over 4 KiB pages.
///
/// Lookup goes through a page→slot hash index instead of a linear scan:
/// the big second-level TLB (1280 entries) made every first-level miss
/// an O(capacity) walk. Hit/miss outcomes, LRU stamps, and the eviction
/// choice are untouched — stamps are unique, so the LRU minimum is the
/// same entry whichever way it is found.
#[derive(Clone)]
pub struct Tlb {
    entries: Vec<(u64, u64)>,                                   // (page, lru)
    index: HashMap<u64, usize, BuildHasherDefault<PageHasher>>, // page → slot
    capacity: usize,
    stamp: u64,
    // The slot each page was last found in, direct-mapped by a hash of
    // the page. A program's data accesses rotate among a few pages
    // (stack, heap objects, globals), which one remembered slot kept
    // missing; a hint per hashed page finds them without the hash-map
    // lookup. Purely an access-order shortcut: a stale hint names
    // another page's slot and falls through, so hit/miss outcomes, LRU
    // state, and counters are unchanged.
    hints: [u32; 1 << HINT_BITS],
    stats: TlbStats,
}

impl Tlb {
    /// Creates an empty TLB with `entries` slots.
    pub fn new(entries: u32) -> Tlb {
        Tlb {
            entries: Vec::with_capacity(entries as usize),
            index: HashMap::with_capacity_and_hasher(entries as usize, Default::default()),
            capacity: entries as usize,
            stamp: 0,
            hints: [0; 1 << HINT_BITS],
            stats: TlbStats::default(),
        }
    }

    /// The access counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Looks up the page of `addr`; fills on miss. Returns `true` on hit.
    /// The hint check inlines into the caller (see
    /// [`Cache::access_wb`]); the rest stays out of line.
    #[inline(always)]
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        self.stamp += 1;
        let page = addr >> 12;
        let h = Tlb::hint_of(page);
        if let Some(e) = self.entries.get_mut(self.hints[h] as usize) {
            if e.0 == page {
                e.1 = self.stamp;
                return true;
            }
        }
        self.lookup(page)
    }

    /// The hint slot of `page`: the top bits of a multiplicative hash.
    #[inline(always)]
    fn hint_of(page: u64) -> usize {
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - HINT_BITS)) as usize
    }

    #[inline(never)]
    fn lookup(&mut self, page: u64) -> bool {
        if let Some(&idx) = self.index.get(&page) {
            self.entries[idx].1 = self.stamp;
            self.hints[Tlb::hint_of(page)] = idx as u32;
            return true;
        }
        self.stats.refills += 1;
        if self.entries.len() == self.capacity {
            let (idx, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, lru))| *lru)
                .expect("nonempty TLB");
            let (evicted, _) = self.entries.swap_remove(idx);
            self.index.remove(&evicted);
            if let Some(&(moved, _)) = self.entries.get(idx) {
                self.index.insert(moved, idx);
            }
        }
        self.entries.push((page, self.stamp));
        self.index.insert(page, self.entries.len() - 1);
        self.hints[Tlb::hint_of(page)] = (self.entries.len() - 1) as u32;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B = 512B
        Cache::new(CacheGeometry::new(512, 2, 64))
    }

    #[test]
    fn geometry_math() {
        let g = CacheGeometry::new(64 << 10, 4, 64);
        assert_eq!(g.sets(), 256);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        CacheGeometry::new(48 << 10, 5, 64);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(!c.access(0x1000, false));
        assert!(c.access(0x1000, false));
        assert!(c.access(0x103f, false), "same line");
        assert!(!c.access(0x1040, false), "next line");
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().refills, 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small();
        // Set stride: 4 sets * 64 = 256 bytes. Three conflicting lines in a
        // 2-way set evict the least recent.
        c.access(0x0000, false);
        c.access(0x0100, false);
        c.access(0x0000, false); // refresh
        c.access(0x0200, false); // evicts 0x0100
        assert!(c.probe(0x0000));
        assert!(!c.probe(0x0100));
        assert!(c.probe(0x0200));
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = small();
        c.access(0x0000, true);
        c.access(0x0100, false);
        c.access(0x0200, false); // evicts dirty 0x0000
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn prefetch_installs_without_counting() {
        let mut c = small();
        c.prefetch(0x1000);
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(0x1000, false), "prefetched line must hit");
    }

    #[test]
    fn tlb_basics() {
        let mut t = Tlb::new(2);
        assert!(!t.access(0x1000));
        assert!(t.access(0x1fff), "same page");
        assert!(!t.access(0x2000));
        assert!(!t.access(0x5000)); // evicts LRU (page 1)
        assert!(!t.access(0x1000), "page 1 was evicted");
        assert_eq!(t.stats().accesses, 5);
        assert_eq!(t.stats().refills, 4);
    }
}

#[cfg(test)]
mod wb_tests {
    use super::*;

    #[test]
    fn access_wb_reports_dirty_victim_address() {
        // 4 sets x 2 ways x 64B: lines 0x000, 0x100, 0x200 collide in set 0.
        let mut c = Cache::new(CacheGeometry::new(512, 2, 64));
        assert_eq!(c.access_wb(0x000, true), (false, None));
        assert_eq!(c.access_wb(0x100, false), (false, None));
        // Evicts the dirty 0x000 line.
        let (hit, victim) = c.access_wb(0x200, false);
        assert!(!hit);
        assert_eq!(victim, Some(0x000));
        // Evicts the clean 0x100 line: no write-back.
        let (hit, victim) = c.access_wb(0x040, false); // set 1, no conflict
        assert!(!hit);
        assert_eq!(victim, None);
    }

    #[test]
    fn victim_address_is_line_aligned() {
        let mut c = Cache::new(CacheGeometry::new(512, 2, 64));
        c.access(0x0ab, true); // line 0x080, set 2
        c.access(0x28c, false); // line 0x280, set 2
        let (_, victim) = c.access_wb(0x48f, false); // line 0x480, set 2
        assert_eq!(victim, Some(0x080));
    }
}
