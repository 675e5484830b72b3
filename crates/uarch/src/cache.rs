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
    // Index of the most recently hit/filled line. Tags are full line
    // addresses (they include the set bits), so a tag match against the
    // hinted slot is sufficient: that line can only ever live in its own
    // set. Purely an access-order shortcut, as in [`Tlb`]: a stale hint
    // falls through to the scan, so hit/miss outcomes, LRU state, and
    // counters are unchanged.
    last_hit: usize,
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
            last_hit: 0,
            stats: CacheStats::default(),
        }
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
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        self.access_wb(addr, write).0
    }

    /// As [`access`](Cache::access), additionally reporting the address of
    /// a dirty line evicted by the refill (the write-back the next cache
    /// level must absorb).
    pub fn access_wb(&mut self, addr: u64, write: bool) -> (bool, Option<u64>) {
        self.stats.accesses += 1;
        self.stamp += 1;
        let (set, tag) = self.set_range(addr);
        debug_assert!(tag <= LINE_TAG_MASK);
        let dirty = if write { LINE_DIRTY } else { 0 };
        if let Some(way) = self.sets.get_mut(self.last_hit) {
            if way.matches(tag) {
                way.lru = self.stamp;
                way.meta |= dirty;
                return (true, None);
            }
        }
        let ways = self.geo.ways as usize;
        for (i, way) in self.sets[set..set + ways].iter_mut().enumerate() {
            if way.matches(tag) {
                way.lru = self.stamp;
                way.meta |= dirty;
                self.last_hit = set + i;
                return (true, None);
            }
        }
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
        let (slot, victim) = self.sets[set..set + ways]
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, w)| if w.valid() { w.lru } else { 0 })
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
        self.last_hit = set + slot;
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
    // Index of the most recently hit entry. Page locality makes
    // back-to-back lookups land on the same page, so checking this slot
    // first skips even the hash lookup on the common path. Purely an
    // access-order shortcut: a stale hint just falls through, so
    // hit/miss outcomes, LRU state, and counters are unchanged.
    last_hit: usize,
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
            last_hit: 0,
            stats: TlbStats::default(),
        }
    }

    /// The access counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Looks up the page of `addr`; fills on miss. Returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        self.stamp += 1;
        let page = addr >> 12;
        if let Some(e) = self.entries.get_mut(self.last_hit) {
            if e.0 == page {
                e.1 = self.stamp;
                return true;
            }
        }
        if let Some(&idx) = self.index.get(&page) {
            self.entries[idx].1 = self.stamp;
            self.last_hit = idx;
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
        self.last_hit = self.entries.len() - 1;
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
