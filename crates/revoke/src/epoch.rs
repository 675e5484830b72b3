//! The revocation epoch engine: per-granule bitmap maintenance and the
//! load-side tag sweep.

use cheri_cap::Capability;
use cheri_mem::{TaggedMemory, CAP_GRANULE, PAGE_SIZE};
use serde::{Deserialize, Serialize};

/// One memory access performed by a sweep, for the interpreter to replay
/// as retired load/store events so the traffic is charged through the
/// cache/TLB hierarchy (sweeps cost cycles and pollute L1D/L2, as on
/// real Cornucopia).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemAccess {
    /// Accessed address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u8,
    /// Store (true) or load (false).
    pub write: bool,
    /// Capability-width, tag-checked access.
    pub is_cap: bool,
}

/// What a tag sweep did: the counters feed the `Sweep*` PMU events and
/// `accesses` is replayed through the timing model.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepOutcome {
    /// Heap pages the sweep walked.
    pub pages_visited: u64,
    /// Capability granules probed: every granule of every walked page —
    /// the sweep loads each capability-sized word, CHERIvoke's
    /// load-side scan.
    pub granules_visited: u64,
    /// Stale capability tags cleared (revocations).
    pub tags_cleared: u64,
    /// Bytes returned from quarantine to the free lists.
    pub bytes_recycled: u64,
    /// Blocks returned from quarantine to the free lists.
    pub blocks_recycled: u64,
    /// The sweep's memory traffic, in deterministic address order.
    pub accesses: Vec<MemAccess>,
}

/// Size of the revocation-bitmap window in bytes (one bit per 16-byte
/// granule; the window wraps, like the interpreter's metadata lines).
pub const BITMAP_BYTES: u64 = 1 << 19;

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
        self.bitmap_base + Self::window_bit(self.granule_bit(addr)) / 64 * 8
    }

    /// The arena-relative index of the granule holding `addr`.
    fn granule_bit(&self, addr: u64) -> u64 {
        addr.wrapping_sub(self.arena_lo) / CAP_GRANULE
    }

    /// Where granule bit `bit` lands in the wrapping bitmap window.
    fn window_bit(bit: u64) -> u64 {
        bit % (BITMAP_BYTES * 8)
    }

    /// Marks (`set = true`) or clears every granule of `[addr,
    /// addr + len)` in the bitmap, one functional word read-modify-write
    /// per touched bitmap word.
    pub fn mark_range(&self, mem: &mut TaggedMemory, addr: u64, len: u64, set: bool) {
        let end = addr.saturating_add(len);
        if end <= addr {
            return;
        }
        // The range's granules own consecutive bits, wrapping with the
        // window: paint them a word-sized run at a time.
        let mut granules = (end - addr).div_ceil(CAP_GRANULE);
        let mut bit = Self::window_bit(self.granule_bit(addr));
        while granules > 0 {
            let shift = bit % 64;
            let run = granules.min(64 - shift);
            let mask = (u64::MAX >> (64 - run)) << shift;
            let word = self.bitmap_base + bit / 64 * 8;
            mem.update_u64(word, |cur| if set { cur | mask } else { cur & !mask })
                .expect("bitmap window in range");
            granules -= run;
            bit = Self::window_bit(bit + run);
        }
    }

    /// Performs a load-side tag sweep of `[span_lo, span_hi)`: probes the
    /// tags of every touched heap page, loads each tagged capability, and
    /// clears the tag of every capability whose *base* points into one of
    /// the quarantined `ranges` (`(base, len)` pairs, any order; the sweep
    /// may reorder them).
    ///
    /// The returned [`SweepOutcome`] carries the traffic to replay
    /// through the timing model; the tag clears have already been applied
    /// to `mem`.
    pub fn sweep(
        &self,
        mem: &mut TaggedMemory,
        ranges: &mut [(u64, u64)],
        span_lo: u64,
        span_hi: u64,
    ) -> SweepOutcome {
        let mut out = SweepOutcome::default();
        let pages = mem.touched_pages_in(span_lo, span_hi);
        let (Some(&first), Some(&last)) = (pages.first(), pages.last()) else {
            return out;
        };
        // Every tagged granule of the walked pages, whole pages included,
        // in ascending order: one walk over the page index.
        let tagged = mem.tagged_granules_in(first, last + PAGE_SIZE);
        let mut next_tagged = 0;
        // Only a tagged granule needs the ranges searched; a heap with
        // no stored capabilities never pays for the sort.
        let mut sorted = false;
        out.accesses
            .reserve(pages.len() * (1 + (PAGE_SIZE / CAP_GRANULE) as usize));
        for page in pages {
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
            for granule in (page..page + PAGE_SIZE).step_by(CAP_GRANULE as usize) {
                let is_tagged = tagged.get(next_tagged) == Some(&granule);
                next_tagged += usize::from(is_tagged);
                out.accesses.push(MemAccess {
                    addr: granule,
                    size: 16,
                    write: false,
                    is_cap: is_tagged,
                });
                if !is_tagged {
                    continue;
                }
                if !sorted {
                    ranges.sort_unstable();
                    sorted = true;
                }
                let (cc, tag) = mem.peek_cap(granule).expect("tagged page is touched");
                if revokes(ranges, Capability::from_compressed(cc, tag).base()) {
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
        }
        out
    }
}

/// Whether `addr` lies in one of the sorted `(base, len)` `ranges`.
fn revokes(ranges: &[(u64, u64)], addr: u64) -> bool {
    match ranges.binary_search_by(|&(base, _)| base.cmp(&addr)) {
        Ok(_) => true,
        Err(0) => false,
        Err(i) => {
            let (base, len) = ranges[i - 1];
            addr < base + len
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_marks_roundtrip() {
        let mut mem = TaggedMemory::new();
        let eng = RevocationEpoch::new(0x1000, 0x10_0000);
        eng.mark_range(&mut mem, 0x10_0000, 256, true);
        let w = eng.bitmap_word(0x10_0000);
        assert_eq!(mem.read_u64(w).unwrap() & 0xFFFF, 0xFFFF, "16 granules");
        eng.mark_range(&mut mem, 0x10_0000, 256, false);
        assert_eq!(mem.read_u64(w).unwrap(), 0);
    }

    #[test]
    fn sweep_is_deterministic_and_exact() {
        let mut mem = TaggedMemory::new();
        let eng = RevocationEpoch::new(0x1000, 0x10_0000);
        let root = Capability::root_rw();
        let stale = root.set_bounds_exact(0x10_0000, 64).unwrap();
        let live = root.set_bounds_exact(0x10_1000, 64).unwrap();
        mem.store_cap(0x10_0000, stale.to_compressed(), true)
            .unwrap();
        mem.store_cap(0x10_2000, stale.to_compressed(), true)
            .unwrap();
        mem.store_cap(0x10_2010, live.to_compressed(), true)
            .unwrap();
        let out = eng.sweep(&mut mem, &mut [(0x10_0000, 64)], 0x10_0000, 0x11_0000);
        assert_eq!(out.tags_cleared, 2);
        assert_eq!(out.pages_visited, 2);
        assert_eq!(out.granules_visited, 512);
        assert!(!mem.peek_cap(0x10_0000).unwrap().1);
        assert!(!mem.peek_cap(0x10_2000).unwrap().1);
        assert!(mem.peek_cap(0x10_2010).unwrap().1, "live cap survives");
        let again = eng.sweep(&mut mem, &mut [(0x10_0000, 64)], 0x10_0000, 0x11_0000);
        assert_eq!(again.tags_cleared, 0, "sweep is idempotent");
    }
}
