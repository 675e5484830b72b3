//! Sparse paged memory with out-of-band capability tags.

use cheri_cap::CompressedCap;
use core::fmt;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Page size in bytes (4 KiB, matching CheriBSD's base page size).
pub const PAGE_SIZE: u64 = 4096;
/// Capability granule: one tag bit protects each aligned 16-byte region.
pub const CAP_GRANULE: u64 = 16;

const PAGE_SHIFT: u32 = 12;
const GRANULES_PER_PAGE: usize = (PAGE_SIZE / CAP_GRANULE) as usize; // 256
const TAG_WORDS: usize = GRANULES_PER_PAGE / 64; // 4

/// An access error raised by the functional memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemError {
    /// Capability loads/stores must be 16-byte aligned.
    UnalignedCapAccess {
        /// The faulting address.
        addr: u64,
    },
    /// The access would wrap around the top of the address space.
    AddressWrap {
        /// The faulting address.
        addr: u64,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::UnalignedCapAccess { addr } => {
                write!(f, "unaligned capability access at {addr:#x}")
            }
            MemError::AddressWrap { addr } => write!(f, "address wrap at {addr:#x}"),
        }
    }
}

impl std::error::Error for MemError {}

/// Functional access statistics (architectural counts, not timing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// Plain-data read operations.
    pub data_reads: u64,
    /// Plain-data write operations.
    pub data_writes: u64,
    /// Bytes read by plain-data operations.
    pub bytes_read: u64,
    /// Bytes written by plain-data operations.
    pub bytes_written: u64,
    /// Capability (16-byte, tag-carrying) loads.
    pub cap_reads: u64,
    /// Capability (16-byte, tag-carrying) stores.
    pub cap_writes: u64,
    /// Tags cleared by plain-data overwrites of capability granules.
    pub tags_cleared_by_data: u64,
}

struct Page {
    data: Box<[u8]>,
    tags: [u64; TAG_WORDS],
}

impl Page {
    fn new() -> Page {
        Page {
            data: vec![0u8; PAGE_SIZE as usize].into_boxed_slice(),
            tags: [0; TAG_WORDS],
        }
    }

    #[inline]
    fn tag(&self, granule: usize) -> bool {
        (self.tags[granule / 64] >> (granule % 64)) & 1 == 1
    }

    #[inline]
    fn set_tag(&mut self, granule: usize, value: bool) {
        let (w, b) = (granule / 64, granule % 64);
        if value {
            self.tags[w] |= 1 << b;
        } else {
            self.tags[w] &= !(1 << b);
        }
    }
}

/// A multiplicative hasher for page numbers and addresses, for maps
/// keyed by one `u64` on a hot path where SipHash would dominate. Such
/// keys are well-spread integers, so a Fibonacci multiply (plus a shift
/// to fold the high bits the map's bucket index ignores) is enough.
/// Use it only where nothing observable depends on map iteration order:
/// here, sweep accessors sort, and `revoke_region` computes
/// order-independent sums.
#[derive(Clone, Copy, Debug, Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let h = v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// Ways in the direct-mapped page-translation cache. Covers the few
/// hot streams an interpreter touches between page changes (stack,
/// a couple of heap arrays, globals) without a hash probe per access.
const PAGE_CACHE_WAYS: usize = 8;

/// Cache-way sentinel: no page number hashes to `u64::MAX` in practice
/// (it would require an address at the top of the space).
const NO_PAGE: u64 = u64::MAX;

/// A sparse, paged, tagged physical memory.
///
/// Pages are materialised on first touch; the number of touched pages is
/// the process's memory footprint (the paper's "memory footprint"
/// metric in §4.4).
///
/// Internally pages live in a slot arena (`pages`) with a hash index
/// from page number to slot and a small direct-mapped cache in front:
/// the hot path of every scalar access is a one-way tag compare plus a
/// vector index, with the hash probe paid only on cache misses.
pub struct TaggedMemory {
    pages: Vec<Page>,
    index: HashMap<u64, u32, BuildHasherDefault<PageHasher>>,
    cache: [(u64, u32); PAGE_CACHE_WAYS],
    stats: MemStats,
}

impl Default for TaggedMemory {
    fn default() -> TaggedMemory {
        TaggedMemory {
            pages: Vec::new(),
            index: HashMap::default(),
            cache: [(NO_PAGE, 0); PAGE_CACHE_WAYS],
            stats: MemStats::default(),
        }
    }
}

impl TaggedMemory {
    /// Creates an empty memory.
    pub fn new() -> TaggedMemory {
        TaggedMemory::default()
    }

    /// Access statistics so far.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Number of distinct pages touched (reads or writes).
    pub fn pages_touched(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Total footprint in bytes (touched pages × page size).
    pub fn footprint_bytes(&self) -> u64 {
        self.pages_touched() * PAGE_SIZE
    }

    #[inline]
    fn page_mut(&mut self, page_no: u64) -> &mut Page {
        let way = (page_no as usize) & (PAGE_CACHE_WAYS - 1);
        let (tag, slot) = self.cache[way];
        if tag == page_no {
            return &mut self.pages[slot as usize];
        }
        self.page_mut_miss(page_no, way)
    }

    fn page_mut_miss(&mut self, page_no: u64, way: usize) -> &mut Page {
        let slot = match self.index.entry(page_no) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let s = self.pages.len() as u32;
                self.pages.push(Page::new());
                *e.insert(s)
            }
        };
        self.cache[way] = (page_no, slot);
        &mut self.pages[slot as usize]
    }

    fn end_addr(addr: u64, len: u64) -> Result<u64, MemError> {
        addr.checked_add(len).ok_or(MemError::AddressWrap { addr })
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Fails only when the range wraps the address space.
    pub fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), MemError> {
        Self::end_addr(addr, buf.len() as u64)?;
        self.stats.data_reads += 1;
        self.stats.bytes_read += buf.len() as u64;
        // Scalar accesses almost never straddle a page: resolve the page
        // once and copy directly. Empty accesses take the general loop,
        // which touches no page at all.
        let in_page = (addr & (PAGE_SIZE - 1)) as usize;
        if !buf.is_empty() && in_page + buf.len() <= PAGE_SIZE as usize {
            let page = self.page_mut(addr >> PAGE_SHIFT);
            buf.copy_from_slice(&page.data[in_page..in_page + buf.len()]);
            return Ok(());
        }
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr + off as u64;
            let page_no = a >> PAGE_SHIFT;
            let in_page = (a & (PAGE_SIZE - 1)) as usize;
            let n = (buf.len() - off).min(PAGE_SIZE as usize - in_page);
            let page = self.page_mut(page_no);
            buf[off..off + n].copy_from_slice(&page.data[in_page..in_page + n]);
            off += n;
        }
        Ok(())
    }

    /// Writes `buf` starting at `addr`, clearing the capability tag of
    /// every overlapped 16-byte granule (the CHERI tag-invalidation rule).
    ///
    /// # Errors
    ///
    /// Fails only when the range wraps the address space.
    pub fn write_bytes(&mut self, addr: u64, buf: &[u8]) -> Result<(), MemError> {
        let end = Self::end_addr(addr, buf.len() as u64)?;
        self.stats.data_writes += 1;
        self.stats.bytes_written += buf.len() as u64;
        // Single-page fast path: the data write and the tag-invalidation
        // walk share one page resolution. The granule range of a
        // single-page write starts at or after the page base, so every
        // cleared tag lives on this page.
        let in_page = (addr & (PAGE_SIZE - 1)) as usize;
        if !buf.is_empty() && in_page + buf.len() <= PAGE_SIZE as usize {
            let mut cleared = 0u64;
            let page = self.page_mut(addr >> PAGE_SHIFT);
            page.data[in_page..in_page + buf.len()].copy_from_slice(buf);
            let mut g = addr & !(CAP_GRANULE - 1);
            while g < end {
                let gi = ((g & (PAGE_SIZE - 1)) / CAP_GRANULE) as usize;
                if page.tag(gi) {
                    page.set_tag(gi, false);
                    cleared += 1;
                }
                g += CAP_GRANULE;
            }
            self.stats.tags_cleared_by_data += cleared;
            return Ok(());
        }
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr + off as u64;
            let page_no = a >> PAGE_SHIFT;
            let in_page = (a & (PAGE_SIZE - 1)) as usize;
            let n = (buf.len() - off).min(PAGE_SIZE as usize - in_page);
            let page = self.page_mut(page_no);
            page.data[in_page..in_page + n].copy_from_slice(&buf[off..off + n]);
            off += n;
        }
        // Clear tags over [addr & !15, end) granule range.
        let first_granule = addr & !(CAP_GRANULE - 1);
        let mut g = first_granule;
        while g < end {
            let page_no = g >> PAGE_SHIFT;
            let gi = ((g & (PAGE_SIZE - 1)) / CAP_GRANULE) as usize;
            let page = self.page_mut(page_no);
            if page.tag(gi) {
                page.set_tag(gi, false);
                self.stats.tags_cleared_by_data += 1;
            }
            g += CAP_GRANULE;
        }
        Ok(())
    }

    /// Loads a capability (16 bytes + tag) from a 16-byte-aligned address.
    ///
    /// # Errors
    ///
    /// [`MemError::UnalignedCapAccess`] when `addr` is not 16-byte aligned.
    pub fn load_cap(&mut self, addr: u64) -> Result<(CompressedCap, bool), MemError> {
        if !addr.is_multiple_of(CAP_GRANULE) {
            return Err(MemError::UnalignedCapAccess { addr });
        }
        self.stats.cap_reads += 1;
        let page_no = addr >> PAGE_SHIFT;
        let in_page = (addr & (PAGE_SIZE - 1)) as usize;
        let gi = in_page / CAP_GRANULE as usize;
        let page = self.page_mut(page_no);
        let mut bytes = [0u8; 16];
        bytes.copy_from_slice(&page.data[in_page..in_page + 16]);
        Ok((CompressedCap::from_bytes(bytes), page.tag(gi)))
    }

    /// Stores a capability (16 bytes + tag) to a 16-byte-aligned address.
    ///
    /// # Errors
    ///
    /// [`MemError::UnalignedCapAccess`] when `addr` is not 16-byte aligned.
    pub fn store_cap(&mut self, addr: u64, cc: CompressedCap, tag: bool) -> Result<(), MemError> {
        if !addr.is_multiple_of(CAP_GRANULE) {
            return Err(MemError::UnalignedCapAccess { addr });
        }
        self.stats.cap_writes += 1;
        let page_no = addr >> PAGE_SHIFT;
        let in_page = (addr & (PAGE_SIZE - 1)) as usize;
        let gi = in_page / CAP_GRANULE as usize;
        let page = self.page_mut(page_no);
        page.data[in_page..in_page + 16].copy_from_slice(&cc.to_bytes());
        page.set_tag(gi, tag);
        Ok(())
    }

    /// Reads the tag bit of the granule containing `addr` without touching
    /// data (used by tag-scanning revocation models).
    pub fn peek_tag(&mut self, addr: u64) -> bool {
        let page_no = addr >> PAGE_SHIFT;
        let gi = ((addr & (PAGE_SIZE - 1)) / CAP_GRANULE) as usize;
        self.page_mut(page_no).tag(gi)
    }

    /// A revocation sweep (Cornucopia): scans every tagged granule in
    /// memory and clears the tag of each stored capability whose *base*
    /// points into `[base, top)` — invalidating all stale references to a
    /// freed region. Returns the number of capabilities revoked and the
    /// number of granules scanned.
    ///
    /// This is the eager form of what CheriBSD performs with load barriers
    /// across an epoch; the allocator's quarantine models its amortised
    /// cost, while this method provides the architectural effect for
    /// temporal-safety experiments.
    pub fn revoke_region(&mut self, base: u64, top: u64) -> (u64, u64) {
        use cheri_cap::Capability;
        let mut revoked = 0;
        let mut scanned = 0;
        for page in &mut self.pages {
            for w in 0..TAG_WORDS {
                let mut bits = page.tags[w];
                while bits != 0 {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    scanned += 1;
                    let gi = w * 64 + bit;
                    let off = gi * CAP_GRANULE as usize;
                    let mut img = [0u8; 16];
                    img.copy_from_slice(&page.data[off..off + 16]);
                    let cap = Capability::from_compressed(CompressedCap::from_bytes(img), true);
                    if cap.base() >= base && cap.base() < top {
                        page.set_tag(gi, false);
                        revoked += 1;
                    }
                }
            }
        }
        (revoked, scanned)
    }

    // -- Sweep support (used by the `cheri-revoke` epoch engine) -----------

    /// Base addresses of the materialised pages intersecting `[lo, hi)`,
    /// in ascending order (the deterministic page walk a revocation sweep
    /// performs). Untouched pages hold no tags and are skipped, exactly
    /// like CheriBSD's revoker skips unmapped ranges.
    pub fn touched_pages_in(&self, lo: u64, hi: u64) -> Vec<u64> {
        let lo_page = lo >> PAGE_SHIFT;
        let hi_page = hi.saturating_add(PAGE_SIZE - 1) >> PAGE_SHIFT;
        let mut pages: Vec<u64> = self
            .index
            .keys()
            .copied()
            .filter(|p| *p >= lo_page && *p < hi_page)
            .map(|p| p << PAGE_SHIFT)
            .collect();
        pages.sort_unstable();
        pages
    }

    /// Addresses of every tagged (capability-holding) granule in
    /// `[lo, hi)`, in ascending order.
    pub fn tagged_granules_in(&self, lo: u64, hi: u64) -> Vec<u64> {
        let mut out = Vec::new();
        for page_base in self.touched_pages_in(lo, hi) {
            let page = &self.pages[self.index[&(page_base >> PAGE_SHIFT)] as usize];
            for w in 0..TAG_WORDS {
                let mut bits = page.tags[w];
                while bits != 0 {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let addr = page_base + ((w * 64 + bit) as u64) * CAP_GRANULE;
                    if addr >= lo && addr < hi {
                        out.push(addr);
                    }
                }
            }
        }
        out
    }

    /// Reads the capability image and tag of the granule containing
    /// `addr` without materialising pages or counting an access (a
    /// revoker-side inspection, not an architectural load). Returns
    /// `None` for an untouched page.
    pub fn peek_cap(&self, addr: u64) -> Option<(CompressedCap, bool)> {
        let base = addr & !(CAP_GRANULE - 1);
        let page = &self.pages[*self.index.get(&(base >> PAGE_SHIFT))? as usize];
        let in_page = (base & (PAGE_SIZE - 1)) as usize;
        let mut bytes = [0u8; 16];
        bytes.copy_from_slice(&page.data[in_page..in_page + 16]);
        Some((
            CompressedCap::from_bytes(bytes),
            page.tag(in_page / CAP_GRANULE as usize),
        ))
    }

    /// Clears the tag of the granule containing `addr` (a revocation
    /// tag-write). Returns whether a tag was actually cleared.
    pub fn clear_tag(&mut self, addr: u64) -> bool {
        let page_no = addr >> PAGE_SHIFT;
        let gi = ((addr & (PAGE_SIZE - 1)) / CAP_GRANULE) as usize;
        match self.index.get(&page_no) {
            Some(&slot) => {
                let page = &mut self.pages[slot as usize];
                if page.tag(gi) {
                    page.set_tag(gi, false);
                    true
                } else {
                    false
                }
            }
            None => false,
        }
    }

    // -- Convenience scalar accessors (little-endian) ----------------------

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// As [`read_bytes`](TaggedMemory::read_bytes).
    pub fn read_u8(&mut self, addr: u64) -> Result<u8, MemError> {
        let mut b = [0u8; 1];
        self.read_bytes(addr, &mut b)?;
        Ok(b[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// As [`read_bytes`](TaggedMemory::read_bytes).
    pub fn read_u16(&mut self, addr: u64) -> Result<u16, MemError> {
        let mut b = [0u8; 2];
        self.read_bytes(addr, &mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// As [`read_bytes`](TaggedMemory::read_bytes).
    pub fn read_u32(&mut self, addr: u64) -> Result<u32, MemError> {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// As [`read_bytes`](TaggedMemory::read_bytes).
    pub fn read_u64(&mut self, addr: u64) -> Result<u64, MemError> {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a `u8`.
    ///
    /// # Errors
    ///
    /// As [`write_bytes`](TaggedMemory::write_bytes).
    pub fn write_u8(&mut self, addr: u64, v: u8) -> Result<(), MemError> {
        self.write_bytes(addr, &[v])
    }

    /// Writes a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// As [`write_bytes`](TaggedMemory::write_bytes).
    pub fn write_u16(&mut self, addr: u64, v: u16) -> Result<(), MemError> {
        self.write_bytes(addr, &v.to_le_bytes())
    }

    /// Writes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// As [`write_bytes`](TaggedMemory::write_bytes).
    pub fn write_u32(&mut self, addr: u64, v: u32) -> Result<(), MemError> {
        self.write_bytes(addr, &v.to_le_bytes())
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// As [`write_bytes`](TaggedMemory::write_bytes).
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), MemError> {
        self.write_bytes(addr, &v.to_le_bytes())
    }

    /// Read-modify-write of the little-endian `u64` at `addr`: stores
    /// `f(old)`. It counts in [`MemStats`] exactly as a
    /// [`read_u64`](TaggedMemory::read_u64) followed by a
    /// [`write_u64`](TaggedMemory::write_u64), tag invalidation included,
    /// but resolves the page once.
    ///
    /// # Errors
    ///
    /// As [`write_bytes`](TaggedMemory::write_bytes).
    pub fn update_u64(&mut self, addr: u64, f: impl FnOnce(u64) -> u64) -> Result<(), MemError> {
        let in_page = (addr & (PAGE_SIZE - 1)) as usize;
        if in_page + 8 > PAGE_SIZE as usize {
            let old = self.read_u64(addr)?;
            return self.write_u64(addr, f(old));
        }
        // The word sits inside one page, so it cannot wrap the address
        // space either.
        self.stats.data_reads += 1;
        self.stats.bytes_read += 8;
        self.stats.data_writes += 1;
        self.stats.bytes_written += 8;
        let page = self.page_mut(addr >> PAGE_SHIFT);
        let word = &mut page.data[in_page..in_page + 8];
        let new = f(u64::from_le_bytes(word.try_into().expect("8-byte slice")));
        word.copy_from_slice(&new.to_le_bytes());
        let mut cleared = 0;
        for gi in in_page / CAP_GRANULE as usize..(in_page + 7) / CAP_GRANULE as usize + 1 {
            if page.tag(gi) {
                page.set_tag(gi, false);
                cleared += 1;
            }
        }
        self.stats.tags_cleared_by_data += cleared;
        Ok(())
    }
}

impl fmt::Debug for TaggedMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TaggedMemory({} pages, {} KiB)",
            self.pages.len(),
            self.pages.len() * 4
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_cap::Capability;

    #[test]
    fn scalar_roundtrips() {
        let mut m = TaggedMemory::new();
        m.write_u8(10, 0xab).unwrap();
        m.write_u16(12, 0x1234).unwrap();
        m.write_u32(16, 0xdead_beef).unwrap();
        m.write_u64(24, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(m.read_u8(10).unwrap(), 0xab);
        assert_eq!(m.read_u16(12).unwrap(), 0x1234);
        assert_eq!(m.read_u32(16).unwrap(), 0xdead_beef);
        assert_eq!(m.read_u64(24).unwrap(), 0x0102_0304_0506_0708);
    }

    #[test]
    fn cross_page_access() {
        let mut m = TaggedMemory::new();
        let addr = PAGE_SIZE - 3;
        m.write_u64(addr, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.read_u64(addr).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(m.pages_touched(), 2);
    }

    #[test]
    fn zero_initialised() {
        let mut m = TaggedMemory::new();
        assert_eq!(m.read_u64(0x9999).unwrap(), 0);
    }

    #[test]
    fn cap_roundtrip_preserves_tag() {
        let mut m = TaggedMemory::new();
        let c = Capability::root_rw().set_bounds_exact(0x100, 64).unwrap();
        m.store_cap(0x40, c.to_compressed(), true).unwrap();
        let (cc, tag) = m.load_cap(0x40).unwrap();
        assert!(tag);
        assert_eq!(Capability::from_compressed(cc, tag), c);
    }

    #[test]
    fn data_store_clears_overlapping_tag() {
        let mut m = TaggedMemory::new();
        let c = Capability::root_rw().set_bounds_exact(0x100, 64).unwrap();
        m.store_cap(0x40, c.to_compressed(), true).unwrap();
        // Overwrite one byte inside the granule.
        m.write_u8(0x47, 0xff).unwrap();
        let (_, tag) = m.load_cap(0x40).unwrap();
        assert!(!tag, "tag must be cleared by a plain-data overwrite");
        assert_eq!(m.stats().tags_cleared_by_data, 1);
    }

    #[test]
    fn data_store_adjacent_granule_keeps_tag() {
        let mut m = TaggedMemory::new();
        let c = Capability::root_rw().set_bounds_exact(0x100, 64).unwrap();
        m.store_cap(0x40, c.to_compressed(), true).unwrap();
        m.write_u64(0x50, 1).unwrap(); // next granule
        m.write_u64(0x38, 1).unwrap(); // previous granule
        let (_, tag) = m.load_cap(0x40).unwrap();
        assert!(tag);
    }

    #[test]
    fn straddling_data_store_clears_both_tags() {
        let mut m = TaggedMemory::new();
        let c = Capability::root_rw().set_bounds_exact(0x100, 64).unwrap();
        m.store_cap(0x40, c.to_compressed(), true).unwrap();
        m.store_cap(0x50, c.to_compressed(), true).unwrap();
        // 8-byte write straddling the 0x40/0x50 granule boundary.
        m.write_u64(0x4c, 0).unwrap();
        assert!(!m.load_cap(0x40).unwrap().1);
        assert!(!m.load_cap(0x50).unwrap().1);
    }

    #[test]
    fn unaligned_cap_access_rejected() {
        let mut m = TaggedMemory::new();
        assert_eq!(
            m.load_cap(0x41).unwrap_err(),
            MemError::UnalignedCapAccess { addr: 0x41 }
        );
        assert!(m.store_cap(0x48 + 4, CompressedCap::NULL, false).is_err());
    }

    #[test]
    fn cap_store_then_cap_load_via_bytes_loses_tag() {
        // Reading capability bytes as data is fine; re-storing them as data
        // yields an untagged image (no forgery).
        let mut m = TaggedMemory::new();
        let c = Capability::root_rw().set_bounds_exact(0x100, 64).unwrap();
        m.store_cap(0x40, c.to_compressed(), true).unwrap();
        let mut img = [0u8; 16];
        m.read_bytes(0x40, &mut img).unwrap();
        m.write_bytes(0x60, &img).unwrap();
        let (cc, tag) = m.load_cap(0x60).unwrap();
        assert!(!tag, "data writes can never set a tag");
        assert_eq!(cc, c.to_compressed(), "bit pattern still matches");
    }

    #[test]
    fn footprint_counts_pages() {
        let mut m = TaggedMemory::new();
        m.write_u8(0, 1).unwrap();
        m.write_u8(PAGE_SIZE * 10, 1).unwrap();
        m.write_u8(PAGE_SIZE * 10 + 5, 1).unwrap();
        assert_eq!(m.pages_touched(), 2);
        assert_eq!(m.footprint_bytes(), 2 * PAGE_SIZE);
    }

    #[test]
    fn revocation_sweep_clears_only_stale_capabilities() {
        let mut m = TaggedMemory::new();
        let freed = Capability::root_rw().set_bounds_exact(0x8000, 64).unwrap();
        let live = Capability::root_rw().set_bounds_exact(0x9000, 64).unwrap();
        // Three stored capabilities: two stale, one live.
        m.store_cap(0x100, freed.to_compressed(), true).unwrap();
        m.store_cap(0x200, freed.inc_address(8).to_compressed(), true)
            .unwrap();
        m.store_cap(0x300, live.to_compressed(), true).unwrap();
        let (revoked, scanned) = m.revoke_region(0x8000, 0x8040);
        assert_eq!(revoked, 2);
        assert_eq!(scanned, 3);
        assert!(!m.load_cap(0x100).unwrap().1, "stale tag cleared");
        assert!(!m.load_cap(0x200).unwrap().1);
        assert!(m.load_cap(0x300).unwrap().1, "live capability survives");
        // Idempotent: nothing left to revoke.
        assert_eq!(m.revoke_region(0x8000, 0x8040), (0, 1));
    }

    #[test]
    fn sweep_accessors_enumerate_and_clear() {
        let mut m = TaggedMemory::new();
        let c = Capability::root_rw().set_bounds_exact(0x8000, 64).unwrap();
        m.store_cap(0x40, c.to_compressed(), true).unwrap();
        m.store_cap(PAGE_SIZE * 3 + 0x20, c.to_compressed(), true)
            .unwrap();
        m.write_u8(PAGE_SIZE * 9, 1).unwrap(); // touched, untagged page
        assert_eq!(
            m.touched_pages_in(0, PAGE_SIZE * 10),
            vec![0, PAGE_SIZE * 3, PAGE_SIZE * 9]
        );
        assert_eq!(
            m.tagged_granules_in(0, PAGE_SIZE * 10),
            vec![0x40, PAGE_SIZE * 3 + 0x20]
        );
        assert_eq!(m.tagged_granules_in(0x50, PAGE_SIZE * 10).len(), 1);
        let (cc, tag) = m.peek_cap(0x44).unwrap();
        assert!(tag);
        assert_eq!(cc, c.to_compressed());
        assert!(m.peek_cap(PAGE_SIZE * 20).is_none());
        assert!(m.clear_tag(0x40));
        assert!(!m.clear_tag(0x40), "second clear is a no-op");
        assert_eq!(m.tagged_granules_in(0, PAGE_SIZE * 10).len(), 1);
    }

    #[test]
    fn update_u64_counts_as_a_read_then_a_write() {
        let c = Capability::root_rw().set_bounds_exact(0x100, 64).unwrap();
        // In-page words (one granule, one tagged), a word straddling two
        // granules, and one straddling a page boundary.
        for addr in [0x40, 0x48, 0x2c, PAGE_SIZE - 4] {
            let mut split = TaggedMemory::new();
            let mut fused = TaggedMemory::new();
            for m in [&mut split, &mut fused] {
                m.store_cap(addr & !15, c.to_compressed(), true).unwrap();
                m.store_cap((addr & !15) + 16, c.to_compressed(), true)
                    .unwrap();
            }
            let old = split.read_u64(addr).unwrap();
            split.write_u64(addr, old ^ 0x0f).unwrap();
            fused.update_u64(addr, |v| v ^ 0x0f).unwrap();
            assert_eq!(fused.stats(), split.stats(), "{addr:#x}");
            assert_eq!(fused.read_u64(addr), split.read_u64(addr));
            for g in [addr & !15, (addr & !15) + 16] {
                assert_eq!(fused.peek_tag(g), split.peek_tag(g), "{g:#x}");
            }
            assert_eq!(fused.pages_touched(), split.pages_touched());
        }
        let mut m = TaggedMemory::new();
        m.write_u64(0x80, 0xf0).unwrap();
        m.update_u64(0x80, |v| v | 0x0f).unwrap();
        assert_eq!(m.read_u64(0x80).unwrap(), 0xff);
        let before = m.stats();
        assert!(m.update_u64(u64::MAX - 3, |v| v).is_err());
        assert_eq!(m.stats(), before, "a wrapping word counts nothing");
    }

    #[test]
    fn address_wrap_rejected() {
        let mut m = TaggedMemory::new();
        assert!(m.write_u64(u64::MAX - 3, 0).is_err());
        let mut buf = [0u8; 8];
        assert!(m.read_bytes(u64::MAX - 3, &mut buf).is_err());
    }

    #[test]
    fn stats_accumulate() {
        let mut m = TaggedMemory::new();
        m.write_u64(0, 1).unwrap();
        m.read_u32(0).unwrap();
        m.store_cap(16, CompressedCap::NULL, false).unwrap();
        m.load_cap(16).unwrap();
        let s = m.stats();
        assert_eq!(s.data_writes, 1);
        assert_eq!(s.bytes_written, 8);
        assert_eq!(s.data_reads, 1);
        assert_eq!(s.bytes_read, 4);
        assert_eq!(s.cap_writes, 1);
        assert_eq!(s.cap_reads, 1);
    }
}
