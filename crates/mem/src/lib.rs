//! # cheri-mem
//!
//! The memory substrate of the Morello model: a sparse, paged, **tagged**
//! memory in which every aligned 16-byte granule carries an out-of-band
//! capability-validity tag, plus footprint accounting and the heap
//! allocator's shared vocabulary (size classes, [`Allocation`],
//! [`AllocError`], [`HeapStats`]).
//!
//! Tags are the hardware root of CHERI's unforgeability: a capability can
//! only be loaded with its tag set if it was stored as a capability, and
//! any plain-data store to its granule clears the tag
//! ([`TaggedMemory::write_bytes`]).
//!
//! The allocator itself — classic 16-byte-aligned `malloc` for the hybrid
//! ABI, and capability disciplines that pad and align large allocations so
//! their bounds are representable in the compressed encoding — is
//! `cheri-revoke`'s `RevokingHeap`, which keeps its blocks' revocation
//! bitmap in this memory.
//!
//! ```
//! use cheri_mem::{size_class, TaggedMemory};
//!
//! let mut mem = TaggedMemory::new();
//! mem.write_u64(0x1000, 0xdead_beef).unwrap();
//! assert_eq!(mem.read_u64(0x1000).unwrap(), 0xdead_beef);
//! assert_eq!(size_class(100), Some(112));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod tagged;

pub use alloc::{size_class, AllocError, Allocation, HeapStats};
pub use tagged::{MemError, MemStats, PageHasher, TaggedMemory, CAP_GRANULE, PAGE_SIZE};
