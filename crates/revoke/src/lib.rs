//! # cheri-revoke
//!
//! Heap temporal safety for the Morello model: the heap allocator
//! ([`RevokingHeap`]), an epoch-driven tag-sweep revoker
//! (Cornucopia/CheriBSD style) and the allocator disciplines it is run
//! under.
//!
//! Freed capability blocks are parked in a quarantine; when a
//! discipline's threshold is exceeded a *revocation epoch* fires, the
//! per-granule revocation bitmap kept in
//! [`TaggedMemory`](cheri_mem::TaggedMemory) is consulted, and a
//! load-side tag sweep walks the heap clearing the tag of every
//! capability that still points into quarantined blocks. Only then is
//! the memory recycled — a use-after-free can never reach a new owner.
//!
//! The sweep's memory traffic is returned as a deterministic access list
//! ([`SweepOutcome::accesses`]) that `cheri-isa` replays as retired
//! load/store events, so sweeps cost cycles and pollute the L1D/L2/TLB
//! exactly like the paper's measured revocation overheads.
//!
//! Three disciplines ship, selected by [`StrategyKind`]:
//!
//! * [`StrategyKind::Classic`] — no padding, immediate reuse, no
//!   revocation (hybrid ABI; structurally zero sweep cost).
//! * [`StrategyKind::CapabilityPadded`] — representability padding plus
//!   the legacy fixed-size silent quarantine (the default capability-ABI
//!   behaviour).
//! * [`StrategyKind::QuarantineSwept`] — padding plus a swept quarantine
//!   with configurable byte/block thresholds, the `fig8_revocation`
//!   amortisation knob.
//!
//! ```
//! use cheri_mem::TaggedMemory;
//! use cheri_revoke::{RevokingHeap, StrategyKind};
//!
//! let mut mem = TaggedMemory::new();
//! let mut heap = RevokingHeap::new(
//!     0x4010_0000,
//!     0x5000_0000,
//!     0x4008_0000,
//!     StrategyKind::swept_bytes(64 << 10),
//! );
//! let a = heap.malloc(4096).unwrap();
//! let freed = heap.free(&mut mem, a.addr).unwrap();
//! assert!(freed.sweep.is_none(), "below threshold: no epoch yet");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod epoch;
mod heap;
mod strategy;

pub use epoch::{MemAccess, RevocationEpoch, SweepOutcome, BITMAP_BYTES};
pub use heap::{FreeOutcome, RevokingHeap};
pub use strategy::{EpochAction, StrategyKind, PADDED_QUARANTINE_BLOCKS};
