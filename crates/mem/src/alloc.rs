//! The heap allocator's shared vocabulary: size classes, allocation
//! results and errors, and cumulative statistics. The allocator itself
//! is `cheri-revoke`'s `RevokingHeap`.

use core::fmt;
use serde::{Deserialize, Serialize};

/// The result of a successful allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Allocation {
    /// Base address of the block.
    pub addr: u64,
    /// The caller-visible size (requested size rounded to the size class).
    pub usable: u64,
    /// The reserved size including representability padding
    /// (`padded >= usable`).
    pub padded: u64,
}

/// Allocation failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocError {
    /// The arena is exhausted.
    OutOfMemory {
        /// The request that failed, in bytes.
        requested: u64,
    },
    /// `free` of an address that is not a live allocation base.
    InvalidFree {
        /// The bogus address.
        addr: u64,
    },
    /// `free` of a block that is already sitting in the temporal-safety
    /// quarantine — a double free, as opposed to a wild free of an address
    /// the allocator never handed out.
    DoubleFreeQuarantined {
        /// Base address of the quarantined block.
        addr: u64,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory { requested } => {
                write!(f, "heap arena exhausted allocating {requested} bytes")
            }
            AllocError::InvalidFree { addr } => write!(f, "invalid free of {addr:#x}"),
            AllocError::DoubleFreeQuarantined { addr } => {
                write!(f, "double free of quarantined block {addr:#x}")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// Cumulative allocator statistics.
///
/// `padding_bytes` isolates the purecap-specific overhead: bytes reserved
/// purely to satisfy capability representability, the "utilized memory"
/// growth the paper reports for QuickJS (§4.4).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeapStats {
    /// Number of `malloc` calls.
    pub total_allocs: u64,
    /// Number of `free` calls.
    pub total_frees: u64,
    /// Sum of caller-requested bytes.
    pub requested_bytes: u64,
    /// Currently live (not freed) reserved bytes.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes`.
    pub peak_live_bytes: u64,
    /// Bytes reserved beyond the size class for representability.
    pub padding_bytes: u64,
    /// Arena high-water mark (bytes of address space consumed).
    pub arena_used: u64,
    /// Bytes currently parked in the temporal-safety quarantine.
    #[serde(default)]
    pub quarantine_bytes: u64,
    /// Blocks currently parked in the temporal-safety quarantine.
    #[serde(default)]
    pub quarantine_blocks: u64,
    /// High-water mark of `quarantine_bytes`.
    #[serde(default)]
    pub quarantine_bytes_hwm: u64,
    /// High-water mark of `quarantine_blocks`.
    #[serde(default)]
    pub quarantine_blocks_hwm: u64,
    /// Revocation epochs triggered (quarantine drains / tag sweeps).
    #[serde(default)]
    pub revocation_epochs: u64,
    /// Capability granules visited by revocation tag sweeps (populated by
    /// the `cheri-revoke` epoch engine; always 0 under disciplines that never sweep).
    #[serde(default)]
    pub sweep_granules_visited: u64,
    /// Capability tags cleared by revocation tag sweeps (populated by the
    /// `cheri-revoke` epoch engine; always 0 under disciplines that never sweep).
    #[serde(default)]
    pub sweep_tags_cleared: u64,
}

/// Rounds a request up to its size class: 16-byte granules up to
/// 1 KiB, 64-byte granules up to 8 KiB, pages above. A zero-byte
/// request takes the smallest class. Returns `None` when the rounding
/// overflows `u64`, a request no arena can satisfy.
pub fn size_class(size: u64) -> Option<u64> {
    let (granule, size) = match size.max(1) {
        s @ ..=1024 => (16, s),
        s @ ..=8192 => (64, s),
        s => (4096, s),
    };
    Some(size.checked_add(granule - 1)? & !(granule - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes() {
        assert_eq!(size_class(0), Some(16));
        assert_eq!(size_class(1), Some(16));
        assert_eq!(size_class(16), Some(16));
        assert_eq!(size_class(17), Some(32));
        assert_eq!(size_class(1024), Some(1024));
        assert_eq!(size_class(1025), Some(1088));
        assert_eq!(size_class(8192), Some(8192));
        assert_eq!(size_class(10_000), Some(12_288));
        assert_eq!(size_class(u64::MAX - 4095), Some(u64::MAX - 4095));
        assert_eq!(size_class(u64::MAX - 4094), None, "rounding overflows");
        assert_eq!(size_class(u64::MAX), None);
    }
}
