//! Allocation disciplines: the policy half of the revocation subsystem.

use cheri_cap::{representable_alignment, round_representable_length};
use serde::{Deserialize, Serialize};

/// What a discipline wants done once a free has been quarantined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpochAction {
    /// Recycle the `count` oldest quarantined blocks without scanning for
    /// stale capabilities — the pre-revocation behaviour, unsound against
    /// use-after-free but free of sweep traffic.
    SilentDrain {
        /// Blocks to recycle from the front of the quarantine.
        count: usize,
    },
    /// Run a full load-side tag sweep over the heap, revoke every
    /// capability into quarantined blocks, then recycle the whole
    /// quarantine (Cornucopia's epoch).
    TagSweep,
}

/// Blocks a [`StrategyKind::CapabilityPadded`] quarantine holds before
/// silently recycling half of them (the legacy fixed-size quarantine).
pub const PADDED_QUARANTINE_BLOCKS: usize = 256;

/// An allocation discipline: how blocks are laid out, whether frees are
/// quarantined, and when a revocation epoch fires.
///
/// Disciplines are stateless policy; all bookkeeping lives in
/// [`RevokingHeap`](crate::RevokingHeap). The selector is serialisable, so
/// interpreter/platform configuration (and therefore run journals) carry
/// it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Classic `malloc`: 16-byte alignment, no representability padding,
    /// immediate free-list reuse, no revocation. The hybrid-ABI
    /// discipline — structurally zero sweep cost.
    Classic,
    /// CHERI-aware padding plus the legacy fixed-size quarantine: freed
    /// blocks park until the quarantine exceeds
    /// [`PADDED_QUARANTINE_BLOCKS`], then half drain to the free lists
    /// with no sweep. The default capability-ABI discipline.
    #[default]
    CapabilityPadded,
    /// CHERI-aware padding plus a swept quarantine: freed blocks park
    /// until either threshold is exceeded, then a revocation epoch
    /// tag-sweeps the heap and recycles the whole quarantine. Larger
    /// thresholds mean fewer, larger sweeps — the amortisation knob
    /// `fig8_revocation` characterises.
    QuarantineSwept {
        /// Epoch fires once quarantined bytes exceed this.
        quarantine_bytes: u64,
        /// Epoch fires once quarantined blocks exceed this.
        quarantine_blocks: usize,
    },
}

impl StrategyKind {
    /// A swept quarantine with the given byte budget and an effectively
    /// unbounded block budget (the `fig8_revocation` knob).
    pub fn swept_bytes(quarantine_bytes: u64) -> StrategyKind {
        StrategyKind::QuarantineSwept {
            quarantine_bytes,
            quarantine_blocks: usize::MAX,
        }
    }

    /// Short human-readable discipline name.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Classic => "classic",
            StrategyKind::CapabilityPadded => "capability-padded",
            StrategyKind::QuarantineSwept { .. } => "quarantine-swept",
        }
    }

    /// Reserved size and base alignment for a size-class-rounded request.
    /// Returns `(padded, align)` with `align >= 16` a power of two.
    ///
    /// The padded disciplines grow the block to a representable length
    /// and align its base per the compressed-bounds contract, so
    /// `set_bounds_exact(addr, padded)` always succeeds. For `usable`
    /// near `u64::MAX` the rounding wraps (`padded < usable`); the heap
    /// rejects any request larger than its arena before laying it out.
    pub fn layout(self, usable: u64) -> (u64, u64) {
        match self {
            StrategyKind::Classic => (usable, 16),
            StrategyKind::CapabilityPadded | StrategyKind::QuarantineSwept { .. } => {
                let padded = round_representable_length(usable);
                (padded, representable_alignment(padded).max(16))
            }
        }
    }

    /// Whether frees are parked in the temporal-safety quarantine (false
    /// means immediate free-list reuse).
    pub fn quarantines(self) -> bool {
        !matches!(self, StrategyKind::Classic)
    }

    /// Whether the per-granule revocation bitmap in `TaggedMemory` is
    /// maintained (only sweeping disciplines consult it).
    pub fn maintains_bitmap(self) -> bool {
        matches!(self, StrategyKind::QuarantineSwept { .. })
    }

    /// Epoch decision, evaluated after every quarantined free against the
    /// current quarantine occupancy.
    pub fn epoch_after_free(
        self,
        quarantine_bytes: u64,
        quarantine_blocks: usize,
    ) -> Option<EpochAction> {
        match self {
            StrategyKind::Classic => None,
            StrategyKind::CapabilityPadded => (quarantine_blocks > PADDED_QUARANTINE_BLOCKS)
                .then_some(EpochAction::SilentDrain {
                    count: PADDED_QUARANTINE_BLOCKS / 2,
                }),
            StrategyKind::QuarantineSwept {
                quarantine_bytes: max_bytes,
                quarantine_blocks: max_blocks,
            } => (quarantine_bytes > max_bytes || quarantine_blocks > max_blocks)
                .then_some(EpochAction::TagSweep),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_never_pads_or_quarantines() {
        let s = StrategyKind::Classic;
        assert_eq!(s.layout(48), (48, 16));
        assert!(!s.quarantines());
        assert!(!s.maintains_bitmap());
        assert_eq!(s.epoch_after_free(u64::MAX, usize::MAX), None);
    }

    #[test]
    fn padded_matches_representability_contract() {
        let s = StrategyKind::CapabilityPadded;
        let (padded, align) = s.layout(5 << 20);
        assert_eq!(padded, round_representable_length(5 << 20));
        assert_eq!(align, representable_alignment(padded).max(16));
        assert!(s.quarantines());
        assert!(!s.maintains_bitmap());
        assert_eq!(
            s.epoch_after_free(0, PADDED_QUARANTINE_BLOCKS + 1),
            Some(EpochAction::SilentDrain {
                count: PADDED_QUARANTINE_BLOCKS / 2
            })
        );
        assert_eq!(s.epoch_after_free(u64::MAX, 1), None, "byte-blind");
    }

    #[test]
    fn swept_triggers_on_either_threshold() {
        let s = StrategyKind::QuarantineSwept {
            quarantine_bytes: 1024,
            quarantine_blocks: 8,
        };
        assert_eq!(
            s.layout(5 << 20),
            StrategyKind::CapabilityPadded.layout(5 << 20)
        );
        assert!(s.quarantines());
        assert!(s.maintains_bitmap());
        assert_eq!(s.epoch_after_free(1024, 8), None, "thresholds inclusive");
        assert_eq!(s.epoch_after_free(1025, 1), Some(EpochAction::TagSweep));
        assert_eq!(s.epoch_after_free(16, 9), Some(EpochAction::TagSweep));
    }

    #[test]
    fn kind_roundtrips() {
        for kind in [
            StrategyKind::Classic,
            StrategyKind::CapabilityPadded,
            StrategyKind::swept_bytes(64 << 10),
        ] {
            let json = serde_json::to_string(&kind).unwrap();
            let back: StrategyKind = serde_json::from_str(&json).unwrap();
            assert_eq!(kind, back);
        }
        assert_eq!(StrategyKind::default(), StrategyKind::CapabilityPadded);
    }
}
