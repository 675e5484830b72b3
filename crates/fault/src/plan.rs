//! Serde-configurable, PRNG-seeded fault-injection plans.
//!
//! A [`FaultPlan`] is the *entire* specification of a campaign run: the
//! seed it was drawn from, the list of armed [`Trigger`]s, and the
//! [`RecoveryPolicy`] in force. Plans are plain data — they can be
//! serialised into a journal, diffed between hosts, and re-hydrated into
//! a [`FaultSession`](crate::FaultSession) to reproduce a run
//! bit-for-bit. Nothing about a plan depends on scheduling: the same
//! seed always yields the same triggers, regardless of `--jobs`.

use cheri_isa::{InjectionKind, RecoveryPolicy};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Where a trigger arms: the three trigger-site families of the issue —
/// instruction counts, PC ranges, and effective-address ranges.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TriggerSite {
    /// Fires at the first eligible poll once at least this many
    /// instructions have retired.
    AtRetired(u64),
    /// Fires at the first eligible poll whose PC lies in `[lo, hi)`.
    PcRange {
        /// Inclusive lower PC bound.
        lo: u64,
        /// Exclusive upper PC bound.
        hi: u64,
    },
    /// Fires at the first data access whose effective address lies in
    /// `[lo, hi)`. Never matches PCC corruption (which has no data
    /// address).
    AddrRange {
        /// Inclusive lower address bound.
        lo: u64,
        /// Exclusive upper address bound.
        hi: u64,
    },
}

impl TriggerSite {
    /// Whether a data access at (`retired`, `pc`, `ea`) matches.
    pub fn matches_mem(&self, retired: u64, pc: u64, ea: u64) -> bool {
        match *self {
            TriggerSite::AtRetired(n) => retired >= n,
            TriggerSite::PcRange { lo, hi } => lo <= pc && pc < hi,
            TriggerSite::AddrRange { lo, hi } => lo <= ea && ea < hi,
        }
    }

    /// The smallest retired count at which this site can match: its
    /// point for [`TriggerSite::AtRetired`], 0 for the ranges (which
    /// match at any count).
    pub(crate) fn earliest_retired(&self) -> u64 {
        match *self {
            TriggerSite::AtRetired(n) => n,
            TriggerSite::PcRange { .. } | TriggerSite::AddrRange { .. } => 0,
        }
    }

    /// Whether an instruction fetch at (`retired`, `pc`) matches.
    /// Address ranges never match — there is no data address.
    pub fn matches_pcc(&self, retired: u64, pc: u64) -> bool {
        match *self {
            TriggerSite::AtRetired(n) => retired >= n,
            TriggerSite::PcRange { lo, hi } => lo <= pc && pc < hi,
            TriggerSite::AddrRange { .. } => false,
        }
    }
}

/// What corruption a trigger injects — the serde mirror of
/// [`cheri_isa::InjectionKind`], kept separate so plans round-trip
/// through JSON without the interpreter crate needing serde on its
/// internal enum.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Clear the capability tag of the base register (hybrid: nudge the
    /// raw pointer — the corruption a tag would have caught).
    TagClear,
    /// Move the address just past the upper bound plus `delta`.
    BoundsNudge {
        /// Extra displacement beyond the upper bound.
        delta: u64,
    },
    /// Drop load/store permissions from the base capability.
    PermDrop,
    /// Corrupt the program counter capability at an instruction fetch.
    PccCorrupt,
}

impl FaultKind {
    /// The interpreter-side injection this plan-side kind requests.
    pub fn to_injection(self) -> InjectionKind {
        match self {
            FaultKind::TagClear => InjectionKind::TagClear,
            FaultKind::BoundsNudge { delta } => InjectionKind::BoundsNudge { delta },
            FaultKind::PermDrop => InjectionKind::PermDrop,
            FaultKind::PccCorrupt => InjectionKind::PccCorrupt,
        }
    }
}

/// One armed injection: a site and the corruption to apply there. Each
/// trigger fires at most once per run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trigger {
    /// Where the trigger fires.
    pub site: TriggerSite,
    /// What it injects.
    pub kind: FaultKind,
}

/// A complete, reproducible injection campaign for one run.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The seed the triggers were drawn from (recorded for the journal;
    /// the triggers themselves are already materialised).
    pub seed: u64,
    /// The armed triggers, in arming order.
    pub triggers: Vec<Trigger>,
    /// Fault disposition for the run.
    pub policy: RecoveryPolicy,
}

impl FaultPlan {
    /// An empty plan: no triggers, the given policy. Useful as a
    /// baseline cell in sweeps.
    pub fn empty(policy: RecoveryPolicy) -> FaultPlan {
        FaultPlan {
            seed: 0,
            triggers: Vec::new(),
            policy,
        }
    }

    /// Draws `n` tag-clear triggers at seeded instruction counts within
    /// the first half of `horizon` retired instructions (see
    /// [`campaign`](FaultPlan::campaign)).
    pub fn tag_clear_campaign(seed: u64, n: usize, horizon: u64) -> FaultPlan {
        FaultPlan::campaign(
            seed,
            &[FaultKind::TagClear],
            n,
            horizon,
            RecoveryPolicy::SkipFaultingOp,
        )
    }

    /// Draws `n` triggers with kinds cycled from `kinds` at seeded
    /// instruction counts in `[1, horizon/2]`. `horizon` should be the
    /// retired-instruction count of the *shortest* clean run across the
    /// ABIs that will execute the plan, so every trigger point is
    /// reachable under every ABI (capability ABIs retire at least as
    /// many instructions as hybrid for the same workload).
    ///
    /// # Panics
    ///
    /// Panics when `kinds` is empty and `n > 0`.
    pub fn campaign(
        seed: u64,
        kinds: &[FaultKind],
        n: usize,
        horizon: u64,
        policy: RecoveryPolicy,
    ) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let hi = (horizon / 2).max(1);
        let mut points: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=hi)).collect();
        points.sort_unstable();
        let triggers = points
            .into_iter()
            .enumerate()
            .map(|(i, at)| Trigger {
                site: TriggerSite::AtRetired(at),
                kind: kinds[i % kinds.len()],
            })
            .collect();
        FaultPlan {
            seed,
            triggers,
            policy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let a = FaultPlan::tag_clear_campaign(42, 8, 100_000);
        let b = FaultPlan::tag_clear_campaign(42, 8, 100_000);
        assert_eq!(a, b);
        let c = FaultPlan::tag_clear_campaign(43, 8, 100_000);
        assert_ne!(a, c, "different seeds must draw different points");
    }

    #[test]
    fn trigger_points_stay_within_half_the_horizon() {
        let p = FaultPlan::tag_clear_campaign(7, 64, 10_000);
        assert_eq!(p.triggers.len(), 64);
        for t in &p.triggers {
            match t.site {
                TriggerSite::AtRetired(n) => assert!((1..=5_000).contains(&n)),
                _ => panic!("campaign draws AtRetired sites only"),
            }
        }
    }

    #[test]
    fn kinds_cycle_through_the_mix() {
        let kinds = [
            FaultKind::TagClear,
            FaultKind::BoundsNudge { delta: 32 },
            FaultKind::PermDrop,
        ];
        let p = FaultPlan::campaign(1, &kinds, 6, 1_000, RecoveryPolicy::Abort);
        let drawn: Vec<FaultKind> = p.triggers.iter().map(|t| t.kind).collect();
        for k in kinds {
            assert!(drawn.contains(&k), "missing {k:?}");
        }
    }

    #[test]
    fn plans_round_trip_through_json() {
        let p = FaultPlan::campaign(
            9,
            &[FaultKind::PccCorrupt, FaultKind::PermDrop],
            4,
            50_000,
            RecoveryPolicy::UnwindToCheckpoint,
        );
        let s = serde_json::to_string(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&s).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn site_matching_semantics() {
        let at = TriggerSite::AtRetired(100);
        assert!(!at.matches_mem(99, 0, 0));
        assert!(at.matches_mem(100, 0, 0));
        assert!(at.matches_pcc(250, 7));

        let pc = TriggerSite::PcRange { lo: 10, hi: 20 };
        assert!(pc.matches_mem(0, 10, 999));
        assert!(!pc.matches_mem(0, 20, 999));
        assert!(pc.matches_pcc(0, 19));

        let addr = TriggerSite::AddrRange {
            lo: 0x1000,
            hi: 0x2000,
        };
        assert!(addr.matches_mem(0, 0, 0x1000));
        assert!(!addr.matches_mem(0, 0, 0x2000));
        assert!(
            !addr.matches_pcc(u64::MAX, 0x1800),
            "no data address at a fetch"
        );
    }
}
