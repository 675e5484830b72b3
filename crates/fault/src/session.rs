//! The per-run injection state machine: a [`FaultSession`] arms a
//! [`FaultPlan`]'s triggers and implements the interpreter's
//! [`FaultInjector`] hooks.
//!
//! Sessions are strictly deterministic: the interpreter polls at
//! architecturally defined points (instruction fetch, data access), the
//! first armed trigger whose site matches fires and disarms, and the
//! firing is journalled as an [`InjectionRecord`]. Re-running the same
//! plan against the same program yields a byte-identical journal — the
//! property the campaign engine's `--jobs` invariance rests on.
//!
//! Polls are cheap below a cached threshold per trigger family (fetch
//! polls see [`FaultKind::PccCorrupt`] triggers, data polls the rest):
//! the smallest retired count at which any armed trigger of the family
//! can match. A poll below it cannot fire anything and returns at once;
//! a poll at or past it runs the first-armed-match scan over the plan.
//! The smaller of the two is the session's
//! [`next_poll`](FaultInjector::next_poll), below which the fast engine
//! runs whole superblocks.
//!
//! A session built with [`FaultSession::until_decided`] serves a caller
//! that reads only the run's outcome and the journal's length: it
//! reports the run [`decided`](FaultInjector::decided) once it has
//! trapped and no trigger is left armed. The outcome is then `Trapped`
//! whatever follows, and the journal can no longer grow.

use crate::plan::{FaultKind, FaultPlan, Trigger};
use cheri_isa::{FaultInjector, InjectionKind, RecoveryPolicy};
use serde::{Deserialize, Serialize};

/// One journalled injection: which trigger fired, where, and what it
/// did. The `address` field holds the data effective address for memory
/// injections and the PC itself for PCC corruption.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectionRecord {
    /// Index into the plan's trigger list.
    pub trigger: usize,
    /// The corruption applied.
    pub kind: FaultKind,
    /// Retired-instruction count at the firing poll.
    pub retired: u64,
    /// PC of the instruction the injection rode on.
    pub pc: u64,
    /// Effective address of the access (PC for PCC corruption).
    pub address: u64,
    /// Whether the access was a store (`false` for loads and fetches).
    pub is_store: bool,
}

/// Armed triggers plus the journal and counters of one run.
#[derive(Clone, Debug)]
pub struct FaultSession {
    policy: RecoveryPolicy,
    triggers: Vec<Trigger>,
    armed: Vec<bool>,
    live: usize,
    // Retired count below which no armed PCC (`pcc_from`) or data
    // (`mem_from`) trigger can match; recomputed whenever one fires.
    pcc_from: u64,
    mem_from: u64,
    journal: Vec<InjectionRecord>,
    trapped: u64,
    unwinds: u64,
    /// Whether the run may stop once decided ([`FaultSession::until_decided`]).
    stops: bool,
}

impl FaultSession {
    /// Arms every trigger of the plan.
    pub fn new(plan: &FaultPlan) -> FaultSession {
        let mut session = FaultSession {
            policy: plan.policy,
            armed: vec![true; plan.triggers.len()],
            live: plan.triggers.len(),
            triggers: plan.triggers.clone(),
            pcc_from: 0,
            mem_from: 0,
            journal: Vec::new(),
            trapped: 0,
            unwinds: 0,
            stops: false,
        };
        session.rethreshold();
        session
    }

    /// As [`new`](FaultSession::new), for a caller that reads nothing of
    /// the run but its outcome and [`injected`](FaultSession::injected):
    /// the run stops as soon as it has trapped with no trigger left
    /// armed. Its events, statistics, trap and unwind counts then cover
    /// only the run up to that point.
    pub fn until_decided(plan: &FaultPlan) -> FaultSession {
        FaultSession {
            stops: true,
            ..FaultSession::new(plan)
        }
    }

    /// The injections that actually fired, in firing order.
    pub fn journal(&self) -> &[InjectionRecord] {
        &self.journal
    }

    /// Consumes the session, returning the journal.
    pub fn into_journal(self) -> Vec<InjectionRecord> {
        self.journal
    }

    /// Injections fired so far (== journal length).
    pub fn injected(&self) -> u64 {
        self.journal.len() as u64
    }

    /// Capability faults that reached the recovery handler. Counts every
    /// handled fault, so a single injection whose corruption keeps
    /// faulting under [`RecoveryPolicy::SkipFaultingOp`] counts once per
    /// re-trip — the analogue of a SIGPROT storm under a handler that
    /// keeps resuming.
    pub fn trapped_count(&self) -> u64 {
        self.trapped
    }

    /// Frames unwound by [`RecoveryPolicy::UnwindToCheckpoint`].
    pub fn unwinds(&self) -> u64 {
        self.unwinds
    }

    /// Fires trigger `i`, journalling the site.
    fn fire(&mut self, i: usize, retired: u64, pc: u64, address: u64, is_store: bool) {
        self.armed[i] = false;
        self.live -= 1;
        self.journal.push(InjectionRecord {
            trigger: i,
            kind: self.triggers[i].kind,
            retired,
            pc,
            address,
            is_store,
        });
        self.rethreshold();
    }

    /// Recomputes both family thresholds over the armed triggers: the
    /// smallest `TriggerSite::earliest_retired`, or `u64::MAX` when the
    /// family has none armed.
    fn rethreshold(&mut self) {
        self.pcc_from = u64::MAX;
        self.mem_from = u64::MAX;
        for (t, _) in self.triggers.iter().zip(&self.armed).filter(|(_, a)| **a) {
            let from = if t.kind == FaultKind::PccCorrupt {
                &mut self.pcc_from
            } else {
                &mut self.mem_from
            };
            *from = (*from).min(t.site.earliest_retired());
        }
    }
}

impl FaultInjector for FaultSession {
    fn active(&self) -> bool {
        self.live > 0
    }

    fn next_poll(&self) -> u64 {
        self.pcc_from.min(self.mem_from)
    }

    /// A trap fixes the outcome as `Trapped` (classification checks it
    /// first), and only an armed trigger can still grow the journal.
    fn decided(&self) -> bool {
        self.stops && self.trapped > 0 && self.live == 0
    }

    fn poll_pcc(&mut self, retired: u64, pc: u64) -> bool {
        if retired < self.pcc_from {
            return false;
        }
        let hit = self.triggers.iter().enumerate().find(|(i, t)| {
            self.armed[*i] && t.kind == FaultKind::PccCorrupt && t.site.matches_pcc(retired, pc)
        });
        match hit {
            Some((i, _)) => {
                self.fire(i, retired, pc, pc, false);
                true
            }
            None => false,
        }
    }

    fn poll_mem(
        &mut self,
        retired: u64,
        pc: u64,
        ea: u64,
        is_store: bool,
    ) -> Option<InjectionKind> {
        if retired < self.mem_from {
            return None;
        }
        let hit = self.triggers.iter().enumerate().find(|(i, t)| {
            self.armed[*i] && t.kind != FaultKind::PccCorrupt && t.site.matches_mem(retired, pc, ea)
        });
        match hit {
            Some((i, t)) => {
                let kind = t.kind;
                self.fire(i, retired, pc, ea, is_store);
                Some(kind.to_injection())
            }
            None => None,
        }
    }

    fn trapped(&mut self, _pc: u64) {
        self.trapped += 1;
    }

    fn unwound(&mut self, _pc: u64) {
        self.unwinds += 1;
    }

    fn policy(&self) -> RecoveryPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::TriggerSite;

    fn plan(triggers: Vec<Trigger>) -> FaultPlan {
        FaultPlan {
            seed: 0,
            triggers,
            policy: RecoveryPolicy::Abort,
        }
    }

    #[test]
    fn triggers_fire_once_and_disarm() {
        let p = plan(vec![Trigger {
            site: TriggerSite::AtRetired(10),
            kind: FaultKind::TagClear,
        }]);
        let mut s = FaultSession::new(&p);
        assert!(s.active());
        assert_eq!(s.poll_mem(5, 0x40, 0x1000, false), None);
        assert_eq!(
            s.poll_mem(10, 0x44, 0x1010, true),
            Some(InjectionKind::TagClear)
        );
        assert!(!s.active(), "single trigger fired, session goes inert");
        assert_eq!(s.poll_mem(11, 0x48, 0x1020, false), None);
        assert_eq!(s.injected(), 1);
        let r = s.journal()[0];
        assert_eq!(
            (r.trigger, r.retired, r.pc, r.address, r.is_store),
            (0, 10, 0x44, 0x1010, true)
        );
    }

    #[test]
    fn pcc_triggers_only_fire_at_fetch_polls() {
        let p = plan(vec![
            Trigger {
                site: TriggerSite::AtRetired(0),
                kind: FaultKind::PccCorrupt,
            },
            Trigger {
                site: TriggerSite::AtRetired(0),
                kind: FaultKind::PermDrop,
            },
        ]);
        let mut s = FaultSession::new(&p);
        // The mem poll skips the PCC trigger and fires the PermDrop one.
        assert_eq!(
            s.poll_mem(3, 0x10, 0x2000, false),
            Some(InjectionKind::PermDrop)
        );
        // The fetch poll fires the PCC trigger.
        assert!(s.poll_pcc(4, 0x14));
        assert!(!s.active());
        assert_eq!(s.journal()[1].address, 0x14, "PCC record holds the PC");
    }

    fn tag_clear(at: u64) -> Trigger {
        Trigger {
            site: TriggerSite::AtRetired(at),
            kind: FaultKind::TagClear,
        }
    }

    /// A deciding session is decided exactly once it has trapped with
    /// nothing left armed; a full session never is.
    #[test]
    fn decided_needs_a_trap_and_every_trigger_fired() {
        let p = plan(vec![tag_clear(10), tag_clear(20)]);
        let mut full = FaultSession::new(&p);
        let mut s = FaultSession::until_decided(&p);
        for s in [&mut full, &mut s] {
            assert_eq!(s.next_poll(), 10);
            assert!(s.poll_mem(10, 0x40, 0x1000, false).is_some());
            assert_eq!(s.next_poll(), 20);
            s.trapped(0x40);
            assert!(!s.decided(), "a trigger is still armed");
            assert!(s.poll_mem(25, 0x44, 0x1000, false).is_some());
            assert_eq!(s.next_poll(), u64::MAX, "nothing armed");
        }
        assert!(s.decided());
        assert!(!full.decided(), "a full session runs to the end");
    }

    /// A session that never traps (every hybrid run: its corruptions go
    /// unchecked) is never decided, however many triggers fire.
    #[test]
    fn a_session_that_never_traps_is_never_decided() {
        let mut s = FaultSession::until_decided(&plan(vec![tag_clear(1), tag_clear(2)]));
        assert!(!s.decided());
        assert!(s.poll_mem(1, 0x40, 0x1000, false).is_some());
        assert!(s.poll_mem(2, 0x44, 0x1000, false).is_some());
        assert!(!s.active());
        assert!(!s.decided(), "no trap, so the outcome is still open");
    }

    /// Range triggers can fire at any retired count, so while one is
    /// armed every poll counts: the engines run op by op.
    #[test]
    fn range_triggers_keep_every_poll() {
        let p = plan(vec![
            tag_clear(1_000),
            Trigger {
                site: TriggerSite::PcRange { lo: 0x40, hi: 0x44 },
                kind: FaultKind::PccCorrupt,
            },
        ]);
        let mut s = FaultSession::new(&p);
        assert_eq!(s.next_poll(), 0);
        assert!(s.poll_pcc(3, 0x40));
        assert_eq!(
            s.next_poll(),
            1_000,
            "only the retired-count trigger is left"
        );
    }

    #[test]
    fn counters_track_handler_activity() {
        let p = plan(Vec::new());
        let mut s = FaultSession::new(&p);
        assert!(!s.active());
        s.trapped(0x40);
        s.trapped(0x44);
        s.unwound(0x44);
        assert_eq!(s.trapped_count(), 2);
        assert_eq!(s.unwinds(), 1);
    }
}
