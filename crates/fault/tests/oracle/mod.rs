//! The threshold-free injection session, kept as the reference that
//! [`morello_fault::FaultSession`] is tested against.
//!
//! Every poll scans all armed triggers for the first match, with no
//! early exit: the session's polls before it gained per-family
//! thresholds. `FaultSession` must return what this one returns on every
//! poll, report the same `active()`, and journal the same injections;
//! `poll_equivalence.rs` checks that over random plans and poll streams.
//! Neither the library nor any binary compiles this file.

use cheri_isa::{FaultInjector, InjectionKind};
use morello_fault::{FaultKind, FaultPlan, InjectionRecord, Trigger};

/// Armed triggers plus the journal of one run.
pub struct OracleSession {
    triggers: Vec<Trigger>,
    armed: Vec<bool>,
    live: usize,
    journal: Vec<InjectionRecord>,
}

impl OracleSession {
    /// Arms every trigger of the plan.
    pub fn new(plan: &FaultPlan) -> OracleSession {
        OracleSession {
            armed: vec![true; plan.triggers.len()],
            live: plan.triggers.len(),
            triggers: plan.triggers.clone(),
            journal: Vec::new(),
        }
    }

    /// The injections that actually fired, in firing order.
    pub fn journal(&self) -> &[InjectionRecord] {
        &self.journal
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
    }
}

impl FaultInjector for OracleSession {
    fn active(&self) -> bool {
        self.live > 0
    }

    fn poll_pcc(&mut self, retired: u64, pc: u64) -> bool {
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
}
