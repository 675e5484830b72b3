//! Poll equivalence: [`FaultSession`]'s thresholded polls answer exactly
//! as the threshold-free scan kept in `oracle/`.
//!
//! The property draws plans that mix all three trigger-site families and
//! all four fault kinds in unsorted order, and poll streams with a
//! monotone retired count, random PCs and addresses, fetch polls and both
//! loads and stores. PCs, addresses and trigger points come from small
//! ranges so that polls land on, just before and just past trigger
//! boundaries. Every poll result, every `active()` reading and the final
//! journal must match.

mod oracle;

use cheri_isa::{FaultInjector, RecoveryPolicy};
use morello_fault::{FaultKind, FaultPlan, FaultSession, Trigger, TriggerSite};
use oracle::OracleSession;
use proptest::collection::vec;
use proptest::prelude::*;

fn site() -> impl Strategy<Value = TriggerSite> {
    prop_oneof![
        (0_u64..120).prop_map(TriggerSite::AtRetired),
        (0_u64..48, 1_u64..16).prop_map(|(lo, len)| TriggerSite::PcRange { lo, hi: lo + len }),
        (0_u64..160, 1_u64..32).prop_map(|(lo, len)| TriggerSite::AddrRange { lo, hi: lo + len }),
    ]
}

fn kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        Just(FaultKind::TagClear),
        (0_u64..64).prop_map(|delta| FaultKind::BoundsNudge { delta }),
        Just(FaultKind::PermDrop),
        Just(FaultKind::PccCorrupt),
    ]
}

fn plan() -> impl Strategy<Value = FaultPlan> {
    vec((site(), kind()), 0..10).prop_map(|triggers| FaultPlan {
        seed: 0,
        triggers: triggers
            .into_iter()
            .map(|(site, kind)| Trigger { site, kind })
            .collect(),
        policy: RecoveryPolicy::SkipFaultingOp,
    })
}

/// One poll: retired-count step, poll type (0 fetch, 1 load, 2 store),
/// PC, effective address.
fn polls() -> impl Strategy<Value = Vec<(u64, u8, u64, u64)>> {
    vec((0_u64..4, 0_u8..3, 0_u64..64, 0_u64..192), 0..160)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn thresholded_polls_match_the_full_scan(plan in plan(), polls in polls()) {
        let mut session = FaultSession::new(&plan);
        let mut oracle = OracleSession::new(&plan);
        prop_assert_eq!(session.active(), oracle.active());
        let mut retired = 0_u64;
        for (i, (step, poll, pc, ea)) in polls.into_iter().enumerate() {
            retired += step;
            if poll == 0 {
                prop_assert_eq!(
                    session.poll_pcc(retired, pc),
                    oracle.poll_pcc(retired, pc),
                    "fetch poll {} at retired {}", i, retired
                );
            } else {
                let is_store = poll == 2;
                prop_assert_eq!(
                    session.poll_mem(retired, pc, ea, is_store),
                    oracle.poll_mem(retired, pc, ea, is_store),
                    "data poll {} at retired {}", i, retired
                );
            }
            prop_assert_eq!(session.active(), oracle.active(), "after poll {}", i);
        }
        prop_assert_eq!(session.journal(), oracle.journal());
    }
}
