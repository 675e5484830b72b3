//! Armed differential cells: the fast engine under a live injector
//! ([`Interp::run_with_faults`]: its superblock loop up to each poll that
//! can fire, its per-op driver from there) against the reference
//! executor ([`Interp::run_reference_with_faults`], the test oracle).
//!
//! Each case runs one [`FaultPlan`] on both engines, each with a fresh
//! [`FaultSession`], and requires the same retired-event stream (with
//! class hints) and region crossings, per op and in block batches, the
//! same `RunResult` or `InterpError`, and the same journal, injection,
//! trap and unwind counts.
//!
//! Coverage:
//!
//! * `omnetpp_520`, `xz_557` and `sqlite` × every supported ABI × the
//!   three recovery policies × seeded tag-clear plans (also under the
//!   coverage campaign's deciding session) and mixed campaign plans
//!   with PCC triggers, at test scale;
//! * random plans (every site family and kind, any policy) on small
//!   generated programs, including a hybrid load whose offset register
//!   is its base register;
//! * the driver handovers: a trigger at every retired count of a small
//!   program (so it lands at every offset of every block), the faults
//!   those cause mid-block under each policy, fuel running out at and
//!   inside every block after the per-op driver handed back, and range
//!   triggers, which must keep the fast engine polling every op.

use cheri_isa::{
    lower, Abi, Cond, EventSink, FaultInjector, InjectionKind, Interp, InterpConfig, InterpError,
    MemSize, NullSink, OpClass, Operand, Program, ProgramBuilder, RetiredEvent,
};
use cheri_workloads::{by_key, Scale};
use morello_fault::{FaultKind, FaultPlan, FaultSession, RecoveryPolicy, Trigger, TriggerSite};
use proptest::prelude::*;

/// One observable emission: a retired event with its class hint, or a
/// region-marker crossing.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Obs {
    Retire(RetiredEvent, OpClass),
    Region(u32),
}

/// Records the observation stream. The reference engine calls the
/// plain `retire` (the class is recomputed here); the fast engine
/// passes its decode-time hint, so equal streams also prove the hints.
#[derive(Default)]
struct Recorder {
    obs: Vec<Obs>,
}

impl EventSink for Recorder {
    fn retire(&mut self, ev: RetiredEvent) {
        self.obs.push(Obs::Retire(ev, OpClass::of(ev.pc, &ev.info)));
    }
    fn retire_classified(&mut self, ev: RetiredEvent, class: OpClass) {
        self.obs.push(Obs::Retire(ev, class));
    }
    fn region(&mut self, id: u32) {
        self.obs.push(Obs::Region(id));
    }
}

/// As [`Recorder`], taking the fast engine's per-block batches.
#[derive(Default)]
struct Batched(Recorder);

impl EventSink for Batched {
    const WANTS_BLOCK_EVENTS: bool = true;

    fn retire(&mut self, ev: RetiredEvent) {
        self.0.retire(ev);
    }
    fn retire_classified(&mut self, ev: RetiredEvent, class: OpClass) {
        self.0.retire_classified(ev, class);
    }
    fn region(&mut self, id: u32) {
        self.0.region(id);
    }
}

const POLICIES: [RecoveryPolicy; 3] = [
    RecoveryPolicy::Abort,
    RecoveryPolicy::SkipFaultingOp,
    RecoveryPolicy::UnwindToCheckpoint,
];

/// Runs `plan` on both engines and asserts they agree on everything
/// observable; returns the fast engine's session for further checks.
fn diff_armed(prog: &Program, cfg: InterpConfig, plan: &FaultPlan, ctx: &str) -> FaultSession {
    diff_armed_with(FaultSession::new, prog, cfg, plan, ctx)
}

/// As [`diff_armed`], with sessions built by `session`.
fn diff_armed_with(
    session: fn(&FaultPlan) -> FaultSession,
    prog: &Program,
    cfg: InterpConfig,
    plan: &FaultPlan,
    ctx: &str,
) -> FaultSession {
    let interp = Interp::new(cfg);
    let mut ref_sink = Recorder::default();
    let mut ref_inj = session(plan);
    let ref_out = interp.run_reference_with_faults(prog, &mut ref_sink, &mut ref_inj);
    let mut fast_sink = Recorder::default();
    let mut fast_inj = session(plan);
    let fast_out = interp.run_with_faults(prog, &mut fast_sink, &mut fast_inj);
    let mut batched = Batched::default();
    let batched_out = interp.run_with_faults(prog, &mut batched, &mut session(plan));

    for (fast, how) in [(&fast_sink, "per op"), (&batched.0, "in batches")] {
        if let Some(i) = ref_sink.obs.iter().zip(&fast.obs).position(|(r, f)| r != f) {
            panic!(
                "{ctx}: first event divergence ({how}) at index {i}: reference {:?} vs fast {:?}",
                ref_sink.obs[i], fast.obs[i]
            );
        }
        assert_eq!(
            ref_sink.obs.len(),
            fast.obs.len(),
            "{ctx}: event-stream lengths differ ({how})"
        );
    }
    assert_eq!(
        format!("{fast_out:?}"),
        format!("{batched_out:?}"),
        "{ctx}: delivery changed the run"
    );
    match (&ref_out, &fast_out) {
        (Ok(r), Ok(f)) => assert_eq!(
            format!("{r:?}"),
            format!("{f:?}"),
            "{ctx}: architectural results differ"
        ),
        (Err(r), Err(f)) => assert_eq!(r, f, "{ctx}: engines fail with different errors"),
        _ => panic!("{ctx}: engines disagree: reference {ref_out:?} vs fast {fast_out:?}"),
    }
    assert_eq!(
        ref_inj.journal(),
        fast_inj.journal(),
        "{ctx}: journals differ"
    );
    assert_eq!(ref_inj.injected(), fast_inj.injected(), "{ctx}: injected");
    assert_eq!(
        ref_inj.trapped_count(),
        fast_inj.trapped_count(),
        "{ctx}: trapped counts differ"
    );
    assert_eq!(
        ref_inj.unwinds(),
        fast_inj.unwinds(),
        "{ctx}: unwinds differ"
    );
    fast_inj
}

fn clean_retired(prog: &Program) -> u64 {
    Interp::new(InterpConfig::default())
        .run(prog, &mut NullSink)
        .expect("clean workload run")
        .retired
}

/// The campaign cells: three fig. 9 workloads × every supported ABI ×
/// every recovery policy × two seeds of a tag-clear plan, a mixed plan,
/// and a mixed burst whose triggers crowd the first few dozen retired
/// instructions, so several fire at one poll (stacked injections, and
/// hybrid's re-poll after an unchecked PCC corruption).
#[test]
fn armed_workload_cells_are_identical() {
    let mixed_kinds = [
        FaultKind::PccCorrupt,
        FaultKind::TagClear,
        FaultKind::PccCorrupt,
        FaultKind::BoundsNudge { delta: 48 },
        FaultKind::PermDrop,
    ];
    let (mut cells, mut fired, mut trapped, mut unwound, mut decided) = (0, 0, 0, 0, 0);
    for key in ["omnetpp_520", "xz_557", "sqlite"] {
        let w = by_key(key).expect("registry workload");
        let progs: Vec<(Abi, Program)> = Abi::ALL
            .into_iter()
            .filter(|a| w.supports(*a))
            .map(|a| (a, lower(&w.build(a, Scale::Test))))
            .collect();
        // Plans sized off the shortest clean run, as fig. 9 sizes them,
        // so every trigger point is reachable under every ABI.
        let horizon = progs.iter().map(|(_, p)| clean_retired(p)).min().unwrap();
        // Room for a nudged hybrid pointer to spin without making the
        // cell slow; a run that spins to the cap compares its
        // `FuelExhausted` error instead.
        let cfg = InterpConfig {
            max_insts: horizon * 4,
            ..InterpConfig::default()
        };
        for (abi, prog) in &progs {
            for policy in POLICIES {
                for seed in [1u64, 2] {
                    let tag = FaultPlan {
                        policy,
                        ..FaultPlan::tag_clear_campaign(seed, 6, horizon)
                    };
                    let mixed = FaultPlan::campaign(seed, &mixed_kinds, 24, horizon, policy);
                    let burst = FaultPlan::campaign(seed, &mixed_kinds, 24, 64, policy);
                    // The coverage campaign's deciding session, too: both
                    // engines stop at the same point.
                    let ctx = format!("{key}/{abi}/{policy:?}/tag{seed}/until-decided");
                    let s = diff_armed_with(FaultSession::until_decided, prog, cfg, &tag, &ctx);
                    decided += u32::from(s.decided());
                    for (name, plan) in [("tag", tag), ("mixed", mixed), ("burst", burst)] {
                        let ctx = format!("{key}/{abi}/{policy:?}/{name}{seed}");
                        let s = diff_armed(prog, cfg, &plan, &ctx);
                        cells += 1;
                        fired += s.injected();
                        trapped += s.trapped_count();
                        unwound += s.unwinds();
                    }
                }
            }
        }
    }
    assert!(cells >= 140, "expected the full matrix, ran {cells} cells");
    // The cells must exercise what they claim to: firings, traps and
    // unwinds all happen somewhere in the matrix.
    assert!(
        fired > 0 && trapped > 0 && unwound > 0 && decided > 0,
        "{fired}/{trapped}/{unwound}/{decided}"
    );
}

/// A compact random-program op, realised per ABI through the builder.
#[derive(Clone, Debug)]
enum Step {
    AddConst(u8),
    StoreSlot(u8),
    LoadSlot(u8),
    LoadIdx(u8),
    AllocTouch(u16),
    LoopAccum(u8),
    CallHelper,
    BranchOnBit(u8),
    /// Hybrid only: a load whose offset register is its base register.
    AliasLoad,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        any::<u8>().prop_map(Step::AddConst),
        (0u8..16).prop_map(Step::StoreSlot),
        (0u8..16).prop_map(Step::LoadSlot),
        (0u8..16).prop_map(Step::LoadIdx),
        (16u16..512).prop_map(Step::AllocTouch),
        (1u8..12).prop_map(Step::LoopAccum),
        Just(Step::CallHelper),
        (0u8..8).prop_map(Step::BranchOnBit),
        Just(Step::AliasLoad),
    ]
}

fn realise(steps: &[Step], abi: Abi) -> Program {
    let mut b = ProgramBuilder::new("armed", abi);
    let g = b.global_zero("scratch", 256);
    let helper = b.function("helper", 1, |f| {
        let r = f.vreg();
        f.eor(r, f.arg(0), 0x5a5ai64);
        f.lsr(r, r, 1);
        f.ret(Some(r));
    });
    let steps = steps.to_vec();
    let main = b.function("main", 0, |f| {
        let acc = f.vreg();
        f.mov_imm(acc, 0x1234);
        let base = f.vreg();
        f.lea_global(base, g, 0);
        for s in &steps {
            match s {
                Step::AddConst(k) => f.add(acc, acc, i64::from(*k)),
                Step::StoreSlot(k) => f.store_int(acc, base, i64::from(*k) * 8, MemSize::S8),
                Step::LoadSlot(k) => {
                    let v = f.vreg();
                    f.load_int(v, base, i64::from(*k) * 8, MemSize::S8);
                    f.add(acc, acc, v);
                }
                Step::LoadIdx(k) => {
                    let i = f.vreg();
                    f.mov_imm(i, u64::from(*k));
                    let v = f.vreg();
                    f.load_int_idx(v, base, i, MemSize::S8);
                    f.eor(acc, acc, v);
                }
                Step::AllocTouch(sz) => {
                    let p = f.vreg();
                    f.malloc(p, u64::from(*sz));
                    f.store_int(acc, p, 0, MemSize::S8);
                    let v = f.vreg();
                    f.load_int(v, p, 0, MemSize::S8);
                    f.add(acc, acc, v);
                    f.free(p);
                }
                Step::LoopAccum(n) => {
                    let lim = f.vreg();
                    f.mov_imm(lim, u64::from(*n));
                    f.for_loop(0, lim, 1, |f, i| {
                        f.store_int(i, base, 8, MemSize::S8);
                        f.add(acc, acc, i);
                    });
                }
                Step::CallHelper => {
                    let r = f.vreg();
                    f.call(helper, &[acc], Some(r));
                    f.add(acc, acc, r);
                }
                Step::BranchOnBit(bit) => {
                    let t = f.vreg();
                    f.lsr(t, acc, i64::from(*bit));
                    f.and(t, t, 1);
                    let skip = f.label();
                    f.br(Cond::Eq, t, 0, skip);
                    f.eor(acc, acc, 0xffi64);
                    f.bind(skip);
                }
                Step::AliasLoad if abi == Abi::Hybrid => {
                    // `base + base`: a wild but well-defined hybrid read.
                    let v = f.vreg();
                    f.load_int(v, base, Operand::Reg(base), MemSize::S8);
                    f.eor(acc, acc, v);
                }
                Step::AliasLoad => {}
            }
        }
        f.and(acc, acc, 0xFFFF_FFFFi64);
        f.halt_code(acc);
    });
    b.set_entry(main);
    lower(&b.build())
}

/// A trigger site before it is mapped onto one program: a retired
/// count, or fractions (in 1/1024ths) of the program's code span or of
/// its scratch global.
#[derive(Clone, Copy, Debug)]
enum SiteSpec {
    At(u64),
    Pc(u16, u16),
    Addr(u16, u16),
}

fn site_strategy() -> impl Strategy<Value = SiteSpec> {
    prop_oneof![
        (0u64..3000).prop_map(SiteSpec::At),
        (0u16..1024, 1u16..256).prop_map(|(lo, w)| SiteSpec::Pc(lo, w)),
        (0u16..1024, 1u16..512).prop_map(|(lo, w)| SiteSpec::Addr(lo, w)),
    ]
}

fn kind_strategy() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        Just(FaultKind::TagClear),
        (0u64..256).prop_map(|delta| FaultKind::BoundsNudge { delta }),
        Just(FaultKind::PermDrop),
        Just(FaultKind::PccCorrupt),
    ]
}

/// Maps `spec` onto `prog`'s code span and scratch global.
fn site(prog: &Program, spec: SiteSpec) -> TriggerSite {
    let map = &prog.map;
    let code_lo = *map.func_base.iter().min().unwrap();
    let code_hi = map
        .func_base
        .iter()
        .zip(&map.func_size)
        .map(|(b, s)| b + s)
        .max()
        .unwrap();
    let frac = |lo: u64, hi: u64, f: u16| lo + (hi - lo) * u64::from(f) / 1024;
    match spec {
        SiteSpec::At(n) => TriggerSite::AtRetired(n),
        SiteSpec::Pc(lo, w) => {
            let lo = frac(code_lo, code_hi, lo);
            TriggerSite::PcRange {
                lo,
                hi: lo + u64::from(w) * 4,
            }
        }
        SiteSpec::Addr(lo, w) => {
            let g = map.global_base[0];
            let lo = frac(g, g + 256, lo);
            TriggerSite::AddrRange {
                lo,
                hi: lo + u64::from(w),
            }
        }
    }
}

fn policy_strategy() -> impl Strategy<Value = RecoveryPolicy> {
    prop_oneof![
        Just(RecoveryPolicy::Abort),
        Just(RecoveryPolicy::SkipFaultingOp),
        Just(RecoveryPolicy::UnwindToCheckpoint),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random plans on random small programs, every ABI: both engines
    /// agree on every stream, outcome and injector counter.
    #[test]
    fn random_plans_are_identical(
        steps in proptest::collection::vec(step_strategy(), 1..20),
        triggers in proptest::collection::vec((site_strategy(), kind_strategy()), 0..8),
        policy in policy_strategy(),
    ) {
        let cfg = InterpConfig {
            max_insts: 50_000,
            ..InterpConfig::default()
        };
        for abi in Abi::ALL {
            let prog = realise(&steps, abi);
            let plan = FaultPlan {
                seed: 0,
                triggers: triggers
                    .iter()
                    .map(|&(spec, kind)| Trigger { site: site(&prog, spec), kind })
                    .collect(),
                policy,
            };
            diff_armed(&prog, cfg, &plan, &format!("random/{abi}/{policy:?}"));
        }
    }
}

/// Two PCC triggers due at the same fetch: under hybrid the first
/// corruption is unchecked, the same fetch is polled again and the
/// second fires there too; under the capability ABIs each trips the
/// handler. Every policy must journal both at one retired count.
#[test]
fn stacked_pcc_triggers_fire_at_one_fetch_on_both_engines() {
    let steps = [Step::AddConst(3), Step::CallHelper, Step::LoopAccum(4)];
    for abi in Abi::ALL {
        let prog = realise(&steps, abi);
        for policy in POLICIES {
            let pcc = Trigger {
                site: TriggerSite::AtRetired(6),
                kind: FaultKind::PccCorrupt,
            };
            let plan = FaultPlan {
                seed: 0,
                triggers: vec![pcc, pcc],
                policy,
            };
            let s = diff_armed(
                &prog,
                InterpConfig::default(),
                &plan,
                &format!("stacked/{abi}/{policy:?}"),
            );
            let j = s.journal();
            if abi == Abi::Hybrid || policy != RecoveryPolicy::Abort {
                assert_eq!(j.len(), 2, "{abi}/{policy:?}: {j:?}");
                assert_eq!(j[0].retired, j[1].retired, "{abi}/{policy:?}");
            }
        }
    }
}

/// A small program with long straight-line blocks, loops, a call, an
/// allocation and a free, whose loads and stores all go through one
/// base pointer: a corrupted base faults at its next use, mid-block.
fn handover_program(abi: Abi) -> Program {
    realise(
        &[
            Step::AddConst(1),
            Step::StoreSlot(1),
            Step::LoadSlot(2),
            Step::AddConst(2),
            Step::StoreSlot(3),
            Step::LoadIdx(4),
            Step::LoopAccum(5),
            Step::CallHelper,
            Step::StoreSlot(5),
            Step::LoadSlot(5),
            Step::AllocTouch(64),
            Step::BranchOnBit(2),
            Step::LoopAccum(3),
            Step::StoreSlot(6),
            Step::LoadSlot(7),
        ],
        abi,
    )
}

fn tag_clear_at(at: &[u64], policy: RecoveryPolicy) -> FaultPlan {
    FaultPlan {
        seed: 0,
        triggers: at
            .iter()
            .map(|&n| Trigger {
                site: TriggerSite::AtRetired(n),
                kind: FaultKind::TagClear,
            })
            .collect(),
        policy,
    }
}

/// A tag-clear trigger at every retired count of the run, alone and
/// with a second one seven instructions later: each lands at a different
/// offset of some block, so the block loop must stop short of it at
/// every offset. Under the capability ABIs the corrupted base faults at
/// its next use, mid-block, and each policy's recovery resumes the run
/// in the per-op driver up to the next block start.
#[test]
fn triggers_and_faults_mid_block_are_identical() {
    let mut resumed = 0;
    for abi in Abi::ALL {
        let prog = handover_program(abi);
        let horizon = clean_retired(&prog);
        assert!(horizon > 100, "{abi}: {horizon}");
        for policy in POLICIES {
            for at in 1..=horizon {
                for plan in [
                    tag_clear_at(&[at], policy),
                    tag_clear_at(&[at, at + 7], policy),
                ] {
                    let ctx = format!("{abi}/{policy:?}/at{at}/{}", plan.triggers.len());
                    let s = diff_armed(&prog, InterpConfig::default(), &plan, &ctx);
                    if s.trapped_count() > 0 && policy != RecoveryPolicy::Abort {
                        resumed += 1;
                    }
                }
            }
        }
    }
    assert!(
        resumed > 100,
        "faults must be survived and resumed: {resumed}"
    );
}

/// Fuel that runs out at every point of the run after the per-op driver
/// handed back to the block loop: right at a block's end, just inside
/// it, and at each terminator. One trigger fires early (the per-op
/// driver polls up to it) and, under the capability ABIs, its fault is
/// survived, so the rest of the run is block loop again.
#[test]
fn fuel_running_out_after_a_handover_is_identical() {
    for abi in Abi::ALL {
        let prog = handover_program(abi);
        let horizon = clean_retired(&prog);
        for policy in [
            RecoveryPolicy::SkipFaultingOp,
            RecoveryPolicy::UnwindToCheckpoint,
        ] {
            for at in [3, 12] {
                let plan = tag_clear_at(&[at], policy);
                for max_insts in at..=horizon + 1 {
                    let cfg = InterpConfig {
                        max_insts,
                        ..InterpConfig::default()
                    };
                    let ctx = format!("{abi}/{policy:?}/at{at}/fuel{max_insts}");
                    diff_armed(&prog, cfg, &plan, &ctx);
                }
            }
        }
    }
}

/// A [`FaultSession`] that counts the polls it is asked.
struct Counting {
    session: FaultSession,
    polls: u64,
}

impl FaultInjector for Counting {
    fn active(&self) -> bool {
        self.session.active()
    }
    fn next_poll(&self) -> u64 {
        self.session.next_poll()
    }
    fn poll_pcc(&mut self, retired: u64, pc: u64) -> bool {
        self.polls += 1;
        self.session.poll_pcc(retired, pc)
    }
    fn poll_mem(
        &mut self,
        retired: u64,
        pc: u64,
        ea: u64,
        is_store: bool,
    ) -> Option<InjectionKind> {
        self.polls += 1;
        self.session.poll_mem(retired, pc, ea, is_store)
    }
    fn trapped(&mut self, pc: u64) {
        self.session.trapped(pc);
    }
    fn unwound(&mut self, pc: u64) {
        self.session.unwound(pc);
    }
    fn policy(&self) -> RecoveryPolicy {
        self.session.policy()
    }
}

/// Polls each engine makes under `plan`, with the run's outcome.
fn polls(prog: &Program, plan: &FaultPlan) -> [(u64, Result<u64, InterpError>); 2] {
    let interp = Interp::new(InterpConfig::default());
    let mut ref_inj = Counting {
        session: FaultSession::new(plan),
        polls: 0,
    };
    let r = interp.run_reference_with_faults(prog, &mut NullSink, &mut ref_inj);
    let mut fast_inj = Counting {
        session: FaultSession::new(plan),
        polls: 0,
    };
    let f = interp.run_with_faults(prog, &mut NullSink, &mut fast_inj);
    [
        (ref_inj.polls, r.map(|r| r.retired)),
        (fast_inj.polls, f.map(|r| r.retired)),
    ]
}

/// While a `PcRange` or `AddrRange` trigger is armed any poll may fire,
/// so the fast engine polls every fetch and access as the reference
/// does, even one that never matches. Retired-count triggers alone let
/// it skip the polls below them.
#[test]
fn range_triggers_keep_the_fast_engine_op_by_op() {
    for abi in Abi::ALL {
        let prog = handover_program(abi);
        let never = |site| Trigger {
            site,
            kind: FaultKind::TagClear,
        };
        for site in [
            TriggerSite::PcRange { lo: 0, hi: 4 },
            TriggerSite::AddrRange { lo: 0, hi: 1 },
        ] {
            for policy in POLICIES {
                let plan = FaultPlan {
                    triggers: vec![never(site), tag_clear_at(&[40], policy).triggers[0]],
                    ..tag_clear_at(&[], policy)
                };
                let [reference, fast] = polls(&prog, &plan);
                assert_eq!(reference, fast, "{abi}/{site:?}/{policy:?}");
                diff_armed(
                    &prog,
                    InterpConfig::default(),
                    &plan,
                    &format!("{abi}/{site:?}"),
                );
            }
        }
        let [(ref_polls, r), (fast_polls, f)] =
            polls(&prog, &tag_clear_at(&[40], RecoveryPolicy::SkipFaultingOp));
        assert_eq!(r, f, "{abi}");
        assert!(fast_polls < ref_polls, "{abi}: {fast_polls} vs {ref_polls}");
    }
}
