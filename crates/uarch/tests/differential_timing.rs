//! Cross-delivery timing differential: the [`TimingCore`] must reach
//! *identical* [`UarchStats`] — every counter, not just totals — however
//! the retire stream reaches it:
//!
//! * the fast engine's retire plans (the core's own delivery: a block's
//!   events on its first execution, only load/store payloads after);
//! * the reference executor's per-event stream;
//! * the fast engine's per-block event batches, relayed through
//!   `retire_block_classified` (the delivery of sinks that do not plan).
//!
//! Every registry workload runs under every ABI it supports at test
//! scale, under the Morello and projected configurations, each §5 knob
//! alone and the tag-table model; a property test adds random programs
//! aimed at what plans precompute (multiply → capability-increment
//! pairs across block edges, blocks that cross L1I lines), and fixed
//! programs cover a block cut short by a fault and a run that ends on
//! the per-op driver. Armed cells in the shape of serve's fault pricing
//! (one tag-clear trigger, faults skipped) add runs that switch between
//! the block loop and the per-op driver mid-run. The per-class
//! attribution must partition the run (`Σ opc_*_retired ==
//! inst_retired`, `Σ opc_*_cycles == cpu_cycles`).
//!
//! This complements `cheri-isa`'s `tests/differential.rs`, which locks
//! the raw event streams of the two engines.

use cheri_isa::{
    lower, Abi, Cond, EventSink, FaultInjector, InjectionKind, Interp, InterpConfig, MemSize,
    OpClass, Program, ProgramBuilder, RecoveryPolicy, RetiredEvent,
};
use cheri_workloads::{registry, Scale};
use morello_uarch::{TimingCore, UarchConfig, UarchStats};
use proptest::prelude::*;

/// The configurations every program is timed under.
fn configs() -> Vec<(&'static str, UarchConfig)> {
    let morello = UarchConfig::neoverse_n1_morello();
    vec![
        ("morello", morello),
        ("projected", UarchConfig::projected_cheri_native()),
        ("pcc_aware_bp", morello.with_pcc_aware_bp(true)),
        ("wide_cap_sb", morello.with_wide_cap_store_buffer(true)),
        ("cap_madd_fusion", morello.with_cap_madd_fusion(true)),
        ("tag_table", morello.with_tag_table_model(true)),
    ]
}

/// Hands every event it receives to one timing core per configuration.
/// With `BLOCKS`, it takes the fast engine's per-block batches and
/// relays each batch whole through `retire_block_classified`; without,
/// events arrive one by one.
struct Relay<const BLOCKS: bool> {
    cores: Vec<TimingCore>,
}

impl<const BLOCKS: bool> Relay<BLOCKS> {
    fn new(cfgs: &[(&str, UarchConfig)]) -> Self {
        Relay {
            cores: cfgs.iter().map(|&(_, c)| TimingCore::new(c)).collect(),
        }
    }

    fn finish(self) -> Vec<UarchStats> {
        self.cores.into_iter().map(TimingCore::finish).collect()
    }
}

impl<const BLOCKS: bool> EventSink for Relay<BLOCKS> {
    const WANTS_BLOCK_EVENTS: bool = BLOCKS;

    fn retire(&mut self, ev: RetiredEvent) {
        self.retire_classified(ev, OpClass::of(ev.pc, &ev.info));
    }

    fn retire_classified(&mut self, ev: RetiredEvent, class: OpClass) {
        for core in &mut self.cores {
            core.retire_classified(ev, class);
        }
    }

    fn retire_block_classified(&mut self, evs: &[(RetiredEvent, OpClass)]) {
        for core in &mut self.cores {
            core.retire_block_classified(evs);
        }
    }
}

fn partition_checks(s: &UarchStats, ctx: &str) {
    let retired: u64 = OpClass::ALL.iter().map(|&c| s.opc_retired(c)).sum();
    assert_eq!(retired, s.inst_retired, "{ctx}: class retired partition");
    let cycles: u64 = OpClass::ALL.iter().map(|&c| s.opc_cycles(c)).sum();
    assert_eq!(cycles, s.cpu_cycles, "{ctx}: class cycle partition");
}

/// Times `prog` through all three deliveries under every configuration
/// and returns the planned statistics, after checking that the three
/// agree and that the engines agree on the run's outcome.
fn check_program(prog: &Program, interp: InterpConfig, ctx: &str) -> Vec<UarchStats> {
    let interp = Interp::new(interp);
    let cfgs = configs();
    let mut per_event = Relay::<false>::new(&cfgs);
    let reference = interp.run_reference(prog, &mut per_event);
    let mut batches = Relay::<true>::new(&cfgs);
    let relayed = interp.run(prog, &mut batches);
    assert_eq!(
        reference.as_ref().map(|r| r.retired),
        relayed.as_ref().map(|r| r.retired),
        "{ctx}: engines disagree on the run"
    );
    let mut planned = Vec::new();
    for ((name, cfg), (oracle, relay)) in cfgs
        .iter()
        .zip(per_event.finish().into_iter().zip(batches.finish()))
    {
        let ctx = format!("{ctx} under {name}");
        let mut core = TimingCore::new(*cfg);
        let result = interp.run(prog, &mut core);
        assert_eq!(
            result.as_ref().map(|r| r.retired),
            relayed.as_ref().map(|r| r.retired),
            "{ctx}: the planning run ended elsewhere"
        );
        let plans = core.finish();
        assert_eq!(plans, oracle, "{ctx}: plans vs the reference's events");
        assert_eq!(plans, relay, "{ctx}: plans vs relayed block batches");
        if let Ok(r) = &result {
            assert_eq!(
                plans.inst_retired, r.retired,
                "{ctx}: every retirement timed"
            );
        }
        partition_checks(&plans, &ctx);
        planned.push(plans);
    }
    planned
}

/// Serve's fault pricing in miniature: one tag-clear trigger at retired
/// count `at` (it fires at the first data access from there), faults
/// skipped.
#[derive(Clone, Copy)]
struct OneTagClear {
    at: u64,
    armed: bool,
}

impl FaultInjector for OneTagClear {
    fn active(&self) -> bool {
        self.armed
    }
    fn next_poll(&self) -> u64 {
        if self.armed {
            self.at
        } else {
            u64::MAX
        }
    }
    fn poll_mem(&mut self, retired: u64, _pc: u64, _ea: u64, _st: bool) -> Option<InjectionKind> {
        let fire = self.armed && retired >= self.at;
        self.armed &= !fire;
        fire.then_some(InjectionKind::TagClear)
    }
    fn policy(&self) -> RecoveryPolicy {
        RecoveryPolicy::SkipFaultingOp
    }
}

/// As [`check_program`] under `inj`: the fast engine's retire plans and
/// relayed block batches against per-event delivery of the reference's
/// stream, through the fault-injection entry points.
fn check_armed(prog: &Program, interp: InterpConfig, inj: OneTagClear, ctx: &str) {
    let interp = Interp::new(interp);
    let cfgs = configs();
    let mut per_event = Relay::<false>::new(&cfgs);
    let reference = interp.run_reference_with_faults(prog, &mut per_event, &mut { inj });
    let mut batches = Relay::<true>::new(&cfgs);
    let relayed = interp.run_with_faults(prog, &mut batches, &mut { inj });
    assert_eq!(
        format!("{reference:?}"),
        format!("{relayed:?}"),
        "{ctx}: engines disagree on the run"
    );
    for ((name, cfg), (oracle, relay)) in cfgs
        .iter()
        .zip(per_event.finish().into_iter().zip(batches.finish()))
    {
        let ctx = format!("{ctx} under {name}");
        let mut core = TimingCore::new(*cfg);
        let result = interp.run_with_faults(prog, &mut core, &mut { inj });
        assert_eq!(
            format!("{result:?}"),
            format!("{relayed:?}"),
            "{ctx}: the planning run ended elsewhere"
        );
        let plans = core.finish();
        assert_eq!(plans, oracle, "{ctx}: plans vs the reference's events");
        assert_eq!(plans, relay, "{ctx}: plans vs relayed block batches");
        partition_checks(&plans, &ctx);
    }
}

/// Serve's pricing shape on fig. 9's workloads: every ABI, the trigger
/// early, mid-run and late, so the block loop runs before it, the per-op
/// driver up to it and through any fault storm it starts, and the block
/// loop again after.
#[test]
fn armed_runs_time_identically_under_every_delivery() {
    for key in ["omnetpp_520", "xz_557", "sqlite"] {
        let w = cheri_workloads::by_key(key).expect("registry workload");
        for abi in Abi::ALL.into_iter().filter(|a| w.supports(*a)) {
            let prog = lower(&w.build(abi, Scale::Test));
            let horizon = Interp::new(InterpConfig::default())
                .run(&prog, &mut cheri_isa::NullSink)
                .expect("clean run")
                .retired;
            // A skipped fault can leave a loop spinning: a budget of
            // twice the clean run ends such a run on the fuel check
            // (serve's watchdog, scaled down).
            let cfg = InterpConfig {
                max_insts: horizon * 2,
                ..InterpConfig::default()
            };
            for at in [1, horizon / 3 + 7, horizon - horizon / 5] {
                let inj = OneTagClear { at, armed: true };
                check_armed(&prog, cfg, inj, &format!("{key}/{abi} tag-clear at {at}"));
            }
        }
    }
}

#[test]
fn every_workload_times_identically_under_every_delivery() {
    for w in registry() {
        for abi in Abi::ALL {
            if !w.supports(abi) {
                continue;
            }
            let prog = lower(&w.build(abi, Scale::Test));
            check_program(&prog, InterpConfig::default(), &format!("{}/{abi}", w.key));
        }
    }
}

/// A purecap loop whose store walks off the end of its allocation: the
/// fault cuts short a block that has run whole before, so the planning
/// core retires a block prefix.
#[test]
fn a_fault_mid_block_times_identically() {
    let mut b = ProgramBuilder::new("cut", Abi::Purecap);
    let main = b.function("main", 0, |f| {
        let p = f.vreg();
        f.malloc(p, 64);
        let n = f.vreg();
        f.mov_imm(n, 100);
        let acc = f.vreg();
        f.mov_imm(acc, 1);
        f.for_loop(0, n, 1, |f, i| {
            f.add(acc, acc, i);
            f.mul(acc, acc, 3);
            f.store_int_idx(acc, p, i, MemSize::S8);
            f.add(acc, acc, 7);
        });
        f.halt_code(acc);
    });
    b.set_entry(main);
    let prog = b.lower();
    check_program(&prog, InterpConfig::default(), "cut block");
}

/// A fuel budget that runs out inside a block: the rest of the run goes
/// op by op, logged as events.
#[test]
fn a_run_finished_op_by_op_times_identically() {
    let prog = lower(
        &cheri_workloads::by_key("omnetpp_520")
            .expect("registry workload")
            .build(Abi::Purecap, Scale::Test),
    );
    for max_insts in [1_000, 25_013, 100_003] {
        let cfg = InterpConfig {
            max_insts,
            ..InterpConfig::default()
        };
        check_program(&prog, cfg, &format!("fuel {max_insts}"));
    }
}

/// One op of a random straight-line body.
#[derive(Clone, Copy, Debug)]
enum Op {
    Add,
    /// `madd`: a multiply (`cap_madd_fusion`'s first half).
    Mul,
    /// A pointer increment: capability manipulation under purecap.
    PtrInc,
    Load,
    Store,
    /// A block edge without a terminator between: the next op starts a
    /// block an earlier branch targets, so the blocks fall into each
    /// other and `prev_was_mul` must carry across.
    Edge,
    /// A never-taken branch: a block edge with a branch event between.
    Branch,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Add),
        Just(Op::Mul),
        Just(Op::PtrInc),
        Just(Op::Load),
        Just(Op::Store),
        Just(Op::Edge),
        Just(Op::Branch),
    ]
}

/// A loop of `iters` iterations over `body`, with every `Mul` followed
/// by a `PtrInc` when `pairs` (so fusion has pairs to fuse).
fn random_program(abi: Abi, body: &[Op], pairs: bool, iters: u64) -> Program {
    let mut b = ProgramBuilder::new("random", abi);
    let g = b.global_zero("buf", 4096);
    let main = b.function("main", 0, |f| {
        let p = f.vreg();
        f.lea_global(p, g, 0);
        let q = f.vreg();
        let zero = f.vreg();
        f.mov_imm(zero, 0);
        let acc = f.vreg();
        f.mov_imm(acc, 5);
        let k = f.vreg();
        f.mov_imm(k, 3);
        // Edges need a branch that targets them from elsewhere; these
        // are never taken.
        let edges: Vec<_> = body
            .iter()
            .filter(|op| matches!(op, Op::Edge))
            .map(|_| f.label())
            .collect();
        for &l in &edges {
            f.br(Cond::Ne, zero, zero, l);
        }
        let n = f.vreg();
        f.mov_imm(n, iters);
        let mut edges = edges.into_iter();
        f.for_loop(0, n, 1, |f, i| {
            let idx = f.vreg();
            f.and(idx, i, 255);
            for &op in body {
                match op {
                    Op::Add => f.add(acc, acc, i),
                    Op::Mul => {
                        f.madd(acc, acc, k, i);
                        if pairs {
                            f.ptr_add(q, p, 16);
                        }
                    }
                    Op::PtrInc => f.ptr_add(q, p, 32),
                    Op::Load => {
                        let v = f.vreg();
                        f.load_int_idx(v, p, idx, MemSize::S8);
                        f.add(acc, acc, v);
                    }
                    Op::Store => f.store_int_idx(acc, p, idx, MemSize::S8),
                    Op::Edge => f.bind(edges.next().expect("one label per edge")),
                    Op::Branch => {
                        let skip = f.label();
                        f.br(Cond::Eq, zero, 1, skip);
                        f.bind(skip);
                    }
                }
            }
        });
        f.halt_code(acc);
    });
    b.set_entry(main);
    b.lower()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random bodies, long enough to cross L1I lines (16 ops a line),
    /// time identically under every delivery and configuration.
    #[test]
    fn random_programs_time_identically(
        body in proptest::collection::vec(op_strategy(), 1..48),
        pairs in any::<bool>(),
        purecap in any::<bool>(),
        iters in 1u64..40,
    ) {
        let abi = if purecap { Abi::Purecap } else { Abi::Hybrid };
        let prog = random_program(abi, &body, pairs, iters);
        check_program(&prog, InterpConfig::default(), &format!("{abi} {body:?}"));
    }
}

/// The fused configuration must see the pairs the property test builds:
/// a multiply falling through a block edge into a capability increment
/// saves that increment's cost.
#[test]
fn fusion_carries_across_a_fallthrough_edge() {
    let body = [Op::Add, Op::Mul, Op::Edge, Op::PtrInc, Op::Add];
    let prog = random_program(Abi::Purecap, &body, false, 200);
    let stats = check_program(&prog, InterpConfig::default(), "mul | edge | inc");
    let (morello, fused) = (&stats[0], &stats[4]);
    assert!(
        fused.cpu_cycles < morello.cpu_cycles,
        "fusion across the edge must save cycles ({} vs {})",
        fused.cpu_cycles,
        morello.cpu_cycles
    );
}
