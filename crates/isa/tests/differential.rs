//! The differential-testing harness locking the pre-decoded fast
//! engine against the reference executor.
//!
//! [`Interp::run`] dispatches through the decoded-arena fast path
//! (`fastexec`); [`Interp::run_reference`] walks the original
//! per-instruction decode `match` (`refexec`). The two must be
//! *observationally identical*: the same retired-event stream (payloads
//! **and** the decode-time [`OpClass`] hints), the same region
//! crossings, the same [`RunResult`] down to every architectural
//! statistic, and the same [`InterpError`] on every failing program.
//!
//! Coverage:
//!
//! * every registry workload × every supported ABI at test scale
//!   (22 workloads, 66 cells);
//! * ≥1000 proptest-generated random programs (350 specs × 3 ABIs),
//!   with direct, indirect, nested and cross-module calls, allocator
//!   traffic and region markers inside loops;
//! * the error paths: fuel exhaustion (also swept across terminators),
//!   unrepresentable-bounds traps, sealed-entry violations, and
//!   malformed programs (a table of shapes plus a mutation fuzzer),
//!   which both engines must reject with the same `BadProgram` instead
//!   of panicking.

use cheri_isa::{
    lower, Abi, CapOpKind, Cond, EventSink, FaultInjector, FuncId, GlobalDef, GlobalId, Inst,
    Interp, InterpConfig, InterpError, Label, MemSize, OpClass, Program, ProgramBuilder, PtrInit,
    RetiredEvent, RunResult,
};
use cheri_workloads::{registry, Scale};
use proptest::prelude::*;

/// One observable emission from a run: a retired event with its class
/// hint, or a region-marker crossing.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Obs {
    Retire(RetiredEvent, OpClass),
    Region(u32),
}

/// Records the full observation stream. The plain [`retire`] entry
/// point (used by the reference engine) recomputes the class from the
/// event, while [`retire_classified`] (used by the fast engine) records
/// the decode-time hint — so stream equality also proves every
/// pre-computed class matches a fresh classification.
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

fn assert_streams_eq(reference: &[Obs], fast: &[Obs], ctx: &str) {
    for (i, (r, f)) in reference.iter().zip(fast.iter()).enumerate() {
        assert_eq!(
            r, f,
            "{ctx}: first event-stream divergence at index {i}: reference {r:?} vs fast {f:?}"
        );
    }
    assert_eq!(
        reference.len(),
        fast.len(),
        "{ctx}: event-stream lengths differ (reference {} vs fast {})",
        reference.len(),
        fast.len()
    );
}

/// Runs `prog` on both engines and asserts observational identity;
/// returns the (shared) outcome so callers can make further
/// per-scenario assertions.
fn diff_run(prog: &Program, cfg: InterpConfig, ctx: &str) -> Result<RunResult, InterpError> {
    let interp = Interp::new(cfg);
    let mut ref_sink = Recorder::default();
    let ref_out = interp.run_reference(prog, &mut ref_sink);
    let mut fast_sink = Recorder::default();
    let fast_out = interp.run(prog, &mut fast_sink);
    assert_same_run(&ref_sink, ref_out, &fast_sink, fast_out, ctx)
}

/// An injector that is armed but never fires, like a `PcRange` trigger
/// that matches no pc: its polls can fire at any retired count
/// (threshold 0), which keeps the fast engine on its per-op driver for
/// the whole run (and the reference on its polling loop) without
/// changing what either computes.
struct ArmedNeverFires;

impl FaultInjector for ArmedNeverFires {
    fn active(&self) -> bool {
        true
    }

    fn next_poll(&self) -> u64 {
        0
    }
}

/// As [`diff_run`], through the fault-injection entry points under
/// [`ArmedNeverFires`]: the fast engine's per-op driver against the
/// reference.
fn diff_run_armed(prog: &Program, cfg: InterpConfig, ctx: &str) -> Result<RunResult, InterpError> {
    let interp = Interp::new(cfg);
    let mut ref_sink = Recorder::default();
    let ref_out = interp.run_reference_with_faults(prog, &mut ref_sink, &mut ArmedNeverFires);
    let mut fast_sink = Recorder::default();
    let fast_out = interp.run_with_faults(prog, &mut fast_sink, &mut ArmedNeverFires);
    assert_same_run(&ref_sink, ref_out, &fast_sink, fast_out, ctx)
}

/// A differential run through one pair of entry points.
type DiffRun = fn(&Program, InterpConfig, &str) -> Result<RunResult, InterpError>;

/// Both fast-engine drivers against the reference: the superblock loop
/// (`run`, which hands a fuel death inside a block to the per-op
/// driver) and the per-op driver for the whole run (`run_with_faults`
/// under [`ArmedNeverFires`]).
const DRIVERS: [(&str, DiffRun); 2] = [("blocks", diff_run), ("ops", diff_run_armed)];

fn assert_same_run(
    ref_sink: &Recorder,
    ref_out: Result<RunResult, InterpError>,
    fast_sink: &Recorder,
    fast_out: Result<RunResult, InterpError>,
    ctx: &str,
) -> Result<RunResult, InterpError> {
    assert_streams_eq(&ref_sink.obs, &fast_sink.obs, ctx);
    match (&ref_out, &fast_out) {
        (Ok(r), Ok(f)) => {
            // RunResult aggregates every architectural statistic
            // (retired, exit code, class counts, memory/heap stats,
            // footprint); the Debug form covers all fields.
            assert_eq!(
                format!("{r:?}"),
                format!("{f:?}"),
                "{ctx}: architectural results differ"
            );
        }
        (Err(r), Err(f)) => {
            assert_eq!(r, f, "{ctx}: engines fail with different errors");
        }
        _ => {
            panic!("{ctx}: engines disagree on success: reference {ref_out:?} vs fast {fast_out:?}")
        }
    }
    fast_out
}

/// Every workload in the registry, on every ABI it supports, produces a
/// bit-identical run on both engines.
#[test]
fn all_workloads_and_abis_are_bit_identical() {
    let workloads = registry();
    assert_eq!(workloads.len(), 22, "full registry coverage expected");
    let mut cells = 0;
    for w in &workloads {
        for abi in Abi::ALL {
            if !w.supports(abi) {
                continue;
            }
            let prog = lower(&w.build(abi, Scale::Test));
            let out = diff_run(&prog, InterpConfig::default(), &format!("{}/{abi}", w.key));
            let res = out.expect("registry workloads complete");
            assert_eq!(
                res.classes.total(),
                res.retired,
                "{}/{abi}: classes partition retired",
                w.key
            );
            cells += 1;
        }
    }
    assert!(cells >= 60, "expected the full matrix, ran {cells} cells");
}

/// A compact random-program specification, realised per-ABI through the
/// builder (the same technique as `proptest_lowering.rs`, with heavier
/// emphasis on control flow and allocator traffic — the paths the
/// decoded arena rewrites most).
#[derive(Clone, Debug)]
enum Op {
    AddConst(u8),
    Mix,
    StoreSlot(u8),
    LoadSlot(u8),
    AllocTouch(u16),
    AllocHold(u16),
    LoopAccum(u8),
    CallHelper,
    BranchOnBit(u8),
    PtrWalk(u8),
    /// An indirect call through a `lea_func` pointer.
    CallIndirect,
    /// A call into a second module (a PCC-bounds change under purecap).
    CallOtherModule,
    /// A call to a helper that itself calls a helper.
    CallNested,
    /// A loop whose body opens a profiling region.
    RegionLoop(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::AddConst),
        Just(Op::Mix),
        (0u8..16).prop_map(Op::StoreSlot),
        (0u8..16).prop_map(Op::LoadSlot),
        (16u16..2000).prop_map(Op::AllocTouch),
        (16u16..512).prop_map(Op::AllocHold),
        (1u8..24).prop_map(Op::LoopAccum),
        Just(Op::CallHelper),
        (0u8..8).prop_map(Op::BranchOnBit),
        (1u8..6).prop_map(Op::PtrWalk),
        Just(Op::CallIndirect),
        Just(Op::CallOtherModule),
        Just(Op::CallNested),
        (1u8..8).prop_map(Op::RegionLoop),
    ]
}

fn realise(ops: &[Op], abi: Abi) -> Program {
    let mut b = ProgramBuilder::new("diff", abi);
    let g = b.global_zero("scratch", 256);
    let helper = b.function("helper", 1, |f| {
        let r = f.vreg();
        f.eor(r, f.arg(0), 0x5a5ai64);
        f.lsr(r, r, 1);
        f.ret(Some(r));
    });
    let outer = b.function("outer", 1, |f| {
        let r = f.vreg();
        f.call(helper, &[f.arg(0)], Some(r));
        f.add(r, r, 7);
        f.ret(Some(r));
    });
    let lib = b.module("libext");
    let ext = b.function_in(lib, "ext", 1, |f| {
        let r = f.vreg();
        f.mul(r, f.arg(0), 3);
        f.ret(Some(r));
    });
    let region = b.region("loop");
    let ops = ops.to_vec();
    let main = b.function("main", 0, |f| {
        let acc = f.vreg();
        f.mov_imm(acc, 0x1234);
        let base = f.vreg();
        f.lea_global(base, g, 0);
        let held = f.vreg();
        f.malloc(held, 64);
        for op in &ops {
            match op {
                Op::AddConst(k) => f.add(acc, acc, *k as i64),
                Op::Mix => {
                    f.eor(acc, acc, 0x9e37i64);
                    f.lsr(acc, acc, 1);
                    f.add(acc, acc, 3);
                }
                Op::StoreSlot(s) => f.store_int(acc, base, (*s as i64) * 8, MemSize::S8),
                Op::LoadSlot(s) => {
                    let v = f.vreg();
                    f.load_int(v, base, (*s as i64) * 8, MemSize::S8);
                    f.add(acc, acc, v);
                }
                Op::AllocTouch(sz) => {
                    let p = f.vreg();
                    f.malloc(p, *sz as u64);
                    f.store_int(acc, p, 0, MemSize::S8);
                    let v = f.vreg();
                    f.load_int(v, p, 0, MemSize::S8);
                    f.eor(acc, acc, v);
                    f.free(p);
                }
                Op::AllocHold(sz) => {
                    // Replace the held allocation without freeing the
                    // old one: leaks exercise end-of-run heap stats.
                    f.malloc(held, *sz as u64);
                    f.store_int(acc, held, 8, MemSize::S8);
                }
                Op::LoopAccum(n) => {
                    let lim = f.vreg();
                    f.mov_imm(lim, *n as u64);
                    f.for_loop(0, lim, 1, |f, i| {
                        f.add(acc, acc, i);
                    });
                }
                Op::CallHelper => {
                    let r = f.vreg();
                    f.call(helper, &[acc], Some(r));
                    f.add(acc, acc, r);
                }
                Op::BranchOnBit(bit) => {
                    let t = f.vreg();
                    f.lsr(t, acc, *bit as i64);
                    f.and(t, t, 1);
                    let skip = f.label();
                    f.br(Cond::Eq, t, 0, skip);
                    f.eor(acc, acc, 0xffi64);
                    f.bind(skip);
                }
                Op::PtrWalk(n) => {
                    // A short pointer-chase through the held block to
                    // exercise dependent-load tracking in both engines.
                    f.store_ptr(held, held, 0);
                    let p = f.vreg();
                    f.mov(p, held);
                    for _ in 0..*n {
                        f.load_ptr(p, p, 0);
                    }
                    let a = f.vreg();
                    f.ptr_to_int(a, p);
                    f.and(a, a, 0xff);
                    f.add(acc, acc, a);
                }
                Op::CallIndirect => {
                    let fp = f.vreg();
                    f.lea_func(fp, helper);
                    let r = f.vreg();
                    f.call_indirect(fp, &[acc], Some(r));
                    f.add(acc, acc, r);
                }
                Op::CallOtherModule | Op::CallNested => {
                    let callee = if matches!(op, Op::CallNested) {
                        outer
                    } else {
                        ext
                    };
                    let r = f.vreg();
                    f.call(callee, &[acc], Some(r));
                    f.eor(acc, acc, r);
                }
                Op::RegionLoop(n) => {
                    let lim = f.vreg();
                    f.mov_imm(lim, *n as u64);
                    f.for_loop(0, lim, 1, |f, i| {
                        f.region(region);
                        f.add(acc, acc, i);
                    });
                    f.region_end();
                }
            }
        }
        f.and(acc, acc, 0xFFFF_FFFFi64);
        f.halt_code(acc);
    });
    b.set_entry(main);
    lower(&b.build())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(350))]

    /// 350 random specs × 3 ABIs = 1050 generated programs, each run on
    /// both engines and required to match event-for-event.
    #[test]
    fn random_programs_are_bit_identical(ops in proptest::collection::vec(op_strategy(), 1..32)) {
        for abi in Abi::ALL {
            let prog = realise(&ops, abi);
            diff_run(&prog, InterpConfig::default(), &format!("random/{abi}"))
                .expect("generated programs are valid");
        }
    }
}

// ---- Superblock edge cases -------------------------------------------------
//
// Named with a `superblock_` prefix so CI can run exactly this group
// under `--release` (`cargo test --release superblock_`): they pin the
// partition-boundary behaviours of the direct-threaded engine — branch
// targets splitting straight-line runs, the fuel cutoff landing inside
// a block's interior, and a fault at a block's final interior op.

/// A backward branch into the middle of what would otherwise be one
/// straight-line run: the target must be a block leader, and chaining
/// to it (rather than falling through) must match the reference
/// event-for-event.
#[test]
fn superblock_branch_into_former_interior_is_identical() {
    for abi in Abi::ALL {
        let mut b = ProgramBuilder::new("midblock", abi);
        let main = b.function("main", 0, |f| {
            let acc = f.vreg();
            let n = f.vreg();
            f.mov_imm(acc, 7);
            f.mov_imm(n, 3);
            // Straight-line prefix; `mid` splits it into two blocks.
            f.add(acc, acc, 11);
            f.eor(acc, acc, 0x3c3ci64);
            let mid = f.here();
            f.add(acc, acc, 5);
            f.lsr(acc, acc, 1);
            f.eor(acc, acc, 0x55i64);
            f.sub(n, n, 1u64);
            f.br(Cond::Ne, n, 0u64, mid);
            f.and(acc, acc, 0xFFFFi64);
            f.halt_code(acc);
        });
        b.set_entry(main);
        let prog = b.lower();
        let res = diff_run(&prog, InterpConfig::default(), &format!("midblock/{abi}"))
            .expect("program completes");
        assert_eq!(res.classes.total(), res.retired);
    }
}

/// Sweeps the fuel limit across every position of a long straight-line
/// block so the cutoff lands before, inside (every interior offset),
/// and after it. The fast engine's block-margin check must delegate to
/// the per-op path and report the identical truncated stream and
/// `FuelExhausted { retired }` as the reference.
#[test]
fn superblock_fuel_exhaustion_mid_block_is_identical() {
    for abi in Abi::ALL {
        let mut b = ProgramBuilder::new("fuelmid", abi);
        let main = b.function("main", 0, |f| {
            let acc = f.vreg();
            f.mov_imm(acc, 1);
            for k in 0..24 {
                f.add(acc, acc, k + 1);
            }
            f.halt_code(acc);
        });
        b.set_entry(main);
        let prog = b.lower();
        let mut exhausted = 0;
        for max in 1..40u64 {
            let cfg = InterpConfig {
                max_insts: max,
                ..InterpConfig::default()
            };
            match diff_run(&prog, cfg, &format!("fuelmid/{abi}/max{max}")) {
                Ok(_) => {}
                Err(InterpError::FuelExhausted { retired }) => {
                    // The entry prologue retires before the first fuel
                    // check, so the cutoff count can exceed a tiny
                    // budget; it can never undershoot it.
                    assert!(
                        retired >= max,
                        "{abi}: cutoff {retired} undershoots budget {max}"
                    );
                    exhausted += 1;
                }
                Err(other) => panic!("{abi}/max{max}: unexpected error {other:?}"),
            }
        }
        assert!(
            exhausted > 20,
            "{abi}: the sweep must cross the block interior ({exhausted} cutoffs)"
        );
    }
}

/// Sweeps the fuel limit across a call → malloc → free → indirect call
/// → return sequence (plus the outer return and halt), so the cutoff
/// lands on and around every terminator kind. Both fast-engine drivers
/// take the sweep: the block loop (whose pre-terminator check, or its
/// hand-over to the per-op driver, must stop at the reference's exact
/// event) and, under an armed injector, the per-op driver from the
/// first op.
#[test]
fn superblock_fuel_exhaustion_at_terminators_is_identical() {
    for abi in Abi::ALL {
        let mut b = ProgramBuilder::new("fuelterm", abi);
        let leaf = b.function("leaf", 1, |f| {
            let r = f.vreg();
            f.add(r, f.arg(0), 1);
            f.ret(Some(r));
        });
        let mid = b.function("mid", 1, |f| {
            let r = f.vreg();
            f.call(leaf, &[f.arg(0)], Some(r));
            let p = f.vreg();
            f.malloc(p, 48);
            f.store_int(r, p, 0, MemSize::S8);
            f.free(p);
            let fp = f.vreg();
            f.lea_func(fp, leaf);
            f.call_indirect(fp, &[r], Some(r));
            f.ret(Some(r));
        });
        let main = b.function("main", 0, |f| {
            let acc = f.vreg();
            f.mov_imm(acc, 5);
            f.call(mid, &[acc], Some(acc));
            f.halt_code(acc);
        });
        b.set_entry(main);
        let prog = b.lower();
        let full = diff_run(&prog, InterpConfig::default(), &format!("fuelterm/{abi}"))
            .expect("program completes");
        assert_eq!(full.exit_code, 7, "{abi}: 5 + 1 + 1");
        for max in 1..=full.retired + 1 {
            let cfg = InterpConfig {
                max_insts: max,
                ..InterpConfig::default()
            };
            for (driver, run) in DRIVERS {
                let ctx = format!("fuelterm/{abi}/{driver}/max{max}");
                match run(&prog, cfg, &ctx) {
                    Ok(res) => assert_eq!(res.retired, full.retired, "{ctx}"),
                    Err(InterpError::FuelExhausted { retired }) => {
                        assert!(retired >= max && retired < full.retired, "{ctx}: {retired}");
                    }
                    Err(other) => panic!("{ctx}: unexpected error {other:?}"),
                }
            }
        }
    }
}

/// A bounds fault raised by the *last* interior op of a block (with a
/// terminator behind it that never runs): the fast engine must stop at
/// the same op, with the same truncated stream and the same fault.
#[test]
fn superblock_fault_at_block_last_op_is_identical() {
    let mut b = ProgramBuilder::new("lastop", Abi::Purecap);
    let main = b.function("main", 0, |f| {
        let p = f.vreg();
        f.malloc(p, 16);
        let acc = f.vreg();
        f.mov_imm(acc, 2);
        f.add(acc, acc, 40);
        // Out of bounds: offset 64 in a 16-byte allocation. This is the
        // block's final interior op; the following halt never retires.
        let v = f.vreg();
        f.load_int(v, p, 64, MemSize::S8);
        f.halt_code(v);
    });
    b.set_entry(main);
    let prog = b.lower();
    let err = diff_run(&prog, InterpConfig::default(), "lastop/purecap")
        .expect_err("the out-of-bounds load must fault");
    match err {
        InterpError::Fault { fault, .. } => {
            assert_eq!(fault.kind, cheri_cap::FaultKind::BoundsViolation)
        }
        other => panic!("expected bounds fault, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// The engine's per-block class pre-sums, folded by execution
    /// count at run end, must equal a per-op accumulation over the
    /// actual emitted event stream — checked directly against the
    /// recorded events, independent of the reference engine.
    #[test]
    fn superblock_class_presums_match_per_op_accumulation(
        ops in proptest::collection::vec(op_strategy(), 1..24)
    ) {
        for abi in Abi::ALL {
            let prog = realise(&ops, abi);
            let mut sink = Recorder::default();
            let res = Interp::new(InterpConfig::default())
                .run(&prog, &mut sink)
                .expect("generated programs are valid");
            let mut per_op = cheri_isa::ClassCounts::new();
            for o in &sink.obs {
                if let Obs::Retire(ev, _) = o {
                    per_op.bump(OpClass::of(ev.pc, &ev.info));
                }
            }
            prop_assert_eq!(res.classes, per_op, "{}: pre-summed fold != per-op accumulation", abi);
            prop_assert_eq!(res.classes.total(), res.retired);
        }
    }
}

/// Fuel exhaustion is reported identically: same error variant, same
/// retired count at the cutoff, same (truncated) event stream.
#[test]
fn fuel_exhaustion_is_identical() {
    for abi in Abi::ALL {
        let mut b = ProgramBuilder::new("fuel", abi);
        let main = b.function("main", 0, |f| {
            let acc = f.vreg();
            f.mov_imm(acc, 1);
            let l = f.here();
            f.add(acc, acc, 1);
            f.jump(l);
            f.halt();
        });
        b.set_entry(main);
        let prog = b.lower();
        let err = diff_run(
            &prog,
            InterpConfig {
                max_insts: 1000,
                ..InterpConfig::default()
            },
            &format!("fuel/{abi}"),
        )
        .expect_err("the loop must exhaust its budget");
        assert!(
            matches!(err, InterpError::FuelExhausted { retired } if retired >= 1000),
            "{abi}: {err:?}"
        );
    }
}

/// An exact-bounds request on a misaligned, too-large region is not
/// representable in the compressed encoding; both engines must raise
/// the same `RepresentabilityLoss` fault at the same pc.
#[test]
fn unrepresentable_bounds_trap_is_identical() {
    let mut b = ProgramBuilder::new("repr", Abi::Purecap);
    let main = b.function("main", 0, |f| {
        let p = f.vreg();
        f.malloc(p, 4 << 20);
        let off = f.vreg();
        f.cap_op(CapOpKind::IncOffset, off, p, 1);
        let narrowed = f.vreg();
        f.cap_op(CapOpKind::SetBoundsExact, narrowed, off, (1i64 << 20) + 1);
        f.halt();
    });
    b.set_entry(main);
    let prog = b.lower();
    let err = diff_run(&prog, InterpConfig::default(), "repr/purecap")
        .expect_err("exact bounds on a misaligned megabyte must trap");
    match err {
        InterpError::Fault { fault, .. } => {
            assert_eq!(fault.kind, cheri_cap::FaultKind::RepresentabilityLoss)
        }
        other => panic!("expected representability fault, got {other:?}"),
    }
}

/// Dereferencing a sealed capability (a sealed-entry handle used as a
/// data pointer) faults identically on both engines.
#[test]
fn sealed_entry_violation_is_identical() {
    let mut b = ProgramBuilder::new("sealed", Abi::Purecap);
    let g_auth = b.add_global(GlobalDef {
        name: "root".into(),
        size: 16,
        init: Vec::new(),
        ptr_inits: vec![(0, PtrInit::SealRoot(42))],
        is_const: false,
        align: 16,
    });
    let main = b.function("main", 0, |f| {
        let obj = f.vreg();
        f.malloc(obj, 32);
        let ap = f.vreg();
        f.lea_global(ap, g_auth, 0);
        let auth = f.vreg();
        f.load_ptr(auth, ap, 0);
        let sealed = f.vreg();
        f.seal(sealed, obj, auth);
        let r = f.vreg();
        f.load_int(r, sealed, 0, MemSize::S8);
        f.halt_code(r);
    });
    b.set_entry(main);
    let prog = cheri_isa::lower(&b.build());
    let err = diff_run(&prog, InterpConfig::default(), "sealed/purecap")
        .expect_err("loading through a sealed capability must trap");
    match err {
        InterpError::Fault { fault, .. } => {
            assert_eq!(fault.kind, cheri_cap::FaultKind::SealViolation)
        }
        other => panic!("expected seal violation, got {other:?}"),
    }
}

/// Control that runs past a function's last op (no `ret`/`halt` on the
/// path) fails with the same `BadProgram` on both engines, after the
/// same events: off a straight-line body, off the return site of a
/// trailing call, and off the not-taken path of a trailing branch.
#[test]
fn running_off_a_function_end_is_identical() {
    for abi in Abi::ALL {
        let mut b = ProgramBuilder::new("offend", abi);
        let main = b.function("main", 0, |f| {
            let r = f.vreg();
            f.mov_imm(r, 7);
        });
        b.set_entry(main);
        let mut after_call = ProgramBuilder::new("offend_call", abi);
        let leaf = after_call.function("leaf", 0, |f| {
            let r = f.vreg();
            f.mov_imm(r, 1);
            f.ret(Some(r));
        });
        let main_call = after_call.function("main", 0, |f| {
            let r = f.vreg();
            f.call(leaf, &[], Some(r));
        });
        after_call.set_entry(main_call);
        let mut after_br = ProgramBuilder::new("offend_br", abi);
        let main_br = after_br.function("main", 0, |f| {
            let r = f.vreg();
            f.mov_imm(r, 3);
            let top = f.here();
            f.sub(r, r, 1u64);
            f.br(Cond::Ne, r, 0u64, top);
        });
        after_br.set_entry(main_br);
        for (name, prog) in [
            ("straight", b.lower()),
            ("call", after_call.lower()),
            ("branch", after_br.lower()),
        ] {
            let err = diff_run(
                &prog,
                InterpConfig::default(),
                &format!("offend/{name}/{abi}"),
            )
            .expect_err("running off `main` must fail");
            assert_eq!(
                err,
                InterpError::BadProgram {
                    msg: "control ran off the end of `main`".into()
                },
                "{name}/{abi}"
            );
        }
    }
}

/// A `malloc` whose size register holds `-1` (`u64::MAX`), or one byte
/// more than the whole heap arena, fails with the same out-of-memory
/// `BadProgram` on every ABI and both drivers, instead of panicking on
/// the size-class rounding or handing out a zero-byte block.
#[test]
fn oversized_malloc_is_identical() {
    let program = |abi: Abi, size: u64| {
        let mut b = ProgramBuilder::new("huge_malloc", abi);
        let main = b.function("main", 0, |f| {
            let n = f.vreg();
            f.mov_imm(n, size);
            let p = f.vreg();
            f.malloc(p, n);
            f.free(p);
            f.halt();
        });
        b.set_entry(main);
        b.lower()
    };
    for abi in Abi::ALL {
        // The interpreter's arena starts 1 MiB into the heap window.
        let (heap_lo, heap_hi) = program(abi, 0).map.heap;
        let arena = heap_hi - (heap_lo + (1 << 20));
        for size in [u64::MAX, arena + 1] {
            let prog = program(abi, size);
            for (driver, run) in DRIVERS {
                let ctx = format!("huge_malloc/{size:#x}/{abi}/{driver}");
                let err = run(&prog, InterpConfig::default(), &ctx).expect_err(&ctx);
                assert_eq!(
                    err,
                    InterpError::BadProgram {
                        msg: format!("heap arena exhausted allocating {size} bytes")
                    },
                    "{ctx}"
                );
            }
        }
    }
}

// ---- Malformed programs ----------------------------------------------------
//
// A `Program` built through its public fields can index past its own
// tables. Every entry point validates the structure first, so both
// engines reject each such shape with the identical `BadProgram`
// (naming the function and the offending index) instead of panicking.

/// A small valid program with one of everything the malformed shapes
/// below corrupt: a jump, a direct call with an argument, and a global.
fn malformed_base(abi: Abi) -> Program {
    let mut b = ProgramBuilder::new("malformed", abi);
    let g = b.global_zero("g", 64);
    let helper = b.function("helper", 1, |f| {
        let r = f.vreg();
        f.add(r, f.arg(0), 1);
        f.ret(Some(r));
    });
    let main = b.function("main", 0, |f| {
        let acc = f.vreg();
        f.mov_imm(acc, 3);
        let p = f.vreg();
        f.lea_global(p, g, 8);
        f.store_int(acc, p, 0, MemSize::S8);
        let skip = f.label();
        f.jump(skip);
        f.add(acc, acc, 100);
        f.bind(skip);
        f.call(helper, &[acc], Some(acc));
        f.halt_code(acc);
    });
    b.set_entry(main);
    b.lower()
}

/// The index of `main`.
fn main_of(prog: &Program) -> usize {
    prog.funcs.iter().position(|f| f.name == "main").unwrap()
}

/// The index of `main` and the ip of its first instruction matching
/// `pick`.
fn find_in_main(prog: &Program, pick: impl Fn(&Inst) -> bool) -> (usize, usize) {
    let fi = main_of(prog);
    (fi, prog.funcs[fi].insts.iter().position(pick).unwrap())
}

/// Each malformed shape: a name and a corruption of the base program
/// that returns the `BadProgram` message both engines must report.
type Corruption = fn(&mut Program) -> String;

const MALFORMED: [(&str, Corruption); 9] = [
    ("jump to a missing label", |p| {
        let (fi, ip) = find_in_main(p, |i| matches!(i, Inst::Jump { .. }));
        let n = p.funcs[fi].labels.len();
        p.funcs[fi].insts[ip] = Inst::Jump {
            target: Label(n as u32 + 7),
        };
        format!(
            "`main` at ip {ip}: label #{} ({n} labels) out of range",
            n + 7
        )
    }),
    ("register past vregs", |p| {
        let (fi, ip) = find_in_main(p, |i| matches!(i, Inst::MovImm { .. }));
        let v = p.funcs[fi].vregs;
        p.funcs[fi].insts[ip] = Inst::MovImm { dst: v, imm: 1 };
        format!("`main` at ip {ip}: register v{v} ({v} vregs) out of range")
    }),
    ("call to a missing function", |p| {
        let (fi, ip) = find_in_main(p, |i| matches!(i, Inst::Call { .. }));
        let n = p.funcs.len() as u32;
        if let Inst::Call { func, .. } = &mut p.funcs[fi].insts[ip] {
            *func = FuncId(n + 1);
        }
        format!(
            "`main` at ip {ip}: function #{} ({n} functions) out of range",
            n + 1
        )
    }),
    ("entry out of range", |p| {
        let n = p.funcs.len() as u32;
        p.entry = FuncId(n + 2);
        format!("entry function #{} out of range ({n} functions)", n + 2)
    }),
    ("callee without room for its parameters", |p| {
        let h = p.funcs.iter_mut().find(|f| f.name == "helper").unwrap();
        h.vregs = h.params;
        "`helper` has 1 vregs, too few for the stack pointer and 1 params".to_owned()
    }),
    ("call argument past the caller's vregs", |p| {
        let (fi, ip) = find_in_main(p, |i| matches!(i, Inst::Call { .. }));
        let v = p.funcs[fi].vregs;
        if let Inst::Call { args, .. } = &mut p.funcs[fi].insts[ip] {
            args[0] = v + 3;
        }
        format!(
            "`main` at ip {ip}: register v{} ({v} vregs) out of range",
            v + 3
        )
    }),
    ("lea of a missing global", |p| {
        let (fi, ip) = find_in_main(p, |i| matches!(i, Inst::MovImm { .. }));
        let n = p.globals.len() as u32;
        p.funcs[fi].insts[ip] = Inst::LeaGlobal {
            dst: 1,
            global: GlobalId(n + 3),
            off: 0,
        };
        format!(
            "`main` at ip {ip}: global #{} ({n} globals) out of range",
            n + 3
        )
    }),
    ("lea of a missing function", |p| {
        let (fi, ip) = find_in_main(p, |i| matches!(i, Inst::MovImm { .. }));
        let n = p.funcs.len() as u32;
        p.funcs[fi].insts[ip] = Inst::LeaFunc {
            dst: 1,
            func: FuncId(n + 4),
        };
        format!(
            "`main` at ip {ip}: function #{} ({n} functions) out of range",
            n + 4
        )
    }),
    ("label past the function's end", |p| {
        let fi = main_of(p);
        let len = p.funcs[fi].insts.len();
        p.funcs[fi].labels[0] = len as u32 + 1;
        format!(
            "`main`: label #0 targets ip {}, past the end ({len} insts)",
            len + 1
        )
    }),
];

/// Every malformed shape, under every ABI and through all four entry
/// points, fails on both engines with the identical `BadProgram`. A
/// label exactly at the function's end stays legal: control arriving
/// there runs off the end at run time, identically on both engines.
#[test]
fn malformed_programs_are_rejected_identically() {
    for abi in Abi::ALL {
        let base = malformed_base(abi);
        diff_run(
            &base,
            InterpConfig::default(),
            &format!("malformed/{abi}/base"),
        )
        .expect("the uncorrupted program is valid");
        for (name, corrupt) in MALFORMED {
            let mut prog = base.clone();
            let msg = corrupt(&mut prog);
            let want = InterpError::BadProgram { msg };
            for (driver, run) in DRIVERS {
                let ctx = format!("malformed/{abi}/{name}/{driver}");
                let err = run(&prog, InterpConfig::default(), &ctx).expect_err(&ctx);
                assert_eq!(err, want, "{ctx}");
            }
        }
        let mut at_end = base.clone();
        let fi = main_of(&at_end);
        at_end.funcs[fi].labels[0] = at_end.funcs[fi].insts.len() as u32;
        let err = diff_run(
            &at_end,
            InterpConfig::default(),
            &format!("malformed/{abi}/at-end"),
        )
        .expect_err("jumping to the end runs off it");
        assert_eq!(
            err,
            InterpError::BadProgram {
                msg: "control ran off the end of `main`".into()
            }
        );
    }
}

/// One structural corruption of a generated program; the selectors are
/// reduced modulo the program's own sizes.
#[derive(Clone, Debug)]
enum Mutation {
    /// Moves label `label` of function `func` to `ip` (possibly past
    /// the end, possibly still legal).
    Label { func: usize, label: usize, ip: u32 },
    /// Rewrites instruction `at` of function `func` to write register
    /// `vregs + over - 2` (in range when `over < 2`).
    Register { func: usize, at: usize, over: u16 },
    /// Retargets the `call`-th direct call to function `target`.
    Callee { call: usize, target: u32 },
    /// Sets the entry function.
    Entry(u32),
    /// Shrinks function `func`'s register count by `by`.
    Vregs { func: usize, by: u16 },
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<usize>(), any::<usize>(), 0u32..400).prop_map(|(func, label, ip)| Mutation::Label {
            func,
            label,
            ip
        }),
        (any::<usize>(), any::<usize>(), 0u16..6).prop_map(|(func, at, over)| Mutation::Register {
            func,
            at,
            over
        }),
        (any::<usize>(), 0u32..8).prop_map(|(call, target)| Mutation::Callee { call, target }),
        (0u32..8).prop_map(Mutation::Entry),
        (any::<usize>(), 1u16..8).prop_map(|(func, by)| Mutation::Vregs { func, by }),
    ]
}

fn mutate(prog: &mut Program, m: &Mutation) {
    let nf = prog.funcs.len();
    match *m {
        Mutation::Label { func, label, ip } => {
            let labels = &mut prog.funcs[func % nf].labels;
            if !labels.is_empty() {
                let k = label % labels.len();
                labels[k] = ip;
            }
        }
        Mutation::Register { func, at, over } => {
            let f = &mut prog.funcs[func % nf];
            let at = at % f.insts.len();
            f.insts[at] = Inst::MovImm {
                dst: (f.vregs + over).saturating_sub(2),
                imm: 0,
            };
        }
        Mutation::Callee { call, target } => {
            let mut calls: Vec<&mut FuncId> = prog
                .funcs
                .iter_mut()
                .flat_map(|f| f.insts.iter_mut())
                .filter_map(|i| match i {
                    Inst::Call { func, .. } => Some(func),
                    _ => None,
                })
                .collect();
            if !calls.is_empty() {
                let k = call % calls.len();
                *calls[k] = FuncId(target);
            }
        }
        Mutation::Entry(e) => prog.entry = FuncId(e),
        Mutation::Vregs { func, by } => {
            let f = &mut prog.funcs[func % nf];
            f.vregs = f.vregs.saturating_sub(by);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Generated programs with random structural corruptions: both
    /// engines, through both fast-engine drivers, must return the
    /// identical result or error and never panic. A corruption that
    /// keeps the program well-formed may still loop, so fuel is capped.
    #[test]
    fn mutated_programs_fail_identically(
        ops in proptest::collection::vec(op_strategy(), 1..16),
        mutations in proptest::collection::vec(mutation_strategy(), 1..3),
    ) {
        let cfg = InterpConfig {
            max_insts: 50_000,
            ..InterpConfig::default()
        };
        for abi in Abi::ALL {
            let mut prog = realise(&ops, abi);
            for m in &mutations {
                mutate(&mut prog, m);
            }
            let ctx = format!("mutated/{abi}/{mutations:?}");
            diff_run(&prog, cfg, &ctx).ok();
            diff_run_armed(&prog, cfg, &ctx).ok();
        }
    }
}
