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
//! * ≥1000 proptest-generated random programs (350 specs × 3 ABIs);
//! * the error paths: fuel exhaustion, unrepresentable-bounds traps,
//!   and sealed-entry violations.

use cheri_isa::{
    lower, Abi, CapOpKind, Cond, EventSink, GlobalDef, Interp, InterpConfig, InterpError, MemSize,
    OpClass, Program, ProgramBuilder, PtrInit, RetiredEvent, RunResult,
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
