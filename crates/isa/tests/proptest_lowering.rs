//! Property tests over random generated programs: the three lowerings
//! must agree architecturally, and lowering/interpreter invariants must
//! hold for arbitrary (valid) programs — not just the hand-written
//! workloads.

use cheri_isa::{
    lower, try_lower, Abi, Cond, EventSink, GenericProgram, Interp, InterpConfig, MemSize,
    NullSink, OpClass, ProgramBuilder, RetiredEvent, RetiredInfo,
};
use proptest::prelude::*;

/// A tiny random "program specification" that the builder turns into a
/// structurally valid program: a sequence of operations over a bounded
/// arena and a few scalar registers.
#[derive(Clone, Debug)]
enum Op {
    AddConst(u8),
    Mix,
    StoreSlot(u8),
    LoadSlot(u8),
    StorePtrSlot(u8),
    LoadPtrSlot(u8),
    AllocTouch(u16),
    LoopAccum(u8),
    CallHelper,
    BranchOnBit(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::AddConst),
        Just(Op::Mix),
        (0u8..16).prop_map(Op::StoreSlot),
        (0u8..16).prop_map(Op::LoadSlot),
        (0u8..8).prop_map(Op::StorePtrSlot),
        (0u8..8).prop_map(Op::LoadPtrSlot),
        (16u16..2000).prop_map(Op::AllocTouch),
        (1u8..20).prop_map(Op::LoopAccum),
        Just(Op::CallHelper),
        (0u8..8).prop_map(Op::BranchOnBit),
    ]
}

/// Builds a program realising the op sequence under the given ABI.
fn realise(ops: &[Op], abi: Abi) -> GenericProgram {
    let mut b = ProgramBuilder::new("prop", abi);
    let ps = b.ptr_size() as i64;
    // Scratch global: 16 integer slots then 8 pointer slots.
    let g = b.global_zero("scratch", 128 + 8 * abi.pointer_size());
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
        // One live heap pointer at all times.
        let heap = f.vreg();
        f.malloc(heap, 64);
        f.store_ptr(heap, base, 128);

        for op in &ops {
            match op {
                Op::AddConst(k) => f.add(acc, acc, *k as i64),
                Op::Mix => {
                    f.eor(acc, acc, 0x9e37i64);
                    f.lsr(acc, acc, 1);
                    f.add(acc, acc, 3);
                }
                Op::StoreSlot(s) => {
                    f.store_int(acc, base, (*s as i64) * 8, MemSize::S8);
                }
                Op::LoadSlot(s) => {
                    let v = f.vreg();
                    f.load_int(v, base, (*s as i64) * 8, MemSize::S8);
                    f.add(acc, acc, v);
                }
                Op::StorePtrSlot(s) => {
                    let p = f.vreg();
                    f.load_ptr(p, base, 128);
                    f.store_ptr(p, base, 128 + (*s as i64) * ps);
                }
                Op::LoadPtrSlot(s) => {
                    let p = f.vreg();
                    f.load_ptr(p, base, 128 + (*s as i64) * ps);
                    // The slot may be null; only fold the address.
                    let a = f.vreg();
                    f.ptr_to_int(a, p);
                    let lowbits = f.vreg();
                    f.and(lowbits, a, 15);
                    f.add(acc, acc, lowbits);
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
            }
        }
        f.and(acc, acc, 0xFFFF_FFFFi64);
        f.halt_code(acc);
    });
    b.set_entry(main);
    b.build()
}

#[derive(Default)]
struct Audit {
    events: u64,
    cap_mem: u64,
    int_ptr_mem: u64,
    pcc: u64,
}

impl EventSink for Audit {
    fn retire(&mut self, ev: RetiredEvent) {
        self.events += 1;
        match ev.info {
            RetiredInfo::Load { is_cap, size, .. } | RetiredInfo::Store { is_cap, size, .. } => {
                if is_cap {
                    self.cap_mem += 1;
                    assert_eq!(size, 16, "capability accesses are 16 bytes");
                } else if size == 8 {
                    self.int_ptr_mem += 1;
                }
            }
            RetiredInfo::Branch { pcc_change, .. } if pcc_change => {
                self.pcc += 1;
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The fundamental reproduction invariant: all three lowerings of a
    /// random program compute the same architectural result.
    #[test]
    fn three_lowerings_agree(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let mut result = None;
        for abi in Abi::ALL {
            let prog = lower(&realise(&ops, abi));
            let r = Interp::new(InterpConfig::default())
                .run(&prog, &mut Audit::default())
                .expect("generated programs are valid");
            match result {
                None => result = Some(r.exit_code),
                Some(prev) => prop_assert_eq!(prev, r.exit_code, "{} differs", abi),
            }
        }
    }

    /// Event-stream invariants: capability ABIs emit 16-byte tagged
    /// accesses where hybrid emits 8-byte integer ones; hybrid emits no
    /// capability traffic and no PCC changes; purecap retires at least as
    /// many instructions as hybrid.
    #[test]
    fn event_stream_invariants(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let mut audits = Vec::new();
        for abi in Abi::ALL {
            let prog = lower(&realise(&ops, abi));
            let mut audit = Audit::default();
            Interp::new(InterpConfig::default())
                .run(&prog, &mut audit)
                .expect("valid");
            audits.push(audit);
        }
        let (hybrid, benchmark, purecap) = (&audits[0], &audits[1], &audits[2]);
        prop_assert_eq!(hybrid.cap_mem, 0, "hybrid must not move capabilities");
        prop_assert_eq!(hybrid.pcc, 0);
        prop_assert_eq!(benchmark.pcc, 0, "benchmark ABI uses integer jumps");
        prop_assert!(purecap.cap_mem > 0, "the live heap pointer guarantees cap traffic");
        prop_assert_eq!(purecap.cap_mem, benchmark.cap_mem, "same memory profile");
        prop_assert_eq!(purecap.events, benchmark.events, "same instruction stream");
        prop_assert!(purecap.events >= hybrid.events || hybrid.events - purecap.events < purecap.events / 10,
            "purecap should not retire substantially fewer instructions");
    }

    /// The opcode-class attribution partitions the retired stream: on
    /// every ABI the eight per-class counts sum exactly to the total
    /// retired-instruction count, and the capability-only classes stay
    /// empty where the ABI moves no capabilities.
    #[test]
    fn class_counts_partition_retired(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        for abi in Abi::ALL {
            let prog = lower(&realise(&ops, abi));
            let r = Interp::new(InterpConfig::default())
                .run(&prog, &mut NullSink)
                .expect("generated programs are valid");
            prop_assert_eq!(
                r.classes.total(), r.retired,
                "{}: class counts must partition the retired stream", abi
            );
            // Every program allocates, so the runtime class is never empty.
            prop_assert!(r.classes.get(OpClass::Runtime) > 0, "{}", abi);
            if abi == Abi::Hybrid {
                prop_assert_eq!(r.classes.get(OpClass::MemCap), 0, "hybrid moves no capabilities");
                prop_assert_eq!(r.classes.get(OpClass::CapBranch), 0, "hybrid never changes PCC");
            } else {
                prop_assert!(r.classes.get(OpClass::MemCap) > 0,
                    "{}: the live heap pointer guarantees capability traffic", abi);
            }
        }
    }

    /// Lowering is deterministic and its label table stays in bounds.
    #[test]
    fn lowering_is_deterministic(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        for abi in Abi::ALL {
            let a = lower(&realise(&ops, abi));
            let b = lower(&realise(&ops, abi));
            prop_assert_eq!(&a, &b);
            for f in &a.funcs {
                for &l in &f.labels {
                    prop_assert!(l as usize <= f.insts.len());
                }
            }
        }
    }
}

/// A capability lowering adds a temporary register per pointer store, so
/// a function already at the `VReg` limit cannot take one: lowering
/// rejects it with `BadProgram` instead of panicking. Hybrid adds no
/// temporary and lowers the same function.
#[test]
fn lowering_past_the_vreg_limit_is_a_bad_program() {
    let wide = |abi: Abi, vregs: u16| -> GenericProgram {
        let mut b = ProgramBuilder::new("wide", abi);
        let g = b.global_zero("cell", 64);
        let main = b.function("main", 0, |f| {
            let p = f.vreg();
            f.lea_global(p, g, 0);
            f.store_ptr(p, p, 0);
            f.halt();
        });
        b.set_entry(main);
        let mut gp = b.build();
        gp.funcs[0].vregs = vregs;
        gp
    };
    for abi in [Abi::Purecap, Abi::Benchmark] {
        let prog = try_lower(&wide(abi, u16::MAX - 1)).expect("one temporary fits");
        assert_eq!(prog.funcs[0].vregs, u16::MAX);
        match try_lower(&wide(abi, u16::MAX)) {
            Err(cheri_isa::InterpError::BadProgram { msg }) => {
                assert!(msg.contains("`main`"), "{abi}: {msg}")
            }
            other => panic!("{abi}: expected BadProgram, got {other:?}"),
        }
    }
    let hybrid = try_lower(&wide(Abi::Hybrid, u16::MAX)).expect("hybrid adds no temporary");
    assert_eq!(hybrid.funcs[0].vregs, u16::MAX);
}
