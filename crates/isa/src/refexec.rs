//! The reference executor: the original per-instruction `match`
//! interpreter, preserved as the semantic oracle for the pre-decoded
//! fast engine ([`crate::fastexec`]), which runs every production mode.
//!
//! Only [`Interp::run_reference`](crate::Interp::run_reference) and
//! [`Interp::run_reference_with_faults`](crate::Interp::run_reference_with_faults)
//! reach it. Its loop polls [`FaultInjector`] hooks before every fetch
//! and memory access, and its SIGPROT-analogue handler implements
//! skip/unwind recovery. The differential harnesses
//! (`tests/differential.rs`, and `morello-fault`'s
//! `tests/engine_equivalence.rs` for armed runs) lock the two engines
//! together — bit-identical event streams, architectural results,
//! errors and injector journals.

use crate::classify::{ClassCounts, OpClass};
use crate::fastexec::inject_mem;
use crate::inst::{
    BranchKind, CapOp2Kind, CapOpKind, Cond, FloatOp, Inst, InstClass, IntOp, LoadKind, MemSize,
    Operand, VecKind,
};
use crate::interp::{
    eval_float_op, eval_int_op, fell_off, EventSink, FaultInjector, InterpConfig, InterpError,
    RecoveryPolicy, RetiredEvent, RetiredInfo, RunResult, UNWIND_EXIT,
};
use crate::lower::{RT_FREE_PC, RT_MALLOC_PC, RT_SWEEP_PC, STACK_SIZE};
use crate::program::{FuncId, Program, PtrInit, VReg};
use cheri_cap::{CapFault, Capability, FaultKind, Perms};
use cheri_mem::TaggedMemory;
use cheri_revoke::{RevokingHeap, StrategyKind, SweepOutcome};

/// Runs `prog` to completion on the reference executor.
pub(crate) fn run<S: EventSink, I: FaultInjector>(
    prog: &Program,
    cfg: InterpConfig,
    sink: &mut S,
    inj: I,
) -> Result<RunResult, InterpError> {
    let mut m = Machine::new(prog, cfg, inj)?;
    m.setup()?;
    m.exec(sink)
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum Value {
    Int(u64),
    F64(f64),
    Cap(Capability),
}

impl Value {
    fn zero() -> Value {
        Value::Int(0)
    }
}

struct Frame {
    func: u32,
    ip: u32,
    regs: Vec<Value>,
    taints: Vec<u64>,
    ret_reg: Option<VReg>,
    ret_ip: u32,
    saved_sp: u64,
}

/// Writes global initial images, pointer slots, and the captable —
/// the pre-execution memory image both engines start from.
pub(crate) fn init_memory(prog: &Program, mem: &mut TaggedMemory) -> Result<(), InterpError> {
    let cap_abi = prog.abi.is_capability();
    let data_root = Capability::root_rw();
    let map = &prog.map;
    for (gi, g) in prog.globals.iter().enumerate() {
        let base = map.global_base[gi];
        if !g.init.is_empty() {
            (*mem)
                .write_bytes(base, &g.init)
                .map_err(|err| InterpError::Mem { err, pc: 0 })?;
        }
        for &(off, init) in &g.ptr_inits {
            let slot = base + off;
            match init {
                PtrInit::Global(target, toff) => {
                    let taddr = map.global_base[target.0 as usize] + toff;
                    if cap_abi {
                        let tg = &prog.globals[target.0 as usize];
                        let cap = data_root
                            .set_bounds(map.global_base[target.0 as usize], tg.size)
                            .expect("global bounds")
                            .set_address(taddr);
                        (*mem)
                            .store_cap(slot, cap.to_compressed(), cap.tag())
                            .map_err(|err| InterpError::Mem { err, pc: 0 })?;
                    } else {
                        (*mem)
                            .write_u64(slot, taddr)
                            .map_err(|err| InterpError::Mem { err, pc: 0 })?;
                    }
                }
                PtrInit::Func(fid) => {
                    let faddr = map.func_base[fid.0 as usize];
                    if cap_abi {
                        let cap = func_cap(prog, fid);
                        (*mem)
                            .store_cap(slot, cap.to_compressed(), cap.tag())
                            .map_err(|err| InterpError::Mem { err, pc: 0 })?;
                    } else {
                        (*mem)
                            .write_u64(slot, faddr)
                            .map_err(|err| InterpError::Mem { err, pc: 0 })?;
                    }
                }
                PtrInit::SealRoot(otype) => {
                    if cap_abi {
                        let cap = Capability::root_all()
                            .set_bounds(0, 1 << 15)
                            .expect("otype space bounds")
                            .and_perms(Perms::SEAL | Perms::UNSEAL | Perms::GLOBAL)
                            .expect("root derivation")
                            .set_address(u64::from(otype));
                        (*mem)
                            .store_cap(slot, cap.to_compressed(), cap.tag())
                            .map_err(|err| InterpError::Mem { err, pc: 0 })?;
                    } else {
                        (*mem)
                            .write_u64(slot, u64::from(otype))
                            .map_err(|err| InterpError::Mem { err, pc: 0 })?;
                    }
                }
            }
        }
    }
    // Captable: function sentries then global data caps.
    if cap_abi {
        let nf = prog.funcs.len() as u64;
        for fi in 0..prog.funcs.len() {
            let cap = func_cap(prog, FuncId(fi as u32));
            (*mem)
                .store_cap(
                    map.captable_base + fi as u64 * 16,
                    cap.to_compressed(),
                    true,
                )
                .map_err(|err| InterpError::Mem { err, pc: 0 })?;
        }
        for (gi, g) in prog.globals.iter().enumerate() {
            let cap = data_root
                .set_bounds(map.global_base[gi], g.size.max(1))
                .expect("global bounds");
            (*mem)
                .store_cap(
                    map.captable_base + (nf + gi as u64) * 16,
                    cap.to_compressed(),
                    true,
                )
                .map_err(|err| InterpError::Mem { err, pc: 0 })?;
        }
    }
    Ok(())
}

/// The sealed-sentry capability for calling function `f` — shared by the
/// captable image and the hybrid/purecap call paths of both engines.
pub(crate) fn func_cap(prog: &Program, f: FuncId) -> Capability {
    Capability::root_exec()
        .set_bounds(
            prog.map.func_base[f.0 as usize],
            prog.map.func_size[f.0 as usize],
        )
        .expect("function bounds representable")
        .seal_sentry()
        .expect("sentry seal")
}

pub(crate) const SAVE_AREA: u64 = 32; // LR + FP save slots (generous for both ABIs)
pub(crate) const META_LINES: u64 = 4096;

struct Machine<'p, I: FaultInjector> {
    prog: &'p Program,
    cfg: InterpConfig,
    inj: I,
    mem: TaggedMemory,
    heap: RevokingHeap,
    frames: Vec<Frame>,
    sp: u64,
    stack_cap: Capability,
    code_root: Capability,
    data_root: Capability,
    retired: u64,
    classes: ClassCounts,
    load_seq: u64,
    exit: Option<u64>,
    cap_abi: bool,
    pcc_branches: bool,
}

macro_rules! emit {
    ($self:ident, $sink:ident, $pc:expr, $info:expr) => {{
        let pc = $pc;
        let info = $info;
        $self.retired += 1;
        $self.classes.bump(OpClass::of(pc, &info));
        $sink.retire(RetiredEvent { pc, info });
    }};
}

impl<'p, I: FaultInjector> Machine<'p, I> {
    fn new(prog: &'p Program, cfg: InterpConfig, inj: I) -> Result<Machine<'p, I>, InterpError> {
        let cap_abi = prog.abi.is_capability();
        let kind = if cap_abi {
            match cfg.cap_alloc {
                // Capability ABIs need representable bounds: classic
                // layout would hand out unencodable large blocks.
                StrategyKind::Classic => StrategyKind::CapabilityPadded,
                k => k,
            }
        } else {
            StrategyKind::Classic
        };
        // First MiB of the arena is allocator metadata; the revocation
        // bitmap window sits in its upper half.
        let (heap_lo, heap_hi) = prog.map.heap;
        let heap = RevokingHeap::new(heap_lo + (1 << 20), heap_hi, heap_lo + (1 << 19), kind);
        let stack_base = prog.map.stack_top - STACK_SIZE;
        let stack_cap = Capability::root_rw()
            .set_bounds(stack_base, STACK_SIZE)
            .expect("stack bounds representable");
        Ok(Machine {
            prog,
            cfg,
            inj,
            mem: TaggedMemory::new(),
            heap,
            frames: Vec::with_capacity(64),
            sp: prog.map.stack_top,
            stack_cap,
            code_root: Capability::root_exec(),
            data_root: Capability::root_rw(),
            retired: 0,
            classes: ClassCounts::new(),
            load_seq: 0,
            exit: None,
            cap_abi,
            pcc_branches: prog.abi.capability_branches(),
        })
    }

    /// Writes global initial images, pointer slots, and the captable.
    fn setup(&mut self) -> Result<(), InterpError> {
        init_memory(self.prog, &mut self.mem)
    }

    fn pc(&self) -> u64 {
        let fr = self.frames.last().expect("no frame");
        self.prog.pc_of(FuncId(fr.func), fr.ip as usize)
    }

    fn exec<S: EventSink>(&mut self, sink: &mut S) -> Result<RunResult, InterpError> {
        self.push_entry_frame(sink)?;
        while self.exit.is_none() {
            if self.retired >= self.cfg.max_insts {
                return Err(InterpError::FuelExhausted {
                    retired: self.retired,
                });
            }
            if self.inj.active() {
                let pc = self.pc();
                if self.inj.poll_pcc(self.retired, pc) {
                    self.pcc_fault(pc)?;
                    continue;
                }
            }
            match self.step(sink) {
                Ok(()) => {}
                Err(e @ InterpError::Fault { .. }) => self.handle_fault(e)?,
                Err(e) => return Err(e),
            }
        }
        Ok(RunResult {
            retired: self.retired,
            exit_code: self.exit.unwrap_or(0),
            mem_stats: self.mem.stats(),
            heap_stats: self.heap.stats(),
            pages_touched: self.mem.pages_touched(),
            classes: self.classes,
        })
    }

    /// The SIGPROT-analogue handler: journals the trap and applies the
    /// injector's [`RecoveryPolicy`]. `Abort` (the [`NoInjector`]
    /// policy) preserves the historical behaviour exactly — the fault
    /// propagates unchanged.
    ///
    /// Recovery is sound because `Fault`-kind errors are raised before
    /// any architectural mutation of the faulting instruction (bounds,
    /// tag, and permission checks precede the access), and faulting
    /// instructions are never block terminators, so `advance` resumes
    /// at a well-defined successor. A resumed run stops if the trap
    /// decided it.
    fn handle_fault(&mut self, e: InterpError) -> Result<(), InterpError> {
        let pc = match &e {
            InterpError::Fault { pc, .. } => *pc,
            _ => unreachable!("handle_fault only sees Fault errors"),
        };
        self.inj.trapped(pc);
        match self.inj.policy() {
            RecoveryPolicy::Abort => Err(e),
            RecoveryPolicy::SkipFaultingOp => {
                self.advance();
                self.stop_if_decided()
            }
            RecoveryPolicy::UnwindToCheckpoint => {
                self.inj.unwound(pc);
                self.unwind_frame();
                self.stop_if_decided()
            }
        }
    }

    /// An injected PCC corruption at the fetch stage. Capability ABIs
    /// seal the PC in a sentry and check it at every fetch, so the
    /// corruption traps immediately; hybrid's integer PC is unchecked
    /// and — in this dense code model, where every address inside a
    /// function decodes — the perturbation has no architectural effect.
    /// The injector journals it as undetected either way.
    fn pcc_fault(&mut self, pc: u64) -> Result<(), InterpError> {
        if self.cap_abi {
            let fr = self.frames.last().expect("no frame");
            let e = InterpError::Fault {
                fault: CapFault::op(FaultKind::TagViolation, pc),
                pc,
                func: self.prog.funcs[fr.func as usize].name.as_str().into(),
            };
            self.handle_fault(e)
        } else {
            self.stop_if_decided()
        }
    }

    /// The `longjmp` half of [`RecoveryPolicy::UnwindToCheckpoint`]:
    /// abandon the faulting frame, restore the caller's stack pointer,
    /// and resume at the return site as if the call returned zero.
    fn unwind_frame(&mut self) {
        let fr = self.frames.pop().expect("no frame");
        self.sp = fr.saved_sp;
        match self.frames.last_mut() {
            Some(caller) => {
                if let Some(r) = fr.ret_reg {
                    caller.regs[r as usize] = Value::Int(0);
                    caller.taints[r as usize] = 0;
                }
                caller.ip = fr.ret_ip;
            }
            None => self.exit = Some(UNWIND_EXIT),
        }
    }

    /// Applies a pending memory-site injection to the base register
    /// (the corruption rule shared with the fast engine); stops the run
    /// if the firing decided it.
    fn inject_mem(
        &mut self,
        base: VReg,
        off: i64,
        pc: u64,
        is_store: bool,
    ) -> Result<(), InterpError> {
        let fr = self.frames.last_mut().expect("no frame");
        let fired = inject_mem(
            &mut self.inj,
            &mut fr.regs[base as usize],
            self.retired,
            off,
            pc,
            is_store,
        );
        if fired {
            self.stop_if_decided()?;
        }
        Ok(())
    }

    /// Ends the run with [`InterpError::Decided`] once the injector
    /// reports its outcome settled.
    fn stop_if_decided(&self) -> Result<(), InterpError> {
        if self.inj.decided() {
            return Err(InterpError::Decided {
                retired: self.retired,
            });
        }
        Ok(())
    }

    fn push_entry_frame<S: EventSink>(&mut self, sink: &mut S) -> Result<(), InterpError> {
        let entry = self.prog.entry;
        let f = &self.prog.funcs[entry.0 as usize];
        if f.params != 0 {
            return Err(InterpError::BadProgram {
                msg: format!("entry `{}` must take no parameters", f.name),
            });
        }
        let target = self.prog.map.func_base[entry.0 as usize];
        self.push_frame(entry, &[], None, 0, sink, BranchKind::Call, target, false)?;
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn push_frame<S: EventSink>(
        &mut self,
        callee: FuncId,
        args: &[Value],
        ret_reg: Option<VReg>,
        ret_ip: u32,
        sink: &mut S,
        kind: BranchKind,
        target: u64,
        from_pc_valid: bool,
    ) -> Result<(), InterpError> {
        if self.frames.len() as u32 >= self.cfg.max_call_depth {
            return Err(InterpError::CallDepth { pc: self.pc() });
        }
        let prog: &'p Program = self.prog;
        let f = &prog.funcs[callee.0 as usize];
        if args.len() != f.params as usize {
            return Err(InterpError::BadProgram {
                msg: format!(
                    "call to `{}` with {} args (expects {})",
                    f.name,
                    args.len(),
                    f.params
                ),
            });
        }
        // Branch event at the call site (skipped for the entry frame).
        let mut ret_pc = 0;
        if from_pc_valid {
            // PCC bounds are per-module (per-DSO): only cross-module
            // transfers install new bounds. Same-module indirect calls
            // (e.g. SQLite's dispatch) keep the current PCC, which is why
            // the benchmark ABI barely helps such workloads in the paper.
            let caller_module = self.current_module();
            let pcc_change = self.pcc_branches && f.module != caller_module;
            let pc = self.pc();
            ret_pc = pc + 4;
            emit!(
                self,
                sink,
                pc,
                RetiredInfo::Branch {
                    kind,
                    taken: true,
                    target,
                    pcc_change,
                }
            );
        }

        // Prologue: SP adjust + return-address save.
        let saved_sp = self.sp;
        let new_sp = self.sp - (f.frame_size + SAVE_AREA);
        self.sp = new_sp;
        let base_pc = self.prog.map.func_base[callee.0 as usize];
        emit!(
            self,
            sink,
            base_pc,
            if self.cap_abi {
                RetiredInfo::CapManip
            } else {
                RetiredInfo::Simple(InstClass::Dp)
            }
        );
        let lr_addr = new_sp + f.frame_size;
        if self.cap_abi {
            // Save the return address as a capability into the caller.
            let ret_cap = self.code_root.set_address(ret_pc);
            self.mem
                .store_cap(lr_addr & !15, ret_cap.to_compressed(), true)
                .map_err(|err| InterpError::Mem { err, pc: base_pc })?;
            emit!(
                self,
                sink,
                base_pc + 4,
                RetiredInfo::Store {
                    addr: lr_addr & !15,
                    size: 16,
                    is_cap: true,
                }
            );
        } else {
            self.mem
                .write_u64(lr_addr, ret_pc)
                .map_err(|err| InterpError::Mem { err, pc: base_pc })?;
            emit!(
                self,
                sink,
                base_pc + 4,
                RetiredInfo::Store {
                    addr: lr_addr,
                    size: 8,
                    is_cap: false,
                }
            );
        }

        let mut regs = vec![Value::zero(); f.vregs as usize];
        let taints = vec![0u64; f.vregs as usize];
        regs[0] = if self.cap_abi {
            Value::Cap(self.stack_cap.set_address(new_sp))
        } else {
            Value::Int(new_sp)
        };
        for (i, v) in args.iter().enumerate() {
            regs[i + 1] = *v;
        }
        self.frames.push(Frame {
            func: callee.0,
            ip: 0,
            regs,
            taints,
            ret_reg,
            ret_ip,
            saved_sp,
        });
        Ok(())
    }

    fn current_module(&self) -> crate::ModuleId {
        let fr = self.frames.last().expect("no frame");
        self.prog.funcs[fr.func as usize].module
    }

    fn pop_frame<S: EventSink>(
        &mut self,
        val: Option<Value>,
        sink: &mut S,
    ) -> Result<(), InterpError> {
        let prog: &'p Program = self.prog;
        let fr = self.frames.pop().expect("no frame");
        let f = &prog.funcs[fr.func as usize];
        let pc = prog.pc_of(FuncId(fr.func), fr.ip as usize);
        let lr_addr = (self.sp + f.frame_size) & if self.cap_abi { !15 } else { !0 };

        // Epilogue: LR reload + SP adjust + return branch.
        emit!(
            self,
            sink,
            pc,
            RetiredInfo::Load {
                addr: lr_addr,
                size: if self.cap_abi { 16 } else { 8 },
                is_cap: self.cap_abi,
                dep_load: false,
            }
        );
        if self.cap_abi {
            self.mem
                .load_cap(lr_addr)
                .map_err(|err| InterpError::Mem { err, pc })?;
        } else {
            self.mem
                .read_u64(lr_addr)
                .map_err(|err| InterpError::Mem { err, pc })?;
        }
        emit!(
            self,
            sink,
            pc,
            if self.cap_abi {
                RetiredInfo::CapManip
            } else {
                RetiredInfo::Simple(InstClass::Dp)
            }
        );
        self.sp = fr.saved_sp;

        let pcc_branches = self.pcc_branches;
        match self.frames.last_mut() {
            Some(caller) => {
                let caller_func = &prog.funcs[caller.func as usize];
                let ret_target = prog.pc_of(FuncId(caller.func), fr.ret_ip as usize);
                let pcc_change = pcc_branches && caller_func.module != f.module;
                if let (Some(r), Some(v)) = (fr.ret_reg, val) {
                    caller.regs[r as usize] = v;
                    // Return values inherit "recently loaded" status
                    // conservatively: cleared (call boundary).
                    caller.taints[r as usize] = 0;
                }
                caller.ip = fr.ret_ip;
                emit!(
                    self,
                    sink,
                    pc,
                    RetiredInfo::Branch {
                        kind: BranchKind::Return,
                        taken: true,
                        target: ret_target,
                        pcc_change,
                    }
                );
            }
            None => {
                // Returning from the entry function ends the program.
                let code = match val {
                    Some(Value::Int(v)) => v,
                    _ => 0,
                };
                self.exit = Some(code);
            }
        }
        Ok(())
    }

    // ---- Value plumbing ---------------------------------------------------

    fn reg(&self, r: VReg) -> Value {
        self.frames.last().expect("no frame").regs[r as usize]
    }

    fn set_reg(&mut self, r: VReg, v: Value) {
        self.frames.last_mut().expect("no frame").regs[r as usize] = v;
    }

    fn taint(&self, r: VReg) -> u64 {
        self.frames.last().expect("no frame").taints[r as usize]
    }

    fn set_taint(&mut self, r: VReg, t: u64) {
        self.frames.last_mut().expect("no frame").taints[r as usize] = t;
    }

    fn as_int(&self, r: VReg) -> Result<u64, InterpError> {
        match self.reg(r) {
            Value::Int(v) => Ok(v),
            _ => Err(InterpError::TypeConfusion {
                pc: self.pc(),
                expected: "integer",
            }),
        }
    }

    fn as_f64(&self, r: VReg) -> Result<f64, InterpError> {
        match self.reg(r) {
            Value::F64(v) => Ok(v),
            Value::Int(0) => Ok(0.0), // zero-initialised registers
            _ => Err(InterpError::TypeConfusion {
                pc: self.pc(),
                expected: "float",
            }),
        }
    }

    fn as_cap(&self, r: VReg) -> Result<Capability, InterpError> {
        match self.reg(r) {
            Value::Cap(c) => Ok(c),
            _ => Err(InterpError::TypeConfusion {
                pc: self.pc(),
                expected: "capability",
            }),
        }
    }

    fn operand_int(&self, op: Operand) -> Result<u64, InterpError> {
        match op {
            Operand::Reg(r) => self.as_int(r),
            Operand::Imm(i) => Ok(i as u64),
        }
    }

    fn operand_taint(&self, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.taint(r),
            Operand::Imm(_) => 0,
        }
    }

    /// Resolves a memory operand to (effective address, authorising cap).
    fn resolve(
        &self,
        base: VReg,
        off: i64,
        size: u64,
        write: bool,
        cap_access: bool,
    ) -> Result<(u64, Option<Capability>), InterpError> {
        if self.cap_abi {
            let c = self.as_cap(base)?;
            let addr = c.address().wrapping_add(off as u64);
            let mut req = if write { Perms::STORE } else { Perms::LOAD };
            if cap_access && write {
                req = req | Perms::STORE_CAP;
            }
            c.check_access(addr, size, req).map_err(|fault| {
                let fr = self.frames.last().expect("no frame");
                InterpError::Fault {
                    fault,
                    pc: self.pc(),
                    func: self.prog.funcs[fr.func as usize].name.as_str().into(),
                }
            })?;
            Ok((addr, Some(c)))
        } else {
            let b = self.as_int(base)?;
            Ok((b.wrapping_add(off as u64), None))
        }
    }

    fn dep_load(&self, base_taint: u64) -> bool {
        base_taint != 0 && self.load_seq.saturating_sub(base_taint) <= self.cfg.dep_window
    }

    // ---- The main dispatch -------------------------------------------------

    fn step<S: EventSink>(&mut self, sink: &mut S) -> Result<(), InterpError> {
        let (func_idx, ip) = {
            let fr = self.frames.last().expect("no frame");
            (fr.func as usize, fr.ip as usize)
        };
        // `self.prog` is a shared reference with the machine's lifetime, so
        // instruction borrows are independent of `self` mutations below.
        let prog: &'p Program = self.prog;
        let func = &prog.funcs[func_idx];
        let Some(inst) = func.insts.get(ip) else {
            return Err(fell_off(&func.name));
        };
        let func_id = FuncId(func_idx as u32);
        let pc = prog.pc_of(func_id, ip);

        match inst {
            Inst::MovImm { dst, imm } => {
                self.set_reg(*dst, Value::Int(*imm));
                self.set_taint(*dst, 0);
                emit!(self, sink, pc, RetiredInfo::Simple(InstClass::Dp));
                self.advance();
            }
            Inst::MovF64 { dst, imm } => {
                self.set_reg(*dst, Value::F64(*imm));
                self.set_taint(*dst, 0);
                emit!(self, sink, pc, RetiredInfo::Simple(InstClass::Dp));
                self.advance();
            }
            Inst::Mov { dst, src } => {
                let v = self.reg(*src);
                let t = self.taint(*src);
                self.set_reg(*dst, v);
                self.set_taint(*dst, t);
                emit!(self, sink, pc, RetiredInfo::Simple(InstClass::Dp));
                self.advance();
            }
            Inst::IntOp { op, dst, a, b } => {
                let av = self.as_int(*a)?;
                let bv = self.operand_int(*b)?;
                let r = eval_int_op(*op, av, bv);
                let t = self.taint(*a).max(self.operand_taint(*b));
                self.set_reg(*dst, Value::Int(r));
                self.set_taint(*dst, t);
                let info = match op {
                    IntOp::Mul => RetiredInfo::LongLatency {
                        class: InstClass::Dp,
                        extra: 1,
                    },
                    IntOp::UDiv | IntOp::URem => RetiredInfo::LongLatency {
                        class: InstClass::Dp,
                        extra: 9,
                    },
                    _ => RetiredInfo::Simple(InstClass::Dp),
                };
                emit!(self, sink, pc, info);
                self.advance();
            }
            Inst::Madd { dst, a, b, c, .. } => {
                let r = self
                    .as_int(*a)?
                    .wrapping_mul(self.as_int(*b)?)
                    .wrapping_add(self.as_int(*c)?);
                let t = self.taint(*a).max(self.taint(*b)).max(self.taint(*c));
                self.set_reg(*dst, Value::Int(r));
                self.set_taint(*dst, t);
                emit!(
                    self,
                    sink,
                    pc,
                    RetiredInfo::LongLatency {
                        class: InstClass::Dp,
                        extra: 1,
                    }
                );
                self.advance();
            }
            Inst::FloatOp { op, dst, a, b } => {
                let r = eval_float_op(*op, self.as_f64(*a)?, self.as_f64(*b)?);
                self.set_reg(*dst, Value::F64(r));
                self.set_taint(*dst, 0);
                let info = match op {
                    FloatOp::FDiv => RetiredInfo::LongLatency {
                        class: InstClass::Vfp,
                        extra: 12,
                    },
                    FloatOp::FSqrt => RetiredInfo::LongLatency {
                        class: InstClass::Vfp,
                        extra: 16,
                    },
                    _ => RetiredInfo::Simple(InstClass::Vfp),
                };
                emit!(self, sink, pc, info);
                self.advance();
            }
            Inst::FMadd { dst, a, b, c } => {
                let r = self.as_f64(*a)?.mul_add(self.as_f64(*b)?, self.as_f64(*c)?);
                self.set_reg(*dst, Value::F64(r));
                self.set_taint(*dst, 0);
                emit!(self, sink, pc, RetiredInfo::Simple(InstClass::Vfp));
                self.advance();
            }
            Inst::FCmp { cond, dst, a, b } => {
                let av = self.as_f64(*a)?;
                let bv = self.as_f64(*b)?;
                let r = match cond {
                    Cond::Eq => av == bv,
                    Cond::Ne => av != bv,
                    Cond::Ltu | Cond::Lts => av < bv,
                    Cond::Leu => av <= bv,
                    Cond::Gtu | Cond::Gts => av > bv,
                    Cond::Geu => av >= bv,
                };
                self.set_reg(*dst, Value::Int(u64::from(r)));
                self.set_taint(*dst, 0);
                emit!(self, sink, pc, RetiredInfo::Simple(InstClass::Vfp));
                self.advance();
            }
            Inst::VecOp { op, dst, a, b } => {
                match op {
                    VecKind::VAdd => {
                        let r = self.as_f64(*a)? + self.as_f64(*b)?;
                        self.set_reg(*dst, Value::F64(r));
                    }
                    VecKind::VMul => {
                        let r = self.as_f64(*a)? * self.as_f64(*b)?;
                        self.set_reg(*dst, Value::F64(r));
                    }
                    VecKind::VFma => {
                        let acc = self.as_f64(*dst)?;
                        let r = self.as_f64(*a)?.mul_add(self.as_f64(*b)?, acc);
                        self.set_reg(*dst, Value::F64(r));
                    }
                    VecKind::VSad => {
                        let acc = self.as_int(*dst)?;
                        let av = self.as_int(*a)?;
                        let bv = self.as_int(*b)?;
                        self.set_reg(*dst, Value::Int(acc.wrapping_add(av.abs_diff(bv))));
                    }
                }
                self.set_taint(*dst, 0);
                emit!(self, sink, pc, RetiredInfo::Simple(InstClass::Ase));
                self.advance();
            }
            Inst::Cvt { dst, src, to_int } => {
                if *to_int {
                    let v = self.as_f64(*src)?;
                    self.set_reg(*dst, Value::Int(v as i64 as u64));
                } else {
                    let v = self.as_int(*src)?;
                    self.set_reg(*dst, Value::F64(v as i64 as f64));
                }
                self.set_taint(*dst, 0);
                emit!(self, sink, pc, RetiredInfo::Simple(InstClass::Vfp));
                self.advance();
            }

            // -- Hybrid-only leftovers of lowering ---------------------------
            Inst::LeaGlobal { dst, global, off } => {
                let addr = self.prog.map.global_base[global.0 as usize].wrapping_add(*off as u64);
                self.set_reg(*dst, Value::Int(addr));
                self.set_taint(*dst, 0);
                emit!(self, sink, pc, RetiredInfo::Simple(InstClass::Dp));
                self.advance();
            }
            Inst::LeaFunc { dst, func } => {
                let addr = self.prog.map.func_base[func.0 as usize];
                self.set_reg(*dst, Value::Int(addr));
                self.set_taint(*dst, 0);
                emit!(self, sink, pc, RetiredInfo::Simple(InstClass::Dp));
                self.advance();
            }
            Inst::MovNullPtr { dst } => {
                let v = if self.cap_abi {
                    Value::Cap(Capability::null())
                } else {
                    Value::Int(0)
                };
                self.set_reg(*dst, v);
                self.set_taint(*dst, 0);
                emit!(self, sink, pc, RetiredInfo::Simple(InstClass::Dp));
                self.advance();
            }
            Inst::PtrAdd { dst, base, off } => {
                // Only reachable pre-lowering misuse; behave as integer add.
                let b = self.as_int(*base)?;
                let o = self.operand_int(*off)?;
                self.set_reg(*dst, Value::Int(b.wrapping_add(o)));
                emit!(self, sink, pc, RetiredInfo::Simple(InstClass::Dp));
                self.advance();
            }
            Inst::PtrToInt { dst, src } => {
                let v = self.reg(*src);
                let r = match v {
                    Value::Int(i) => i,
                    Value::Cap(c) => c.address(),
                    Value::F64(_) => {
                        return Err(InterpError::TypeConfusion {
                            pc,
                            expected: "pointer",
                        })
                    }
                };
                self.set_reg(*dst, Value::Int(r));
                emit!(self, sink, pc, RetiredInfo::Simple(InstClass::Dp));
                self.advance();
            }
            Inst::LoadPtr { .. }
            | Inst::StorePtr { .. }
            | Inst::LoadPtrIdx { .. }
            | Inst::StorePtrIdx { .. } => {
                return Err(InterpError::BadProgram {
                    msg: "pointer-generic memory op survived lowering".into(),
                });
            }

            Inst::LoadCapTable { dst, slot, off } => {
                let addr = self.prog.map.captable_base + u64::from(*slot) * 16;
                let (cc, tag) = self
                    .mem
                    .load_cap(addr)
                    .map_err(|err| InterpError::Mem { err, pc })?;
                let mut cap = Capability::from_compressed(cc, tag);
                if *off != 0 {
                    cap = cap.inc_address(*off);
                }
                self.load_seq += 1;
                let seq = self.load_seq;
                self.set_reg(*dst, Value::Cap(cap));
                self.set_taint(*dst, seq);
                emit!(
                    self,
                    sink,
                    pc,
                    RetiredInfo::Load {
                        addr,
                        size: 16,
                        is_cap: true,
                        dep_load: false,
                    }
                );
                self.advance();
            }

            Inst::Load {
                dst,
                base,
                off,
                size,
                kind,
                scaled,
            } => {
                let bytes = match kind {
                    LoadKind::Cap => 16,
                    _ => size.bytes(),
                };
                let off_v = match off {
                    Operand::Imm(i) => *i,
                    Operand::Reg(r) => {
                        let v = self.as_int(*r)? as i64;
                        if *scaled {
                            v.wrapping_mul(bytes as i64)
                        } else {
                            v
                        }
                    }
                };
                if self.inj.active() {
                    self.inject_mem(*base, off_v, pc, false)?;
                }
                let (addr, auth) = self.resolve(*base, off_v, bytes, false, false)?;
                let base_taint = self.taint(*base).max(self.operand_taint(*off));
                let dep = self.dep_load(base_taint);
                let v = match kind {
                    LoadKind::Int => {
                        let v = match size {
                            MemSize::S1 => self.mem.read_u8(addr).map(u64::from),
                            MemSize::S2 => self.mem.read_u16(addr).map(u64::from),
                            MemSize::S4 => self.mem.read_u32(addr).map(u64::from),
                            MemSize::S8 => self.mem.read_u64(addr),
                        }
                        .map_err(|err| InterpError::Mem { err, pc })?;
                        Value::Int(v)
                    }
                    LoadKind::F64 => {
                        let v = self
                            .mem
                            .read_u64(addr)
                            .map_err(|err| InterpError::Mem { err, pc })?;
                        Value::F64(f64::from_bits(v))
                    }
                    LoadKind::Cap => {
                        let (cc, mut tag) = self
                            .mem
                            .load_cap(addr)
                            .map_err(|err| InterpError::Mem { err, pc })?;
                        // Loading through a capability without LOAD_CAP
                        // strips the tag (Morello semantics).
                        if let Some(a) = auth {
                            if !a.perms().contains(Perms::LOAD_CAP) {
                                tag = false;
                            }
                        }
                        Value::Cap(Capability::from_compressed(cc, tag))
                    }
                };
                self.load_seq += 1;
                let seq = self.load_seq;
                self.set_reg(*dst, v);
                self.set_taint(*dst, seq);
                emit!(
                    self,
                    sink,
                    pc,
                    RetiredInfo::Load {
                        addr,
                        size: bytes as u8,
                        is_cap: matches!(kind, LoadKind::Cap),
                        dep_load: dep,
                    }
                );
                self.advance();
            }

            Inst::Store {
                src,
                base,
                off,
                size,
                kind,
                scaled,
            } => {
                let bytes = match kind {
                    LoadKind::Cap => 16,
                    _ => size.bytes(),
                };
                let off_v = match off {
                    Operand::Imm(i) => *i,
                    Operand::Reg(r) => {
                        let v = self.as_int(*r)? as i64;
                        if *scaled {
                            v.wrapping_mul(bytes as i64)
                        } else {
                            v
                        }
                    }
                };
                let is_cap = matches!(kind, LoadKind::Cap);
                if self.inj.active() {
                    self.inject_mem(*base, off_v, pc, true)?;
                }
                let (addr, _auth) = self.resolve(*base, off_v, bytes, true, is_cap)?;
                match kind {
                    LoadKind::Int => {
                        let v = self.as_int(*src)?;
                        match size {
                            MemSize::S1 => self.mem.write_u8(addr, v as u8),
                            MemSize::S2 => self.mem.write_u16(addr, v as u16),
                            MemSize::S4 => self.mem.write_u32(addr, v as u32),
                            MemSize::S8 => self.mem.write_u64(addr, v),
                        }
                        .map_err(|err| InterpError::Mem { err, pc })?;
                    }
                    LoadKind::F64 => {
                        let v = self.as_f64(*src)?;
                        self.mem
                            .write_u64(addr, v.to_bits())
                            .map_err(|err| InterpError::Mem { err, pc })?;
                    }
                    LoadKind::Cap => {
                        let c = self.as_cap(*src)?;
                        self.mem
                            .store_cap(addr, c.to_compressed(), c.tag())
                            .map_err(|err| InterpError::Mem { err, pc })?;
                    }
                }
                emit!(
                    self,
                    sink,
                    pc,
                    RetiredInfo::Store {
                        addr,
                        size: bytes as u8,
                        is_cap,
                    }
                );
                self.advance();
            }

            Inst::Jump { target } => {
                let t_ip = func.labels[target.0 as usize];
                let t_pc = prog.pc_of(func_id, t_ip as usize);
                emit!(
                    self,
                    sink,
                    pc,
                    RetiredInfo::Branch {
                        kind: BranchKind::Immediate,
                        taken: true,
                        target: t_pc,
                        pcc_change: false,
                    }
                );
                self.frames.last_mut().expect("no frame").ip = t_ip;
            }
            Inst::CondBr { cond, a, b, target } => {
                let av = self.as_int(*a)?;
                let bv = self.operand_int(*b)?;
                let taken = cond.eval(av, bv);
                let t_ip = func.labels[target.0 as usize];
                let t_pc = prog.pc_of(func_id, t_ip as usize);
                emit!(
                    self,
                    sink,
                    pc,
                    RetiredInfo::Branch {
                        kind: BranchKind::Immediate,
                        taken,
                        target: t_pc,
                        pcc_change: false,
                    }
                );
                let f = self.frames.last_mut().expect("no frame");
                f.ip = if taken { t_ip } else { f.ip + 1 };
            }

            Inst::Call {
                func: callee,
                args,
                ret,
            } => {
                let argv: Vec<Value> = args.iter().map(|r| self.reg(*r)).collect();
                let callee = *callee;
                let ret = *ret;
                let ret_ip = ip as u32 + 1;
                let target = prog.map.func_base[callee.0 as usize];
                self.push_frame(
                    callee,
                    &argv,
                    ret,
                    ret_ip,
                    sink,
                    BranchKind::Call,
                    target,
                    true,
                )?;
            }
            Inst::CallIndirect { target, args, ret } => {
                let argv: Vec<Value> = args.iter().map(|r| self.reg(*r)).collect();
                let ret = *ret;
                let ret_ip = ip as u32 + 1;
                let taddr = match self.reg(*target) {
                    Value::Int(a) if !self.cap_abi => a,
                    Value::Cap(c) if self.cap_abi => {
                        c.check_branch().map_err(|fault| InterpError::Fault {
                            fault,
                            pc,
                            func: self.prog.funcs[func_idx].name.as_str().into(),
                        })?;
                        c.address()
                    }
                    _ => {
                        return Err(InterpError::TypeConfusion {
                            pc,
                            expected: "function pointer",
                        })
                    }
                };
                let callee = self
                    .prog
                    .map
                    .func_at(taddr)
                    .ok_or(InterpError::UnknownCode { addr: taddr, pc })?;
                self.push_frame(
                    callee,
                    &argv,
                    ret,
                    ret_ip,
                    sink,
                    BranchKind::IndirectCall,
                    taddr,
                    true,
                )?;
            }
            Inst::Ret { val } => {
                let v = val.map(|r| self.reg(r));
                self.pop_frame(v, sink)?;
            }

            Inst::Malloc { dst, size } => {
                let sz = self.operand_int(*size)?;
                let dst = *dst;
                self.run_malloc(dst, sz, sink)?;
                self.advance();
            }
            Inst::Free { ptr } => {
                let addr = match self.reg(*ptr) {
                    Value::Int(a) => a,
                    Value::Cap(c) => c.address(),
                    Value::F64(_) => {
                        return Err(InterpError::TypeConfusion {
                            pc,
                            expected: "pointer",
                        })
                    }
                };
                self.run_free(addr, sink)?;
                self.advance();
            }

            Inst::CapOp { op, dst, a, b } => {
                let fr_pc = pc;
                let fault = |f: CapFault, m: &Machine<I>| InterpError::Fault {
                    fault: f,
                    pc: fr_pc,
                    func: m.prog.funcs[func_idx].name.as_str().into(),
                };
                let a_taint = self.taint(*a);
                let result: Value = match op {
                    CapOpKind::IncOffset => {
                        let c = self.as_cap(*a)?;
                        let d = self.operand_int(*b)? as i64;
                        Value::Cap(c.inc_address(d))
                    }
                    CapOpKind::SetAddr => {
                        let c = self.as_cap(*a)?;
                        let addr = self.operand_int(*b)?;
                        Value::Cap(c.set_address(addr))
                    }
                    CapOpKind::SetBounds => {
                        let c = self.as_cap(*a)?;
                        let len = self.operand_int(*b)?;
                        Value::Cap(c.set_bounds(c.address(), len).map_err(|f| fault(f, self))?)
                    }
                    CapOpKind::SetBoundsExact => {
                        let c = self.as_cap(*a)?;
                        let len = self.operand_int(*b)?;
                        Value::Cap(
                            c.set_bounds_exact(c.address(), len)
                                .map_err(|f| fault(f, self))?,
                        )
                    }
                    CapOpKind::GetAddr => Value::Int(self.as_cap(*a)?.address()),
                    CapOpKind::GetLen => Value::Int(self.as_cap(*a)?.length()),
                    CapOpKind::GetBase => Value::Int(self.as_cap(*a)?.base()),
                    CapOpKind::GetTag => Value::Int(u64::from(self.as_cap(*a)?.tag())),
                    CapOpKind::AndPerm => {
                        let c = self.as_cap(*a)?;
                        let mask = Perms::from_bits_truncate(self.operand_int(*b)? as u32);
                        Value::Cap(c.and_perms(mask).map_err(|f| fault(f, self))?)
                    }
                    CapOpKind::SealEntry => {
                        let c = self.as_cap(*a)?;
                        Value::Cap(c.seal_sentry().map_err(|f| fault(f, self))?)
                    }
                    CapOpKind::ClearTag => Value::Cap(self.as_cap(*a)?.clear_tag()),
                };
                self.set_reg(*dst, result);
                self.set_taint(*dst, a_taint);
                emit!(self, sink, pc, RetiredInfo::CapManip);
                self.advance();
            }

            Inst::CapOp2 { op, a, auth, dst } => {
                let av = self.as_cap(*a)?;
                let authv = self.as_cap(*auth)?;
                let fault = |f: CapFault, m: &Machine<I>| InterpError::Fault {
                    fault: f,
                    pc,
                    func: m.prog.funcs[func_idx].name.as_str().into(),
                };
                let r = match op {
                    CapOp2Kind::Seal => av.seal(&authv).map_err(|f| fault(f, self))?,
                    CapOp2Kind::Unseal => av.unseal(&authv).map_err(|f| fault(f, self))?,
                };
                let t = self.taint(*a);
                self.set_reg(*dst, Value::Cap(r));
                self.set_taint(*dst, t);
                emit!(self, sink, pc, RetiredInfo::CapManip);
                self.advance();
            }

            Inst::Halt { code } => {
                let c = match code {
                    Some(r) => self.as_int(*r)?,
                    None => 0,
                };
                emit!(self, sink, pc, RetiredInfo::Simple(InstClass::Dp));
                self.exit = Some(c);
            }

            // Profiling marker: no retired instruction, no cycles — just
            // tell the sink the attribution context changed.
            Inst::Region { id } => {
                sink.region(*id);
                self.advance();
            }
        }
        Ok(())
    }

    fn advance(&mut self) {
        self.frames.last_mut().expect("no frame").ip += 1;
    }

    // ---- Runtime intrinsics --------------------------------------------------

    /// The simulated `malloc`: a cross-module call plus a realistic body of
    /// allocator work (size-class lookup, free-list pops, metadata
    /// touches), with capability-ABI extras (`CRRL`/`CRAM`/`SCBNDSE`
    /// manipulations and capability-typed metadata).
    fn run_malloc<S: EventSink>(
        &mut self,
        dst: VReg,
        size: u64,
        sink: &mut S,
    ) -> Result<(), InterpError> {
        let pc = self.pc();
        // The allocator fast path stays within one PCC region (CheriBSD's
        // jemalloc is reached through a same-bounds PLT stub), so these
        // calls do not trigger Morello's PCC resteer — which is why the
        // benchmark ABI barely helps allocator-heavy workloads (SQLite).
        let pcc = false;
        emit!(
            self,
            sink,
            pc,
            RetiredInfo::Branch {
                kind: BranchKind::Call,
                taken: true,
                target: RT_MALLOC_PC,
                pcc_change: pcc,
            }
        );
        let alloc = self
            .heap
            .malloc(size)
            .map_err(|e| InterpError::BadProgram { msg: e.to_string() })?;

        // Allocator body: DP work + metadata traffic.
        let class = alloc.usable;
        let meta = self.prog.map.heap.0 + (class / 16 % META_LINES) * 64;
        for i in 0..14u64 {
            emit!(
                self,
                sink,
                RT_MALLOC_PC + i * 4,
                RetiredInfo::Simple(InstClass::Dp)
            );
        }
        let cap_meta = self.cap_abi;
        let meta_sz: u8 = if cap_meta { 16 } else { 8 };
        emit!(
            self,
            sink,
            RT_MALLOC_PC + 56,
            RetiredInfo::Load {
                addr: meta,
                size: meta_sz,
                is_cap: cap_meta,
                dep_load: false,
            }
        );
        emit!(
            self,
            sink,
            RT_MALLOC_PC + 60,
            RetiredInfo::Load {
                addr: meta + 16,
                size: meta_sz,
                is_cap: cap_meta,
                dep_load: true,
            }
        );
        emit!(
            self,
            sink,
            RT_MALLOC_PC + 64,
            RetiredInfo::Store {
                addr: meta + 16,
                size: meta_sz,
                is_cap: cap_meta,
            }
        );
        if self.cap_abi {
            // CRRL + CRAM + alignment + SCBNDSE + CLRPERM + cursor set,
            // plus the revocation-bitmap bookkeeping of a CHERI allocator.
            for i in 0..10u64 {
                emit!(self, sink, RT_MALLOC_PC + 68 + i * 4, RetiredInfo::CapManip);
            }
            for i in 0..26u64 {
                emit!(
                    self,
                    sink,
                    RT_MALLOC_PC + 108 + i * 4,
                    RetiredInfo::Simple(InstClass::Dp)
                );
            }
            emit!(
                self,
                sink,
                RT_MALLOC_PC + 156,
                RetiredInfo::Store {
                    addr: meta + 32,
                    size: 16,
                    is_cap: true,
                }
            );
            // Revocation-bitmap maintenance: purecap-only memory traffic
            // (one bit per 16-byte granule, looked up and updated on every
            // allocation — the Cornucopia-style quarantine bookkeeping).
            let revbm = self.prog.map.heap.0 + (1 << 19) + (alloc.addr >> 10 & 0x3FFFF);
            emit!(
                self,
                sink,
                RT_MALLOC_PC + 160,
                RetiredInfo::Load {
                    addr: revbm,
                    size: 8,
                    is_cap: false,
                    dep_load: false,
                }
            );
            emit!(
                self,
                sink,
                RT_MALLOC_PC + 164,
                RetiredInfo::Load {
                    addr: revbm + 64,
                    size: 8,
                    is_cap: false,
                    dep_load: true,
                }
            );
            emit!(
                self,
                sink,
                RT_MALLOC_PC + 168,
                RetiredInfo::Store {
                    addr: revbm,
                    size: 8,
                    is_cap: false,
                }
            );
            let cap = self
                .data_root
                .set_bounds_exact(alloc.addr, alloc.padded)
                .expect("allocator guarantees representable bounds");
            self.set_reg(dst, Value::Cap(cap));
        } else {
            self.set_reg(dst, Value::Int(alloc.addr));
        }
        self.set_taint(dst, 0);
        emit!(
            self,
            sink,
            RT_MALLOC_PC + 92,
            RetiredInfo::Branch {
                kind: BranchKind::Return,
                taken: true,
                target: pc + 4,
                pcc_change: pcc,
            }
        );
        Ok(())
    }

    fn run_free<S: EventSink>(&mut self, addr: u64, sink: &mut S) -> Result<(), InterpError> {
        let pc = self.pc();
        let pcc = false; // see run_malloc

        emit!(
            self,
            sink,
            pc,
            RetiredInfo::Branch {
                kind: BranchKind::Call,
                taken: true,
                target: RT_FREE_PC,
                pcc_change: pcc,
            }
        );
        let outcome = self
            .heap
            .free(Some(&mut self.mem), addr)
            .map_err(|e| InterpError::BadProgram { msg: e.to_string() })?;
        for i in 0..8u64 {
            emit!(
                self,
                sink,
                RT_FREE_PC + i * 4,
                RetiredInfo::Simple(InstClass::Dp)
            );
        }
        let cap_meta = self.cap_abi;
        let meta_sz: u8 = if cap_meta { 16 } else { 8 };
        let meta = self.prog.map.heap.0 + (addr / 64 % META_LINES) * 64;
        emit!(
            self,
            sink,
            RT_FREE_PC + 32,
            RetiredInfo::Load {
                addr: meta,
                size: meta_sz,
                is_cap: cap_meta,
                dep_load: false,
            }
        );
        emit!(
            self,
            sink,
            RT_FREE_PC + 36,
            RetiredInfo::Store {
                addr: meta,
                size: meta_sz,
                is_cap: cap_meta,
            }
        );
        if self.cap_abi {
            for i in 0..4u64 {
                emit!(self, sink, RT_FREE_PC + 40 + i * 4, RetiredInfo::CapManip);
            }
            for i in 0..6u64 {
                emit!(
                    self,
                    sink,
                    RT_FREE_PC + 56 + i * 4,
                    RetiredInfo::Simple(InstClass::Dp)
                );
            }
            let revbm = self.prog.map.heap.0 + (1 << 19) + (addr >> 10 & 0x3FFFF);
            emit!(
                self,
                sink,
                RT_FREE_PC + 80,
                RetiredInfo::Load {
                    addr: revbm,
                    size: 8,
                    is_cap: false,
                    dep_load: false,
                }
            );
            emit!(
                self,
                sink,
                RT_FREE_PC + 84,
                RetiredInfo::Store {
                    addr: revbm,
                    size: 8,
                    is_cap: false,
                }
            );
            emit!(
                self,
                sink,
                RT_FREE_PC + 88,
                RetiredInfo::Store {
                    addr: revbm + 64,
                    size: 8,
                    is_cap: false,
                }
            );
        }
        if let Some(sweep) = outcome.sweep {
            self.emit_sweep(&sweep, sink);
        }
        emit!(
            self,
            sink,
            RT_FREE_PC + 48,
            RetiredInfo::Branch {
                kind: BranchKind::Return,
                taken: true,
                target: pc + 4,
                pcc_change: pcc,
            }
        );
        Ok(())
    }

    /// Replays a revocation epoch's tag-sweep traffic as retired events,
    /// so the sweep is charged through the cache/TLB hierarchy exactly
    /// like Cornucopia's load-side barrier: each probe/load/clear becomes
    /// a load or store in a small sweep loop at [`RT_SWEEP_PC`], with a
    /// dash of loop-control DP work and a backward branch per page.
    fn emit_sweep<S: EventSink>(&mut self, sweep: &SweepOutcome, sink: &mut S) {
        for i in 0..4u64 {
            emit!(
                self,
                sink,
                RT_SWEEP_PC + i * 4,
                RetiredInfo::Simple(InstClass::Dp)
            );
        }
        let mut page_boundary = 0u64;
        for (i, acc) in sweep.accesses.iter().enumerate() {
            let pc = RT_SWEEP_PC + 16 + (i as u64 % 48) * 4;
            if acc.write {
                emit!(
                    self,
                    sink,
                    pc,
                    RetiredInfo::Store {
                        addr: acc.addr,
                        size: acc.size,
                        is_cap: acc.is_cap,
                    }
                );
            } else {
                emit!(
                    self,
                    sink,
                    pc,
                    RetiredInfo::Load {
                        addr: acc.addr,
                        size: acc.size,
                        is_cap: acc.is_cap,
                        dep_load: false,
                    }
                );
            }
            // Loop control: one DP op per access, and a taken backward
            // branch at each page boundary of the walk.
            emit!(self, sink, pc + 4, RetiredInfo::Simple(InstClass::Dp));
            if acc.addr >> 12 != page_boundary {
                page_boundary = acc.addr >> 12;
                emit!(
                    self,
                    sink,
                    RT_SWEEP_PC + 16 + 49 * 4,
                    RetiredInfo::Branch {
                        kind: BranchKind::Immediate,
                        taken: true,
                        target: RT_SWEEP_PC + 16,
                        pcc_change: false,
                    }
                );
            }
        }
    }
}
