//! The pre-decoded, direct-threaded fast engine.
//!
//! Executes a [`DecodedProgram`] (see [`crate::decoded`]) as a loop
//! over *superblocks*. Every op, interior or terminator, dispatches
//! through one per-ABI fn-pointer table (`table[op.kind](machine, sink,
//! op)` — no discriminant `match` on any op), so each instruction is
//! defined once, by its handler. A handler answers with a [`Ctl`]:
//! interiors say `Next` (or `Die` with the error parked in the
//! machine); terminators say `Fall` (continue at the next op), `Taken`
//! (an intra-function branch to its target) or `Frame` (a call, return
//! or halt moved `fi`/`ip`/`rb` or ended the run). The block loop,
//! [`FastMachine::exec_blocks`], does the per-instruction bookkeeping
//! of the reference loop — fuel check, retired count, `ClassCounts`
//! accumulation, and (for sinks that opt in) the timing-core retire
//! hop — once per block using the pre-summed [`Superblock`] totals, and
//! chains blocks through `bidx + 1` and the pre-resolved `t_blk`, so
//! branches, calls and returns never leave it. A second driver,
//! [`FastMachine::exec_ops`], runs the same table one op at a time,
//! polling the injector before each fetch and data access. Every run
//! follows one policy ([`FastMachine::exec`]): the block loop, which
//! never polls, runs while a whole block fits below both the fuel budget
//! and the injector's [`next_poll`](FaultInjector::next_poll); the
//! per-op driver takes over where one does not (fuel would die, or a
//! trigger could fire, inside it) and after a survived fault, and hands
//! back at the first block start that fits again. So the exhaustion
//! point, every poll and every recovery are bit-exact, and a tag-clear
//! campaign run goes op by op only from each trigger point to the
//! access where it fires.
//! Run state (registers, taints, frames, event scratch) lives in a
//! [`RunArena`] recycled through a thread-local pool, so steady-state
//! runs allocate nothing per run.
//!
//! Equivalence contract: for any program, sink and injector, this
//! engine produces the *same event stream* (order and payload), the
//! same architectural result, the same error and the same injector
//! hook calls as the reference executor ([`crate::refexec`]), the test
//! oracle. The differential harnesses (`tests/differential.rs`, and
//! `morello-fault`'s `tests/engine_equivalence.rs` for armed runs) lock
//! this across every workload×ABI cell, random programs and plans,
//! superblock edge cases, and the error paths;
//! `debug_assert`s in the emit paths additionally check every
//! pre-computed class against [`OpClass::of`] in debug builds.

use crate::classify::{ClassCounts, OpClass};
use crate::decoded::{mk, DecodedFunc, DecodedProgram, MicroOp, CONDS, NO_REG, NO_TERM};
use crate::inst::{BranchKind, FloatOp, InstClass, IntOp};
use crate::interp::{
    eval_float_op, eval_int_op, fell_off, EventSink, FaultInjector, InjectionKind, InterpConfig,
    InterpError, LogItem, MemAccess, RecoveryPolicy, RetireLog, RetiredEvent, RetiredInfo,
    RunResult, UNWIND_EXIT,
};
use crate::lower::{RT_FREE_PC, RT_MALLOC_PC, RT_SWEEP_PC, STACK_SIZE};
use crate::program::Program;
use crate::refexec::{init_memory, Value, META_LINES, SAVE_AREA};
use cheri_cap::{CapFault, Capability, FaultKind, Perms};
use cheri_mem::TaggedMemory;
use cheri_revoke::{RevokingHeap, StrategyKind, SweepOutcome};
use std::cell::{Cell, RefCell};

/// Runs `prog` to completion on the fast engine under `inj`.
pub(crate) fn run<S: EventSink, I: FaultInjector>(
    prog: &Program,
    cfg: InterpConfig,
    sink: &mut S,
    mut inj: I,
) -> Result<RunResult, InterpError> {
    let dec = DecodedProgram::decode(prog);
    let mut m = FastMachine::new(prog, &dec, cfg);
    let r = init_memory(prog, &mut m.mem).and_then(|()| m.exec(sink, &mut inj));
    m.flush_log(sink);
    m.recycle();
    r
}

/// Polls the memory triggers at a data access of `off` bytes from
/// `base` and applies what fires to the base register: the one
/// definition of the injected corruption, shared by both engines.
/// Returns whether an injection fired.
///
/// Under a capability ABI the capability's *metadata* is corrupted, so
/// the very next check catches it deterministically; under hybrid the
/// same trigger perturbs the raw pointer *value* — nothing checks it,
/// and the access silently lands on the wrong memory. That asymmetry is
/// the experiment.
pub(crate) fn inject_mem<I: FaultInjector>(
    inj: &mut I,
    base: &mut Value,
    retired: u64,
    off: i64,
    pc: u64,
    is_store: bool,
) -> bool {
    match *base {
        Value::Cap(c) => {
            let ea = c.address().wrapping_add(off as u64);
            let Some(kind) = inj.poll_mem(retired, pc, ea, is_store) else {
                return false;
            };
            *base = Value::Cap(match kind {
                InjectionKind::TagClear | InjectionKind::PccCorrupt => c.clear_tag(),
                InjectionKind::BoundsNudge { delta } => {
                    // Cursor past the top: the access faults on bounds,
                    // or on tag if the nudge already left the
                    // representable window.
                    let past = c.base().wrapping_add(c.length()).wrapping_add(delta);
                    c.set_address(past)
                }
                InjectionKind::PermDrop => {
                    c.and_perms(Perms::GLOBAL).unwrap_or_else(|_| c.clear_tag())
                }
            });
        }
        Value::Int(b) => {
            let ea = b.wrapping_add(off as u64);
            let Some(kind) = inj.poll_mem(retired, pc, ea, is_store) else {
                return false;
            };
            // Hybrid analogue: the same corruption event lands as a
            // raw-pointer perturbation of comparable magnitude.
            let delta = match kind {
                InjectionKind::TagClear | InjectionKind::PccCorrupt => 16,
                InjectionKind::BoundsNudge { delta } => delta.max(1),
                InjectionKind::PermDrop => 64,
            };
            *base = Value::Int(b.wrapping_add(delta));
        }
        // Type confusion surfaces in the access itself; nothing to
        // corrupt.
        Value::F64(_) => return false,
    }
    true
}

// ---- Pooled run-state arena ------------------------------------------------

/// The per-run growable state of a [`FastMachine`] — register and taint
/// files, the frame stack, the block event scratch buffer and a
/// planning sink's retire log and payloads —
/// recycled across runs through a thread-local pool so steady-state
/// runs (the serving profiler's phase A, the bench reps) allocate
/// nothing per run.
struct RunArena {
    regs: Vec<Value>,
    taints: Vec<u64>,
    frames: Vec<FastFrame>,
    evbuf: Vec<(RetiredEvent, OpClass)>,
    membuf: Vec<MemAccess>,
    log: Vec<LogItem>,
    block_execs: Vec<u64>,
}

impl RunArena {
    fn fresh() -> RunArena {
        RunArena {
            regs: Vec::with_capacity(256),
            taints: Vec::with_capacity(256),
            frames: Vec::with_capacity(64),
            evbuf: Vec::new(),
            membuf: Vec::new(),
            log: Vec::new(),
            block_execs: Vec::new(),
        }
    }

    /// Empties every buffer but keeps the grown capacity — that
    /// retained capacity is the entire point of the pool.
    fn reset(&mut self) {
        self.regs.clear();
        self.taints.clear();
        self.frames.clear();
        self.evbuf.clear();
        self.membuf.clear();
        self.log.clear();
        self.block_execs.clear();
    }
}

/// Upper bound on pooled arenas per thread; beyond this, arenas drop.
const ARENA_POOL_CAP: usize = 8;

/// A planning sink's log is delivered once it holds this many items or
/// payloads: enough to amortise the sink call, few enough to stay in the
/// host's L1.
const LOG_ITEMS: usize = 512;
const LOG_PAYLOADS: usize = 512;

thread_local! {
    static ARENA_POOL: RefCell<Vec<RunArena>> = const { RefCell::new(Vec::new()) };
    static ARENA_STATS: Cell<RunArenaStats> = const {
        Cell::new(RunArenaStats {
            acquires: 0,
            reuses: 0,
        })
    };
}

/// Counters for the fast engine's thread-local run-arena pool (see
/// [`run_arena_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunArenaStats {
    /// Fast-engine runs started on this thread (each acquires one
    /// arena).
    pub acquires: u64,
    /// Acquisitions served by a recycled arena rather than a fresh
    /// allocation — after warm-up this tracks `acquires` one-for-one.
    pub reuses: u64,
}

/// This thread's fast-engine arena-pool counters. Observability hook
/// for the pooled-`RunState` contract: callers that price many cells on
/// one thread (the serving profiler, the speed bench) can assert that
/// runs after the first reuse an arena instead of allocating.
pub fn run_arena_stats() -> RunArenaStats {
    ARENA_STATS.with(|s| s.get())
}

fn acquire_arena() -> RunArena {
    let reused = ARENA_POOL.with(|p| p.borrow_mut().pop());
    ARENA_STATS.with(|s| {
        let mut st = s.get();
        st.acquires += 1;
        if reused.is_some() {
            st.reuses += 1;
        }
        s.set(st);
    });
    reused.unwrap_or_else(RunArena::fresh)
}

fn release_arena(mut arena: RunArena) {
    arena.reset();
    ARENA_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < ARENA_POOL_CAP {
            pool.push(arena);
        }
    });
}

/// One active call frame. Registers live in the machine-wide arenas at
/// `[reg_base, reg_base + vregs)`; the running frame's function, ip and
/// register base are [`FastMachine`]'s `fi`/`ip`/`rb`, so only the
/// return plumbing is stored here.
struct FastFrame {
    func: u32,
    reg_base: u32,
    ret_reg: Option<u16>,
    ret_ip: u32,
    saved_sp: u64,
}

struct FastMachine<'p> {
    prog: &'p Program,
    dec: &'p DecodedProgram,
    cfg: InterpConfig,
    mem: TaggedMemory,
    heap: RevokingHeap,
    frames: Vec<FastFrame>,
    regs: Vec<Value>,
    taints: Vec<u64>,
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
    /// Index of the executing function. With `ip` and `rb` this is the
    /// whole control state: only frame changes (calls, returns,
    /// unwinds) write it, so handlers read it without any driver sync.
    fi: usize,
    /// ip of the executing op. The per-op driver keeps it current; the
    /// block loop tracks its position as a block index instead and
    /// writes `ip` only where the per-op driver takes over (frame
    /// handlers write it on every call and return).
    ip: usize,
    /// Register base of the executing frame.
    rb: usize,
    /// Error parked by a dying handler; the driver takes it.
    err: Option<InterpError>,
    /// Block-scoped event buffer for sinks with
    /// [`EventSink::WANTS_BLOCK_EVENTS`]; flushed at block boundaries.
    evbuf: Vec<(RetiredEvent, OpClass)>,
    /// The retire log of a sink with [`EventSink::WANTS_BLOCK_PLANS`] ...
    log: Vec<LogItem>,
    /// ... and its load/store payloads.
    membuf: Vec<MemAccess>,
    /// Whether interiors log only their payloads, for a
    /// [`LogItem::Block`]: on the block loop of a planning sink, on
    /// every execution of a block but its first in the run.
    payloads_only: bool,
    /// Deferred class accounting: executions per global block id
    /// (`block_base + local index`). The block loop bumps one counter
    /// per block instead of eight class adds; run end folds
    /// `count × blk.classes` into [`FastMachine::classes`].
    block_execs: Vec<u64>,
}

/// Emits one retired event with its pre-computed class: bumps the
/// architectural counters and hands the sink the class so classifying
/// sinks skip `OpClass::of` (a planning sink finds it in its log).
/// Debug builds verify the hint.
macro_rules! femit {
    ($self:ident, $sink:ident, $pc:expr, $class:expr, $info:expr) => {{
        let pc = $pc;
        let info = $info;
        let class = $class;
        debug_assert_eq!(class, OpClass::of(pc, &info), "pre-computed class mismatch");
        $self.retired += 1;
        $self.classes.bump(class);
        $self.emit($sink, RetiredEvent { pc, info }, class);
        // Bounds the log across long runtime streams (a revocation
        // sweep); never inside a block, whose description must share a
        // chunk with its events.
        $self.flush_log_if_full($sink);
    }};
}

impl<'p> FastMachine<'p> {
    fn new(prog: &'p Program, dec: &'p DecodedProgram, cfg: InterpConfig) -> FastMachine<'p> {
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
        let (heap_lo, heap_hi) = prog.map.heap;
        let heap = RevokingHeap::new(heap_lo + (1 << 20), heap_hi, heap_lo + (1 << 19), kind);
        let stack_base = prog.map.stack_top - STACK_SIZE;
        let stack_cap = Capability::root_rw()
            .set_bounds(stack_base, STACK_SIZE)
            .expect("stack bounds representable");
        let RunArena {
            regs,
            taints,
            frames,
            evbuf,
            membuf,
            log,
            mut block_execs,
        } = acquire_arena();
        block_execs.resize(dec.total_blocks as usize, 0);
        FastMachine {
            prog,
            dec,
            cfg,
            mem: TaggedMemory::new(),
            heap,
            frames,
            regs,
            taints,
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
            fi: 0,
            ip: 0,
            rb: 0,
            err: None,
            evbuf,
            membuf,
            log,
            payloads_only: false,
            block_execs,
        }
    }

    /// Returns this machine's grown buffers to the thread-local arena
    /// pool. Called once per run, success or failure.
    fn recycle(&mut self) {
        release_arena(RunArena {
            regs: std::mem::take(&mut self.regs),
            taints: std::mem::take(&mut self.taints),
            frames: std::mem::take(&mut self.frames),
            evbuf: std::mem::take(&mut self.evbuf),
            membuf: std::mem::take(&mut self.membuf),
            log: std::mem::take(&mut self.log),
            block_execs: std::mem::take(&mut self.block_execs),
        });
    }

    // ---- Value plumbing (flat-arena addressing) ---------------------------

    #[inline]
    fn as_int(&self, idx: usize, pc: u64) -> Result<u64, InterpError> {
        match self.regs[idx] {
            Value::Int(v) => Ok(v),
            _ => Err(InterpError::TypeConfusion {
                pc,
                expected: "integer",
            }),
        }
    }

    #[inline]
    fn as_f64(&self, idx: usize, pc: u64) -> Result<f64, InterpError> {
        match self.regs[idx] {
            Value::F64(v) => Ok(v),
            Value::Int(0) => Ok(0.0), // zero-initialised registers
            _ => Err(InterpError::TypeConfusion {
                pc,
                expected: "float",
            }),
        }
    }

    #[inline]
    fn as_cap(&self, idx: usize, pc: u64) -> Result<Capability, InterpError> {
        match self.regs[idx] {
            Value::Cap(c) => Ok(c),
            _ => Err(InterpError::TypeConfusion {
                pc,
                expected: "capability",
            }),
        }
    }

    /// A pointer operand's address, whatever its representation.
    #[inline]
    fn as_addr(&self, idx: usize, pc: u64) -> Result<u64, InterpError> {
        match self.regs[idx] {
            Value::Int(a) => Ok(a),
            Value::Cap(c) => Ok(c.address()),
            Value::F64(_) => Err(InterpError::TypeConfusion {
                pc,
                expected: "pointer",
            }),
        }
    }

    /// A capability fault at `pc` in the executing function.
    #[inline]
    fn cap_fault(&self, fault: CapFault, pc: u64) -> InterpError {
        InterpError::Fault {
            fault,
            pc,
            func: self.dec.funcs[self.fi].name.clone(),
        }
    }

    /// Resolves a memory operand to (effective address, authorising
    /// cap), specialised on the ABI at compile time for the handler
    /// table: the `cap_abi` test disappears.
    #[inline]
    fn resolve_c<const CAP: bool>(
        &self,
        base: u16,
        off: i64,
        size: u64,
        write: bool,
        cap_access: bool,
        pc: u64,
    ) -> Result<(u64, Option<Capability>), InterpError> {
        debug_assert_eq!(self.cap_abi, CAP, "handler table built for the wrong ABI");
        if CAP {
            let c = self.as_cap(self.rb + base as usize, pc)?;
            let addr = c.address().wrapping_add(off as u64);
            let mut req = if write { Perms::STORE } else { Perms::LOAD };
            if cap_access && write {
                req = req | Perms::STORE_CAP;
            }
            c.check_access(addr, size, req)
                .map_err(|fault| self.cap_fault(fault, pc))?;
            Ok((addr, Some(c)))
        } else {
            let b = self.as_int(self.rb + base as usize, pc)?;
            Ok((b.wrapping_add(off as u64), None))
        }
    }

    /// Block-interior event emission: no `retired`/`classes` bump
    /// (those are folded in once per block from the pre-summed totals)
    /// and, for batching sinks, buffered delivery. Under
    /// [`FastMachine::payloads_only`] a planning sink's log gets a
    /// load's or store's payload and no event. Per-event *order* is
    /// identical to `femit!` either way.
    #[inline(always)]
    fn iemit<S: EventSink>(&mut self, sink: &mut S, pc: u64, class: OpClass, info: RetiredInfo) {
        debug_assert_eq!(class, OpClass::of(pc, &info), "pre-computed class mismatch");
        let ev = RetiredEvent { pc, info };
        if S::WANTS_BLOCK_PLANS && self.payloads_only {
            match info {
                RetiredInfo::Load { addr, dep_load, .. } => {
                    self.membuf.push(MemAccess { addr, dep_load })
                }
                RetiredInfo::Store { addr, .. } => self.membuf.push(MemAccess {
                    addr,
                    dep_load: false,
                }),
                _ => {}
            }
        } else if S::WANTS_BLOCK_EVENTS && !S::WANTS_BLOCK_PLANS {
            self.evbuf.push((ev, class));
        } else {
            self.emit(sink, ev, class);
        }
    }

    /// Hands one event to the sink now, or to a planning sink's log.
    #[inline(always)]
    fn emit<S: EventSink>(&mut self, sink: &mut S, ev: RetiredEvent, class: OpClass) {
        if S::WANTS_BLOCK_PLANS {
            self.log.push(LogItem::Event(ev, class));
        } else {
            sink.retire_classified(ev, class);
        }
    }

    #[inline]
    fn dep_load(&self, base_taint: u64) -> bool {
        base_taint != 0 && self.load_seq.saturating_sub(base_taint) <= self.cfg.dep_window
    }

    // ---- Frame plumbing ---------------------------------------------------

    /// Pushes a frame for `callee` and makes it the running one (`fi`,
    /// `ip = 0`, `rb`): depth/arity checks, the call-site branch event,
    /// the synthetic prologue (SP adjust + return-address save), and
    /// fresh registers in the flat arenas. `call` is `(call op, kind,
    /// target, pcc_change)`, `None` for the entry frame; the op supplies
    /// the pc, the argument window and the return register.
    fn enter_frame<S: EventSink>(
        &mut self,
        sink: &mut S,
        callee: u32,
        call: Option<(&MicroOp, BranchKind, u64, bool)>,
    ) -> Result<(), InterpError> {
        if self.frames.len() as u32 >= self.cfg.max_call_depth {
            return Err(InterpError::CallDepth {
                pc: call.map_or(0, |c| c.0.pc),
            });
        }
        let dec = self.dec;
        let f = &dec.funcs[callee as usize];
        let n_args = call.map_or(0, |c| c.0.b);
        if n_args != f.params {
            return Err(InterpError::BadProgram {
                msg: format!(
                    "call to `{}` with {} args (expects {})",
                    self.prog.funcs[callee as usize].name, n_args, f.params
                ),
            });
        }
        let mut ret_pc = 0;
        if let Some((o, kind, target, pcc_change)) = call {
            ret_pc = o.pc + 4;
            femit!(
                self,
                sink,
                o.pc,
                if pcc_change {
                    OpClass::CapBranch
                } else {
                    OpClass::Branch
                },
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
        let base_pc = f.base_pc;
        self.emit_sp_adjust(sink, base_pc);
        let lr_addr = new_sp + f.frame_size;
        if self.cap_abi {
            // Save the return address as a capability into the caller.
            let ret_cap = self.code_root.set_address(ret_pc);
            self.mem
                .store_cap(lr_addr & !15, ret_cap.to_compressed(), true)
                .map_err(|err| InterpError::Mem { err, pc: base_pc })?;
            femit!(
                self,
                sink,
                base_pc + 4,
                OpClass::MemCap,
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
            femit!(
                self,
                sink,
                base_pc + 4,
                OpClass::MemScalar,
                RetiredInfo::Store {
                    addr: lr_addr,
                    size: 8,
                    is_cap: false,
                }
            );
        }

        let new_base = self.regs.len();
        self.regs.resize(new_base + f.vregs as usize, Value::Int(0));
        self.taints.resize(new_base + f.vregs as usize, 0);
        self.regs[new_base] = if self.cap_abi {
            Value::Cap(self.stack_cap.set_address(new_sp))
        } else {
            Value::Int(new_sp)
        };
        let (mut ret_reg, mut ret_ip) = (None, 0);
        if let Some((o, ..)) = call {
            let args = &dec.args[o.aux as usize..o.aux as usize + o.b as usize];
            for (k, &src) in args.iter().enumerate() {
                self.regs[new_base + 1 + k] = self.regs[self.rb + src as usize];
            }
            ret_reg = (o.dst != NO_REG).then_some(o.dst);
            ret_ip = ((o.pc - dec.funcs[self.fi].base_pc) / 4) as u32 + 1;
        }
        self.frames.push(FastFrame {
            func: callee,
            reg_base: new_base as u32,
            ret_reg,
            ret_ip,
            saved_sp,
        });
        self.fi = callee as usize;
        self.ip = 0;
        self.rb = new_base;
        Ok(())
    }

    /// The synthetic SP-adjust op of a prologue or epilogue: capability
    /// manipulation under the capability ABIs, integer arithmetic under
    /// hybrid.
    fn emit_sp_adjust<S: EventSink>(&mut self, sink: &mut S, pc: u64) {
        if self.cap_abi {
            femit!(self, sink, pc, OpClass::CapManip, RetiredInfo::CapManip);
        } else {
            let info = RetiredInfo::Simple(InstClass::Dp);
            femit!(self, sink, pc, OpClass::IntAlu, info);
        }
    }

    // ---- The dispatch loops -----------------------------------------------

    /// Runs the program from its entry frame to its end under `inj`,
    /// switching between the two drivers as the module docs describe: no
    /// injector, or one with nothing armed, keeps a run in the block
    /// loop; a range trigger (`next_poll` 0) keeps it op by op while
    /// armed.
    fn exec<S: EventSink, I: FaultInjector>(
        &mut self,
        sink: &mut S,
        inj: &mut I,
    ) -> Result<RunResult, InterpError> {
        let prog = self.prog;
        let dec = self.dec;
        let entry = prog.entry.0;
        if dec.funcs[entry as usize].params != 0 {
            return Err(InterpError::BadProgram {
                msg: format!(
                    "entry `{}` must take no parameters",
                    prog.funcs[entry as usize].name
                ),
            });
        }
        // The entry frame: no call-site branch event, return address 0.
        self.enter_frame(sink, entry, None)?;
        // One driver policy for every run: the block loop wherever fuel
        // lasts the whole block and no poll can fire in it, the per-op
        // driver elsewhere, each handing over to the other at the first
        // point where it can.
        let table = handler_table::<S>(self.cap_abi);
        while self.exit.is_none() {
            let stop = self.cfg.max_insts.min(inj.next_poll());
            if let Err(e) = self.exec_blocks(sink, &table, stop) {
                self.handle_fault(e, inj)?;
            }
            if self.exit.is_none() {
                self.exec_ops(sink, &table, inj)?;
            }
        }
        // Fold the deferred per-block execution counts into the class
        // totals. Addition is commutative, so the fold is
        // order-insensitive and exactly matches per-op accumulation;
        // error exits skip it because a failed run reports no counts.
        for fun in dec.funcs.iter() {
            let base = fun.block_base as usize;
            for (b, cls) in fun.block_classes.iter().enumerate() {
                let k = self.block_execs[base + b];
                if k > 0 {
                    self.classes.add_scaled(cls, k);
                }
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

    /// The direct-threaded superblock loop.
    ///
    /// Invariant (established by [`crate::decoded::build_blocks`] and
    /// every frame handler): control always enters a block at its
    /// `start_ip`. Each iteration runs one block: a single up-front
    /// margin check against `stop` covers every interior op, then the
    /// interiors dispatch through the table with no per-op bookkeeping,
    /// then `retired` absorbs the block's op count, the block's
    /// execution counter bumps (its pre-summed classes fold in at run
    /// end), buffered events flush (a planning sink's log gets the block
    /// instead), and finally the terminator (if any) dispatches through
    /// the same table once `retired` is still below `stop`. Its [`Ctl`]
    /// picks the next block: `bidx + 1` (fallthrough, not-taken branch,
    /// intrinsic, marker), the pre-resolved `t_blk` (taken branch), or
    /// the block holding the new `ip` of the new frame (call, return).
    ///
    /// `stop` is the smaller of the fuel budget and the injector's
    /// [`next_poll`](FaultInjector::next_poll): below it every per-op
    /// fuel check passes and every poll would answer "no", so the loop
    /// skips both (`retired + n <= stop` iff all `n` interior checks
    /// pass). Where the margin fails — fuel would die, or a poll could
    /// fire, inside the block or at its terminator — the loop stores that
    /// op's ip in `ip` and returns `Ok` with the run unfinished; the
    /// caller hands the rest to [`FastMachine::exec_ops`], so the
    /// exhaustion point, every poll and every event before them are
    /// bit-exact. A handler that dies returns its error with `ip` at the
    /// dying op and `retired` and the class counts holding exactly the
    /// ops before it, as the per-op driver would, so a recovery policy
    /// can resume the run.
    fn exec_blocks<S: EventSink>(
        &mut self,
        sink: &mut S,
        table: &[Handler<S>; 256],
        stop: u64,
    ) -> Result<(), InterpError> {
        let dec = self.dec;
        let mut fun: &DecodedFunc = &dec.funcs[self.fi];
        let mut bidx = fun.block_idx[self.ip] as usize;
        loop {
            let blk = &fun.blocks[bidx];
            let n = u64::from(blk.n);
            if n > 0 {
                if self.retired.saturating_add(n) > stop {
                    self.ip = blk.start_ip as usize;
                    return Ok(());
                }
                let start = blk.start_ip as usize;
                let id = fun.block_base as usize + bidx;
                if S::WANTS_BLOCK_PLANS {
                    // A planning sink needs the events of a block's first
                    // execution only; later ones leave just the payloads.
                    self.payloads_only = self.block_execs[id] > 0;
                }
                for mo in &fun.micros[start..start + blk.n as usize] {
                    if let Ctl::Die = table[mo.kind as usize](self, sink, mo) {
                        let done = (mo.pc - fun.base_pc) as usize / 4 - start;
                        if S::WANTS_BLOCK_PLANS {
                            self.log_block(id, done as u32, blk.n);
                        }
                        self.flush_events(sink);
                        // The ops before the dying one retired: count
                        // them as the per-op driver would have.
                        self.retired += done as u64;
                        for op in &fun.micros[start..start + done] {
                            self.classes.bump(op.class);
                        }
                        self.ip = start + done;
                        return Err(self.err.take().expect("handler died without an error"));
                    }
                }
                self.retired += n;
                // Deferred class accounting: one counter bump here, the
                // pre-summed per-block classes fold in at run end.
                self.block_execs[id] += 1;
                if S::WANTS_BLOCK_PLANS {
                    self.log_block(id, blk.n, blk.n);
                    self.flush_log_if_full(sink);
                } else {
                    self.flush_events(sink);
                }
            }
            if blk.term == NO_TERM {
                // Fallthrough into the next block (its entry re-checks
                // the margin). Blocks tile the function in start-ip order.
                bidx += 1;
                continue;
            }
            if self.retired >= stop {
                self.ip = blk.term as usize;
                return Ok(());
            }
            let mo = &fun.micros[blk.term as usize];
            match table[mo.kind as usize](self, sink, mo) {
                Ctl::Next | Ctl::Fall => bidx += 1,
                Ctl::Taken => bidx = blk.t_blk as usize,
                Ctl::Frame => {
                    if self.exit.is_some() {
                        return Ok(());
                    }
                    fun = &dec.funcs[self.fi];
                    bidx = fun.block_idx[self.ip] as usize;
                }
                Ctl::Die => {
                    self.ip = blk.term as usize;
                    return Err(self.err.take().expect("handler died without an error"));
                }
            }
        }
    }

    /// The per-op driver: the reference executor's loop shape over the
    /// same table as [`FastMachine::exec_blocks`]. Before every op it
    /// checks fuel and, while the injector is armed, polls `poll_pcc`
    /// (and `poll_mem` ahead of a data load or store); every `Fault`
    /// goes through [`FastMachine::handle_fault`], and a poll that fires
    /// asks whether the run is [`decided`](FaultInjector::decided). It
    /// runs where the block loop cannot: from an op where fuel would die
    /// or a poll could fire within the block, from the op after a
    /// survived fault, and for whole runs whose injector keeps
    /// [`next_poll`](FaultInjector::next_poll) at 0 (range triggers). It
    /// returns `Ok` at the end of the run, or as soon as `ip` is a block
    /// start whose whole block, terminator included, runs below both the
    /// fuel budget and the next poll, where the block loop takes over.
    fn exec_ops<S: EventSink, I: FaultInjector>(
        &mut self,
        sink: &mut S,
        table: &[Handler<S>; 256],
        inj: &mut I,
    ) -> Result<(), InterpError> {
        let dec = self.dec;
        self.payloads_only = false;
        while self.exit.is_none() {
            let fun = &dec.funcs[self.fi];
            let stop = self.cfg.max_insts.min(inj.next_poll());
            if self.retired < stop {
                if let Some(&b) = fun.block_idx.get(self.ip) {
                    let blk = &fun.blocks[b as usize];
                    if blk.start_ip as usize == self.ip && self.retired + u64::from(blk.n) < stop {
                        return Ok(());
                    }
                }
            }
            if self.retired >= self.cfg.max_insts {
                return Err(InterpError::FuelExhausted {
                    retired: self.retired,
                });
            }
            let pc = fun.base_pc + self.ip as u64 * 4;
            if inj.active() && inj.poll_pcc(self.retired, pc) {
                // Capability ABIs check the corrupted PCC at this fetch
                // and trap; hybrid's integer PC is unchecked, and the
                // same op is polled again.
                if self.cap_abi {
                    let e = self.cap_fault(CapFault::op(FaultKind::TagViolation, pc), pc);
                    self.handle_fault(e, inj)?;
                } else {
                    self.stop_if_decided(inj)?;
                }
                continue;
            }
            // Past the `END` sentinel only a skipped fetch fault lands.
            let Some(&(mut mo)) = fun.micros.get(self.ip) else {
                return Err(fell_off(&self.prog.funcs[self.fi].name));
            };
            if inj.active() && mo.is_mem() && self.poll_mem(inj, &mut mo) {
                self.stop_if_decided(inj)?;
            }
            let ctl = table[mo.kind as usize](self, sink, &mo);
            self.flush_events(sink);
            self.flush_log_if_full(sink);
            match ctl {
                Ctl::Next => {
                    self.retired += 1;
                    self.classes.bump(mo.class);
                    self.ip += 1;
                }
                Ctl::Fall => self.ip += 1,
                Ctl::Taken => self.ip = self.ip.wrapping_add_signed(mo.disp()),
                Ctl::Frame => {}
                Ctl::Die => {
                    let e = self.err.take().expect("handler died without an error");
                    self.handle_fault(e, inj)?;
                }
            }
        }
        Ok(())
    }

    /// Polls the memory triggers ahead of data access `mo` and applies
    /// what fires to its base register ([`inject_mem`]). The effective
    /// address uses the offset as read *before* the injection, like the
    /// reference; an offset register that is also the base would be
    /// re-read corrupted by the handler, so that op runs in its
    /// immediate form instead (both operands share one taint, so the
    /// event is unchanged). Returns whether an injection fired.
    fn poll_mem<I: FaultInjector>(&mut self, inj: &mut I, mo: &mut MicroOp) -> bool {
        let rb = self.rb;
        let mode = mo.off_mode();
        let off = if mode == 0 {
            mo.imm as i64
        } else {
            // A non-integer offset faults in the handler before any
            // access, exactly where the reference stops before polling.
            let Ok(v) = self.as_int(rb + mo.b as usize, mo.pc) else {
                return false;
            };
            if mode == mk::OFF_SCL {
                (v as i64).wrapping_mul(i64::from(mo.sz))
            } else {
                v as i64
            }
        };
        let base = &mut self.regs[rb + mo.a as usize];
        let fired = inject_mem(inj, base, self.retired, off, mo.pc, mo.is_store());
        if fired && mo.b == mo.a && mode != 0 {
            mo.kind -= mode;
            mo.imm = off as u64;
        }
        fired
    }

    /// Ends the run with [`InterpError::Decided`] once the injector
    /// reports its outcome settled.
    fn stop_if_decided<I: FaultInjector>(&self, inj: &I) -> Result<(), InterpError> {
        if inj.decided() {
            return Err(InterpError::Decided {
                retired: self.retired,
            });
        }
        Ok(())
    }

    /// The SIGPROT-analogue handler: journals a `Fault` through the
    /// injector and applies its [`RecoveryPolicy`] — `Abort` returns
    /// the fault, `SkipFaultingOp` resumes at the next op,
    /// `UnwindToCheckpoint` abandons the frame. Other errors pass
    /// through untouched. Recovery is sound because faults are raised
    /// before the faulting op mutates anything. A resumed run stops if
    /// the trap decided it.
    fn handle_fault<I: FaultInjector>(
        &mut self,
        e: InterpError,
        inj: &mut I,
    ) -> Result<(), InterpError> {
        let InterpError::Fault { pc, .. } = e else {
            return Err(e);
        };
        inj.trapped(pc);
        match inj.policy() {
            RecoveryPolicy::Abort => return Err(e),
            RecoveryPolicy::SkipFaultingOp => self.ip += 1,
            RecoveryPolicy::UnwindToCheckpoint => {
                inj.unwound(pc);
                self.unwind_frame();
            }
        }
        self.stop_if_decided(inj)
    }

    /// The `longjmp` half of [`RecoveryPolicy::UnwindToCheckpoint`]:
    /// abandon the running frame, restore the caller's stack pointer,
    /// and resume at the return site as if the call returned zero.
    /// Unwinding the entry frame ends the run with [`UNWIND_EXIT`].
    fn unwind_frame(&mut self) {
        let fr = self.frames.pop().expect("no frame");
        self.sp = fr.saved_sp;
        match self.frames.last() {
            Some(caller) => {
                let caller_rb = caller.reg_base as usize;
                if let Some(r) = fr.ret_reg {
                    self.regs[caller_rb + r as usize] = Value::Int(0);
                    self.taints[caller_rb + r as usize] = 0;
                }
                self.regs.truncate(fr.reg_base as usize);
                self.taints.truncate(fr.reg_base as usize);
                self.fi = caller.func as usize;
                self.ip = fr.ret_ip as usize;
                self.rb = caller_rb;
            }
            None => self.exit = Some(UNWIND_EXIT),
        }
    }

    /// Flushes block-buffered events to a batching sink. A no-op (and
    /// dead code, compiled out) for sinks that keep the default per-op
    /// delivery and for planning sinks, whose events go to the log.
    #[inline]
    fn flush_events<S: EventSink>(&mut self, sink: &mut S) {
        if S::WANTS_BLOCK_EVENTS && !S::WANTS_BLOCK_PLANS && !self.evbuf.is_empty() {
            sink.retire_block_classified(&self.evbuf);
            self.evbuf.clear();
        }
    }

    /// Logs that block `id` just ran `retired` of its `n` interior ops for a
    /// planning sink: on its first execution, whose events are already
    /// logged, a [`LogItem::Described`] (unless a fault cut it short, so
    /// only whole blocks are described); on a later one, a
    /// [`LogItem::Block`].
    #[inline]
    fn log_block(&mut self, id: usize, retired: u32, n: u32) {
        let id = id as u32;
        if self.payloads_only {
            if retired > 0 {
                self.log.push(LogItem::Block { id, retired });
            }
        } else if retired == n {
            self.log.push(LogItem::Described { id, len: retired });
        }
    }

    /// Delivers a planning sink's log once any of its buffers is full.
    #[inline]
    fn flush_log_if_full<S: EventSink>(&mut self, sink: &mut S) {
        if S::WANTS_BLOCK_PLANS
            && (self.log.len() >= LOG_ITEMS || self.membuf.len() >= LOG_PAYLOADS)
        {
            self.flush_log(sink);
        }
    }

    /// Delivers a planning sink's log (a no-op for every other sink).
    fn flush_log<S: EventSink>(&mut self, sink: &mut S) {
        if S::WANTS_BLOCK_PLANS && !self.log.is_empty() {
            sink.retire_log(RetireLog {
                items: &self.log,
                mem: &self.membuf,
            });
            self.log.clear();
            self.membuf.clear();
        }
    }

    // ---- Runtime intrinsics (same synthetic streams as the reference) -----

    fn run_malloc<S: EventSink>(
        &mut self,
        dst_idx: usize,
        size: u64,
        pc: u64,
        sink: &mut S,
    ) -> Result<(), InterpError> {
        // Same-bounds PLT stub: no PCC resteer (see the reference for
        // the Morello rationale).
        let pcc = false;
        femit!(
            self,
            sink,
            pc,
            OpClass::Branch,
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

        let class = alloc.usable;
        let meta = self.prog.map.heap.0 + (class / 16 % META_LINES) * 64;
        for i in 0..14u64 {
            femit!(
                self,
                sink,
                RT_MALLOC_PC + i * 4,
                OpClass::Runtime,
                RetiredInfo::Simple(InstClass::Dp)
            );
        }
        let cap_meta = self.cap_abi;
        let meta_sz: u8 = if cap_meta { 16 } else { 8 };
        femit!(
            self,
            sink,
            RT_MALLOC_PC + 56,
            OpClass::Runtime,
            RetiredInfo::Load {
                addr: meta,
                size: meta_sz,
                is_cap: cap_meta,
                dep_load: false,
            }
        );
        femit!(
            self,
            sink,
            RT_MALLOC_PC + 60,
            OpClass::Runtime,
            RetiredInfo::Load {
                addr: meta + 16,
                size: meta_sz,
                is_cap: cap_meta,
                dep_load: true,
            }
        );
        femit!(
            self,
            sink,
            RT_MALLOC_PC + 64,
            OpClass::Runtime,
            RetiredInfo::Store {
                addr: meta + 16,
                size: meta_sz,
                is_cap: cap_meta,
            }
        );
        if self.cap_abi {
            for i in 0..10u64 {
                femit!(
                    self,
                    sink,
                    RT_MALLOC_PC + 68 + i * 4,
                    OpClass::Runtime,
                    RetiredInfo::CapManip
                );
            }
            for i in 0..26u64 {
                femit!(
                    self,
                    sink,
                    RT_MALLOC_PC + 108 + i * 4,
                    OpClass::Runtime,
                    RetiredInfo::Simple(InstClass::Dp)
                );
            }
            femit!(
                self,
                sink,
                RT_MALLOC_PC + 156,
                OpClass::Runtime,
                RetiredInfo::Store {
                    addr: meta + 32,
                    size: 16,
                    is_cap: true,
                }
            );
            let revbm = self.prog.map.heap.0 + (1 << 19) + (alloc.addr >> 10 & 0x3FFFF);
            femit!(
                self,
                sink,
                RT_MALLOC_PC + 160,
                OpClass::Runtime,
                RetiredInfo::Load {
                    addr: revbm,
                    size: 8,
                    is_cap: false,
                    dep_load: false,
                }
            );
            femit!(
                self,
                sink,
                RT_MALLOC_PC + 164,
                OpClass::Runtime,
                RetiredInfo::Load {
                    addr: revbm + 64,
                    size: 8,
                    is_cap: false,
                    dep_load: true,
                }
            );
            femit!(
                self,
                sink,
                RT_MALLOC_PC + 168,
                OpClass::Runtime,
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
            self.regs[dst_idx] = Value::Cap(cap);
        } else {
            self.regs[dst_idx] = Value::Int(alloc.addr);
        }
        self.taints[dst_idx] = 0;
        femit!(
            self,
            sink,
            RT_MALLOC_PC + 92,
            OpClass::Runtime,
            RetiredInfo::Branch {
                kind: BranchKind::Return,
                taken: true,
                target: pc + 4,
                pcc_change: pcc,
            }
        );
        Ok(())
    }

    fn run_free<S: EventSink>(
        &mut self,
        addr: u64,
        pc: u64,
        sink: &mut S,
    ) -> Result<(), InterpError> {
        let pcc = false; // see run_malloc
        femit!(
            self,
            sink,
            pc,
            OpClass::Branch,
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
            femit!(
                self,
                sink,
                RT_FREE_PC + i * 4,
                OpClass::Runtime,
                RetiredInfo::Simple(InstClass::Dp)
            );
        }
        let cap_meta = self.cap_abi;
        let meta_sz: u8 = if cap_meta { 16 } else { 8 };
        let meta = self.prog.map.heap.0 + (addr / 64 % META_LINES) * 64;
        femit!(
            self,
            sink,
            RT_FREE_PC + 32,
            OpClass::Runtime,
            RetiredInfo::Load {
                addr: meta,
                size: meta_sz,
                is_cap: cap_meta,
                dep_load: false,
            }
        );
        femit!(
            self,
            sink,
            RT_FREE_PC + 36,
            OpClass::Runtime,
            RetiredInfo::Store {
                addr: meta,
                size: meta_sz,
                is_cap: cap_meta,
            }
        );
        if self.cap_abi {
            for i in 0..4u64 {
                femit!(
                    self,
                    sink,
                    RT_FREE_PC + 40 + i * 4,
                    OpClass::Runtime,
                    RetiredInfo::CapManip
                );
            }
            for i in 0..6u64 {
                femit!(
                    self,
                    sink,
                    RT_FREE_PC + 56 + i * 4,
                    OpClass::Runtime,
                    RetiredInfo::Simple(InstClass::Dp)
                );
            }
            let revbm = self.prog.map.heap.0 + (1 << 19) + (addr >> 10 & 0x3FFFF);
            femit!(
                self,
                sink,
                RT_FREE_PC + 80,
                OpClass::Runtime,
                RetiredInfo::Load {
                    addr: revbm,
                    size: 8,
                    is_cap: false,
                    dep_load: false,
                }
            );
            femit!(
                self,
                sink,
                RT_FREE_PC + 84,
                OpClass::Runtime,
                RetiredInfo::Store {
                    addr: revbm,
                    size: 8,
                    is_cap: false,
                }
            );
            femit!(
                self,
                sink,
                RT_FREE_PC + 88,
                OpClass::Runtime,
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
        femit!(
            self,
            sink,
            RT_FREE_PC + 48,
            OpClass::Runtime,
            RetiredInfo::Branch {
                kind: BranchKind::Return,
                taken: true,
                target: pc + 4,
                pcc_change: pcc,
            }
        );
        Ok(())
    }

    fn emit_sweep<S: EventSink>(&mut self, sweep: &SweepOutcome, sink: &mut S) {
        for i in 0..4u64 {
            femit!(
                self,
                sink,
                RT_SWEEP_PC + i * 4,
                OpClass::Meta,
                RetiredInfo::Simple(InstClass::Dp)
            );
        }
        let mut page_boundary = 0u64;
        for (i, acc) in sweep.accesses.iter().enumerate() {
            let pc = RT_SWEEP_PC + 16 + (i as u64 % 48) * 4;
            if acc.write {
                femit!(
                    self,
                    sink,
                    pc,
                    OpClass::Meta,
                    RetiredInfo::Store {
                        addr: acc.addr,
                        size: acc.size,
                        is_cap: acc.is_cap,
                    }
                );
            } else {
                femit!(
                    self,
                    sink,
                    pc,
                    OpClass::Meta,
                    RetiredInfo::Load {
                        addr: acc.addr,
                        size: acc.size,
                        is_cap: acc.is_cap,
                        dep_load: false,
                    }
                );
            }
            femit!(
                self,
                sink,
                pc + 4,
                OpClass::Meta,
                RetiredInfo::Simple(InstClass::Dp)
            );
            if acc.addr >> 12 != page_boundary {
                page_boundary = acc.addr >> 12;
                femit!(
                    self,
                    sink,
                    RT_SWEEP_PC + 16 + 49 * 4,
                    OpClass::Meta,
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

// ---- Direct-threaded handlers ---------------------------------------------
//
// One free function per micro-op kind (see `decoded::mk`), fully
// specialised: no operand-form, size, or sub-op `match` survives inside
// a handler — `eval_int_op`/`eval_float_op`/`Cond::eval` are called
// with constant ops so their internal dispatch const-folds away.
// Handlers read the control state from `FastMachine::{fi, ip, rb}`,
// report errors by parking them in `FastMachine::err` and returning
// `Ctl::Die`, and report control flow through the rest of [`Ctl`].
// Interiors emit through `FastMachine::iemit` (per-op bookkeeping is
// hoisted to the block boundary); terminators emit through `femit!`
// and account for their own events. Memory handlers, `MOV_NULL` and
// `MALLOC` are additionally monomorphised over a `const` flag (the ABI,
// or the operand form).

/// What a handler tells the driver to do next.
enum Ctl {
    /// An interior op retired; run the next op of the block. The
    /// driver accounts for its event.
    Next,
    /// A terminator finished without a transfer (a not-taken branch,
    /// an allocator call, a region marker): continue at the next op,
    /// which starts the next block.
    Fall,
    /// A taken `JUMP`/`BR_*`: continue at its target, the block's
    /// pre-resolved `t_blk`.
    Taken,
    /// A call or return moved `fi`/`ip`/`rb` to another frame, or a
    /// halt (or the entry function's return) set `exit`.
    Frame,
    /// The op faulted; the error is in [`FastMachine::err`].
    Die,
}

/// A dispatch-table entry.
type Handler<S> = for<'a, 'b, 'c, 'p> fn(&'a mut FastMachine<'p>, &'b mut S, &'c MicroOp) -> Ctl;

/// Unwraps a `Result` inside a handler, converting `Err` into the
/// park-and-die protocol.
macro_rules! get {
    ($m:ident, $e:expr) => {
        match $e {
            Ok(v) => v,
            Err(e) => {
                $m.err = Some(e);
                return Ctl::Die;
            }
        }
    };
}

/// Rebuilds the exact ALU event info from the packed long-latency byte.
#[inline(always)]
fn ll_info(class: InstClass, ll: u8) -> RetiredInfo {
    if ll == 0 {
        RetiredInfo::Simple(class)
    } else {
        RetiredInfo::LongLatency { class, extra: ll }
    }
}

/// Expands to the `(offset value, offset taint)` pair for a memory
/// handler's offset mode (`imm`/`reg`/`scl`), mirroring the `Off` match
/// of the per-op engine.
macro_rules! off_val {
    ($m:ident, $o:ident, imm) => {
        ($o.imm as i64, 0u64)
    };
    ($m:ident, $o:ident, reg) => {{
        let r = $m.rb + $o.b as usize;
        (get!($m, $m.as_int(r, $o.pc)) as i64, $m.taints[r])
    }};
    ($m:ident, $o:ident, scl) => {{
        let r = $m.rb + $o.b as usize;
        (
            (get!($m, $m.as_int(r, $o.pc)) as i64).wrapping_mul($o.sz as i64),
            $m.taints[r],
        )
    }};
}

fn h_bad_kind<S: EventSink>(_m: &mut FastMachine<'_>, _sink: &mut S, o: &MicroOp) -> Ctl {
    unreachable!("no handler for micro-op kind {} at pc {:#x}", o.kind, o.pc)
}

fn h_mov_imm<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let d = m.rb + o.dst as usize;
    m.regs[d] = Value::Int(o.imm);
    m.taints[d] = 0;
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Dp),
    );
    Ctl::Next
}

fn h_mov_f64<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let d = m.rb + o.dst as usize;
    m.regs[d] = Value::F64(f64::from_bits(o.imm));
    m.taints[d] = 0;
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Dp),
    );
    Ctl::Next
}

fn h_mov<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let rb = m.rb;
    let d = rb + o.dst as usize;
    m.regs[d] = m.regs[rb + o.a as usize];
    m.taints[d] = m.taints[rb + o.a as usize];
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Dp),
    );
    Ctl::Next
}

/// Defines the register-register / register-immediate handler pair for
/// one integer ALU op. The constant `$op` lets `eval_int_op`'s dispatch
/// const-fold into the single operation.
macro_rules! alu_h {
    ($rr:ident, $ri:ident, $op:expr) => {
        fn $rr<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
            let rb = m.rb;
            let av = get!(m, m.as_int(rb + o.a as usize, o.pc));
            let bv = get!(m, m.as_int(rb + o.b as usize, o.pc));
            let t = m.taints[rb + o.a as usize].max(m.taints[rb + o.b as usize]);
            let d = rb + o.dst as usize;
            m.regs[d] = Value::Int(eval_int_op($op, av, bv));
            m.taints[d] = t;
            m.iemit(sink, o.pc, OpClass::IntAlu, ll_info(InstClass::Dp, o.sz));
            Ctl::Next
        }
        fn $ri<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
            let rb = m.rb;
            let av = get!(m, m.as_int(rb + o.a as usize, o.pc));
            let t = m.taints[rb + o.a as usize];
            let d = rb + o.dst as usize;
            m.regs[d] = Value::Int(eval_int_op($op, av, o.imm));
            m.taints[d] = t;
            m.iemit(sink, o.pc, OpClass::IntAlu, ll_info(InstClass::Dp, o.sz));
            Ctl::Next
        }
    };
}

alu_h!(h_add_rr, h_add_ri, IntOp::Add);
alu_h!(h_sub_rr, h_sub_ri, IntOp::Sub);
alu_h!(h_mul_rr, h_mul_ri, IntOp::Mul);
alu_h!(h_udiv_rr, h_udiv_ri, IntOp::UDiv);
alu_h!(h_urem_rr, h_urem_ri, IntOp::URem);
alu_h!(h_and_rr, h_and_ri, IntOp::And);
alu_h!(h_orr_rr, h_orr_ri, IntOp::Orr);
alu_h!(h_eor_rr, h_eor_ri, IntOp::Eor);
alu_h!(h_lsl_rr, h_lsl_ri, IntOp::Lsl);
alu_h!(h_lsr_rr, h_lsr_ri, IntOp::Lsr);
alu_h!(h_asr_rr, h_asr_ri, IntOp::Asr);

fn h_madd<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let rb = m.rb;
    let av = get!(m, m.as_int(rb + o.a as usize, o.pc));
    let bv = get!(m, m.as_int(rb + o.b as usize, o.pc));
    let cv = get!(m, m.as_int(rb + o.aux as usize, o.pc));
    let t = m.taints[rb + o.a as usize]
        .max(m.taints[rb + o.b as usize])
        .max(m.taints[rb + o.aux as usize]);
    let d = rb + o.dst as usize;
    m.regs[d] = Value::Int(av.wrapping_mul(bv).wrapping_add(cv));
    m.taints[d] = t;
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::LongLatency {
            class: InstClass::Dp,
            extra: 1,
        },
    );
    Ctl::Next
}

/// Defines the handler for one float ALU op (same const-fold trick as
/// [`alu_h`]).
macro_rules! falu_h {
    ($name:ident, $op:expr) => {
        fn $name<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
            let rb = m.rb;
            let av = get!(m, m.as_f64(rb + o.a as usize, o.pc));
            let bv = get!(m, m.as_f64(rb + o.b as usize, o.pc));
            let d = rb + o.dst as usize;
            m.regs[d] = Value::F64(eval_float_op($op, av, bv));
            m.taints[d] = 0;
            m.iemit(sink, o.pc, OpClass::IntAlu, ll_info(InstClass::Vfp, o.sz));
            Ctl::Next
        }
    };
}

falu_h!(h_fadd, FloatOp::FAdd);
falu_h!(h_fsub, FloatOp::FSub);
falu_h!(h_fmul, FloatOp::FMul);
falu_h!(h_fdiv, FloatOp::FDiv);
falu_h!(h_fmin, FloatOp::FMin);
falu_h!(h_fmax, FloatOp::FMax);
falu_h!(h_fsqrt, FloatOp::FSqrt);

fn h_fmadd<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let rb = m.rb;
    let av = get!(m, m.as_f64(rb + o.a as usize, o.pc));
    let bv = get!(m, m.as_f64(rb + o.b as usize, o.pc));
    let cv = get!(m, m.as_f64(rb + o.aux as usize, o.pc));
    let d = rb + o.dst as usize;
    m.regs[d] = Value::F64(av.mul_add(bv, cv));
    m.taints[d] = 0;
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Vfp),
    );
    Ctl::Next
}

/// Defines the handler for one folded f64 comparison ordering.
macro_rules! fcmp_h {
    ($name:ident, $op:tt) => {
        fn $name<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
            let rb = m.rb;
            let av = get!(m, m.as_f64(rb + o.a as usize, o.pc));
            let bv = get!(m, m.as_f64(rb + o.b as usize, o.pc));
            let d = rb + o.dst as usize;
            m.regs[d] = Value::Int(u64::from(av $op bv));
            m.taints[d] = 0;
            m.iemit(sink, o.pc, OpClass::IntAlu, RetiredInfo::Simple(InstClass::Vfp));
            Ctl::Next
        }
    };
}

fcmp_h!(h_fceq, ==);
fcmp_h!(h_fcne, !=);
fcmp_h!(h_fclt, <);
fcmp_h!(h_fcle, <=);
fcmp_h!(h_fcgt, >);
fcmp_h!(h_fcge, >=);

fn h_vadd<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let rb = m.rb;
    let av = get!(m, m.as_f64(rb + o.a as usize, o.pc));
    let bv = get!(m, m.as_f64(rb + o.b as usize, o.pc));
    let d = rb + o.dst as usize;
    m.regs[d] = Value::F64(av + bv);
    m.taints[d] = 0;
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Ase),
    );
    Ctl::Next
}

fn h_vmul<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let rb = m.rb;
    let av = get!(m, m.as_f64(rb + o.a as usize, o.pc));
    let bv = get!(m, m.as_f64(rb + o.b as usize, o.pc));
    let d = rb + o.dst as usize;
    m.regs[d] = Value::F64(av * bv);
    m.taints[d] = 0;
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Ase),
    );
    Ctl::Next
}

fn h_vfma<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let rb = m.rb;
    let d = rb + o.dst as usize;
    let acc = get!(m, m.as_f64(d, o.pc));
    let av = get!(m, m.as_f64(rb + o.a as usize, o.pc));
    let bv = get!(m, m.as_f64(rb + o.b as usize, o.pc));
    m.regs[d] = Value::F64(av.mul_add(bv, acc));
    m.taints[d] = 0;
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Ase),
    );
    Ctl::Next
}

fn h_vsad<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let rb = m.rb;
    let d = rb + o.dst as usize;
    let acc = get!(m, m.as_int(d, o.pc));
    let av = get!(m, m.as_int(rb + o.a as usize, o.pc));
    let bv = get!(m, m.as_int(rb + o.b as usize, o.pc));
    m.regs[d] = Value::Int(acc.wrapping_add(av.abs_diff(bv)));
    m.taints[d] = 0;
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Ase),
    );
    Ctl::Next
}

fn h_cvt_to_int<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let v = get!(m, m.as_f64(m.rb + o.a as usize, o.pc));
    let d = m.rb + o.dst as usize;
    m.regs[d] = Value::Int(v as i64 as u64);
    m.taints[d] = 0;
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Vfp),
    );
    Ctl::Next
}

fn h_cvt_to_f64<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let v = get!(m, m.as_int(m.rb + o.a as usize, o.pc));
    let d = m.rb + o.dst as usize;
    m.regs[d] = Value::F64(v as i64 as f64);
    m.taints[d] = 0;
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Vfp),
    );
    Ctl::Next
}

fn h_mov_null<S: EventSink, const CAP: bool>(
    m: &mut FastMachine<'_>,
    sink: &mut S,
    o: &MicroOp,
) -> Ctl {
    let d = m.rb + o.dst as usize;
    m.regs[d] = if CAP {
        Value::Cap(Capability::null())
    } else {
        Value::Int(0)
    };
    m.taints[d] = 0;
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Dp),
    );
    Ctl::Next
}

// `PtrAdd`/`PtrToInt` skip the taint write, exactly like the per-op
// arms (pre-lowering misuse shims).
fn h_ptr_add_rr<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let rb = m.rb;
    let b = get!(m, m.as_int(rb + o.a as usize, o.pc));
    let ov = get!(m, m.as_int(rb + o.b as usize, o.pc));
    m.regs[rb + o.dst as usize] = Value::Int(b.wrapping_add(ov));
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Dp),
    );
    Ctl::Next
}

fn h_ptr_add_ri<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let rb = m.rb;
    let b = get!(m, m.as_int(rb + o.a as usize, o.pc));
    m.regs[rb + o.dst as usize] = Value::Int(b.wrapping_add(o.imm));
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Dp),
    );
    Ctl::Next
}

fn h_ptr_to_int<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let r = get!(m, m.as_addr(m.rb + o.a as usize, o.pc));
    m.regs[m.rb + o.dst as usize] = Value::Int(r);
    m.iemit(
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Dp),
    );
    Ctl::Next
}

fn h_load_ct<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let (cc, tag) = get!(
        m,
        m.mem
            .load_cap(o.imm)
            .map_err(|err| InterpError::Mem { err, pc: o.pc })
    );
    let mut cap = Capability::from_compressed(cc, tag);
    let off = o.captable_off();
    if off != 0 {
        cap = cap.inc_address(off);
    }
    m.load_seq += 1;
    let seq = m.load_seq;
    let d = m.rb + o.dst as usize;
    m.regs[d] = Value::Cap(cap);
    m.taints[d] = seq;
    m.iemit(
        sink,
        o.pc,
        OpClass::MemCap,
        RetiredInfo::Load {
            addr: o.imm,
            size: 16,
            is_cap: true,
            dep_load: false,
        },
    );
    Ctl::Next
}

/// Defines one narrow integer-load handler (u8/u16/u32, widened).
macro_rules! load_int_h {
    ($name:ident, $mode:tt, $bytes:expr, $rd:ident) => {
        fn $name<S: EventSink, const CAP: bool>(
            m: &mut FastMachine<'_>,
            sink: &mut S,
            o: &MicroOp,
        ) -> Ctl {
            let rb = m.rb;
            let (off_v, off_taint) = off_val!(m, o, $mode);
            let (addr, _auth) = get!(
                m,
                m.resolve_c::<CAP>(o.a, off_v, $bytes, false, false, o.pc)
            );
            let base_taint = m.taints[rb + o.a as usize].max(off_taint);
            let dep = m.dep_load(base_taint);
            let v = get!(
                m,
                m.mem
                    .$rd(addr)
                    .map(u64::from)
                    .map_err(|err| InterpError::Mem { err, pc: o.pc })
            );
            m.load_seq += 1;
            let seq = m.load_seq;
            let d = rb + o.dst as usize;
            m.regs[d] = Value::Int(v);
            m.taints[d] = seq;
            m.iemit(
                sink,
                o.pc,
                OpClass::MemScalar,
                RetiredInfo::Load {
                    addr,
                    size: $bytes,
                    is_cap: false,
                    dep_load: dep,
                },
            );
            Ctl::Next
        }
    };
}

load_int_h!(h_ld_u8_imm, imm, 1, read_u8);
load_int_h!(h_ld_u8_reg, reg, 1, read_u8);
load_int_h!(h_ld_u8_scl, scl, 1, read_u8);
load_int_h!(h_ld_u16_imm, imm, 2, read_u16);
load_int_h!(h_ld_u16_reg, reg, 2, read_u16);
load_int_h!(h_ld_u16_scl, scl, 2, read_u16);
load_int_h!(h_ld_u32_imm, imm, 4, read_u32);
load_int_h!(h_ld_u32_reg, reg, 4, read_u32);
load_int_h!(h_ld_u32_scl, scl, 4, read_u32);

/// Defines one u64/f64 load handler (`$wrap` rebuilds the register
/// value from the raw 8-byte read).
macro_rules! load_word_h {
    ($name:ident, $mode:tt, $wrap:path) => {
        fn $name<S: EventSink, const CAP: bool>(
            m: &mut FastMachine<'_>,
            sink: &mut S,
            o: &MicroOp,
        ) -> Ctl {
            let rb = m.rb;
            let (off_v, off_taint) = off_val!(m, o, $mode);
            let (addr, _auth) = get!(m, m.resolve_c::<CAP>(o.a, off_v, 8, false, false, o.pc));
            let base_taint = m.taints[rb + o.a as usize].max(off_taint);
            let dep = m.dep_load(base_taint);
            let v = get!(
                m,
                m.mem
                    .read_u64(addr)
                    .map_err(|err| InterpError::Mem { err, pc: o.pc })
            );
            m.load_seq += 1;
            let seq = m.load_seq;
            let d = rb + o.dst as usize;
            m.regs[d] = $wrap(v);
            m.taints[d] = seq;
            m.iemit(
                sink,
                o.pc,
                OpClass::MemScalar,
                RetiredInfo::Load {
                    addr,
                    size: 8,
                    is_cap: false,
                    dep_load: dep,
                },
            );
            Ctl::Next
        }
    };
}

#[inline(always)]
fn word_as_int(v: u64) -> Value {
    Value::Int(v)
}

#[inline(always)]
fn word_as_f64(v: u64) -> Value {
    Value::F64(f64::from_bits(v))
}

load_word_h!(h_ld_u64_imm, imm, word_as_int);
load_word_h!(h_ld_u64_reg, reg, word_as_int);
load_word_h!(h_ld_u64_scl, scl, word_as_int);
load_word_h!(h_ld_f64_imm, imm, word_as_f64);
load_word_h!(h_ld_f64_reg, reg, word_as_f64);
load_word_h!(h_ld_f64_scl, scl, word_as_f64);

/// Defines one capability-load handler (Morello tag-strip on missing
/// LOAD_CAP, like the per-op arm).
macro_rules! load_cap_h {
    ($name:ident, $mode:tt) => {
        fn $name<S: EventSink, const CAP: bool>(
            m: &mut FastMachine<'_>,
            sink: &mut S,
            o: &MicroOp,
        ) -> Ctl {
            let rb = m.rb;
            let (off_v, off_taint) = off_val!(m, o, $mode);
            let (addr, auth) = get!(m, m.resolve_c::<CAP>(o.a, off_v, 16, false, false, o.pc));
            let base_taint = m.taints[rb + o.a as usize].max(off_taint);
            let dep = m.dep_load(base_taint);
            let (cc, mut tag) = get!(
                m,
                m.mem
                    .load_cap(addr)
                    .map_err(|err| InterpError::Mem { err, pc: o.pc })
            );
            if let Some(a) = auth {
                if !a.perms().contains(Perms::LOAD_CAP) {
                    tag = false;
                }
            }
            m.load_seq += 1;
            let seq = m.load_seq;
            let d = rb + o.dst as usize;
            m.regs[d] = Value::Cap(Capability::from_compressed(cc, tag));
            m.taints[d] = seq;
            m.iemit(
                sink,
                o.pc,
                OpClass::MemCap,
                RetiredInfo::Load {
                    addr,
                    size: 16,
                    is_cap: true,
                    dep_load: dep,
                },
            );
            Ctl::Next
        }
    };
}

load_cap_h!(h_ld_cap_imm, imm);
load_cap_h!(h_ld_cap_reg, reg);
load_cap_h!(h_ld_cap_scl, scl);

/// Defines one narrow integer-store handler (truncating cast).
macro_rules! store_int_h {
    ($name:ident, $mode:tt, $bytes:expr, $wr:ident, $cast:ty) => {
        fn $name<S: EventSink, const CAP: bool>(
            m: &mut FastMachine<'_>,
            sink: &mut S,
            o: &MicroOp,
        ) -> Ctl {
            let (off_v, _t) = off_val!(m, o, $mode);
            let (addr, _auth) = get!(m, m.resolve_c::<CAP>(o.a, off_v, $bytes, true, false, o.pc));
            let v = get!(m, m.as_int(m.rb + o.dst as usize, o.pc));
            get!(
                m,
                m.mem
                    .$wr(addr, v as $cast)
                    .map_err(|err| InterpError::Mem { err, pc: o.pc })
            );
            m.iemit(
                sink,
                o.pc,
                OpClass::MemScalar,
                RetiredInfo::Store {
                    addr,
                    size: $bytes,
                    is_cap: false,
                },
            );
            Ctl::Next
        }
    };
}

store_int_h!(h_st_u8_imm, imm, 1, write_u8, u8);
store_int_h!(h_st_u8_reg, reg, 1, write_u8, u8);
store_int_h!(h_st_u8_scl, scl, 1, write_u8, u8);
store_int_h!(h_st_u16_imm, imm, 2, write_u16, u16);
store_int_h!(h_st_u16_reg, reg, 2, write_u16, u16);
store_int_h!(h_st_u16_scl, scl, 2, write_u16, u16);
store_int_h!(h_st_u32_imm, imm, 4, write_u32, u32);
store_int_h!(h_st_u32_reg, reg, 4, write_u32, u32);
store_int_h!(h_st_u32_scl, scl, 4, write_u32, u32);

/// Defines one u64/f64 store handler (`$src` reads the source register
/// as raw 8-byte payload).
macro_rules! store_word_h {
    ($name:ident, $mode:tt, $src:ident) => {
        fn $name<S: EventSink, const CAP: bool>(
            m: &mut FastMachine<'_>,
            sink: &mut S,
            o: &MicroOp,
        ) -> Ctl {
            let (off_v, _t) = off_val!(m, o, $mode);
            let (addr, _auth) = get!(m, m.resolve_c::<CAP>(o.a, off_v, 8, true, false, o.pc));
            let v = get!(m, $src(m, o));
            get!(
                m,
                m.mem
                    .write_u64(addr, v)
                    .map_err(|err| InterpError::Mem { err, pc: o.pc })
            );
            m.iemit(
                sink,
                o.pc,
                OpClass::MemScalar,
                RetiredInfo::Store {
                    addr,
                    size: 8,
                    is_cap: false,
                },
            );
            Ctl::Next
        }
    };
}

#[inline(always)]
fn src_int(m: &FastMachine<'_>, o: &MicroOp) -> Result<u64, InterpError> {
    m.as_int(m.rb + o.dst as usize, o.pc)
}

#[inline(always)]
fn src_f64_bits(m: &FastMachine<'_>, o: &MicroOp) -> Result<u64, InterpError> {
    m.as_f64(m.rb + o.dst as usize, o.pc).map(f64::to_bits)
}

store_word_h!(h_st_u64_imm, imm, src_int);
store_word_h!(h_st_u64_reg, reg, src_int);
store_word_h!(h_st_u64_scl, scl, src_int);
store_word_h!(h_st_f64_imm, imm, src_f64_bits);
store_word_h!(h_st_f64_reg, reg, src_f64_bits);
store_word_h!(h_st_f64_scl, scl, src_f64_bits);

/// Defines one capability-store handler.
macro_rules! store_cap_h {
    ($name:ident, $mode:tt) => {
        fn $name<S: EventSink, const CAP: bool>(
            m: &mut FastMachine<'_>,
            sink: &mut S,
            o: &MicroOp,
        ) -> Ctl {
            let (off_v, _t) = off_val!(m, o, $mode);
            let (addr, _auth) = get!(m, m.resolve_c::<CAP>(o.a, off_v, 16, true, true, o.pc));
            let c = get!(m, m.as_cap(m.rb + o.dst as usize, o.pc));
            get!(
                m,
                m.mem
                    .store_cap(addr, c.to_compressed(), c.tag())
                    .map_err(|err| InterpError::Mem { err, pc: o.pc })
            );
            m.iemit(
                sink,
                o.pc,
                OpClass::MemCap,
                RetiredInfo::Store {
                    addr,
                    size: 16,
                    is_cap: true,
                },
            );
            Ctl::Next
        }
    };
}

store_cap_h!(h_st_cap_imm, imm);
store_cap_h!(h_st_cap_reg, reg);
store_cap_h!(h_st_cap_scl, scl);

/// Defines the RR/RI handler pair for one two-operand capability op.
/// `$body` produces the result `Value` from capability `$c` and integer
/// operand `$v` (idents passed in so the expansion stays hygienic).
macro_rules! cap_rr_ri {
    ($rr:ident, $ri:ident, |$m:ident, $o:ident, $c:ident, $v:ident| $body:expr) => {
        fn $rr<S: EventSink>($m: &mut FastMachine<'_>, sink: &mut S, $o: &MicroOp) -> Ctl {
            let rb = $m.rb;
            let t = $m.taints[rb + $o.a as usize];
            let $c = get!($m, $m.as_cap(rb + $o.a as usize, $o.pc));
            let $v = get!($m, $m.as_int(rb + $o.b as usize, $o.pc));
            let r: Value = $body;
            $m.regs[rb + $o.dst as usize] = r;
            $m.taints[rb + $o.dst as usize] = t;
            $m.iemit(sink, $o.pc, OpClass::CapManip, RetiredInfo::CapManip);
            Ctl::Next
        }
        fn $ri<S: EventSink>($m: &mut FastMachine<'_>, sink: &mut S, $o: &MicroOp) -> Ctl {
            let rb = $m.rb;
            let t = $m.taints[rb + $o.a as usize];
            let $c = get!($m, $m.as_cap(rb + $o.a as usize, $o.pc));
            let $v = $o.imm;
            let r: Value = $body;
            $m.regs[rb + $o.dst as usize] = r;
            $m.taints[rb + $o.dst as usize] = t;
            $m.iemit(sink, $o.pc, OpClass::CapManip, RetiredInfo::CapManip);
            Ctl::Next
        }
    };
}

cap_rr_ri!(h_cinc_rr, h_cinc_ri, |m, o, c, v| Value::Cap(
    c.inc_address(v as i64)
));
cap_rr_ri!(h_csetaddr_rr, h_csetaddr_ri, |m, o, c, v| Value::Cap(
    c.set_address(v)
));
cap_rr_ri!(h_csetb_rr, h_csetb_ri, |m, o, c, v| Value::Cap(get!(
    m,
    c.set_bounds(c.address(), v)
        .map_err(|f| m.cap_fault(f, o.pc))
)));
cap_rr_ri!(h_csetbe_rr, h_csetbe_ri, |m, o, c, v| Value::Cap(get!(
    m,
    c.set_bounds_exact(c.address(), v)
        .map_err(|f| m.cap_fault(f, o.pc))
)));
cap_rr_ri!(h_candp_rr, h_candp_ri, |m, o, c, v| Value::Cap(get!(
    m,
    c.and_perms(Perms::from_bits_truncate(v as u32))
        .map_err(|f| m.cap_fault(f, o.pc))
)));

/// Defines the handler for one single-operand capability op.
macro_rules! cap_un_h {
    ($name:ident, |$m:ident, $o:ident, $c:ident| $body:expr) => {
        fn $name<S: EventSink>($m: &mut FastMachine<'_>, sink: &mut S, $o: &MicroOp) -> Ctl {
            let rb = $m.rb;
            let t = $m.taints[rb + $o.a as usize];
            let $c = get!($m, $m.as_cap(rb + $o.a as usize, $o.pc));
            let r: Value = $body;
            $m.regs[rb + $o.dst as usize] = r;
            $m.taints[rb + $o.dst as usize] = t;
            $m.iemit(sink, $o.pc, OpClass::CapManip, RetiredInfo::CapManip);
            Ctl::Next
        }
    };
}

cap_un_h!(h_cgetaddr, |m, o, c| Value::Int(c.address()));
cap_un_h!(h_cgetlen, |m, o, c| Value::Int(c.length()));
cap_un_h!(h_cgetbase, |m, o, c| Value::Int(c.base()));
cap_un_h!(h_cgettag, |m, o, c| Value::Int(u64::from(c.tag())));
cap_un_h!(h_cseale, |m, o, c| Value::Cap(get!(
    m,
    c.seal_sentry().map_err(|f| m.cap_fault(f, o.pc))
)));
cap_un_h!(h_ccleartag, |m, o, c| Value::Cap(c.clear_tag()));

/// Defines the handler for one sealing op (cap × auth-cap).
macro_rules! cap2_h {
    ($name:ident, $method:ident) => {
        fn $name<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
            let rb = m.rb;
            let av = get!(m, m.as_cap(rb + o.a as usize, o.pc));
            let authv = get!(m, m.as_cap(rb + o.b as usize, o.pc));
            let r = get!(m, av.$method(&authv).map_err(|f| m.cap_fault(f, o.pc)));
            let t = m.taints[rb + o.a as usize];
            m.regs[rb + o.dst as usize] = Value::Cap(r);
            m.taints[rb + o.dst as usize] = t;
            m.iemit(sink, o.pc, OpClass::CapManip, RetiredInfo::CapManip);
            Ctl::Next
        }
    };
}

cap2_h!(h_cseal, seal);
cap2_h!(h_cunseal, unseal);

// ---- Terminator handlers -------------------------------------------------

/// Emits an immediate branch's event and reports its direction.
#[inline(always)]
fn branch<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp, taken: bool) -> Ctl {
    femit!(
        m,
        sink,
        o.pc,
        OpClass::Branch,
        RetiredInfo::Branch {
            kind: BranchKind::Immediate,
            taken,
            target: o.target_pc(),
            pcc_change: false,
        }
    );
    if taken {
        Ctl::Taken
    } else {
        Ctl::Fall
    }
}

fn h_jump<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    branch(m, sink, o, true)
}

/// A conditional branch on `CONDS[C]` against register `b`.
fn h_br_rr<S: EventSink, const C: u8>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let av = get!(m, m.as_int(m.rb + o.a as usize, o.pc));
    let bv = get!(m, m.as_int(m.rb + o.b as usize, o.pc));
    branch(m, sink, o, CONDS[C as usize].eval(av, bv))
}

/// A conditional branch on `CONDS[C]` against `imm`.
fn h_br_ri<S: EventSink, const C: u8>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let av = get!(m, m.as_int(m.rb + o.a as usize, o.pc));
    branch(m, sink, o, CONDS[C as usize].eval(av, o.imm))
}

fn h_call<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let callee = o.imm as u32;
    let target = m.dec.funcs[callee as usize].base_pc;
    let call = (o, BranchKind::Call, target, o.sz != 0);
    get!(m, m.enter_frame(sink, callee, Some(call)));
    Ctl::Frame
}

fn h_call_indirect<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let taddr = match m.regs[m.rb + o.a as usize] {
        Value::Int(a) if !m.cap_abi => a,
        Value::Cap(c) if m.cap_abi => {
            get!(m, c.check_branch().map_err(|f| m.cap_fault(f, o.pc)));
            c.address()
        }
        _ => {
            m.err = Some(InterpError::TypeConfusion {
                pc: o.pc,
                expected: "function pointer",
            });
            return Ctl::Die;
        }
    };
    let unknown = InterpError::UnknownCode {
        addr: taddr,
        pc: o.pc,
    };
    let callee = get!(m, m.prog.map.func_at(taddr).ok_or(unknown)).0;
    let funcs = &m.dec.funcs;
    let pcc_change = m.pcc_branches && funcs[callee as usize].module != funcs[m.fi].module;
    let call = (o, BranchKind::IndirectCall, taddr, pcc_change);
    get!(m, m.enter_frame(sink, callee, Some(call)));
    Ctl::Frame
}

fn h_ret<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let pc = o.pc;
    let v = (o.a != NO_REG).then(|| m.regs[m.rb + o.a as usize]);
    let fr = m.frames.pop().expect("no frame");
    let dec = m.dec;
    let fun = &dec.funcs[m.fi];
    let cap_abi = m.cap_abi;
    let lr_addr = (m.sp + fun.frame_size) & if cap_abi { !15 } else { !0 };

    // Epilogue: LR reload + SP adjust + return branch.
    femit!(
        m,
        sink,
        pc,
        if cap_abi {
            OpClass::MemCap
        } else {
            OpClass::MemScalar
        },
        RetiredInfo::Load {
            addr: lr_addr,
            size: if cap_abi { 16 } else { 8 },
            is_cap: cap_abi,
            dep_load: false,
        }
    );
    let reload = if cap_abi {
        m.mem.load_cap(lr_addr).map(drop)
    } else {
        m.mem.read_u64(lr_addr).map(drop)
    };
    get!(m, reload.map_err(|err| InterpError::Mem { err, pc }));
    m.emit_sp_adjust(sink, pc);
    m.sp = fr.saved_sp;

    let Some(caller) = m.frames.last() else {
        // Returning from the entry function ends the program.
        m.exit = Some(match v {
            Some(Value::Int(v)) => v,
            _ => 0,
        });
        return Ctl::Frame;
    };
    let caller_fun = &dec.funcs[caller.func as usize];
    let ret_target = caller_fun.base_pc + u64::from(fr.ret_ip) * 4;
    let pcc_change = m.pcc_branches && caller_fun.module != fun.module;
    let (caller_fi, caller_rb) = (caller.func as usize, caller.reg_base as usize);
    if let (Some(r), Some(v)) = (fr.ret_reg, v) {
        // Return values inherit "recently loaded" status
        // conservatively: cleared.
        m.regs[caller_rb + r as usize] = v;
        m.taints[caller_rb + r as usize] = 0;
    }
    femit!(
        m,
        sink,
        pc,
        if pcc_change {
            OpClass::CapBranch
        } else {
            OpClass::Branch
        },
        RetiredInfo::Branch {
            kind: BranchKind::Return,
            taken: true,
            target: ret_target,
            pcc_change,
        }
    );
    m.regs.truncate(fr.reg_base as usize);
    m.taints.truncate(fr.reg_base as usize);
    m.fi = caller_fi;
    m.ip = fr.ret_ip as usize;
    m.rb = caller_rb;
    Ctl::Frame
}

/// `MALLOC` with its size in register `b` (`IMM = false`) or `imm`.
fn h_malloc<S: EventSink, const IMM: bool>(
    m: &mut FastMachine<'_>,
    sink: &mut S,
    o: &MicroOp,
) -> Ctl {
    let size = if IMM {
        o.imm
    } else {
        get!(m, m.as_int(m.rb + o.b as usize, o.pc))
    };
    get!(m, m.run_malloc(m.rb + o.dst as usize, size, o.pc, sink));
    Ctl::Fall
}

fn h_free<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let addr = get!(m, m.as_addr(m.rb + o.a as usize, o.pc));
    get!(m, m.run_free(addr, o.pc, sink));
    Ctl::Fall
}

fn h_halt<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    let code = if o.a == NO_REG {
        0
    } else {
        get!(m, m.as_int(m.rb + o.a as usize, o.pc))
    };
    femit!(
        m,
        sink,
        o.pc,
        OpClass::IntAlu,
        RetiredInfo::Simple(InstClass::Dp)
    );
    m.exit = Some(code);
    Ctl::Frame
}

/// Profiling marker: no retired instruction, no cycles — just tell the
/// sink the attribution context changed.
fn h_region<S: EventSink>(m: &mut FastMachine<'_>, sink: &mut S, o: &MicroOp) -> Ctl {
    // What retired before the marker belongs to the region it leaves.
    m.flush_log(sink);
    sink.region(o.imm as u32);
    Ctl::Fall
}

fn h_bad_generic<S: EventSink>(m: &mut FastMachine<'_>, _sink: &mut S, _o: &MicroOp) -> Ctl {
    m.err = Some(InterpError::BadProgram {
        msg: "pointer-generic memory op survived lowering".into(),
    });
    Ctl::Die
}

fn h_end<S: EventSink>(m: &mut FastMachine<'_>, _sink: &mut S, _o: &MicroOp) -> Ctl {
    m.err = Some(fell_off(&m.prog.funcs[m.fi].name));
    Ctl::Die
}

/// Builds the 256-entry dispatch table for the sink/ABI pair. Entries
/// not covered by a packed kind point at [`h_bad_kind`] (unreachable:
/// decode only produces kinds assigned here). The `u8` index means the
/// hot-loop lookup needs no bounds check.
fn handler_table<S: EventSink>(cap_abi: bool) -> [Handler<S>; 256] {
    if cap_abi {
        build_table::<S, true>()
    } else {
        build_table::<S, false>()
    }
}

fn build_table<S: EventSink, const CAP: bool>() -> [Handler<S>; 256] {
    let mut t: [Handler<S>; 256] = [h_bad_kind as Handler<S>; 256];
    t[mk::MOV_IMM as usize] = h_mov_imm;
    t[mk::MOV_F64 as usize] = h_mov_f64;
    t[mk::MOV as usize] = h_mov;
    t[mk::ADD_RR as usize] = h_add_rr;
    t[mk::ADD_RI as usize] = h_add_ri;
    t[mk::SUB_RR as usize] = h_sub_rr;
    t[mk::SUB_RI as usize] = h_sub_ri;
    t[mk::MUL_RR as usize] = h_mul_rr;
    t[mk::MUL_RI as usize] = h_mul_ri;
    t[mk::UDIV_RR as usize] = h_udiv_rr;
    t[mk::UDIV_RI as usize] = h_udiv_ri;
    t[mk::UREM_RR as usize] = h_urem_rr;
    t[mk::UREM_RI as usize] = h_urem_ri;
    t[mk::AND_RR as usize] = h_and_rr;
    t[mk::AND_RI as usize] = h_and_ri;
    t[mk::ORR_RR as usize] = h_orr_rr;
    t[mk::ORR_RI as usize] = h_orr_ri;
    t[mk::EOR_RR as usize] = h_eor_rr;
    t[mk::EOR_RI as usize] = h_eor_ri;
    t[mk::LSL_RR as usize] = h_lsl_rr;
    t[mk::LSL_RI as usize] = h_lsl_ri;
    t[mk::LSR_RR as usize] = h_lsr_rr;
    t[mk::LSR_RI as usize] = h_lsr_ri;
    t[mk::ASR_RR as usize] = h_asr_rr;
    t[mk::ASR_RI as usize] = h_asr_ri;
    t[mk::MADD as usize] = h_madd;
    t[mk::FADD as usize] = h_fadd;
    t[mk::FSUB as usize] = h_fsub;
    t[mk::FMUL as usize] = h_fmul;
    t[mk::FDIV as usize] = h_fdiv;
    t[mk::FMIN as usize] = h_fmin;
    t[mk::FMAX as usize] = h_fmax;
    t[mk::FSQRT as usize] = h_fsqrt;
    t[mk::FMADD as usize] = h_fmadd;
    t[mk::FCEQ as usize] = h_fceq;
    t[mk::FCNE as usize] = h_fcne;
    t[mk::FCLT as usize] = h_fclt;
    t[mk::FCLE as usize] = h_fcle;
    t[mk::FCGT as usize] = h_fcgt;
    t[mk::FCGE as usize] = h_fcge;
    t[mk::VADD as usize] = h_vadd;
    t[mk::VMUL as usize] = h_vmul;
    t[mk::VFMA as usize] = h_vfma;
    t[mk::VSAD as usize] = h_vsad;
    t[mk::CVT_TO_INT as usize] = h_cvt_to_int;
    t[mk::CVT_TO_F64 as usize] = h_cvt_to_f64;
    t[mk::MOV_NULL as usize] = h_mov_null::<S, CAP>;
    t[mk::PTR_ADD_RR as usize] = h_ptr_add_rr;
    t[mk::PTR_ADD_RI as usize] = h_ptr_add_ri;
    t[mk::PTR_TO_INT as usize] = h_ptr_to_int;
    t[mk::LOAD_CT as usize] = h_load_ct;
    t[mk::LD_U8_IMM as usize] = h_ld_u8_imm::<S, CAP>;
    t[mk::LD_U8_IMM as usize + 1] = h_ld_u8_reg::<S, CAP>;
    t[mk::LD_U8_IMM as usize + 2] = h_ld_u8_scl::<S, CAP>;
    t[mk::LD_U16_IMM as usize] = h_ld_u16_imm::<S, CAP>;
    t[mk::LD_U16_IMM as usize + 1] = h_ld_u16_reg::<S, CAP>;
    t[mk::LD_U16_IMM as usize + 2] = h_ld_u16_scl::<S, CAP>;
    t[mk::LD_U32_IMM as usize] = h_ld_u32_imm::<S, CAP>;
    t[mk::LD_U32_IMM as usize + 1] = h_ld_u32_reg::<S, CAP>;
    t[mk::LD_U32_IMM as usize + 2] = h_ld_u32_scl::<S, CAP>;
    t[mk::LD_U64_IMM as usize] = h_ld_u64_imm::<S, CAP>;
    t[mk::LD_U64_IMM as usize + 1] = h_ld_u64_reg::<S, CAP>;
    t[mk::LD_U64_IMM as usize + 2] = h_ld_u64_scl::<S, CAP>;
    t[mk::LD_F64_IMM as usize] = h_ld_f64_imm::<S, CAP>;
    t[mk::LD_F64_IMM as usize + 1] = h_ld_f64_reg::<S, CAP>;
    t[mk::LD_F64_IMM as usize + 2] = h_ld_f64_scl::<S, CAP>;
    t[mk::LD_CAP_IMM as usize] = h_ld_cap_imm::<S, CAP>;
    t[mk::LD_CAP_IMM as usize + 1] = h_ld_cap_reg::<S, CAP>;
    t[mk::LD_CAP_IMM as usize + 2] = h_ld_cap_scl::<S, CAP>;
    t[mk::ST_U8_IMM as usize] = h_st_u8_imm::<S, CAP>;
    t[mk::ST_U8_IMM as usize + 1] = h_st_u8_reg::<S, CAP>;
    t[mk::ST_U8_IMM as usize + 2] = h_st_u8_scl::<S, CAP>;
    t[mk::ST_U16_IMM as usize] = h_st_u16_imm::<S, CAP>;
    t[mk::ST_U16_IMM as usize + 1] = h_st_u16_reg::<S, CAP>;
    t[mk::ST_U16_IMM as usize + 2] = h_st_u16_scl::<S, CAP>;
    t[mk::ST_U32_IMM as usize] = h_st_u32_imm::<S, CAP>;
    t[mk::ST_U32_IMM as usize + 1] = h_st_u32_reg::<S, CAP>;
    t[mk::ST_U32_IMM as usize + 2] = h_st_u32_scl::<S, CAP>;
    t[mk::ST_U64_IMM as usize] = h_st_u64_imm::<S, CAP>;
    t[mk::ST_U64_IMM as usize + 1] = h_st_u64_reg::<S, CAP>;
    t[mk::ST_U64_IMM as usize + 2] = h_st_u64_scl::<S, CAP>;
    t[mk::ST_F64_IMM as usize] = h_st_f64_imm::<S, CAP>;
    t[mk::ST_F64_IMM as usize + 1] = h_st_f64_reg::<S, CAP>;
    t[mk::ST_F64_IMM as usize + 2] = h_st_f64_scl::<S, CAP>;
    t[mk::ST_CAP_IMM as usize] = h_st_cap_imm::<S, CAP>;
    t[mk::ST_CAP_IMM as usize + 1] = h_st_cap_reg::<S, CAP>;
    t[mk::ST_CAP_IMM as usize + 2] = h_st_cap_scl::<S, CAP>;
    t[mk::CINC_RR as usize] = h_cinc_rr;
    t[mk::CINC_RI as usize] = h_cinc_ri;
    t[mk::CSETADDR_RR as usize] = h_csetaddr_rr;
    t[mk::CSETADDR_RI as usize] = h_csetaddr_ri;
    t[mk::CSETB_RR as usize] = h_csetb_rr;
    t[mk::CSETB_RI as usize] = h_csetb_ri;
    t[mk::CSETBE_RR as usize] = h_csetbe_rr;
    t[mk::CSETBE_RI as usize] = h_csetbe_ri;
    t[mk::CANDP_RR as usize] = h_candp_rr;
    t[mk::CANDP_RI as usize] = h_candp_ri;
    t[mk::CGETADDR as usize] = h_cgetaddr;
    t[mk::CGETLEN as usize] = h_cgetlen;
    t[mk::CGETBASE as usize] = h_cgetbase;
    t[mk::CGETTAG as usize] = h_cgettag;
    t[mk::CSEALE as usize] = h_cseale;
    t[mk::CCLEARTAG as usize] = h_ccleartag;
    t[mk::CSEAL as usize] = h_cseal;
    t[mk::CUNSEAL as usize] = h_cunseal;
    t[mk::JUMP as usize] = h_jump;
    macro_rules! br_kinds {
        ($($c:literal)*) => {$(
            t[(mk::BR + 2 * $c) as usize] = h_br_rr::<S, $c>;
            t[(mk::BR + 2 * $c + 1) as usize] = h_br_ri::<S, $c>;
        )*};
    }
    br_kinds!(0 1 2 3 4 5 6 7);
    t[mk::CALL as usize] = h_call;
    t[mk::CALL_INDIRECT as usize] = h_call_indirect;
    t[mk::RET as usize] = h_ret;
    t[mk::MALLOC_RR as usize] = h_malloc::<S, false>;
    t[mk::MALLOC_RI as usize] = h_malloc::<S, true>;
    t[mk::FREE as usize] = h_free;
    t[mk::HALT as usize] = h_halt;
    t[mk::REGION as usize] = h_region;
    t[mk::BAD_GENERIC as usize] = h_bad_generic;
    t[mk::END as usize] = h_end;
    t
}
