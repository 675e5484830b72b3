//! The architectural interpreter.
//!
//! Executes a lowered [`Program`] against [`cheri_mem::TaggedMemory`],
//! enforcing full capability semantics under the capability ABIs, and
//! streams one [`RetiredEvent`] per retired instruction (including the
//! synthetic prologue/epilogue and allocator instructions) to an
//! [`EventSink`] — the interface the microarchitectural timing model
//! consumes.
//!
//! Loads carry a *dependent-load* hint: whether the address was derived
//! from a recently loaded value. This distinguishes pointer-chasing
//! (serialised misses, low memory-level parallelism — `520.omnetpp_r`)
//! from streaming access (overlapped misses — `519.lbm_r`, LLaMA matmul),
//! which is what makes the backend-bound split in the paper's top-down
//! analysis reproducible.

use crate::classify::{ClassCounts, OpClass};
use crate::inst::{BranchKind, FloatOp, InstClass, IntOp};
use crate::program::Program;
use crate::validate::validate;
use cheri_cap::CapFault;
use cheri_mem::{HeapStats, MemError, MemStats};
use cheri_revoke::StrategyKind;
use core::fmt;

/// One retired instruction, as observed by the timing model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetiredEvent {
    /// The code address of the instruction (drives L1I/ITLB modelling).
    pub pc: u64,
    /// What retired.
    pub info: RetiredInfo,
}

/// Payload of a retired instruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RetiredInfo {
    /// A non-memory, non-branch instruction of the given class.
    Simple(InstClass),
    /// A non-pipelined long-latency instruction (multiply, divide, square
    /// root): `extra` is its additional execution latency in cycles.
    LongLatency {
        /// The instruction class.
        class: InstClass,
        /// Extra execution cycles beyond a pipelined op.
        extra: u8,
    },
    /// A capability-manipulation instruction (counts as `DP_SPEC`, but
    /// tracked separately — the paper's instruction-mix shift).
    CapManip,
    /// A data load.
    Load {
        /// Effective address.
        addr: u64,
        /// Access size in bytes (16 for capabilities).
        size: u8,
        /// Capability (tag-checked) load?
        is_cap: bool,
        /// Was the address derived from a recently loaded value
        /// (pointer chasing)?
        dep_load: bool,
    },
    /// A data store.
    Store {
        /// Effective address.
        addr: u64,
        /// Access size in bytes (16 for capabilities).
        size: u8,
        /// Capability (tag-carrying) store?
        is_cap: bool,
    },
    /// A control-flow instruction.
    Branch {
        /// The branch kind (for `BR_*_SPEC` and predictor modelling).
        kind: BranchKind,
        /// Whether it was taken.
        taken: bool,
        /// The (would-be) target address.
        target: u64,
        /// Did this branch change PCC bounds (purecap cross-module or
        /// indirect control flow)? Morello's predictor stalls on these.
        pcc_change: bool,
    },
}

impl RetiredInfo {
    /// The `*_SPEC` class of this event.
    pub fn class(&self) -> InstClass {
        match self {
            RetiredInfo::Simple(c) => *c,
            RetiredInfo::LongLatency { class, .. } => *class,
            RetiredInfo::CapManip => InstClass::Dp,
            RetiredInfo::Load { .. } => InstClass::Ld,
            RetiredInfo::Store { .. } => InstClass::St,
            RetiredInfo::Branch { kind, .. } => match kind {
                BranchKind::Immediate | BranchKind::Call => InstClass::BrImmed,
                BranchKind::Indirect | BranchKind::IndirectCall => InstClass::BrIndirect,
                BranchKind::Return => InstClass::BrReturn,
            },
        }
    }
}

/// Consumer of retired-instruction events (the timing model).
pub trait EventSink {
    /// `true` when this sink wants superblock-batched delivery: the
    /// fast engine then buffers each straight-line block's interior
    /// events and hands them over in one
    /// [`retire_block_classified`](EventSink::retire_block_classified)
    /// call at the block boundary instead of one virtual hop per op.
    /// The default (`false`) keeps per-op delivery; sinks that override
    /// this must preserve per-event ordering semantics exactly.
    const WANTS_BLOCK_EVENTS: bool = false;

    /// Called once per retired instruction, in program order.
    fn retire(&mut self, ev: RetiredEvent);

    /// As [`retire`](EventSink::retire), but with the event's
    /// [`OpClass`] already computed by the caller. The pre-decoded
    /// engine resolves classes at decode time and uses this entry point
    /// so sinks that classify (the timing core) can skip re-deriving
    /// it. `class` must equal `OpClass::of(ev.pc, &ev.info)`; the
    /// default ignores the hint and forwards to `retire`, so the two
    /// entry points are always observationally identical.
    #[inline]
    fn retire_classified(&mut self, ev: RetiredEvent, class: OpClass) {
        let _ = class;
        self.retire(ev);
    }

    /// Delivers one superblock's retired events (with pre-computed
    /// classes) in program order. Only called by the fast engine, and
    /// only when [`WANTS_BLOCK_EVENTS`](EventSink::WANTS_BLOCK_EVENTS)
    /// is `true`; the batch never spans a control transfer, a region
    /// marker, or an error, so delivery order across calls is identical
    /// to per-op delivery. The default unrolls to
    /// [`retire_classified`](EventSink::retire_classified), keeping the
    /// two delivery modes observationally identical.
    #[inline]
    fn retire_block_classified(&mut self, evs: &[(RetiredEvent, OpClass)]) {
        for (ev, class) in evs {
            self.retire_classified(*ev, *class);
        }
    }

    /// `true` when this sink takes superblock *retire plans*: instead
    /// of events, the fast engine then hands it a [`RetireLog`] through
    /// [`retire_log`](EventSink::retire_log). A block's interior events
    /// are built only on its first execution in a run; every later
    /// execution is one log item plus its loads' and stores' payloads.
    /// Everything else (terminators, the runtime's streams, the per-op
    /// driver) is logged as events, and the log is delivered in chunks:
    /// before a region marker, when it fills and at the end of the run.
    /// A sink that sets this must override `retire_log`, and must not
    /// need to observe anything mid-chunk.
    const WANTS_BLOCK_PLANS: bool = false;

    /// Delivers one chunk of a planning sink's [`RetireLog`], in
    /// program order. Only the fast engine calls it, and only when
    /// [`WANTS_BLOCK_PLANS`](EventSink::WANTS_BLOCK_PLANS) is `true`.
    ///
    /// # Panics
    ///
    /// The default panics: a planning sink must say how it retires a
    /// block it has only payloads for.
    fn retire_log(&mut self, log: RetireLog<'_>) {
        let _ = log;
        unreachable!("a sink with WANTS_BLOCK_PLANS must override retire_log");
    }

    /// Called when execution crosses a [`Region`](crate::Inst::Region)
    /// marker. Markers retire no instruction and cost no cycles; sinks
    /// that do not attribute work to regions can ignore them (the
    /// default does nothing). `u32::MAX` means "leave the current
    /// region".
    #[inline]
    fn region(&mut self, id: u32) {
        let _ = id;
    }
}

/// The dynamic payload of one interior load or store: what a retire
/// plan cannot know before the op runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemAccess {
    /// Effective address.
    pub addr: u64,
    /// The load's dependent-load hint (always `false` for a store).
    pub dep_load: bool,
}

/// One item of a [`RetireLog`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LogItem {
    /// One retired event with its class.
    Event(RetiredEvent, OpClass),
    /// The `len` items just before, in the same chunk, are
    /// [`LogItem::Event`]s: the interior ops of superblock `id` (its
    /// program-wide index, stable for the run) on its first execution
    /// in the run. Everything about an interior op but its load/store
    /// payload is the same on every execution, so a sink derives what it
    /// needs from these once. The same `id` described again means a new
    /// run has taken it over.
    Described {
        /// The block's program-wide index.
        id: u32,
        /// Its interior op count.
        len: u32,
    },
    /// A later execution of described block `id`: `retired` of its
    /// interior ops (all of them unless one faulted), whose loads' and
    /// stores' payloads are the log's next ones.
    Block {
        /// The block's program-wide index.
        id: u32,
        /// Interior ops retired.
        retired: u32,
    },
}

/// A chunk of the retire stream for a sink with
/// [`WANTS_BLOCK_PLANS`](EventSink::WANTS_BLOCK_PLANS): `items` in
/// program order, the [`LogItem::Block`]s consuming `mem` front to back.
#[derive(Clone, Copy, Debug)]
pub struct RetireLog<'a> {
    /// What retired, in order.
    pub items: &'a [LogItem],
    /// The load/store payloads of the [`LogItem::Block`]s, in order.
    pub mem: &'a [MemAccess],
}

/// A sink that discards all events (functional-only runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    #[inline]
    fn retire(&mut self, _ev: RetiredEvent) {}
}

impl<S: EventSink + ?Sized> EventSink for &mut S {
    const WANTS_BLOCK_EVENTS: bool = S::WANTS_BLOCK_EVENTS;

    #[inline]
    fn retire(&mut self, ev: RetiredEvent) {
        (**self).retire(ev);
    }

    #[inline]
    fn retire_classified(&mut self, ev: RetiredEvent, class: OpClass) {
        (**self).retire_classified(ev, class);
    }

    #[inline]
    fn retire_block_classified(&mut self, evs: &[(RetiredEvent, OpClass)]) {
        (**self).retire_block_classified(evs);
    }

    const WANTS_BLOCK_PLANS: bool = S::WANTS_BLOCK_PLANS;

    #[inline]
    fn retire_log(&mut self, log: RetireLog<'_>) {
        (**self).retire_log(log);
    }

    #[inline]
    fn region(&mut self, id: u32) {
        (**self).region(id);
    }
}

/// What the SIGPROT-analogue handler does with a capability fault — the
/// per-run disposition CheriBSD processes choose between dying on
/// `SIGPROT`, ignoring it, or longjmp-ing out of the faulting frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RecoveryPolicy {
    /// The fault ends the run (`InterpError::Fault` propagates) — the
    /// default, and the only behaviour before fault injection existed.
    #[default]
    Abort,
    /// The faulting instruction is suppressed and execution resumes at
    /// the next instruction (an ignoring signal handler).
    SkipFaultingOp,
    /// The faulting frame is abandoned: control returns to the caller
    /// as if the call had returned zero (a `longjmp` checkpoint at
    /// every call site). Unwinding the entry frame ends the program
    /// with [`UNWIND_EXIT`].
    UnwindToCheckpoint,
}

/// Exit code reported when [`RecoveryPolicy::UnwindToCheckpoint`]
/// unwinds the entry frame itself: distinguishable from any workload
/// checksum, so a fully-unwound run never masquerades as a clean one.
pub const UNWIND_EXIT: u64 = 0xFA17_DEAD_0000_0000;

/// The architectural corruption a triggered injection applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectionKind {
    /// Clear the tag on the base capability (a wild store over tagged
    /// memory, the canonical CHERI-detected corruption). Under hybrid
    /// the analogous raw-pointer corruption goes unchecked.
    TagClear,
    /// Nudge the pointer past the top of its allocation by `delta`
    /// bytes (a linear overflow).
    BoundsNudge {
        /// Bytes past the top of the object.
        delta: u64,
    },
    /// Strip the load/store permissions (a confused-deputy handoff).
    PermDrop,
    /// Corrupt the program counter capability. Under capability ABIs
    /// the next fetch traps; under hybrid the raw PC is unchecked and
    /// the corruption is journaled as undetected.
    PccCorrupt,
}

/// A deterministic fault injector armed for one run.
///
/// The interpreter polls the injector at every memory access and at the
/// top of the fetch loop; all methods default to "inactive", and
/// [`active`](FaultInjector::active) gates every poll so a [`NoInjector`]
/// run compiles down to the original fault-free interpreter loop.
pub trait FaultInjector {
    /// Whether any trigger is still armed. `false` (the default) makes
    /// every other hook unreachable.
    #[inline]
    fn active(&self) -> bool {
        false
    }

    /// The smallest retired count at which a poll can fire: every
    /// [`poll_pcc`](FaultInjector::poll_pcc) and
    /// [`poll_mem`](FaultInjector::poll_mem) below it must answer "no"
    /// and change nothing, so the fast engine skips them and runs whole
    /// superblocks up to it. The answer may change only inside another
    /// hook. The default is 0 while [`active`](FaultInjector::active)
    /// (any poll may fire, so the run goes op by op) and `u64::MAX`
    /// once inactive.
    #[inline]
    fn next_poll(&self) -> u64 {
        if self.active() {
            0
        } else {
            u64::MAX
        }
    }

    /// Whether the run's outcome is settled, so nothing the rest of the
    /// run could do matters to this injector's caller. The engines ask
    /// only where the answer can flip (after a poll fires and after a
    /// survived fault resumes the run) and, on `true`, end the run with
    /// [`InterpError::Decided`]. `false` (the default) runs every run to
    /// its end.
    #[inline]
    fn decided(&self) -> bool {
        false
    }

    /// Polled before each instruction fetch; returning `true` corrupts
    /// the PCC at this point.
    #[inline]
    fn poll_pcc(&mut self, retired: u64, pc: u64) -> bool {
        let _ = (retired, pc);
        false
    }

    /// Polled at each data access with the would-be effective address;
    /// returning a kind applies that corruption to the base register
    /// before the access is checked.
    #[inline]
    fn poll_mem(
        &mut self,
        retired: u64,
        pc: u64,
        ea: u64,
        is_store: bool,
    ) -> Option<InjectionKind> {
        let _ = (retired, pc, ea, is_store);
        None
    }

    /// A capability fault (injected or organic) reached the handler.
    #[inline]
    fn trapped(&mut self, pc: u64) {
        let _ = pc;
    }

    /// The handler unwound a frame ([`RecoveryPolicy::UnwindToCheckpoint`]).
    #[inline]
    fn unwound(&mut self, pc: u64) {
        let _ = pc;
    }

    /// The fault disposition for this run.
    #[inline]
    fn policy(&self) -> RecoveryPolicy {
        RecoveryPolicy::Abort
    }
}

/// The inert injector: every plain [`Interp::run`] uses it, and its
/// `active() == false` keeps the injection hooks off the hot path.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoInjector;

impl FaultInjector for NoInjector {}

impl<I: FaultInjector + ?Sized> FaultInjector for &mut I {
    #[inline]
    fn active(&self) -> bool {
        (**self).active()
    }

    #[inline]
    fn next_poll(&self) -> u64 {
        (**self).next_poll()
    }

    #[inline]
    fn decided(&self) -> bool {
        (**self).decided()
    }

    #[inline]
    fn poll_pcc(&mut self, retired: u64, pc: u64) -> bool {
        (**self).poll_pcc(retired, pc)
    }

    #[inline]
    fn poll_mem(
        &mut self,
        retired: u64,
        pc: u64,
        ea: u64,
        is_store: bool,
    ) -> Option<InjectionKind> {
        (**self).poll_mem(retired, pc, ea, is_store)
    }

    #[inline]
    fn trapped(&mut self, pc: u64) {
        (**self).trapped(pc);
    }

    #[inline]
    fn unwound(&mut self, pc: u64) {
        (**self).unwound(pc);
    }

    #[inline]
    fn policy(&self) -> RecoveryPolicy {
        (**self).policy()
    }
}

/// Interpreter configuration.
///
/// Serialisable so a [`Platform`](../morello_sim/struct.Platform.html)
/// snapshot (and therefore a run journal) records the interpreter limits
/// it ran under, not just the microarchitecture.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct InterpConfig {
    /// Abort after this many retired instructions.
    pub max_insts: u64,
    /// A load whose base was produced within this many loads is flagged
    /// dependent (pointer chasing).
    pub dep_window: u64,
    /// Maximum call depth.
    pub max_call_depth: u32,
    /// Allocator discipline for the capability ABIs (hybrid always runs
    /// classic `malloc`). [`StrategyKind::Classic`] is promoted to
    /// [`StrategyKind::CapabilityPadded`] here, because capability ABIs
    /// need representable bounds.
    #[serde(default)]
    pub cap_alloc: StrategyKind,
}

impl Default for InterpConfig {
    fn default() -> InterpConfig {
        InterpConfig {
            max_insts: 2_000_000_000,
            dep_window: 6,
            max_call_depth: 4096,
            cap_alloc: StrategyKind::CapabilityPadded,
        }
    }
}

/// Why execution stopped abnormally.
#[derive(Clone, Debug, PartialEq)]
pub enum InterpError {
    /// A capability violation (the CHERI security exception). Under the
    /// hybrid ABI these cannot occur.
    Fault {
        /// The underlying fault.
        fault: CapFault,
        /// The faulting instruction's address.
        pc: u64,
        /// The enclosing function's name.
        func: String,
    },
    /// A functional memory error (alignment/wrap).
    Mem {
        /// The underlying error.
        err: MemError,
        /// The faulting instruction's address.
        pc: u64,
    },
    /// A register held the wrong kind of value (workload bug).
    TypeConfusion {
        /// The faulting instruction's address.
        pc: u64,
        /// What was expected.
        expected: &'static str,
    },
    /// An indirect branch targeted an address outside any function.
    UnknownCode {
        /// The bogus target.
        addr: u64,
        /// The faulting instruction's address.
        pc: u64,
    },
    /// The instruction budget ran out.
    FuelExhausted {
        /// Instructions retired before the abort.
        retired: u64,
    },
    /// Call depth exceeded.
    CallDepth {
        /// The faulting instruction's address.
        pc: u64,
    },
    /// Static program error (arg-count mismatch, heap exhaustion, …).
    BadProgram {
        /// Description.
        msg: String,
    },
    /// The injector reported the run's outcome settled
    /// ([`FaultInjector::decided`]), so the run stopped early. Only an
    /// injector that opts in ever sees it.
    Decided {
        /// Instructions retired before the stop.
        retired: u64,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::Fault { fault, pc, func } => {
                write!(f, "capability fault in `{func}` at pc {pc:#x}: {fault}")
            }
            InterpError::Mem { err, pc } => write!(f, "memory error at pc {pc:#x}: {err}"),
            InterpError::TypeConfusion { pc, expected } => {
                write!(f, "type confusion at pc {pc:#x}: expected {expected}")
            }
            InterpError::UnknownCode { addr, pc } => {
                write!(f, "indirect branch to unknown code {addr:#x} at pc {pc:#x}")
            }
            InterpError::FuelExhausted { retired } => {
                write!(
                    f,
                    "instruction budget exhausted after {retired} instructions"
                )
            }
            InterpError::CallDepth { pc } => write!(f, "call depth exceeded at pc {pc:#x}"),
            InterpError::BadProgram { msg } => write!(f, "bad program: {msg}"),
            InterpError::Decided { retired } => {
                write!(f, "outcome decided after {retired} instructions")
            }
        }
    }
}

impl std::error::Error for InterpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InterpError::Fault { fault, .. } => Some(fault),
            InterpError::Mem { err, .. } => Some(err),
            _ => None,
        }
    }
}

/// The outcome of a completed run.
#[derive(Clone, Copy, Debug)]
pub struct RunResult {
    /// Total retired instructions (architectural events).
    pub retired: u64,
    /// The program's exit code (from `Halt` or `main`'s return value).
    pub exit_code: u64,
    /// Functional memory statistics.
    pub mem_stats: MemStats,
    /// Heap allocator statistics.
    pub heap_stats: HeapStats,
    /// Distinct 4 KiB pages touched (memory footprint).
    pub pages_touched: u64,
    /// Per-opcode-class retired counts; `classes.total() == retired`.
    pub classes: ClassCounts,
}

/// The architectural interpreter. Stateless between runs; all machine
/// state is created per [`run`](Interp::run).
#[derive(Clone, Copy, Debug, Default)]
pub struct Interp {
    cfg: InterpConfig,
}

impl Interp {
    /// Creates an interpreter with the given configuration.
    pub fn new(cfg: InterpConfig) -> Interp {
        Interp { cfg }
    }

    /// Executes the program to completion.
    ///
    /// Runs on the pre-decoded fast engine: the program is lowered once
    /// into a flat arena of decoded micro-ops and dispatched without the
    /// per-instruction decode `match` or fault-injection polls. The
    /// event stream, architectural state, and every error are
    /// bit-identical to the reference executor
    /// ([`run_reference`](Interp::run_reference); locked by
    /// `tests/differential.rs`).
    ///
    /// # Errors
    ///
    /// Returns an [`InterpError`] on capability faults, functional memory
    /// errors, workload bugs (type confusion, unknown indirect targets),
    /// or fuel exhaustion. Every entry point first checks the program's
    /// structure (operand indices against its tables and register
    /// counts) and rejects a malformed one with
    /// [`InterpError::BadProgram`] before either engine starts.
    pub fn run<S: EventSink>(
        &self,
        prog: &Program,
        sink: &mut S,
    ) -> Result<RunResult, InterpError> {
        validate(prog)?;
        crate::fastexec::run(prog, self.cfg, sink, &mut NoInjector)
    }

    /// Executes the program under a [`FaultInjector`]: the injector's
    /// triggers corrupt machine state mid-run and its
    /// [`RecoveryPolicy`] decides whether capability faults end the run
    /// or are survived (skip / unwind). With an inactive injector this
    /// is bit-identical to [`run`](Interp::run).
    ///
    /// Driver selection: every run is on the fast engine, under one
    /// policy whatever the injector. Its superblock loop, which never
    /// polls, runs every block that ends below the injector's
    /// [`next_poll`](FaultInjector::next_poll) (and the fuel budget);
    /// its per-op driver, the same handlers one op at a time polling the
    /// injector before every fetch and memory access, runs from there
    /// until a poll has fired and the next block fits again, and after
    /// every survived fault up to the next block start. An injector
    /// with nothing armed therefore runs like [`run`](Interp::run), and
    /// one with a range trigger armed goes op by op. The reference for
    /// this entry point is
    /// [`run_reference_with_faults`](Interp::run_reference_with_faults).
    ///
    /// # Errors
    ///
    /// As [`run`](Interp::run); additionally, injected faults propagate
    /// as [`InterpError::Fault`] only under [`RecoveryPolicy::Abort`],
    /// and a run the injector reports [`decided`](FaultInjector::decided)
    /// ends with [`InterpError::Decided`].
    pub fn run_with_faults<S: EventSink, I: FaultInjector>(
        &self,
        prog: &Program,
        sink: &mut S,
        inj: &mut I,
    ) -> Result<RunResult, InterpError> {
        validate(prog)?;
        crate::fastexec::run(prog, self.cfg, sink, inj)
    }

    /// Executes the program on the reference executor — the original
    /// per-instruction `match` interpreter the fast engine is checked
    /// against. Semantically identical to [`run`](Interp::run) (the
    /// differential harness enforces this); only host speed differs.
    ///
    /// # Errors
    ///
    /// As [`run`](Interp::run).
    pub fn run_reference<S: EventSink>(
        &self,
        prog: &Program,
        sink: &mut S,
    ) -> Result<RunResult, InterpError> {
        validate(prog)?;
        crate::refexec::run(prog, self.cfg, sink, &mut NoInjector)
    }

    /// Executes the program under a [`FaultInjector`] on the reference
    /// executor: the test oracle for
    /// [`run_with_faults`](Interp::run_with_faults). Its loop polls the
    /// injector before every fetch and memory access, applies the same
    /// [`RecoveryPolicy`] and stops where the injector reports the run
    /// [`decided`](FaultInjector::decided); the two must agree on the event stream,
    /// the result or error, and every injector hook call. Only host
    /// speed differs.
    ///
    /// # Errors
    ///
    /// As [`run_with_faults`](Interp::run_with_faults).
    pub fn run_reference_with_faults<S: EventSink, I: FaultInjector>(
        &self,
        prog: &Program,
        sink: &mut S,
        inj: &mut I,
    ) -> Result<RunResult, InterpError> {
        validate(prog)?;
        crate::refexec::run(prog, self.cfg, sink, inj)
    }
}

/// The error for control that runs past a function's last op (no
/// `ret`/`halt` on that path), raised identically by both engines.
pub(crate) fn fell_off(func: &str) -> InterpError {
    InterpError::BadProgram {
        msg: format!("control ran off the end of `{func}`"),
    }
}

pub(crate) fn eval_int_op(op: IntOp, a: u64, b: u64) -> u64 {
    match op {
        IntOp::Add => a.wrapping_add(b),
        IntOp::Sub => a.wrapping_sub(b),
        IntOp::Mul => a.wrapping_mul(b),
        IntOp::UDiv => a.checked_div(b).unwrap_or(0),
        IntOp::URem => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
        IntOp::And => a & b,
        IntOp::Orr => a | b,
        IntOp::Eor => a ^ b,
        IntOp::Lsl => a.wrapping_shl(b as u32 & 63),
        IntOp::Lsr => a.wrapping_shr(b as u32 & 63),
        IntOp::Asr => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
    }
}

pub(crate) fn eval_float_op(op: FloatOp, a: f64, b: f64) -> f64 {
    match op {
        FloatOp::FAdd => a + b,
        FloatOp::FSub => a - b,
        FloatOp::FMul => a * b,
        FloatOp::FDiv => a / b,
        FloatOp::FMin => a.min(b),
        FloatOp::FMax => a.max(b),
        FloatOp::FSqrt => a.sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_op_semantics_match_aarch64() {
        assert_eq!(eval_int_op(IntOp::Add, u64::MAX, 1), 0, "wrapping add");
        assert_eq!(eval_int_op(IntOp::Sub, 0, 1), u64::MAX);
        assert_eq!(eval_int_op(IntOp::Mul, 1 << 63, 2), 0);
        assert_eq!(eval_int_op(IntOp::UDiv, 7, 2), 3);
        assert_eq!(eval_int_op(IntOp::UDiv, 7, 0), 0, "AArch64 divide-by-zero");
        assert_eq!(eval_int_op(IntOp::URem, 7, 0), 7);
        assert_eq!(eval_int_op(IntOp::Lsl, 1, 65), 2, "shift amount mod 64");
        assert_eq!(eval_int_op(IntOp::Lsr, 0x8000_0000_0000_0000, 63), 1);
        assert_eq!(
            eval_int_op(IntOp::Asr, (-8i64) as u64, 2),
            (-2i64) as u64,
            "arithmetic shift keeps sign"
        );
        assert_eq!(eval_int_op(IntOp::And, 0xF0, 0x3C), 0x30);
        assert_eq!(eval_int_op(IntOp::Orr, 0xF0, 0x0F), 0xFF);
        assert_eq!(eval_int_op(IntOp::Eor, 0xFF, 0x0F), 0xF0);
    }

    #[test]
    fn float_op_semantics() {
        assert_eq!(eval_float_op(FloatOp::FAdd, 1.5, 2.5), 4.0);
        assert_eq!(eval_float_op(FloatOp::FSub, 1.5, 2.5), -1.0);
        assert_eq!(eval_float_op(FloatOp::FMul, 3.0, 4.0), 12.0);
        assert_eq!(eval_float_op(FloatOp::FDiv, 1.0, 4.0), 0.25);
        assert_eq!(eval_float_op(FloatOp::FMin, 1.0, 2.0), 1.0);
        assert_eq!(eval_float_op(FloatOp::FMax, 1.0, 2.0), 2.0);
        assert_eq!(eval_float_op(FloatOp::FSqrt, 9.0, 0.0), 3.0);
    }

    #[test]
    fn retired_info_classes() {
        assert_eq!(RetiredInfo::CapManip.class(), InstClass::Dp);
        assert_eq!(
            RetiredInfo::LongLatency {
                class: InstClass::Vfp,
                extra: 12
            }
            .class(),
            InstClass::Vfp
        );
        assert_eq!(
            RetiredInfo::Load {
                addr: 0,
                size: 16,
                is_cap: true,
                dep_load: false
            }
            .class(),
            InstClass::Ld
        );
        assert_eq!(
            RetiredInfo::Branch {
                kind: BranchKind::Return,
                taken: true,
                target: 0,
                pcc_change: false
            }
            .class(),
            InstClass::BrReturn
        );
    }

    #[test]
    fn interp_error_messages() {
        let e = InterpError::TypeConfusion {
            pc: 0x1000,
            expected: "capability",
        };
        assert!(e.to_string().contains("0x1000"));
        let e = InterpError::FuelExhausted { retired: 5 };
        assert!(e.to_string().contains('5'));
        let e = InterpError::UnknownCode { addr: 0x1, pc: 0x2 };
        assert!(e.to_string().contains("0x1"));
    }

    #[test]
    fn default_config_is_generous() {
        let c = InterpConfig::default();
        assert!(c.max_insts >= 1_000_000_000);
        assert!(c.max_call_depth >= 1024);
        assert!(c.dep_window >= 1);
    }
}
