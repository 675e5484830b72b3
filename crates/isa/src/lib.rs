//! # cheri-isa
//!
//! A Morello-like mini instruction set with everything the paper's
//! methodology needs: a portable program representation built through
//! [`ProgramBuilder`], **three ABI lowerings** ([`Abi::Hybrid`],
//! [`Abi::Purecap`], [`Abi::Benchmark`]), an architectural interpreter over
//! tagged memory that streams retired-instruction events to a
//! microarchitectural [`EventSink`], and a binary-section-size model.
//!
//! The central idea mirrors how the paper's binaries were produced: **one
//! program, three compilations**. A workload is written once against the
//! builder's pointer-aware API; lowering then decides what a "pointer" is:
//!
//! * **hybrid** — 64-bit integers, unchecked accesses, integer branches;
//! * **purecap** — 128-bit tagged capabilities, bounds/permission checks on
//!   every access, capability-manipulation µops, capability branches that
//!   change PCC bounds on cross-module and indirect control flow;
//! * **benchmark** — purecap's data/memory profile, but integer jumps under
//!   a single global PCC (isolating Morello's branch-predictor artefact).
//!
//! ```
//! use cheri_isa::{Abi, ProgramBuilder, Interp, InterpConfig, NullSink, MemSize};
//!
//! let abi = Abi::Purecap;
//! let mut b = ProgramBuilder::new("demo", abi);
//! let main = b.function("main", 0, |f| {
//!     let p = f.vreg();
//!     f.malloc(p, 64);
//!     let v = f.vreg();
//!     f.mov_imm(v, 42);
//!     f.store_int(v, p, 0, MemSize::S8);
//!     f.free(p);
//!     f.halt();
//! });
//! b.set_entry(main);
//! let prog = b.lower();
//! let res = Interp::new(InterpConfig::default())
//!     .run(&prog, &mut NullSink)
//!     .unwrap();
//! assert!(res.retired > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abi;
mod binlayout;
mod builder;
mod classify;
mod decoded;
mod disasm;
mod fastexec;
mod inst;
mod interp;
mod lower;
mod program;
mod refexec;
mod trace;
mod validate;

pub use abi::Abi;
pub use binlayout::{BinaryLayout, SectionSizes};
pub use builder::{FunctionBuilder, ProgramBuilder};
pub use classify::{ClassCounts, OpClass};
pub use decoded::{superblock_stats, SuperblockStats};
pub use disasm::{disassemble, render_inst};
pub use fastexec::{run_arena_stats, RunArenaStats};
pub use inst::{
    BranchKind, CapOp2Kind, CapOpKind, Cond, FloatOp, Inst, InstClass, IntOp, Label, LoadKind,
    MemSize, Operand, VecKind,
};
pub use interp::{
    EventSink, FaultInjector, InjectionKind, Interp, InterpConfig, InterpError, LogItem, MemAccess,
    NoInjector, NullSink, RecoveryPolicy, RetireLog, RetiredEvent, RetiredInfo, RunResult,
    UNWIND_EXIT,
};
pub use lower::lower;
pub use program::{
    FuncId, Function, GenericProgram, GlobalDef, GlobalId, ModuleId, Program, PtrInit, VReg,
};
pub use trace::TraceSummary;
