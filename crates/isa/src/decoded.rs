//! The decoded micro-op arena behind the fast engine.
//!
//! [`DecodedProgram::decode`] lowers a [`Program`] once, with
//! everything the per-instruction `match` of the reference executor
//! re-derives on every visit already resolved: label targets become
//! op displacements (and, per block, pre-resolved target blocks),
//! `Lea*`/captable addresses are absolute, long-latency extras and
//! direct-call `pcc_change` bits are pre-computed, and call argument
//! lists live in one shared pool. Every instruction, terminators
//! included, becomes one packed [`MicroOp`] run by one handler of
//! [`crate::fastexec`], and the engine never touches the original
//! [`Inst`] stream.

use crate::classify::{ClassCounts, OpClass};
use crate::inst::{
    CapOp2Kind, CapOpKind, Cond, FloatOp, Inst, IntOp, Label, LoadKind, MemSize, Operand, VecKind,
};
use crate::program::{Function, ModuleId, Program};
use std::sync::Arc;

/// One decoded function: its micro-ops plus the frame/layout facts the
/// call and return paths need without chasing back into [`Program`],
/// and its superblock partition (block table and ip→block map) for the
/// direct-threaded dispatch loop.
pub(crate) struct DecodedFunc {
    /// The function's name, which a capability trap carries.
    pub(crate) name: Arc<str>,
    /// One packed op per ip, plus the trailing [`mk::END`] sentinel
    /// that control running off the function's end lands on.
    pub(crate) micros: Box<[MicroOp]>,
    /// Superblocks in `start_ip` order; they tile `micros` exactly, the
    /// last one holding only the [`mk::END`] sentinel.
    pub(crate) blocks: Box<[Superblock]>,
    /// Pre-summed interior event classes per block (parallel to
    /// `blocks`). Kept out of [`Superblock`] so the dispatch loop's
    /// block table stays cache-dense; only the run-end class fold and
    /// the stats reader touch this.
    pub(crate) block_classes: Box<[ClassCounts]>,
    /// `block_idx[ip]` = index into `blocks` of the block containing
    /// `ip`. Every control-transfer target is a block's `start_ip`.
    pub(crate) block_idx: Box<[u32]>,
    /// This function's offset into the program-wide block numbering
    /// (`block_base + local index` = global block id), used by the
    /// engine's per-block execution counters.
    pub(crate) block_base: u32,
    pub(crate) base_pc: u64,
    pub(crate) frame_size: u64,
    pub(crate) params: u16,
    pub(crate) vregs: u16,
    pub(crate) module: ModuleId,
}

/// The whole program, decoded once per run.
pub(crate) struct DecodedProgram {
    pub(crate) funcs: Box<[DecodedFunc]>,
    /// Shared pool of call-argument registers (each call op holds its
    /// window: first index in `aux`, length in `b`).
    pub(crate) args: Box<[u16]>,
    /// Total superblocks across all functions (sizes the engine's
    /// per-block execution-count table).
    pub(crate) total_blocks: u32,
}

impl DecodedProgram {
    /// Lowers `prog` into the micro-op arena.
    pub(crate) fn decode(prog: &Program) -> DecodedProgram {
        let mut pool: Vec<u16> = Vec::new();
        let mut funcs = Vec::with_capacity(prog.funcs.len());
        let mut total_blocks: u32 = 0;
        for (fi, f) in prog.funcs.iter().enumerate() {
            let base_pc = prog.map.func_base[fi];
            let mut micros = Vec::with_capacity(f.insts.len() + 1);
            for (ip, inst) in f.insts.iter().enumerate() {
                micros.push(decode_inst(prog, f, ip, base_pc, inst, &mut pool));
            }
            let mut end = MicroOp::at(base_pc + f.insts.len() as u64 * 4);
            end.kind = mk::END;
            micros.push(end);
            let (blocks, block_idx, block_classes) = build_blocks(&micros);
            let block_base = total_blocks;
            total_blocks += blocks.len() as u32;
            funcs.push(DecodedFunc {
                name: f.name.as_str().into(),
                micros: micros.into_boxed_slice(),
                blocks: blocks.into_boxed_slice(),
                block_classes: block_classes.into_boxed_slice(),
                block_idx: block_idx.into_boxed_slice(),
                block_base,
                base_pc,
                frame_size: f.frame_size,
                params: f.params,
                vregs: f.vregs,
                module: f.module,
            });
        }
        DecodedProgram {
            funcs: funcs.into_boxed_slice(),
            args: pool.into_boxed_slice(),
            total_blocks,
        }
    }
}

// ---- Superblocks and packed micro-ops ------------------------------------
//
// Decode partitions each function into *superblocks*: single-entry
// straight-line runs of packed interior [`MicroOp`]s ended by at most
// one *terminator* (branch, call, return, allocator intrinsic, halt,
// region marker, `BAD_GENERIC`, or the `END` sentinel). Every op
// dispatches through one per-ABI fn-pointer table indexed by
// [`MicroOp::kind`]; the per-instruction bookkeeping of interiors
// (fuel check, retired count, `ClassCounts`) is hoisted to block
// boundaries via the pre-summed [`DecodedFunc::block_classes`], while
// terminators account for their own events and report control flow to
// the block loop.

/// One packed micro-op: 32 bytes, flat fields, no nested enums. `kind`
/// indexes the dispatch table; the other fields are kind-specific (see
/// [`mk`] for the conventions).
#[derive(Clone, Copy, Debug)]
pub(crate) struct MicroOp {
    /// Absolute pc of this op (`base_pc + ip * 4`).
    pub(crate) pc: u64,
    /// Immediate payload: integer/f64-bits immediates, absolute
    /// addresses, byte offsets, the direct callee, the region id.
    pub(crate) imm: u64,
    /// Secondary payload: `Madd`/`FMadd` third register, the low 32
    /// bits of the captable post-increment offset (see
    /// [`MicroOp::captable_off`]), a branch's op displacement (see
    /// [`MicroOp::disp`]), or a call's first argument-pool index.
    pub(crate) aux: u32,
    /// Destination register (source register for stores; return
    /// register for calls, [`NO_REG`] for none).
    pub(crate) dst: u16,
    /// First source register (base register for memory ops; the
    /// optional value of `RET`/`HALT`, [`NO_REG`] for none).
    pub(crate) a: u16,
    /// Second source register (offset register for memory ops;
    /// argument count for calls).
    pub(crate) b: u16,
    /// Dispatch-table index.
    pub(crate) kind: u8,
    /// Access width in bytes for memory ops; long-latency extra for
    /// int/float ALU ops; the `pcc_change` bit of a direct call.
    pub(crate) sz: u8,
    /// The event class an interior op retires (payload-static, see
    /// [`decode_inst`]); unused by terminators, which classify their
    /// own events.
    pub(crate) class: OpClass,
}

/// The "no register" value of an optional register operand (return
/// register, return value, exit code). Programs are validated before
/// decode, so every real register is below `vregs <= u16::MAX`.
pub(crate) const NO_REG: u16 = u16::MAX;

impl MicroOp {
    /// An op at `pc` with every payload zeroed (kind 0 has no handler).
    fn at(pc: u64) -> MicroOp {
        MicroOp {
            pc,
            imm: 0,
            aux: 0,
            dst: 0,
            a: 0,
            b: 0,
            kind: 0,
            sz: 0,
            class: OpClass::IntAlu,
        }
    }

    /// The `LOAD_CT` post-increment offset: low 32 bits in `aux`, the
    /// high 32 in `a` and `b` (unused by that kind).
    #[inline(always)]
    pub(crate) fn captable_off(&self) -> i64 {
        (u64::from(self.aux) | u64::from(self.a) << 32 | u64::from(self.b) << 48) as i64
    }

    /// A `JUMP`/`BR_*` op's target relative to its own ip, in ops.
    #[inline(always)]
    pub(crate) fn disp(&self) -> isize {
        self.aux as i32 as isize
    }

    /// A `JUMP`/`BR_*` op's target pc.
    #[inline(always)]
    pub(crate) fn target_pc(&self) -> u64 {
        self.pc.wrapping_add((self.disp() * 4) as u64)
    }

    /// Whether this op ends a superblock.
    #[inline(always)]
    pub(crate) fn is_term(&self) -> bool {
        self.kind >= mk::JUMP
    }

    /// Whether this is an intra-function branch (`JUMP` or `BR_*`).
    #[inline(always)]
    pub(crate) fn is_branch(&self) -> bool {
        (mk::JUMP..mk::CALL).contains(&self.kind)
    }

    /// Whether this is a data load or store (`LD_*`/`ST_*`): the kinds
    /// that poll a fault injector's memory triggers.
    #[inline(always)]
    pub(crate) fn is_mem(&self) -> bool {
        (mk::LD_U8_IMM..=mk::ST_CAP_IMM + mk::OFF_SCL).contains(&self.kind)
    }

    /// Whether this memory op is a store.
    #[inline(always)]
    pub(crate) fn is_store(&self) -> bool {
        self.kind >= mk::ST_U8_IMM
    }

    /// This memory op's offset mode: 0 (immediate), [`mk::OFF_REG`] or
    /// [`mk::OFF_SCL`].
    #[inline(always)]
    pub(crate) fn off_mode(&self) -> u8 {
        (self.kind - mk::LD_U8_IMM) % 3
    }
}

/// Micro-op kinds: the dispatch-table indices. One kind per (operation
/// × operand-form) so handlers are fully specialised — no inner operand
/// or size `match` survives on the interior path. `*_RR` reads its
/// second operand from register `b`, `*_RI` from `imm`. Memory-op
/// kinds come in `IMM`/`REG`/`SCL` offset-mode triples (immediate
/// offset in `imm`, register offset in `b`, width-scaled register
/// offset in `b`), and those triples must stay adjacent (`pack_mem`
/// relies on `base + 1` / `base + 2`). Terminators come last, from
/// [`mk::JUMP`] on, with the intra-function branches first (see
/// [`MicroOp::is_term`] and [`MicroOp::is_branch`]).
#[allow(missing_docs)]
pub(crate) mod mk {
    pub const MOV_IMM: u8 = 1;
    pub const MOV_F64: u8 = 2;
    pub const MOV: u8 = 3;
    pub const ADD_RR: u8 = 4;
    pub const ADD_RI: u8 = 5;
    pub const SUB_RR: u8 = 6;
    pub const SUB_RI: u8 = 7;
    pub const MUL_RR: u8 = 8;
    pub const MUL_RI: u8 = 9;
    pub const UDIV_RR: u8 = 10;
    pub const UDIV_RI: u8 = 11;
    pub const UREM_RR: u8 = 12;
    pub const UREM_RI: u8 = 13;
    pub const AND_RR: u8 = 14;
    pub const AND_RI: u8 = 15;
    pub const ORR_RR: u8 = 16;
    pub const ORR_RI: u8 = 17;
    pub const EOR_RR: u8 = 18;
    pub const EOR_RI: u8 = 19;
    pub const LSL_RR: u8 = 20;
    pub const LSL_RI: u8 = 21;
    pub const LSR_RR: u8 = 22;
    pub const LSR_RI: u8 = 23;
    pub const ASR_RR: u8 = 24;
    pub const ASR_RI: u8 = 25;
    pub const MADD: u8 = 26;
    pub const FADD: u8 = 27;
    pub const FSUB: u8 = 28;
    pub const FMUL: u8 = 29;
    pub const FDIV: u8 = 30;
    pub const FMIN: u8 = 31;
    pub const FMAX: u8 = 32;
    pub const FSQRT: u8 = 33;
    pub const FMADD: u8 = 34;
    pub const FCEQ: u8 = 35;
    pub const FCNE: u8 = 36;
    pub const FCLT: u8 = 37;
    pub const FCLE: u8 = 38;
    pub const FCGT: u8 = 39;
    pub const FCGE: u8 = 40;
    pub const VADD: u8 = 41;
    pub const VMUL: u8 = 42;
    pub const VFMA: u8 = 43;
    pub const VSAD: u8 = 44;
    pub const CVT_TO_INT: u8 = 45;
    pub const CVT_TO_F64: u8 = 46;
    pub const MOV_NULL: u8 = 48;
    pub const PTR_ADD_RR: u8 = 49;
    pub const PTR_ADD_RI: u8 = 50;
    pub const PTR_TO_INT: u8 = 51;
    pub const LOAD_CT: u8 = 52;
    pub const LD_U8_IMM: u8 = 53;
    pub const LD_U16_IMM: u8 = 56;
    pub const LD_U32_IMM: u8 = 59;
    pub const LD_U64_IMM: u8 = 62;
    pub const LD_F64_IMM: u8 = 65;
    pub const LD_CAP_IMM: u8 = 68;
    pub const ST_U8_IMM: u8 = 71;
    pub const ST_U16_IMM: u8 = 74;
    pub const ST_U32_IMM: u8 = 77;
    pub const ST_U64_IMM: u8 = 80;
    pub const ST_F64_IMM: u8 = 83;
    pub const ST_CAP_IMM: u8 = 86;
    pub const CINC_RR: u8 = 89;
    pub const CINC_RI: u8 = 90;
    pub const CSETADDR_RR: u8 = 91;
    pub const CSETADDR_RI: u8 = 92;
    pub const CSETB_RR: u8 = 93;
    pub const CSETB_RI: u8 = 94;
    pub const CSETBE_RR: u8 = 95;
    pub const CSETBE_RI: u8 = 96;
    pub const CANDP_RR: u8 = 97;
    pub const CANDP_RI: u8 = 98;
    pub const CGETADDR: u8 = 99;
    pub const CGETLEN: u8 = 100;
    pub const CGETBASE: u8 = 101;
    pub const CGETTAG: u8 = 102;
    pub const CSEALE: u8 = 103;
    pub const CCLEARTAG: u8 = 104;
    pub const CSEAL: u8 = 105;
    pub const CUNSEAL: u8 = 106;
    // Terminators.
    pub const JUMP: u8 = 107;
    /// Conditional branches: `BR + 2 * (cond as u8)` compares against
    /// register `b`, `+ 1` against `imm` (sixteen kinds, in
    /// [`CONDS`](super::CONDS) order).
    pub const BR: u8 = 108;
    pub const CALL: u8 = 124;
    pub const CALL_INDIRECT: u8 = 125;
    pub const RET: u8 = 126;
    pub const MALLOC_RR: u8 = 127;
    pub const MALLOC_RI: u8 = 128;
    pub const FREE: u8 = 129;
    pub const HALT: u8 = 130;
    pub const REGION: u8 = 131;
    /// A pointer-generic memory op that survived lowering (the
    /// reference rejects these with `BadProgram`; so does this kind).
    pub const BAD_GENERIC: u8 = 132;
    /// The sentinel one past a function's last op: control that runs
    /// off the end lands here and fails with `BadProgram`, so neither
    /// driver checks for it.
    pub const END: u8 = 133;
    /// Offset-mode strides within a memory-kind triple.
    pub const OFF_REG: u8 = 1;
    pub const OFF_SCL: u8 = 2;
}

/// Every [`Cond`] in declaration order: `CONDS[c as usize] == c`, the
/// order of the [`mk::BR`] kinds.
pub(crate) const CONDS: [Cond; 8] = [
    Cond::Eq,
    Cond::Ne,
    Cond::Ltu,
    Cond::Leu,
    Cond::Gtu,
    Cond::Geu,
    Cond::Lts,
    Cond::Gts,
];

/// Sentinel `term` for a block that falls through into the next leader
/// without a terminator op (no control transfer happens at the seam, so
/// no event and no extra fuel check either).
pub(crate) const NO_TERM: u32 = u32::MAX;

/// One single-entry straight-line run of packed micro-ops: `n`
/// interiors from `start_ip`, then the terminator at `term` if any.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Superblock {
    /// First op ip of the block (always a leader: every control
    /// transfer in the function lands on some block's `start_ip`).
    pub(crate) start_ip: u32,
    /// Number of interior micro-ops. Each retires exactly one event,
    /// so `n` is also the block's interior fuel cost.
    pub(crate) n: u32,
    /// ip of the terminator (`start_ip + n`), or [`NO_TERM`] for
    /// fallthrough.
    pub(crate) term: u32,
    /// Pre-resolved local block index of the terminator's branch target
    /// when the terminator is `JUMP`/`BR_*`, else [`NO_TERM`]. Lets the
    /// dispatch loop chain block-to-block without re-deriving the block
    /// index from the target ip.
    pub(crate) t_blk: u32,
}

/// Decodes instruction `ip` of `f`. Interiors are ops that retire
/// exactly one event and neither transfer control nor touch the
/// runtime; they carry their (payload-static) event class. Interior
/// classes never depend on the pc: application code lives at
/// `pc >= CODE_BASE`, above every runtime window, so `OpClass::of` is
/// payload-only here (the engine's debug asserts re-check every emitted
/// event against a fresh classification). Terminators carry their
/// operands in execution-ready form.
fn decode_inst(
    prog: &Program,
    f: &Function,
    ip: usize,
    base_pc: u64,
    inst: &Inst,
    pool: &mut Vec<u16>,
) -> MicroOp {
    let mut mo = MicroOp::at(base_pc + ip as u64 * 4);
    let disp = |l: Label| (f.labels[l.0 as usize] as i64 - ip as i64) as i32 as u32;
    let reg = |r: Option<u16>| r.unwrap_or(NO_REG);
    let mut call = |mo: &mut MicroOp, kind: u8, args: &[u16], ret: Option<u16>| {
        mo.kind = kind;
        mo.aux = pool.len() as u32;
        mo.b = args.len() as u16;
        mo.dst = reg(ret);
        pool.extend_from_slice(args);
    };
    match *inst {
        Inst::MovImm { dst, imm } => {
            mo.kind = mk::MOV_IMM;
            mo.dst = dst;
            mo.imm = imm;
        }
        Inst::MovF64 { dst, imm } => {
            mo.kind = mk::MOV_F64;
            mo.dst = dst;
            mo.imm = imm.to_bits();
        }
        Inst::Mov { dst, src } => {
            mo.kind = mk::MOV;
            mo.dst = dst;
            mo.a = src;
        }
        Inst::IntOp { op, dst, a, b } => {
            // The long-latency extra rides in the (otherwise unused)
            // width byte; the handler rebuilds the exact event info.
            mo.sz = match op {
                IntOp::Mul => 1,
                IntOp::UDiv | IntOp::URem => 9,
                _ => 0,
            };
            let (rr, ri) = match op {
                IntOp::Add => (mk::ADD_RR, mk::ADD_RI),
                IntOp::Sub => (mk::SUB_RR, mk::SUB_RI),
                IntOp::Mul => (mk::MUL_RR, mk::MUL_RI),
                IntOp::UDiv => (mk::UDIV_RR, mk::UDIV_RI),
                IntOp::URem => (mk::UREM_RR, mk::UREM_RI),
                IntOp::And => (mk::AND_RR, mk::AND_RI),
                IntOp::Orr => (mk::ORR_RR, mk::ORR_RI),
                IntOp::Eor => (mk::EOR_RR, mk::EOR_RI),
                IntOp::Lsl => (mk::LSL_RR, mk::LSL_RI),
                IntOp::Lsr => (mk::LSR_RR, mk::LSR_RI),
                IntOp::Asr => (mk::ASR_RR, mk::ASR_RI),
            };
            mo.dst = dst;
            mo.a = a;
            pack_operand(&mut mo, rr, ri, b);
        }
        Inst::Madd { dst, a, b, c, .. } => {
            mo.kind = mk::MADD;
            mo.dst = dst;
            mo.a = a;
            mo.b = b;
            mo.aux = u32::from(c);
        }
        Inst::FloatOp { op, dst, a, b } => {
            mo.sz = match op {
                FloatOp::FDiv => 12,
                FloatOp::FSqrt => 16,
                _ => 0,
            };
            mo.kind = match op {
                FloatOp::FAdd => mk::FADD,
                FloatOp::FSub => mk::FSUB,
                FloatOp::FMul => mk::FMUL,
                FloatOp::FDiv => mk::FDIV,
                FloatOp::FMin => mk::FMIN,
                FloatOp::FMax => mk::FMAX,
                FloatOp::FSqrt => mk::FSQRT,
            };
            mo.dst = dst;
            mo.a = a;
            mo.b = b;
        }
        Inst::FMadd { dst, a, b, c } => {
            mo.kind = mk::FMADD;
            mo.dst = dst;
            mo.a = a;
            mo.b = b;
            mo.aux = u32::from(c);
        }
        Inst::FCmp { cond, dst, a, b } => {
            // Signed and unsigned orderings coincide on f64 compares,
            // exactly as the reference arm folds them.
            mo.kind = match cond {
                Cond::Eq => mk::FCEQ,
                Cond::Ne => mk::FCNE,
                Cond::Ltu | Cond::Lts => mk::FCLT,
                Cond::Leu => mk::FCLE,
                Cond::Gtu | Cond::Gts => mk::FCGT,
                Cond::Geu => mk::FCGE,
            };
            mo.dst = dst;
            mo.a = a;
            mo.b = b;
        }
        Inst::VecOp { op, dst, a, b } => {
            mo.kind = match op {
                VecKind::VAdd => mk::VADD,
                VecKind::VMul => mk::VMUL,
                VecKind::VFma => mk::VFMA,
                VecKind::VSad => mk::VSAD,
            };
            mo.dst = dst;
            mo.a = a;
            mo.b = b;
        }
        Inst::Cvt { dst, src, to_int } => {
            mo.kind = if to_int {
                mk::CVT_TO_INT
            } else {
                mk::CVT_TO_F64
            };
            mo.dst = dst;
            mo.a = src;
        }
        // Addresses are decode-time constants: an immediate move.
        Inst::LeaGlobal { dst, global, off } => {
            mo.kind = mk::MOV_IMM;
            mo.dst = dst;
            mo.imm = prog.map.global_base[global.0 as usize].wrapping_add(off as u64);
        }
        Inst::LeaFunc { dst, func } => {
            mo.kind = mk::MOV_IMM;
            mo.dst = dst;
            mo.imm = prog.map.func_base[func.0 as usize];
        }
        Inst::MovNullPtr { dst } => {
            mo.kind = mk::MOV_NULL;
            mo.dst = dst;
        }
        Inst::PtrAdd { dst, base, off } => {
            mo.dst = dst;
            mo.a = base;
            pack_operand(&mut mo, mk::PTR_ADD_RR, mk::PTR_ADD_RI, off);
        }
        Inst::PtrToInt { dst, src } => {
            mo.kind = mk::PTR_TO_INT;
            mo.dst = dst;
            mo.a = src;
        }
        Inst::LoadCapTable { dst, slot, off } => {
            mo.kind = mk::LOAD_CT;
            mo.dst = dst;
            mo.imm = prog.map.captable_base + u64::from(slot) * 16;
            mo.aux = off as u32;
            mo.a = (off >> 32) as u16;
            mo.b = (off >> 48) as u16;
            mo.class = OpClass::MemCap;
        }
        Inst::Load {
            dst,
            base,
            off,
            size,
            kind,
            scaled,
        } => {
            let col = match kind {
                LoadKind::Int => match size {
                    MemSize::S1 => mk::LD_U8_IMM,
                    MemSize::S2 => mk::LD_U16_IMM,
                    MemSize::S4 => mk::LD_U32_IMM,
                    MemSize::S8 => mk::LD_U64_IMM,
                },
                LoadKind::F64 => mk::LD_F64_IMM,
                LoadKind::Cap => mk::LD_CAP_IMM,
            };
            mo.dst = dst;
            pack_mem(&mut mo, col, base, off, size, kind, scaled);
        }
        Inst::Store {
            src,
            base,
            off,
            size,
            kind,
            scaled,
        } => {
            let col = match kind {
                LoadKind::Int => match size {
                    MemSize::S1 => mk::ST_U8_IMM,
                    MemSize::S2 => mk::ST_U16_IMM,
                    MemSize::S4 => mk::ST_U32_IMM,
                    MemSize::S8 => mk::ST_U64_IMM,
                },
                LoadKind::F64 => mk::ST_F64_IMM,
                LoadKind::Cap => mk::ST_CAP_IMM,
            };
            mo.dst = src;
            pack_mem(&mut mo, col, base, off, size, kind, scaled);
        }
        Inst::CapOp { op, dst, a, b } => {
            mo.dst = dst;
            mo.a = a;
            mo.class = OpClass::CapManip;
            let (rr, ri) = match op {
                CapOpKind::IncOffset => (mk::CINC_RR, mk::CINC_RI),
                CapOpKind::SetAddr => (mk::CSETADDR_RR, mk::CSETADDR_RI),
                CapOpKind::SetBounds => (mk::CSETB_RR, mk::CSETB_RI),
                CapOpKind::SetBoundsExact => (mk::CSETBE_RR, mk::CSETBE_RI),
                CapOpKind::AndPerm => (mk::CANDP_RR, mk::CANDP_RI),
                // Unary ops ignore the operand: one kind for both forms.
                CapOpKind::GetAddr => (mk::CGETADDR, mk::CGETADDR),
                CapOpKind::GetLen => (mk::CGETLEN, mk::CGETLEN),
                CapOpKind::GetBase => (mk::CGETBASE, mk::CGETBASE),
                CapOpKind::GetTag => (mk::CGETTAG, mk::CGETTAG),
                CapOpKind::SealEntry => (mk::CSEALE, mk::CSEALE),
                CapOpKind::ClearTag => (mk::CCLEARTAG, mk::CCLEARTAG),
            };
            pack_operand(&mut mo, rr, ri, b);
        }
        Inst::CapOp2 { op, a, auth, dst } => {
            mo.kind = match op {
                CapOp2Kind::Seal => mk::CSEAL,
                CapOp2Kind::Unseal => mk::CUNSEAL,
            };
            mo.dst = dst;
            mo.a = a;
            mo.b = auth;
            mo.class = OpClass::CapManip;
        }
        // Terminators: control transfers, runtime intrinsics, region
        // markers, halt, and the lowering-reject sentinel.
        Inst::LoadPtr { .. }
        | Inst::StorePtr { .. }
        | Inst::LoadPtrIdx { .. }
        | Inst::StorePtrIdx { .. } => mo.kind = mk::BAD_GENERIC,
        Inst::Jump { target } => {
            mo.kind = mk::JUMP;
            mo.aux = disp(target);
        }
        Inst::CondBr { cond, a, b, target } => {
            debug_assert_eq!(CONDS[cond as usize], cond);
            let rr = mk::BR + 2 * cond as u8;
            mo.a = a;
            mo.aux = disp(target);
            pack_operand(&mut mo, rr, rr + 1, b);
        }
        Inst::Call {
            func,
            ref args,
            ret,
        } => {
            call(&mut mo, mk::CALL, args, ret);
            mo.imm = u64::from(func.0);
            mo.sz = u8::from(
                prog.abi.capability_branches() && prog.funcs[func.0 as usize].module != f.module,
            );
        }
        Inst::CallIndirect {
            target,
            ref args,
            ret,
        } => {
            call(&mut mo, mk::CALL_INDIRECT, args, ret);
            mo.a = target;
        }
        Inst::Ret { val } => {
            mo.kind = mk::RET;
            mo.a = reg(val);
        }
        Inst::Malloc { dst, size } => {
            mo.dst = dst;
            pack_operand(&mut mo, mk::MALLOC_RR, mk::MALLOC_RI, size);
        }
        Inst::Free { ptr } => {
            mo.kind = mk::FREE;
            mo.a = ptr;
        }
        Inst::Halt { code } => {
            mo.kind = mk::HALT;
            mo.a = reg(code);
        }
        Inst::Region { id } => {
            mo.kind = mk::REGION;
            mo.imm = u64::from(id);
        }
    }
    mo
}

/// Sets the kind for an op whose second operand is a register (`rr`,
/// read from `b`) or an immediate (`ri`, in `imm`).
fn pack_operand(mo: &mut MicroOp, rr: u8, ri: u8, operand: Operand) {
    match operand {
        Operand::Reg(r) => {
            mo.kind = rr;
            mo.b = r;
        }
        Operand::Imm(i) => {
            mo.kind = ri;
            mo.imm = i as u64;
        }
    }
}

/// Fills a load or store from its memory-kind triple base `col`: the
/// base register, the access width, the event class, and the offset
/// mode (`col` immediate, `+1` register, `+2` width-scaled register).
fn pack_mem(
    mo: &mut MicroOp,
    col: u8,
    base: u16,
    off: Operand,
    size: MemSize,
    kind: LoadKind,
    scaled: bool,
) {
    mo.a = base;
    let is_cap = matches!(kind, LoadKind::Cap);
    mo.sz = if is_cap { 16 } else { size.bytes() as u8 };
    mo.class = if is_cap {
        OpClass::MemCap
    } else {
        OpClass::MemScalar
    };
    let reg_mode = if scaled { mk::OFF_SCL } else { mk::OFF_REG };
    pack_operand(mo, col + reg_mode, col, off);
}

/// Partitions one function's micro-ops into superblocks. Leaders are
/// ip 0, every in-function branch target, the op after every
/// terminator, and the trailing [`mk::END`] (so the program's own
/// blocks are unchanged by it); blocks run from a leader to the next
/// terminator (inclusive, as `term`) or fall through at the next leader
/// ([`NO_TERM`]).
fn build_blocks(micros: &[MicroOp]) -> (Vec<Superblock>, Vec<u32>, Vec<ClassCounts>) {
    let len = micros.len();
    // `leader` has one extra slot so a terminator as last op needs no
    // bounds special-casing.
    let mut leader = vec![false; len + 1];
    leader[0] = true;
    leader[len - 1] = true;
    for (ip, mo) in micros.iter().enumerate() {
        if mo.is_branch() {
            leader[ip.wrapping_add_signed(mo.disp())] = true;
        }
        if mo.is_term() {
            leader[ip + 1] = true;
        }
    }
    let mut blocks = Vec::new();
    let mut block_idx = vec![0u32; len];
    let mut block_classes = Vec::new();
    let mut ip = 0usize;
    while ip < len {
        let start = ip;
        let mut classes = ClassCounts::new();
        let mut term = NO_TERM;
        loop {
            let mo = &micros[ip];
            ip += 1;
            if mo.is_term() {
                term = ip as u32 - 1;
                break;
            }
            classes.bump(mo.class);
            if leader[ip] {
                break;
            }
        }
        let b = blocks.len() as u32;
        for slot in &mut block_idx[start..ip] {
            *slot = b;
        }
        blocks.push(Superblock {
            start_ip: start as u32,
            n: classes.total() as u32,
            term,
            t_blk: NO_TERM,
        });
        block_classes.push(classes);
    }
    // Resolve branch-terminator targets to block indices now that the
    // whole partition exists.
    for blk in &mut blocks {
        if let Some(mo) = micros.get(blk.term as usize).filter(|mo| mo.is_branch()) {
            blk.t_blk = block_idx[(blk.term as usize).wrapping_add_signed(mo.disp())];
        }
    }
    (blocks, block_idx, block_classes)
}

/// Superblock-shape statistics for one program — the observability
/// counterpart of the direct-threaded engine (reported by the speed
/// bench as the schema-v2 block-size histogram).
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct SuperblockStats {
    /// Total superblocks across all functions.
    pub blocks: u64,
    /// Total packed interior micro-ops (their bookkeeping is hoisted to
    /// block boundaries).
    pub interior_ops: u64,
    /// Ops that end a block: branches, calls, returns, allocator
    /// intrinsics, halts and region markers. They dispatch through the
    /// same table as interiors and report control flow to the block
    /// loop.
    pub terminators: u64,
    /// Blocks that fall through without a terminator.
    pub fallthrough_blocks: u64,
    /// `size_hist[k]` = blocks with `k` interior ops; the final bucket
    /// aggregates every larger block.
    pub size_hist: Vec<u64>,
}

/// Buckets in [`SuperblockStats::size_hist`] (0..=30 exact, 31 = "31+").
const SIZE_HIST_BUCKETS: usize = 32;

/// Decodes `prog` and folds its superblock partition into
/// [`SuperblockStats`]. Pure observability — the result has no effect
/// on execution.
///
/// # Panics
///
/// On a program whose operands index past its own tables (every
/// program [`lower`](crate::lower) produces is well-formed; the
/// interpreter's entry points reject the others with `BadProgram`).
pub fn superblock_stats(prog: &Program) -> SuperblockStats {
    let dec = DecodedProgram::decode(prog);
    let mut s = SuperblockStats {
        size_hist: vec![0; SIZE_HIST_BUCKETS],
        ..SuperblockStats::default()
    };
    for f in dec.funcs.iter() {
        // The trailing `End` block is engine plumbing, not program code.
        let (_end, blocks) = f
            .blocks
            .split_last()
            .expect("every function has an End block");
        for b in blocks {
            s.blocks += 1;
            s.interior_ops += u64::from(b.n);
            if b.term == NO_TERM {
                s.fallthrough_blocks += 1;
            } else {
                s.terminators += 1;
            }
            let bucket = (b.n as usize).min(SIZE_HIST_BUCKETS - 1);
            s.size_hist[bucket] += 1;
        }
    }
    s
}
