//! Up-front structural checks on a [`Program`] built from its public
//! fields.
//!
//! Both engines index their tables with the program's own operands —
//! registers, label and function indices, globals, the entry — so a
//! malformed program would otherwise panic, or fail differently on the
//! two engines. [`validate`] runs before either engine starts and turns
//! every such shape into one [`InterpError::BadProgram`] naming the
//! function and the offending index. Checks that depend on run-time
//! state (a call's argument count, an indirect target, control running
//! off a function's end) stay in the engines.

use crate::inst::{Inst, Operand};
use crate::interp::InterpError;
use crate::program::{Program, PtrInit, VReg};

/// Rejects a program either engine could not index safely.
///
/// # Errors
///
/// [`InterpError::BadProgram`] for the first malformed shape found: an
/// address map that does not cover every function and global, an
/// out-of-range entry, function, global or label index, a label past
/// its function's end (one past the last instruction is legal: control
/// arriving there runs off the end at run time), a function with fewer
/// registers than its stack pointer and parameters need, a call with
/// more arguments than any function can take, or a register operand at
/// or beyond its function's `vregs`.
pub(crate) fn validate(prog: &Program) -> Result<(), InterpError> {
    let bad = |msg: String| Err(InterpError::BadProgram { msg });
    let (nf, ng) = (prog.funcs.len(), prog.globals.len());
    let map = &prog.map;
    if map.func_base.len() != nf || map.func_size.len() != nf || map.global_base.len() != ng {
        return bad(format!(
            "address map does not cover the program's {nf} functions and {ng} globals"
        ));
    }
    if prog.entry.0 as usize >= nf {
        return bad(format!(
            "entry function #{} out of range ({nf} functions)",
            prog.entry.0
        ));
    }
    for g in &prog.globals {
        for (_, init) in &g.ptr_inits {
            let target = match *init {
                PtrInit::Global(t, _) if t.0 as usize >= ng => format!("global #{}", t.0),
                PtrInit::Func(t) if t.0 as usize >= nf => format!("function #{}", t.0),
                _ => continue,
            };
            return bad(format!(
                "global `{}` points at {target}, out of range",
                g.name
            ));
        }
    }
    let mut regs = Vec::new();
    for f in &prog.funcs {
        let name = &f.name;
        if u32::from(f.vregs) <= u32::from(f.params) {
            return bad(format!(
                "`{name}` has {} vregs, too few for the stack pointer and {} params",
                f.vregs, f.params
            ));
        }
        let len = f.insts.len();
        if let Some((l, ip)) = f
            .labels
            .iter()
            .enumerate()
            .find(|(_, &ip)| ip as usize > len)
        {
            return bad(format!(
                "`{name}`: label #{l} targets ip {ip}, past the end ({len} insts)"
            ));
        }
        for (ip, inst) in f.insts.iter().enumerate() {
            let out_of_range = match *inst {
                Inst::Jump { target } | Inst::CondBr { target, .. }
                    if target.0 as usize >= f.labels.len() =>
                {
                    Some(format!("label #{} ({} labels)", target.0, f.labels.len()))
                }
                Inst::Call { func, .. } | Inst::LeaFunc { func, .. } if func.0 as usize >= nf => {
                    Some(format!("function #{} ({nf} functions)", func.0))
                }
                Inst::LeaGlobal { global, .. } if global.0 as usize >= ng => {
                    Some(format!("global #{} ({ng} globals)", global.0))
                }
                Inst::Call { ref args, .. } | Inst::CallIndirect { ref args, .. }
                    if args.len() > usize::from(u16::MAX) =>
                {
                    Some(format!("argument count {}", args.len()))
                }
                _ => None,
            };
            registers(inst, &mut regs);
            let out_of_range = out_of_range.or_else(|| {
                let r = regs.iter().find(|&&r| r >= f.vregs)?;
                Some(format!("register v{r} ({} vregs)", f.vregs))
            });
            if let Some(what) = out_of_range {
                return bad(format!("`{name}` at ip {ip}: {what} out of range"));
            }
        }
    }
    Ok(())
}

/// Collects every register `inst` reads or writes into `out`.
fn registers(inst: &Inst, out: &mut Vec<VReg>) {
    out.clear();
    let operand = |o: Operand| match o {
        Operand::Reg(r) => Some(r),
        Operand::Imm(_) => None,
    };
    match *inst {
        Inst::MovImm { dst, .. }
        | Inst::MovF64 { dst, .. }
        | Inst::LeaGlobal { dst, .. }
        | Inst::MovNullPtr { dst }
        | Inst::LeaFunc { dst, .. }
        | Inst::LoadCapTable { dst, .. } => out.push(dst),
        Inst::Mov { dst, src } | Inst::PtrToInt { dst, src } | Inst::Cvt { dst, src, .. } => {
            out.extend([dst, src]);
        }
        Inst::IntOp { dst, a, b, .. } | Inst::CapOp { dst, a, b, .. } => {
            out.extend([dst, a].into_iter().chain(operand(b)));
        }
        Inst::PtrAdd { dst, base, off } => out.extend([dst, base].into_iter().chain(operand(off))),
        Inst::Madd { dst, a, b, c, .. } | Inst::FMadd { dst, a, b, c } => {
            out.extend([dst, a, b, c]);
        }
        Inst::FloatOp { dst, a, b, .. }
        | Inst::FCmp { dst, a, b, .. }
        | Inst::VecOp { dst, a, b, .. }
        | Inst::CapOp2 {
            dst, a, auth: b, ..
        }
        | Inst::LoadPtrIdx {
            dst,
            base: a,
            idx: b,
        }
        | Inst::StorePtrIdx {
            src: dst,
            base: a,
            idx: b,
        } => out.extend([dst, a, b]),
        Inst::LoadPtr { dst, base, .. } | Inst::StorePtr { src: dst, base, .. } => {
            out.extend([dst, base]);
        }
        Inst::Load { dst, base, off, .. }
        | Inst::Store {
            src: dst,
            base,
            off,
            ..
        } => {
            out.extend([dst, base].into_iter().chain(operand(off)));
        }
        Inst::Jump { .. } | Inst::Region { .. } => {}
        Inst::CondBr { a, b, .. } => out.extend([a].into_iter().chain(operand(b))),
        Inst::Call { ref args, ret, .. } => out.extend(args.iter().copied().chain(ret)),
        Inst::CallIndirect {
            target,
            ref args,
            ret,
        } => out.extend(args.iter().copied().chain([target]).chain(ret)),
        Inst::Ret { val: r } | Inst::Halt { code: r } => out.extend(r),
        Inst::Malloc { dst, size } => out.extend([dst].into_iter().chain(operand(size))),
        Inst::Free { ptr } => out.push(ptr),
    }
}
