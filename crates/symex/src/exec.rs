//! Symbolic stepping of exception filter functions.
//!
//! The paper's §IV-C analysis asks whether *any* input exception record
//! with `ExceptionCode == EXCEPTION_ACCESS_VIOLATION` makes a SEH filter
//! return a value other than `EXCEPTION_CONTINUE_SEARCH` (0), i.e.
//! whether the guarded region can survive an access violation and is
//! therefore a crash-resistance candidate.
//!
//! This module holds the parts of that analysis that know the machine:
//! the Windows x64 filter-call harness (`SymState::filter_harness`),
//! the one-instruction symbolic stepper (`step_inst`) and its memory
//! and flags models. [`crate::FilterExplorer`] drives them path by
//! path. Paths that leave the supported fragment (calls into other
//! functions, indirect jumps, symbolic store addresses) abort with a
//! reason; a filter with only aborted paths is reported as
//! [`FilterVerdict::Unknown`], the "requires manual verification"
//! bucket the paper describes for filters that call helper functions.

use crate::expr::{BinOp, BoolExpr, CmpOp, Expr};
use cr_isa::{AluOp, Cond, Inst, Mem as MemOp, Reg, Rm, ShiftOp, Width};
use std::collections::HashMap;
use std::rc::Rc;

/// `STATUS_ACCESS_VIOLATION`.
pub const EXCEPTION_ACCESS_VIOLATION: u64 = 0xC000_0005;
/// Filter return value: run the `__except` block.
pub const EXCEPTION_EXECUTE_HANDLER: i64 = 1;
/// Filter return value: keep searching handlers (do not handle).
pub const EXCEPTION_CONTINUE_SEARCH: i64 = 0;
/// Filter return value: re-execute the faulting instruction.
pub const EXCEPTION_CONTINUE_EXECUTION: i64 = -1;

/// Provides instruction bytes to the explorer.
pub trait CodeSource {
    /// Copy code bytes starting at `va` into `buf`, returning how many
    /// bytes were available.
    fn read_code(&self, va: u64, buf: &mut [u8]) -> usize;
}

/// A `(base_va, bytes)` pair is a code source.
impl CodeSource for (u64, &[u8]) {
    fn read_code(&self, va: u64, buf: &mut [u8]) -> usize {
        let (base, bytes) = self;
        let Some(off) = va.checked_sub(*base) else {
            return 0;
        };
        let off = off as usize;
        if off >= bytes.len() {
            return 0;
        }
        let n = buf.len().min(bytes.len() - off);
        buf[..n].copy_from_slice(&bytes[off..off + n]);
        n
    }
}

/// Verdict for one filter function.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FilterVerdict {
    /// Some path handles an access violation (returns ≠ 0). The witness
    /// model pins the symbolic exception-record fields.
    AcceptsAccessViolation {
        /// A concrete `ExceptionCode` that is accepted (always the AV code
        /// by construction of the query).
        witness_code: u64,
    },
    /// Every complete path with `ExceptionCode == AV` returns 0
    /// (`EXCEPTION_CONTINUE_SEARCH`): the filter cannot paper over AVs.
    RejectsAccessViolation,
    /// Analysis could not decide (aborted paths, e.g. the filter calls
    /// another function). The paper vets these manually.
    Unknown(&'static str),
}

/// Symbolic exception-record harness addresses (arbitrary, concrete).
const PTRS_ADDR: u64 = 0x7_0000_0000;
const RECORD_ADDR: u64 = 0x7_0000_0100;
const CONTEXT_ADDR: u64 = 0x7_0000_0400;
const FRAME_ADDR: u64 = 0x7_0000_0800;
const STACK_ADDR: u64 = 0x7_0000_F000;

/// Name of the symbolic `ExceptionCode` variable.
pub const CODE_VAR: &str = "exception_code";

#[derive(Clone)]
struct FlagsDef {
    op: AluOp,
    a: Rc<Expr>,
    b: Rc<Expr>,
    width: u32,
}

#[derive(Clone)]
pub(crate) struct SymState {
    regs: [Rc<Expr>; 16],
    /// Concrete address → (value expr, width bits).
    mem: HashMap<u64, (Rc<Expr>, u32)>,
    flags: Option<FlagsDef>,
    /// Number of branch conditions asserted on this path.
    pub(crate) depth: usize,
    pub(crate) rip: u64,
    pub(crate) steps: usize,
}

impl SymState {
    /// The Windows x64 filter-call harness: `rcx` points to
    /// EXCEPTION_POINTERS, `rdx` to the establisher frame; the exception
    /// record fields are fresh symbolic variables.
    pub(crate) fn filter_harness(entry: u64) -> SymState {
        let zero = Expr::c(0);
        let mut regs: [Rc<Expr>; 16] = std::array::from_fn(|_| zero.clone());
        regs[Reg::Rcx.encoding() as usize] = Expr::c(PTRS_ADDR);
        regs[Reg::Rdx.encoding() as usize] = Expr::c(FRAME_ADDR);
        regs[Reg::Rsp.encoding() as usize] = Expr::c(STACK_ADDR);
        let mut mem = HashMap::new();
        mem.insert(PTRS_ADDR, (Expr::c(RECORD_ADDR), 64));
        mem.insert(PTRS_ADDR + 8, (Expr::c(CONTEXT_ADDR), 64));
        mem.insert(RECORD_ADDR, (Expr::var(CODE_VAR, 32), 32));
        mem.insert(RECORD_ADDR + 4, (Expr::var("exception_flags", 32), 32));
        mem.insert(RECORD_ADDR + 0x10, (Expr::var("exception_address", 64), 64));
        mem.insert(RECORD_ADDR + 0x18, (Expr::var("num_params", 32), 32));
        mem.insert(RECORD_ADDR + 0x20, (Expr::var("info0", 64), 64));
        mem.insert(RECORD_ADDR + 0x28, (Expr::var("info1", 64), 64));
        SymState {
            regs,
            mem,
            flags: None,
            depth: 0,
            rip: entry,
            steps: 0,
        }
    }

    fn reg(&self, r: Reg) -> Rc<Expr> {
        self.regs[r.encoding() as usize].clone()
    }

    fn set_reg(&mut self, r: Reg, e: Rc<Expr>) {
        self.regs[r.encoding() as usize] = e;
    }
}

pub(crate) enum PathEnd {
    /// The path returned; the value is `eax`.
    Ret(Rc<Expr>),
    Aborted(&'static str),
}

/// Instructions per path when no [`with_step_budget`] override is
/// active on this thread.
const DEFAULT_MAX_STEPS: usize = 512;

thread_local! {
    static STEP_BUDGET_OVERRIDE: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// This thread's per-path step budget: the innermost
/// [`with_step_budget`] override, or 512.
pub(crate) fn default_max_steps() -> usize {
    STEP_BUDGET_OVERRIDE
        .with(|o| o.get())
        .unwrap_or(DEFAULT_MAX_STEPS)
}

/// Run `f` with every [`crate::FilterExplorer::builder`] on this thread
/// defaulting to `max_steps` instructions per path.
///
/// This is the fault-injection hook for solver-budget exhaustion:
/// callers that build their explorer with the default budget (the
/// module analysis pipeline does) see the clamped budget, so paths
/// abort with "step budget exhausted" instead of completing. The
/// previous override is restored on exit, including on unwind.
pub fn with_step_budget<R>(max_steps: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            STEP_BUDGET_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(STEP_BUDGET_OVERRIDE.with(|o| o.replace(Some(max_steps))));
    f()
}

/// Execute one instruction against `st`. `fresh` numbers the symbolic
/// variables that model never-written memory.
pub(crate) fn step_inst(st: &mut SymState, inst: &Inst, len: usize, fresh: &mut u32) -> StepOut {
    let next = st.rip.wrapping_add(len as u64);
    macro_rules! abort {
        ($r:expr) => {
            return StepOut::End(PathEnd::Aborted($r))
        };
    }

    // Resolve a memory operand to a concrete address, or abort.
    macro_rules! conc_ea {
        ($m:expr) => {{
            match ea_concrete(st, $m, next) {
                Some(a) => a,
                None => abort!("symbolic memory address"),
            }
        }};
    }

    match *inst {
        Inst::MovRRm { dst, src, width } => {
            let v = match src {
                Rm::Reg(r) => width_read(st.reg(r), width),
                Rm::Mem(m) => {
                    let ea = conc_ea!(&m);
                    load(st, ea, width, fresh)
                }
            };
            match width {
                Width::B1 => {
                    // Merge low byte: (dst & !0xFF) | v
                    let hi = Expr::bin(BinOp::And, st.reg(dst), Expr::c(!0xFFu64));
                    st.set_reg(dst, Expr::bin(BinOp::Or, hi, v));
                }
                _ => st.set_reg(dst, v),
            }
        }
        Inst::MovRmR { dst, src, width } => {
            let v = width_read(st.reg(src), width);
            match dst {
                Rm::Reg(r) => match width {
                    Width::B1 => {
                        let hi = Expr::bin(BinOp::And, st.reg(r), Expr::c(!0xFFu64));
                        st.set_reg(r, Expr::bin(BinOp::Or, hi, v));
                    }
                    _ => st.set_reg(r, v),
                },
                Rm::Mem(m) => {
                    let ea = conc_ea!(&m);
                    st.mem.insert(ea, (v, width_bits(width)));
                }
            }
        }
        Inst::MovRI { dst, imm } => st.set_reg(dst, Expr::c(imm)),
        Inst::MovRmI { dst, imm, width } => {
            let v = Expr::c((imm as i64 as u64) & width_mask(width));
            match dst {
                Rm::Reg(r) => st.set_reg(r, v),
                Rm::Mem(m) => {
                    let ea = conc_ea!(&m);
                    st.mem.insert(ea, (v, width_bits(width)));
                }
            }
        }
        Inst::Movzx { dst, src, .. } => {
            let v = match src {
                Rm::Reg(r) => width_read(st.reg(r), Width::B1),
                Rm::Mem(m) => {
                    let ea = conc_ea!(&m);
                    load(st, ea, Width::B1, fresh)
                }
            };
            st.set_reg(dst, v);
        }
        Inst::Lea { dst, mem } => {
            let e = ea_symbolic(st, &mem, next);
            st.set_reg(dst, e);
        }
        Inst::AluRRm {
            op,
            dst,
            src,
            width,
        } => {
            let a = width_read(st.reg(dst), width);
            let b = match src {
                Rm::Reg(r) => width_read(st.reg(r), width),
                Rm::Mem(m) => {
                    let ea = conc_ea!(&m);
                    load(st, ea, width, fresh)
                }
            };
            st.flags = Some(FlagsDef {
                op,
                a: a.clone(),
                b: b.clone(),
                width: width_bits(width),
            });
            if op.writes_dst() {
                st.set_reg(dst, apply_alu(op, a, b, width));
            }
        }
        Inst::AluRmR {
            op,
            dst,
            src,
            width,
        } => {
            let b = width_read(st.reg(src), width);
            let a = match dst {
                Rm::Reg(r) => width_read(st.reg(r), width),
                Rm::Mem(m) => {
                    let ea = conc_ea!(&m);
                    load(st, ea, width, fresh)
                }
            };
            st.flags = Some(FlagsDef {
                op,
                a: a.clone(),
                b: b.clone(),
                width: width_bits(width),
            });
            if op.writes_dst() {
                let r = apply_alu(op, a, b, width);
                match dst {
                    Rm::Reg(reg) => st.set_reg(reg, r),
                    Rm::Mem(m) => {
                        let ea = conc_ea!(&m);
                        st.mem.insert(ea, (r, width_bits(width)));
                    }
                }
            }
        }
        Inst::AluRmI {
            op,
            dst,
            imm,
            width,
        } => {
            let b = Expr::c((imm as i64 as u64) & width_mask(width));
            let a = match dst {
                Rm::Reg(r) => width_read(st.reg(r), width),
                Rm::Mem(m) => {
                    let ea = conc_ea!(&m);
                    load(st, ea, width, fresh)
                }
            };
            st.flags = Some(FlagsDef {
                op,
                a: a.clone(),
                b: b.clone(),
                width: width_bits(width),
            });
            if op.writes_dst() {
                let r = apply_alu(op, a, b, width);
                match dst {
                    Rm::Reg(reg) => st.set_reg(reg, r),
                    Rm::Mem(m) => {
                        let ea = conc_ea!(&m);
                        st.mem.insert(ea, (r, width_bits(width)));
                    }
                }
            }
        }
        Inst::ShiftRI { op, dst, amount } => {
            let a = st.reg(dst);
            let n = Expr::c(amount as u64 & 63);
            let r = match op {
                ShiftOp::Shl => Expr::bin(BinOp::Shl, a, n),
                ShiftOp::Shr => Expr::bin(BinOp::Shr, a, n),
                ShiftOp::Sar => match a.as_const() {
                    Some(v) => Expr::c(((v as i64) >> (amount & 63)) as u64),
                    None => abort!("symbolic arithmetic shift"),
                },
            };
            st.set_reg(dst, r);
            st.flags = None;
        }
        Inst::Neg(r) => {
            let v = st.reg(r);
            st.flags = Some(FlagsDef {
                op: AluOp::Sub,
                a: Expr::c(0),
                b: v.clone(),
                width: 64,
            });
            st.set_reg(r, Expr::bin(BinOp::Sub, Expr::c(0), v));
        }
        Inst::Not(r) => {
            let v = st.reg(r);
            st.set_reg(r, Expr::not(v));
        }
        Inst::Imul { dst, src } => {
            let a = st.reg(dst);
            let b = match src {
                Rm::Reg(r) => st.reg(r),
                Rm::Mem(m) => {
                    let ea = conc_ea!(&m);
                    load(st, ea, Width::B8, fresh)
                }
            };
            match (a.as_const(), b.as_const()) {
                (Some(x), Some(y)) => {
                    st.set_reg(dst, Expr::c((x as i64).wrapping_mul(y as i64) as u64));
                    st.flags = None;
                }
                _ => abort!("symbolic multiplication"),
            }
        }
        Inst::Cmov { cond, dst, src } => {
            let v = match src {
                Rm::Reg(r) => st.reg(r),
                Rm::Mem(m) => {
                    let ea = conc_ea!(&m);
                    load(st, ea, Width::B8, fresh)
                }
            };
            let Some(fd) = st.flags.clone() else {
                abort!("cmov on unknown flags");
            };
            match cond_to_bool(&fd, cond).and_then(|b| b.as_const()) {
                Some(true) => st.set_reg(dst, v),
                Some(false) => {}
                None => abort!("cmov on symbolic flags"),
            }
        }
        Inst::Xchg(a, b) => {
            let (va, vb) = (st.reg(a), st.reg(b));
            st.set_reg(a, vb);
            st.set_reg(b, va);
        }
        Inst::Push(r) => {
            let sp = match st.reg(Reg::Rsp).as_const() {
                Some(v) => v.wrapping_sub(8),
                None => abort!("symbolic stack pointer"),
            };
            let v = st.reg(r);
            st.mem.insert(sp, (v, 64));
            st.set_reg(Reg::Rsp, Expr::c(sp));
        }
        Inst::Pop(r) => {
            let sp = match st.reg(Reg::Rsp).as_const() {
                Some(v) => v,
                None => abort!("symbolic stack pointer"),
            };
            let v = load(st, sp, Width::B8, fresh);
            st.set_reg(r, v);
            st.set_reg(Reg::Rsp, Expr::c(sp.wrapping_add(8)));
        }
        Inst::CallRel(_) | Inst::CallRm(_) => abort!("filter calls another function"),
        Inst::JmpRel(rel) => {
            st.rip = next.wrapping_add(rel as i64 as u64);
            return StepOut::Continue;
        }
        Inst::JmpRm(_) => abort!("indirect jump"),
        Inst::Jcc { cond, .. } => {
            let Some(fd) = st.flags.clone() else {
                abort!("branch on unknown flags");
            };
            match cond_to_bool(&fd, cond) {
                None => abort!("unsupported condition"),
                Some(b) => match b.as_const() {
                    Some(true) => {
                        let Inst::Jcc { rel, .. } = *inst else {
                            unreachable!()
                        };
                        st.rip = next.wrapping_add(rel as i64 as u64);
                        return StepOut::Continue;
                    }
                    Some(false) => {}
                    None => return StepOut::Fork(b),
                },
            }
        }
        Inst::Setcc { cond, dst } => {
            let Some(fd) = st.flags.clone() else {
                abort!("setcc on unknown flags");
            };
            match cond_to_bool(&fd, cond).and_then(|b| b.as_const()) {
                Some(v) => {
                    let hi = Expr::bin(BinOp::And, st.reg(dst), Expr::c(!0xFFu64));
                    st.set_reg(dst, Expr::bin(BinOp::Or, hi, Expr::c(v as u64)));
                }
                None => abort!("setcc on symbolic flags"),
            }
        }
        Inst::Ret => {
            let value = width_read(st.reg(Reg::Rax), Width::B4);
            return StepOut::End(PathEnd::Ret(value));
        }
        Inst::Syscall | Inst::Int3 | Inst::Ud2 | Inst::Hlt | Inst::Cpuid => {
            abort!("system instruction in filter")
        }
        Inst::Nop => {}
    }
    st.rip = next;
    StepOut::Continue
}

pub(crate) enum StepOut {
    Continue,
    Fork(BoolExpr),
    End(PathEnd),
}

fn width_bits(w: Width) -> u32 {
    (w.bytes() * 8) as u32
}

fn width_mask(w: Width) -> u64 {
    w.mask()
}

fn width_read(e: Rc<Expr>, w: Width) -> Rc<Expr> {
    match w {
        Width::B8 => e,
        _ => Expr::bin(BinOp::And, e, Expr::c(w.mask())),
    }
}

fn apply_alu(op: AluOp, a: Rc<Expr>, b: Rc<Expr>, w: Width) -> Rc<Expr> {
    let r = match op {
        AluOp::Add => Expr::bin(BinOp::Add, a, b),
        AluOp::Sub => Expr::bin(BinOp::Sub, a, b),
        AluOp::And | AluOp::Test => Expr::bin(BinOp::And, a, b),
        AluOp::Or => Expr::bin(BinOp::Or, a, b),
        AluOp::Xor => Expr::bin(BinOp::Xor, a, b),
        AluOp::Cmp => unreachable!("cmp does not write"),
    };
    width_read(r, w)
}

fn ea_concrete(st: &SymState, m: &MemOp, next: u64) -> Option<u64> {
    ea_symbolic(st, m, next).as_const()
}

fn ea_symbolic(st: &SymState, m: &MemOp, next: u64) -> Rc<Expr> {
    if m.rip {
        return Expr::c(next.wrapping_add(m.disp as i64 as u64));
    }
    let mut e = Expr::c(m.disp as i64 as u64);
    if let Some(b) = m.base {
        e = Expr::bin(BinOp::Add, e, st.reg(b));
    }
    if let Some((i, s)) = m.index {
        let idx = Expr::bin(BinOp::Shl, st.reg(i), Expr::c(s.trailing_zeros() as u64));
        e = Expr::bin(BinOp::Add, e, idx);
    }
    e
}

/// Read `w` bytes at `ea`. A narrower stored value keeps its bits and
/// only the uncovered high bits become fresh symbolic memory, so a
/// 32-bit spill read back at 64 bits still carries its constraint.
/// Never-written memory is a fresh unconstrained variable
/// (over-approximation).
fn load(st: &mut SymState, ea: u64, w: Width, fresh: &mut u32) -> Rc<Expr> {
    let want = width_bits(w);
    let stored = st.mem.get(&ea).cloned();
    if let Some((e, bits)) = &stored {
        if *bits >= want {
            return width_read(e.clone(), w);
        }
    }
    *fresh += 1;
    let mut v = Expr::var(&format!("mem_{ea:x}_{fresh}"), want);
    if let Some((e, bits)) = stored {
        let lo = Expr::bin(BinOp::And, e, Expr::c((1u64 << bits) - 1));
        v = width_read(
            Expr::bin(
                BinOp::Or,
                Expr::bin(BinOp::Shl, v, Expr::c(u64::from(bits))),
                lo,
            ),
            w,
        );
    }
    st.mem.insert(ea, (v.clone(), want));
    v
}

fn cond_to_bool(fd: &FlagsDef, cond: Cond) -> Option<BoolExpr> {
    let w = fd.width;
    let r = match fd.op {
        AluOp::Cmp | AluOp::Sub => Expr::bin(BinOp::Sub, fd.a.clone(), fd.b.clone()),
        AluOp::Test | AluOp::And => Expr::bin(BinOp::And, fd.a.clone(), fd.b.clone()),
        AluOp::Add => Expr::bin(BinOp::Add, fd.a.clone(), fd.b.clone()),
        AluOp::Or => Expr::bin(BinOp::Or, fd.a.clone(), fd.b.clone()),
        AluOp::Xor => Expr::bin(BinOp::Xor, fd.a.clone(), fd.b.clone()),
    };
    let zero = Expr::c(0);
    let is_sub = matches!(fd.op, AluOp::Cmp | AluOp::Sub);
    let cf = || -> Option<BoolExpr> {
        match fd.op {
            AluOp::Cmp | AluOp::Sub => {
                Some(BoolExpr::cmp(CmpOp::Ult, w, fd.a.clone(), fd.b.clone()))
            }
            AluOp::And | AluOp::Test | AluOp::Or | AluOp::Xor => Some(BoolExpr::False),
            AluOp::Add => Some(BoolExpr::cmp(CmpOp::Ult, w, r.clone(), fd.a.clone())),
        }
    };
    let zf = BoolExpr::cmp(CmpOp::Eq, w, r.clone(), zero.clone());
    Some(match cond {
        Cond::E => zf,
        Cond::Ne => BoolExpr::not(zf),
        Cond::B => cf()?,
        Cond::Ae => BoolExpr::not(cf()?),
        Cond::Be => BoolExpr::or(cf()?, zf),
        Cond::A => BoolExpr::and(BoolExpr::not(cf()?), BoolExpr::not(zf)),
        Cond::S => BoolExpr::cmp(CmpOp::Slt, w, r, zero),
        Cond::Ns => BoolExpr::not(BoolExpr::cmp(CmpOp::Slt, w, r, zero)),
        Cond::L => {
            if is_sub {
                BoolExpr::cmp(CmpOp::Slt, w, fd.a.clone(), fd.b.clone())
            } else {
                BoolExpr::cmp(CmpOp::Slt, w, r, zero)
            }
        }
        Cond::Ge => BoolExpr::not(if is_sub {
            BoolExpr::cmp(CmpOp::Slt, w, fd.a.clone(), fd.b.clone())
        } else {
            BoolExpr::cmp(CmpOp::Slt, w, r, zero)
        }),
        Cond::Le => {
            let l = if is_sub {
                BoolExpr::cmp(CmpOp::Slt, w, fd.a.clone(), fd.b.clone())
            } else {
                BoolExpr::cmp(CmpOp::Slt, w, r, zero)
            };
            BoolExpr::or(zf, l)
        }
        Cond::G => {
            let l = if is_sub {
                BoolExpr::cmp(CmpOp::Slt, w, fd.a.clone(), fd.b.clone())
            } else {
                BoolExpr::cmp(CmpOp::Slt, w, r, zero)
            };
            BoolExpr::and(BoolExpr::not(zf), BoolExpr::not(l))
        }
        Cond::O | Cond::No => {
            // Signed-overflow bit, exact for add/sub; logical ops clear it.
            let of = match fd.op {
                AluOp::Cmp | AluOp::Sub => {
                    // of = ((a ^ b) & (a ^ r)) >> (w-1) == 1
                    let x = Expr::bin(
                        BinOp::And,
                        Expr::bin(BinOp::Xor, fd.a.clone(), fd.b.clone()),
                        Expr::bin(BinOp::Xor, fd.a.clone(), r.clone()),
                    );
                    let sign = Expr::c(1u64 << (w - 1));
                    BoolExpr::cmp(CmpOp::Ne, w, Expr::bin(BinOp::And, x, sign), Expr::c(0))
                }
                AluOp::Add => {
                    // of = ((a ^ r) & (b ^ r)) sign bit
                    let x = Expr::bin(
                        BinOp::And,
                        Expr::bin(BinOp::Xor, fd.a.clone(), r.clone()),
                        Expr::bin(BinOp::Xor, fd.b.clone(), r.clone()),
                    );
                    let sign = Expr::c(1u64 << (w - 1));
                    BoolExpr::cmp(CmpOp::Ne, w, Expr::bin(BinOp::And, x, sign), Expr::c(0))
                }
                AluOp::And | AluOp::Test | AluOp::Or | AluOp::Xor => BoolExpr::False,
            };
            if cond == Cond::O {
                of
            } else {
                BoolExpr::not(of)
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_isa::{Asm, Inst, Mem as MemOp, Reg, Rm, Width};

    /// Assemble a filter at a base VA, return (base, code).
    fn filter(build: impl FnOnce(&mut Asm)) -> (u64, Vec<u8>) {
        let mut a = Asm::new(0x1_0000);
        build(&mut a);
        (0x1_0000, a.assemble().unwrap().code)
    }

    fn analyze(code: &(u64, Vec<u8>)) -> FilterVerdict {
        let src = (code.0, code.1.as_slice());
        crate::FilterExplorer::default()
            .explore(&src, code.0)
            .verdict
    }

    /// Standard filter prologue: load ExceptionCode into eax.
    /// rcx → EXCEPTION_POINTERS; [rcx] → record; [record] → code (dword).
    fn load_code_into_eax(a: &mut Asm) {
        a.load(Reg::Rax, MemOp::base(Reg::Rcx)); // rax = &record
        a.inst(Inst::MovRRm {
            dst: Reg::Rax,
            src: Rm::Mem(MemOp::base(Reg::Rax)),
            width: Width::B4,
        }); // eax = ExceptionCode
    }

    #[test]
    fn catch_all_filter_accepts() {
        // return 1;
        let f = filter(|a| {
            a.mov_ri(Reg::Rax, 1);
            a.ret();
        });
        assert_eq!(
            analyze(&f),
            FilterVerdict::AcceptsAccessViolation {
                witness_code: EXCEPTION_ACCESS_VIOLATION
            }
        );
    }

    #[test]
    fn continue_search_filter_rejects() {
        // return 0;
        let f = filter(|a| {
            a.zero(Reg::Rax);
            a.ret();
        });
        assert_eq!(analyze(&f), FilterVerdict::RejectsAccessViolation);
    }

    #[test]
    fn av_equality_filter_accepts() {
        // return code == 0xC0000005 ? 1 : 0;
        let f = filter(|a| {
            load_code_into_eax(a);
            a.inst(Inst::AluRmI {
                op: cr_isa::AluOp::Cmp,
                dst: Rm::Reg(Reg::Rax),
                imm: 0xC0000005u32 as i32,
                width: Width::B4,
            });
            let not_av = a.fresh();
            a.jcc(cr_isa::Cond::Ne, not_av);
            a.mov_ri(Reg::Rax, 1);
            a.ret();
            a.bind(not_av);
            a.zero(Reg::Rax);
            a.ret();
        });
        assert_eq!(
            analyze(&f),
            FilterVerdict::AcceptsAccessViolation {
                witness_code: EXCEPTION_ACCESS_VIOLATION
            }
        );
    }

    #[test]
    fn av_exclusion_filter_rejects() {
        // return code == 0xC0000005 ? 0 : 1;  (handles everything EXCEPT AV)
        let f = filter(|a| {
            load_code_into_eax(a);
            a.inst(Inst::AluRmI {
                op: cr_isa::AluOp::Cmp,
                dst: Rm::Reg(Reg::Rax),
                imm: 0xC0000005u32 as i32,
                width: Width::B4,
            });
            let other = a.fresh();
            a.jcc(cr_isa::Cond::Ne, other);
            a.zero(Reg::Rax);
            a.ret();
            a.bind(other);
            a.mov_ri(Reg::Rax, 1);
            a.ret();
        });
        assert_eq!(analyze(&f), FilterVerdict::RejectsAccessViolation);
    }

    #[test]
    fn specific_other_code_filter_rejects() {
        // Handles only STATUS_INTEGER_DIVIDE_BY_ZERO (0xC0000094).
        let f = filter(|a| {
            load_code_into_eax(a);
            a.inst(Inst::AluRmI {
                op: cr_isa::AluOp::Cmp,
                dst: Rm::Reg(Reg::Rax),
                imm: 0xC0000094u32 as i32,
                width: Width::B4,
            });
            let no = a.fresh();
            a.jcc(cr_isa::Cond::Ne, no);
            a.mov_ri(Reg::Rax, 1);
            a.ret();
            a.bind(no);
            a.zero(Reg::Rax);
            a.ret();
        });
        assert_eq!(analyze(&f), FilterVerdict::RejectsAccessViolation);
    }

    #[test]
    fn class_mask_filter_accepts() {
        // Handles any STATUS_SEVERITY_ERROR code: (code >> 30) == 3.
        let f = filter(|a| {
            load_code_into_eax(a);
            a.shr(Reg::Rax, 30);
            a.cmp_ri(Reg::Rax, 3);
            let no = a.fresh();
            a.jcc(cr_isa::Cond::Ne, no);
            a.mov_ri(Reg::Rax, 1);
            a.ret();
            a.bind(no);
            a.zero(Reg::Rax);
            a.ret();
        });
        // 0xC0000005 >> 30 == 3, so AV is in the accepted class.
        assert!(matches!(
            analyze(&f),
            FilterVerdict::AcceptsAccessViolation { .. }
        ));
    }

    #[test]
    fn continue_execution_counts_as_accepting() {
        // return -1 (EXCEPTION_CONTINUE_EXECUTION): resume, i.e. swallow.
        let f = filter(|a| {
            a.mov_ri(Reg::Rax, (-1i64) as u64);
            a.ret();
        });
        assert!(matches!(
            analyze(&f),
            FilterVerdict::AcceptsAccessViolation { .. }
        ));
    }

    #[test]
    fn filter_calling_helper_is_unknown() {
        // The paper's post-update IE filter: calls a config helper.
        let f = filter(|a| {
            let helper = a.fresh();
            a.call_label(helper);
            a.ret();
            a.bind(helper);
            a.mov_ri(Reg::Rax, 1);
            a.ret();
        });
        assert!(matches!(analyze(&f), FilterVerdict::Unknown(_)));
    }

    #[test]
    fn exclusion_list_filter_accepts_av() {
        // The Firefox-style filter: excludes certain codes, handles rest.
        // if (code == 0xC0000094 || code == 0x80000003) return 0; return 1;
        let f = filter(|a| {
            load_code_into_eax(a);
            let reject = a.fresh();
            a.inst(Inst::AluRmI {
                op: cr_isa::AluOp::Cmp,
                dst: Rm::Reg(Reg::Rax),
                imm: 0xC0000094u32 as i32,
                width: Width::B4,
            });
            a.jcc(cr_isa::Cond::E, reject);
            a.inst(Inst::AluRmI {
                op: cr_isa::AluOp::Cmp,
                dst: Rm::Reg(Reg::Rax),
                imm: 0x80000003u32 as i32,
                width: Width::B4,
            });
            a.jcc(cr_isa::Cond::E, reject);
            a.mov_ri(Reg::Rax, 1);
            a.ret();
            a.bind(reject);
            a.zero(Reg::Rax);
            a.ret();
        });
        assert!(matches!(
            analyze(&f),
            FilterVerdict::AcceptsAccessViolation { .. }
        ));
    }

    #[test]
    fn flag_check_filter_paths() {
        // Checks ExceptionFlags & 1 (non-continuable) first, then code.
        // if (flags & 1) return 0; return code == AV;
        let f = filter(|a| {
            a.load(Reg::Rax, MemOp::base(Reg::Rcx));
            a.inst(Inst::MovRRm {
                dst: Reg::Rbx,
                src: Rm::Mem(MemOp::base_disp(Reg::Rax, 4)),
                width: Width::B4,
            });
            a.inst(Inst::AluRmI {
                op: cr_isa::AluOp::Test,
                dst: Rm::Reg(Reg::Rbx),
                imm: 1,
                width: Width::B4,
            });
            let nc = a.fresh();
            a.jcc(cr_isa::Cond::Ne, nc);
            // continuable: check code
            a.inst(Inst::MovRRm {
                dst: Reg::Rax,
                src: Rm::Mem(MemOp::base(Reg::Rax)),
                width: Width::B4,
            });
            a.inst(Inst::AluRmI {
                op: cr_isa::AluOp::Cmp,
                dst: Rm::Reg(Reg::Rax),
                imm: 0xC0000005u32 as i32,
                width: Width::B4,
            });
            let no = a.fresh();
            a.jcc(cr_isa::Cond::Ne, no);
            a.mov_ri(Reg::Rax, 1);
            a.ret();
            a.bind(no);
            a.bind(nc);
            a.zero(Reg::Rax);
            a.ret();
        });
        assert!(matches!(
            analyze(&f),
            FilterVerdict::AcceptsAccessViolation { .. }
        ));
    }

    #[test]
    fn overflow_condition_filter() {
        // A contrived filter using `jo`: accept when (code - AV) does not
        // signed-overflow AND code == AV — effectively accepts AV.
        let f = filter(|a| {
            load_code_into_eax(a);
            a.inst(Inst::AluRmI {
                op: cr_isa::AluOp::Cmp,
                dst: Rm::Reg(Reg::Rax),
                imm: 0xC0000005u32 as i32,
                width: Width::B4,
            });
            let reject = a.fresh();
            a.jcc(cr_isa::Cond::O, reject); // overflow → reject
            a.jcc(cr_isa::Cond::Ne, reject);
            a.mov_ri(Reg::Rax, 1);
            a.ret();
            a.bind(reject);
            a.zero(Reg::Rax);
            a.ret();
        });
        assert!(
            matches!(analyze(&f), FilterVerdict::AcceptsAccessViolation { .. }),
            "jo is now precisely modeled"
        );
    }

    #[test]
    fn step_budget_override_scopes_and_restores() {
        assert_eq!(default_max_steps(), 512);
        let inner = with_step_budget(4, || {
            let nested = with_step_budget(2, default_max_steps);
            assert_eq!(nested, 2);
            default_max_steps()
        });
        assert_eq!(inner, 4);
        assert_eq!(default_max_steps(), 512);

        // Restored even when the closure unwinds.
        let _ = std::panic::catch_unwind(|| with_step_budget(1, || panic!("boom")));
        assert_eq!(default_max_steps(), 512);
    }

    #[test]
    fn code_source_tuple_impl() {
        let bytes = [0x90u8, 0xC3];
        let src = (0x1000u64, &bytes[..]);
        let mut buf = [0u8; 4];
        assert_eq!(src.read_code(0x1000, &mut buf), 2);
        assert_eq!(src.read_code(0x1001, &mut buf), 1);
        assert_eq!(src.read_code(0x2000, &mut buf), 0);
        assert_eq!(src.read_code(0x0FFF, &mut buf), 0);
    }
}
