//! Calibrated loopy/multi-branch filter family.
//!
//! Four SEH filters built around the idioms that defeat a naive
//! symbolic executor, each with pinned ground truth (does the filter
//! accept an access violation on real hardware?). The path explorer
//! (`cr_symex::FilterExplorer`) must classify all four exactly:
//!
//! * `spill_widen` — spills the 32-bit exception code to the stack and
//!   reloads it at 64 bits. A memory model that drops the stored value
//!   on the widening read substitutes a fresh unconstrained variable
//!   and reports an accept; in truth the low 32 bits still carry the
//!   code and an AV can never match.
//! * `shrink_loop_reject` / `shrink_loop_accept` — shift the code
//!   right until zero (a data-dependent loop), then compare. Forking
//!   without feasibility checks never closes the loop; the explorer
//!   prunes the infeasible "stay" branch after 32 iterations and
//!   terminates.
//! * `chain_exclude_av` — a comparison chain of 70 forks, with AV among
//!   the excluded codes.
//!
//! This family is deliberately **not** part of the calibrated §V-C
//! population (the Table II/III totals are pinned); it ships as its own
//! module, `loopy.dll`.

use cr_image::{FilterRef, Machine, PeBuilder, PeImage, ScopeEntry};
use cr_isa::{Asm, Cond, Inst, Mem as M, Reg, Rm, Width};
use cr_os::windows::STATUS_ACCESS_VIOLATION;
use Reg::*;

use super::dlls::{DLL_REGION, DLL_STRIDE};

/// Image base of the generated `loopy.dll` (clear of the calibrated
/// x64 region, the x86 region at `+0x80` strides, and the synthetic
/// population at `+0x100`).
pub const LOOPY_BASE: u64 = DLL_REGION + 0x200 * DLL_STRIDE;

/// Number of exclusion comparisons in `chain_exclude_av` — more forks
/// than a 64-path budget allows, so only feasibility pruning decides
/// it.
pub const CHAIN_LEN: u32 = 70;

/// Ground truth for one family member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopyCase {
    /// Filter name; also the PE export naming its entry point.
    pub name: &'static str,
    /// Ground truth: does the filter return nonzero for an AV?
    pub accepts_av: bool,
}

/// The family, in filter-emission order (`Filter0..Filter3`).
pub const LOOPY_CASES: [LoopyCase; 4] = [
    LoopyCase {
        name: "spill_widen",
        accepts_av: false,
    },
    LoopyCase {
        name: "shrink_loop_reject",
        accepts_av: false,
    },
    LoopyCase {
        name: "shrink_loop_accept",
        accepts_av: true,
    },
    LoopyCase {
        name: "chain_exclude_av",
        accepts_av: false,
    },
];

/// Generate `loopy.dll`: one guarded function per family member, each
/// scope referencing its filter, discoverable through `.pdata` exactly
/// like the calibrated population.
///
/// # Panics
///
/// Panics if the generated image fails to assemble or parse (a build
/// bug, not an input condition).
pub fn generate_loopy_dll() -> PeImage {
    PeImage::parse(&generate_loopy_dll_bytes()).expect("loopy image parses")
}

/// Raw PE bytes for the loopy module (see [`generate_loopy_dll`]).
///
/// # Panics
///
/// Panics if the module fails to assemble.
pub fn generate_loopy_dll_bytes() -> Vec<u8> {
    let base = LOOPY_BASE;
    let text_rva: u32 = 0x1000;
    let mut a = Asm::new(base + text_rva as u64);

    a.global("__C_specific_handler");
    a.ret();
    a.align(16);

    for (i, case) in LOOPY_CASES.iter().enumerate() {
        a.global(&format!("Filter{i}"));
        match case.name {
            "spill_widen" => emit_spill_widen(&mut a),
            "shrink_loop_reject" => emit_shrink_loop(&mut a, 0xC000_0094),
            "shrink_loop_accept" => emit_shrink_loop(&mut a, STATUS_ACCESS_VIOLATION),
            "chain_exclude_av" => emit_chain_exclude_av(&mut a),
            other => unreachable!("unknown loopy case {other}"),
        }
        a.align(16);
    }

    for i in 0..LOOPY_CASES.len() {
        a.global(&format!("Guarded{i}"));
        a.global(&format!("G{i}_tb"));
        a.load(Rax, M::base(Rcx));
        a.global(&format!("G{i}_te"));
        a.ret();
        a.global(&format!("G{i}_ex"));
        a.mov_ri(Rax, 0xEEEE_1000 + i as u64);
        a.ret();
        a.global(&format!("G{i}_end"));
        a.align(16);
    }
    a.global("text_end");

    let assembled = a.assemble().expect("loopy dll assembles");
    let rva = |sym: &str| (assembled.sym(sym) - base) as u32;

    let mut b = PeBuilder::new("loopy.dll", Machine::X64, base);
    b.entry(rva("__C_specific_handler"));
    let handler_rva = rva("__C_specific_handler");

    for (i, case) in LOOPY_CASES.iter().enumerate() {
        b.export(case.name, rva(&format!("Filter{i}")));
        b.export(&format!("Guarded{i}"), rva(&format!("Guarded{i}")));
        b.function_with_seh(
            rva(&format!("Guarded{i}")),
            rva(&format!("G{i}_end")),
            handler_rva,
            vec![ScopeEntry {
                begin_rva: rva(&format!("G{i}_tb")),
                end_rva: rva(&format!("G{i}_te")),
                filter: FilterRef::Function(rva(&format!("Filter{i}"))),
                target_rva: rva(&format!("G{i}_ex")),
            }],
        );
    }
    for i in 0..LOOPY_CASES.len() {
        let begin = rva(&format!("Filter{i}"));
        let end = if i + 1 < LOOPY_CASES.len() {
            rva(&format!("Filter{}", i + 1))
        } else {
            rva("Guarded0")
        };
        b.function(begin, end);
    }

    b.text(text_rva, assembled.code.clone());
    b.build()
}

/// Load `ExceptionCode` into eax (filter prologue — same shape as the
/// calibrated population's).
fn emit_load_code(a: &mut Asm) {
    a.load(Rax, M::base(Rcx));
    a.inst(Inst::MovRRm {
        dst: Rax,
        src: Rm::Mem(M::base(Rax)),
        width: Width::B4,
    });
}

fn cmp_eax(a: &mut Asm, code: u32) {
    a.inst(Inst::AluRmI {
        op: cr_isa::AluOp::Cmp,
        dst: Rm::Reg(Rax),
        imm: code as i32,
        width: Width::B4,
    });
}

/// Spill the 32-bit code, reload 64-bit, accept iff the reload == 0x10.
/// Truth: the low 32 bits are the exception code, so an AV (0xC0000005)
/// can never satisfy the compare — the filter rejects.
fn emit_spill_widen(a: &mut Asm) {
    emit_load_code(a);
    a.inst(Inst::MovRmR {
        dst: Rm::Mem(M::base_disp(Rsp, -8)),
        src: Rax,
        width: Width::B4,
    });
    a.inst(Inst::MovRRm {
        dst: Rax,
        src: Rm::Mem(M::base_disp(Rsp, -8)),
        width: Width::B8,
    });
    a.inst(Inst::AluRmI {
        op: cr_isa::AluOp::Cmp,
        dst: Rm::Reg(Rax),
        imm: 0x10,
        width: Width::B8,
    });
    let no = a.fresh();
    a.jcc(Cond::Ne, no);
    a.mov_ri(Rax, 1);
    a.ret();
    a.bind(no);
    a.zero(Rax);
    a.ret();
}

/// `while (code >>= 1) ;` then accept iff the original code equals
/// `accept_code` — a data-dependent loop whose trip count only
/// feasibility pruning can bound.
fn emit_shrink_loop(a: &mut Asm, accept_code: u32) {
    emit_load_code(a);
    a.inst(Inst::MovRmR {
        dst: Rm::Reg(Rbx),
        src: Rax,
        width: Width::B4,
    });
    let top = a.fresh();
    a.bind(top);
    a.shr(Rbx, 1);
    a.cmp_ri(Rbx, 0);
    a.jcc(Cond::Ne, top);
    cmp_eax(a, accept_code);
    let no = a.fresh();
    a.jcc(Cond::Ne, no);
    a.mov_ri(Rax, 1);
    a.ret();
    a.bind(no);
    a.zero(Rax);
    a.ret();
}

/// Exclusion chain of more forks than a 64-path budget allows, with AV
/// among the excluded codes: accept everything except [`CHAIN_LEN`]
/// specific codes. Truth: AV is excluded, so the filter rejects.
fn emit_chain_exclude_av(a: &mut Asm) {
    emit_load_code(a);
    let reject = a.fresh();
    cmp_eax(a, STATUS_ACCESS_VIOLATION);
    a.jcc(Cond::E, reject);
    for k in 0..CHAIN_LEN - 1 {
        cmp_eax(a, 0xC000_0100 + k);
        a.jcc(Cond::E, reject);
    }
    a.mov_ri(Rax, 1);
    a.ret();
    a.bind(reject);
    a.zero(Rax);
    a.ret();
}
