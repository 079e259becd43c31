//! Randomized soundness check for the symbolic filter analysis.
//!
//! We generate random exception-filter decision trees, compile them to
//! machine code with `cr-isa`, and require three views to agree:
//!
//! 1. **ground truth** — direct evaluation of the tree: does *any*
//!    exception record with `code == EXCEPTION_ACCESS_VIOLATION` make it
//!    return non-zero?
//! 2. **symbolic execution** — the [`FilterExplorer`] verdict on the
//!    compiled code;
//! 3. **dynamic dispatch** — wiring the compiled filter into a PE scope
//!    table and taking a real fault (concrete flags = 0): survival must
//!    match evaluation of the tree at flags = 0, and symex-rejection must
//!    imply a crash.
//!
//! Neither oracle shares code with the explorer: the tree is evaluated
//! directly, and the fault is dispatched by the `cr-os` Windows model
//! running the code on `cr-vm`.

use cr_image::{FilterRef, Machine, PeBuilder, PeImage, ScopeEntry};
use cr_isa::{AluOp, Asm, Cond, Inst, Mem as M, Reg, Rm, Width};
use cr_os::windows::api::ApiTable;
use cr_os::windows::{CallOutcome, WinProc};
use cr_symex::{FilterExplorer, FilterVerdict, EXCEPTION_ACCESS_VIOLATION};
use cr_vm::NullHook;
use proptest::prelude::*;

/// A random exception-filter decision tree.
#[derive(Debug, Clone)]
enum FilterAst {
    /// `return c;`
    Ret(i32),
    /// `if (code == k) { a } else { b }`
    IfCodeEq(u32, Box<FilterAst>, Box<FilterAst>),
    /// `if ((code >> 30) == sev) { a } else { b }`
    IfSeverity(u8, Box<FilterAst>, Box<FilterAst>),
    /// `if (flags & mask) { a } else { b }` — flags is a free input.
    IfFlagsBit(u32, Box<FilterAst>, Box<FilterAst>),
}

impl FilterAst {
    /// Evaluate with concrete record fields.
    fn eval(&self, code: u32, flags: u32) -> i32 {
        match self {
            FilterAst::Ret(c) => *c,
            FilterAst::IfCodeEq(k, a, b) => {
                if code == *k {
                    a.eval(code, flags)
                } else {
                    b.eval(code, flags)
                }
            }
            FilterAst::IfSeverity(s, a, b) => {
                if (code >> 30) as u8 == *s {
                    a.eval(code, flags)
                } else {
                    b.eval(code, flags)
                }
            }
            FilterAst::IfFlagsBit(m, a, b) => {
                if flags & m != 0 {
                    a.eval(code, flags)
                } else {
                    b.eval(code, flags)
                }
            }
        }
    }

    /// Ground truth: ∃ flags such that eval(AV, flags) != 0.
    fn accepts_av(&self) -> bool {
        // flags only matter through the masks in the tree; testing the
        // all-zero and all-one assignments covers every branch combination
        // reachable by a single flags value... not in general! Collect the
        // masks and brute-force the subsets over them (trees are tiny).
        let mut masks = Vec::new();
        self.collect_masks(&mut masks);
        let n = masks.len().min(10);
        for bits in 0u32..(1 << n) {
            let mut flags = 0u32;
            for (i, m) in masks.iter().take(n).enumerate() {
                if bits & (1 << i) != 0 {
                    flags |= m;
                }
            }
            if self.eval(EXCEPTION_ACCESS_VIOLATION as u32, flags) != 0 {
                return true;
            }
        }
        false
    }

    fn collect_masks(&self, out: &mut Vec<u32>) {
        match self {
            FilterAst::Ret(_) => {}
            FilterAst::IfCodeEq(_, a, b) | FilterAst::IfSeverity(_, a, b) => {
                a.collect_masks(out);
                b.collect_masks(out);
            }
            FilterAst::IfFlagsBit(m, a, b) => {
                if !out.contains(m) {
                    out.push(*m);
                }
                a.collect_masks(out);
                b.collect_masks(out);
            }
        }
    }

    /// Compile to machine code. ABI: rcx → EXCEPTION_POINTERS. The record
    /// fields live in registers `Ret` never clobbers: `r10d` = code,
    /// `r8d` = flags; `r11` is per-test scratch.
    fn compile(&self, a: &mut Asm) {
        a.load(Reg::R9, M::base(Reg::Rcx));
        a.inst(Inst::MovRRm {
            dst: Reg::R10,
            src: Rm::Mem(M::base(Reg::R9)),
            width: Width::B4,
        });
        a.inst(Inst::MovRRm {
            dst: Reg::R8,
            src: Rm::Mem(M::base_disp(Reg::R9, 4)),
            width: Width::B4,
        });
        self.emit(a);
    }

    fn emit(&self, a: &mut Asm) {
        match self {
            FilterAst::Ret(c) => {
                a.mov_ri(Reg::Rax, *c as i64 as u64);
                a.ret();
            }
            FilterAst::IfCodeEq(k, t, e) => {
                a.inst(Inst::AluRmI {
                    op: AluOp::Cmp,
                    dst: Rm::Reg(Reg::R10),
                    imm: *k as i32,
                    width: Width::B4,
                });
                let els = a.fresh();
                a.jcc(Cond::Ne, els);
                t.emit(a);
                a.bind(els);
                e.emit(a);
            }
            FilterAst::IfSeverity(s, t, e) => {
                a.mov_rr(Reg::R11, Reg::R10);
                a.shr(Reg::R11, 30);
                a.cmp_ri(Reg::R11, *s as i32);
                let els = a.fresh();
                a.jcc(Cond::Ne, els);
                t.emit(a);
                a.bind(els);
                e.emit(a);
            }
            FilterAst::IfFlagsBit(m, t, e) => {
                a.mov_rr(Reg::R11, Reg::R8);
                a.and_ri(Reg::R11, *m as i32);
                a.cmp_ri(Reg::R11, 0);
                let els = a.fresh();
                a.jcc(Cond::E, els);
                t.emit(a);
                a.bind(els);
                e.emit(a);
            }
        }
    }
}

fn arb_filter() -> impl Strategy<Value = FilterAst> {
    let leaf = prop_oneof![
        Just(FilterAst::Ret(0)),
        Just(FilterAst::Ret(1)),
        Just(FilterAst::Ret(-1)),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(0xC000_0005u32), // AV
                    Just(0xC000_0094),    // divide by zero
                    Just(0x8000_0003),    // breakpoint
                    Just(0xC000_001D),    // illegal instruction
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(k, a, b)| FilterAst::IfCodeEq(k, Box::new(a), Box::new(b))),
            (0u8..4, inner.clone(), inner.clone()).prop_map(|(s, a, b)| FilterAst::IfSeverity(
                s,
                Box::new(a),
                Box::new(b)
            )),
            (
                prop_oneof![Just(1u32), Just(2), Just(0x10)],
                inner.clone(),
                inner
            )
                .prop_map(|(m, a, b)| FilterAst::IfFlagsBit(
                    m,
                    Box::new(a),
                    Box::new(b)
                )),
        ]
    })
}

const BASE: u64 = 0x7FFB_0000_0000;

/// Build a module: one guarded probe function + the compiled filter.
fn build_module(ast: &FilterAst) -> PeImage {
    let mut a = Asm::new(BASE + 0x1000);
    a.global("Probe");
    a.global("tb");
    a.load(Reg::Rax, M::base(Reg::Rcx));
    a.global("te");
    a.ret();
    a.global("ex");
    a.mov_ri(Reg::Rax, 0xEEEE_0001);
    a.ret();
    a.global("probe_end");
    a.align(16);
    a.global("Filter");
    ast.compile(&mut a);
    a.global("end");
    let asm = a.assemble().unwrap();
    let rva = |s: &str| (asm.sym(s) - BASE) as u32;
    let mut b = PeBuilder::new("prop.dll", Machine::X64, BASE);
    b.export("Probe", rva("Probe"));
    b.function_with_seh(
        rva("Probe"),
        rva("probe_end"),
        rva("Filter"),
        vec![ScopeEntry {
            begin_rva: rva("tb"),
            end_rva: rva("te"),
            filter: FilterRef::Function(rva("Filter")),
            target_rva: rva("ex"),
        }],
    );
    b.function(rva("Filter"), rva("end"));
    b.text(0x1000, asm.code);
    PeImage::parse(&b.build()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn symex_matches_ground_truth_and_dispatch(ast in arb_filter()) {
        let img = build_module(&ast);
        let truth = ast.accepts_av();

        // Symbolic verdict on the *parsed* image bytes.
        let filter_rva = img
            .runtime_functions
            .iter()
            .flat_map(|rf| rf.unwind.scopes.iter())
            .find_map(|s| match s.filter {
                FilterRef::Function(rva) => Some(rva),
                _ => None,
            })
            .unwrap();
        let code = cr_core::seh::PeCode::new(&img);
        let verdict = FilterExplorer::builder()
            .build()
            .explore(&code, BASE + filter_rva as u64)
            .verdict;
        match (&verdict, truth) {
            (FilterVerdict::AcceptsAccessViolation { witness_code }, true) => {
                prop_assert_eq!(*witness_code, EXCEPTION_ACCESS_VIOLATION);
            }
            (FilterVerdict::RejectsAccessViolation, false) => {}
            (v, t) => prop_assert!(false, "symex {v:?} vs ground truth accepts={t} for {ast:?}"),
        }

        // Dynamic dispatch with concrete flags = 0.
        let mut p = WinProc::new(ApiTable::curated_only());
        p.load_module(&img);
        let probe = img.image_base + img.exports["Probe"] as u64;
        let outcome = p.call(probe, &[0xdead_0000], 1_000_000, &mut NullHook);
        let dyn_survives = matches!(outcome, CallOutcome::Returned(_));
        let expect_dyn = ast.eval(EXCEPTION_ACCESS_VIOLATION as u32, 0) != 0;
        prop_assert_eq!(dyn_survives, expect_dyn, "dispatch vs eval(flags=0) for {:?}", ast);
        // Soundness: symex-reject ⇒ crash; dynamic survival ⇒ symex-accept.
        if matches!(verdict, FilterVerdict::RejectsAccessViolation) {
            prop_assert!(!dyn_survives);
        }
        if dyn_survives {
            let accepted = matches!(verdict, FilterVerdict::AcceptsAccessViolation { .. });
            prop_assert!(accepted, "dynamic survival must imply a symex accept");
        }
    }

}
