//! Integration pins for the path-enumerating filter explorer.
//!
//! 1. The calibrated loopy/multi-branch family
//!    ([`cr_targets::browsers::LOOPY_CASES`]) is the misclassification
//!    regression: the single-shot pipeline provably gets the pinned
//!    cases wrong (a mix of widened spill reloads and budget-burning
//!    loop tails) while the explorer classifies every case correctly
//!    under feasibility pruning.
//! 2. A proptest drives random branchy filters through the incremental
//!    explorer (hash-consed arena + watched-literal push/pop) and the
//!    independent-blast explorer running on the retained reference
//!    pipeline; merged and per-path results must be identical.

use cr_image::{FilterRef, Machine, PeBuilder, PeImage, ScopeEntry};
use cr_isa::{AluOp, Asm, Cond, Inst, Mem as M, Reg, Rm, Width};
use cr_symex::{FilterExplorer, FilterVerdict, SymExec, EXCEPTION_ACCESS_VIOLATION};
use cr_targets::browsers::{generate_loopy_dll, LOOPY_CASES};
use proptest::prelude::*;

#[test]
fn loopy_family_pins_the_single_shot_misclassification() {
    let img = generate_loopy_dll();
    let code = cr_core::seh::PeCode::new(&img);
    let explorer = FilterExplorer::builder().build();
    let mut single_shot_wrong = 0;
    for case in &LOOPY_CASES {
        let addr = img.image_base + u64::from(img.exports[case.name]);

        // The explorer must be exact on every case.
        let report = explorer.explore(&code, addr);
        match (case.accepts_av, &report.verdict) {
            (true, FilterVerdict::AcceptsAccessViolation { witness_code }) => {
                assert_eq!(*witness_code, EXCEPTION_ACCESS_VIOLATION, "{}", case.name);
            }
            (false, FilterVerdict::RejectsAccessViolation) => {}
            (want, got) => panic!(
                "explorer misclassified {}: accepts_av={want}, got {got:?}",
                case.name
            ),
        }
        assert!(
            report.aborted_paths.is_empty(),
            "{}: explorer aborted paths {:?}",
            case.name,
            report.aborted_paths
        );

        // The single-shot pipeline's correctness is pinned per case: if
        // it ever starts getting a pinned-wrong case right (or vice
        // versa), this calibration must be revisited.
        let ss = SymExec::default().analyze_filter(&code, addr).verdict;
        let ss_correct = matches!(
            (case.accepts_av, &ss),
            (true, FilterVerdict::AcceptsAccessViolation { .. })
                | (false, FilterVerdict::RejectsAccessViolation)
        );
        assert_eq!(
            ss_correct, case.single_shot_correct,
            "single-shot on {}: {ss:?}",
            case.name
        );
        if !ss_correct {
            single_shot_wrong += 1;
        }
    }
    assert!(
        single_shot_wrong >= 1,
        "the family must keep at least one single-shot misclassification"
    );
}

/// A random branchy (loop-free) exception filter; a trimmed version of
/// the `filter_soundness` decision tree, here only to diversify path
/// shapes for the per-path differential below.
#[derive(Debug, Clone)]
enum FilterAst {
    Ret(i32),
    IfCodeEq(u32, Box<FilterAst>, Box<FilterAst>),
    IfFlagsBit(u32, Box<FilterAst>, Box<FilterAst>),
}

impl FilterAst {
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
                prop_oneof![Just(0xC000_0005u32), Just(0xC000_0094), Just(0x8000_0003),],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(k, a, b)| FilterAst::IfCodeEq(k, Box::new(a), Box::new(b))),
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

const BASE: u64 = 0x7FFC_4000_0000;

fn build_module(ast: &FilterAst) -> PeImage {
    let mut a = Asm::new(BASE + 0x1000);
    a.global("Filter");
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
    ast.emit(&mut a);
    a.global("filter_end");
    a.align(16);
    a.global("Guarded");
    a.global("g_tb");
    a.load(Reg::Rax, M::base(Reg::Rcx));
    a.global("g_te");
    a.ret();
    a.global("g_ex");
    a.mov_ri(Reg::Rax, 0xEEEE_0001);
    a.ret();
    a.global("g_end");
    let asm = a.assemble().unwrap();
    let rva = |s: &str| (asm.sym(s) - BASE) as u32;
    let mut b = PeBuilder::new("paths.dll", Machine::X64, BASE);
    b.export("Filter", rva("Filter"));
    b.function_with_seh(
        rva("Guarded"),
        rva("g_end"),
        rva("Filter"),
        vec![ScopeEntry {
            begin_rva: rva("g_tb"),
            end_rva: rva("g_te"),
            filter: FilterRef::Function(rva("Filter")),
            target_rva: rva("g_ex"),
        }],
    );
    b.function(rva("Filter"), rva("filter_end"));
    b.text(0x1000, asm.code);
    PeImage::parse(&b.build()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Watched-vs-reference per-path differential: the incremental
    /// explorer (production solver state) and the independent-blast
    /// explorer running on the retained reference pipeline must agree
    /// on the merged verdict and on every per-path record.
    #[test]
    fn incremental_and_reference_explorers_agree_per_path(ast in arb_filter()) {
        let img = build_module(&ast);
        let addr = img.image_base + u64::from(img.exports["Filter"]);
        let code = cr_core::seh::PeCode::new(&img);
        let incremental = FilterExplorer::builder().build().explore(&code, addr);
        let reference = cr_symex::with_reference_pipeline(|| {
            FilterExplorer::builder()
                .incremental(false)
                .build()
                .explore(&code, addr)
        });
        prop_assert_eq!(&incremental.verdict, &reference.verdict, "for {:?}", ast);
        prop_assert_eq!(incremental.paths.len(), reference.paths.len());
        for (p, q) in incremental.paths.iter().zip(&reference.paths) {
            prop_assert_eq!(&p.verdict, &q.verdict);
            prop_assert_eq!(p.steps, q.steps);
            prop_assert_eq!(p.depth, q.depth);
        }
        prop_assert_eq!(incremental.completed_paths, reference.completed_paths);
        prop_assert_eq!(&incremental.aborted_paths, &reference.aborted_paths);
        prop_assert_eq!(incremental.pruned_branches, reference.pruned_branches);
        prop_assert_eq!(incremental.steps, reference.steps);
    }

}
