//! Integration pins for the path-enumerating filter explorer.
//!
//! 1. The calibrated loopy/multi-branch family
//!    ([`cr_targets::browsers::LOOPY_CASES`]) must be classified
//!    exactly: verdict, AV witness and no aborted path, for widened
//!    spill reloads, data-dependent loops closed by feasibility pruning
//!    and a comparison chain longer than 64 forks.
//! 2. A proptest drives random branchy filters through the explorer and
//!    checks every count it reports against an enumeration of the
//!    generated decision tree over the codes and flag bits it names —
//!    an oracle that shares no code with the explorer, its stepper or
//!    its solver.

use cr_image::{FilterRef, Machine, PeBuilder, PeImage, ScopeEntry};
use cr_isa::{AluOp, Asm, Cond, Inst, Mem as M, Reg, Rm, Width};
use cr_symex::{FilterExplorer, FilterVerdict, PathVerdict, EXCEPTION_ACCESS_VIOLATION};
use cr_targets::browsers::{generate_loopy_dll, LOOPY_CASES};
use proptest::prelude::*;

#[test]
fn loopy_family_is_classified_exactly() {
    let img = generate_loopy_dll();
    let code = cr_core::seh::PeCode::new(&img);
    let explorer = FilterExplorer::builder().build();
    for case in &LOOPY_CASES {
        let addr = img.image_base + u64::from(img.exports[case.name]);
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
    }
}

/// A random branchy (loop-free) exception filter; a trimmed version of
/// the `filter_soundness` decision tree.
#[derive(Debug, Clone)]
enum FilterAst {
    Ret(i32),
    /// `if (code == k) { a } else { b }`
    IfCodeEq(u32, Box<FilterAst>, Box<FilterAst>),
    /// `if (flags & mask) { a } else { b }`
    IfFlagsBit(u32, Box<FilterAst>, Box<FilterAst>),
}

/// One exception record as far as the tree can tell: `(code, flags)`.
type Input = (u32, u32);

/// What the explorer must report for a tree.
#[derive(Debug, Default)]
struct Expected {
    /// `(verdict, depth)` of every completed path.
    paths: Vec<(PathVerdict, usize)>,
    /// Branches with exactly one feasible side.
    pruned: usize,
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

impl FilterAst {
    fn collect(&self, codes: &mut Vec<u32>, masks: &mut Vec<u32>) {
        let (k, set, a, b) = match self {
            FilterAst::Ret(_) => return,
            FilterAst::IfCodeEq(k, a, b) => (k, &mut *codes, a, b),
            FilterAst::IfFlagsBit(m, a, b) => (m, &mut *masks, a, b),
        };
        if !set.contains(k) {
            set.push(*k);
        }
        a.collect(codes, masks);
        b.collect(codes, masks);
    }

    /// One input per behaviour class: every code the tree names, the AV
    /// code and one code it never names, crossed with every subset of
    /// its flag masks. Each branch tests one code or one flag bit, so
    /// any record follows the same path as one of these inputs.
    fn domain(&self) -> Vec<Input> {
        let (mut codes, mut masks) = (vec![EXCEPTION_ACCESS_VIOLATION as u32, 0], Vec::new());
        self.collect(&mut codes, &mut masks);
        let mut inputs = Vec::new();
        for &code in &codes {
            for subset in 0u32..1 << masks.len() {
                let flags = (0..masks.len())
                    .filter(|i| subset >> i & 1 == 1)
                    .fold(0, |f, i| f | masks[i]);
                inputs.push((code, flags));
            }
        }
        inputs
    }

    /// Walk the tree as the explorer walks its code: `inputs` are the
    /// records that reach this node at branch depth `depth`. A branch
    /// forks when both sides are reachable and is pruned otherwise; a
    /// leaf accepts an AV iff it returns non-zero and some reaching
    /// record has the AV code.
    fn enumerate(&self, inputs: &[Input], depth: usize, out: &mut Expected) {
        let (then, els, (yes, no)): (_, _, (Vec<Input>, Vec<Input>)) = match self {
            FilterAst::Ret(c) => {
                let av = inputs
                    .iter()
                    .any(|&(code, _)| u64::from(code) == EXCEPTION_ACCESS_VIOLATION);
                let verdict = if *c != 0 && av {
                    PathVerdict::AcceptsAv {
                        witness_code: EXCEPTION_ACCESS_VIOLATION,
                    }
                } else {
                    PathVerdict::RejectsAv
                };
                out.paths.push((verdict, depth));
                return;
            }
            FilterAst::IfCodeEq(k, a, b) => (a, b, inputs.iter().partition(|i| i.0 == *k)),
            FilterAst::IfFlagsBit(m, a, b) => (a, b, inputs.iter().partition(|i| i.1 & m != 0)),
        };
        if yes.is_empty() || no.is_empty() {
            out.pruned += 1;
        }
        for (branch, reach) in [(then, yes), (els, no)] {
            if !reach.is_empty() {
                branch.enumerate(&reach, depth + 1, out);
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The incremental explorer against the reference explorer
    /// `FilterAst::enumerate`, which walks the decision tree itself over
    /// its enumerated inputs: merged verdict, completed paths, pruned
    /// branches and the multiset of per-path `(verdict, depth)` records
    /// must all match.
    #[test]
    fn incremental_and_reference_explorers_agree_per_path(ast in arb_filter()) {
        let img = build_module(&ast);
        let addr = img.image_base + u64::from(img.exports["Filter"]);
        let code = cr_core::seh::PeCode::new(&img);
        let report = FilterExplorer::builder().build().explore(&code, addr);

        let mut want = Expected::default();
        ast.enumerate(&ast.domain(), 0, &mut want);
        let accepts = want
            .paths
            .iter()
            .any(|(v, _)| matches!(v, PathVerdict::AcceptsAv { .. }));
        let want_verdict = if accepts {
            FilterVerdict::AcceptsAccessViolation {
                witness_code: EXCEPTION_ACCESS_VIOLATION,
            }
        } else {
            FilterVerdict::RejectsAccessViolation
        };
        prop_assert_eq!(&report.verdict, &want_verdict, "for {:?}", ast);
        prop_assert!(report.aborted_paths.is_empty(), "{:?}", report.aborted_paths);
        prop_assert_eq!(report.completed_paths, want.paths.len(), "for {:?}", ast);
        prop_assert_eq!(report.pruned_branches, want.pruned, "for {:?}", ast);
        let sorted = |mut v: Vec<(PathVerdict, usize)>| {
            v.sort_by_key(|p| format!("{p:?}"));
            v
        };
        let got = report.paths.iter().map(|p| (p.verdict.clone(), p.depth)).collect();
        prop_assert_eq!(sorted(got), sorted(want.paths), "for {:?}", ast);
    }
}
