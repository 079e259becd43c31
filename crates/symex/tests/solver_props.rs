//! Property tests for the decision procedure against oracles that
//! share no code with it: every SAT model must satisfy its constraints
//! under this file's own evaluator, satisfiable-by-construction
//! formulas must come back SAT, and on inputs small enough to enumerate
//! (CNFs of at most 10 variables, constraint sets over 16 free input
//! bits) every verdict must match exhaustive enumeration.

use cr_symex::{check, BinOp, BoolExpr, CmpOp, Cnf, Expr, IncrementalSat, SatResult, SolveOutcome};
use proptest::prelude::*;
use std::rc::Rc;

#[derive(Debug, Clone)]
enum ExprAst {
    Var(u8),
    Const(u64),
    Bin(BinOp, Box<ExprAst>, Box<ExprAst>),
    Not(Box<ExprAst>),
}

impl ExprAst {
    /// The expression over 32-bit variables `v0..v3`.
    fn build(&self) -> Rc<Expr> {
        self.build_at(32)
    }

    /// The expression over `bits`-wide variables `v0..v3`.
    fn build_at(&self, bits: u32) -> Rc<Expr> {
        match self {
            ExprAst::Var(i) => Expr::var(&format!("v{i}"), bits),
            ExprAst::Const(c) => Expr::c(*c & 0xFFFF_FFFF),
            ExprAst::Bin(op, a, b) => Expr::bin(*op, a.build_at(bits), b.build_at(bits)),
            ExprAst::Not(a) => Expr::not(a.build_at(bits)),
        }
    }

    /// Concrete value with `v<i> = vals[i]`, at 64 bits like `Expr`.
    fn eval(&self, vals: &[u64; 4]) -> u64 {
        match self {
            ExprAst::Var(i) => vals[*i as usize % 4] & 0xFFFF_FFFF,
            ExprAst::Const(c) => *c & 0xFFFF_FFFF,
            ExprAst::Bin(op, a, b) => {
                let (x, y) = (a.eval(vals), b.eval(vals));
                match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::And => x & y,
                    BinOp::Or => x | y,
                    BinOp::Xor => x ^ y,
                    BinOp::Shl => {
                        if y >= 64 {
                            0
                        } else {
                            x << y
                        }
                    }
                    BinOp::Shr => {
                        if y >= 64 {
                            0
                        } else {
                            x >> y
                        }
                    }
                }
            }
            ExprAst::Not(a) => !a.eval(vals),
        }
    }
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Xor),
    ]
}

/// `width`-bit comparison of two concrete values.
fn cmp_holds(op: CmpOp, width: u32, x: u64, y: u64) -> bool {
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    };
    let (x, y) = (x & mask, y & mask);
    let signed = |v: u64| ((v << (64 - width)) as i64) >> (64 - width);
    match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Ult => x < y,
        CmpOp::Slt => signed(x) < signed(y),
    }
}

fn arb_cmp() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Ult),
        Just(CmpOp::Slt),
    ]
}

/// A comparison of two expressions over `v0` and `v1` at 8, 16 or 32
/// bits.
#[derive(Debug, Clone)]
struct CmpAst {
    op: CmpOp,
    width: u32,
    a: ExprAst,
    b: ExprAst,
}

impl CmpAst {
    fn build(&self, bits: u32) -> BoolExpr {
        BoolExpr::cmp(
            self.op,
            self.width,
            self.a.build_at(bits),
            self.b.build_at(bits),
        )
    }

    fn holds(&self, vals: &[u64; 4]) -> bool {
        cmp_holds(self.op, self.width, self.a.eval(vals), self.b.eval(vals))
    }
}

fn arb_narrow_cmp() -> impl Strategy<Value = CmpAst> {
    (
        arb_cmp(),
        prop_oneof![Just(8u32), Just(16), Just(32)],
        arb_expr_over(2),
        arb_expr_over(2),
    )
        .prop_map(|(op, width, a, b)| CmpAst { op, width, a, b })
}

fn arb_expr() -> impl Strategy<Value = ExprAst> {
    arb_expr_over(4)
}

/// Random expressions over the variables `v0..v{vars}`.
fn arb_expr_over(vars: u8) -> impl Strategy<Value = ExprAst> {
    let leaf = prop_oneof![
        (0u8..vars).prop_map(ExprAst::Var),
        any::<u32>().prop_map(|c| ExprAst::Const(c as u64)),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (arb_binop(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| ExprAst::Bin(
                op,
                Box::new(a),
                Box::new(b)
            )),
            inner.prop_map(|a| ExprAst::Not(Box::new(a))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pin each variable to a concrete value and assert the expression
    /// equals its concrete evaluation: must be SAT. Then assert it equals
    /// eval+1: must be UNSAT.
    #[test]
    fn pinned_evaluation_is_decided_correctly(
        ast in arb_expr(),
        vals in proptest::array::uniform4(any::<u32>()),
    ) {
        let vals64 = [vals[0] as u64, vals[1] as u64, vals[2] as u64, vals[3] as u64];
        let expected = ast.eval(&vals64) & 0xFFFF_FFFF;
        let e = ast.build();
        let mut pins: Vec<BoolExpr> = (0..4)
            .map(|i| {
                BoolExpr::cmp(CmpOp::Eq, 32, Expr::var(&format!("v{i}"), 32), Expr::c(vals64[i]))
            })
            .collect();
        pins.push(BoolExpr::cmp(CmpOp::Eq, 32, e.clone(), Expr::c(expected)));
        prop_assert!(check(&pins).is_sat(), "pinned evaluation must be SAT");

        let wrong = expected.wrapping_add(1) & 0xFFFF_FFFF;
        let last = pins.len() - 1;
        pins[last] = BoolExpr::cmp(CmpOp::Eq, 32, e, Expr::c(wrong));
        prop_assert_eq!(check(&pins), SatResult::Unsat, "off-by-one must be UNSAT");
    }

    /// Any model returned for an unpinned constraint must satisfy it.
    #[test]
    fn models_satisfy_constraints(ast in arb_expr(), target in any::<u32>()) {
        let e = ast.build();
        let c = BoolExpr::cmp(CmpOp::Eq, 32, e, Expr::c(target as u64));
        match check(std::slice::from_ref(&c)) {
            SatResult::Sat(m) => {
                prop_assert!(c.eval(&|n| m.get(n)), "model must satisfy the constraint");
            }
            SatResult::Unsat => {
                // Verify unsatisfiability on a handful of random points.
                for seed in 0..8u64 {
                    let vals = [
                        seed.wrapping_mul(0x9E37_79B9),
                        seed.wrapping_mul(0x85EB_CA6B),
                        seed ^ 0xDEAD_BEEF,
                        !seed,
                    ];
                    prop_assert_ne!(ast.eval(&vals) & 0xFFFF_FFFF, target as u64);
                }
            }
            // Random deep adder chains can legitimately exhaust the DPLL
            // decision budget; "unknown" is an acceptable answer there
            // (the pinned-evaluation test above guarantees precision on
            // fully-determined formulas).
            SatResult::Unknown(_) => {}
        }
    }

    /// `IncrementalSat` against enumeration of every assignment: a
    /// random CNF over at most 10 variables is decided with no
    /// assumptions and then under random assumptions, on one solver
    /// (so a query also checks that the previous one retracted). SAT
    /// must hold exactly when some assignment satisfies every clause
    /// and assumption, and every SAT model must be such an assignment.
    #[test]
    fn incremental_sat_agrees_with_enumeration_on_random_cnf(
        num_vars in 1i32..=10,
        raw in proptest::collection::vec(
            proptest::collection::vec((1i32..=10, any::<bool>()), 1..5),
            0..24,
        ),
        raw_assumptions in proptest::collection::vec(
            proptest::collection::vec((1i32..=10, any::<bool>()), 0..4),
            1..4,
        ),
    ) {
        let lit = |&(v, neg): &(i32, bool)| {
            let v = (v - 1) % num_vars + 1;
            if neg { -v } else { v }
        };
        let clauses: Vec<Vec<i32>> = raw.iter().map(|cl| cl.iter().map(lit).collect()).collect();
        let mut cnf = Cnf::new();
        cnf.num_vars = num_vars as usize;
        for cl in &clauses {
            cnf.clause(cl);
        }
        let holds = |l: i32, bits: u32| ((bits >> (l.unsigned_abs() - 1)) & 1 == 1) == (l > 0);
        let satisfies =
            |bits: u32, assumed: &[i32]| {
                clauses.iter().all(|cl| cl.iter().any(|&l| holds(l, bits)))
                    && assumed.iter().all(|&l| holds(l, bits))
            };
        let mut solver = IncrementalSat::new();
        solver.absorb(&cnf);
        let queries = std::iter::once(Vec::new())
            .chain(raw_assumptions.iter().map(|a| a.iter().map(lit).collect::<Vec<i32>>()));
        for assumed in queries {
            let truth = (0u32..1 << num_vars).any(|bits| satisfies(bits, &assumed));
            match solver.solve_under(&assumed) {
                SolveOutcome::Sat(model) => {
                    prop_assert_eq!(model.len(), num_vars as usize);
                    let bits = model
                        .iter()
                        .enumerate()
                        .fold(0u32, |acc, (i, &v)| acc | (u32::from(v) << i));
                    prop_assert!(
                        satisfies(bits, &assumed),
                        "model {:?} fails {:?} under {:?}",
                        model,
                        clauses,
                        assumed
                    );
                }
                SolveOutcome::Unsat => {
                    prop_assert!(!truth, "UNSAT but satisfiable: {:?} under {:?}", clauses, assumed);
                }
                SolveOutcome::BudgetExhausted => {
                    prop_assert!(false, "10-variable instance exhausted the budget");
                }
            }
        }
    }

    /// `check` against exhaustive enumeration: two comparisons over two
    /// 8-bit variables (16 free input bits) are SAT exactly when some
    /// assignment satisfies both under this file's evaluator, and
    /// every SAT model is such an assignment.
    #[test]
    fn check_agrees_with_enumeration_on_narrow_widths(
        first in arb_narrow_cmp(),
        second in arb_narrow_cmp(),
    ) {
        let holds = |v0: u64, v1: u64| {
            let vals = [v0, v1, 0, 0];
            first.holds(&vals) && second.holds(&vals)
        };
        let truth = (0..=0xFFu64).any(|v0| (0..=0xFFu64).any(|v1| holds(v0, v1)));
        match check(&[first.build(8), second.build(8)]) {
            SatResult::Sat(m) => {
                let (v0, v1) = (m.get("v0"), m.get("v1"));
                prop_assert!(v0 <= 0xFF && v1 <= 0xFF, "model exceeds 8 bits: {} {}", v0, v1);
                prop_assert!(holds(v0, v1), "model v0={:#x} v1={:#x} fails", v0, v1);
            }
            SatResult::Unsat => prop_assert!(!truth, "UNSAT but satisfiable"),
            SatResult::Unknown(e) => prop_assert!(false, "undecided: {}", e),
        }
    }

    /// Unsigned comparison is a total order consistent with equality.
    #[test]
    fn comparison_trichotomy(a in any::<u32>(), b in any::<u32>()) {
        let x = Expr::var("x", 32);
        let y = Expr::var("y", 32);
        let pins = [
            BoolExpr::cmp(CmpOp::Eq, 32, x.clone(), Expr::c(a as u64)),
            BoolExpr::cmp(CmpOp::Eq, 32, y.clone(), Expr::c(b as u64)),
        ];
        let lt = BoolExpr::cmp(CmpOp::Ult, 32, x.clone(), y.clone());
        let gt = BoolExpr::cmp(CmpOp::Ult, 32, y, x);
        let mut with_lt = pins.to_vec();
        with_lt.push(lt);
        let mut with_gt = pins.to_vec();
        with_gt.push(gt);
        prop_assert_eq!(check(&with_lt).is_sat(), a < b);
        prop_assert_eq!(check(&with_gt).is_sat(), b < a);
    }
}

// Fuzz the debug-path literal validation in `Cnf::clause`: any clause
// containing a zero or out-of-range literal must panic under
// `debug_assertions` (release builds skip the check for speed).
#[cfg(debug_assertions)]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn clause_literal_fuzz_panics_on_invalid(
        num_vars in 1i32..=6,
        mut lits in proptest::collection::vec(-6i32..=6, 1..6),
        bad in prop_oneof![Just(0i32), 7i32..=20, -20i32..=-7],
        at in any::<usize>(),
    ) {
        let mut cnf = Cnf::new();
        cnf.num_vars = num_vars as usize;
        // Clamp the fuzzed clause to valid literals, then plant exactly
        // one invalid literal at a random position.
        for l in &mut lits {
            if *l == 0 || l.unsigned_abs() as i32 > num_vars {
                *l = 1;
            }
        }
        let at = at % lits.len();
        lits[at] = bad;
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cnf.clause(&lits);
        }));
        std::panic::set_hook(prev);
        prop_assert!(r.is_err(), "invalid literal {} must panic in debug", bad);
    }
}
