//! # cr-symex — symbolic execution of exception filters
//!
//! The paper (§IV-C) symbolically executes every SEH exception-filter
//! function found in a module's `.pdata` scope tables and asks an SMT
//! solver (Z3) whether the filter can accept
//! `EXCEPTION_ACCESS_VIOLATION`. This crate reproduces that decision
//! procedure from scratch:
//!
//! * [`Expr`]/[`BoolExpr`] — a bitvector expression DAG with constant
//!   folding;
//! * [`SymExec`] — a path-forking symbolic executor over the `cr-isa`
//!   instruction subset, with the Windows x64 filter ABI as harness;
//! * [`check`] — QF_BV satisfiability: constraints are folded into a
//!   hash-consed per-thread term arena ([`term`]), Tseitin bit-blasted
//!   to CNF, and decided by a two-watched-literal DPLL solver, with a
//!   process-wide normalized-query memo answering structurally repeated
//!   queries without solving. Witness models come back as [`Model`],
//!   and [`tally_work`] counts the checks one thread issues as
//!   [`SolverCounters`];
//! * [`FilterExplorer`] — the one-door path explorer: forks at each
//!   *feasible* branch under a bounded loop-unroll budget and solves
//!   sibling paths incrementally through a [`Session`] (push/pop over
//!   the shared constraint prefix, assumption-layered
//!   [`IncrementalSat`] state), returning a structured
//!   [`ExplorationReport`]. [`SymExec`] remains as the single-shot
//!   differential-testing reference.
//!
//! # Examples
//!
//! Vetting a catch-all filter (machine code for `return 1;`):
//!
//! ```
//! use cr_symex::{SymExec, FilterVerdict};
//! use cr_isa::{Asm, Reg};
//!
//! let mut a = Asm::new(0x1000);
//! a.mov_ri(Reg::Rax, 1);
//! a.ret();
//! let code = a.assemble()?.code;
//!
//! let analysis = SymExec::default().analyze_filter(&(0x1000, code.as_slice()), 0x1000);
//! assert!(matches!(analysis.verdict, FilterVerdict::AcceptsAccessViolation { .. }));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod blast;
mod exec;
mod explorer;
mod expr;
mod sat;
pub mod term;

pub use blast::{
    check, check_reference, reset_query_memo, tally_work, thread_arena_size,
    with_reference_pipeline, Model, SatResult, Session, SolverCounters,
};
pub use exec::{
    with_step_budget, CodeSource, FilterAnalysis, FilterVerdict, SymExec, CODE_VAR,
    EXCEPTION_ACCESS_VIOLATION, EXCEPTION_CONTINUE_EXECUTION, EXCEPTION_CONTINUE_SEARCH,
    EXCEPTION_EXECUTE_HANDLER,
};
pub use explorer::{
    ExplorationReport, FilterExplorer, FilterExplorerBuilder, PathReport, PathVerdict,
};
pub use expr::{BinOp, BoolExpr, CmpOp, Expr};
pub use sat::{solve, solve_reference, Cnf, IncrementalSat, SolveOutcome};
