//! # cr-symex — symbolic execution of exception filters
//!
//! The paper (§IV-C) symbolically executes every SEH exception-filter
//! function found in a module's `.pdata` scope tables and asks an SMT
//! solver (Z3) whether the filter can accept
//! `EXCEPTION_ACCESS_VIOLATION`. This crate reproduces that decision
//! procedure from scratch, with one way to reach a verdict:
//!
//! * [`Expr`]/[`BoolExpr`] — a bitvector expression DAG with constant
//!   folding;
//! * [`FilterExplorer`] — the path explorer over the `cr-isa`
//!   instruction subset, with the Windows x64 filter ABI as harness:
//!   it forks at each *feasible* branch under a bounded loop-unroll
//!   budget and returns a structured [`ExplorationReport`];
//! * [`Session`] — QF_BV satisfiability under a push/pop constraint
//!   stack: constraints are folded into a hash-consed term arena
//!   ([`term`]), Tseitin bit-blasted to CNF once, and decided under
//!   assumptions by the two-watched-literal [`IncrementalSat`], with a
//!   process-wide normalized-query memo answering structurally repeated
//!   queries without solving. [`check`] is a one-query session. Witness
//!   models come back as [`Model`], and [`tally_work`] counts the
//!   checks one thread issues as [`SolverCounters`].
//!
//! # Examples
//!
//! Vetting a catch-all filter (machine code for `return 1;`):
//!
//! ```
//! use cr_symex::{FilterExplorer, FilterVerdict, EXCEPTION_ACCESS_VIOLATION};
//! use cr_isa::{Asm, Reg};
//!
//! let mut a = Asm::new(0x1000);
//! a.mov_ri(Reg::Rax, 1);
//! a.ret();
//! let code = a.assemble()?.code;
//!
//! let report = FilterExplorer::default().explore(&(0x1000, code.as_slice()), 0x1000);
//! assert_eq!(
//!     report.verdict,
//!     FilterVerdict::AcceptsAccessViolation { witness_code: EXCEPTION_ACCESS_VIOLATION }
//! );
//! assert_eq!(report.completed_paths, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod blast;
mod exec;
mod explorer;
mod expr;
mod sat;
pub mod term;

pub use blast::{check, reset_query_memo, tally_work, Model, SatResult, Session, SolverCounters};
pub use exec::{
    with_step_budget, CodeSource, FilterVerdict, CODE_VAR, EXCEPTION_ACCESS_VIOLATION,
    EXCEPTION_CONTINUE_EXECUTION, EXCEPTION_CONTINUE_SEARCH, EXCEPTION_EXECUTE_HANDLER,
};
pub use explorer::{
    ExplorationReport, FilterExplorer, FilterExplorerBuilder, PathReport, PathVerdict,
};
pub use expr::{BinOp, BoolExpr, CmpOp, Expr};
pub use sat::{Cnf, IncrementalSat, SolveOutcome};
