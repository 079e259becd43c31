//! # cr-bench — experiment harness
//!
//! One binary per paper artifact (see DESIGN.md §4):
//!
//! | binary        | regenerates                                   |
//! |---------------|-----------------------------------------------|
//! | `table1`      | Table I — syscall candidates × five servers   |
//! | `table2`      | Table II — guarded locations per DLL          |
//! | `table3`      | Table III — filters before/after symex        |
//! | `api_funnel`  | §V-B — the Windows API funnel                 |
//! | `poc_exploits`| §VI — the four proof-of-concept oracles       |
//! | `fault_rates` | §VII-C — fault-rate workloads + defenses      |
//! | `ablations`   | DESIGN.md §5 — design-choice ablations        |
//!
//! Criterion performance benches live in `benches/perf.rs`.

/// Shared banner printing for the experiment binaries.
pub fn banner(title: &str) {
    print!("{}", cr_core::report::banner(title));
}
