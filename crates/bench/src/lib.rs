//! # cr-bench — experiment harness
//!
//! [`paper::ARTIFACTS`] renders every paper artifact (E1–E12 and the
//! ablations, DESIGN.md §4–§5); the `paper` binary prints them:
//!
//! ```sh
//! cargo run --release -p cr-bench --bin paper          # every artifact
//! cargo run --release -p cr-bench --bin paper -- E3    # Table III only
//! ```
//!
//! Each artifact is pinned byte for byte under `scripts/golden/paper/`.
//! The other binaries are performance benches that write the committed
//! `BENCH_*.json` files (`discover_bench`, `solver_bench`, `scan_bench`,
//! `arena_bench`, `serve_load`) and the `chaos_storm` fault sweep.

pub mod paper;
