//! Decision-procedure throughput bench, as machine-readable JSON
//! written to `BENCH_solver.json`.
//!
//! The corpus is `SOLVER_BENCH_QUERIES` (default 400) filter-style
//! constraint sets — exception-code pins, masked-flag tests, small
//! adder/xor chains over 32-bit variables — generated from a fixed
//! xorshift seed so every run prices the same work. Each measurement is
//! best-of-`SOLVER_BENCH_ROUNDS` (default 3) to shed scheduling noise:
//!
//! 1. **interned cold** — every query through [`cr_symex::check`] after
//!    [`cr_symex::reset_query_memo`], so each query is blasted and
//!    solved for real;
//! 2. **memo warm** — the same corpus again without a reset: every
//!    query must be answered from the normalized-query memo;
//! 3. **paths** — the loopy/multi-branch filter family explored by
//!    [`FilterExplorer`] with incremental push/pop solving, from a cold
//!    memo. Exploration is sequential, so this is a single-core figure.
//!
//! Asserts the correctness invariants while it measures: every SAT
//! model, cold or replayed from the memo, must satisfy its constraints
//! under [`BoolExpr::eval`] (`models_verified`), the warm pass must
//! return the cold pass's verdicts and hit the memo once per query.
//! Wall times are recorded, never asserted — timing belongs in the
//! JSON, not in CI pass/fail.

use cr_core::seh::PeCode;
use cr_image::FilterRef;
use cr_symex::{
    tally_work, BinOp, BoolExpr, CmpOp, ExplorationReport, Expr, FilterExplorer, SatResult,
    SolverCounters,
};
use serde::Serialize;
use std::time::Instant;

#[derive(serde::Serialize)]
struct PassStats {
    /// Best-of-rounds wall time for the full corpus, microseconds.
    wall_us: u64,
    /// Queries decided per second at the best-of-rounds wall time.
    queries_per_sec: f64,
    solver_calls: u64,
    memo_lookups: u64,
    memo_hits: u64,
}

#[derive(serde::Serialize)]
struct PathsPassStats {
    /// Best-of-rounds wall time for exploring the whole family, µs.
    wall_us: u64,
    solver_calls: u64,
    memo_lookups: u64,
    memo_hits: u64,
}

/// The `paths` section: incremental exploration of the loopy filter
/// family.
#[derive(serde::Serialize)]
struct PathsReport {
    filters: usize,
    paths: usize,
    rounds: usize,
    incremental: PathsPassStats,
}

#[derive(serde::Serialize)]
struct SolverReport {
    queries: usize,
    rounds: usize,
    sat: usize,
    unsat: usize,
    unknown: usize,
    interned_cold: PassStats,
    memo_warm: PassStats,
    /// Interned-cold / memo-warm wall ratio (>1 = memo pays off).
    warm_speedup: f64,
    /// Every SAT model of both passes satisfies its constraints.
    models_verified: bool,
    /// Path-explorer pricing over the loopy filter family.
    paths: PathsReport,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Deterministic xorshift64* — the corpus must be identical run to run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One filter-style query: the kinds of constraint sets the filter
/// explorer emits, scaled to a corpus.
fn gen_query(rng: &mut Rng, i: usize) -> Vec<BoolExpr> {
    // The normalized-query memo alpha-renames variables, so unique
    // names alone don't make queries distinct — every query also gets a
    // wide random constant pin (the `salt` constraint below) so cold
    // passes genuinely blast and solve each one.
    let code = Expr::var(&format!("code{i}"), 32);
    let flags = Expr::var(&format!("flags{i}"), 32);
    let salt = BoolExpr::cmp(
        CmpOp::Ne,
        32,
        Expr::bin(BinOp::Xor, flags.clone(), Expr::c(rng.below(1 << 32))),
        Expr::c(0),
    );
    let mut cs = vec![salt];
    match rng.below(4) {
        0 => {
            // AV pin + severity test: SAT or UNSAT depending on k.
            let k = [0xC000_0005u64, 0xC000_0094, 0x8000_0003][rng.below(3) as usize];
            cs.push(BoolExpr::cmp(
                CmpOp::Eq,
                32,
                code.clone(),
                Expr::c(0xC000_0005),
            ));
            cs.push(BoolExpr::cmp(CmpOp::Eq, 32, code, Expr::c(k)));
        }
        1 => {
            // Masked flag bit both set and clear: UNSAT.
            let m = 1u64 << rng.below(8);
            let masked = Expr::bin(BinOp::And, flags, Expr::c(m));
            cs.push(BoolExpr::cmp(CmpOp::Ne, 32, masked.clone(), Expr::c(0)));
            cs.push(BoolExpr::cmp(CmpOp::Eq, 32, masked, Expr::c(0)));
        }
        2 => {
            // Shifted-severity pin: `(code >> 30) == s` with a code pin.
            let s = rng.below(4);
            let sev = Expr::bin(BinOp::Shr, code.clone(), Expr::c(30));
            cs.push(BoolExpr::cmp(CmpOp::Eq, 32, code, Expr::c(0xC000_0005)));
            cs.push(BoolExpr::cmp(CmpOp::Eq, 32, sev, Expr::c(s)));
        }
        _ => {
            // Small arithmetic chain: `((code + k1) ^ k2) & 0xFF == t`.
            let k1 = rng.below(1 << 16);
            let k2 = rng.below(1 << 16);
            let t = rng.below(256);
            let chain = Expr::bin(
                BinOp::And,
                Expr::bin(
                    BinOp::Xor,
                    Expr::bin(BinOp::Add, code, Expr::c(k1)),
                    Expr::c(k2),
                ),
                Expr::c(0xFF),
            );
            cs.push(BoolExpr::cmp(CmpOp::Eq, 32, chain, Expr::c(t)));
            cs.push(BoolExpr::cmp(
                CmpOp::Ult,
                32,
                flags,
                Expr::c(16 + rng.below(240)),
            ));
        }
    }
    cs
}

/// Run every query through `f`, returning wall micros and verdicts.
fn run_pass(
    corpus: &[Vec<BoolExpr>],
    f: &dyn Fn(&[BoolExpr]) -> SatResult,
) -> (u64, Vec<SatResult>) {
    let start = Instant::now();
    let verdicts: Vec<SatResult> = corpus.iter().map(|q| f(q)).collect();
    (start.elapsed().as_micros() as u64, verdicts)
}

fn same_verdict(a: &SatResult, b: &SatResult) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
}

/// Whether a `Sat` result's model satisfies every constraint of its
/// query (vacuously true for `Unsat`/`Unknown`).
fn model_holds(query: &[BoolExpr], r: &SatResult) -> bool {
    match r {
        SatResult::Sat(m) => query.iter().all(|c| c.eval(&|name| m.get(name))),
        _ => true,
    }
}

fn main() {
    print!(
        "{}",
        cr_core::report::banner("solver bench — interned arena + incremental DPLL + query memo")
    );
    let queries = env_usize("SOLVER_BENCH_QUERIES", 400);
    let rounds = env_usize("SOLVER_BENCH_ROUNDS", 3).max(1);
    let out_path = std::env::var("SOLVER_BENCH_OUT").unwrap_or_else(|_| "BENCH_solver.json".into());

    let mut rng = Rng(0x5EED_2017_D5A1_7E57);
    let corpus: Vec<Vec<BoolExpr>> = (0..queries).map(|i| gen_query(&mut rng, i)).collect();

    // Each pass runs in its own tally scope, so it counts exactly the
    // work of its own checks.

    // Pass 1: interned pipeline, memo reset before every round so each
    // round blasts and solves every query from scratch.
    eprintln!("[solver_bench] interned cold ...");
    let mut cold_wall = u64::MAX;
    let mut cold_verdicts = Vec::new();
    let ((), cold_work) = tally_work(|| {
        for _ in 0..rounds {
            cr_symex::reset_query_memo();
            let (w, v) = run_pass(&corpus, &|q| cr_symex::check(q));
            cold_wall = cold_wall.min(w);
            cold_verdicts = v;
        }
    });

    // Pass 2: same corpus, memo left warm from the last cold round.
    eprintln!("[solver_bench] memo warm ...");
    let mut warm_wall = u64::MAX;
    let mut warm_verdicts = Vec::new();
    let ((), warm_work) = tally_work(|| {
        for _ in 0..rounds {
            let (w, v) = run_pass(&corpus, &|q| cr_symex::check(q));
            warm_wall = warm_wall.min(w);
            warm_verdicts = v;
        }
    });

    // Pass 3: the path explorer over the loopy family, memo reset
    // before every round so each round starts cold.
    eprintln!("[solver_bench] path exploration (loopy family) ...");
    let image = cr_targets::browsers::generate_loopy_dll();
    let pe_code = PeCode::new(&image);
    let mut filter_rvas: Vec<u32> = image
        .runtime_functions
        .iter()
        .flat_map(|rf| rf.unwind.scopes.iter())
        .filter_map(|s| match s.filter {
            FilterRef::Function(rva) => Some(rva),
            FilterRef::CatchAll => None,
        })
        .collect();
    filter_rvas.sort_unstable();
    filter_rvas.dedup();
    let explorer = FilterExplorer::builder().build();
    let mut paths_wall = u64::MAX;
    let mut reports: Vec<ExplorationReport> = Vec::new();
    let ((), paths_work) = tally_work(|| {
        for _ in 0..rounds {
            cr_symex::reset_query_memo();
            let start = Instant::now();
            reports = filter_rvas
                .iter()
                .map(|&rva| explorer.explore(&pe_code, image.image_base + u64::from(rva)))
                .collect();
            paths_wall = paths_wall.min(start.elapsed().as_micros() as u64);
        }
    });
    let paths_report = PathsReport {
        filters: filter_rvas.len(),
        paths: reports.iter().map(|r| r.paths.len()).sum(),
        rounds,
        incremental: PathsPassStats {
            wall_us: paths_wall,
            solver_calls: paths_work.solver_calls,
            memo_lookups: paths_work.memo_lookups,
            memo_hits: paths_work.memo_hits,
        },
    };

    let mut sat = 0;
    let mut unsat = 0;
    let mut unknown = 0;
    let mut memo_parity = true;
    let mut models_verified = true;
    for (i, n) in cold_verdicts.iter().enumerate() {
        match n {
            SatResult::Sat(_) => sat += 1,
            SatResult::Unsat => unsat += 1,
            SatResult::Unknown(_) => unknown += 1,
        }
        for (pass, r) in [("cold", n), ("warm", &warm_verdicts[i])] {
            if !model_holds(&corpus[i], r) {
                eprintln!("[solver_bench] MODEL FAILURE query {i} ({pass}): {r:?}");
                models_verified = false;
            }
        }
        if !same_verdict(n, &warm_verdicts[i]) {
            eprintln!(
                "[solver_bench] MEMO FAILURE query {i}: cold={n:?} warm={:?}",
                warm_verdicts[i]
            );
            memo_parity = false;
        }
    }

    let stats = |wall: u64, w: SolverCounters| PassStats {
        wall_us: wall,
        queries_per_sec: queries as f64 / (wall.max(1) as f64 / 1e6),
        solver_calls: w.solver_calls,
        memo_lookups: w.memo_lookups,
        memo_hits: w.memo_hits,
    };
    let report = SolverReport {
        queries,
        rounds,
        sat,
        unsat,
        unknown,
        interned_cold: stats(cold_wall, cold_work),
        memo_warm: stats(warm_wall, warm_work),
        warm_speedup: cold_wall as f64 / warm_wall.max(1) as f64,
        models_verified,
        paths: paths_report,
    };
    let json = report.to_json();
    println!("{json}");
    std::fs::write(&out_path, format!("{json}\n")).expect("write bench report");
    eprintln!("[solver_bench] wrote {out_path}");

    assert!(models_verified, "every SAT model must satisfy its query");
    assert!(
        memo_parity,
        "the warm pass must replay every cold verdict from the memo"
    );
    assert_eq!(
        report.memo_warm.memo_hits,
        (queries * rounds) as u64,
        "every warm-pass query must be answered from the normalized-query memo"
    );
    assert_eq!(
        report.memo_warm.memo_lookups, report.memo_warm.memo_hits,
        "warm-pass lookups must all hit"
    );
    assert!(unknown == 0, "corpus queries must stay in budget");
}
