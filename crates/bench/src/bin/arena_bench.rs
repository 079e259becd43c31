//! Adversarial-arena bench: the §VII-C strategy × detector matrix as
//! machine-readable JSON written to `BENCH_defense.json`.
//!
//! Runs the full [`cr_arena::run_matrix`] grid (four probing
//! strategies against the rate threshold, windowed CUSUM, and the
//! scan-derived syscall filter) and records per-pair detection rates,
//! mean time-to-detect and false positives, plus wall time per
//! strategy (best of `ARENA_BENCH_ROUNDS`, default 3).
//!
//! Asserts the calibrated headline invariants while it measures:
//!
//! * low-and-slow stealth evades the naive rate threshold in every
//!   round, but CUSUM catches every stealth round;
//! * the rate threshold still catches the loud strategies (linear,
//!   burst) in every round;
//! * the serving-phase syscall filter blocks every located strategy's
//!   escalation syscalls;
//! * no detector false-positives on the benign browsing workload;
//! * repeated matrix runs render byte-identical summaries.
//!
//! Wall-time numbers are recorded, never asserted.

use serde::Serialize;
use std::time::Instant;

#[derive(serde::Serialize)]
struct PairRow {
    strategy: String,
    detector: String,
    detected_rounds: usize,
    rounds: usize,
    time_to_detect_ms: u64,
    false_positives: u64,
    blocked_escalations: u64,
}

#[derive(serde::Serialize)]
struct StrategyRow {
    strategy: String,
    rounds: usize,
    probes: u64,
    located_rounds: usize,
    /// Best-of-rounds wall time for the strategy's sessions plus all
    /// three detector judgments, microseconds.
    wall_us: u64,
}

#[derive(serde::Serialize)]
struct DefenseReport {
    rounds: usize,
    seed: u64,
    strategies: Vec<StrategyRow>,
    pairs: Vec<PairRow>,
    total_wall_us: u64,
    /// Stealth went undetected by the rate threshold in every round.
    stealth_evades_rate: bool,
    /// CUSUM caught every stealth round.
    stealth_caught_by_cusum: bool,
    /// The rate threshold caught every linear and burst round.
    rate_catches_loud: bool,
    /// The serving-phase filter blocked every located strategy's
    /// escalation syscalls.
    filter_blocks_escalations: bool,
    /// No detector raised a false positive on benign browsing.
    zero_false_positives: bool,
    /// Repeated matrix runs rendered byte-identical summaries.
    deterministic: bool,
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn render(matrix: &[cr_arena::ArenaSummary]) -> String {
    let mut out = String::new();
    for s in matrix {
        out.push_str(&s.to_json());
        out.push('\n');
    }
    out
}

fn main() {
    print!(
        "{}",
        cr_core::report::banner("arena bench — probing strategies vs the detector roster (§VII-C)")
    );
    let bench_rounds = env_u64("ARENA_BENCH_ROUNDS", 3).max(1) as usize;
    let seed = env_u64("ARENA_BENCH_SEED", 2017);
    let out_path = std::env::var("ARENA_BENCH_OUT").unwrap_or_else(|_| "BENCH_defense.json".into());
    let cfg = cr_arena::ArenaConfig {
        seed,
        ..cr_arena::ArenaConfig::default()
    };

    eprintln!(
        "[arena_bench] {} strategy grid x {bench_rounds} bench round(s), seed {seed} ...",
        cr_arena::StrategyKind::ALL.len()
    );
    let mut matrix = Vec::new();
    let mut walls = vec![u64::MAX; cr_arena::StrategyKind::ALL.len()];
    let mut deterministic = true;
    let mut baseline: Option<String> = None;
    for _ in 0..bench_rounds {
        let mut round = Vec::with_capacity(cr_arena::StrategyKind::ALL.len());
        for (i, kind) in cr_arena::StrategyKind::ALL.into_iter().enumerate() {
            let start = Instant::now();
            let summary = cr_arena::run_strategy(kind, &cfg, &mut |_| false);
            walls[i] = walls[i].min(start.elapsed().as_micros() as u64);
            round.push(summary);
        }
        let rendered = render(&round);
        if let Some(prev) = &baseline {
            if *prev != rendered {
                eprintln!("[arena_bench] DETERMINISM FAILURE across matrix runs");
                deterministic = false;
            }
        }
        baseline = Some(rendered);
        matrix = round;
    }

    let cell = |strategy: &str, detector: &str| {
        matrix
            .iter()
            .find(|s| s.strategy == strategy)
            .and_then(|s| s.pairs.iter().find(|p| p.detector == detector))
            .unwrap_or_else(|| panic!("missing matrix cell {strategy}/{detector}"))
    };
    let rounds_of = |strategy: &str| {
        matrix
            .iter()
            .find(|s| s.strategy == strategy)
            .map(|s| s.rounds)
            .unwrap_or(0)
    };
    let stealth_evades_rate = cell("stealth", "rate").detected_rounds == 0;
    let stealth_caught_by_cusum = cell("stealth", "cusum").detected_rounds == rounds_of("stealth");
    let rate_catches_loud = ["linear", "burst"]
        .iter()
        .all(|s| cell(s, "rate").detected_rounds == rounds_of(s));
    let escalation_len = cr_arena::ESCALATION.len() as u64;
    let filter_blocks_escalations = matrix.iter().all(|s| {
        s.pairs
            .iter()
            .find(|p| p.detector == "filter")
            .is_some_and(|p| p.blocked_escalations == escalation_len * s.located_rounds as u64)
    });
    let zero_false_positives = matrix
        .iter()
        .flat_map(|s| &s.pairs)
        .all(|p| p.false_positives == 0);

    let strategies: Vec<StrategyRow> = matrix
        .iter()
        .zip(&walls)
        .map(|(s, &wall)| StrategyRow {
            strategy: s.strategy.clone(),
            rounds: s.rounds,
            probes: s.probes,
            located_rounds: s.located_rounds,
            wall_us: wall,
        })
        .collect();
    let pairs: Vec<PairRow> = matrix
        .iter()
        .flat_map(|s| {
            s.pairs.iter().map(|p| PairRow {
                strategy: s.strategy.clone(),
                detector: p.detector.clone(),
                detected_rounds: p.detected_rounds,
                rounds: s.rounds,
                time_to_detect_ms: p.time_to_detect_ms,
                false_positives: p.false_positives,
                blocked_escalations: p.blocked_escalations,
            })
        })
        .collect();
    let report = DefenseReport {
        rounds: bench_rounds,
        seed,
        strategies,
        pairs,
        total_wall_us: walls.iter().sum(),
        stealth_evades_rate,
        stealth_caught_by_cusum,
        rate_catches_loud,
        filter_blocks_escalations,
        zero_false_positives,
        deterministic,
    };
    let json = report.to_json();
    println!("{json}");
    std::fs::write(&out_path, format!("{json}\n")).expect("write bench report");
    eprintln!("[arena_bench] wrote {out_path}");

    assert!(
        stealth_evades_rate,
        "stealth must evade the naive rate threshold"
    );
    assert!(
        stealth_caught_by_cusum,
        "CUSUM must catch every stealth round"
    );
    assert!(
        rate_catches_loud,
        "the rate threshold must catch linear and burst probing"
    );
    assert!(
        filter_blocks_escalations,
        "the serving-phase filter must block every escalation syscall"
    );
    assert!(
        zero_false_positives,
        "no detector may false-positive on benign browsing"
    );
    assert!(
        deterministic,
        "matrix summaries must be byte-identical across runs"
    );
}
