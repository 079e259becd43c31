//! Traceless-scanner bench: per-module scan throughput plus the
//! static/dynamic site-agreement table, as machine-readable JSON
//! written to `BENCH_static.json`.
//!
//! The corpus is every calibrated server target plus every bundled
//! harness-less corpus module. Two measurements:
//!
//! 1. **throughput** — full [`cr_scan::scan_elf`] per module (CFG
//!    recovery, temporal reachability, per-site dataflow), best of
//!    `SCAN_BENCH_ROUNDS` (default 3) to shed scheduling noise;
//! 2. **agreement** — for each server, [`cr_scan::cross_validate`]
//!    against the dynamic taint observer: matched / static-only /
//!    taint-only site counts and static-side recall.
//!
//! Asserts the correctness invariants while it measures: static
//! recall must be 100% against every taint-confirmed site set, and
//! report bytes must be identical across repeated scans. Wall-time
//! numbers are recorded, never asserted — timing belongs in the JSON,
//! not in CI pass/fail.

use serde::Serialize;
use std::time::Instant;

#[derive(serde::Serialize)]
struct ModuleRow {
    module: String,
    functions: usize,
    instructions: usize,
    sites: usize,
    constant: usize,
    memory: usize,
    unknown: usize,
    init_only: usize,
    serving: usize,
    both: usize,
    unreached: usize,
    /// Best-of-rounds wall time for one full scan, microseconds.
    wall_us: u64,
    /// Syscall sites resolved per second at the best-of-rounds wall.
    sites_per_sec: f64,
    /// Instructions walked per second at the best-of-rounds wall.
    insts_per_sec: f64,
}

#[derive(serde::Serialize)]
struct AgreementRow {
    module: String,
    matched: usize,
    static_only: usize,
    taint_only: usize,
    recall: f64,
}

#[derive(serde::Serialize)]
struct StaticReport {
    rounds: usize,
    modules: Vec<ModuleRow>,
    agreement: Vec<AgreementRow>,
    total_sites: usize,
    total_instructions: usize,
    total_wall_us: u64,
    sites_per_sec: f64,
    /// Static recall was 1.0 against every dynamic site set.
    recall_100: bool,
    /// Repeated scans produced byte-identical reports.
    deterministic: bool,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    print!(
        "{}",
        cr_core::report::banner("scan bench — traceless static discovery vs the taint observer")
    );
    let rounds = env_usize("SCAN_BENCH_ROUNDS", 3).max(1);
    let out_path = std::env::var("SCAN_BENCH_OUT").unwrap_or_else(|_| "BENCH_static.json".into());

    let servers = cr_targets::all_servers();
    let mut corpus: Vec<(&str, &cr_image::ElfImage)> =
        servers.iter().map(|t| (t.name, &t.image)).collect();
    let modules = cr_targets::corpus::modules();
    for m in &modules {
        corpus.push((m.name, &m.image));
    }

    let mut rows = Vec::with_capacity(corpus.len());
    let mut deterministic = true;
    eprintln!(
        "[scan_bench] scanning {} module(s) x {rounds} round(s) ...",
        corpus.len()
    );
    for (name, image) in &corpus {
        let mut wall = u64::MAX;
        let mut report = None;
        for _ in 0..rounds {
            let start = Instant::now();
            let r = cr_scan::scan_elf(name, image);
            wall = wall.min(start.elapsed().as_micros() as u64);
            if let Some(prev) = &report {
                if cr_scan::ScanReport::to_json(prev) != r.to_json() {
                    eprintln!("[scan_bench] DETERMINISM FAILURE on {name}");
                    deterministic = false;
                }
            }
            report = Some(r);
        }
        let report = report.expect("at least one round");
        let c = report.counts();
        let secs = wall.max(1) as f64 / 1e6;
        rows.push(ModuleRow {
            module: report.module.clone(),
            functions: report.functions,
            instructions: report.instructions,
            sites: c.sites,
            constant: c.constant,
            memory: c.memory,
            unknown: c.unknown,
            init_only: c.init_only,
            serving: c.serving,
            both: c.both,
            unreached: c.unreached,
            wall_us: wall,
            sites_per_sec: c.sites as f64 / secs,
            insts_per_sec: report.instructions as f64 / secs,
        });
    }

    eprintln!(
        "[scan_bench] cross-validating {} server(s) ...",
        servers.len()
    );
    let mut agreement = Vec::with_capacity(servers.len());
    let mut recall_100 = true;
    for t in &servers {
        let (_, a) = cr_scan::cross_validate(t);
        if a.recall() < 1.0 || !a.taint_only.is_empty() {
            eprintln!(
                "[scan_bench] RECALL FAILURE on {}: missed {:x?}",
                t.name, a.taint_only
            );
            recall_100 = false;
        }
        agreement.push(AgreementRow {
            module: a.module.clone(),
            matched: a.matched.len(),
            static_only: a.static_only.len(),
            taint_only: a.taint_only.len(),
            recall: a.recall(),
        });
    }

    let total_sites: usize = rows.iter().map(|r| r.sites).sum();
    let total_instructions: usize = rows.iter().map(|r| r.instructions).sum();
    let total_wall_us: u64 = rows.iter().map(|r| r.wall_us).sum();
    let report = StaticReport {
        rounds,
        modules: rows,
        agreement,
        total_sites,
        total_instructions,
        total_wall_us,
        sites_per_sec: total_sites as f64 / (total_wall_us.max(1) as f64 / 1e6),
        recall_100,
        deterministic,
    };
    let json = report.to_json();
    println!("{json}");
    std::fs::write(&out_path, format!("{json}\n")).expect("write bench report");
    eprintln!("[scan_bench] wrote {out_path}");

    assert!(
        recall_100,
        "static recall must be 100% on the calibrated corpus"
    );
    assert!(
        deterministic,
        "scan reports must be byte-identical across runs"
    );
    assert!(total_sites > 0, "the corpus must contain syscall sites");
}
