//! Table-I pipeline bench: per server, the wall time of discovery and
//! of its observation phase, and how many of the invalidation phase's
//! virtual steps the emulator actually stepped, as machine-readable
//! JSON written to `BENCH_discover.json` in the working directory.
//!
//! Timings are the best of 3 rounds. The invalidation phase is measured
//! separately: for each candidate, one exercise of a freshly booted
//! server under a `CorruptMonitor` armed with the candidate's source
//! cells (the run in which a corrupted pointer is first consumed).
//!
//! Asserts that every round's reports are byte-identical. Wall times
//! are recorded, never asserted.

use cr_core::syscall_finder::{discover_server, observe_server, CorruptMonitor, BAD_POINTER};
use cr_isa::Inst;
use cr_os::OsHook;
use cr_vm::{Cpu, Hook, Memory, NullHook};
use serde::Serialize;
use std::time::Instant;

const ROUNDS: usize = 3;

#[derive(serde::Serialize)]
struct ServerRow {
    server: String,
    /// Best-of-rounds wall time of `discover_server`, microseconds.
    discover_us: u64,
    /// Best-of-rounds wall time of `observe_server`, microseconds.
    observe_us: u64,
    /// Virtual time (in steps) the invalidation phase advanced, summed
    /// over candidates; idle jumps to a timer count too.
    invalidation_virtual_steps: u64,
    /// Of those, the instructions the emulator stepped one at a time.
    invalidation_stepped: u64,
    findings: usize,
    usable: usize,
}

#[derive(serde::Serialize)]
struct DiscoverReport {
    rounds: usize,
    servers: Vec<ServerRow>,
    total_discover_us: u64,
    /// Every round produced byte-identical reports.
    deterministic: bool,
}

/// A `CorruptMonitor` that also counts the instructions it is shown.
/// It reports that it does not observe, as the monitor does, so the
/// scheduler still skips fixed-point cycles and the count is exactly
/// the stepped ones.
struct Tally {
    monitor: CorruptMonitor,
    stepped: u64,
}

impl Hook for Tally {
    fn on_inst(&mut self, cpu: &Cpu, mem: &mut Memory, inst: &Inst, va: u64, len: usize) {
        self.stepped += 1;
        self.monitor.on_inst(cpu, mem, inst, va, len);
    }

    fn observes(&self) -> bool {
        false
    }
}

impl OsHook for Tally {}

/// Best-of-rounds wall time of `f` in microseconds, and each round's
/// result.
fn best_of<T>(mut f: impl FnMut() -> T) -> (u64, Vec<T>) {
    let mut best = u64::MAX;
    let mut outs = Vec::new();
    for _ in 0..ROUNDS {
        let start = Instant::now();
        outs.push(f());
        best = best.min(start.elapsed().as_micros() as u64);
    }
    (best, outs)
}

fn main() {
    print!(
        "{}",
        cr_core::report::banner("discover bench — the Table-I pipeline per server")
    );
    let mut rows = Vec::new();
    let mut deterministic = true;
    for target in cr_targets::all_servers() {
        let (discover_us, reports) = best_of(|| discover_server(&target));
        let (observe_us, monitors) = best_of(|| observe_server(&target));
        deterministic &= reports.iter().all(|r| r.to_json() == reports[0].to_json());
        deterministic &= monitors
            .iter()
            .all(|m| m.site_provenances() == monitors[0].site_provenances());
        let (mut virtual_steps, mut stepped) = (0, 0);
        for cand in monitors[0].candidates.values() {
            if cand.sources.is_empty() {
                continue;
            }
            let mut p = target.boot(&mut NullHook);
            let mut tally = Tally {
                monitor: CorruptMonitor::new(cand.sources.clone(), BAD_POINTER),
                stepped: 0,
            };
            let start = p.vtime;
            (target.exercise)(&mut p, &mut tally);
            virtual_steps += p.vtime - start;
            stepped += tally.stepped;
        }
        eprintln!(
            "[discover_bench] {:<10} discover {discover_us} us, observe {observe_us} us, \
             invalidation stepped {stepped} of {virtual_steps} steps",
            target.name
        );
        rows.push(ServerRow {
            server: target.name.to_string(),
            discover_us,
            observe_us,
            invalidation_virtual_steps: virtual_steps,
            invalidation_stepped: stepped,
            findings: reports[0].findings.len(),
            usable: reports[0].usable().len(),
        });
    }
    let report = DiscoverReport {
        rounds: ROUNDS,
        total_discover_us: rows.iter().map(|r| r.discover_us).sum(),
        servers: rows,
        deterministic,
    };
    let json = report.to_json();
    println!("{json}");
    std::fs::write("BENCH_discover.json", format!("{json}\n")).expect("write bench report");
    eprintln!("[discover_bench] wrote BENCH_discover.json");
    assert!(deterministic, "discovery reports differ between rounds");
}
