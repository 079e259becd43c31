//! `CorruptMonitor` lets the Linux scheduler fast-forward the `-EFAULT`
//! spin it causes, and nothing it records changes for it.
//!
//! The monitor does not observe, so with it alone the scheduler skips
//! the spin of Cherokee's corrupted `epoll_wait` worker (paper §VI-D);
//! paired with `CoverageHook` every instruction is stepped. Both runs of
//! Table I's invalidation steps (corrupt and exercise, then restore and
//! exercise again) must agree on virtual time, the `-EFAULT` count,
//! every thread, every mapped byte, the service verdicts and the
//! monitor's `pokes` and `originals`.

use cr_core::syscall_finder::{CorruptMonitor, BAD_POINTER};
use cr_os::OsHook;
use cr_targets::servers::cherokee::{CTX_STRIDE, CTX_TABLE};
use cr_vm::{CoverageHook, PairHook, Prot};
use std::collections::{BTreeMap, BTreeSet};

/// Everything the two runs must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    vtime: u64,
    efaults: u64,
    served: Vec<bool>,
    pokes: u32,
    originals: BTreeMap<u64, u64>,
    /// `(tid, steps, regs, rip, blocked, exited)` per thread.
    threads: Vec<(u32, u64, [u64; 16], u64, bool, bool)>,
    /// `(page base, protection, bytes)` for every mapped page.
    memory: Vec<(u64, Prot, Vec<u8>)>,
}

/// Table I's invalidation of `cells` on Cherokee, with `hook` wrapping
/// the monitor that `monitor` digs out of it.
fn invalidate<H: OsHook>(
    cells: &BTreeSet<u64>,
    wrap: impl Fn(CorruptMonitor) -> H,
    monitor: impl Fn(&mut H) -> &mut CorruptMonitor,
) -> Outcome {
    let target = cr_targets::servers::cherokee::target();
    let mut p = target.boot(&mut cr_vm::NullHook);
    let mut hook = wrap(CorruptMonitor::new(cells.clone(), BAD_POINTER));
    let mut served = vec![(target.exercise)(&mut p, &mut hook)];
    let cm = monitor(&mut hook);
    cm.armed = false;
    cm.restore(&mut p.mem);
    served.push((target.exercise)(&mut p, &mut hook));
    let cm = monitor(&mut hook);
    let mut pages: Vec<(u64, Prot)> = p.mem.pages().collect();
    pages.sort_by_key(|&(base, _)| base);
    Outcome {
        vtime: p.vtime,
        efaults: p.efault_count,
        served,
        pokes: cm.pokes,
        originals: cm.originals.clone(),
        threads: p
            .threads()
            .iter()
            .map(|t| {
                let c = &t.cpu;
                (t.tid, c.steps, c.regs, c.rip, t.blocked(), t.exited())
            })
            .collect(),
        memory: pages
            .into_iter()
            .map(|(base, prot)| {
                let mut bytes = vec![0u8; cr_vm::PAGE_SIZE as usize];
                p.mem.peek(base, &mut bytes).expect("mapped page");
                (base, prot, bytes)
            })
            .collect(),
    }
}

/// The monitor alone (skipping) against the monitor paired with
/// coverage (stepping).
fn assert_exact(cells: BTreeSet<u64>) -> Outcome {
    let fast = invalidate(&cells, |cm| cm, |cm| cm);
    let stepped = invalidate(&cells, |cm| PairHook(cm, CoverageHook::new()), |h| &mut h.0);
    assert_eq!(fast, stepped, "fast-forward diverged from stepping");
    fast
}

fn ev_ptr(worker: u64) -> u64 {
    CTX_TABLE + worker * CTX_STRIDE + 8
}

#[test]
fn corrupting_one_worker_matches_stepping() {
    for w in 0..cr_targets::servers::cherokee::WORKERS {
        let out = assert_exact(BTreeSet::from([ev_ptr(w)]));
        assert_eq!(out.served, [true, true], "worker {w}: service continues");
        assert!(out.efaults > 100_000, "worker {w} spun: {}", out.efaults);
        assert_eq!(out.originals.len(), 1);
    }
}

#[test]
fn corrupting_every_worker_reproduces_table_one() {
    let out = assert_exact(
        (0..cr_targets::servers::cherokee::WORKERS)
            .map(ev_ptr)
            .collect(),
    );
    assert_eq!(out.served, [true, true]);
    // The epoll_wait cell of Table I (scripts/golden/paper/table1.txt).
    assert_eq!(out.efaults, 512_250);
    assert_eq!(out.originals.len(), 3);
}
