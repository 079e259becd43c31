//! Exactness of the Windows scheduler's idle fast-forward.
//!
//! Under [`NullHook`] the scheduler skips whole cycles of a polling
//! thread that sits at a fixed point (`WinProc::schedule_slice`); an
//! observing hook such as [`CoverageHook`] disables the skip. Each
//! scenario runs once per hook, and the two runs must agree on virtual
//! time, every thread's registers, flags and retired steps, the fault
//! log, every mapped byte, and each run/call outcome.

use cr_isa::{AluOp, Asm, Cond, Inst, Mem as M, Reg, Rm, Width};
use cr_os::windows::api::ApiTable;
use cr_os::windows::{FaultEvent, WinProc, STATUS_ACCESS_VIOLATION};
use cr_os::OsHook;
use cr_vm::{CoverageHook, Cpu, Flags, Hook, Memory, NullHook, Prot};
use Reg::*;

const CODE: u64 = 0x4_0000_0000;
const DATA: u64 = 0x4_0001_0000;
/// Job word: the address to probe, or 0 when idle.
const JOB: u64 = DATA;
/// Probe answer: 1 = mapped, 2 = faulted.
const RESULT: u64 = DATA + 8;
/// Set by the VEH when it swallows a fault.
const FLAG: u64 = DATA + 0x100;
/// Counter for the store-before-hlt loop and the sleeper.
const COUNTER: u64 = DATA + 0x200;

/// Everything the two runs of a scenario must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    vtime: u64,
    /// `(tid, steps, regs, rip, flags)` per thread.
    threads: Vec<(u32, u64, [u64; 16], u64, Flags)>,
    fault_log: Vec<FaultEvent>,
    /// `(page base, protection, bytes)` for every mapped page.
    memory: Vec<(u64, Prot, Vec<u8>)>,
    /// What each run, call and probe returned, rendered.
    exits: Vec<String>,
}

fn outcome(p: &WinProc, exits: Vec<String>) -> Outcome {
    let threads = p
        .thread_states()
        .into_iter()
        .map(|(tid, _, _)| {
            let cpu = p.thread_cpu(tid).expect("listed thread");
            (tid, cpu.steps, cpu.regs, cpu.rip, cpu.flags)
        })
        .collect();
    let mut pages: Vec<(u64, Prot)> = p.mem.pages().collect();
    pages.sort_by_key(|&(base, _)| base);
    let memory = pages
        .into_iter()
        .map(|(base, prot)| {
            let mut bytes = vec![0u8; cr_vm::PAGE_SIZE as usize];
            p.mem.peek(base, &mut bytes).expect("mapped page");
            (base, prot, bytes)
        })
        .collect();
    Outcome {
        vtime: p.vtime,
        threads,
        fault_log: p.fault_log.clone(),
        memory,
        exits,
    }
}

/// Run `scenario` under [`NullHook`] (fast-forward on) and under
/// [`CoverageHook`] (every instruction stepped); both must agree.
fn assert_exact(scenario: impl Fn(&mut dyn OsHook) -> Outcome) -> Outcome {
    let fast = scenario(&mut NullHook);
    let stepped = scenario(&mut CoverageHook::new());
    assert_eq!(fast, stepped, "fast-forward diverged from stepping");
    fast
}

/// Emit the firefox-sim worker: poll the job word, probe through a
/// VEH-guarded load, publish the answer, and yield with `hlt`.
fn emit_poller(a: &mut Asm) {
    a.global("Worker");
    a.mov_ri(R12, JOB);
    let top = a.here();
    let idle = a.fresh();
    a.load(Rax, M::base(R12));
    a.test_rr(Rax);
    a.jcc(Cond::E, idle);
    a.mov_ri(R9, FLAG);
    a.store_i(M::base(R9), 0);
    a.load(R8, M::base(Rax)); // the probe (the VEH swallows faults)
    a.load(Rax, M::base(R9));
    a.add_ri(Rax, 1);
    a.store(M::base_disp(R12, (RESULT - JOB) as i32), Rax);
    a.store_i(M::base(R12), 0);
    a.bind(idle);
    a.hlt();
    a.jmp(top);
    a.align(16);
}

/// A process with `build`'s code at [`CODE`] and the data page mapped.
fn process(build: impl FnOnce(&mut Asm, &ApiTable)) -> (WinProc, cr_isa::Assembled) {
    let api = ApiTable::curated_only();
    let mut a = Asm::new(CODE);
    build(&mut a, &api);
    let asm = a.assemble().expect("assembles");
    let mut p = WinProc::new(api);
    p.mem.map(CODE, 0x1000, Prot::RX);
    p.mem.poke(CODE, &asm.code).expect("code fits");
    p.mem.map(DATA, 0x1000, Prot::RW);
    (p, asm)
}

/// Post a job and run 600-step slices until the worker answers, like
/// `firefox::probe`.
fn probe(p: &mut WinProc, addr: u64, hook: &mut dyn OsHook, exits: &mut Vec<String>) -> u64 {
    p.mem.write_u64(RESULT, 0).unwrap();
    p.mem.write_u64(JOB, addr).unwrap();
    for _ in 0..1000 {
        exits.push(format!("{:?}", p.run(600, hook)));
        let r = p.mem.read_u64(RESULT).unwrap();
        if r != 0 {
            return r;
        }
    }
    panic!("the worker never answered");
}

#[test]
fn firefox_probes_between_long_idles_match_stepping() {
    let out = assert_exact(|hook| {
        let (mut p, asm) = process(|a, _| {
            emit_poller(a);
            // VEH: flag and continue on AV, else continue searching.
            a.global("Veh");
            a.load(Rax, M::base(Rcx));
            a.inst(Inst::MovRRm {
                dst: Rax,
                src: Rm::Mem(M::base(Rax)),
                width: Width::B4,
            });
            a.inst(Inst::AluRmI {
                op: AluOp::Cmp,
                dst: Rm::Reg(Rax),
                imm: STATUS_ACCESS_VIOLATION as i32,
                width: Width::B4,
            });
            let not_av = a.fresh();
            a.jcc(Cond::Ne, not_av);
            a.mov_ri(R9, FLAG);
            a.store_i(M::base(R9), 1);
            a.mov_ri(Rax, u64::MAX);
            a.ret();
            a.bind(not_av);
            a.zero(Rax);
            a.ret();
            a.align(16);
            // A harness-called page render on the main thread.
            a.global("Render");
            a.mov_ri(R9, COUNTER);
            a.load(Rax, M::base(R9));
            a.add_ri(Rax, 1);
            a.store(M::base(R9), Rax);
            a.ret();
        });
        p.add_veh(asm.sym("Veh"));
        p.spawn_thread(asm.sym("Worker"), 0);
        let mut exits = Vec::new();
        // Stealth-sized, burst-sized and odd-sized idles.
        for (addr, idle) in [
            (0xdead_0000, 10_000),
            (DATA, 2_000_000),
            (0xbeef_0000, 10_003),
        ] {
            let r = probe(&mut p, addr, hook, &mut exits);
            exits.push(format!("probe {addr:#x} -> {r}"));
            exits.push(format!(
                "{:?}",
                p.call(asm.sym("Render"), &[], 100_000, hook)
            ));
            exits.push(format!("{:?}", p.run(idle, hook)));
        }
        outcome(&p, exits)
    });
    assert_eq!(out.fault_log.len(), 2, "one handled AV per unmapped probe");
    assert!(out.fault_log.iter().all(|f| f.handled));
    assert!(out.vtime > 2_020_000, "the idles ran: {}", out.vtime);
}

const TICKER_BUDGET: u64 = 300_000;

/// Run `body; hlt; jmp` in a loop on one thread for [`TICKER_BUDGET`]
/// steps, under both hooks.
fn ticker(body: impl Fn(&mut Asm)) -> Outcome {
    assert_exact(|hook| {
        let (mut p, asm) = process(|a, _| {
            a.global("Ticker");
            let top = a.here();
            body(a);
            a.hlt();
            a.jmp(top);
        });
        p.spawn_thread(asm.sym("Ticker"), 0);
        let exits = vec![format!("{:?}", p.run(TICKER_BUDGET, hook))];
        outcome(&p, exits)
    })
}

#[test]
fn a_loop_that_stores_before_hlt_is_never_skipped() {
    let out = ticker(|a| {
        a.mov_ri(Rbx, COUNTER);
        // `add qword [rbx], 1`: no register moves, only memory.
        a.inst(Inst::AluRmI {
            op: AluOp::Add,
            dst: Rm::Mem(M::base(Rbx)),
            imm: 1,
            width: Width::B8,
        });
    });
    let page = out
        .memory
        .iter()
        .find(|(base, _, _)| *base == DATA)
        .expect("data page");
    let off = (COUNTER - DATA) as usize;
    let ticks = u64::from_le_bytes(page.2[off..off + 8].try_into().unwrap());
    // Cycle: jmp, mov, add, hlt (the first cycle has no jmp).
    assert_eq!(ticks, (TICKER_BUDGET + 1) / 4, "every cycle stored");
}

#[test]
fn a_loop_that_counts_in_a_register_is_never_skipped() {
    let out = ticker(|a| {
        a.add_ri(Rcx, 1);
    });
    let ticker = out.threads.iter().find(|t| t.0 == 2).expect("ticker");
    // Cycle: jmp, add, hlt (the first cycle has no jmp).
    assert_eq!(
        ticker.2[Rcx.encoding() as usize],
        (TICKER_BUDGET + 1) / 3,
        "every cycle counted"
    );
}

#[test]
fn a_loop_that_toggles_a_flag_is_never_skipped() {
    // Only ZF alternates (rax stays 0), and it picks a 4- or a
    // 5-step cycle.
    ticker(|a| {
        let set = a.fresh();
        let done = a.fresh();
        a.jcc(Cond::Ne, set);
        a.cmp_ri(Rax, 1); // clears ZF
        a.jmp(done);
        a.bind(set);
        a.test_rr(Rax); // sets ZF
        a.bind(done);
    });
}

#[test]
fn a_sleeper_waking_mid_window_is_not_overslept() {
    let out = assert_exact(|hook| {
        let (mut p, asm) = process(|a, api| {
            emit_poller(a);
            // Sleep 1, 2, 3, ... ms; after each wake, bump the counter
            // and log the tick count.
            a.global("Sleeper");
            a.mov_ri(R12, 1);
            let top = a.here();
            a.mov_rr(Rcx, R12);
            a.mov_ri(Rax, api.address_of("Sleep"));
            a.call_reg(Rax);
            a.mov_ri(Rax, api.address_of("GetTickCount"));
            a.call_reg(Rax);
            a.mov_ri(Rbx, COUNTER);
            a.load(Rcx, M::base(Rbx));
            a.add_ri(Rcx, 1);
            a.store(M::base(Rbx), Rcx);
            a.store(M::base_index(Rbx, Rcx, 8, 0), Rax);
            a.add_ri(R12, 1);
            a.jmp(top);
        });
        p.spawn_thread(asm.sym("Worker"), 0);
        p.spawn_thread(asm.sym("Sleeper"), 0);
        let mut exits = Vec::new();
        for budget in [100_003, 7, 250_000, 1] {
            exits.push(format!("{:?}", p.run(budget, hook)));
        }
        let r = probe(&mut p, CODE, hook, &mut exits);
        exits.push(format!("probe -> {r}"));
        exits.push(format!("{:?}", p.run(50_000, hook)));
        outcome(&p, exits)
    });
    let sleeper = out.threads.iter().find(|t| t.0 == 3).expect("sleeper");
    assert!(
        sleeper.2[R12.encoding() as usize] > 20,
        "the sleeper woke many times"
    );
}

#[test]
fn a_busy_thread_keeps_the_poller_interleaved() {
    assert_exact(|hook| {
        let (mut p, asm) = process(|a, _| {
            emit_poller(a);
            // Count down without yielding, mark the counter, park.
            a.global("Cruncher");
            a.mov_ri(Rcx, 20_000);
            let spin = a.here();
            a.sub_ri(Rcx, 1);
            a.jcc(Cond::Ne, spin);
            a.mov_ri(Rbx, COUNTER);
            a.store_i(M::base(Rbx), 7);
            a.ret();
        });
        p.spawn_thread(asm.sym("Worker"), 0);
        p.spawn_thread(asm.sym("Cruncher"), 0);
        let exits = vec![format!("{:?}", p.run(200_000, hook))];
        outcome(&p, exits)
    });
}

#[test]
fn a_budget_ending_mid_cycle_stops_where_stepping_does() {
    assert_exact(|hook| {
        let (mut p, asm) = process(|a, _| emit_poller(a));
        p.spawn_thread(asm.sym("Worker"), 0);
        // The idle cycle is 5 steps; none of these budgets is a multiple.
        let exits = [3, 400_001, 17, 99_998, 2, 234_567]
            .into_iter()
            .map(|budget| format!("{:?}", p.run(budget, hook)))
            .collect();
        outcome(&p, exits)
    });
}

#[test]
fn fast_forward_engages_under_the_null_hook() {
    // 2^40 idle steps would take hours to emulate one by one.
    const BUDGET: u64 = 1 << 40;
    let (mut p, asm) = process(|a, _| emit_poller(a));
    let tid = p.spawn_thread(asm.sym("Worker"), 0);
    let exit = p.run(BUDGET, &mut NullHook);
    assert_eq!(format!("{exit:?}"), "StepLimit");
    assert_eq!(p.vtime, BUDGET);
    assert_eq!(
        p.thread_cpu(tid).unwrap().steps,
        BUDGET,
        "every step retired"
    );
}

/// Counts the instructions it is shown; observes, like every hook but
/// [`NullHook`].
struct Counter(u64);

impl Hook for Counter {
    fn on_inst(&mut self, _: &Cpu, _: &mut Memory, _: &Inst, _: u64, _: usize) {
        self.0 += 1;
    }
}

impl OsHook for Counter {}

#[test]
fn an_observing_hook_sees_every_instruction() {
    let (mut p, asm) = process(|a, _| emit_poller(a));
    let tid = p.spawn_thread(asm.sym("Worker"), 0);
    let mut seen = Counter(0);
    p.run(100_000, &mut seen);
    assert_eq!(p.thread_cpu(tid).unwrap().steps, 100_000);
    assert_eq!(seen.0, 100_000, "no idle cycle was skipped");
}
