//! Exactness of the Linux scheduler's `-EFAULT` spin fast-forward.
//!
//! Under [`NullHook`] the scheduler skips whole cycles of a thread that
//! loops on a syscall failing before it touches any kernel state, once
//! the loop sits at a fixed point (`LinuxProc::fast_forward`); an
//! observing hook such as [`CoverageHook`] disables the skip. Each
//! scenario runs once per hook, and the two runs must agree on virtual
//! time, the `-EFAULT` count, every thread's registers, flags, `rip`,
//! retired steps and run state, every mapped byte, and each run outcome
//! and client reply.
//!
//! The scenarios drive a small Cherokee-like server: a supervisor thread
//! sleeping 10 ms at a time and three workers, each looping on
//! `epoll_wait` (1 s timeout) over its own epoll instance, with the
//! event-buffer and request-buffer pointers in a per-worker context the
//! driver can corrupt.

use cr_image::{ElfImage, ElfSegment, SegPerm};
use cr_isa::{Asm, Cond, Mem as M, Reg};
use cr_os::linux::{syscall::nr, LinuxProc, RunExit};
use cr_os::OsHook;
use cr_vm::{CoverageHook, Cpu, Flags, Hook, Memory, NullHook, Prot};
use Reg::*;

const CODE: u64 = 0x40_0000;
const DATA: u64 = 0x60_0000;
const LISTEN_FD: u64 = DATA;
/// `timespec {0 s, 10 ms}` for the supervisor's `nanosleep`.
const TIMESPEC: u64 = DATA + 0x40;
const SOCKADDR: u64 = DATA + 0x60;
/// Worker contexts: `{epfd, ev_ptr, buf_ptr, pad}` × [`WORKERS`].
const CTX: u64 = DATA + 0x100;
const CTX_STRIDE: u64 = 32;
const EV_BUFS: u64 = DATA + 0x400;
const REQ_BUFS: u64 = DATA + 0x800;
/// The supervisor's wake times: a ring of 256 `timespec`s.
const WAKE_LOG: u64 = DATA + 0x1000;
const PORT: u16 = 8090;
const WORKERS: u64 = 3;
const BAD: u64 = 0xdead_0000;

/// Worker `w`'s event-buffer pointer cell.
fn ev_ptr(w: u64) -> u64 {
    CTX + w * CTX_STRIDE + 8
}

/// Worker `w`'s request-buffer pointer cell.
fn buf_ptr(w: u64) -> u64 {
    CTX + w * CTX_STRIDE + 16
}

fn sys(a: &mut Asm, n: u64) {
    a.mov_ri(Rax, n);
    a.syscall();
}

/// The server: listen, clone the workers, then sleep 10 ms at a time,
/// logging the time of every wake (so a late or early wake shows).
/// A worker answers each connection by echoing it byte by byte (one
/// 1-byte `read` per byte) until the client closes.
fn server() -> ElfImage {
    let mut a = Asm::new(CODE);
    a.global("entry");
    sys(&mut a, nr::SOCKET);
    a.mov_ri(R11, LISTEN_FD);
    a.store(M::base(R11), Rax);
    a.mov_rr(Rdi, Rax);
    a.mov_ri(Rsi, SOCKADDR);
    a.mov_ri(Rdx, 16);
    sys(&mut a, nr::BIND);
    a.mov_ri(Rdi, LISTEN_FD);
    a.load(Rdi, M::base(Rdi));
    a.mov_ri(Rsi, 16);
    sys(&mut a, nr::LISTEN);

    // Clone the workers, each with its context address on its stack.
    let worker = a.fresh();
    let spawned = a.fresh();
    a.zero(R14);
    let spawn = a.here();
    a.cmp_ri(R14, WORKERS as i32);
    a.jcc(Cond::Ge, spawned);
    a.zero(Rdi);
    a.mov_ri(Rsi, 0x8000);
    sys(&mut a, nr::MMAP);
    a.add_ri(Rax, 0x7000);
    a.mov_rr(Rsi, Rax);
    a.mov_rr(R11, R14);
    a.shl(R11, 5);
    a.mov_ri(R10, CTX);
    a.add_rr(R10, R11);
    a.store(M::base(Rsi), R10);
    a.zero(Rdi);
    sys(&mut a, nr::CLONE);
    a.cmp_ri(Rax, 0);
    a.jcc(Cond::E, worker);
    a.add_ri(R14, 1);
    a.jmp(spawn);

    // Supervisor.
    a.bind(spawned);
    a.zero(R15);
    let nap = a.here();
    a.mov_ri(Rdi, TIMESPEC);
    a.zero(Rsi);
    sys(&mut a, nr::NANOSLEEP);
    let logged = a.fresh();
    a.cmp_ri(R15, 256);
    a.jcc(Cond::L, logged);
    a.zero(R15);
    a.bind(logged);
    a.mov_rr(Rsi, R15);
    a.shl(Rsi, 4);
    a.mov_ri(R11, WAKE_LOG);
    a.add_rr(Rsi, R11);
    a.zero(Rdi);
    sys(&mut a, nr::GETTIME);
    a.add_ri(R15, 1);
    a.jmp(nap);

    // Worker: own epoll instance watching the listener.
    a.bind(worker);
    a.load(R12, M::base(Rsp));
    sys(&mut a, nr::EPOLL_CREATE1);
    a.store(M::base(R12), Rax);
    a.sub_ri(Rsp, 32);
    a.store_i(M::base(Rsp), 1);
    a.store_i(M::base_disp(Rsp, 4), 0xFF);
    a.load(Rdi, M::base(R12));
    a.mov_ri(Rsi, 1);
    a.mov_ri(Rdx, LISTEN_FD);
    a.load(Rdx, M::base(Rdx));
    a.mov_rr(R10, Rsp);
    sys(&mut a, nr::EPOLL_CTL);
    // epoll_wait(ctx.epfd, ctx.ev_ptr, 4, 1000 ms); loop on <= 0: a
    // corrupted ev_ptr makes this a tight -EFAULT spin. It takes 9
    // steps, one more than Cherokee's, so its phase drifts against the
    // 256-step quantum.
    let wait = a.here();
    a.mov_ri(Rcx, 9);
    a.load(Rdi, M::base(R12));
    a.load(Rsi, M::base_disp(R12, 8));
    a.mov_ri(Rdx, 4);
    a.mov_ri(R10, 1000);
    sys(&mut a, nr::EPOLL_WAIT);
    a.cmp_ri(Rax, 0);
    a.jcc(Cond::Le, wait);
    a.mov_ri(Rdi, LISTEN_FD);
    a.load(Rdi, M::base(Rdi));
    a.zero(Rsi);
    a.zero(Rdx);
    a.mov_ri(R10, 0x800); // SOCK_NONBLOCK: another worker may have won
    sys(&mut a, nr::ACCEPT4);
    a.cmp_ri(Rax, 0);
    a.jcc(Cond::L, wait);
    a.mov_rr(R13, Rax);
    // read(conn, ctx.buf_ptr, 1): a corrupted buf_ptr consumes the byte
    // and then fails with -EFAULT, and the worker retries.
    let close = a.fresh();
    let read = a.here();
    a.mov_rr(Rdi, R13);
    a.load(Rsi, M::base_disp(R12, 16));
    a.mov_ri(Rdx, 1);
    sys(&mut a, nr::READ);
    a.cmp_ri(Rax, -14);
    a.jcc(Cond::E, read);
    a.cmp_ri(Rax, 0);
    a.jcc(Cond::Le, close);
    a.mov_rr(Rdx, Rax);
    a.mov_rr(Rdi, R13);
    a.load(Rsi, M::base_disp(R12, 16));
    sys(&mut a, nr::WRITE);
    a.jmp(read);
    a.bind(close);
    a.mov_rr(Rdi, R13);
    sys(&mut a, nr::CLOSE);
    a.jmp(wait);
    let asm = a.assemble().expect("assembles");

    let mut data = vec![0u8; 0x2000];
    let mut put = |at: u64, bytes: &[u8]| {
        let off = (at - DATA) as usize;
        data[off..off + bytes.len()].copy_from_slice(bytes);
    };
    put(TIMESPEC + 8, &10_000_000u64.to_le_bytes());
    put(SOCKADDR, &[2, 0]);
    put(SOCKADDR + 2, &PORT.to_be_bytes());
    for w in 0..WORKERS {
        put(ev_ptr(w), &(EV_BUFS + w * 64).to_le_bytes());
        put(buf_ptr(w), &(REQ_BUFS + w * 0x100).to_le_bytes());
    }
    ElfImage {
        entry: asm.sym("entry"),
        segments: vec![
            ElfSegment {
                vaddr: asm.base,
                memsz: asm.code.len() as u64,
                data: asm.code,
                perm: SegPerm::RX,
            },
            ElfSegment {
                vaddr: DATA,
                memsz: 0x2000,
                data,
                perm: SegPerm::RW,
            },
        ],
        symbols: asm.symbols,
    }
}

/// Everything the two runs of a scenario must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    vtime: u64,
    efaults: u64,
    console: Vec<u8>,
    threads: Vec<ThreadEnd>,
    /// `(page base, protection, bytes)` for every mapped page.
    memory: Vec<(u64, Prot, Vec<u8>)>,
    /// Each run's exit and each client reply, rendered.
    log: Vec<String>,
}

/// One thread's architectural and run state.
#[derive(Debug, PartialEq)]
struct ThreadEnd {
    tid: u32,
    steps: u64,
    regs: [u64; 16],
    rip: u64,
    flags: Flags,
    blocked: bool,
    exited: bool,
}

fn outcome(p: &LinuxProc, log: Vec<String>) -> Outcome {
    let threads = p
        .threads()
        .iter()
        .map(|t| ThreadEnd {
            tid: t.tid,
            steps: t.cpu.steps,
            regs: t.cpu.regs,
            rip: t.cpu.rip,
            flags: t.cpu.flags,
            blocked: t.blocked(),
            exited: t.exited(),
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
        efaults: p.efault_count,
        console: p.console.clone(),
        threads,
        memory,
        log,
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

/// Boot the server until every thread waits.
fn boot(hook: &mut dyn OsHook, log: &mut Vec<String>) -> LinuxProc {
    let mut p = LinuxProc::load(&server());
    log.push(format!("{:?}", p.run(1_000_000, hook)));
    p
}

/// Connect, send `request`, run `steps`, and log the reply.
fn request(
    p: &mut LinuxProc,
    request: &[u8],
    steps: u64,
    hook: &mut dyn OsHook,
    log: &mut Vec<String>,
) {
    let conn = p.net.client_connect(PORT).expect("listening");
    p.net.client_send(conn, request);
    log.push(format!("{:?}", p.run(steps, hook)));
    log.push(format!("{:?}", p.net.client_recv(conn, 4096)));
    p.net.client_close(conn);
    log.push(format!("{:?}", p.run(steps, hook)));
}

#[test]
fn a_spin_with_sleepers_waking_mid_window_matches_stepping() {
    let out = assert_exact(|hook| {
        let mut log = Vec::new();
        let mut p = boot(hook, &mut log);
        // Worker 0 spins once its pending epoll_wait times out; the
        // supervisor wakes every 10 ms and the other workers every 1 s.
        p.mem.write_u64(ev_ptr(0), BAD).unwrap();
        for budget in [2_500_003, 1_000_000, 77] {
            log.push(format!("{:?}", p.run(budget, hook)));
        }
        request(&mut p, b"ping", 50_000, hook, &mut log);
        outcome(&p, log)
    });
    assert!(out.efaults > 200_000, "worker 0 spun: {}", out.efaults);
    assert!(out.log.contains(&format!("{:?}", b"ping".to_vec())));
}

#[test]
fn every_worker_spinning_in_turn_matches_stepping() {
    let out = assert_exact(|hook| {
        let mut log = Vec::new();
        let mut p = boot(hook, &mut log);
        for w in 0..WORKERS {
            p.mem.write_u64(ev_ptr(w), BAD).unwrap();
        }
        for budget in [1_500_001, 600_000] {
            log.push(format!("{:?}", p.run(budget, hook)));
        }
        outcome(&p, log)
    });
    assert!(out.threads[1..].iter().all(|t| !t.blocked), "all spin");
}

#[test]
fn a_budget_ending_mid_cycle_stops_where_stepping_does() {
    assert_exact(|hook| {
        let mut log = Vec::new();
        let mut p = boot(hook, &mut log);
        p.mem.write_u64(ev_ptr(1), BAD).unwrap();
        // None of these is a multiple of the 9-step spin or the quantum.
        for budget in [1_000_003, 3, 400_001, 17, 99_998, 2, 234_567, 5] {
            log.push(format!("{:?}", p.run(budget, hook)));
        }
        outcome(&p, log)
    });
}

#[test]
fn clients_arriving_between_runs_are_served_around_the_spin() {
    let out = assert_exact(|hook| {
        let mut log = Vec::new();
        let mut p = boot(hook, &mut log);
        p.mem.write_u64(ev_ptr(2), BAD).unwrap();
        log.push(format!("{:?}", p.run(1_100_000, hook)));
        for (i, steps) in [(0u8, 30_000), (1, 12_345), (2, 100_000)] {
            request(&mut p, &[b'a' + i; 3], steps, hook, &mut log);
            log.push(format!("{:?}", p.run(20_011, hook)));
        }
        outcome(&p, log)
    });
    for reply in ["aaa", "bbb", "ccc"] {
        let bytes = format!("{:?}", reply.as_bytes().to_vec());
        assert!(out.log.contains(&bytes), "{reply} echoed");
    }
}

#[test]
fn an_impure_efault_read_is_never_skipped() {
    const BYTES: usize = 3_000;
    let out = assert_exact(|hook| {
        let mut log = Vec::new();
        let mut p = boot(hook, &mut log);
        for w in 0..WORKERS {
            p.mem.write_u64(buf_ptr(w), BAD).unwrap();
        }
        // Every retry consumes one byte before failing: same registers,
        // no store, but the connection drains.
        request(&mut p, &[b'x'; BYTES], 200_000, hook, &mut log);
        outcome(&p, log)
    });
    assert_eq!(out.efaults, BYTES as u64, "one -EFAULT per consumed byte");
}

/// One thread looping on `body`, nothing else in the process.
fn lone(body: impl FnOnce(&mut Asm)) -> ElfImage {
    let mut a = Asm::new(CODE);
    a.global("entry");
    sys(&mut a, nr::EPOLL_CREATE1);
    a.mov_rr(R12, Rax);
    let top = a.here();
    body(&mut a);
    a.jmp(top);
    let asm = a.assemble().expect("assembles");
    ElfImage {
        entry: asm.sym("entry"),
        segments: vec![ElfSegment {
            vaddr: asm.base,
            memsz: asm.code.len() as u64,
            data: asm.code,
            perm: SegPerm::RX,
        }],
        symbols: asm.symbols,
    }
}

/// A lone `epoll_wait` spin on an invalid buffer.
fn lone_spinner() -> ElfImage {
    lone(|a| {
        a.mov_rr(Rdi, R12);
        a.mov_ri(Rsi, BAD);
        a.mov_ri(Rdx, 4);
        a.mov_ri(R10, 1000);
        sys(a, nr::EPOLL_WAIT);
    })
}

#[test]
fn a_spin_that_changes_kernel_state_is_never_skipped() {
    // `write(1, CODE, 1)` leaves registers, flags and memory as they
    // were, but every call appends to the console.
    let out = assert_exact(|hook| {
        let mut p = LinuxProc::load(&lone(|a| {
            a.mov_ri(Rdi, 1);
            a.mov_ri(Rsi, CODE);
            a.mov_ri(Rdx, 1);
            sys(a, nr::WRITE);
        }));
        let log = vec![format!("{:?}", p.run(100_003, hook))];
        outcome(&p, log)
    });
    // Two steps of set-up, then 6-step cycles.
    assert_eq!(out.console.len() as u64, (100_003 - 2) / 6);
}

#[test]
fn fast_forward_engages_under_the_null_hook() {
    // 2^40 steps would take hours to emulate one by one.
    const BUDGET: u64 = 1 << 40;
    let mut p = LinuxProc::load(&lone_spinner());
    assert_eq!(p.run(BUDGET, &mut NullHook), RunExit::StepLimit);
    assert_eq!(p.vtime, BUDGET);
    assert_eq!(p.threads()[0].cpu.steps, BUDGET, "every step retired");
    // Two steps of set-up, then 7-step cycles: the k-th -EFAULT
    // retires at step 7k + 1.
    assert_eq!(p.efault_count, (BUDGET - 1) / 7);
}

/// Counts the instructions it is shown; observes, as the default says.
struct Counter(u64);

impl Hook for Counter {
    fn on_inst(&mut self, _: &Cpu, _: &mut Memory, _: &cr_isa::Inst, _: u64, _: usize) {
        self.0 += 1;
    }
}

impl OsHook for Counter {}

#[test]
fn an_observing_hook_sees_every_instruction() {
    let mut p = LinuxProc::load(&lone_spinner());
    let mut seen = Counter(0);
    p.run(100_000, &mut seen);
    assert_eq!(p.threads()[0].cpu.steps, 100_000);
    assert_eq!(seen.0, 100_000, "no cycle was skipped");
}
