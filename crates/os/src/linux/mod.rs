//! Linux OS personality: processes, threads, syscalls with `-EFAULT`
//! semantics, a virtual network, an in-memory filesystem and signals.
//!
//! The defining behaviour for this paper: **every syscall validates user
//! pointers and reports `-EFAULT` instead of faulting the process**. A
//! server that checks syscall return values therefore survives probes of
//! arbitrary addresses — the crash-resistant primitive class of §III-A.1.
//!
//! A server that retries such a call in a loop (Cherokee's corrupted
//! `epoll_wait` worker, §VI-D) spins until a timer wakes another thread.
//! When the hook does not observe ([`cr_vm::Hook::observes`]), the
//! scheduler jumps the spinning thread over the cycles it would repeat
//! bit for bit, advancing only virtual time, step counts and
//! [`LinuxProc::efault_count`] (see `fixed_point` and
//! `LinuxProc::fast_forward`). A cycle qualifies only if its syscall
//! failed before touching any kernel state; everything observable stays
//! as if each cycle had been stepped.

pub mod fs;
pub mod net;
pub mod syscall;

use crate::fixed_point::{Clocks, Mark};
use crate::{OsHook, STEPS_PER_MS};
use cr_image::ElfImage;
use cr_vm::{Access, Cpu, Exit, Fault, Hook, Memory, Prot};
use fs::{FsError, Vfs};
use net::{ConnId, VirtualNet};
use std::collections::HashMap;
use syscall::{errno, nr};

/// SIGSEGV signal number.
pub const SIGSEGV: u32 = 11;

const QUANTUM: u64 = 256;
const STACK_SIZE: u64 = 0x10_0000;
const STACK_TOP: u64 = 0x7FFF_F000_0000;
const MMAP_BASE: u64 = 0x7F00_0000_0000;

/// What a thread is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// Readable bytes (or EOF) on a connection.
    ConnReadable(ConnId),
    /// A pending connection on a listening port.
    Accept(u16),
    /// Any readiness among an epoll fd's interests.
    Epoll(i32),
    /// Pure timer.
    Sleep,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    Blocked { wait: Wait, deadline: Option<u64> },
    Exited,
}

/// One thread of the emulated process.
#[derive(Debug)]
pub struct Thread {
    /// Thread id (main thread is 1).
    pub tid: u32,
    /// Architectural state.
    pub cpu: Cpu,
    state: ThreadState,
    /// Saved syscall to re-dispatch when the wait condition is met.
    pending: Option<(u64, [u64; 6])>,
    /// Set when the thread was woken by its timer (not by readiness).
    timer_fired: bool,
}

impl Thread {
    /// Whether the thread has exited.
    pub fn exited(&self) -> bool {
        self.state == ThreadState::Exited
    }

    /// Whether the thread is blocked in a syscall.
    pub fn blocked(&self) -> bool {
        matches!(self.state, ThreadState::Blocked { .. })
    }
}

#[derive(Debug)]
enum FdObj {
    Console,
    Socket { port: Option<u16>, listening: bool },
    Conn(ConnId),
    File { path: String, pos: usize },
    Epoll { interests: Vec<(i32, u64)> },
}

/// Details of an unhandled fault (process crash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashInfo {
    /// Faulting thread.
    pub tid: u32,
    /// Instruction pointer at the fault.
    pub rip: u64,
    /// The memory fault (None for illegal instructions).
    pub fault: Option<Fault>,
    /// Delivered signal number (SIGSEGV / SIGILL).
    pub signal: u32,
}

/// Why [`LinuxProc::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// Every live thread is blocked with no pending timer the budget can
    /// reach; the driver should inject input (or give up).
    Idle,
    /// The process called `exit_group` (or the last thread exited).
    Exited(i64),
    /// Unhandled fault — the crash the attacker wants to avoid.
    Crashed(CrashInfo),
    /// The step budget ran out while work remained.
    StepLimit,
}

/// An emulated Linux process.
pub struct LinuxProc {
    /// Address space.
    pub mem: Memory,
    /// The virtual network fabric (shared with the test driver).
    pub net: VirtualNet,
    /// The in-memory filesystem.
    pub vfs: Vfs,
    /// Bytes written to stdout/stderr.
    pub console: Vec<u8>,
    /// Virtual time in steps (1 step ≈ 1 µs).
    pub vtime: u64,
    /// Count of syscalls that returned `-EFAULT` (probe visibility).
    pub efault_count: u64,
    threads: Vec<Thread>,
    fds: Vec<Option<FdObj>>,
    sig_handlers: HashMap<u32, u64>,
    next_tid: u32,
    mmap_next: u64,
    exited: Option<i64>,
    crashed: Option<CrashInfo>,
    cur: usize,
}

impl std::fmt::Debug for LinuxProc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinuxProc")
            .field("threads", &self.threads.len())
            .field("vtime", &self.vtime)
            .field("exited", &self.exited)
            .field("crashed", &self.crashed)
            .finish()
    }
}

impl LinuxProc {
    /// Load an ELF image and prepare the main thread.
    pub fn load(image: &ElfImage) -> LinuxProc {
        let mut mem = Memory::new();
        for seg in &image.segments {
            let prot = Prot {
                r: seg.perm.r,
                w: seg.perm.w,
                x: seg.perm.x,
            };
            mem.map(seg.vaddr, seg.memsz.max(seg.data.len() as u64), prot);
            mem.poke(seg.vaddr, &seg.data)
                .expect("segment fits its mapping");
        }
        mem.map(STACK_TOP - STACK_SIZE, STACK_SIZE, Prot::RW);
        let mut cpu = Cpu::new();
        cpu.rip = image.entry;
        cpu.set_reg(cr_isa::Reg::Rsp, STACK_TOP - 0x100);
        LinuxProc {
            mem,
            net: VirtualNet::new(),
            vfs: Vfs::new(),
            console: Vec::new(),
            vtime: 0,
            efault_count: 0,
            threads: vec![Thread {
                tid: 1,
                cpu,
                state: ThreadState::Runnable,
                pending: None,
                timer_fired: false,
            }],
            fds: vec![
                Some(FdObj::Console),
                Some(FdObj::Console),
                Some(FdObj::Console),
            ],
            sig_handlers: HashMap::new(),
            next_tid: 1,
            mmap_next: MMAP_BASE,
            exited: None,
            crashed: None,
            cur: 0,
        }
    }

    /// The process's threads.
    pub fn threads(&self) -> &[Thread] {
        &self.threads
    }

    /// Crash information, if the process crashed.
    pub fn crash(&self) -> Option<CrashInfo> {
        self.crashed
    }

    /// Whether the process is still alive (not exited, not crashed).
    pub fn alive(&self) -> bool {
        self.exited.is_none() && self.crashed.is_none()
    }

    /// Run until idle/exit/crash or for at most `max_steps` retired
    /// instructions.
    pub fn run(&mut self, max_steps: u64, hook: &mut dyn OsHook) -> RunExit {
        let budget_end = self.vtime.saturating_add(max_steps);
        loop {
            if let Some(code) = self.exited {
                return RunExit::Exited(code);
            }
            if let Some(c) = self.crashed {
                return RunExit::Crashed(c);
            }
            if self.vtime >= budget_end {
                return RunExit::StepLimit;
            }
            self.wake_ready();
            let Some(idx) = self.pick_thread() else {
                // Nobody runnable: can a timer within budget wake someone?
                match self.earliest_deadline() {
                    Some(d) if d <= budget_end => {
                        self.vtime = d.max(self.vtime + 1);
                        continue;
                    }
                    _ => return RunExit::Idle,
                }
            };
            self.cur = idx;
            self.run_thread_slice(idx, budget_end, hook);
        }
    }

    fn run_thread_slice(&mut self, idx: usize, budget_end: u64, hook: &mut dyn OsHook) {
        let mut slice_end = budget_end.min(self.vtime + QUANTUM);
        hook.on_schedule(self.threads[idx].tid);
        // Re-dispatch a pending (blocking) syscall first if one is saved.
        // Argument registers are unchanged while blocked, so the retry
        // re-reads them and re-fires the hook — a restarted syscall
        // re-enters the kernel, which is what the corruption monitor needs.
        if let Some((nr_, _)) = self.threads[idx].pending.take() {
            let tid = self.threads[idx].tid;
            let args = {
                let cpu = &mut self.threads[idx].cpu;
                hook.on_syscall(tid, cpu, &self.mem);
                [
                    cpu.reg(cr_isa::Reg::Rdi),
                    cpu.reg(cr_isa::Reg::Rsi),
                    cpu.reg(cr_isa::Reg::Rdx),
                    cpu.reg(cr_isa::Reg::R10),
                    cpu.reg(cr_isa::Reg::R8),
                    cpu.reg(cr_isa::Reg::R9),
                ]
            };
            self.dispatch(idx, nr_, args, hook);
            if self.threads[idx].state != ThreadState::Runnable {
                return;
            }
        }
        // The last pure syscall return of this slice, while everything
        // since it was pure too (see `fast_forward`); a hook that
        // observes rules the skip out.
        let skips = !hook.observes();
        let mut last: Option<Mark> = None;
        while self.vtime < slice_end
            && self.threads[idx].state == ThreadState::Runnable
            && self.exited.is_none()
            && self.crashed.is_none()
        {
            let tid = self.threads[idx].tid;
            let exit = {
                let t = &mut self.threads[idx];
                t.cpu.step(&mut self.mem, hook)
            };
            self.vtime += 1;
            match exit {
                Exit::Normal => {}
                Exit::Breakpoint | Exit::Hypercall => last = None,
                Exit::Halt => break, // cooperative yield
                Exit::Syscall => {
                    let (nr_, args) = {
                        let cpu = &mut self.threads[idx].cpu;
                        hook.on_syscall(tid, cpu, &self.mem);
                        let nr_ = cpu.reg(cr_isa::Reg::Rax);
                        let args = [
                            cpu.reg(cr_isa::Reg::Rdi),
                            cpu.reg(cr_isa::Reg::Rsi),
                            cpu.reg(cr_isa::Reg::Rdx),
                            cpu.reg(cr_isa::Reg::R10),
                            cpu.reg(cr_isa::Reg::R8),
                            cpu.reg(cr_isa::Reg::R9),
                        ];
                        (nr_, args)
                    };
                    if !(self.dispatch(idx, nr_, args, hook) && skips) {
                        last = None;
                        continue;
                    }
                    let mut mark = self.mark(idx);
                    if let Some(cycle) = last.and_then(|l| l.cycle_to(&mark)) {
                        slice_end = self.fast_forward(idx, cycle, slice_end, budget_end);
                        mark = self.mark(idx);
                    }
                    last = Some(mark);
                }
                Exit::Fault(f) => {
                    self.deliver_fault(idx, Some(f));
                    break;
                }
                Exit::IllegalInst => {
                    self.deliver_fault(idx, None);
                    break;
                }
            }
        }
    }

    /// Skip whole repetitions of a fixed-point cycle of thread `idx`
    /// (see [`crate::fixed_point`]) and return the slice's new end.
    ///
    /// The cycle ran between two pure syscall returns: plain
    /// instructions and a syscall that failed before touching any kernel
    /// state (see `reject`), such as a spin on `epoll_wait` with an
    /// invalid buffer. Until `slice_end` no other thread runs and no
    /// sleeper wakes, so the cycle repeats at least that far. Past it,
    /// if no other thread is runnable or ready, only a timer can end the
    /// spin, and a stepped run wakes a sleeper only where a slice ends:
    /// on the grid `slice_end + j·QUANTUM`. So the skip ends every
    /// skipped cycle at or before the first grid point at or after the
    /// earliest deadline, and at or before `budget_end`, and the slice
    /// then ends on the same grid. Only called for a hook that does not
    /// observe, since a skipped cycle fires no hook callbacks.
    fn fast_forward(&mut self, idx: usize, cycle: Clocks, slice_end: u64, budget_end: u64) -> u64 {
        let others_wait = self.threads.iter().enumerate().all(|(j, t)| {
            j == idx
                || match t.state {
                    ThreadState::Runnable => false,
                    ThreadState::Blocked { wait, .. } => !self.wait_ready(wait),
                    ThreadState::Exited => true,
                }
        });
        let grid = |v: u64| {
            let over = v.saturating_sub(slice_end);
            slice_end.saturating_add(over.div_ceil(QUANTUM).saturating_mul(QUANTUM))
        };
        let limit = if others_wait {
            self.earliest_deadline()
                .map_or(budget_end, |d| grid(d).min(budget_end))
        } else {
            slice_end
        };
        let skipped = cycle.times(limit.saturating_sub(self.vtime) / cycle.vtime);
        self.vtime += skipped.vtime;
        self.threads[idx].cpu.steps += skipped.steps;
        self.efault_count += skipped.efaults;
        grid(self.vtime).min(budget_end)
    }

    /// Thread `idx`'s state and the clocks, for [`LinuxProc::fast_forward`].
    fn mark(&self, idx: usize) -> Mark {
        Mark::of(
            &self.threads[idx].cpu,
            &self.mem,
            self.vtime,
            self.efault_count,
        )
    }

    fn deliver_fault(&mut self, idx: usize, fault: Option<Fault>) {
        let tid = self.threads[idx].tid;
        let rip = self.threads[idx].cpu.rip;
        let signal = if fault.is_some() {
            SIGSEGV
        } else {
            4 /* SIGILL */
        };
        if let Some(&handler) = self.sig_handlers.get(&signal) {
            // Minimal signal delivery: jump to the handler with the signal
            // number in rdi. (No sigreturn — handlers in our targets
            // either exit or long-jump by design.)
            let cpu = &mut self.threads[idx].cpu;
            cpu.set_reg(cr_isa::Reg::Rdi, signal as u64);
            cpu.rip = handler;
            return;
        }
        self.crashed = Some(CrashInfo {
            tid,
            rip,
            fault,
            signal,
        });
    }

    fn pick_thread(&mut self) -> Option<usize> {
        let n = self.threads.len();
        for off in 0..n {
            let i = (self.cur + 1 + off) % n;
            if self.threads[i].state == ThreadState::Runnable {
                return Some(i);
            }
        }
        None
    }

    fn earliest_deadline(&self) -> Option<u64> {
        self.threads
            .iter()
            .filter_map(|t| match t.state {
                ThreadState::Blocked {
                    deadline: Some(d), ..
                } => Some(d),
                _ => None,
            })
            .min()
    }

    fn wake_ready(&mut self) {
        let vtime = self.vtime;
        let mut to_wake = Vec::new();
        for (i, t) in self.threads.iter().enumerate() {
            let ThreadState::Blocked { wait, deadline } = t.state else {
                continue;
            };
            let timer_fired = deadline.map(|d| vtime >= d).unwrap_or(false);
            let ready = self.wait_ready(wait);
            if ready || timer_fired {
                to_wake.push((i, timer_fired && !ready));
            }
        }
        for (i, by_timer) in to_wake {
            self.threads[i].state = ThreadState::Runnable;
            self.threads[i].timer_fired = by_timer;
        }
    }

    /// Whether what a thread waits for is there (timers aside).
    fn wait_ready(&self, wait: Wait) -> bool {
        match wait {
            Wait::ConnReadable(id) => self.net.server_readable(id),
            Wait::Accept(port) => self.net.has_pending(port),
            Wait::Epoll(epfd) => self.epoll_ready_count(epfd) > 0,
            Wait::Sleep => false,
        }
    }

    fn epoll_ready_count(&self, epfd: i32) -> usize {
        let Some(Some(FdObj::Epoll { interests })) = self.fds.get(epfd as usize) else {
            return 0;
        };
        interests
            .iter()
            .filter(|(fd, _)| match self.fds.get(*fd as usize) {
                Some(Some(FdObj::Conn(id))) => self.net.server_readable(*id),
                Some(Some(FdObj::Socket {
                    port: Some(p),
                    listening: true,
                })) => self.net.has_pending(*p),
                _ => false,
            })
            .count()
    }

    fn alloc_fd(&mut self, obj: FdObj) -> i64 {
        for (i, slot) in self.fds.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(obj);
                return i as i64;
            }
        }
        self.fds.push(Some(obj));
        (self.fds.len() - 1) as i64
    }

    fn read_cstr(&self, ptr: u64) -> Result<String, i64> {
        let mut out = Vec::new();
        for i in 0..4096 {
            let mut b = [0u8];
            self.mem.read(ptr + i, &mut b).map_err(|_| -errno::EFAULT)?;
            if b[0] == 0 {
                return Ok(String::from_utf8_lossy(&out).into_owned());
            }
            out.push(b[0]);
        }
        Err(-errno::EINVAL)
    }

    /// Park thread `idx` in call `nr_` until `wait` or `deadline`.
    /// Returns `false`: blocking is never a pure return.
    fn block(
        &mut self,
        idx: usize,
        nr_: u64,
        args: [u64; 6],
        wait: Wait,
        deadline: Option<u64>,
    ) -> bool {
        self.threads[idx].pending = Some((nr_, args));
        self.threads[idx].state = ThreadState::Blocked { wait, deadline };
        false
    }

    /// Fail call `nr_` with `err` before it touched any kernel state (the
    /// network, the VFS, fds, signal handlers, mappings, threads or
    /// `timer_fired`). Returns `true`: this is a *pure* return, which a
    /// fixed-point cycle may contain (see `fast_forward`).
    fn reject(&mut self, idx: usize, nr_: u64, err: i64, hook: &mut dyn OsHook) -> bool {
        self.finish(idx, nr_, err, hook);
        true
    }

    fn finish(&mut self, idx: usize, nr_: u64, ret: i64, hook: &mut dyn OsHook) {
        if ret == -errno::EFAULT {
            self.efault_count += 1;
        }
        let tid = self.threads[idx].tid;
        self.threads[idx].cpu.set_reg(cr_isa::Reg::Rax, ret as u64);
        hook.on_syscall_ret(tid, nr_, ret);
    }

    /// Run syscall `nr_` for thread `idx`. Returns whether it was a pure
    /// return (see `reject`).
    #[allow(clippy::too_many_lines)]
    fn dispatch(&mut self, idx: usize, nr_: u64, args: [u64; 6], hook: &mut dyn OsHook) -> bool {
        let ret: i64 = match nr_ {
            nr::READ | nr::RECVFROM => {
                let (fd, buf, count) = (args[0] as i64, args[1], args[2]);
                let nonblock = nr_ == nr::RECVFROM && args[3] & 0x40 != 0; // MSG_DONTWAIT
                match self.fd_kind(fd) {
                    Some(FdKind::Conn(id)) => match self.net.server_recv(id, count as usize) {
                        None if nonblock => -errno::EAGAIN,
                        None => return self.block(idx, nr_, args, Wait::ConnReadable(id), None),
                        Some(data) => match self.mem.write(buf, &data) {
                            Ok(()) => data.len() as i64,
                            Err(_) => {
                                // The crash-resistant path: data already
                                // consumed in real kernels too on partial
                                // copies; we report EFAULT cleanly.
                                -errno::EFAULT
                            }
                        },
                    },
                    Some(FdKind::File) => {
                        let (path, pos) = match &self.fds[fd as usize] {
                            Some(FdObj::File { path, pos }) => (path.clone(), *pos),
                            _ => unreachable!(),
                        };
                        match self.vfs.read_file(&path) {
                            Err(_) => -errno::ENOENT,
                            Ok(data) => {
                                let n = (count as usize).min(data.len().saturating_sub(pos));
                                let chunk = data[pos..pos + n].to_vec();
                                match self.mem.write(buf, &chunk) {
                                    Ok(()) => {
                                        if let Some(FdObj::File { pos, .. }) =
                                            &mut self.fds[fd as usize]
                                        {
                                            *pos += n;
                                        }
                                        n as i64
                                    }
                                    Err(_) => -errno::EFAULT,
                                }
                            }
                        }
                    }
                    Some(FdKind::Console) => 0,
                    _ => -errno::EBADF,
                }
            }
            nr::WRITE | nr::SENDTO => {
                let (fd, buf, count) = (args[0] as i64, args[1], args[2]);
                let mut data = vec![0u8; count as usize];
                if self.mem.read(buf, &mut data).is_err() {
                    return self.reject(idx, nr_, -errno::EFAULT, hook);
                }
                match self.fd_kind(fd) {
                    Some(FdKind::Conn(id)) => self.net.server_send(id, &data) as i64,
                    Some(FdKind::Console) => {
                        self.console.extend_from_slice(&data);
                        data.len() as i64
                    }
                    Some(FdKind::File) => {
                        let path = match &self.fds[fd as usize] {
                            Some(FdObj::File { path, .. }) => path.clone(),
                            _ => unreachable!(),
                        };
                        match self.vfs.write_file(&path, &data) {
                            Ok(()) => data.len() as i64,
                            Err(_) => -errno::ENOENT,
                        }
                    }
                    _ => -errno::EBADF,
                }
            }
            nr::SENDMSG | nr::RECVMSG => {
                // struct msghdr: iov at +16, iovlen at +24 (single iovec).
                let (fd, msg) = (args[0] as i64, args[1]);
                match (self.mem.read_u64(msg + 16), self.mem.read_u64(msg + 24)) {
                    (Ok(iov), Ok(iovlen)) if iovlen >= 1 => {
                        match (self.mem.read_u64(iov), self.mem.read_u64(iov + 8)) {
                            (Ok(base), Ok(len)) => {
                                let fwd = if nr_ == nr::SENDMSG {
                                    nr::WRITE
                                } else {
                                    nr::READ
                                };
                                let a2 = [fd as u64, base, len, 0, 0, 0];
                                return self.dispatch(idx, fwd, a2, hook);
                            }
                            _ => -errno::EFAULT,
                        }
                    }
                    (Ok(_), Ok(_)) => -errno::EINVAL,
                    _ => -errno::EFAULT,
                }
            }
            nr::OPEN => {
                let flags = args[1];
                match self.read_cstr(args[0]) {
                    Err(e) => e,
                    Ok(path) => {
                        if self.vfs.exists(&path) {
                            self.alloc_fd(FdObj::File { path, pos: 0 })
                        } else if flags & 0x40 != 0 {
                            // O_CREAT
                            match self.vfs.write_file(&path, b"") {
                                Ok(()) => self.alloc_fd(FdObj::File { path, pos: 0 }),
                                Err(_) => -errno::ENOENT,
                            }
                        } else {
                            -errno::ENOENT
                        }
                    }
                }
            }
            nr::CLOSE => {
                let fd = args[0] as usize;
                match self.fds.get_mut(fd) {
                    Some(slot @ Some(_)) => {
                        if let Some(FdObj::Conn(id)) = slot {
                            self.net.server_close(*id);
                        }
                        *slot = None;
                        0
                    }
                    _ => -errno::EBADF,
                }
            }
            nr::SOCKET => self.alloc_fd(FdObj::Socket {
                port: None,
                listening: false,
            }),
            nr::BIND => {
                let (fd, addr) = (args[0] as usize, args[1]);
                let mut sa = [0u8; 4];
                if self.mem.read(addr, &mut sa).is_err() {
                    return self.reject(idx, nr_, -errno::EFAULT, hook);
                }
                let port = u16::from_be_bytes([sa[2], sa[3]]);
                match self.fds.get_mut(fd) {
                    Some(Some(FdObj::Socket { port: p, .. })) => {
                        *p = Some(port);
                        0
                    }
                    _ => -errno::ENOTSOCK,
                }
            }
            nr::LISTEN => {
                let fd = args[0] as usize;
                match self.fds.get_mut(fd) {
                    Some(Some(FdObj::Socket {
                        port: Some(p),
                        listening,
                    })) => {
                        *listening = true;
                        let p = *p;
                        self.net.listen(p);
                        0
                    }
                    Some(Some(FdObj::Socket { port: None, .. })) => -errno::EINVAL,
                    _ => -errno::ENOTSOCK,
                }
            }
            nr::ACCEPT | nr::ACCEPT4 => {
                let (fd, addr) = (args[0] as i64, args[1]);
                let nonblock = nr_ == nr::ACCEPT4 && args[3] & 0x800 != 0; // SOCK_NONBLOCK
                match self.fd_kind(fd) {
                    Some(FdKind::Listener(port)) => {
                        // addr may be NULL; a non-NULL bad pointer is an
                        // EFAULT — accept is one of Table I's rows.
                        if addr != 0 && self.mem.check(addr, 16, Access::Write).is_err() {
                            -errno::EFAULT
                        } else {
                            match self.net.accept(port) {
                                Some(id) => {
                                    if addr != 0 {
                                        let _ = self.mem.write(addr, &[0u8; 16]);
                                    }
                                    self.alloc_fd(FdObj::Conn(id))
                                }
                                None if nonblock => -errno::EAGAIN,
                                None => {
                                    return self.block(idx, nr_, args, Wait::Accept(port), None)
                                }
                            }
                        }
                    }
                    _ => -errno::EINVAL,
                }
            }
            nr::CONNECT => {
                let addr = args[1];
                let mut sa = [0u8; 4];
                if self.mem.read(addr, &mut sa).is_err() {
                    -errno::EFAULT
                } else {
                    -errno::ECONNREFUSED
                }
            }
            nr::EPOLL_CREATE1 => self.alloc_fd(FdObj::Epoll {
                interests: Vec::new(),
            }),
            nr::EPOLL_CTL => {
                let (epfd, op, fd, event) = (args[0] as usize, args[1], args[2] as i32, args[3]);
                let data = if op == 2 {
                    0 // EPOLL_CTL_DEL ignores the event pointer
                } else {
                    let mut ev = [0u8; 12];
                    if self.mem.read(event, &mut ev).is_err() {
                        return self.reject(idx, nr_, -errno::EFAULT, hook);
                    }
                    u64::from_le_bytes(ev[4..12].try_into().unwrap())
                };
                match self.fds.get_mut(epfd) {
                    Some(Some(FdObj::Epoll { interests })) => match op {
                        1 => {
                            interests.push((fd, data));
                            0
                        }
                        2 => {
                            interests.retain(|(f, _)| *f != fd);
                            0
                        }
                        3 => {
                            interests.retain(|(f, _)| *f != fd);
                            interests.push((fd, data));
                            0
                        }
                        _ => -errno::EINVAL,
                    },
                    _ => -errno::EBADF,
                }
            }
            nr::EPOLL_WAIT => {
                let (epfd, events, maxevents, timeout) =
                    (args[0] as i32, args[1], args[2] as usize, args[3] as i64);
                // THE Cherokee/PostgreSQL primitive: the kernel validates
                // the events buffer before sleeping and reports -EFAULT.
                if maxevents == 0 {
                    return self.reject(idx, nr_, -errno::EINVAL, hook);
                }
                if self
                    .mem
                    .check(events, (maxevents * 12) as u64, Access::Write)
                    .is_err()
                {
                    return self.reject(idx, nr_, -errno::EFAULT, hook);
                }
                let ready = self.epoll_ready(epfd, maxevents);
                if ready.is_empty() {
                    if timeout == 0 || std::mem::take(&mut self.threads[idx].timer_fired) {
                        0
                    } else {
                        let deadline = if timeout < 0 {
                            None
                        } else {
                            Some(self.vtime + timeout as u64 * STEPS_PER_MS)
                        };
                        return self.block(idx, nr_, args, Wait::Epoll(epfd), deadline);
                    }
                } else {
                    for (i, (_fd, data, mask)) in ready.iter().enumerate() {
                        let at = events + (i * 12) as u64;
                        let mut ev = [0u8; 12];
                        ev[0..4].copy_from_slice(&mask.to_le_bytes());
                        ev[4..12].copy_from_slice(&data.to_le_bytes());
                        let _ = self.mem.write(at, &ev);
                    }
                    ready.len() as i64
                }
            }
            nr::NANOSLEEP => {
                let req = args[0];
                let mut ts = [0u8; 16];
                if self.mem.read(req, &mut ts).is_err() {
                    -errno::EFAULT
                } else if std::mem::take(&mut self.threads[idx].timer_fired) {
                    0
                } else {
                    let sec = u64::from_le_bytes(ts[0..8].try_into().unwrap());
                    let nsec = u64::from_le_bytes(ts[8..16].try_into().unwrap());
                    let steps = sec * 1_000_000 + nsec / 1000;
                    let deadline = self.vtime + steps.max(1);
                    return self.block(idx, nr_, args, Wait::Sleep, Some(deadline));
                }
            }
            nr::RT_SIGACTION => {
                let (signo, act) = (args[0] as u32, args[1]);
                if act == 0 {
                    0
                } else {
                    match self.mem.read_u64(act) {
                        Ok(handler) => {
                            self.sig_handlers.insert(signo, handler);
                            0
                        }
                        Err(_) => -errno::EFAULT,
                    }
                }
            }
            nr::GETTIME => {
                let ts = args[1];
                let sec = self.vtime / 1_000_000;
                let nsec = (self.vtime % 1_000_000) * 1000;
                let mut b = [0u8; 16];
                b[0..8].copy_from_slice(&sec.to_le_bytes());
                b[8..16].copy_from_slice(&nsec.to_le_bytes());
                match self.mem.write(ts, &b) {
                    Ok(()) => 0,
                    Err(_) => -errno::EFAULT,
                }
            }
            nr::MMAP => {
                let len = (args[1] + 0xFFF) & !0xFFF;
                let addr = self.mmap_next;
                self.mmap_next += len + 0x1000;
                self.mem.map(addr, len, Prot::RW);
                addr as i64
            }
            nr::MPROTECT => {
                let prot = args[2];
                self.mem.protect(
                    args[0],
                    args[1],
                    Prot {
                        r: prot & 1 != 0,
                        w: prot & 2 != 0,
                        x: prot & 4 != 0,
                    },
                );
                0
            }
            nr::MUNMAP => {
                self.mem.unmap(args[0], args[1]);
                0
            }
            nr::CLONE => {
                // Simplified clone: new thread, child stack = args[1],
                // child sees rax = 0.
                self.next_tid += 1;
                let tid = self.next_tid + 1;
                let mut cpu = self.threads[idx].cpu.clone();
                cpu.set_reg(cr_isa::Reg::Rax, 0);
                cpu.set_reg(cr_isa::Reg::Rsp, args[1]);
                self.threads.push(Thread {
                    tid,
                    cpu,
                    state: ThreadState::Runnable,
                    pending: None,
                    timer_fired: false,
                });
                tid as i64
            }
            nr::EXIT => {
                self.threads[idx].state = ThreadState::Exited;
                if self.threads.iter().all(|t| t.state == ThreadState::Exited) {
                    self.exited = Some(args[0] as i64);
                }
                hook.on_syscall_ret(self.threads[idx].tid, nr_, 0);
                return false;
            }
            nr::EXIT_GROUP => {
                self.exited = Some(args[0] as i64);
                hook.on_syscall_ret(self.threads[idx].tid, nr_, 0);
                return false;
            }
            nr::CHMOD => match self.read_cstr(args[0]) {
                Err(e) => e,
                Ok(path) => match self.vfs.chmod(&path, args[1] as u32) {
                    Ok(()) => 0,
                    Err(e) => fs_errno(e),
                },
            },
            nr::MKDIR => match self.read_cstr(args[0]) {
                Err(e) => e,
                Ok(path) => match self.vfs.mkdir(&path) {
                    Ok(()) => 0,
                    Err(e) => fs_errno(e),
                },
            },
            nr::UNLINK => match self.read_cstr(args[0]) {
                Err(e) => e,
                Ok(path) => match self.vfs.unlink(&path) {
                    Ok(()) => 0,
                    Err(e) => fs_errno(e),
                },
            },
            nr::SYMLINK => match (self.read_cstr(args[0]), self.read_cstr(args[1])) {
                (Ok(t), Ok(l)) => match self.vfs.symlink(&t, &l) {
                    Ok(()) => 0,
                    Err(e) => fs_errno(e),
                },
                (Err(e), _) | (_, Err(e)) => e,
            },
            _ => -errno::ENOSYS,
        };
        self.finish(idx, nr_, ret, hook);
        false
    }

    fn epoll_ready(&self, epfd: i32, max: usize) -> Vec<(i32, u64, u32)> {
        let Some(Some(FdObj::Epoll { interests })) = self.fds.get(epfd as usize) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for &(fd, data) in interests {
            if out.len() >= max {
                break;
            }
            let ready = match self.fds.get(fd as usize) {
                Some(Some(FdObj::Conn(id))) => self.net.server_readable(*id),
                Some(Some(FdObj::Socket {
                    port: Some(p),
                    listening: true,
                })) => self.net.has_pending(*p),
                _ => false,
            };
            if ready {
                out.push((fd, data, 1u32)); // EPOLLIN
            }
        }
        out
    }

    fn fd_kind(&self, fd: i64) -> Option<FdKind> {
        if fd < 0 {
            return None;
        }
        match self.fds.get(fd as usize)? {
            Some(FdObj::Console) => Some(FdKind::Console),
            Some(FdObj::Conn(id)) => Some(FdKind::Conn(*id)),
            Some(FdObj::File { .. }) => Some(FdKind::File),
            Some(FdObj::Socket {
                port: Some(p),
                listening: true,
            }) => Some(FdKind::Listener(*p)),
            Some(FdObj::Socket { .. }) => Some(FdKind::Socket),
            Some(FdObj::Epoll { .. }) => Some(FdKind::Epoll),
            None => None,
        }
    }
}

enum FdKind {
    Console,
    Conn(ConnId),
    File,
    Listener(u16),
    Socket,
    Epoll,
}

fn fs_errno(e: FsError) -> i64 {
    match e {
        FsError::NotFound => -errno::ENOENT,
        FsError::Exists => -errno::EEXIST,
        FsError::IsDirectory => -errno::EISDIR,
        FsError::NotDirectory => -errno::ENOTDIR,
    }
}

// Re-exported hook plumbing lives in crate root; keep Hook in scope for
// dyn upcasting in run_thread_slice.
const _: fn(&mut dyn OsHook) -> &mut dyn Hook = |h| h;
