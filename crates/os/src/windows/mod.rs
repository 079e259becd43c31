//! Windows OS personality: PE modules, API dispatch, and structured
//! exception handling with filters executed in the emulator.
//!
//! The crash-resistance mechanics reproduced here (paper §III-B):
//!
//! * **SEH**: on a fault, the dispatcher locates the `.pdata`
//!   RUNTIME_FUNCTION covering the faulting instruction, walks its scope
//!   table, evaluates each filter (catch-all constants directly; filter
//!   *functions* by running their machine code in the emulator with a
//!   concrete exception record), and on `EXCEPTION_EXECUTE_HANDLER`
//!   transfers control to the `__except` target.
//! * **VEH**: process-wide handlers registered at runtime via
//!   `AddVectoredExceptionHandler` run before SEH; a handler returning
//!   `EXCEPTION_CONTINUE_EXECUTION` swallows the fault. (Static `.pdata`
//!   analysis cannot see these — reproducing the paper's Firefox
//!   limitation, §VII-A.)
//!
//! Every dispatched exception is appended to [`WinProc::fault_log`]; the
//! rate-based defense of §VII-C consumes that log.
//!
//! Idle time is cheap: when the hook does not observe
//! ([`cr_vm::Hook::observes`]), the scheduler jumps a polling thread
//! over the `hlt`-ended cycles it would repeat bit for bit, advancing
//! only virtual time and step counts (see `fixed_point` and
//! `WinProc::fast_forward`). Everything observable stays as if each
//! cycle had been stepped.

pub mod api;

use crate::fixed_point::Mark;
use crate::{OsHook, STEPS_PER_MS};
use api::{execute_api, ApiOutcome, ApiTable};
use cr_image::{FilterRef, PeImage};
use cr_vm::{Cpu, Exit, Fault, Memory, NullHook, Prot};

/// `STATUS_ACCESS_VIOLATION`.
pub const STATUS_ACCESS_VIOLATION: u32 = 0xC000_0005;
/// `STATUS_ILLEGAL_INSTRUCTION`.
pub const STATUS_ILLEGAL_INSTRUCTION: u32 = 0xC000_001D;

const TRAP_PAGE: u64 = 0x7FF7_0000_0000;
const SCRATCH: u64 = 0x7FF6_0000_0000;
const STACKS_BASE: u64 = 0x7FF5_0000_0000;
const STACK_SIZE: u64 = 0x10_0000;
const ALLOC_BASE: u64 = 0x6_0000_0000;
const QUANTUM: u64 = 256;
const FILTER_STEP_BUDGET: u64 = 100_000;

/// A loaded PE module.
#[derive(Debug, Clone)]
pub struct Module {
    /// Module (DLL) name.
    pub name: String,
    /// Load address (equals the image's preferred base).
    pub base: u64,
    /// The parsed image (headers kept for SEH dispatch).
    pub image: PeImage,
}

impl Module {
    /// Virtual address of an export.
    pub fn export(&self, name: &str) -> u64 {
        self.base + self.image.exports[name] as u64
    }

    /// Size of the module in memory.
    pub fn size(&self) -> u64 {
        self.image
            .sections
            .iter()
            .map(|s| s.rva as u64 + s.virtual_size.max(s.data.len() as u32) as u64)
            .max()
            .unwrap_or(0)
    }
}

/// One dispatched exception (the defense's raw data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual time of the exception.
    pub vtime: u64,
    /// Faulting instruction (or guarded call site for API faults).
    pub rip: u64,
    /// Faulting data address, if a memory fault.
    pub addr: Option<u64>,
    /// Whether the faulting address was mapped (permission fault).
    pub mapped: bool,
    /// Whether some handler accepted the exception.
    pub handled: bool,
}

/// Crash details for an unhandled exception.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WinCrash {
    /// Faulting instruction pointer.
    pub rip: u64,
    /// Memory fault, if any.
    pub fault: Option<Fault>,
}

/// Why [`WinProc::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WinRunExit {
    /// Nothing runnable (all threads parked/sleeping beyond budget).
    Idle,
    /// Unhandled exception terminated the process (hard crash policy).
    Crashed(WinCrash),
    /// Step budget exhausted.
    StepLimit,
}

/// Outcome of [`WinProc::call`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallOutcome {
    /// The called function returned with this `rax`.
    Returned(u64),
    /// The process crashed during the call.
    Crashed(WinCrash),
    /// Step budget exhausted.
    StepLimit,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    Runnable,
    Sleeping(u64),
    Parked,
    Exited,
}

#[derive(Debug)]
struct WinThread {
    tid: u32,
    cpu: Cpu,
    state: TState,
    stack_top: u64,
}

/// An emulated Windows process.
pub struct WinProc {
    /// Address space.
    pub mem: Memory,
    /// API table (trampoline region is mapped into `mem`).
    pub api: ApiTable,
    /// Loaded modules.
    pub modules: Vec<Module>,
    /// Exception dispatch log (for the rate-based defense).
    pub fault_log: Vec<FaultEvent>,
    /// Virtual time in steps.
    pub vtime: u64,
    /// §VII-C "restricting access violations" policy: when set, faults on
    /// *unmapped* memory are unrecoverable — no handler (VEH or SEH) is
    /// consulted — while permission faults on mapped memory (guard-page
    /// optimizations) remain handleable.
    pub strict_unmapped_policy: bool,
    veh: Vec<u64>,
    threads: Vec<WinThread>,
    next_tid: u32,
    alloc_next: u64,
    crashed: Option<WinCrash>,
    cur: usize,
}

impl std::fmt::Debug for WinProc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WinProc")
            .field("modules", &self.modules.len())
            .field("threads", &self.threads.len())
            .field("vtime", &self.vtime)
            .field("crashed", &self.crashed)
            .finish()
    }
}

impl WinProc {
    /// A process with the given API table and no modules.
    pub fn new(api: ApiTable) -> WinProc {
        let mut mem = Memory::new();
        // API trampoline region: must be executable so `call rax` lands
        // there; actual dispatch is intercepted before execution.
        mem.map(api::API_BASE, api.region_size().max(0x1000), Prot::RX);
        // Trap page (return sentinel): a single hlt.
        mem.map(TRAP_PAGE, 0x1000, Prot::RX);
        mem.poke(TRAP_PAGE, &[0xF4]).expect("trap page mapped");
        // Scratch for exception records and filter stacks.
        mem.map(SCRATCH, 0x1000, Prot::RW);
        let mut p = WinProc {
            mem,
            api,
            modules: Vec::new(),
            fault_log: Vec::new(),
            vtime: 0,
            strict_unmapped_policy: false,
            veh: Vec::new(),
            threads: Vec::new(),
            next_tid: 0,
            alloc_next: ALLOC_BASE,
            crashed: None,
            cur: 0,
        };
        p.spawn_thread(TRAP_PAGE, 0); // main thread, parked at trap
        p.threads[0].state = TState::Parked;
        p
    }

    /// Map a PE image at its preferred base.
    ///
    /// # Panics
    ///
    /// Panics if the image overlaps an already-loaded module (synthetic
    /// images are built with disjoint bases).
    pub fn load_module(&mut self, image: &PeImage) -> &Module {
        for s in &image.sections {
            let va = image.image_base + s.rva as u64;
            let size = s.virtual_size.max(s.data.len() as u32) as u64;
            let prot = Prot {
                r: s.perm.r,
                w: s.perm.w,
                x: s.perm.x,
            };
            self.mem.map(va, size.max(1), prot);
            self.mem.poke(va, &s.data).expect("section fits");
        }
        self.modules.push(Module {
            name: image.name.clone(),
            base: image.image_base,
            image: image.clone(),
        });
        self.modules.last().expect("just pushed")
    }

    /// The module containing `va`, if any.
    pub fn module_at(&self, va: u64) -> Option<&Module> {
        self.modules
            .iter()
            .find(|m| va >= m.base && va < m.base + m.size())
    }

    /// Module by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name)
    }

    /// Registered VEH handler addresses (runtime-only state — invisible
    /// to static `.pdata` analysis, like the paper's Firefox primitive).
    pub fn veh_handlers(&self) -> &[u64] {
        &self.veh
    }

    /// Register a VEH handler directly (targets also go through the
    /// `AddVectoredExceptionHandler` API).
    pub fn add_veh(&mut self, handler: u64) {
        self.veh.push(handler);
    }

    /// Spawn a background thread entering `entry` with `rcx = arg`.
    pub fn spawn_thread(&mut self, entry: u64, arg: u64) -> u32 {
        self.next_tid += 1;
        let tid = self.next_tid;
        let stack_top = STACKS_BASE + tid as u64 * (STACK_SIZE + 0x1000) + STACK_SIZE;
        self.mem.map(stack_top - STACK_SIZE, STACK_SIZE, Prot::RW);
        let mut cpu = Cpu::new();
        cpu.rip = entry;
        cpu.set_reg(cr_isa::Reg::Rcx, arg);
        let rsp = stack_top - 0x40;
        cpu.set_reg(cr_isa::Reg::Rsp, rsp);
        self.mem.write_u64(rsp, TRAP_PAGE).expect("stack mapped");
        self.threads.push(WinThread {
            tid,
            cpu,
            state: TState::Runnable,
            stack_top,
        });
        tid
    }

    /// Whether the process crashed.
    pub fn crash(&self) -> Option<WinCrash> {
        self.crashed
    }

    /// Whether the process is alive.
    pub fn alive(&self) -> bool {
        self.crashed.is_none()
    }

    /// Call a function on the main thread and run to completion (other
    /// threads are scheduled too). This is how workloads model "the
    /// JavaScript engine invokes a DOM/API function".
    pub fn call(
        &mut self,
        addr: u64,
        args: &[u64],
        max_steps: u64,
        hook: &mut dyn OsHook,
    ) -> CallOutcome {
        if let Some(c) = self.crashed {
            return CallOutcome::Crashed(c);
        }
        let main = 0usize;
        {
            let stack_top = self.threads[main].stack_top;
            let cpu = &mut self.threads[main].cpu;
            cpu.rip = addr;
            let mut rsp = stack_top - 0x100;
            for (i, &a) in args.iter().enumerate().take(4) {
                let regs = [
                    cr_isa::Reg::Rcx,
                    cr_isa::Reg::Rdx,
                    cr_isa::Reg::R8,
                    cr_isa::Reg::R9,
                ];
                cpu.set_reg(regs[i], a);
            }
            rsp -= 8;
            self.mem.write_u64(rsp, TRAP_PAGE).expect("stack mapped");
            cpu.set_reg(cr_isa::Reg::Rsp, rsp);
            self.threads[main].state = TState::Runnable;
        }
        // Synthetic call event: the harness "calls" the entry, so
        // stack-walking hooks see the root frame (JS-context checks).
        hook.on_call(&self.threads[main].cpu, TRAP_PAGE, addr);
        let budget_end = self.vtime.saturating_add(max_steps);
        loop {
            if let Some(c) = self.crashed {
                return CallOutcome::Crashed(c);
            }
            if self.threads[main].state == TState::Parked {
                return CallOutcome::Returned(self.threads[main].cpu.reg(cr_isa::Reg::Rax));
            }
            if self.vtime >= budget_end {
                return CallOutcome::StepLimit;
            }
            self.schedule_slice(budget_end, hook);
        }
    }

    /// Run background threads until idle/crash or budget exhaustion.
    pub fn run(&mut self, max_steps: u64, hook: &mut dyn OsHook) -> WinRunExit {
        let budget_end = self.vtime.saturating_add(max_steps);
        loop {
            if let Some(c) = self.crashed {
                return WinRunExit::Crashed(c);
            }
            if self.vtime >= budget_end {
                return WinRunExit::StepLimit;
            }
            if !self.schedule_slice(budget_end, hook) {
                return WinRunExit::Idle;
            }
        }
    }

    /// Run one scheduling slice; returns false if nothing could run.
    fn schedule_slice(&mut self, budget_end: u64, hook: &mut dyn OsHook) -> bool {
        // Wake sleepers whose deadline passed.
        let vtime = self.vtime;
        for t in &mut self.threads {
            if let TState::Sleeping(d) = t.state {
                if vtime >= d {
                    t.state = TState::Runnable;
                }
            }
        }
        let n = self.threads.len();
        let mut idx = None;
        for off in 0..n {
            let i = (self.cur + 1 + off) % n;
            if self.threads[i].state == TState::Runnable {
                idx = Some(i);
                break;
            }
        }
        let Some(i) = idx else {
            // Jump virtual time to the next sleeper, if within budget.
            match self.next_wake() {
                Some(d) if d <= budget_end => {
                    self.vtime = d.max(self.vtime + 1);
                    return true;
                }
                _ => return false,
            }
        };
        self.cur = i;
        hook.on_schedule(self.threads[i].tid);
        // Where the slice started, while it may still turn out pure (see
        // `fast_forward`); a hook that observes rules the skip out.
        let mut start = (!hook.observes()).then(|| self.mark(i));
        let slice_end = budget_end.min(self.vtime + QUANTUM);
        while self.vtime < slice_end
            && self.threads[i].state == TState::Runnable
            && self.crashed.is_none()
        {
            let rip = self.threads[i].cpu.rip;
            if rip == TRAP_PAGE {
                self.threads[i].state = TState::Parked;
                break;
            }
            if self.api.contains(rip) {
                start = None;
                self.dispatch_api(i, hook);
                continue;
            }
            let exit = self.threads[i].cpu.step(&mut self.mem, hook);
            self.vtime += 1;
            match exit {
                Exit::Normal => {}
                Exit::Breakpoint | Exit::Hypercall | Exit::Syscall => start = None,
                Exit::Halt => {
                    // Cooperative yield: the end of a pure slice.
                    if let Some(start) = start {
                        self.fast_forward(i, start, budget_end);
                    }
                    break;
                }
                Exit::Fault(f) => {
                    self.dispatch_exception(i, STATUS_ACCESS_VIOLATION, Some(f), hook);
                    break;
                }
                Exit::IllegalInst => {
                    self.dispatch_exception(i, STATUS_ILLEGAL_INSTRUCTION, None, hook);
                    break;
                }
            }
        }
        true
    }

    /// Skip whole repetitions of the pure slice thread `i` just ran, if
    /// the slice was a fixed point (see [`crate::fixed_point`]).
    ///
    /// A *pure* slice retires only plain instructions and ends in `hlt`:
    /// no API dispatch, exception, syscall/int3/cpuid, trap-page park or
    /// quantum cut. With no other thread runnable, `k` further cycles
    /// cost only their virtual time and retired steps: `k` is bounded so
    /// every skipped cycle ends at or before `budget_end` and every
    /// skipped slice starts before the earliest sleeper's deadline (a
    /// sleeper is woken at the start of every slice). Only called for a
    /// hook that does not observe, since a skipped cycle fires no hook
    /// callbacks.
    fn fast_forward(&mut self, i: usize, start: Mark, budget_end: u64) {
        let Some(cycle) = start.cycle_to(&self.mark(i)) else {
            return;
        };
        if self
            .threads
            .iter()
            .enumerate()
            .any(|(j, t)| j != i && t.state == TState::Runnable)
        {
            return;
        }
        let mut k = budget_end.saturating_sub(self.vtime) / cycle.vtime;
        if let Some(d) = self.next_wake() {
            k = k.min(d.saturating_sub(self.vtime).div_ceil(cycle.vtime));
        }
        let skipped = cycle.times(k);
        self.vtime += skipped.vtime;
        self.threads[i].cpu.steps += skipped.steps;
    }

    /// Thread `i`'s state and the clocks, for [`WinProc::fast_forward`].
    fn mark(&self, i: usize) -> Mark {
        Mark::of(&self.threads[i].cpu, &self.mem, self.vtime, 0)
    }

    /// The earliest deadline of a sleeping thread.
    fn next_wake(&self) -> Option<u64> {
        self.threads
            .iter()
            .filter_map(|t| match t.state {
                TState::Sleeping(d) => Some(d),
                _ => None,
            })
            .min()
    }

    fn dispatch_api(&mut self, i: usize, hook: &mut dyn OsHook) {
        let rip = self.threads[i].cpu.rip;
        let Some(spec) = self.api.spec_at(rip).cloned() else {
            self.crashed = Some(WinCrash { rip, fault: None });
            return;
        };
        hook.on_api_call(&spec.name, &self.threads[i].cpu, &self.mem);
        let (args, rsp) = {
            let cpu = &self.threads[i].cpu;
            (
                [
                    cpu.reg(cr_isa::Reg::Rcx),
                    cpu.reg(cr_isa::Reg::Rdx),
                    cpu.reg(cr_isa::Reg::R8),
                    cpu.reg(cr_isa::Reg::R9),
                ],
                cpu.reg(cr_isa::Reg::Rsp),
            )
        };
        let Ok(ret_addr) = self.mem.read_u64(rsp) else {
            self.crashed = Some(WinCrash { rip, fault: None });
            return;
        };
        // Cost of an API call in virtual time.
        self.vtime += 20;
        let outcome = execute_api(&spec, args, &mut self.mem, self.vtime);
        let finish = |p: &mut WinProc, i: usize, rax: u64| {
            let cpu = &mut p.threads[i].cpu;
            cpu.set_reg(cr_isa::Reg::Rax, rax);
            cpu.set_reg(cr_isa::Reg::Rsp, rsp + 8);
            cpu.rip = ret_addr;
        };
        match outcome {
            ApiOutcome::Returned(v) => {
                let v = if spec.name == "VirtualAlloc" {
                    let size = (args[1] + 0xFFF) & !0xFFF;
                    let addr = self.alloc_next;
                    self.alloc_next += size + 0x1000;
                    self.mem.map(addr, size, Prot::RW);
                    addr
                } else {
                    v
                };
                finish(self, i, v);
                hook.on_ret(&self.threads[i].cpu, ret_addr);
            }
            ApiOutcome::SleepFor(ms) => {
                finish(self, i, 0);
                hook.on_ret(&self.threads[i].cpu, ret_addr);
                self.threads[i].state = TState::Sleeping(self.vtime + ms * STEPS_PER_MS);
            }
            ApiOutcome::RegisterVeh(h) => {
                self.veh.push(h);
                finish(self, i, 1);
                hook.on_ret(&self.threads[i].cpu, ret_addr);
            }
            ApiOutcome::Faulted(f) => {
                // The exception unwinds to the call site: dispatch against
                // the guarded region containing the call instruction.
                finish(self, i, 0);
                hook.on_ret(&self.threads[i].cpu, ret_addr);
                let call_site = ret_addr.wrapping_sub(1);
                self.threads[i].cpu.rip = call_site;
                self.dispatch_exception(i, STATUS_ACCESS_VIOLATION, Some(f), hook);
                // If handled via scope target, rip was redirected. If the
                // dispatcher chose "resume", resume means: return from the
                // API with the error return (already set).
                if self.crashed.is_none() && self.threads[i].cpu.rip == call_site {
                    self.threads[i].cpu.rip = ret_addr;
                }
            }
        }
    }

    /// Dispatch an exception for thread `i` whose faulting instruction is
    /// at `cpu.rip`. Updates the fault log and either redirects control
    /// (handled) or records a crash.
    fn dispatch_exception(
        &mut self,
        i: usize,
        code: u32,
        fault: Option<Fault>,
        hook: &mut dyn OsHook,
    ) {
        let rip = self.threads[i].cpu.rip;
        let mut handled = false;
        let mut resume_skip = false;

        // §VII-C policy: an access to unmapped memory is always fatal.
        let policy_blocks = self.strict_unmapped_policy && matches!(fault, Some(f) if !f.mapped);

        // 1. Vectored handlers (runtime-registered, process-wide).
        for h in if policy_blocks {
            Vec::new()
        } else {
            self.veh.clone()
        } {
            let verdict = self.run_handler_code(h, code, fault);
            if verdict == -1 {
                // EXCEPTION_CONTINUE_EXECUTION: the handler repaired the
                // situation; modeled as skipping the faulting instruction.
                handled = true;
                resume_skip = true;
                break;
            }
            // 0 = EXCEPTION_CONTINUE_SEARCH → next handler.
        }

        // 2. SEH scope tables from .pdata.
        if !handled && !policy_blocks {
            if let Some((base, scopes)) = self.seh_scopes_at(rip) {
                let rva = (rip - base) as u32;
                for scope in scopes {
                    if rva < scope.begin_rva || rva >= scope.end_rva {
                        continue;
                    }
                    let verdict = match scope.filter {
                        FilterRef::CatchAll => 1,
                        FilterRef::Function(frva) => {
                            self.run_handler_code(base + frva as u64, code, fault)
                        }
                    };
                    if verdict > 0 {
                        // EXCEPTION_EXECUTE_HANDLER → __except block.
                        self.threads[i].cpu.rip = base + scope.target_rva as u64;
                        handled = true;
                        break;
                    }
                    if verdict == -1 {
                        handled = true;
                        resume_skip = true;
                        break;
                    }
                }
            }
        }

        if resume_skip {
            // Skip the faulting instruction (bounded decode; peek ignores
            // permissions since rip is executable anyway).
            let mut bytes = [0u8; 15];
            if self.mem.peek(rip, &mut bytes).is_ok() {
                if let Ok(d) = cr_isa::decode(&bytes) {
                    self.threads[i].cpu.rip = rip + d.len as u64;
                } else {
                    handled = false;
                }
            } else {
                handled = false;
            }
        }

        self.fault_log.push(FaultEvent {
            vtime: self.vtime,
            rip,
            addr: fault.map(|f| f.addr),
            mapped: fault.map(|f| f.mapped).unwrap_or(false),
            handled,
        });
        hook.on_exception(rip, handled);

        if !handled {
            self.crashed = Some(WinCrash { rip, fault });
        }
    }

    /// Scope table covering `va`, with the module base. If multiple
    /// `.pdata` entries cover the address (overlapping function ranges in
    /// malformed or padded images), prefer one with an exception handler.
    fn seh_scopes_at(&self, va: u64) -> Option<(u64, Vec<cr_image::ScopeEntry>)> {
        let m = self.module_at(va)?;
        let rva = (va - m.base) as u32;
        let rf = m
            .image
            .runtime_functions
            .iter()
            .filter(|f| rva >= f.begin_rva && rva < f.end_rva)
            .find(|f| f.unwind.handler_rva.is_some())?;
        Some((m.base, rf.unwind.scopes.clone()))
    }

    /// Execute a handler/filter function concretely in the emulator with
    /// an exception record for (`code`, `fault`). Returns `eax` as i32,
    /// or 0 (continue search) if the handler itself misbehaves.
    fn run_handler_code(&mut self, entry: u64, code: u32, fault: Option<Fault>) -> i64 {
        // Build EXCEPTION_POINTERS + EXCEPTION_RECORD in scratch.
        let ptrs = SCRATCH;
        let record = SCRATCH + 0x100;
        let context = SCRATCH + 0x400;
        let _ = self.mem.write_u64(ptrs, record);
        let _ = self.mem.write_u64(ptrs + 8, context);
        let _ = self.mem.write(record, &code.to_le_bytes());
        let _ = self.mem.write(record + 4, &0u32.to_le_bytes());
        let _ = self.mem.write_u64(record + 0x10, 0);
        let _ = self.mem.write(record + 0x18, &2u32.to_le_bytes());
        let (acc, addr) = match fault {
            Some(f) => (
                match f.access {
                    cr_vm::Access::Write => 1u64,
                    _ => 0,
                },
                f.addr,
            ),
            None => (0, 0),
        };
        let _ = self.mem.write_u64(record + 0x20, acc);
        let _ = self.mem.write_u64(record + 0x28, addr);

        let mut cpu = Cpu::new();
        cpu.rip = entry;
        cpu.set_reg(cr_isa::Reg::Rcx, ptrs);
        cpu.set_reg(cr_isa::Reg::Rdx, SCRATCH + 0x800);
        let rsp = SCRATCH + 0xF00;
        let _ = self.mem.write_u64(rsp, TRAP_PAGE);
        cpu.set_reg(cr_isa::Reg::Rsp, rsp);
        for _ in 0..FILTER_STEP_BUDGET {
            if cpu.rip == TRAP_PAGE {
                return cpu.reg(cr_isa::Reg::Rax) as u32 as i32 as i64;
            }
            match cpu.step(&mut self.mem, &mut NullHook) {
                Exit::Normal | Exit::Breakpoint | Exit::Hypercall | Exit::Syscall => {}
                Exit::Halt => {
                    if cpu.rip == TRAP_PAGE + 1 {
                        return cpu.reg(cr_isa::Reg::Rax) as u32 as i32 as i64;
                    }
                }
                Exit::Fault(_) | Exit::IllegalInst => return 0,
            }
        }
        0
    }

    /// Terminate a thread (driver-level; targets park at the trap page).
    pub fn exit_thread(&mut self, tid: u32) {
        if let Some(t) = self.threads.iter_mut().find(|t| t.tid == tid) {
            t.state = TState::Exited;
        }
    }

    /// The CPU of thread `tid`: registers, flags and retired steps.
    pub fn thread_cpu(&self, tid: u32) -> Option<&Cpu> {
        self.threads.iter().find(|t| t.tid == tid).map(|t| &t.cpu)
    }

    /// `(tid, parked, sleeping)` snapshots for driver assertions.
    pub fn thread_states(&self) -> Vec<(u32, bool, bool)> {
        self.threads
            .iter()
            .map(|t| {
                (
                    t.tid,
                    t.state == TState::Parked || t.state == TState::Exited,
                    matches!(t.state, TState::Sleeping(_)),
                )
            })
            .collect()
    }

    /// Fuzzer entry: execute an API behaviour directly against this
    /// process's memory without any guest code.
    pub fn call_api_raw(&mut self, name: &str, args: [u64; 4]) -> ApiOutcome {
        let spec = self
            .api
            .spec_at(self.api.address_of(name))
            .cloned()
            .expect("address_of validated the name");
        self.vtime += 20;
        execute_api(&spec, args, &mut self.mem, self.vtime)
    }
}
