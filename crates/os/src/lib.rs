//! # cr-os — OS personalities for the emulator
//!
//! Two operating-system personalities implement the fault-handling
//! contracts crash-resistant primitives are built from:
//!
//! * [`linux`] — processes with threads, a syscall layer that answers
//!   invalid user pointers with `-EFAULT` (never a fault), a virtual TCP
//!   network, an in-memory filesystem, epoll and signals. This hosts the
//!   five synthetic servers of Table I.
//! * [`windows`] — modules loaded from PE images, a Windows-API dispatch
//!   layer with a fuzzable corpus, and a structured-exception-handling
//!   (SEH + VEH) dispatcher that executes exception filters *in the
//!   emulator*. This hosts the browser targets of Tables II/III.
//!
//! Instrumentation attaches through [`OsHook`], which extends the plain
//! [`cr_vm::Hook`] with syscall- and API-level events — the analogue of
//! the paper's libdft/DynamoRIO tooling layers.

mod fixed_point;
pub mod linux;
pub mod windows;

use cr_vm::{CoverageHook, Cpu, Hook, Memory, NullHook, PairHook};

/// Virtual-time conversion: steps per millisecond (1 step ≈ 1 µs).
pub const STEPS_PER_MS: u64 = 1000;

/// Instrumentation interface for OS-level events, extending the
/// instruction-level [`Hook`].
pub trait OsHook: Hook {
    /// The scheduler switched to thread `tid`. Hooks keeping per-thread
    /// shadow state (taint register files, pointer provenance) swap their
    /// banks here.
    fn on_schedule(&mut self, tid: u32) {
        let _ = tid;
    }

    /// A syscall is about to be dispatched. The hook may inspect *and
    /// mutate* the CPU — the discovery monitor uses this to corrupt
    /// pointer arguments ("invalidate" them, §IV-A) before the kernel
    /// reads them.
    fn on_syscall(&mut self, tid: u32, cpu: &mut Cpu, mem: &Memory) {
        let _ = (tid, cpu, mem);
    }

    /// A syscall completed with return value `ret`.
    fn on_syscall_ret(&mut self, tid: u32, nr: u64, ret: i64) {
        let _ = (tid, nr, ret);
    }

    /// A Windows API function is about to run (name, CPU at the call,
    /// and the live address space for argument classification).
    fn on_api_call(&mut self, name: &str, cpu: &Cpu, mem: &Memory) {
        let _ = (name, cpu, mem);
    }

    /// An exception was dispatched: `rip` of the faulting instruction and
    /// whether some handler accepted it (crash-resistance in action).
    fn on_exception(&mut self, rip: u64, handled: bool) {
        let _ = (rip, handled);
    }
}

impl OsHook for NullHook {}

impl OsHook for CoverageHook {}

impl<A: OsHook, B: OsHook> OsHook for PairHook<A, B> {
    fn on_schedule(&mut self, tid: u32) {
        self.0.on_schedule(tid);
        self.1.on_schedule(tid);
    }

    fn on_syscall(&mut self, tid: u32, cpu: &mut Cpu, mem: &Memory) {
        self.0.on_syscall(tid, cpu, mem);
        self.1.on_syscall(tid, cpu, mem);
    }

    fn on_syscall_ret(&mut self, tid: u32, nr: u64, ret: i64) {
        self.0.on_syscall_ret(tid, nr, ret);
        self.1.on_syscall_ret(tid, nr, ret);
    }

    fn on_api_call(&mut self, name: &str, cpu: &Cpu, mem: &Memory) {
        self.0.on_api_call(name, cpu, mem);
        self.1.on_api_call(name, cpu, mem);
    }

    fn on_exception(&mut self, rip: u64, handled: bool) {
        self.0.on_exception(rip, handled);
        self.1.on_exception(rip, handled);
    }
}
