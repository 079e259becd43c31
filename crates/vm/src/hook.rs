//! Instrumentation hooks — the emulator's equivalent of Pin/DynamoRIO.
//!
//! A [`Hook`] observes retired instructions, data accesses and control
//! transfers. The taint engine, the execution-path harvester and the
//! fault-rate detector are all implemented as hooks, mirroring how the
//! paper's tooling instruments real binaries.

use crate::cpu::Cpu;
use crate::mem::Memory;
use cr_isa::Inst;
use std::collections::HashSet;

/// Observer of a CPU's execution.
///
/// All methods have empty default bodies so hooks only implement what
/// they need. Methods are called *during* [`Cpu::step`]:
///
/// * [`Hook::on_inst`] before the instruction's effects are applied —
///   with *mutable* memory access, so fault-injection monitors (pointer
///   invalidation, §IV-A of the paper) can be built as hooks;
/// * [`Hook::on_mem_read`]/[`Hook::on_mem_write`] after a successful
///   data access (faulting accesses never reach the hook);
/// * [`Hook::on_call`]/[`Hook::on_ret`] when the transfer is committed.
pub trait Hook {
    /// An instruction at `va` (of encoded length `len`) is about to
    /// execute. `mem` is the live address space; mutating it *before* the
    /// instruction runs is the supported fault-injection mechanism.
    fn on_inst(&mut self, cpu: &Cpu, mem: &mut Memory, inst: &Inst, va: u64, len: usize) {
        let _ = (cpu, mem, inst, va, len);
    }

    /// `len` bytes were read from `va`.
    fn on_mem_read(&mut self, cpu: &Cpu, va: u64, len: usize) {
        let _ = (cpu, va, len);
    }

    /// `len` bytes were written to `va`.
    fn on_mem_write(&mut self, cpu: &Cpu, va: u64, len: usize) {
        let _ = (cpu, va, len);
    }

    /// A call retired: return address `ret_to`, destination `target`.
    fn on_call(&mut self, cpu: &Cpu, ret_to: u64, target: u64) {
        let _ = (cpu, ret_to, target);
    }

    /// A return retired to `ret_to`.
    fn on_ret(&mut self, cpu: &Cpu, ret_to: u64) {
        let _ = (cpu, ret_to);
    }

    /// Whether the hook needs to see every instruction. A scheduler may
    /// skip provably repeating cycles (advancing virtual time and step
    /// counts without stepping or firing any callback) only for a hook
    /// that returns `false`. Return `false` only if every callback on a
    /// cycle that leaves the registers, flags, `rip`,
    /// [`Memory::writes`] and [`Memory::generation`] unchanged is a
    /// no-op on the hook's own state. [`NullHook`] does; so does a hook
    /// whose only action is a store (the store bumps `writes`). Hooks
    /// that record what runs, such as [`CoverageHook`] and taint, keep
    /// the default, and so does [`PairHook`].
    fn observes(&self) -> bool {
        true
    }
}

/// A hook that observes nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullHook;

impl Hook for NullHook {
    fn observes(&self) -> bool {
        false
    }
}

/// Records basic-block-ish coverage: every executed instruction address,
/// plus the dynamic call edges. The exception-handler analysis
/// cross-references guarded code regions against `visited` exactly like
/// the paper cross-references DynamoRIO traces (§V-C).
#[derive(Debug, Clone, Default)]
pub struct CoverageHook {
    /// Every instruction address that retired.
    pub visited: HashSet<u64>,
    /// Dynamic call edges `(call site return address, callee)`.
    pub calls: Vec<(u64, u64)>,
    /// Current call stack (return addresses), innermost last.
    pub call_stack: Vec<u64>,
}

impl CoverageHook {
    /// An empty coverage recorder.
    pub fn new() -> CoverageHook {
        CoverageHook::default()
    }

    /// Whether any address in `[begin, end)` was executed.
    pub fn visited_range(&self, begin: u64, end: u64) -> bool {
        // Sets are small relative to ranges in our workloads; iterate set.
        self.visited.iter().any(|&va| va >= begin && va < end)
    }
}

impl Hook for CoverageHook {
    fn on_inst(&mut self, _cpu: &Cpu, _mem: &mut Memory, _inst: &Inst, va: u64, _len: usize) {
        self.visited.insert(va);
    }

    fn on_call(&mut self, _cpu: &Cpu, ret_to: u64, target: u64) {
        self.calls.push((ret_to, target));
        self.call_stack.push(ret_to);
    }

    fn on_ret(&mut self, _cpu: &Cpu, ret_to: u64) {
        // Pop until we find the matching frame (tolerates tail calls).
        while let Some(&top) = self.call_stack.last() {
            self.call_stack.pop();
            if top == ret_to {
                break;
            }
        }
    }
}

/// Chains two hooks, invoking both.
#[derive(Debug, Default)]
pub struct PairHook<A, B>(pub A, pub B);

impl<A: Hook, B: Hook> Hook for PairHook<A, B> {
    fn on_inst(&mut self, cpu: &Cpu, mem: &mut Memory, inst: &Inst, va: u64, len: usize) {
        self.0.on_inst(cpu, mem, inst, va, len);
        self.1.on_inst(cpu, mem, inst, va, len);
    }

    fn on_mem_read(&mut self, cpu: &Cpu, va: u64, len: usize) {
        self.0.on_mem_read(cpu, va, len);
        self.1.on_mem_read(cpu, va, len);
    }

    fn on_mem_write(&mut self, cpu: &Cpu, va: u64, len: usize) {
        self.0.on_mem_write(cpu, va, len);
        self.1.on_mem_write(cpu, va, len);
    }

    fn on_call(&mut self, cpu: &Cpu, ret_to: u64, target: u64) {
        self.0.on_call(cpu, ret_to, target);
        self.1.on_call(cpu, ret_to, target);
    }

    fn on_ret(&mut self, cpu: &Cpu, ret_to: u64) {
        self.0.on_ret(cpu, ret_to);
        self.1.on_ret(cpu, ret_to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{Cpu, Exit};
    use crate::mem::{Memory, Prot};
    use cr_isa::Asm;

    #[test]
    fn only_the_null_hook_observes_nothing() {
        assert!(!NullHook.observes());
        assert!(CoverageHook::new().observes());
        assert!(PairHook(NullHook, NullHook).observes());
    }

    #[test]
    fn coverage_records_calls_and_visits() {
        let mut a = Asm::new(0x1000);
        let f = a.fresh();
        a.call_label(f);
        a.hlt();
        a.bind(f);
        a.name("callee", f);
        a.ret();
        let asm = a.assemble().unwrap();
        let mut mem = Memory::new();
        mem.map(0x1000, 0x1000, Prot::RX);
        mem.poke(0x1000, &asm.code).unwrap();
        mem.map(0xF000, 0x1000, Prot::RW);
        let mut cpu = Cpu::new();
        cpu.rip = 0x1000;
        cpu.set_reg(cr_isa::Reg::Rsp, 0xFF00);
        let mut cov = CoverageHook::new();
        loop {
            match cpu.step(&mut mem, &mut cov) {
                Exit::Normal => {}
                Exit::Halt => break,
                e => panic!("unexpected {e:?}"),
            }
        }
        assert!(cov.visited.contains(&0x1000));
        assert_eq!(cov.calls.len(), 1);
        assert_eq!(cov.calls[0].1, asm.sym("callee"));
        assert!(cov.visited_range(asm.sym("callee"), asm.sym("callee") + 1));
        assert!(cov.call_stack.is_empty(), "ret must pop the frame");
    }
}
