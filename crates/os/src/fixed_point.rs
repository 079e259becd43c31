//! Exact fixed-point skipping, shared by both schedulers.
//!
//! A *cycle* is the stretch of one thread between two *marks*: points
//! where the scheduler knows everything in between was pure (plain
//! instructions, plus on Linux syscalls that failed before touching any
//! kernel state). If the thread's registers, flags, `rip` and the
//! memory's store and mapping counters read the same at both ends, the
//! next cycle repeats the last one bit for bit, and so does every cycle
//! after it until another thread runs or a deadline passes. Each
//! scheduler bounds the number `k` of repetitions by its own wake rule
//! and then advances only the clocks: `k` times the cycle's virtual
//! time, retired steps and `-EFAULT` returns.

use cr_vm::{Cpu, Flags, Memory};

/// What a cycle of one thread depends on and produces: the thread's
/// architectural state plus the memory's store and mapping counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CycleState {
    regs: [u64; 16],
    rip: u64,
    flags: Flags,
    writes: u64,
    generation: u64,
}

/// A [`CycleState`] with the clocks it was read at.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mark {
    state: CycleState,
    clocks: Clocks,
}

/// What a skipped cycle advances: virtual time, the thread's retired
/// steps and the process's `-EFAULT` count (always 0 on Windows).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Clocks {
    pub(crate) vtime: u64,
    pub(crate) steps: u64,
    pub(crate) efaults: u64,
}

impl Mark {
    /// Read a thread's state and the process clocks.
    pub(crate) fn of(cpu: &Cpu, mem: &Memory, vtime: u64, efaults: u64) -> Mark {
        Mark {
            state: CycleState {
                regs: cpu.regs,
                rip: cpu.rip,
                flags: cpu.flags,
                writes: mem.writes(),
                generation: mem.generation(),
            },
            clocks: Clocks {
                vtime,
                steps: cpu.steps,
                efaults,
            },
        }
    }

    /// The cost of the cycle from `self` to `end`, if the two marks
    /// read the same state (the cycle is a fixed point).
    pub(crate) fn cycle_to(&self, end: &Mark) -> Option<Clocks> {
        (self.state == end.state && end.clocks.vtime > self.clocks.vtime).then(|| Clocks {
            vtime: end.clocks.vtime - self.clocks.vtime,
            steps: end.clocks.steps - self.clocks.steps,
            efaults: end.clocks.efaults - self.clocks.efaults,
        })
    }
}

impl Clocks {
    /// The clocks of `k` repetitions.
    pub(crate) fn times(self, k: u64) -> Clocks {
        Clocks {
            vtime: k * self.vtime,
            steps: k * self.steps,
            efaults: k * self.efaults,
        }
    }
}
