//! Linux syscall-oracle discovery (paper §IV-A / §V-A, Table I).
//!
//! Two phases, mirroring the paper's monitor:
//!
//! 1. **Observation.** The server runs its test workload under byte-
//!    granular taint tracking plus pointer-provenance tracking. At every
//!    `-EFAULT`-capable syscall, each pointer argument is checked: if its
//!    value was loaded from attacker-reachable memory (or is tainted by
//!    network input), the call site is a *candidate* and the source cells
//!    are recorded.
//! 2. **Invalidation.** Per candidate, a fresh server instance runs the
//!    workload while a corruption monitor overwrites the source cells
//!    with an invalid address right before the server loads them (the
//!    attacker's arbitrary-write primitive). The outcome classifies the
//!    candidate: a segmentation fault (the pointer is also dereferenced
//!    in user mode) is the paper's "±"; an observable `-EFAULT` with the
//!    process alive is reported **usable** — exactly like the paper's
//!    prototype, which does *not* verify that connection-handling threads
//!    survive. The separate `service_after` bit is the manual
//!    verification step that exposes the Memcached false positive.

use crate::provenance::{ProvBank, Provenance};
use cr_isa::{Inst, Reg, Rm, Width};
use cr_os::linux::syscall::{self, efault_capable, pointer_args};
use cr_os::OsHook;
use cr_taint::{RegShadow, TaintEngine};
use cr_targets::ServerTarget;
use cr_vm::{Cpu, Hook, Memory, NullHook};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Argument registers in syscall ABI order.
pub const ARG_REGS: [Reg; 6] = [Reg::Rdi, Reg::Rsi, Reg::Rdx, Reg::R10, Reg::R8, Reg::R9];

/// Taint label for attacker-reachable memory seeds.
pub const LABEL_ATTACKER_MEM: u8 = 0;
/// Taint label for bytes received from the network.
pub const LABEL_NET_INPUT: u8 = 1;

/// Invalid address used for pointer invalidation.
pub const BAD_POINTER: u64 = 0xdead_0000;

/// A candidate discovered in the observation phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Syscall number.
    pub syscall: u64,
    /// Pointer argument index (0-based).
    pub arg_index: usize,
    /// Memory cells the pointer value was loaded from.
    pub sources: BTreeSet<u64>,
    /// Whether network-input taint reached the argument.
    pub tainted_by_input: bool,
    /// Times the candidate was observed.
    pub hits: u32,
}

/// Invalidation outcome for a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum Classification {
    /// The server crashed (SIGSEGV) — the pointer is consumed in user
    /// mode too. Table I's "±".
    CrashesOnInvalidation,
    /// `-EFAULT` observed and the process survived — the framework calls
    /// this usable (Table I's circled plus). `service_after` records the
    /// manual-verification follow-up: can a *new* connection still be
    /// served once the attacker stops corrupting? `false` is the paper's
    /// Memcached false positive.
    Usable {
        /// Post-hoc service liveness (manual verification step).
        service_after: bool,
    },
    /// The corrupted path never executed again.
    NotRetriggered,
}

/// One row of the per-server report.
#[derive(Debug, Clone, serde::Serialize)]
pub struct SyscallFinding {
    /// Syscall number.
    pub syscall: u64,
    /// Human-readable name.
    pub syscall_name: String,
    /// Pointer argument index.
    pub arg_index: usize,
    /// Source cells used for invalidation.
    pub sources: Vec<u64>,
    /// Network-input taint reached the argument.
    pub tainted_by_input: bool,
    /// Outcome of the invalidation phase.
    pub classification: Classification,
    /// `-EFAULT`s observed during invalidation.
    pub efaults_observed: u64,
}

/// Full discovery output for one server.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ServerReport {
    /// Server name (Table I column).
    pub server: String,
    /// All syscalls observed during the workload (candidate or not).
    pub observed_syscalls: Vec<u64>,
    /// Classified candidates.
    pub findings: Vec<SyscallFinding>,
}

impl ServerReport {
    /// The finding for `syscall`, if any.
    pub fn finding(&self, syscall: u64) -> Option<&SyscallFinding> {
        self.findings.iter().find(|f| f.syscall == syscall)
    }

    /// Usable primitives (framework verdict, before manual verification).
    pub fn usable(&self) -> Vec<&SyscallFinding> {
        self.findings
            .iter()
            .filter(|f| matches!(f.classification, Classification::Usable { .. }))
            .collect()
    }
}

/// Dynamically observed provenance for one syscall **site** (the
/// virtual address of the `syscall` instruction) — the structured
/// record the static/dynamic cross-validator consumes, instead of
/// re-parsing rendered report text. Populated during the observation
/// phase for every executed site, `-EFAULT`-capable or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteProvenance {
    /// Virtual address of the `syscall` instruction.
    pub va: u64,
    /// Syscall number executed at the site (last observed).
    pub syscall: u64,
    /// Times the site executed during the workload.
    pub hits: u32,
    /// Whether network-input taint reached any pointer argument here.
    pub tainted_by_input: bool,
    /// Memory cells pointer arguments were loaded from at this site.
    pub sources: BTreeSet<u64>,
    /// Union of taint labels seen on pointer arguments at this site.
    pub labels: BTreeSet<u8>,
}

/// Observation-phase monitor: taint + provenance + candidate recording.
pub struct FinderMonitor {
    taint: TaintEngine,
    prov: Provenance,
    taint_banks: HashMap<u32, RegShadow>,
    prov_banks: HashMap<u32, ProvBank>,
    cur_tid: u32,
    last_args: HashMap<u32, (u64, [u64; 6])>,
    /// Candidates keyed by (syscall, arg index).
    pub candidates: BTreeMap<(u64, usize), Candidate>,
    /// Every syscall number seen.
    pub observed: BTreeSet<u64>,
    /// Per-site provenance keyed by site address.
    pub sites: BTreeMap<u64, SiteProvenance>,
}

impl FinderMonitor {
    /// Monitor seeded with the attacker-reachable regions.
    pub fn new(regions: Vec<(u64, u64)>) -> FinderMonitor {
        let mut taint = TaintEngine::new();
        for &(base, len) in &regions {
            taint.taint_region(base, len, LABEL_ATTACKER_MEM);
        }
        FinderMonitor {
            taint,
            prov: Provenance::new(regions),
            taint_banks: HashMap::new(),
            prov_banks: HashMap::new(),
            cur_tid: 0,
            last_args: HashMap::new(),
            candidates: BTreeMap::new(),
            observed: BTreeSet::new(),
            sites: BTreeMap::new(),
        }
    }

    /// Access the underlying taint engine (for inspection in tests).
    pub fn taint(&self) -> &TaintEngine {
        &self.taint
    }

    /// Every observed site's provenance, sorted by address — the
    /// dynamic half of the static/dynamic cross-validation.
    pub fn site_provenances(&self) -> Vec<SiteProvenance> {
        self.sites.values().cloned().collect()
    }
}

impl Hook for FinderMonitor {
    fn on_inst(&mut self, cpu: &Cpu, mem: &mut Memory, inst: &Inst, va: u64, len: usize) {
        self.taint.on_inst(cpu, mem, inst, va, len);
        self.prov.on_inst(cpu, mem, inst, va, len);
    }
}

impl OsHook for FinderMonitor {
    fn on_schedule(&mut self, tid: u32) {
        if tid == self.cur_tid {
            return;
        }
        // Save current banks, load (or create) the new thread's banks.
        let mut tbank = self.taint_banks.remove(&tid).unwrap_or_default();
        let mut pbank = self.prov_banks.remove(&tid).unwrap_or([None; 16]);
        self.taint.swap_reg_file(&mut tbank);
        self.prov.swap_bank(&mut pbank);
        self.taint_banks.insert(self.cur_tid, tbank);
        self.prov_banks.insert(self.cur_tid, pbank);
        self.cur_tid = tid;
    }

    fn on_syscall(&mut self, tid: u32, cpu: &mut Cpu, _mem: &Memory) {
        let nr = cpu.reg(Reg::Rax);
        // The CPU has already advanced past the two-byte `syscall`
        // encoding when the OS hook fires — back up to the site itself.
        let site_va = cpu.rip.wrapping_sub(2);
        self.observed.insert(nr);
        let args = [
            cpu.reg(Reg::Rdi),
            cpu.reg(Reg::Rsi),
            cpu.reg(Reg::Rdx),
            cpu.reg(Reg::R10),
            cpu.reg(Reg::R8),
            cpu.reg(Reg::R9),
        ];
        self.last_args.insert(tid, (nr, args));
        let site = self.sites.entry(site_va).or_insert_with(|| SiteProvenance {
            va: site_va,
            syscall: nr,
            hits: 0,
            tainted_by_input: false,
            sources: BTreeSet::new(),
            labels: BTreeSet::new(),
        });
        site.hits += 1;
        site.syscall = nr;
        if !efault_capable(nr) {
            return;
        }
        for &ai in pointer_args(nr) {
            let reg = ARG_REGS[ai];
            if args[ai] == 0 {
                continue; // NULL argument (e.g. accept's addr)
            }
            let source = self.prov.source(reg);
            let taint_set = self.taint.reg_taint(reg, Width::B8);
            let tainted = taint_set.contains(LABEL_NET_INPUT);
            let site = self.sites.get_mut(&site_va).expect("inserted above");
            if let Some(s) = source {
                site.sources.insert(s);
            }
            for l in taint_set.labels() {
                site.labels.insert(l);
            }
            site.tainted_by_input |= tainted;
            if source.is_some() || tainted {
                let c = self
                    .candidates
                    .entry((nr, ai))
                    .or_insert_with(|| Candidate {
                        syscall: nr,
                        arg_index: ai,
                        sources: BTreeSet::new(),
                        tainted_by_input: false,
                        hits: 0,
                    });
                if let Some(s) = source {
                    c.sources.insert(s);
                }
                c.tainted_by_input |= tainted;
                c.hits += 1;
            }
        }
    }

    fn on_syscall_ret(&mut self, tid: u32, nr: u64, ret: i64) {
        // Network input becomes a taint source.
        if matches!(nr, syscall::nr::READ | syscall::nr::RECVFROM) && ret > 0 {
            if let Some(&(_, args)) = self.last_args.get(&tid) {
                self.taint
                    .taint_region(args[1], ret as u64, LABEL_NET_INPUT);
            }
        }
    }
}

/// Invalidation-phase monitor: overwrite the source cells with an
/// invalid pointer right before the server loads them.
///
/// It does not observe ([`Hook::observes`] is `false`), so the Linux
/// scheduler may fast-forward a corrupted thread's fixed-point spin
/// under it: its one action is a store of the bad pointer, which bumps
/// [`Memory::writes`] and so ends any fixed point, and it skips cells
/// that already hold the bad pointer, so on a cycle that stores nothing
/// every callback leaves `pokes` and `originals` as they were.
pub struct CorruptMonitor {
    cells: BTreeSet<u64>,
    bad: u64,
    /// Original cell values (for post-run restoration).
    pub originals: BTreeMap<u64, u64>,
    /// Number of pokes performed.
    pub pokes: u32,
    /// Whether corruption is armed.
    pub armed: bool,
}

impl CorruptMonitor {
    /// Corrupt `cells` with `bad`.
    pub fn new(cells: BTreeSet<u64>, bad: u64) -> CorruptMonitor {
        CorruptMonitor {
            cells,
            bad,
            originals: BTreeMap::new(),
            pokes: 0,
            armed: true,
        }
    }

    /// Restore every corrupted cell in `mem`.
    pub fn restore(&self, mem: &mut Memory) {
        for (&cell, &orig) in &self.originals {
            let _ = mem.write_u64(cell, orig);
        }
    }
}

impl Hook for CorruptMonitor {
    fn on_inst(&mut self, cpu: &Cpu, mem: &mut Memory, inst: &Inst, va: u64, len: usize) {
        if !self.armed {
            return;
        }
        // Only 64-bit loads can pull in a corruptible pointer.
        if let Inst::MovRRm {
            src: Rm::Mem(m),
            width: Width::B8,
            ..
        } = inst
        {
            let ea = cpu.effective_addr(m, va.wrapping_add(len as u64));
            if self.cells.contains(&ea) {
                if let Ok(orig) = mem.read_u64(ea) {
                    if orig != self.bad {
                        self.originals.entry(ea).or_insert(orig);
                        let _ = mem.write_u64(ea, self.bad);
                        self.pokes += 1;
                    }
                }
            }
        }
    }

    fn observes(&self) -> bool {
        false
    }
}

impl OsHook for CorruptMonitor {}

/// Run full discovery (both phases) against one server target.
///
/// # Examples
///
/// ```no_run
/// let target = cr_targets::all_servers().into_iter()
///     .find(|t| t.name == "nginx").unwrap();
/// let report = cr_core::discover_server(&target);
/// for finding in report.usable() {
///     println!("usable primitive: {}", finding.syscall_name);
/// }
/// ```
pub fn discover_server(target: &ServerTarget) -> ServerReport {
    // ---- Phase 1: observation ------------------------------------------
    let mon = observe_server(target);
    let observed: Vec<u64> = mon.observed.iter().copied().collect();
    let candidates: Vec<Candidate> = mon.candidates.values().cloned().collect();

    // ---- Phase 2: invalidation per candidate -----------------------------
    let mut findings = Vec::new();
    for cand in candidates {
        let (classification, efaults) = classify(target, &cand);
        findings.push(SyscallFinding {
            syscall: cand.syscall,
            syscall_name: syscall::name(cand.syscall).to_string(),
            arg_index: cand.arg_index,
            sources: cand.sources.iter().copied().collect(),
            tainted_by_input: cand.tainted_by_input,
            classification,
            efaults_observed: efaults,
        });
    }
    ServerReport {
        server: target.name.to_string(),
        observed_syscalls: observed,
        findings,
    }
}

/// Phase-1 observation only: boot `target`, drive its workload twice
/// under taint + provenance monitoring, and return the populated
/// monitor (candidates, observed syscalls, per-site provenance). The
/// traceless scanner's cross-validation mode consumes this directly.
pub fn observe_server(target: &ServerTarget) -> FinderMonitor {
    let mut mon = FinderMonitor::new(target.attacker_regions.clone());
    let mut p = target.boot(&mut mon);
    for _ in 0..2 {
        (target.exercise)(&mut p, &mut mon);
    }
    mon
}

fn classify(target: &ServerTarget, cand: &Candidate) -> (Classification, u64) {
    if cand.sources.is_empty() {
        // Input-tainted but not memory-resident: nothing to invalidate
        // with a write primitive.
        return (Classification::NotRetriggered, 0);
    }
    let mut cm = CorruptMonitor::new(cand.sources.clone(), BAD_POINTER);
    let mut p = target.boot(&mut NullHook);
    let _ = (target.exercise)(&mut p, &mut cm);
    if p.crash().is_some() {
        return (Classification::CrashesOnInvalidation, p.efault_count);
    }
    let efaults = p.efault_count;
    if efaults == 0 && cm.pokes == 0 {
        return (Classification::NotRetriggered, 0);
    }
    if efaults == 0 {
        // Poked but the syscall never consumed the bad pointer — give the
        // workload one more chance (the path may trigger on request N+1).
        let _ = (target.exercise)(&mut p, &mut cm);
        if p.crash().is_some() {
            return (Classification::CrashesOnInvalidation, p.efault_count);
        }
        if p.efault_count == 0 {
            return (Classification::NotRetriggered, 0);
        }
    }
    // Manual-verification step: stop corrupting, restore, and test service.
    cm.armed = false;
    cm.restore(&mut p.mem);
    let service_after = (target.exercise)(&mut p, &mut cm) && p.alive();
    if p.crash().is_some() {
        return (Classification::CrashesOnInvalidation, p.efault_count);
    }
    (
        Classification::Usable { service_after },
        p.efault_count.max(efaults),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_os::linux::syscall::nr;

    fn report_for(name: &str) -> ServerReport {
        let t = cr_targets::all_servers()
            .into_iter()
            .find(|t| t.name == name)
            .expect("known server");
        discover_server(&t)
    }

    #[test]
    fn nginx_recv_is_usable_and_service_survives() {
        let r = report_for("nginx");
        let recv = r.finding(nr::RECVFROM).expect("recv candidate found");
        assert_eq!(
            recv.classification,
            Classification::Usable {
                service_after: true
            },
            "nginx recv is the paper's ⊕ primitive"
        );
        assert!(recv.efaults_observed >= 1);
        // And the touched sites crash (± cells).
        for sc in [nr::OPEN, nr::CHMOD, nr::MKDIR, nr::UNLINK] {
            let f = r
                .finding(sc)
                .unwrap_or_else(|| panic!("{} candidate", syscall::name(sc)));
            assert_eq!(
                f.classification,
                Classification::CrashesOnInvalidation,
                "{} must crash on invalidation",
                syscall::name(sc)
            );
        }
    }

    #[test]
    fn lighttpd_read_is_usable() {
        let r = report_for("lighttpd");
        let read = r.finding(nr::READ).expect("read candidate");
        assert!(
            matches!(
                read.classification,
                Classification::Usable {
                    service_after: true
                }
            ),
            "lighttpd read must be usable, got {:?}",
            read.classification
        );
    }

    #[test]
    fn memcached_epoll_wait_is_the_false_positive() {
        let r = report_for("memcached");
        let ep = r.finding(nr::EPOLL_WAIT).expect("epoll_wait candidate");
        // Framework verdict: usable. Manual verification: service dead.
        assert_eq!(
            ep.classification,
            Classification::Usable {
                service_after: false
            },
            "the Memcached false positive"
        );
        let read = r.finding(nr::READ).expect("read candidate");
        assert_eq!(
            read.classification,
            Classification::Usable {
                service_after: true
            }
        );
    }

    #[test]
    fn cherokee_epoll_wait_is_usable() {
        let r = report_for("cherokee");
        let ep = r.finding(nr::EPOLL_WAIT).expect("epoll_wait candidate");
        assert_eq!(
            ep.classification,
            Classification::Usable {
                service_after: true
            }
        );
    }

    #[test]
    fn postgresql_epoll_wait_is_usable() {
        let r = report_for("postgresql");
        let ep = r.finding(nr::EPOLL_WAIT).expect("epoll_wait candidate");
        assert_eq!(
            ep.classification,
            Classification::Usable {
                service_after: true
            }
        );
    }
}
