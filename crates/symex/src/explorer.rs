//! Worklist path explorer for exception filters: the crate's one
//! decision procedure.
//!
//! * A **worklist explorer** forks at each *feasible* branch: both
//!   sides of a fork are probed against the current path condition and
//!   infeasible sides are pruned, which is what makes bounded loops
//!   terminate (the "stay in the loop" branch eventually contradicts
//!   the path condition).
//! * A **bounded loop-unroll budget** per fork site is the safety net
//!   for genuinely unbounded loops.
//! * **Incremental solving**: the path condition lives on a
//!   [`Session`] stack, so sibling paths share the encoding and the
//!   two-watched-literal state of their common prefix instead of
//!   re-blasting it.
//!
//! The one-door API is [`FilterExplorer::builder`] →
//! [`FilterExplorer::explore`] → [`ExplorationReport`] (per-path
//! verdicts, merged filter classification, path/solver/memo counters).
//! Exploration is a sequential depth-first walk on the calling thread,
//! so paths come back in one deterministic order; parallelism lives one
//! level up, where the campaign pool spreads whole filters over its
//! workers.
//!
//! Each exploration counts its own work in a [`crate::tally_work`]
//! scope on the exploring thread: the report carries the solver/memo
//! counts of that scope, and its completed and pruned paths count in
//! the scope too. Work in other threads never shows in a report. The
//! scope folds into any enclosing one when it closes, which is how a
//! campaign attempt's tally covers every filter it explored.

use crate::blast::{count_paths, tally_work, SatResult, Session};
use crate::exec::{
    default_max_steps, step_inst, CodeSource, FilterVerdict, PathEnd, StepOut, SymState, CODE_VAR,
    EXCEPTION_ACCESS_VIOLATION,
};
use crate::expr::{BoolExpr, CmpOp, Expr};
use cr_isa::{decode, Inst};
use std::collections::HashMap;

/// Verdict for one explored path.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub enum PathVerdict {
    /// This path returns ≠ 0 for some access violation.
    AcceptsAv {
        /// Concrete accepted `ExceptionCode` (the AV code by
        /// construction of the query).
        witness_code: u64,
    },
    /// This path returns 0 for every access violation (or is not
    /// reachable with `ExceptionCode == AV` at all).
    RejectsAv,
    /// The solver could not decide this path's query.
    Unknown(&'static str),
    /// Execution left the supported fragment before returning.
    Aborted(&'static str),
}

/// One explored path.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct PathReport {
    /// Per-path verdict.
    pub verdict: PathVerdict,
    /// Instructions executed along this path (prefix included).
    pub steps: usize,
    /// Number of branch constraints on this path's condition.
    pub depth: usize,
}

/// Structured result of exploring one filter: per-path verdicts, the
/// merged classification, and the work counters the campaign metrics
/// and benches consume.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct ExplorationReport {
    /// Merged filter classification: an accept witness wins, otherwise
    /// the first abort reason, otherwise solver unknowns, otherwise
    /// rejection.
    pub verdict: FilterVerdict,
    /// Every path, in deterministic DFS discovery order.
    pub paths: Vec<PathReport>,
    /// Paths that reached a `ret`.
    pub completed_paths: usize,
    /// Abort reasons, in path order.
    pub aborted_paths: Vec<&'static str>,
    /// Branch sides pruned as infeasible (this is what bounds loops).
    pub pruned_branches: usize,
    /// Total instructions symbolically executed.
    pub steps: usize,
    /// Satisfiability checks issued during this exploration
    /// (feasibility probes + per-path verdict queries).
    pub solver_calls: u64,
    /// Normalized-query memo probes during this exploration.
    pub memo_lookups: u64,
    /// Normalized-query memo hits during this exploration: probes that
    /// found an entry older than the exploration, or one this
    /// exploration already probed.
    pub memo_hits: u64,
}

/// Path-enumerating filter analysis with incremental solving.
/// Construct through [`FilterExplorer::builder`].
#[derive(Debug, Clone, Copy)]
pub struct FilterExplorer {
    max_paths: usize,
    max_steps: usize,
    max_unroll: usize,
}

impl Default for FilterExplorer {
    fn default() -> FilterExplorer {
        FilterExplorer::builder().build()
    }
}

/// Builder for [`FilterExplorer`] budgets.
#[derive(Debug, Clone, Copy)]
pub struct FilterExplorerBuilder {
    inner: FilterExplorer,
}

impl FilterExplorerBuilder {
    /// Maximum paths (completed + aborted) before giving up.
    pub fn max_paths(mut self, n: usize) -> Self {
        self.inner.max_paths = n;
        self
    }

    /// Maximum instructions per path. Defaults to 512, or to any
    /// [`crate::with_step_budget`] override active on this thread when
    /// [`FilterExplorer::builder`] is called: that is how the
    /// fault-injection hook reaches the explorer.
    pub fn max_steps(mut self, n: usize) -> Self {
        self.inner.max_steps = n;
        self
    }

    /// Maximum forks taken at one branch site per path — the loop
    /// unroll budget for loops whose trip count feasibility pruning
    /// cannot bound.
    pub fn max_unroll(mut self, n: usize) -> Self {
        self.inner.max_unroll = n;
        self
    }

    /// Finalize the configuration.
    pub fn build(self) -> FilterExplorer {
        self.inner
    }
}

/// One suspended sibling branch on the worklist: the forked state plus
/// the branch condition to assert when it resumes, and the [`Session`]
/// depth of the shared prefix it forked from.
struct LocalWork {
    st: SymState,
    /// Fork counts per branch site along this path (unroll budget).
    unroll: HashMap<u64, usize>,
    /// Session depth of the path prefix below `cond`.
    fork_depth: usize,
    /// Branch condition to push when this item resumes (`None` for the
    /// root, which starts on an empty path condition).
    cond: Option<BoolExpr>,
}

impl FilterExplorer {
    /// Start configuring an explorer. Defaults: 256 paths, 512 steps
    /// per path (or this thread's [`crate::with_step_budget`]
    /// override), 64 unrolls per branch site.
    pub fn builder() -> FilterExplorerBuilder {
        FilterExplorerBuilder {
            inner: FilterExplorer {
                max_paths: 256,
                max_steps: default_max_steps(),
                max_unroll: 64,
            },
        }
    }

    /// Explore the filter function entered at `entry` under the
    /// Windows x64 C-specific-handler filter ABI: `rcx =
    /// PEXCEPTION_POINTERS`, `rdx` = establisher frame, and the return
    /// value in `eax` decides handling.
    pub fn explore(&self, code: &dyn CodeSource, entry: u64) -> ExplorationReport {
        // Advisory span: whether an exploration happens at all can
        // depend on cache scheduling (another worker may populate the
        // shared verdict cache first), so it must not join the
        // deterministic event sequence.
        let mut span = cr_trace::span_advisory(cr_trace::Stage::Symex, "filter.explore");
        let (mut report, work) = tally_work(|| {
            let report = self.walk(code, entry);
            count_paths(report.completed_paths as u64, report.pruned_branches as u64);
            report
        });
        report.solver_calls = work.solver_calls;
        report.memo_lookups = work.memo_lookups;
        report.memo_hits = work.memo_hits;
        span.set_detail(|| {
            let verdict = match report.verdict {
                FilterVerdict::AcceptsAccessViolation { .. } => "accepts_av",
                FilterVerdict::RejectsAccessViolation => "rejects_av",
                FilterVerdict::Unknown(_) => "unknown",
            };
            format!(
                "paths={} completed={} aborted={} pruned={} steps={} verdict={verdict}",
                report.paths.len(),
                report.completed_paths,
                report.aborted_paths.len(),
                report.pruned_branches,
                report.steps,
            )
        });
        report
    }

    /// The depth-first walk behind [`FilterExplorer::explore`]: a LIFO
    /// worklist of suspended siblings over one incremental session.
    /// Fills everything in the report but the solver/memo counters.
    fn walk(&self, code: &dyn CodeSource, entry: u64) -> ExplorationReport {
        let mut session = Session::new();
        let mut fresh = 0u32;
        let code_is_av = BoolExpr::cmp(
            CmpOp::Eq,
            32,
            Expr::var(CODE_VAR, 32),
            Expr::c(EXCEPTION_ACCESS_VIOLATION),
        );
        let mut report = ExplorationReport {
            verdict: FilterVerdict::RejectsAccessViolation,
            paths: Vec::new(),
            completed_paths: 0,
            aborted_paths: Vec::new(),
            pruned_branches: 0,
            steps: 0,
            solver_calls: 0,
            memo_lookups: 0,
            memo_hits: 0,
        };
        let mut accept_witness = None;
        let mut any_unknown_solver = false;
        let mut work: Vec<LocalWork> = vec![LocalWork {
            st: SymState::filter_harness(entry),
            unroll: HashMap::new(),
            fork_depth: 0,
            cond: None,
        }];
        'work: while let Some(mut w) = work.pop() {
            if report.paths.len() >= self.max_paths {
                // The next sibling is where exploration stops: it
                // becomes the budget marker, at its fork coordinates.
                report.aborted_paths.push("path budget exhausted");
                report.paths.push(PathReport {
                    verdict: PathVerdict::Aborted("path budget exhausted"),
                    steps: w.st.steps,
                    depth: w.st.depth,
                });
                break;
            }
            let mut pspan = cr_trace::span_advisory(cr_trace::Stage::Symex, "filter.path");
            // Resume: rewind the session to the shared prefix and assert
            // this sibling's branch condition.
            let mut resume_err = None;
            if let Some(cond) = w.cond.take() {
                session.pop_to(w.fork_depth);
                resume_err = session.push(&cond).err();
                w.st.depth += 1;
            }
            let end = if let Some(e) = resume_err {
                PathEnd::Aborted(e)
            } else {
                loop {
                    if w.st.steps >= self.max_steps {
                        break PathEnd::Aborted("step budget exhausted");
                    }
                    let mut bytes = [0u8; 15];
                    let n = code.read_code(w.st.rip, &mut bytes);
                    if n == 0 {
                        break PathEnd::Aborted("fell off code");
                    }
                    let Ok(d) = decode(&bytes[..n]) else {
                        break PathEnd::Aborted("undecodable instruction");
                    };
                    w.st.steps += 1;
                    report.steps += 1;
                    match step_inst(&mut w.st, &d.inst, d.len, &mut fresh) {
                        StepOut::Continue => {}
                        StepOut::Fork(cond) => {
                            let next = w.st.rip.wrapping_add(d.len as u64);
                            let Inst::Jcc { rel, .. } = d.inst else {
                                unreachable!()
                            };
                            let target = next.wrapping_add(rel as i64 as u64);
                            let seen = w.unroll.entry(w.st.rip).or_insert(0);
                            *seen += 1;
                            if *seen > self.max_unroll {
                                break PathEnd::Aborted("loop unroll budget exhausted");
                            }
                            let not_cond = BoolExpr::not(cond.clone());
                            // `Unknown` counts as feasible: exploring the
                            // side is sound, the per-path query decides.
                            let mut feasible = |c: &BoolExpr| {
                                !matches!(
                                    session.check_assuming(std::slice::from_ref(c)),
                                    SatResult::Unsat
                                )
                            };
                            let (take_ok, fall_ok) = (feasible(&cond), feasible(&not_cond));
                            let (side, rip) = match (take_ok, fall_ok) {
                                (true, true) => {
                                    let mut taken = w.st.clone();
                                    taken.rip = target;
                                    work.push(LocalWork {
                                        st: taken,
                                        unroll: w.unroll.clone(),
                                        fork_depth: session.depth(),
                                        cond: Some(cond),
                                    });
                                    (not_cond, next)
                                }
                                (true, false) => {
                                    report.pruned_branches += 1;
                                    (cond, target)
                                }
                                (false, true) => {
                                    report.pruned_branches += 1;
                                    (not_cond, next)
                                }
                                (false, false) => {
                                    // The prefix itself is unsatisfiable
                                    // (reachable only via an explored
                                    // Unknown probe): drop the path, it
                                    // constrains nothing.
                                    report.pruned_branches += 2;
                                    pspan.set_detail(|| "verdict=infeasible-prefix".into());
                                    continue 'work;
                                }
                            };
                            if let Err(e) = session.push(&side) {
                                break PathEnd::Aborted(e);
                            }
                            w.st.depth += 1;
                            w.st.rip = rip;
                        }
                        StepOut::End(e) => break e,
                    }
                }
            };
            let verdict = match end {
                PathEnd::Aborted(r) => PathVerdict::Aborted(r),
                PathEnd::Ret(value) => {
                    // Query: path ∧ code == AV ∧ eax != 0.
                    let ret_nz = BoolExpr::cmp(CmpOp::Ne, 32, value, Expr::c(0));
                    match session.check_assuming(&[code_is_av.clone(), ret_nz]) {
                        SatResult::Sat(m) => PathVerdict::AcceptsAv {
                            witness_code: m.get(CODE_VAR),
                        },
                        SatResult::Unsat => PathVerdict::RejectsAv,
                        SatResult::Unknown(e) => PathVerdict::Unknown(e),
                    }
                }
            };
            let path = PathReport {
                verdict,
                steps: w.st.steps,
                depth: w.st.depth,
            };
            pspan.set_detail(|| {
                let v = match &path.verdict {
                    PathVerdict::AcceptsAv { .. } => "accepts_av",
                    PathVerdict::RejectsAv => "rejects_av",
                    PathVerdict::Unknown(_) => "unknown",
                    PathVerdict::Aborted(_) => "aborted",
                };
                format!("verdict={v} steps={} depth={}", path.steps, path.depth)
            });
            match &path.verdict {
                PathVerdict::Aborted(r) => report.aborted_paths.push(r),
                PathVerdict::AcceptsAv { witness_code } => {
                    report.completed_paths += 1;
                    accept_witness = accept_witness.or(Some(*witness_code));
                }
                PathVerdict::RejectsAv => report.completed_paths += 1,
                PathVerdict::Unknown(_) => {
                    report.completed_paths += 1;
                    any_unknown_solver = true;
                }
            }
            report.paths.push(path);
        }
        report.verdict = match accept_witness {
            Some(witness_code) => FilterVerdict::AcceptsAccessViolation { witness_code },
            None => match report.aborted_paths.first() {
                Some(&reason) => FilterVerdict::Unknown(reason),
                None if any_unknown_solver => FilterVerdict::Unknown("solver gave up"),
                None if report.completed_paths == 0 => FilterVerdict::Unknown("no complete path"),
                None => FilterVerdict::RejectsAccessViolation,
            },
        };
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_isa::{Asm, Cond, Inst, Mem as MemOp, Reg, Rm, Width};

    fn filter(build: impl FnOnce(&mut Asm)) -> (u64, Vec<u8>) {
        let mut a = Asm::new(0x1_0000);
        build(&mut a);
        (0x1_0000, a.assemble().unwrap().code)
    }

    fn explore(code: &(u64, Vec<u8>)) -> ExplorationReport {
        let src = (code.0, code.1.as_slice());
        FilterExplorer::default().explore(&src, code.0)
    }

    fn load_code_into_eax(a: &mut Asm) {
        a.load(Reg::Rax, MemOp::base(Reg::Rcx));
        a.inst(Inst::MovRRm {
            dst: Reg::Rax,
            src: Rm::Mem(MemOp::base(Reg::Rax)),
            width: Width::B4,
        });
    }

    fn cmp_eax_imm(a: &mut Asm, imm: u32) {
        a.inst(Inst::AluRmI {
            op: cr_isa::AluOp::Cmp,
            dst: Rm::Reg(Reg::Rax),
            imm: imm as i32,
            width: Width::B4,
        });
    }

    /// `code >> k` until zero, then accept iff code == `accept_code`.
    /// Only the exit-after-32-shifts path admits an AV code; the
    /// explorer prunes the loop closed instead of forking until a
    /// budget dies.
    fn shrink_loop_filter(accept_code: u32) -> (u64, Vec<u8>) {
        filter(|a| {
            load_code_into_eax(a);
            a.inst(Inst::MovRmR {
                dst: Rm::Reg(Reg::Rbx),
                src: Reg::Rax,
                width: Width::B4,
            });
            let top = a.fresh();
            a.bind(top);
            a.shr(Reg::Rbx, 1);
            a.cmp_ri(Reg::Rbx, 0);
            a.jcc(Cond::Ne, top);
            cmp_eax_imm(a, accept_code);
            let reject = a.fresh();
            a.jcc(Cond::Ne, reject);
            a.mov_ri(Reg::Rax, 1);
            a.ret();
            a.bind(reject);
            a.zero(Reg::Rax);
            a.ret();
        })
    }

    /// Spill eax (32-bit) to the stack, reload 64-bit, accept iff the
    /// reload equals 0x10. Truth: the low 32 bits are the exception
    /// code, so an AV can never be accepted. A memory model that drops
    /// the spilled value on the widening read would report an accept.
    fn spill_widen_filter() -> (u64, Vec<u8>) {
        filter(|a| {
            load_code_into_eax(a);
            a.inst(Inst::MovRmR {
                dst: Rm::Mem(MemOp::base_disp(Reg::Rsp, -8)),
                src: Reg::Rax,
                width: Width::B4,
            });
            a.inst(Inst::MovRRm {
                dst: Reg::Rax,
                src: Rm::Mem(MemOp::base_disp(Reg::Rsp, -8)),
                width: Width::B8,
            });
            a.inst(Inst::AluRmI {
                op: cr_isa::AluOp::Cmp,
                dst: Rm::Reg(Reg::Rax),
                imm: 0x10,
                width: Width::B8,
            });
            let reject = a.fresh();
            a.jcc(Cond::Ne, reject);
            a.mov_ri(Reg::Rax, 1);
            a.ret();
            a.bind(reject);
            a.zero(Reg::Rax);
            a.ret();
        })
    }

    #[test]
    fn explorer_classifies_straightline_filters() {
        let accept = filter(|a| {
            a.mov_ri(Reg::Rax, 1);
            a.ret();
        });
        let reject = filter(|a| {
            a.zero(Reg::Rax);
            a.ret();
        });
        let av_eq = filter(|a| {
            load_code_into_eax(a);
            cmp_eax_imm(a, 0xC000_0005);
            let no = a.fresh();
            a.jcc(Cond::Ne, no);
            a.mov_ri(Reg::Rax, 1);
            a.ret();
            a.bind(no);
            a.zero(Reg::Rax);
            a.ret();
        });
        let av = FilterVerdict::AcceptsAccessViolation {
            witness_code: EXCEPTION_ACCESS_VIOLATION,
        };
        assert_eq!(explore(&accept).verdict, av);
        assert_eq!(
            explore(&reject).verdict,
            FilterVerdict::RejectsAccessViolation
        );
        assert_eq!(explore(&av_eq).verdict, av);
    }

    #[test]
    fn explorer_prunes_shrink_loop_and_accepts_av() {
        let f = shrink_loop_filter(0xC000_0005);
        let r = explore(&f);
        assert_eq!(
            r.verdict,
            FilterVerdict::AcceptsAccessViolation {
                witness_code: EXCEPTION_ACCESS_VIOLATION
            }
        );
        assert!(r.aborted_paths.is_empty(), "{:?}", r.aborted_paths);
        // The loop exits after 1..=32 shifts; after the 32nd the "stay"
        // side is pruned. Only the 32-shift exit has the top bit set,
        // so it alone forks on `code == accept_code`; the 31 earlier
        // exits prune that compare. 33 paths, 32 prunes, one accepting.
        assert_eq!((r.completed_paths, r.paths.len()), (33, 33));
        assert_eq!(r.pruned_branches, 32, "loop must close by pruning");
        let accepting = r
            .paths
            .iter()
            .filter(|p| matches!(p.verdict, PathVerdict::AcceptsAv { .. }))
            .count();
        assert_eq!(accepting, 1);
    }

    #[test]
    fn explorer_prunes_shrink_loop_and_rejects_non_av() {
        let f = shrink_loop_filter(0xC000_0094);
        let r = explore(&f);
        assert_eq!(r.verdict, FilterVerdict::RejectsAccessViolation);
        assert_eq!((r.completed_paths, r.pruned_branches), (33, 32));
        assert!(r
            .paths
            .iter()
            .all(|p| matches!(p.verdict, PathVerdict::RejectsAv)));
    }

    #[test]
    fn explorer_fixes_spill_widen_misclassification() {
        let f = spill_widen_filter();
        let r = explore(&f);
        assert_eq!(r.verdict, FilterVerdict::RejectsAccessViolation);
        assert_eq!((r.completed_paths, r.pruned_branches), (2, 0));
    }

    #[test]
    fn unroll_budget_bounds_symbolic_loops() {
        let f = shrink_loop_filter(0xC000_0005);
        let r = FilterExplorer::builder()
            .max_unroll(4)
            .build()
            .explore(&(f.0, f.1.as_slice()), f.0);
        assert_eq!(
            r.verdict,
            FilterVerdict::Unknown("loop unroll budget exhausted")
        );
        assert!(r.aborted_paths.contains(&"loop unroll budget exhausted"));
    }

    #[test]
    fn path_budget_caps_exploration() {
        let f = shrink_loop_filter(0xC000_0094);
        let r = FilterExplorer::builder()
            .max_paths(4)
            .build()
            .explore(&(f.0, f.1.as_slice()), f.0);
        assert_eq!(r.verdict, FilterVerdict::Unknown("path budget exhausted"));
        assert_eq!(r.paths.len(), 5, "4 paths + the budget marker");
    }

    #[test]
    fn exploration_counters_and_analysis_view() {
        let f = shrink_loop_filter(0xC000_0005);
        let r = explore(&f);
        assert!(r.solver_calls > 0);
        assert!(r.memo_lookups > 0);
        assert!(r.steps > 0);
        // The merged fields are a view of the per-path records.
        let aborted: Vec<&str> = r
            .paths
            .iter()
            .filter_map(|p| match p.verdict {
                PathVerdict::Aborted(why) => Some(why),
                _ => None,
            })
            .collect();
        assert_eq!(r.aborted_paths, aborted);
        assert_eq!(r.completed_paths, r.paths.len() - aborted.len());
    }

    #[test]
    fn step_budget_override_reaches_explorer_defaults() {
        let clamped = crate::with_step_budget(3, || FilterExplorer::builder().build());
        let f = filter(|a| {
            a.mov_ri(Reg::Rax, 1);
            a.ret();
        });
        let r = clamped.explore(&(f.0, f.1.as_slice()), f.0);
        // Depending on the filter length the clamp may or may not bite;
        // what matters is the configured budget, so use a filter long
        // enough that 3 steps cannot finish it.
        let long = filter(|a| {
            load_code_into_eax(a);
            cmp_eax_imm(a, 0xC000_0005);
            let no = a.fresh();
            a.jcc(Cond::Ne, no);
            a.mov_ri(Reg::Rax, 1);
            a.ret();
            a.bind(no);
            a.zero(Reg::Rax);
            a.ret();
        });
        let r2 = crate::with_step_budget(3, || {
            FilterExplorer::builder()
                .build()
                .explore(&(long.0, long.1.as_slice()), long.0)
        });
        assert_eq!(r2.verdict, FilterVerdict::Unknown("step budget exhausted"));
        drop(r);
    }

    #[test]
    fn enclosing_tally_sums_the_explorations_inside_it() {
        let (f, g) = (spill_widen_filter(), shrink_loop_filter(0xC000_0005));
        let ((a, b), outer) = crate::tally_work(|| (explore(&f), explore(&g)));
        assert_eq!(outer.solver_calls, a.solver_calls + b.solver_calls);
        assert_eq!(outer.memo_lookups, a.memo_lookups + b.memo_lookups);
        assert_eq!(
            outer.paths_completed,
            (a.completed_paths + b.completed_paths) as u64
        );
        assert_eq!(
            outer.paths_pruned,
            (a.pruned_branches + b.pruned_branches) as u64
        );
        assert!(outer.paths_pruned > 0, "the loop filter prunes");
    }
}
