//! A small incremental SAT solver with two-watched-literal unit
//! propagation.
//!
//! Decides the CNF formulas produced by the bit-blaster. Formula sizes
//! for exception-filter queries are a few thousand variables and
//! clauses; the watched-literal scheme visits only the clauses whose
//! watch is falsified instead of rescanning the whole formula on every
//! propagation round.

/// A CNF formula. Literals are non-zero `i32`s: variable `v` is `v`
/// (positive) or `-v` (negated); variables are numbered from 1.
///
/// Clauses live in one flat literal buffer with end offsets, so adding
/// a clause is a single `extend_from_slice`.
#[derive(Debug, Clone, Default)]
pub struct Cnf {
    /// Number of variables.
    pub num_vars: usize,
    /// All clause literals, concatenated.
    lits: Vec<i32>,
    /// Exclusive end offset of each clause in `lits`.
    ends: Vec<u32>,
}

impl Cnf {
    /// An empty formula (trivially satisfiable).
    pub fn new() -> Cnf {
        Cnf::default()
    }

    /// Allocate a fresh variable, returning its positive literal.
    pub fn fresh(&mut self) -> i32 {
        self.num_vars += 1;
        self.num_vars as i32
    }

    /// Add a clause.
    ///
    /// Literal validity (non-zero, references an allocated variable) is
    /// a `debug_assert!` — the blaster is the only producer and emits
    /// literals straight from [`Cnf::fresh`], so release builds skip
    /// the per-literal scan on this hot path.
    pub fn clause(&mut self, lits: &[i32]) {
        for &l in lits {
            debug_assert!(
                l != 0 && (l.unsigned_abs() as usize) <= self.num_vars,
                "bad literal {l}"
            );
        }
        self.lits.extend_from_slice(lits);
        self.ends.push(self.lits.len() as u32);
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.ends.len()
    }

    /// Total literal count across all clauses.
    pub fn num_lits(&self) -> usize {
        self.lits.len()
    }

    /// The `i`-th clause as a literal slice.
    pub fn clause_at(&self, i: usize) -> &[i32] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.lits[start..self.ends[i] as usize]
    }

    /// Iterate over all clauses.
    pub fn clauses(&self) -> impl Iterator<Item = &[i32]> + '_ {
        (0..self.num_clauses()).map(|i| self.clause_at(i))
    }
}

/// Outcome of a SAT query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveOutcome {
    /// Satisfiable, with an assignment indexed by variable number − 1.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
    /// The decision budget ran out before an answer (pathological
    /// instances; callers treat this as "unknown").
    BudgetExhausted,
}

/// Decision budget per [`IncrementalSat::solve_under`] call.
/// Filter-vetting formulas use a few hundred decisions; anything near
/// the budget is pathological.
const DECISION_BUDGET: u64 = 200_000;

/// One open decision (chronological backtracking).
struct Frame {
    lit: i32,
    mark: usize,
    cursor: usize,
    flipped: bool,
}

/// Literal → watch-list slot: variable `v` positive is `2(v−1)`,
/// negative is `2(v−1)+1`.
fn slot(lit: i32) -> usize {
    ((lit.unsigned_abs() as usize - 1) << 1) | usize::from(lit < 0)
}

/// Persistent two-watched-literal state for incremental solving.
///
/// Sibling paths in the filter explorer share almost their entire
/// formula, so each exploration session keeps one `IncrementalSat`.
/// Clauses are absorbed append-only from a monotone [`Cnf`] (the
/// session encoder never clears it), and each query is decided under a
/// set of *assumption literals* — the path-condition roots — via
/// [`IncrementalSat::solve_under`].
///
/// Soundness of popping a path constraint without retracting clauses:
/// the blaster's Tseitin clauses only *define* gate variables (`g ↔
/// f(inputs)`); they never assert a root. A constraint is asserted
/// solely by passing its root literal as an assumption, so dropping the
/// assumption fully retracts the constraint while its definitional
/// clauses stay behind as harmless (satisfiable-by-construction)
/// furniture.
///
/// Deterministic by construction: decisions follow a static activity
/// order (occurrence count descending, variable index ascending) with
/// phase `true` first, backtracking is chronological, and propagation
/// order is fixed by clause and trail order. The same clauses and
/// assumptions always yield the same outcome — the property the
/// normalized-query memo relies on. Assumptions are enqueued below
/// every decision frame and are therefore never flipped; a conflict
/// with no open decision frame is UNSAT under the assumptions. The
/// trail is fully undone before `solve_under` returns, leaving the
/// state quiescent for the next absorb/solve round.
pub struct IncrementalSat {
    /// 0 = unassigned, 1 = true, 2 = false; indexed by variable − 1.
    assign: Vec<u8>,
    /// Clause indices watching each literal slot (see `slot`).
    watches: Vec<Vec<u32>>,
    /// Normalized clause literals, flat; first two are the watches.
    db: Vec<i32>,
    /// `(start, len)` of each clause in `db`.
    bounds: Vec<(u32, u32)>,
    /// Assigned literals in assignment order.
    trail: Vec<i32>,
    /// Trail cursor: literals before it have been propagated.
    propagated: usize,
    /// Absorbed top-level unit clauses, replayed at every solve.
    root_units: Vec<i32>,
    /// An empty clause was absorbed: every query is UNSAT.
    conflict_at_root: bool,
    /// Source-`Cnf` clauses consumed so far (append-only cursor).
    absorbed: usize,
    /// Occurrence counts per variable (0-based), for decision order.
    counts: Vec<u32>,
    /// Static activity order over all variables; rebuilt when stale.
    order: Vec<u32>,
    order_stale: bool,
}

impl Default for IncrementalSat {
    fn default() -> IncrementalSat {
        IncrementalSat::new()
    }
}

impl IncrementalSat {
    /// Empty solver state; absorb clauses before solving.
    pub fn new() -> IncrementalSat {
        IncrementalSat {
            assign: Vec::new(),
            watches: Vec::new(),
            db: Vec::new(),
            bounds: Vec::new(),
            trail: Vec::new(),
            propagated: 0,
            root_units: Vec::new(),
            conflict_at_root: false,
            absorbed: 0,
            counts: Vec::new(),
            order: Vec::new(),
            order_stale: false,
        }
    }

    /// Number of source-`Cnf` clauses consumed so far.
    pub fn absorbed_clauses(&self) -> usize {
        self.absorbed
    }

    /// Ingest every clause appended to `cnf` since the last absorb.
    ///
    /// `cnf` must be the same monotone formula across the session:
    /// clauses `0..absorbed_clauses()` are assumed unchanged (only the
    /// tail is read), and `num_vars` must never shrink. Requires a
    /// quiescent solver (no in-flight trail), which every return path
    /// of [`IncrementalSat::solve_under`] guarantees.
    pub fn absorb(&mut self, cnf: &Cnf) {
        debug_assert!(self.trail.is_empty(), "absorb requires a quiescent solver");
        debug_assert!(cnf.num_clauses() >= self.absorbed, "source Cnf shrank");
        if cnf.num_vars > self.assign.len() {
            self.assign.resize(cnf.num_vars, 0);
            self.watches.resize(2 * cnf.num_vars, Vec::new());
            self.counts.resize(cnf.num_vars, 0);
        }
        let mut tmp: Vec<i32> = Vec::new();
        for i in self.absorbed..cnf.num_clauses() {
            // Normalize: drop duplicate literals; a clause containing
            // both `l` and `¬l` is a tautology and is dropped whole.
            tmp.clear();
            let mut taut = false;
            'lits: for &l in cnf.clause_at(i) {
                for &m in &tmp {
                    if m == l {
                        continue 'lits;
                    }
                    if m == -l {
                        taut = true;
                        break 'lits;
                    }
                }
                tmp.push(l);
            }
            if taut {
                continue;
            }
            for &l in &tmp {
                self.counts[l.unsigned_abs() as usize - 1] += 1;
            }
            match tmp.len() {
                0 => self.conflict_at_root = true,
                1 => self.root_units.push(tmp[0]),
                _ => {
                    let ci = self.bounds.len() as u32;
                    let start = self.db.len() as u32;
                    self.db.extend_from_slice(&tmp);
                    self.bounds.push((start, tmp.len() as u32));
                    self.watches[slot(tmp[0])].push(ci);
                    self.watches[slot(tmp[1])].push(ci);
                }
            }
        }
        self.absorbed = cnf.num_clauses();
        self.order_stale = true;
    }

    fn value(&self, lit: i32) -> Option<bool> {
        match self.assign[lit.unsigned_abs() as usize - 1] {
            0 => None,
            1 => Some(lit > 0),
            _ => Some(lit < 0),
        }
    }

    fn enqueue(&mut self, lit: i32) {
        self.assign[lit.unsigned_abs() as usize - 1] = if lit > 0 { 1 } else { 2 };
        self.trail.push(lit);
    }

    fn undo_to(&mut self, mark: usize) {
        for &l in &self.trail[mark..] {
            self.assign[l.unsigned_abs() as usize - 1] = 0;
        }
        self.trail.truncate(mark);
        self.propagated = mark;
    }

    /// Propagate every queued assignment; `false` means conflict.
    fn propagate(&mut self) -> bool {
        while self.propagated < self.trail.len() {
            let lit = self.trail[self.propagated];
            self.propagated += 1;
            let fl = -lit;
            let wslot = slot(fl);
            let mut i = 0;
            while i < self.watches[wslot].len() {
                let ci = self.watches[wslot][i] as usize;
                let (start, len) = self.bounds[ci];
                let (start, len) = (start as usize, len as usize);
                // Keep the falsified watch in slot 1.
                if self.db[start] == fl {
                    self.db.swap(start, start + 1);
                }
                let w0 = self.db[start];
                if self.value(w0) == Some(true) {
                    i += 1;
                    continue;
                }
                // Look for a non-false replacement watch.
                let mut moved = false;
                for k in 2..len {
                    let l = self.db[start + k];
                    if self.value(l) != Some(false) {
                        self.db[start + 1] = l;
                        self.db[start + k] = fl;
                        self.watches[slot(l)].push(ci as u32);
                        self.watches[wslot].swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                match self.value(w0) {
                    None => {
                        self.enqueue(w0);
                        i += 1;
                    }
                    Some(false) => return false,
                    Some(true) => unreachable!("satisfied clause handled above"),
                }
            }
        }
        true
    }

    /// Decide the absorbed formula under `assumptions` (literals that
    /// must hold for this query only). Deterministic for the same
    /// absorbed clauses and assumption set; the decision budget is per
    /// call. The trail is fully undone on every return path.
    pub fn solve_under(&mut self, assumptions: &[i32]) -> SolveOutcome {
        if self.conflict_at_root {
            return SolveOutcome::Unsat;
        }
        debug_assert!(
            self.trail.is_empty(),
            "solve_under requires a quiescent solver"
        );
        if self.order_stale {
            let counts = &self.counts;
            let mut order: Vec<u32> = (0..self.assign.len() as u32).collect();
            order.sort_by_key(|&v| (std::cmp::Reverse(counts[v as usize]), v));
            self.order = order;
            self.order_stale = false;
        }
        // Assumption level: root units and assumptions sit below every
        // decision frame, so the search can never flip them.
        for i in 0..self.root_units.len() + assumptions.len() {
            let lit = if i < self.root_units.len() {
                self.root_units[i]
            } else {
                assumptions[i - self.root_units.len()]
            };
            debug_assert!(
                lit != 0 && (lit.unsigned_abs() as usize) <= self.assign.len(),
                "bad assumption literal {lit}"
            );
            match self.value(lit) {
                None => self.enqueue(lit),
                Some(true) => {}
                Some(false) => {
                    self.undo_to(0);
                    return SolveOutcome::Unsat;
                }
            }
        }
        let mut frames: Vec<Frame> = Vec::new();
        let mut cursor = 0usize;
        let mut decisions = 0u64;
        let outcome = 'search: loop {
            if !self.propagate() {
                loop {
                    let Some(f) = frames.pop() else {
                        break 'search SolveOutcome::Unsat;
                    };
                    self.undo_to(f.mark);
                    cursor = f.cursor;
                    if !f.flipped {
                        self.enqueue(-f.lit);
                        frames.push(Frame {
                            lit: -f.lit,
                            mark: f.mark,
                            cursor: f.cursor,
                            flipped: true,
                        });
                        break;
                    }
                }
                continue;
            }
            while cursor < self.order.len() && self.assign[self.order[cursor] as usize] != 0 {
                cursor += 1;
            }
            let Some(&var) = self.order.get(cursor) else {
                break 'search SolveOutcome::Sat(self.assign.iter().map(|&a| a == 1).collect());
            };
            decisions += 1;
            if decisions > DECISION_BUDGET {
                break 'search SolveOutcome::BudgetExhausted;
            }
            let lit = (var + 1) as i32;
            frames.push(Frame {
                lit,
                mark: self.trail.len(),
                cursor,
                flipped: false,
            });
            self.enqueue(lit);
        };
        self.undo_to(0);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decide `c` from scratch: a fresh solver, no assumptions.
    fn solve(c: &Cnf) -> SolveOutcome {
        let mut s = IncrementalSat::new();
        s.absorb(c);
        s.solve_under(&[])
    }

    fn model(c: &Cnf) -> Vec<bool> {
        match solve(c) {
            SolveOutcome::Sat(m) => m,
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    fn check_model(c: &Cnf, m: &[bool]) {
        for clause in c.clauses() {
            assert!(
                clause.iter().any(|&l| {
                    let v = m[(l.unsigned_abs() - 1) as usize];
                    if l > 0 {
                        v
                    } else {
                        !v
                    }
                }),
                "model violates clause {clause:?}"
            );
        }
    }

    #[test]
    fn trivial_sat() {
        let mut c = Cnf::new();
        let a = c.fresh();
        c.clause(&[a]);
        assert!(model(&c)[0]);
    }

    #[test]
    fn trivial_unsat() {
        let mut c = Cnf::new();
        let a = c.fresh();
        c.clause(&[a]);
        c.clause(&[-a]);
        assert_eq!(solve(&c), SolveOutcome::Unsat);
    }

    #[test]
    fn requires_search() {
        // (a ∨ b) ∧ (¬a ∨ b) ∧ (a ∨ ¬b) — satisfied only by a=b=true.
        let mut c = Cnf::new();
        let a = c.fresh();
        let b = c.fresh();
        c.clause(&[a, b]);
        c.clause(&[-a, b]);
        c.clause(&[a, -b]);
        let m = model(&c);
        assert!(m[0] && m[1]);
    }

    #[test]
    fn unsat_3sat_core() {
        // All 4 combinations over (a,b) excluded.
        let mut c = Cnf::new();
        let a = c.fresh();
        let b = c.fresh();
        c.clause(&[a, b]);
        c.clause(&[a, -b]);
        c.clause(&[-a, b]);
        c.clause(&[-a, -b]);
        assert_eq!(solve(&c), SolveOutcome::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p_{i,j}: pigeon i in hole j. 3 pigeons, 2 holes.
        let mut c = Cnf::new();
        let mut p = [[0i32; 2]; 3];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = c.fresh();
            }
        }
        for row in &p {
            c.clause(&[row[0], row[1]]); // each pigeon somewhere
        }
        for j in 0..2 {
            for (i1, row1) in p.iter().enumerate() {
                for row2 in &p[i1 + 1..] {
                    c.clause(&[-row1[j], -row2[j]]); // no two share a hole
                }
            }
        }
        assert_eq!(solve(&c), SolveOutcome::Unsat);
    }

    #[test]
    fn model_satisfies_all_clauses() {
        let mut c = Cnf::new();
        let vars: Vec<i32> = (0..8).map(|_| c.fresh()).collect();
        // Random-ish structured clauses.
        c.clause(&[vars[0], -vars[1], vars[2]]);
        c.clause(&[-vars[0], vars[3]]);
        c.clause(&[vars[4], vars[5], -vars[6]]);
        c.clause(&[-vars[3], -vars[5]]);
        c.clause(&[vars[7]]);
        check_model(&c, &model(&c));
    }

    #[test]
    fn duplicate_and_tautological_clauses_are_normalized() {
        let mut c = Cnf::new();
        let a = c.fresh();
        let b = c.fresh();
        c.clause(&[a, a, b]); // duplicate literal
        c.clause(&[a, -a]); // tautology
        c.clause(&[-b]);
        let m = model(&c);
        check_model(&c, &m);
        assert!(!m[1]);
    }

    #[test]
    fn flat_storage_round_trips_clauses() {
        let mut c = Cnf::new();
        let a = c.fresh();
        let b = c.fresh();
        c.clause(&[a, b]);
        c.clause(&[-a]);
        c.clause(&[a, -b, a]);
        assert_eq!(c.num_clauses(), 3);
        assert_eq!(c.num_lits(), 6);
        assert_eq!(c.clause_at(0), &[a, b]);
        assert_eq!(c.clause_at(1), &[-a]);
        assert_eq!(c.clause_at(2), &[a, -b, a]);
        assert_eq!(c.clauses().count(), 3);
    }

    #[test]
    fn watched_agrees_with_reference_on_unit_chains() {
        // A long implication chain forces heavy propagation through the
        // watches: a1 ∧ (¬a1∨a2) ∧ ... ∧ (¬a_{n−1}∨a_n). The reference
        // is the closed form: the only model sets every variable.
        let mut c = Cnf::new();
        let vars: Vec<i32> = (0..64).map(|_| c.fresh()).collect();
        c.clause(&[vars[0]]);
        for w in vars.windows(2) {
            c.clause(&[-w[0], w[1]]);
        }
        let m = model(&c);
        assert!(m.iter().all(|&v| v));
        // Now pin the tail false: UNSAT.
        c.clause(&[-vars[63]]);
        assert_eq!(solve(&c), SolveOutcome::Unsat);
    }

    #[test]
    fn incremental_matches_batch_under_assumptions() {
        // (a ∨ b) ∧ (¬a ∨ c): solve under every single-literal
        // assumption and compare against a fresh solver given the same
        // formula with the assumption as a unit clause.
        let mut c = Cnf::new();
        let a = c.fresh();
        let b = c.fresh();
        let cc = c.fresh();
        c.clause(&[a, b]);
        c.clause(&[-a, cc]);
        let mut inc = IncrementalSat::new();
        inc.absorb(&c);
        for assumption in [a, -a, b, -b, cc, -cc, -cc] {
            let got = inc.solve_under(&[assumption]);
            let mut batch = c.clone();
            batch.clause(&[assumption]);
            let want = solve(&batch);
            match (got, want) {
                (SolveOutcome::Sat(m), SolveOutcome::Sat(_)) => {
                    // The incremental model must satisfy clauses and
                    // the assumption.
                    check_model(&c, &m);
                    let v = m[(assumption.unsigned_abs() - 1) as usize];
                    assert_eq!(v, assumption > 0);
                }
                (g, w) => assert_eq!(g, w, "assumption {assumption}"),
            }
        }
    }

    #[test]
    fn incremental_assumptions_fully_retract() {
        // a ∧ (¬a ∨ b): assuming ¬b is UNSAT, but the state must come
        // back clean — the same query without the assumption is SAT.
        let mut c = Cnf::new();
        let a = c.fresh();
        let b = c.fresh();
        c.clause(&[a]);
        c.clause(&[-a, b]);
        let mut inc = IncrementalSat::new();
        inc.absorb(&c);
        assert_eq!(inc.solve_under(&[-b]), SolveOutcome::Unsat);
        match inc.solve_under(&[]) {
            SolveOutcome::Sat(m) => {
                assert!(m[0] && m[1]);
            }
            other => panic!("expected SAT after retraction, got {other:?}"),
        }
        // And UNSAT again: retraction is not sticky in either direction.
        assert_eq!(inc.solve_under(&[-b]), SolveOutcome::Unsat);
    }

    #[test]
    fn incremental_absorb_is_append_only() {
        // Absorbing in two rounds equals absorbing at once.
        let mut c = Cnf::new();
        let a = c.fresh();
        let b = c.fresh();
        c.clause(&[a, b]);
        let mut inc = IncrementalSat::new();
        inc.absorb(&c);
        assert_eq!(inc.absorbed_clauses(), 1);
        assert!(matches!(inc.solve_under(&[]), SolveOutcome::Sat(_)));
        // Grow the formula: a fresh var and two more clauses.
        let d = c.fresh();
        c.clause(&[-a, d]);
        c.clause(&[-d]);
        inc.absorb(&c);
        assert_eq!(inc.absorbed_clauses(), 3);
        match inc.solve_under(&[]) {
            SolveOutcome::Sat(m) => {
                check_model(&c, &m);
                assert!(!m[0] && m[1] && !m[2]);
            }
            other => panic!("expected SAT, got {other:?}"),
        }
        assert_eq!(inc.solve_under(&[a]), SolveOutcome::Unsat);
        assert_eq!(solve(&c), inc.solve_under(&[]));
    }

    #[test]
    fn incremental_handles_root_conflicts() {
        // Conflicting absorbed units: UNSAT regardless of assumptions.
        let mut c = Cnf::new();
        let a = c.fresh();
        c.clause(&[a]);
        c.clause(&[-a]);
        let mut inc = IncrementalSat::new();
        inc.absorb(&c);
        assert_eq!(inc.solve_under(&[]), SolveOutcome::Unsat);
        assert_eq!(inc.solve_under(&[a]), SolveOutcome::Unsat);
        // An absorbed empty clause poisons every future query too.
        let mut c2 = Cnf::new();
        let b = c2.fresh();
        c2.clause(&[]);
        let mut inc2 = IncrementalSat::new();
        inc2.absorb(&c2);
        assert_eq!(inc2.solve_under(&[b]), SolveOutcome::Unsat);
    }

    #[test]
    fn incremental_agrees_with_batch_on_pigeonhole() {
        let mut c = Cnf::new();
        let mut p = [[0i32; 2]; 3];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = c.fresh();
            }
        }
        for row in &p {
            c.clause(&[row[0], row[1]]);
        }
        for j in 0..2 {
            for (i1, row1) in p.iter().enumerate() {
                for row2 in &p[i1 + 1..] {
                    c.clause(&[-row1[j], -row2[j]]);
                }
            }
        }
        let mut inc = IncrementalSat::new();
        inc.absorb(&c);
        assert_eq!(inc.solve_under(&[]), SolveOutcome::Unsat);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn clause_rejects_bad_literals_in_debug() {
        for bad in [0i32, 3, -5] {
            let got = std::panic::catch_unwind(|| {
                let mut c = Cnf::new();
                c.fresh();
                c.clause(&[bad]);
            });
            assert!(got.is_err(), "literal {bad} must trip the debug assert");
        }
    }
}
