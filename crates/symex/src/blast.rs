//! Tseitin bit-blasting of bitvector constraints to CNF, decided
//! incrementally.
//!
//! A [`Session`] turns [`BoolExpr`] constraints into one growing
//! [`Cnf`] and decides it under assumptions with [`IncrementalSat`];
//! satisfying assignments are decoded back into per-variable bitvector
//! values. This is the decision procedure behind filter vetting: the
//! only query class the pipeline needs is QF_BV satisfiability, so a
//! ripple-carry/comparator encoding plus DPLL replaces the paper's use
//! of Z3. [`check`] is a one-query session.
//!
//! The procedure runs on interned terms (see [`crate::term`]): each
//! constraint is folded into the session's [`TermArena`], so the
//! encoder keys its cache by `u32` term id instead of hashing whole
//! subtrees, and structurally equal subterms are encoded once
//! regardless of how the `Rc` DAG was built. Beneath the caller-visible
//! verdict caches sits a process-wide **normalized-query memo**: the
//! constraint set is canonicalized with variables renamed in
//! first-occurrence order, and structurally identical queries — the
//! same filter logic duplicated across modules under different byte
//! encodings or variable names — are answered without blasting or
//! solving. The memo is sound because blasting and solving are pure
//! deterministic functions of the normalized structure.

use crate::expr::{mask_of, BinOp, BoolExpr, CmpOp, Expr};
use crate::sat::{Cnf, IncrementalSat, SolveOutcome};
use crate::term::{
    sym_intern, sym_lookup, sym_name, BoolId, BoolNode, SymId, TermArena, TermId, TermNode,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Memoized outcome of one normalized query. Sat models are stored by
/// normalized variable index and renamed back on a hit.
#[derive(Debug, Clone)]
enum MemoEntry {
    Sat(Vec<u64>),
    Unsat,
    Unknown(&'static str),
}

/// One memo slot: the cached outcome plus the global insertion
/// generation, so a tally scope can tell entries that predate it from
/// entries inserted while it was open (see [`tally_work`]).
#[derive(Debug, Clone)]
struct MemoSlot {
    gen: u64,
    entry: MemoEntry,
}

/// Shard fanout of the normalized-query memo. Fixed power of two so the
/// shard of a key is a mask, not a modulo.
const MEMO_SHARDS: usize = 16;

/// The process-wide normalized-query memo, sharded by key hash so
/// concurrent campaign workers contend on 1/16th of a lock instead of
/// one global one. `BTreeMap` because its empty constructor is `const`;
/// keys are full canonical serializations (not hashes), so a hit is a
/// structural identity, not a probabilistic one.
static QUERY_MEMO: [Mutex<BTreeMap<Vec<u8>, MemoSlot>>; MEMO_SHARDS] =
    [const { Mutex::new(BTreeMap::new()) }; MEMO_SHARDS];

/// Monotone insertion clock for [`MemoSlot::gen`].
static MEMO_GEN: AtomicU64 = AtomicU64::new(0);

/// FNV-1a over the canonical key — stable, dependency-free, and good
/// enough to spread structurally distinct queries across shards.
fn memo_shard(key: &[u8]) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h as usize) & (MEMO_SHARDS - 1)
}

/// Count one satisfiability check in this thread's open tally scope.
fn count_call() {
    with_tally(|t| t.counts.solver_calls += 1);
}

/// Probe the memo for `key`, counting the lookup (and a hit) in this
/// thread's open tally scope.
fn memo_probe(key: &[u8]) -> Option<MemoEntry> {
    let slot = QUERY_MEMO[memo_shard(key)]
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(key)
        .cloned();
    with_tally(|t| {
        t.counts.memo_lookups += 1;
        if let Some(slot) = &slot {
            if slot.gen <= t.epoch || !t.touched.insert(slot.gen) {
                t.counts.memo_hits += 1;
            }
        }
    });
    slot.map(|s| s.entry)
}

/// Insert an outcome for `key`, first-wins: if another thread raced
/// the same normalized query in, its entry (an identical verdict — the
/// memo is a pure function of the key) is kept.
fn memo_insert(key: Vec<u8>, entry: MemoEntry) {
    let gen = MEMO_GEN.fetch_add(1, Ordering::Relaxed) + 1;
    let kept = QUERY_MEMO[memo_shard(&key)]
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .entry(key)
        .or_insert(MemoSlot { gen, entry })
        .gen;
    with_tally(|t| {
        t.touched.insert(kept);
    });
}

/// Drop every entry in the normalized-query memo. Benchmarks use this
/// to measure honestly cold runs; production code never needs it.
pub fn reset_query_memo() {
    for shard in &QUERY_MEMO {
        shard.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

/// Solver and explorer work counted inside one [`tally_work`] scope.
///
/// Counts are values: a scope returns the work its own thread did
/// while it was open, so concurrent requests, tests and fleet workers
/// never show in each other's numbers. The campaign engine sums the
/// scopes of its attempts into its run metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverCounters {
    /// Satisfiability checks, memo hits and short-circuits included.
    pub solver_calls: u64,
    /// Normalized-query memo probes.
    pub memo_lookups: u64,
    /// Probes that found an entry inserted before the scope opened, or
    /// one the scope itself had already probed or inserted.
    pub memo_hits: u64,
    /// Explorer paths run to a `ret`.
    pub paths_completed: u64,
    /// Branch sides the explorer pruned as infeasible.
    pub paths_pruned: u64,
}

impl std::ops::AddAssign for SolverCounters {
    fn add_assign(&mut self, o: SolverCounters) {
        self.solver_calls += o.solver_calls;
        self.memo_lookups += o.memo_lookups;
        self.memo_hits += o.memo_hits;
        self.paths_completed += o.paths_completed;
        self.paths_pruned += o.paths_pruned;
    }
}

/// The open tally scope of one thread.
struct Tally {
    /// Memo generation when the scope opened: slots at or below it
    /// predate the scope.
    epoch: u64,
    /// Generations of the newer slots this scope has probed or
    /// inserted. A slot's generation names its key for as long as the
    /// slot lives, so no key needs to be kept.
    touched: HashSet<u64>,
    counts: SolverCounters,
}

thread_local! {
    static TALLY: RefCell<Option<Tally>> = const { RefCell::new(None) };
}

fn with_tally(f: impl FnOnce(&mut Tally)) {
    TALLY.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            f(t);
        }
    });
}

/// Count finished explorer paths in this thread's open tally scope.
pub(crate) fn count_paths(completed: u64, pruned: u64) {
    with_tally(|t| {
        t.counts.paths_completed += completed;
        t.counts.paths_pruned += pruned;
    });
}

/// Run `f` and count the solver and explorer work it does on this
/// thread. Checks issued by other threads never show in the counts,
/// and neither do memo entries they insert while `f` runs, so the
/// counts depend only on `f` and the memo state at entry.
///
/// Scopes nest: when this one closes, also if `f` panics, its counts
/// and the memo entries it touched fold into the enclosing scope, so an
/// outer scope sees all work done on its thread while it was open.
pub fn tally_work<R>(f: impl FnOnce() -> R) -> (R, SolverCounters) {
    struct Close(Option<Tally>);
    impl Drop for Close {
        fn drop(&mut self) {
            let mut outer = self.0.take();
            let inner = TALLY.with(|t| t.borrow_mut().take());
            if let (Some(outer), Some(inner)) = (outer.as_mut(), inner) {
                outer.counts += inner.counts;
                outer.touched.extend(inner.touched);
            }
            TALLY.with(|t| *t.borrow_mut() = outer);
        }
    }
    let scope = Tally {
        epoch: MEMO_GEN.load(Ordering::Relaxed),
        touched: HashSet::new(),
        counts: SolverCounters::default(),
    };
    let _close = Close(TALLY.with(|t| t.replace(Some(scope))));
    let out = f();
    let counts = TALLY.with(|t| t.borrow().as_ref().map(|t| t.counts));
    (out, counts.unwrap_or_default())
}

/// A satisfying assignment: variable → value. Stores interned
/// [`SymId`]s internally; [`Model::get`] keeps the string interface
/// callers already use.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    /// `(symbol, value)` pairs, sorted by symbol id.
    values: Vec<(SymId, u64)>,
}

impl Model {
    fn from_pairs(mut values: Vec<(SymId, u64)>) -> Model {
        values.sort_unstable_by_key(|&(s, _)| s);
        Model { values }
    }

    fn get_sym(&self, sym: SymId) -> Option<u64> {
        self.values
            .binary_search_by_key(&sym, |&(s, _)| s)
            .ok()
            .map(|i| self.values[i].1)
    }

    /// Value of `name` (0 if the variable did not occur).
    pub fn get(&self, name: &str) -> u64 {
        sym_lookup(name).and_then(|s| self.get_sym(s)).unwrap_or(0)
    }

    /// Iterate over `(name, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.values.iter().map(|&(s, v)| (sym_name(s), v))
    }
}

/// Result of a satisfiability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a witness model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// The formula uses a construct the encoder cannot handle
    /// (currently: shifts by non-constant amounts) or the solver gave
    /// up within its budget.
    Unknown(&'static str),
}

impl SatResult {
    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// Check satisfiability of the conjunction of `constraints`: one query
/// on a fresh [`Session`].
pub fn check(constraints: &[BoolExpr]) -> SatResult {
    Session::new().check_assuming(constraints)
}

/// One constraint on a [`Session`]'s stack.
enum Pushed {
    /// Interned to `True`: no assumption needed.
    Trivial,
    /// Interned to `False`: the whole stack is UNSAT while this frame
    /// is live.
    False,
    /// A real constraint: interned root and its assumption literal.
    Root(BoolId, i32),
}

/// An incremental satisfiability session: a constraint stack solved by
/// assumptions over persistent two-watched-literal state.
///
/// This is the crate's one decision procedure; the path explorer and
/// [`check`] both use it. Every pushed constraint is interned and
/// Tseitin-encoded exactly once into one monotone [`Cnf`], the
/// [`IncrementalSat`] absorbs new clauses append-only, and each
/// [`Session::check`] decides the current stack by passing the live
/// constraint roots as *assumption literals*. Sibling paths that share
/// a constraint prefix therefore share its encoding and its watch
/// lists — popping back to the fork point costs nothing and
/// re-checking the other side re-blasts nothing.
///
/// Soundness of [`Session::pop_to`] without clause retraction: Tseitin
/// clauses only define gate variables (`g ↔ f(inputs)`); a constraint
/// is asserted solely by its root assumption literal, so dropping the
/// frame fully retracts it (see [`IncrementalSat`]).
///
/// Queries flow through the process-wide normalized-query memo, keyed
/// on the *shape of the whole live constraint stack*, and count in the
/// open [`tally_work`] scope as
/// [`solver_calls`](SolverCounters::solver_calls),
/// [`memo_lookups`](SolverCounters::memo_lookups) and
/// [`memo_hits`](SolverCounters::memo_hits) — warm reruns of an
/// exploration answer every path from the memo with zero solving.
pub struct Session {
    s: Encoder,
    inc: IncrementalSat,
    stack: Vec<Pushed>,
    /// Live `Pushed::False` frames (stack is trivially UNSAT if > 0).
    false_count: usize,
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

impl Session {
    /// A fresh session with an empty constraint stack.
    pub fn new() -> Session {
        Session {
            s: Encoder::new(),
            inc: IncrementalSat::new(),
            stack: Vec::new(),
            false_count: 0,
        }
    }

    /// Current stack depth (number of live pushed constraints).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Push `c` onto the constraint stack: intern, encode once, and
    /// record its root as an assumption for subsequent checks.
    ///
    /// # Errors
    ///
    /// If the encoder cannot handle `c` (shift by a non-constant
    /// amount), nothing is pushed and the error is returned — the
    /// caller decides whether the path is abandoned.
    pub fn push(&mut self, c: &BoolExpr) -> Result<(), &'static str> {
        self.s.ptr_memo.clear();
        let id = self.s.intern_bool(c);
        let frame = if id == TermArena::FALSE {
            self.false_count += 1;
            Pushed::False
        } else if id == TermArena::TRUE {
            Pushed::Trivial
        } else {
            let lit = self.s.bool_lit(id)?;
            Pushed::Root(id, lit)
        };
        self.stack.push(frame);
        Ok(())
    }

    /// Pop back to `depth` (as returned by [`Session::depth`] at the
    /// fork point). Retracts every constraint above it; their encodings
    /// stay cached for when a sibling pushes the same structure.
    pub fn pop_to(&mut self, depth: usize) {
        debug_assert!(depth <= self.stack.len(), "pop_to past the stack top");
        for f in self.stack.drain(depth..) {
            if matches!(f, Pushed::False) {
                self.false_count -= 1;
            }
        }
    }

    /// Decide the conjunction of the current stack.
    pub fn check(&mut self) -> SatResult {
        self.check_assuming(&[])
    }

    /// Decide the current stack conjoined with `extras`, without
    /// persisting `extras` on the stack — the explorer's feasibility
    /// probe (`path ∧ branch-cond`) and verdict query
    /// (`path ∧ code = AV ∧ ret ≠ 0`).
    pub fn check_assuming(&mut self, extras: &[BoolExpr]) -> SatResult {
        count_call();
        let mut span = cr_trace::span_advisory(cr_trace::Stage::Symex, "solver.check");
        if self.false_count > 0 {
            span.set_detail(|| "memo=short verdict=unsat".into());
            return SatResult::Unsat;
        }
        self.s.ptr_memo.clear();
        let mut roots: Vec<BoolId> = Vec::with_capacity(self.stack.len() + extras.len());
        let mut lits: Vec<i32> = Vec::with_capacity(self.stack.len() + extras.len());
        for f in &self.stack {
            if let Pushed::Root(id, lit) = *f {
                roots.push(id);
                lits.push(lit);
            }
        }
        let stack_roots = roots.len();
        for c in extras {
            let id = self.s.intern_bool(c);
            if id == TermArena::FALSE {
                span.set_detail(|| "memo=short verdict=unsat".into());
                return SatResult::Unsat;
            }
            if id != TermArena::TRUE {
                roots.push(id);
            }
        }
        let shape = self.s.arena.normalize(&roots);
        if let Some(entry) = memo_probe(&shape.key) {
            span.set_detail(|| format!("memo=hit vars={}", shape.vars.len()));
            return match entry {
                MemoEntry::Unsat => SatResult::Unsat,
                MemoEntry::Unknown(e) => SatResult::Unknown(e),
                MemoEntry::Sat(vals) => SatResult::Sat(Model::from_pairs(
                    shape
                        .vars
                        .iter()
                        .zip(vals)
                        .map(|(&(sym, _), v)| (sym, v))
                        .collect(),
                )),
            };
        }
        // Miss: encode the transient extras (stack frames encoded at
        // push time), absorb whatever the encoder appended, and decide
        // under the live assumptions.
        let mut result = None;
        for &id in &roots[stack_roots..] {
            match self.s.bool_lit(id) {
                Ok(l) => lits.push(l),
                Err(e) => {
                    result = Some(SatResult::Unknown(e));
                    break;
                }
            }
        }
        let result = result.unwrap_or_else(|| {
            self.inc.absorb(&self.s.cnf);
            match self.inc.solve_under(&lits) {
                SolveOutcome::Unsat => SatResult::Unsat,
                SolveOutcome::BudgetExhausted => {
                    SatResult::Unknown("SAT decision budget exhausted")
                }
                SolveOutcome::Sat(assign) => {
                    let mut pairs = Vec::with_capacity(self.s.query_vars.len());
                    for qv in &self.s.query_vars {
                        let mut v = 0u64;
                        let lits =
                            &self.s.var_lits[qv.lit_off as usize..(qv.lit_off + qv.bits) as usize];
                        for (i, &lit) in lits.iter().enumerate() {
                            if assign[(lit.unsigned_abs() - 1) as usize] {
                                v |= 1 << i;
                            }
                        }
                        pairs.push((qv.sym, v & mask_of(qv.bits)));
                    }
                    SatResult::Sat(Model::from_pairs(pairs))
                }
            }
        });
        let entry = match &result {
            SatResult::Unsat => MemoEntry::Unsat,
            SatResult::Unknown(e) => MemoEntry::Unknown(e),
            SatResult::Sat(model) => MemoEntry::Sat(
                shape
                    .vars
                    .iter()
                    .map(|&(sym, _)| model.get_sym(sym).unwrap_or(0))
                    .collect(),
            ),
        };
        span.set_detail(|| {
            format!(
                "memo=miss vars={} clauses={}",
                shape.vars.len(),
                self.s.cnf.num_clauses()
            )
        });
        memo_insert(shape.key, entry);
        result
    }
}

/// One query variable: interned name, declared width, and where its
/// fresh bit literals start in [`Encoder::var_lits`].
struct QueryVar {
    sym: SymId,
    bits: u32,
    lit_off: u32,
}

/// A session's encoder state: its term arena, the monotone CNF and
/// the id-indexed encoding caches, all living as long as the session.
struct Encoder {
    arena: TermArena,
    /// `Rc::as_ptr` → interned id for the current push or check only
    /// (`Rc` allocations are reused, so pointer identity must not
    /// outlive the call).
    ptr_memo: HashMap<usize, TermId>,
    cnf: Cnf,
    /// Constant-true literal of the formula.
    t: i32,
    /// Encoder cache: term id → offset of its 64 bit-literals in `pool`.
    enc_off: Vec<Option<u32>>,
    /// Encoder cache: bool id → its CNF literal.
    blit: Vec<Option<i32>>,
    /// Symbol id → index into `query_vars`.
    var_slot: Vec<Option<u32>>,
    query_vars: Vec<QueryVar>,
    /// Fresh bit literals of every query variable, concatenated.
    var_lits: Vec<i32>,
    /// Bit-literal pool: each encoded term owns 64 consecutive slots.
    pool: Vec<i32>,
}

impl Encoder {
    fn new() -> Encoder {
        let mut cnf = Cnf::new();
        let t = cnf.fresh();
        cnf.clause(&[t]);
        Encoder {
            arena: TermArena::new(),
            ptr_memo: HashMap::new(),
            cnf,
            t,
            enc_off: Vec::new(),
            blit: Vec::new(),
            var_slot: Vec::new(),
            query_vars: Vec::new(),
            var_lits: Vec::new(),
            pool: Vec::new(),
        }
    }

    fn intern_expr(&mut self, e: &Rc<Expr>) -> TermId {
        let key = Rc::as_ptr(e) as usize;
        if let Some(&id) = self.ptr_memo.get(&key) {
            return id;
        }
        let id = match &**e {
            Expr::Const(v) => self.arena.cst(*v),
            Expr::Var { name, bits } => {
                let sym = sym_intern(name);
                self.arena.var(sym, *bits)
            }
            Expr::Bin(op, a, b) => {
                let ia = self.intern_expr(a);
                let ib = self.intern_expr(b);
                self.arena.bin(*op, ia, ib)
            }
            Expr::Not(a) => {
                let ia = self.intern_expr(a);
                self.arena.not(ia)
            }
        };
        self.ptr_memo.insert(key, id);
        id
    }

    fn intern_bool(&mut self, e: &BoolExpr) -> BoolId {
        match e {
            BoolExpr::True => TermArena::TRUE,
            BoolExpr::False => TermArena::FALSE,
            BoolExpr::Cmp { op, width, a, b } => {
                let ia = self.intern_expr(a);
                let ib = self.intern_expr(b);
                self.arena.cmp(*op, *width, ia, ib)
            }
            BoolExpr::And(a, b) => {
                let ia = self.intern_bool(a);
                let ib = self.intern_bool(b);
                self.arena.and_b(ia, ib)
            }
            BoolExpr::Or(a, b) => {
                let ia = self.intern_bool(a);
                let ib = self.intern_bool(b);
                self.arena.or_b(ia, ib)
            }
            BoolExpr::Not(a) => {
                let ia = self.intern_bool(a);
                self.arena.not_b(ia)
            }
        }
    }

    fn lit_false(&self) -> i32 {
        -self.t
    }

    fn and_gate(&mut self, a: i32, b: i32) -> i32 {
        if a == self.t {
            return b;
        }
        if b == self.t {
            return a;
        }
        if a == -self.t || b == -self.t {
            return -self.t;
        }
        let o = self.cnf.fresh();
        self.cnf.clause(&[-o, a]);
        self.cnf.clause(&[-o, b]);
        self.cnf.clause(&[o, -a, -b]);
        o
    }

    fn or_gate(&mut self, a: i32, b: i32) -> i32 {
        -self.and_gate(-a, -b)
    }

    fn xor_gate(&mut self, a: i32, b: i32) -> i32 {
        if a == self.t {
            return -b;
        }
        if a == -self.t {
            return b;
        }
        if b == self.t {
            return -a;
        }
        if b == -self.t {
            return a;
        }
        let o = self.cnf.fresh();
        self.cnf.clause(&[-o, a, b]);
        self.cnf.clause(&[-o, -a, -b]);
        self.cnf.clause(&[o, -a, b]);
        self.cnf.clause(&[o, a, -b]);
        o
    }

    fn xor3(&mut self, a: i32, b: i32, c: i32) -> i32 {
        let ab = self.xor_gate(a, b);
        self.xor_gate(ab, c)
    }

    fn maj(&mut self, a: i32, b: i32, c: i32) -> i32 {
        let ab = self.and_gate(a, b);
        let ac = self.and_gate(a, c);
        let bc = self.and_gate(b, c);
        let t = self.or_gate(ab, ac);
        self.or_gate(t, bc)
    }

    /// Reserve a fresh 64-slot encoding in `pool`, returning its offset.
    fn alloc_slot(&mut self) -> usize {
        let off = self.pool.len();
        self.pool.resize(off + 64, 0);
        off
    }

    /// Index of a variable in `query_vars`, creating its fresh CNF bit
    /// variables on first use (keyed by symbol).
    fn var_slot_of(&mut self, sym: SymId, bits: u32) -> usize {
        let si = sym.index();
        if self.var_slot.len() <= si {
            self.var_slot.resize(si + 1, None);
        }
        if let Some(slot) = self.var_slot[si] {
            return slot as usize;
        }
        let lit_off = self.var_lits.len() as u32;
        for _ in 0..bits {
            let l = self.cnf.fresh();
            self.var_lits.push(l);
        }
        let slot = self.query_vars.len();
        self.query_vars.push(QueryVar { sym, bits, lit_off });
        self.var_slot[si] = Some(slot as u32);
        slot
    }

    /// Encode term `id`, returning the offset of its 64 bit-literals
    /// (LSB first) in `pool`. Cached per term id.
    fn expr_bits(&mut self, id: TermId) -> Result<usize, &'static str> {
        let ti = id.index();
        if self.enc_off.len() <= ti {
            self.enc_off
                .resize(self.arena.num_terms().max(ti + 1), None);
        }
        if let Some(off) = self.enc_off[ti] {
            return Ok(off as usize);
        }
        let off = match self.arena.term(id) {
            TermNode::Const(v) => {
                let off = self.alloc_slot();
                for i in 0..64 {
                    self.pool[off + i] = if v & (1 << i) != 0 { self.t } else { -self.t };
                }
                off
            }
            TermNode::Var { sym, bits } => {
                let slot = self.var_slot_of(sym, bits);
                let qv = &self.query_vars[slot];
                let (lit_off, nbits) = (qv.lit_off as usize, qv.bits as usize);
                let off = self.alloc_slot();
                let f = self.lit_false();
                for i in 0..64 {
                    self.pool[off + i] = if i < nbits {
                        self.var_lits[lit_off + i]
                    } else {
                        f
                    };
                }
                off
            }
            TermNode::Bin(op, a, b) => {
                let ao = self.expr_bits(a)?;
                let bo = self.expr_bits(b)?;
                let mut out = [0i32; 64];
                match op {
                    BinOp::And => {
                        for (i, o) in out.iter_mut().enumerate() {
                            let (x, y) = (self.pool[ao + i], self.pool[bo + i]);
                            *o = self.and_gate(x, y);
                        }
                    }
                    BinOp::Or => {
                        for (i, o) in out.iter_mut().enumerate() {
                            let (x, y) = (self.pool[ao + i], self.pool[bo + i]);
                            *o = self.or_gate(x, y);
                        }
                    }
                    BinOp::Xor => {
                        for (i, o) in out.iter_mut().enumerate() {
                            let (x, y) = (self.pool[ao + i], self.pool[bo + i]);
                            *o = self.xor_gate(x, y);
                        }
                    }
                    BinOp::Add => self.adder_into(ao, bo, false, &mut out),
                    BinOp::Sub => self.adder_into(ao, bo, true, &mut out),
                    BinOp::Shl | BinOp::Shr => {
                        let n = self
                            .arena
                            .const_of(b)
                            .ok_or("shift by non-constant amount")?
                            as usize;
                        let f = self.lit_false();
                        for (i, o) in out.iter_mut().enumerate() {
                            let src = if op == BinOp::Shl {
                                i.checked_sub(n)
                            } else {
                                let j = i + n;
                                (j < 64).then_some(j)
                            };
                            *o = match src {
                                Some(s) => self.pool[ao + s],
                                None => f,
                            };
                        }
                    }
                }
                let off = self.alloc_slot();
                self.pool[off..off + 64].copy_from_slice(&out);
                off
            }
            TermNode::Not(a) => {
                let ao = self.expr_bits(a)?;
                let off = self.alloc_slot();
                for i in 0..64 {
                    self.pool[off + i] = -self.pool[ao + i];
                }
                off
            }
        };
        self.enc_off[ti] = Some(off as u32);
        Ok(off)
    }

    /// Ripple-carry add of the encodings at `ao` and `bo`; `sub`
    /// negates `b` and seeds the carry (two's-complement subtract).
    fn adder_into(&mut self, ao: usize, bo: usize, sub: bool, out: &mut [i32; 64]) {
        let mut carry = if sub { self.t } else { self.lit_false() };
        for (i, o) in out.iter_mut().enumerate() {
            let x = self.pool[ao + i];
            let y = if sub {
                -self.pool[bo + i]
            } else {
                self.pool[bo + i]
            };
            *o = self.xor3(x, y, carry);
            carry = self.maj(x, y, carry);
        }
    }

    /// Comparator literal over the encodings at `ao`/`bo`. `signed`
    /// flips the sign bit of both operands first (two's-complement
    /// order is unsigned order with the sign bit inverted).
    fn ult_lit(&mut self, ao: usize, bo: usize, width: u32, signed: bool) -> i32 {
        // LSB-to-MSB borrow chain: lt = (!a & b) | ((a == b) & lt_prev)
        let s = (width - 1) as usize;
        let mut lt = self.lit_false();
        for i in 0..width as usize {
            let flip = signed && i == s;
            let a = if flip {
                -self.pool[ao + i]
            } else {
                self.pool[ao + i]
            };
            let b = if flip {
                -self.pool[bo + i]
            } else {
                self.pool[bo + i]
            };
            let na_and_b = self.and_gate(-a, b);
            let eq = -self.xor_gate(a, b);
            let keep = self.and_gate(eq, lt);
            lt = self.or_gate(na_and_b, keep);
        }
        lt
    }

    fn eq_lit(&mut self, ao: usize, bo: usize, width: u32) -> i32 {
        let mut acc = self.t;
        for i in 0..width as usize {
            let (a, b) = (self.pool[ao + i], self.pool[bo + i]);
            let x = self.xor_gate(a, b);
            acc = self.and_gate(acc, -x);
        }
        acc
    }

    /// CNF literal of boolean term `id`. Cached per bool id (the arena
    /// makes boolean structure a DAG too).
    fn bool_lit(&mut self, id: BoolId) -> Result<i32, &'static str> {
        let bi = id.index();
        if self.blit.len() <= bi {
            self.blit.resize(self.arena.num_bools().max(bi + 1), None);
        }
        if let Some(lit) = self.blit[bi] {
            return Ok(lit);
        }
        let lit = match self.arena.bool_node(id) {
            BoolNode::True => self.t,
            BoolNode::False => self.lit_false(),
            BoolNode::Cmp { op, width, a, b } => {
                let ao = self.expr_bits(a)?;
                let bo = self.expr_bits(b)?;
                match op {
                    CmpOp::Eq => self.eq_lit(ao, bo, width),
                    CmpOp::Ne => -self.eq_lit(ao, bo, width),
                    CmpOp::Ult => self.ult_lit(ao, bo, width, false),
                    CmpOp::Slt => self.ult_lit(ao, bo, width, true),
                }
            }
            BoolNode::And(a, b) => {
                let (la, lb) = (self.bool_lit(a)?, self.bool_lit(b)?);
                self.and_gate(la, lb)
            }
            BoolNode::Or(a, b) => {
                let (la, lb) = (self.bool_lit(a)?, self.bool_lit(b)?);
                self.or_gate(la, lb)
            }
            BoolNode::Not(a) => -self.bool_lit(a)?,
        };
        self.blit[bi] = Some(lit);
        Ok(lit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, BoolExpr, CmpOp, Expr};

    fn eq64(a: Rc<Expr>, b: Rc<Expr>) -> BoolExpr {
        BoolExpr::cmp(CmpOp::Eq, 64, a, b)
    }

    /// Serializes the tests that call [`reset_query_memo`] or need an
    /// entry to survive from one probe to the next, so a reset never
    /// lands between another such test's insert and its probe.
    fn memo_reset_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn var_equality_model() {
        let x = Expr::var("x", 32);
        let r = check(&[eq64(x, Expr::c(0xC000_0005))]);
        match r {
            SatResult::Sat(m) => assert_eq!(m.get("x"), 0xC000_0005),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn var_width_bounds_values() {
        // An 8-bit variable can never equal 0x100.
        let x = Expr::var("x", 8);
        assert_eq!(check(&[eq64(x, Expr::c(0x100))]), SatResult::Unsat);
    }

    #[test]
    fn addition_is_correct() {
        let x = Expr::var("x", 64);
        let y = Expr::var("y", 64);
        let sum = Expr::bin(BinOp::Add, x.clone(), y.clone());
        let cs = [
            eq64(x, Expr::c(0xFFFF_FFFF_FFFF_FFF0)),
            eq64(y, Expr::c(0x20)),
            eq64(sum, Expr::c(0x10)), // wraps
        ];
        assert!(check(&cs).is_sat());
    }

    #[test]
    fn subtraction_and_inequality() {
        let x = Expr::var("x", 32);
        let d = Expr::bin(BinOp::Sub, x.clone(), Expr::c(5));
        // x - 5 == 0 and x != 5 is unsat.
        let cs = [
            eq64(d.clone(), Expr::c(0)),
            BoolExpr::cmp(CmpOp::Ne, 64, x.clone(), Expr::c(5)),
        ];
        assert_eq!(check(&cs), SatResult::Unsat);
        let cs = [eq64(d, Expr::c(0))];
        match check(&cs) {
            SatResult::Sat(m) => assert_eq!(m.get("x"), 5),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unsigned_and_signed_compare() {
        let x = Expr::var("x", 8);
        // x < 3 unsigned and x > 0x7f signed-negative impossible together
        // at 8 bits unless... x in {0,1,2} are all non-negative → unsat.
        let cs = [
            BoolExpr::cmp(CmpOp::Ult, 8, x.clone(), Expr::c(3)),
            BoolExpr::cmp(CmpOp::Slt, 8, x.clone(), Expr::c(0)),
        ];
        assert_eq!(check(&cs), SatResult::Unsat);
        // x signed-negative at 8 bits: model has high bit set.
        let cs = [BoolExpr::cmp(CmpOp::Slt, 8, x, Expr::c(0))];
        match check(&cs) {
            SatResult::Sat(m) => assert!(m.get("x") & 0x80 != 0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn masking_dword() {
        // (x & 0xFFFF0000) == 0xC0000000 has solutions with arbitrary low
        // bits; conjoin x == 0xC0000005 to pin one.
        let x = Expr::var("x", 32);
        let masked = Expr::bin(BinOp::And, x.clone(), Expr::c(0xFFFF_0000));
        let cs = [
            eq64(masked, Expr::c(0xC000_0000)),
            eq64(x, Expr::c(0xC000_0005)),
        ];
        assert!(check(&cs).is_sat());
    }

    #[test]
    fn shifts_by_constant() {
        let x = Expr::var("x", 32);
        let sh = Expr::bin(BinOp::Shr, x.clone(), Expr::c(28));
        // high nibble == 0xC constrains x's top bits.
        let cs = [
            eq64(sh, Expr::c(0xC)),
            eq64(x.clone(), Expr::c(0xC000_0005)),
        ];
        assert!(check(&cs).is_sat());
        let cs = [
            eq64(Expr::bin(BinOp::Shr, x.clone(), Expr::c(28)), Expr::c(0xC)),
            eq64(x, Expr::c(0x1000_0005)),
        ];
        assert_eq!(check(&cs), SatResult::Unsat);
    }

    #[test]
    fn shift_by_variable_is_unknown() {
        let x = Expr::var("x", 32);
        let n = Expr::var("n", 32);
        let sh = Rc::new(Expr::Bin(BinOp::Shl, x, n));
        match check(&[eq64(sh, Expr::c(4))]) {
            SatResult::Unknown(_) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn or_and_not_structure() {
        // (x == 1 ∨ x == 2) ∧ ¬(x == 1) → x == 2.
        let x = Expr::var("x", 32);
        let c = BoolExpr::and(
            BoolExpr::or(eq64(x.clone(), Expr::c(1)), eq64(x.clone(), Expr::c(2))),
            BoolExpr::not(eq64(x, Expr::c(1))),
        );
        match check(&[c]) {
            SatResult::Sat(m) => assert_eq!(m.get("x"), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn model_satisfies_constraints() {
        // Randomized end-to-end sanity: every SAT model must evaluate true.
        let x = Expr::var("x", 16);
        let y = Expr::var("y", 16);
        let cs = [
            BoolExpr::cmp(CmpOp::Ult, 16, x.clone(), y.clone()),
            BoolExpr::cmp(
                CmpOp::Eq,
                16,
                Expr::bin(BinOp::And, Expr::bin(BinOp::Add, x, y), Expr::c(0xFF)),
                Expr::c(0x42),
            ),
        ];
        match check(&cs) {
            SatResult::Sat(m) => {
                for c in &cs {
                    assert!(c.eval(&|n| m.get(n)), "model must satisfy {c:?}");
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn memo_hits_on_alpha_equivalent_queries() {
        let _memo = memo_reset_lock();
        reset_query_memo();
        // Fresh names so no earlier test primed these structures.
        let p = Expr::var("memo_test_p", 32);
        let q = Expr::var("memo_test_q", 32);
        let (r1, first) = tally_work(|| check(&[eq64(p, Expr::c(0x1234_5678))]));
        assert_eq!(first.memo_hits, 0, "first query is a miss");
        let (r2, second) = tally_work(|| check(&[eq64(q, Expr::c(0x1234_5678))]));
        assert_eq!(
            second,
            SolverCounters {
                solver_calls: 1,
                memo_lookups: 1,
                memo_hits: 1,
                ..SolverCounters::default()
            },
            "alpha-equivalent query must hit the memo"
        );
        match (r1, r2) {
            (SatResult::Sat(m1), SatResult::Sat(m2)) => {
                assert_eq!(m1.get("memo_test_p"), 0x1234_5678);
                assert_eq!(m2.get("memo_test_q"), 0x1234_5678, "hit renames the model");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn memo_replays_all_outcome_kinds() {
        let _memo = memo_reset_lock();
        reset_query_memo();
        let x = Expr::var("memo_kinds_x", 8);
        let unsat = [eq64(x.clone(), Expr::c(0x100))];
        assert_eq!(check(&unsat), SatResult::Unsat);
        assert_eq!(check(&unsat), SatResult::Unsat, "unsat replays");
        let n = Expr::var("memo_kinds_n", 8);
        let sh = Rc::new(Expr::Bin(BinOp::Shl, x, n));
        let unknown = [eq64(sh, Expr::c(4))];
        let first = check(&unknown);
        assert_eq!(check(&unknown), first, "unknown replays");
    }

    #[test]
    fn session_stack_matches_single_shot() {
        let x = Expr::var("sess_x", 32);
        let y = Expr::var("sess_y", 32);
        let a = eq64(
            Expr::bin(BinOp::And, x.clone(), Expr::c(0xFF)),
            Expr::c(0x41),
        );
        let b = BoolExpr::cmp(CmpOp::Ult, 32, y.clone(), x.clone());
        let c = eq64(y.clone(), Expr::c(0x1_0000));
        let mut sess = Session::new();
        sess.push(&a).unwrap();
        let d1 = sess.depth();
        sess.push(&b).unwrap();
        sess.push(&c).unwrap();
        // Full stack vs a one-query `check`: same verdict, model satisfies.
        match (sess.check(), check(&[a.clone(), b.clone(), c.clone()])) {
            (SatResult::Sat(m), SatResult::Sat(_)) => {
                for cs in [&a, &b, &c] {
                    assert!(cs.eval(&|n| m.get(n)), "session model violates {cs:?}");
                }
            }
            (g, w) => panic!("session {g:?} vs check {w:?}"),
        }
        // Pop to the fork and take a contradictory sibling.
        sess.pop_to(d1);
        let contra = eq64(
            Expr::bin(BinOp::And, x.clone(), Expr::c(0xFF)),
            Expr::c(0x42),
        );
        sess.push(&contra).unwrap();
        assert_eq!(sess.check(), SatResult::Unsat);
        // Retraction works both ways.
        sess.pop_to(d1);
        assert!(sess.check().is_sat());
    }

    #[test]
    fn session_false_frames_are_sticky_until_popped() {
        let mut sess = Session::new();
        let x = Expr::var("sess_false_x", 8);
        sess.push(&eq64(x.clone(), Expr::c(3))).unwrap();
        let d = sess.depth();
        sess.push(&BoolExpr::False).unwrap();
        assert_eq!(sess.check(), SatResult::Unsat);
        assert_eq!(
            sess.check_assuming(&[eq64(x.clone(), Expr::c(3))]),
            SatResult::Unsat
        );
        sess.pop_to(d);
        assert!(sess.check().is_sat());
    }

    #[test]
    fn session_check_assuming_is_transient() {
        let mut sess = Session::new();
        let x = Expr::var("sess_tmp_x", 16);
        sess.push(&BoolExpr::cmp(CmpOp::Ult, 16, x.clone(), Expr::c(0x100)))
            .unwrap();
        let one = eq64(x.clone(), Expr::c(1));
        let two = eq64(x.clone(), Expr::c(2));
        assert!(sess.check_assuming(std::slice::from_ref(&one)).is_sat());
        // `one` must not have stuck to the stack.
        assert!(sess.check_assuming(&[two]).is_sat());
        assert!(!sess.check_assuming(&[one, eq64(x, Expr::c(2))]).is_sat());
    }

    #[test]
    fn session_unknowns_surface_from_push_and_check() {
        let mut sess = Session::new();
        let x = Expr::var("sess_unk_x", 32);
        let n = Expr::var("sess_unk_n", 32);
        let sh = Rc::new(Expr::Bin(BinOp::Shl, x.clone(), n));
        let bad = eq64(sh, Expr::c(4));
        // Push rejects the unencodable constraint and leaves the stack
        // untouched.
        let d = sess.depth();
        assert!(sess.push(&bad).is_err());
        assert_eq!(sess.depth(), d);
        // As a transient extra it surfaces as Unknown.
        match sess.check_assuming(&[bad]) {
            SatResult::Unknown(_) => {}
            other => panic!("{other:?}"),
        }
        assert!(sess.check().is_sat(), "stack still clean");
    }

    #[test]
    fn session_queries_flow_through_the_memo() {
        let _memo = memo_reset_lock();
        reset_query_memo();
        let p = Expr::var("sess_memo_p", 32);
        let q = Expr::var("sess_memo_q", 32);
        let ((r1, r2), tally) = tally_work(|| {
            let mut sess = Session::new();
            sess.push(&eq64(p, Expr::c(0xDEAD_0001))).unwrap();
            let r1 = sess.check();
            // An alpha-equivalent `check` hits the session's entry.
            (r1, check(&[eq64(q, Expr::c(0xDEAD_0001))]))
        });
        assert_eq!(tally.solver_calls, 2, "both doors count as checks");
        assert_eq!(tally.memo_lookups, 2);
        assert_eq!(
            tally.memo_hits, 1,
            "the cold query misses; its shape is shared across doors"
        );
        match (r1, r2) {
            (SatResult::Sat(m1), SatResult::Sat(m2)) => {
                assert_eq!(m1.get("sess_memo_p"), 0xDEAD_0001);
                assert_eq!(m2.get("sess_memo_q"), 0xDEAD_0001);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tally_ignores_work_and_entries_of_other_threads() {
        // No reset here, but a concurrent one would empty the memo
        // between the warm scope's entry and its probe.
        let _memo = memo_reset_lock();
        let shape = || [eq64(Expr::var("tally_thread_x", 32), Expr::c(0xFEED_0042))];
        let ((), tally) = tally_work(|| {
            // Another thread solves the shape first: its check is not
            // ours, and the entry it inserted is newer than our scope.
            std::thread::spawn(move || check(&shape())).join().unwrap();
            assert!(check(&shape()).is_sat());
            assert!(check(&shape()).is_sat());
        });
        assert_eq!(
            tally,
            SolverCounters {
                solver_calls: 2,
                memo_lookups: 2,
                memo_hits: 1,
                ..SolverCounters::default()
            },
            "first probe of a raced-in entry misses, the repeat hits"
        );
        let ((), warm) = tally_work(|| assert!(check(&shape()).is_sat()));
        assert_eq!(warm.memo_hits, 1, "entries older than the scope hit");
    }

    #[test]
    fn a_panicking_scope_still_folds_into_the_enclosing_one() {
        // A concurrent reset would drop the inner scope's entry.
        let _memo = memo_reset_lock();
        let shape = || [eq64(Expr::var("tally_unwind_x", 32), Expr::c(0x7A11_0E5D))];
        let ((), outer) = tally_work(|| {
            let inner = std::panic::catch_unwind(|| {
                tally_work(|| {
                    check(&shape());
                    panic!("mid-scope");
                })
            });
            assert!(inner.is_err());
            check(&shape());
        });
        assert_eq!((outer.solver_calls, outer.memo_lookups), (2, 2));
        assert_eq!(outer.memo_hits, 1, "the outer scope saw the inner insert");
    }
}
