//! Interned terms: hash-consed bitvector/boolean arenas and canonical
//! query normalization.
//!
//! The [`Expr`](crate::Expr) DAG is the construction-facing representation —
//! cheap to build, `Rc`-shared, names as strings. The decision
//! procedure, however, wants *identity*: equal subterms should be
//! built once and compared by a `u32` id, so the bit-blaster can key
//! its encoding cache by id instead of hashing whole subtrees. This
//! module provides that layer:
//!
//! * a process-wide **symbol interner** ([`sym_intern`]) mapping
//!   variable names to dense [`SymId`]s (names are leaked once — the
//!   population of distinct variable names is small and recurring);
//! * a per-session [`TermArena`] of hash-consed [`TermNode`]s and
//!   [`BoolNode`]s, whose smart constructors replicate the constant
//!   folding of [`Expr`](crate::Expr) exactly (memoized by construction:
//!   a folded node exists once, so folding work is never repeated);
//! * [`TermArena::normalize`] — a canonical byte serialization of a
//!   constraint set with variables renamed in first-occurrence order,
//!   used as the key of the process-wide query memo: structurally
//!   identical queries that differ only in variable names (filters
//!   duplicated across modules at different addresses) normalize to
//!   the same key.

use crate::expr::{eval_bin, mask_of, sign_extend, BinOp, CmpOp};
use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// An interned variable name. Ids are process-wide and dense; the same
/// name always interns to the same id, so models can store ids and
/// still answer string lookups through the interner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymId(u32);

impl SymId {
    /// Dense index of this symbol (0-based intern order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

struct Symtab {
    names: Vec<&'static str>,
    ids: HashMap<&'static str, u32>,
}

/// `RwLock`, not `Mutex`: the variable-name population is small and
/// recurs across every query, so after warmup virtually every access is
/// a lookup of an already-interned name. Readers (the intern fast path,
/// [`sym_lookup`], [`sym_name`]) share the lock; only the first intern
/// of a genuinely new name takes the write side. This is what keeps the
/// campaign pool's workers from serializing on the interner.
static SYMTAB: OnceLock<RwLock<Symtab>> = OnceLock::new();

fn symtab() -> &'static RwLock<Symtab> {
    SYMTAB.get_or_init(|| {
        RwLock::new(Symtab {
            names: Vec::new(),
            ids: HashMap::new(),
        })
    })
}

/// Intern `name`, returning its process-wide id. The first intern of a
/// name leaks one copy of it; the variable-name population (register
/// harness fields, `mem_*` loads at fixed harness addresses) is small
/// and recurs across queries, so the leak is bounded in practice.
///
/// Read-mostly: the hit path takes only the shared side of the table
/// lock, and the miss path re-checks under the write lock (another
/// thread may have interned the same name between the two).
pub fn sym_intern(name: &str) -> SymId {
    {
        let t = symtab().read().unwrap_or_else(|e| e.into_inner());
        if let Some(&id) = t.ids.get(name) {
            return SymId(id);
        }
    }
    let mut t = symtab().write().unwrap_or_else(|e| e.into_inner());
    if let Some(&id) = t.ids.get(name) {
        return SymId(id);
    }
    let id = t.names.len() as u32;
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    t.names.push(leaked);
    t.ids.insert(leaked, id);
    SymId(id)
}

/// Look a name up without interning it (misses return `None`).
pub fn sym_lookup(name: &str) -> Option<SymId> {
    symtab()
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .ids
        .get(name)
        .copied()
        .map(SymId)
}

/// The interned name of `id`.
///
/// # Panics
///
/// Panics if `id` did not come from [`sym_intern`].
pub fn sym_name(id: SymId) -> &'static str {
    symtab().read().unwrap_or_else(|e| e.into_inner()).names[id.index()]
}

/// Arena id of a bitvector term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TermId(u32);

impl TermId {
    /// Dense arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Arena id of a boolean term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoolId(u32);

impl BoolId {
    /// Dense arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A hash-consed bitvector node. Children are arena ids, so structural
/// equality is id equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermNode {
    /// A 64-bit constant.
    Const(u64),
    /// A named input variable of `bits` significant bits.
    Var {
        /// Interned name.
        sym: SymId,
        /// Significant bit count (1..=64).
        bits: u32,
    },
    /// A binary operation.
    Bin(BinOp, TermId, TermId),
    /// Bitwise not.
    Not(TermId),
}

/// A hash-consed boolean node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoolNode {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// Comparison of two terms at `width` bits.
    Cmp {
        /// Comparison operator.
        op: CmpOp,
        /// Comparison width in bits.
        width: u32,
        /// Left operand.
        a: TermId,
        /// Right operand.
        b: TermId,
    },
    /// Conjunction.
    And(BoolId, BoolId),
    /// Disjunction.
    Or(BoolId, BoolId),
    /// Negation.
    Not(BoolId),
}

/// A hash-consing arena for bitvector and boolean terms.
///
/// The arena is append-only and lives as long as one solver session:
/// terms shared between the session's queries (the fixed harness
/// variables, a path prefix shared by sibling paths) intern to the same
/// id every time, so downstream id-keyed caches keep paying off.
#[derive(Debug, Default)]
pub struct TermArena {
    terms: Vec<TermNode>,
    term_ids: HashMap<TermNode, TermId>,
    bools: Vec<BoolNode>,
    bool_ids: HashMap<BoolNode, BoolId>,
}

/// Canonical form of one query: the byte key plus the variables in
/// first-occurrence order (the memo stores model values by that
/// order, so a hit can be renamed back to the query's variables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryShape {
    /// Canonical serialization of the constraint DAG with variables
    /// renamed to their first-occurrence index.
    pub key: Vec<u8>,
    /// `(symbol, bits)` per variable, in first-occurrence order.
    pub vars: Vec<(SymId, u32)>,
}

impl TermArena {
    /// The interned constant-true boolean (always id 0).
    pub const TRUE: BoolId = BoolId(0);
    /// The interned constant-false boolean (always id 1).
    pub const FALSE: BoolId = BoolId(1);

    /// An empty arena with the boolean constants pre-interned.
    pub fn new() -> TermArena {
        let mut a = TermArena::default();
        assert_eq!(a.intern_bool(BoolNode::True), TermArena::TRUE);
        assert_eq!(a.intern_bool(BoolNode::False), TermArena::FALSE);
        a
    }

    /// Number of bitvector terms interned so far.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Number of boolean terms interned so far.
    pub fn num_bools(&self) -> usize {
        self.bools.len()
    }

    /// The node behind `id` (nodes are small and `Copy`).
    pub fn term(&self, id: TermId) -> TermNode {
        self.terms[id.index()]
    }

    /// The boolean node behind `id`.
    pub fn bool_node(&self, id: BoolId) -> BoolNode {
        self.bools[id.index()]
    }

    /// The constant value of `id`, if fully concrete. Thanks to
    /// folding at construction, only [`TermNode::Const`] nodes are.
    pub fn const_of(&self, id: TermId) -> Option<u64> {
        match self.term(id) {
            TermNode::Const(v) => Some(v),
            _ => None,
        }
    }

    fn intern_term(&mut self, node: TermNode) -> TermId {
        if let Some(&id) = self.term_ids.get(&node) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(node);
        self.term_ids.insert(node, id);
        id
    }

    fn intern_bool(&mut self, node: BoolNode) -> BoolId {
        if let Some(&id) = self.bool_ids.get(&node) {
            return id;
        }
        let id = BoolId(self.bools.len() as u32);
        self.bools.push(node);
        self.bool_ids.insert(node, id);
        id
    }

    /// Intern a constant.
    pub fn cst(&mut self, v: u64) -> TermId {
        self.intern_term(TermNode::Const(v))
    }

    /// Intern a variable.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 64.
    pub fn var(&mut self, sym: SymId, bits: u32) -> TermId {
        assert!((1..=64).contains(&bits), "bits must be in 1..=64");
        self.intern_term(TermNode::Var { sym, bits })
    }

    /// Smart binary constructor — the same folding rules as
    /// [`crate::Expr::bin`], so a query built through either
    /// front end lands on the same interned structure.
    pub fn bin(&mut self, op: BinOp, a: TermId, b: TermId) -> TermId {
        if let (Some(x), Some(y)) = (self.const_of(a), self.const_of(b)) {
            return self.cst(eval_bin(op, x, y));
        }
        match (op, self.term(a), self.term(b)) {
            (
                BinOp::Add | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr,
                _,
                TermNode::Const(0),
            ) => return a,
            (BinOp::Add | BinOp::Or | BinOp::Xor, TermNode::Const(0), _) => return b,
            (BinOp::Sub, _, TermNode::Const(0)) => return a,
            (BinOp::And, _, TermNode::Const(u64::MAX)) => return a,
            (BinOp::And, TermNode::Const(u64::MAX), _) => return b,
            (BinOp::And, _, TermNode::Const(0)) | (BinOp::And, TermNode::Const(0), _) => {
                return self.cst(0)
            }
            // Masking a variable to at least its own width is a no-op.
            (BinOp::And, TermNode::Var { bits, .. }, TermNode::Const(m))
                if m == mask_of(bits) || (m & mask_of(bits)) == mask_of(bits) =>
            {
                return a
            }
            _ => {}
        }
        if (op == BinOp::Sub || op == BinOp::Xor) && a == b {
            return self.cst(0);
        }
        self.intern_term(TermNode::Bin(op, a, b))
    }

    /// Bitwise not with folding.
    pub fn not(&mut self, a: TermId) -> TermId {
        if let Some(x) = self.const_of(a) {
            return self.cst(!x);
        }
        self.intern_term(TermNode::Not(a))
    }

    /// Comparison constructor with constant folding (mirrors
    /// [`crate::BoolExpr::cmp`]).
    pub fn cmp(&mut self, op: CmpOp, width: u32, a: TermId, b: TermId) -> BoolId {
        if let (Some(x), Some(y)) = (self.const_of(a), self.const_of(b)) {
            let m = mask_of(width);
            let (x, y) = (x & m, y & m);
            let v = match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Ult => x < y,
                CmpOp::Slt => sign_extend(x, width) < sign_extend(y, width),
            };
            return if v { TermArena::TRUE } else { TermArena::FALSE };
        }
        self.intern_bool(BoolNode::Cmp { op, width, a, b })
    }

    /// Conjunction with folding.
    pub fn and_b(&mut self, a: BoolId, b: BoolId) -> BoolId {
        if a == TermArena::FALSE || b == TermArena::FALSE {
            return TermArena::FALSE;
        }
        if a == TermArena::TRUE {
            return b;
        }
        if b == TermArena::TRUE {
            return a;
        }
        self.intern_bool(BoolNode::And(a, b))
    }

    /// Disjunction with folding.
    pub fn or_b(&mut self, a: BoolId, b: BoolId) -> BoolId {
        if a == TermArena::TRUE || b == TermArena::TRUE {
            return TermArena::TRUE;
        }
        if a == TermArena::FALSE {
            return b;
        }
        if b == TermArena::FALSE {
            return a;
        }
        self.intern_bool(BoolNode::Or(a, b))
    }

    /// Negation with folding (constants flip, double negation cancels).
    pub fn not_b(&mut self, a: BoolId) -> BoolId {
        if a == TermArena::TRUE {
            return TermArena::FALSE;
        }
        if a == TermArena::FALSE {
            return TermArena::TRUE;
        }
        if let BoolNode::Not(inner) = self.bool_node(a) {
            return inner;
        }
        self.intern_bool(BoolNode::Not(a))
    }

    /// Canonicalize a constraint set for the query memo.
    ///
    /// Performs one DFS over the roots, assigning every reachable node
    /// a local index in completion order and every variable a
    /// normalized index in first-occurrence order, then serializes the
    /// DAG over those indices. Two constraint sets produce the same key
    /// iff they are structurally identical up to variable renaming —
    /// arena ids (which encode per-arena interning history) never
    /// appear in the key.
    pub fn normalize(&self, roots: &[BoolId]) -> QueryShape {
        let mut shape = QueryShape {
            key: Vec::with_capacity(64 + roots.len() * 4),
            vars: Vec::new(),
        };
        let mut tmap: HashMap<TermId, u32> = HashMap::new();
        let mut bmap: HashMap<BoolId, u32> = HashMap::new();
        let mut smap: HashMap<SymId, u32> = HashMap::new();
        let mut root_locals = Vec::with_capacity(roots.len());
        for &r in roots {
            root_locals.push(self.norm_bool(r, &mut shape, &mut tmap, &mut bmap, &mut smap));
        }
        shape.key.push(0xFF);
        for local in root_locals {
            shape.key.extend_from_slice(&local.to_le_bytes());
        }
        shape
    }

    fn norm_term(
        &self,
        id: TermId,
        shape: &mut QueryShape,
        tmap: &mut HashMap<TermId, u32>,
        smap: &mut HashMap<SymId, u32>,
    ) -> u32 {
        if let Some(&local) = tmap.get(&id) {
            return local;
        }
        match self.term(id) {
            TermNode::Const(v) => {
                shape.key.push(0x01);
                shape.key.extend_from_slice(&v.to_le_bytes());
            }
            TermNode::Var { sym, bits } => {
                let next = smap.len() as u32;
                let norm = *smap.entry(sym).or_insert_with(|| {
                    shape.vars.push((sym, bits));
                    next
                });
                shape.key.push(0x02);
                shape.key.extend_from_slice(&norm.to_le_bytes());
                shape.key.extend_from_slice(&bits.to_le_bytes());
            }
            TermNode::Bin(op, a, b) => {
                let la = self.norm_term(a, shape, tmap, smap);
                let lb = self.norm_term(b, shape, tmap, smap);
                shape.key.push(0x03);
                shape.key.push(op as u8);
                shape.key.extend_from_slice(&la.to_le_bytes());
                shape.key.extend_from_slice(&lb.to_le_bytes());
            }
            TermNode::Not(a) => {
                let la = self.norm_term(a, shape, tmap, smap);
                shape.key.push(0x04);
                shape.key.extend_from_slice(&la.to_le_bytes());
            }
        }
        let local = tmap.len() as u32;
        tmap.insert(id, local);
        local
    }

    fn norm_bool(
        &self,
        id: BoolId,
        shape: &mut QueryShape,
        tmap: &mut HashMap<TermId, u32>,
        bmap: &mut HashMap<BoolId, u32>,
        smap: &mut HashMap<SymId, u32>,
    ) -> u32 {
        if let Some(&local) = bmap.get(&id) {
            return local;
        }
        match self.bool_node(id) {
            BoolNode::True => shape.key.push(0x10),
            BoolNode::False => shape.key.push(0x11),
            BoolNode::Cmp { op, width, a, b } => {
                let la = self.norm_term(a, shape, tmap, smap);
                let lb = self.norm_term(b, shape, tmap, smap);
                shape.key.push(0x12);
                shape.key.push(op as u8);
                shape.key.extend_from_slice(&width.to_le_bytes());
                shape.key.extend_from_slice(&la.to_le_bytes());
                shape.key.extend_from_slice(&lb.to_le_bytes());
            }
            BoolNode::And(a, b) | BoolNode::Or(a, b) => {
                let la = self.norm_bool(a, shape, tmap, bmap, smap);
                let lb = self.norm_bool(b, shape, tmap, bmap, smap);
                shape.key.push(match self.bool_node(id) {
                    BoolNode::And(..) => 0x13,
                    _ => 0x14,
                });
                shape.key.extend_from_slice(&la.to_le_bytes());
                shape.key.extend_from_slice(&lb.to_le_bytes());
            }
            BoolNode::Not(a) => {
                let la = self.norm_bool(a, shape, tmap, bmap, smap);
                shape.key.push(0x15);
                shape.key.extend_from_slice(&la.to_le_bytes());
            }
        }
        let local = bmap.len() as u32;
        bmap.insert(id, local);
        local
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_intern_once() {
        let a = sym_intern("term_test_sym_a");
        let b = sym_intern("term_test_sym_b");
        assert_ne!(a, b);
        assert_eq!(sym_intern("term_test_sym_a"), a);
        assert_eq!(sym_lookup("term_test_sym_a"), Some(a));
        assert_eq!(sym_lookup("term_test_never_interned"), None);
        assert_eq!(sym_name(a), "term_test_sym_a");
    }

    #[test]
    fn hash_consing_dedups_structurally() {
        let mut ar = TermArena::new();
        let x = ar.var(sym_intern("x"), 32);
        let c = ar.cst(7);
        let s1 = ar.bin(BinOp::Add, x, c);
        let s2 = ar.bin(BinOp::Add, x, c);
        assert_eq!(s1, s2);
        let terms_before = ar.num_terms();
        let _ = ar.bin(BinOp::Add, x, c);
        assert_eq!(ar.num_terms(), terms_before, "no new node for a dup");
    }

    #[test]
    fn folding_matches_expr_front_end() {
        let mut ar = TermArena::new();
        let x = ar.var(sym_intern("x"), 32);
        let zero = ar.cst(0);
        assert_eq!(ar.bin(BinOp::Add, x, zero), x);
        assert_eq!(ar.bin(BinOp::Xor, x, x), zero);
        assert_eq!(ar.bin(BinOp::Sub, x, x), zero);
        let mask = ar.cst(0xFFFF_FFFF);
        assert_eq!(ar.bin(BinOp::And, x, mask), x, "mask to own width folds");
        let a = ar.cst(2);
        let b = ar.cst(3);
        let sum = ar.bin(BinOp::Add, a, b);
        assert_eq!(ar.const_of(sum), Some(5));
        let notc = ar.not(a);
        assert_eq!(ar.const_of(notc), Some(!2u64));
    }

    #[test]
    fn bool_folding_matches_expr_front_end() {
        let mut ar = TermArena::new();
        let one = ar.cst(1);
        let two = ar.cst(2);
        assert_eq!(ar.cmp(CmpOp::Eq, 64, one, one), TermArena::TRUE);
        let ff = ar.cst(0xFF);
        assert_eq!(ar.cmp(CmpOp::Ult, 8, ff, one), TermArena::FALSE);
        // Signed at 8 bits: 0xFF = -1 < 1.
        assert_eq!(ar.cmp(CmpOp::Slt, 8, ff, one), TermArena::TRUE);
        let x = ar.var(sym_intern("x"), 32);
        let c = ar.cmp(CmpOp::Eq, 32, x, two);
        assert_eq!(ar.and_b(TermArena::TRUE, c), c);
        assert_eq!(ar.and_b(TermArena::FALSE, c), TermArena::FALSE);
        assert_eq!(ar.or_b(c, TermArena::TRUE), TermArena::TRUE);
        let n = ar.not_b(c);
        assert_eq!(ar.not_b(n), c, "double negation cancels");
    }

    #[test]
    fn normalize_is_alpha_invariant() {
        let mut ar = TermArena::new();
        let build = |ar: &mut TermArena, name: &str| {
            let v = ar.var(sym_intern(name), 32);
            let c = ar.cst(0xC000_0005);
            ar.cmp(CmpOp::Eq, 32, v, c)
        };
        let p = build(&mut ar, "alpha_test_p");
        let q = build(&mut ar, "alpha_test_q");
        let sp = ar.normalize(&[p]);
        let sq = ar.normalize(&[q]);
        assert_eq!(sp.key, sq.key, "same structure, different names");
        assert_ne!(sp.vars, sq.vars, "var mapping still distinguishes them");

        // A different constant must change the key.
        let v = ar.var(sym_intern("alpha_test_p"), 32);
        let c = ar.cst(0xC000_0094);
        let r = ar.cmp(CmpOp::Eq, 32, v, c);
        assert_ne!(ar.normalize(&[r]).key, sp.key);
    }

    #[test]
    fn normalize_orders_vars_by_first_occurrence() {
        let mut ar = TermArena::new();
        let a = sym_intern("order_test_a");
        let b = sym_intern("order_test_b");
        let va = ar.var(a, 16);
        let vb = ar.var(b, 16);
        let c1 = ar.cmp(CmpOp::Ult, 16, vb, va);
        let shape = ar.normalize(&[c1]);
        assert_eq!(shape.vars, vec![(b, 16), (a, 16)]);
        // Root order is part of the key (the asymmetric constant pin
        // breaks the alpha-equivalence a pure operand swap would keep).
        let five = ar.cst(5);
        let c2 = ar.cmp(CmpOp::Eq, 16, va, five);
        assert_ne!(ar.normalize(&[c1, c2]).key, ar.normalize(&[c2, c1]).key);
    }
}
