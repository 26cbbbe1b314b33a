//! The solver's two-sorted term language, hash-consed into **per-thread
//! arena shards**.
//!
//! Terms live in a [`TermArena`] that deduplicates structurally equal
//! nodes: a term is represented by a [`TermId`] — a `Copy`-able `u32`
//! handle — and two terms are structurally equal **iff** their ids are
//! equal *within one arena*. This makes equality and hashing O(1), makes
//! `clone()` free, and lets the solver memoize whole validity queries (see
//! [`crate::solve::Solver`]).
//!
//! Every interned node additionally carries a 128-bit structural
//! [`Fingerprint`], computed incrementally at intern time from the node's
//! tag, leaf data, and child fingerprints. Fingerprints are **arena- and
//! thread-independent**: two arenas (on any threads) interning the same
//! structure produce the same fingerprint, which is what lets the solver's
//! validity-query memo survive across threads without sharing an arena.
//!
//! Variable names are interned too: [`Symbol`] is a `u32` handle into a
//! process-wide string table, so environment and model lookups compare ids
//! instead of hashing strings. (Fingerprints hash the *name*, not the
//! symbol id, so they do not depend on interning order.)
//!
//! Two ways to build terms:
//!
//! - the **thread shard** (what almost all code uses): the chainable
//!   methods on [`TermId`] (`a.add(b)`, `a.le(b)`, `Term::real_var("x")`,
//!   …) intern into this thread's own arena — no process-wide lock, so
//!   per-algorithm verification parallelizes across threads without
//!   contention. Ids from this API are freely shareable **within the
//!   thread** that built them; work that crosses threads exchanges sources,
//!   reports, and fingerprints, never raw ids.
//! - an **explicit [`TermArena`]** for isolation (property tests, fuzzing)
//!   or for batch building under one borrow ([`with_shard`]). Ids from
//!   different arenas must not be mixed; the solver's memo keys on
//!   structural fingerprints, so results *transfer* across arenas exactly
//!   when the structures match and can never alias otherwise.
//!
//! Construction helpers implement the same smart-constructor folding as the
//! original deep-tree representation (constant folding, identity/annihilator
//! elimination, n-ary flattening), so verification conditions stay small.
//!
//! Every node has one shape: a per-variant table gives its fingerprint tag
//! and s-expression operator, and the crate-private `TermNode::children`
//! lends its children, left to right, as a slice without allocating
//! (`map_children` rebuilds a node around new ones). Fingerprinting,
//! rendering and [`TermArena::vars`] walk that slice, so none of them
//! lists the variants. Per-variant code remains only where the variants
//! mean different things: the smart constructors' folding here, and
//! normalization and linearization in [`crate::normalize`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard, OnceLock};

use shadowdp_num::Rat;

// ---------------------------------------------------------------------------
// Symbols
// ---------------------------------------------------------------------------

/// An interned variable name.
///
/// `Symbol` is a `u32` into a process-wide, append-only string table;
/// comparisons and hashing are integer operations, and [`Symbol::as_str`]
/// is a table load returning a `'static` string.
///
/// Ordering is by interning order (first intern wins the smaller id), not
/// lexicographic — deterministic within a process, which is all the solver
/// needs. Only [`Symbol::intern`] hands out ids: [`Symbol::interned`]
/// shares the table's strings without taking one, so reading names back
/// (a store load) does not reorder the symbols the solver's tie-breaks see.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    /// Name of each symbol id.
    names: Vec<&'static str>,
    /// Every name in the table, with its symbol id once it has one.
    ids: HashMap<&'static str, Option<u32>>,
}

impl Interner {
    /// The table's copy of `name`, added without an id if it is new.
    fn copy(&mut self, name: &str) -> &'static str {
        if let Some((&copy, _)) = self.ids.get_key_value(name) {
            return copy;
        }
        let copy: &'static str = Box::leak(name.to_string().into_boxed_str());
        self.ids.insert(copy, None);
        copy
    }

    /// The symbol id of `name`, giving it the next one if it has none.
    fn id(&mut self, name: &str) -> u32 {
        if let Some(&Some(id)) = self.ids.get(name) {
            return id;
        }
        let copy = self.copy(name);
        let id = self.names.len() as u32;
        self.names.push(copy);
        self.ids.insert(copy, Some(id));
        id
    }
}

fn interner() -> MutexGuard<'static, Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER
        .get_or_init(|| {
            Mutex::new(Interner {
                names: Vec::new(),
                ids: HashMap::new(),
            })
        })
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Symbol {
    /// Interns a name.
    pub fn intern(name: &str) -> Symbol {
        Symbol(interner().id(name))
    }

    /// The table's copy of `name`, added if it is new, in one lock round
    /// trip: the string `Symbol::intern(name).as_str()` returns, without
    /// giving `name` a symbol id. Every call with equal names returns
    /// the same pointer.
    pub fn interned(name: &str) -> &'static str {
        interner().copy(name)
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        interner().names[self.0 as usize]
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Symbols read better as their names.
        fmt::Display::fmt(self, f)
    }
}

// ---------------------------------------------------------------------------
// Term nodes and ids
// ---------------------------------------------------------------------------

/// A handle to a hash-consed term. See the module docs.
///
/// Equality, ordering and hashing are O(1) id operations; within one arena,
/// id equality coincides with structural equality.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TermId(u32);

/// The established name for solver terms; kept as an alias so call sites
/// read naturally (`Term::real_var("x")`, `t.add(u)`).
pub type Term = TermId;

/// One interned term node of sort real or bool. Children are [`TermId`]s.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TermNode {
    /// Rational constant.
    RConst(Rat),
    /// Boolean constant.
    BConst(bool),
    /// Real-sorted variable.
    RVar(Symbol),
    /// Bool-sorted variable.
    BVar(Symbol),
    /// n-ary sum.
    Add(Vec<TermId>),
    /// Binary product (linearized later; at most one side may be a
    /// non-constant for the atom to stay linear).
    Mul(TermId, TermId),
    /// Numeric negation.
    Neg(TermId),
    /// Division (the divisor must normalize to a nonzero constant to stay
    /// linear).
    Div(TermId, TermId),
    /// Modulo; always abstracted unless both sides are constants.
    Mod(TermId, TermId),
    /// Absolute value (desugared to `ite` during normalization).
    Abs(TermId),
    /// Numeric if-then-else.
    Ite(TermId, TermId, TermId),
    /// `a <= b`
    Le(TermId, TermId),
    /// `a < b`
    Lt(TermId, TermId),
    /// `a == b` (numeric)
    EqNum(TermId, TermId),
    /// Boolean negation.
    Not(TermId),
    /// n-ary conjunction.
    And(Vec<TermId>),
    /// n-ary disjunction.
    Or(Vec<TermId>),
    /// Implication.
    Implies(TermId, TermId),
    /// Bi-implication (also serves as boolean equality).
    Iff(TermId, TermId),
}

/// A node's children, left to right, as a slice: the n-ary and unary
/// variants lend their own storage and the rest copy their ids inline, so
/// a walk over them never allocates.
pub(crate) enum Children<'a> {
    Lent(&'a [TermId]),
    Two([TermId; 2]),
    Three([TermId; 3]),
}

impl std::ops::Deref for Children<'_> {
    type Target = [TermId];

    fn deref(&self) -> &[TermId] {
        match self {
            Children::Lent(ids) => ids,
            Children::Two(ids) => ids,
            Children::Three(ids) => ids,
        }
    }
}

impl TermNode {
    /// The variant's fingerprint tag (1–19 in declaration order; persisted
    /// memo keys hash it, so it never changes) and its s-expression
    /// operator (leaves print their data instead).
    fn shape(&self) -> (u128, &'static str) {
        match self {
            TermNode::RConst(_) => (1, ""),
            TermNode::BConst(_) => (2, ""),
            TermNode::RVar(_) => (3, ""),
            TermNode::BVar(_) => (4, ""),
            TermNode::Add(_) => (5, "+"),
            TermNode::Mul(..) => (6, "*"),
            TermNode::Neg(_) => (7, "-"),
            TermNode::Div(..) => (8, "/"),
            TermNode::Mod(..) => (9, "mod"),
            TermNode::Abs(_) => (10, "abs"),
            TermNode::Ite(..) => (11, "ite"),
            TermNode::Le(..) => (12, "<="),
            TermNode::Lt(..) => (13, "<"),
            TermNode::EqNum(..) => (14, "="),
            TermNode::Not(_) => (15, "not"),
            TermNode::And(_) => (16, "and"),
            TermNode::Or(_) => (17, "or"),
            TermNode::Implies(..) => (18, "=>"),
            TermNode::Iff(..) => (19, "iff"),
        }
    }

    /// The children, left to right; a leaf has none.
    pub(crate) fn children(&self) -> Children<'_> {
        match self {
            TermNode::RConst(_) | TermNode::BConst(_) | TermNode::RVar(_) | TermNode::BVar(_) => {
                Children::Lent(&[])
            }
            TermNode::Add(ts) | TermNode::And(ts) | TermNode::Or(ts) => Children::Lent(ts),
            TermNode::Neg(a) | TermNode::Abs(a) | TermNode::Not(a) => {
                Children::Lent(std::slice::from_ref(a))
            }
            TermNode::Mul(a, b)
            | TermNode::Div(a, b)
            | TermNode::Mod(a, b)
            | TermNode::Le(a, b)
            | TermNode::Lt(a, b)
            | TermNode::EqNum(a, b)
            | TermNode::Implies(a, b)
            | TermNode::Iff(a, b) => Children::Two([*a, *b]),
            TermNode::Ite(c, a, b) => Children::Three([*c, *a, *b]),
        }
    }

    /// The same variant with child `i` replaced by `f(i, child)`. The
    /// result is a raw node: nothing folds, whatever the new children are.
    pub(crate) fn map_children(&self, mut f: impl FnMut(usize, TermId) -> TermId) -> TermNode {
        let mut node = self.clone();
        match &mut node {
            TermNode::RConst(_) | TermNode::BConst(_) | TermNode::RVar(_) | TermNode::BVar(_) => {}
            TermNode::Add(ts) | TermNode::And(ts) | TermNode::Or(ts) => {
                for (i, t) in ts.iter_mut().enumerate() {
                    *t = f(i, *t);
                }
            }
            TermNode::Neg(a) | TermNode::Abs(a) | TermNode::Not(a) => *a = f(0, *a),
            TermNode::Mul(a, b)
            | TermNode::Div(a, b)
            | TermNode::Mod(a, b)
            | TermNode::Le(a, b)
            | TermNode::Lt(a, b)
            | TermNode::EqNum(a, b)
            | TermNode::Implies(a, b)
            | TermNode::Iff(a, b) => {
                *a = f(0, *a);
                *b = f(1, *b);
            }
            TermNode::Ite(c, a, b) => {
                *c = f(0, *c);
                *a = f(1, *a);
                *b = f(2, *b);
            }
        }
        node
    }
}

// ---------------------------------------------------------------------------
// Structural fingerprints
// ---------------------------------------------------------------------------

/// A 128-bit structural hash of a term.
///
/// Computed once per interned node (children are always interned first, so
/// the computation is O(node) from the children's cached fingerprints).
/// Equal structure ⇒ equal fingerprint, in *any* arena on *any* thread —
/// variable names are hashed by their string contents, not their interner
/// ids, so the value does not depend on interning order. The converse holds
/// up to 128-bit hash collisions, which the solver treats as negligible
/// (the memo-key property tests in `tests/shard_memo.rs` pin collision
/// freedom over randomized term programs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Fingerprint(pub u128);

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013B;

/// One FNV-1a-style mixing step over a full 128-bit word.
#[inline]
fn mix(h: u128, v: u128) -> u128 {
    (h ^ v).wrapping_mul(FNV128_PRIME)
}

/// Mixes a string byte-by-byte (used for variable names, once per arena —
/// interning dedups every later occurrence).
fn mix_str(mut h: u128, s: &str) -> u128 {
    h = mix(h, s.len() as u128);
    for b in s.as_bytes() {
        h = mix(h, *b as u128);
    }
    h
}

// ---------------------------------------------------------------------------
// The arena
// ---------------------------------------------------------------------------

/// A deduplicating term store. See the module docs for the two usage modes.
#[derive(Default)]
pub struct TermArena {
    nodes: Vec<TermNode>,
    /// Structural fingerprint per node, parallel to `nodes`.
    fps: Vec<u128>,
    dedup: HashMap<TermNode, TermId>,
}

impl TermArena {
    /// Creates an empty arena.
    pub fn new() -> TermArena {
        TermArena::default()
    }

    /// Number of distinct interned nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Interns a node, returning the canonical id for its structure.
    ///
    /// Child ids inside `node` must already belong to this arena (all
    /// constructors guarantee this; raw `intern` callers are responsible
    /// for it — out-of-range children panic here when the fingerprint is
    /// computed).
    pub fn intern(&mut self, node: TermNode) -> TermId {
        if let Some(&id) = self.dedup.get(&node) {
            return id;
        }
        let fp = self.node_fingerprint(&node);
        let id = TermId(self.nodes.len() as u32);
        self.nodes.push(node.clone());
        self.fps.push(fp);
        self.dedup.insert(node, id);
        id
    }

    /// The structural fingerprint of an interned term (O(1) lookup).
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different, larger arena (see
    /// [`TermArena::node`]).
    pub fn fingerprint(&self, id: TermId) -> Fingerprint {
        Fingerprint(self.fps[id.0 as usize])
    }

    /// Computes a fresh node's fingerprint: its tag, then its leaf data or
    /// (n-ary variants) its child count, then the cached fingerprints of
    /// its (already interned) children.
    fn node_fingerprint(&self, node: &TermNode) -> u128 {
        let mut h = mix(FNV128_OFFSET, node.shape().0);
        match node {
            TermNode::RConst(r) => {
                h = mix(h, r.numer() as u128);
                h = mix(h, r.denom() as u128);
            }
            TermNode::BConst(b) => h = mix(h, *b as u128),
            TermNode::RVar(v) | TermNode::BVar(v) => h = mix_str(h, v.as_str()),
            TermNode::Add(ts) | TermNode::And(ts) | TermNode::Or(ts) => {
                h = mix(h, ts.len() as u128);
            }
            _ => {}
        }
        node.children()
            .iter()
            .fold(h, |h, c| mix(h, self.fps[c.0 as usize]))
    }

    /// The node behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different arena (and is out of range
    /// there); mixing arenas is a caller bug this cannot always detect.
    pub fn node(&self, id: TermId) -> &TermNode {
        &self.nodes[id.0 as usize]
    }

    // ---- leaf constructors ----

    /// Integer constant.
    pub fn int(&mut self, n: i128) -> TermId {
        self.rat(Rat::int(n))
    }

    /// Rational constant.
    pub fn rat(&mut self, r: Rat) -> TermId {
        self.intern(TermNode::RConst(r))
    }

    /// Boolean constant.
    pub fn bool_const(&mut self, b: bool) -> TermId {
        self.intern(TermNode::BConst(b))
    }

    /// Real-sorted variable.
    pub fn real_var(&mut self, name: impl Into<Symbol>) -> TermId {
        let s = name.into();
        self.intern(TermNode::RVar(s))
    }

    /// Bool-sorted variable.
    pub fn bool_var(&mut self, name: impl Into<Symbol>) -> TermId {
        let s = name.into();
        self.intern(TermNode::BVar(s))
    }

    // ---- numeric smart constructors ----

    /// `a + b` with constant folding and flattening.
    pub fn add(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.node(a), self.node(b)) {
            (TermNode::RConst(x), TermNode::RConst(y)) => {
                let r = *x + *y;
                self.rat(r)
            }
            (TermNode::RConst(z), _) if z.is_zero() => b,
            (_, TermNode::RConst(z)) if z.is_zero() => a,
            (TermNode::Add(xs), TermNode::Add(ys)) => {
                let mut v = xs.clone();
                v.extend(ys.iter().copied());
                self.intern(TermNode::Add(v))
            }
            (TermNode::Add(xs), _) => {
                let mut v = xs.clone();
                v.push(b);
                self.intern(TermNode::Add(v))
            }
            (_, TermNode::Add(ys)) => {
                let mut v = Vec::with_capacity(ys.len() + 1);
                v.push(a);
                v.extend(ys.iter().copied());
                self.intern(TermNode::Add(v))
            }
            _ => self.intern(TermNode::Add(vec![a, b])),
        }
    }

    /// `a - b`.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        let nb = self.neg(b);
        self.add(a, nb)
    }

    /// `-a`.
    pub fn neg(&mut self, a: TermId) -> TermId {
        match self.node(a) {
            TermNode::RConst(r) => {
                let r = -*r;
                self.rat(r)
            }
            TermNode::Neg(inner) => *inner,
            _ => self.intern(TermNode::Neg(a)),
        }
    }

    /// `a * b` with constant folding.
    pub fn mul(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.node(a), self.node(b)) {
            (TermNode::RConst(x), TermNode::RConst(y)) => {
                let r = *x * *y;
                return self.rat(r);
            }
            (TermNode::RConst(x), _) if x.is_zero() => return self.int(0),
            (_, TermNode::RConst(y)) if y.is_zero() => return self.int(0),
            (TermNode::RConst(x), _) if *x == Rat::ONE => return b,
            (_, TermNode::RConst(y)) if *y == Rat::ONE => return a,
            _ => {}
        }
        self.intern(TermNode::Mul(a, b))
    }

    /// `a / b`.
    pub fn div(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.node(a), self.node(b)) {
            (TermNode::RConst(x), TermNode::RConst(y)) if !y.is_zero() => {
                let r = *x / *y;
                return self.rat(r);
            }
            (_, TermNode::RConst(y)) if *y == Rat::ONE => return a,
            _ => {}
        }
        self.intern(TermNode::Div(a, b))
    }

    /// `a % b`.
    pub fn rem(&mut self, a: TermId, b: TermId) -> TermId {
        self.intern(TermNode::Mod(a, b))
    }

    /// `abs(a)`.
    pub fn abs(&mut self, a: TermId) -> TermId {
        match self.node(a) {
            TermNode::RConst(r) => {
                let r = r.abs();
                self.rat(r)
            }
            _ => self.intern(TermNode::Abs(a)),
        }
    }

    /// Numeric if-then-else with literal-guard folding; identical branches
    /// collapse by id comparison.
    pub fn ite(&mut self, cond: TermId, then: TermId, els: TermId) -> TermId {
        match self.node(cond) {
            TermNode::BConst(true) => then,
            TermNode::BConst(false) => els,
            _ => {
                if then == els {
                    then
                } else {
                    self.intern(TermNode::Ite(cond, then, els))
                }
            }
        }
    }

    // ---- comparisons ----

    /// `a <= b`.
    pub fn le(&mut self, a: TermId, b: TermId) -> TermId {
        self.intern(TermNode::Le(a, b))
    }

    /// `a < b`.
    pub fn lt(&mut self, a: TermId, b: TermId) -> TermId {
        self.intern(TermNode::Lt(a, b))
    }

    /// `a >= b`.
    pub fn ge(&mut self, a: TermId, b: TermId) -> TermId {
        self.le(b, a)
    }

    /// `a > b`.
    pub fn gt(&mut self, a: TermId, b: TermId) -> TermId {
        self.lt(b, a)
    }

    /// Numeric equality.
    pub fn eq_num(&mut self, a: TermId, b: TermId) -> TermId {
        self.intern(TermNode::EqNum(a, b))
    }

    /// Numeric disequality.
    pub fn ne_num(&mut self, a: TermId, b: TermId) -> TermId {
        let eq = self.eq_num(a, b);
        self.not(eq)
    }

    // ---- boolean smart constructors ----

    /// Boolean negation with folding.
    pub fn not(&mut self, a: TermId) -> TermId {
        match self.node(a) {
            TermNode::BConst(b) => {
                let b = !*b;
                self.bool_const(b)
            }
            TermNode::Not(inner) => *inner,
            _ => self.intern(TermNode::Not(a)),
        }
    }

    /// Conjunction with folding and flattening.
    pub fn and(&mut self, a: TermId, b: TermId) -> TermId {
        self.conj([a, b])
    }

    /// Disjunction with folding and flattening.
    pub fn or(&mut self, a: TermId, b: TermId) -> TermId {
        self.disj([a, b])
    }

    /// Implication.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.node(a), self.node(b)) {
            (TermNode::BConst(true), _) => return b,
            (TermNode::BConst(false), _) => return self.bool_const(true),
            (_, TermNode::BConst(true)) => return self.bool_const(true),
            _ => {}
        }
        self.intern(TermNode::Implies(a, b))
    }

    /// Bi-implication.
    pub fn iff(&mut self, a: TermId, b: TermId) -> TermId {
        self.intern(TermNode::Iff(a, b))
    }

    /// Conjunction of a sequence of terms.
    ///
    /// Single pass (flatten one level of nested `And`s, drop `true`,
    /// short-circuit on `false`); [`TermArena::and`] is this over two
    /// terms, so folding `and` over the sequence gives the same id, without
    /// the fold's n−1 intermediate prefix nodes.
    pub fn conj(&mut self, terms: impl IntoIterator<Item = TermId>) -> TermId {
        self.connective(true, terms)
    }

    /// Disjunction of a sequence of terms (see [`TermArena::conj`]).
    pub fn disj(&mut self, terms: impl IntoIterator<Item = TermId>) -> TermId {
        self.connective(false, terms)
    }

    /// The n-ary flattener behind [`TermArena::conj`] (`and`) and
    /// [`TermArena::disj`] (`!and`): the connective's unit (`true` for a
    /// conjunction) drops out, the other constant short-circuits, and
    /// nested nodes of the same connective flatten one level.
    fn connective(&mut self, and: bool, terms: impl IntoIterator<Item = TermId>) -> TermId {
        let mut out: Vec<TermId> = Vec::new();
        for t in terms {
            match self.node(t) {
                TermNode::BConst(b) if *b == and => {}
                TermNode::BConst(_) => return self.bool_const(!and),
                TermNode::And(xs) if and => out.extend(xs.iter().copied()),
                TermNode::Or(xs) if !and => out.extend(xs.iter().copied()),
                _ => out.push(t),
            }
        }
        match out.len() {
            0 => self.bool_const(and),
            1 => out[0],
            _ if and => self.intern(TermNode::And(out)),
            _ => self.intern(TermNode::Or(out)),
        }
    }

    // ---- queries ----

    /// All variable symbols (both sorts) occurring in the term, in first-
    /// occurrence order.
    pub fn vars(&self, id: TermId) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.collect_vars(id, &mut out);
        out
    }

    fn collect_vars(&self, id: TermId, out: &mut Vec<Symbol>) {
        match self.node(id) {
            TermNode::RVar(v) | TermNode::BVar(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            node => {
                for &c in node.children().iter() {
                    self.collect_vars(c, out);
                }
            }
        }
    }

    /// Renders a term in the s-expression form of the original tree
    /// representation: a leaf prints its data, any other node
    /// `(op c1 … cn)`.
    pub fn display(&self, id: TermId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let node = self.node(id);
        match node {
            TermNode::RConst(r) => write!(f, "{r}"),
            TermNode::BConst(b) => write!(f, "{b}"),
            TermNode::RVar(v) | TermNode::BVar(v) => write!(f, "{v}"),
            _ => {
                write!(f, "({}", node.shape().1)?;
                for &c in node.children().iter() {
                    write!(f, " ")?;
                    self.display(c, f)?;
                }
                write!(f, ")")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The per-thread arena shard and the chainable TermId API
// ---------------------------------------------------------------------------

thread_local! {
    /// This thread's arena shard. Every thread owns one; nothing is shared,
    /// so the chainable API takes no process-wide lock and per-algorithm
    /// verification scales across threads. The shard is created lazily on
    /// first use and freed when the thread exits. A long-lived thread that
    /// runs one job after another (a daemon worker, a caller driving the
    /// corpus inline) runs each job under [`with_fresh_shard`], so the
    /// job's terms are freed when it ends instead of accumulating here.
    static SHARD: RefCell<TermArena> = RefCell::new(TermArena::new());
}

/// Runs `f` against an empty arena shard on this thread, then puts the
/// previous shard back — also when `f` unwinds — and frees every term `f`
/// built.
///
/// Ids built before the call stay valid afterwards; ids built inside `f`
/// must not escape it (they would name nodes of the freed arena). The
/// solver's memo keys on arena-independent fingerprints, so memo hits
/// across such runs are unaffected.
///
/// # Panics
///
/// Panics if called from inside [`with_shard`].
pub fn with_fresh_shard<R>(f: impl FnOnce() -> R) -> R {
    /// Puts the caller's shard back on drop, so an unwind out of `f` does
    /// not leave the job's arena installed.
    struct Restore(Option<TermArena>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let Some(prev) = self.0.take() else { return };
            // Borrows taken inside `f` were released by the time this
            // frame drops, so the shard is free; still, never panic here.
            let _ = SHARD.try_with(|a| {
                if let Ok(mut shard) = a.try_borrow_mut() {
                    *shard = prev;
                }
            });
        }
    }
    let _restore = Restore(Some(with_shard(std::mem::take)));
    f()
}

/// Runs `f` with exclusive access to this thread's arena shard.
///
/// The solver uses this to borrow once per query instead of once per node.
/// **Do not** call any of the chainable [`TermId`] methods (or `Display`)
/// from inside `f` — use the `&mut TermArena` handed to `f` instead.
/// Unlike the old process-wide mutex, a violation cannot deadlock (there is
/// no lock): it fails fast with a descriptive panic, and the discipline is
/// structural — every internal path that runs under `with_shard`
/// ([`crate::solve`], [`crate::normalize`]) threads the `&mut TermArena`
/// handle explicitly, so re-entry cannot arise there by construction.
pub fn with_shard<R>(f: impl FnOnce(&mut TermArena) -> R) -> R {
    SHARD.with(|a| match a.try_borrow_mut() {
        Ok(mut arena) => f(&mut arena),
        Err(_) => panic!(
            "re-entrant arena-shard access: inside with_shard, build terms \
             through the &mut TermArena handle, not the chainable TermId API"
        ),
    })
}

macro_rules! shard_binop {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {$(
        $(#[$doc])*
        pub fn $name(self, rhs: TermId) -> TermId {
            with_shard(|a| a.$name(self, rhs))
        }
    )*};
}

// The chainable names deliberately mirror the original deep-tree `Term`
// API (`a.add(b)`, `t.not()`, …); they are not operator overloads.
#[allow(clippy::should_implement_trait)]
impl TermId {
    /// Integer constant (thread shard).
    pub fn int(n: i128) -> TermId {
        with_shard(|a| a.int(n))
    }

    /// Rational constant (thread shard).
    pub fn rat(r: Rat) -> TermId {
        with_shard(|a| a.rat(r))
    }

    /// Boolean constant (thread shard).
    pub fn bool_const(b: bool) -> TermId {
        with_shard(|a| a.bool_const(b))
    }

    /// Real-sorted variable (thread shard).
    pub fn real_var(name: impl Into<Symbol>) -> TermId {
        let s = name.into();
        with_shard(|a| a.real_var(s))
    }

    /// Bool-sorted variable (thread shard).
    pub fn bool_var(name: impl Into<Symbol>) -> TermId {
        let s = name.into();
        with_shard(|a| a.bool_var(s))
    }

    /// Numeric if-then-else (thread shard).
    pub fn ite(cond: TermId, then: TermId, els: TermId) -> TermId {
        with_shard(|a| a.ite(cond, then, els))
    }

    /// Conjunction of a sequence of terms (thread shard).
    pub fn conj(terms: impl IntoIterator<Item = TermId>) -> TermId {
        let terms: Vec<TermId> = terms.into_iter().collect();
        with_shard(|a| a.conj(terms))
    }

    /// Disjunction of a sequence of terms (thread shard).
    pub fn disj(terms: impl IntoIterator<Item = TermId>) -> TermId {
        let terms: Vec<TermId> = terms.into_iter().collect();
        with_shard(|a| a.disj(terms))
    }

    shard_binop! {
        /// `self + rhs` with constant folding and flattening.
        add,
        /// `self - rhs`.
        sub,
        /// `self * rhs` with constant folding.
        mul,
        /// `self / rhs`.
        div,
        /// `self % rhs`.
        rem,
        /// `self <= rhs`.
        le,
        /// `self < rhs`.
        lt,
        /// `self >= rhs`.
        ge,
        /// `self > rhs`.
        gt,
        /// Numeric equality.
        eq_num,
        /// Numeric disequality.
        ne_num,
        /// Conjunction with folding and flattening.
        and,
        /// Disjunction with folding and flattening.
        or,
        /// Implication.
        implies,
        /// Bi-implication.
        iff,
    }

    /// `-self`.
    pub fn neg(self) -> TermId {
        with_shard(|a| a.neg(self))
    }

    /// `abs(self)`.
    pub fn abs(self) -> TermId {
        with_shard(|a| a.abs(self))
    }

    /// Boolean negation with folding.
    pub fn not(self) -> TermId {
        with_shard(|a| a.not(self))
    }

    /// A clone of this term's node in the thread shard — the matching
    /// surface replacing pattern matching on the old deep-tree `Term`.
    pub fn view(self) -> TermNode {
        with_shard(|a| a.node(self).clone())
    }

    /// All variable names (both sorts) occurring in the term (thread
    /// shard), rendered as strings for caller convenience.
    pub fn vars(self) -> Vec<String> {
        with_shard(|a| a.vars(self))
            .into_iter()
            .map(|s| s.as_str().to_string())
            .collect()
    }
}

/// Renders against **this thread's** arena shard.
///
/// An id minted by an explicit [`TermArena`] (or on a different thread)
/// carries no provenance — if it happens to be in range of this thread's
/// shard this prints whatever unrelated node owns that slot (only
/// out-of-range ids get the `<term#N …>` marker). Code working with
/// explicit arenas must render through [`TermArena::display`] instead;
/// `Display` on a raw id is only meaningful for terms built on the current
/// thread through the chainable API.
impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        with_shard(|a| {
            if (self.0 as usize) < a.len() {
                a.display(*self, f)
            } else {
                write!(f, "<term#{} out of this thread's shard>", self.0)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smart_constructors() {
        assert_eq!(Term::int(1).add(Term::int(2)), Term::int(3));
        assert_eq!(Term::int(0).add(Term::real_var("x")), Term::real_var("x"));
        assert_eq!(Term::int(3).mul(Term::int(4)), Term::int(12));
        assert_eq!(Term::int(0).mul(Term::real_var("x")), Term::int(0));
        assert_eq!(Term::int(1).mul(Term::real_var("x")), Term::real_var("x"));
        assert_eq!(Term::int(6).div(Term::int(2)), Term::int(3));
        assert_eq!(Term::int(-5).abs(), Term::int(5));
        assert_eq!(Term::int(5).neg(), Term::int(-5));
        assert_eq!(Term::real_var("x").neg().neg(), Term::real_var("x"));
    }

    #[test]
    fn boolean_folding() {
        let b = Term::bool_var("b");
        assert_eq!(Term::bool_const(true).and(b), b);
        assert_eq!(Term::bool_const(false).or(b), b);
        assert_eq!(
            Term::bool_const(false).and(Term::bool_var("b")),
            Term::bool_const(false)
        );
        assert_eq!(b.not().not(), b);
        assert_eq!(
            Term::bool_const(false).implies(Term::bool_var("b")),
            Term::bool_const(true)
        );
    }

    #[test]
    fn flattening() {
        let t = Term::real_var("x")
            .add(Term::real_var("y"))
            .add(Term::real_var("z"));
        match t.view() {
            TermNode::Add(xs) => assert_eq!(xs.len(), 3),
            other => panic!("expected flat Add, got {other:?}"),
        }
        let t = Term::bool_var("a")
            .and(Term::bool_var("b"))
            .and(Term::bool_var("c"));
        match t.view() {
            TermNode::And(xs) => assert_eq!(xs.len(), 3),
            other => panic!("expected flat And, got {other:?}"),
        }
    }

    #[test]
    fn vars_collects_both_sorts() {
        let t = Term::real_var("x")
            .le(Term::int(1))
            .and(Term::bool_var("p"));
        let vs = t.vars();
        assert!(vs.contains(&"x".to_string()));
        assert!(vs.contains(&"p".to_string()));
    }

    #[test]
    fn ite_folding() {
        assert_eq!(
            Term::ite(Term::bool_const(true), Term::int(1), Term::int(2)),
            Term::int(1)
        );
        assert_eq!(
            Term::ite(Term::bool_var("c"), Term::int(7), Term::int(7)),
            Term::int(7)
        );
    }

    #[test]
    fn display_smoke() {
        let t = Term::real_var("x").add(Term::int(1)).le(Term::int(0));
        assert_eq!(t.to_string(), "(<= (+ x 1) 0)");
    }

    #[test]
    fn conj_and_disj_match_the_binary_fold() {
        let atoms: Vec<TermId> = (0..5)
            .map(|k| Term::real_var(format!("cd{k}")).le(Term::int(k)))
            .collect();
        let folded = atoms
            .iter()
            .fold(Term::bool_const(true), |acc, t| acc.and(*t));
        assert_eq!(Term::conj(atoms.iter().copied()), folded);
        let folded = atoms
            .iter()
            .fold(Term::bool_const(false), |acc, t| acc.or(*t));
        assert_eq!(Term::disj(atoms.iter().copied()), folded);
        // Constants fold away / short-circuit identically.
        assert_eq!(Term::conj([]), Term::bool_const(true));
        assert_eq!(Term::conj([Term::bool_const(true), atoms[0]]), atoms[0]);
        assert_eq!(
            Term::conj([atoms[0], Term::bool_const(false), atoms[1]]),
            Term::bool_const(false)
        );
        assert_eq!(Term::disj([]), Term::bool_const(false));
        assert_eq!(Term::disj([Term::bool_const(false), atoms[1]]), atoms[1]);
        // Nested n-ary arguments flatten one level, like the fold.
        let pair = atoms[0].and(atoms[1]);
        assert_eq!(
            Term::conj([pair, atoms[2]]),
            atoms[0].and(atoms[1]).and(atoms[2])
        );
    }

    #[test]
    fn hash_consing_dedups_structural_equals() {
        // Built through different construction orders, same structure →
        // same id.
        let a = Term::real_var("x").add(Term::int(1)).le(Term::int(0));
        let b = Term::real_var("x").add(Term::int(1)).le(Term::int(0));
        assert_eq!(a, b);
    }

    #[test]
    fn explicit_arena_is_isolated() {
        let mut arena = TermArena::new();
        let x = arena.real_var("x");
        let one = arena.int(1);
        let t = arena.add(x, one);
        // Structural equality within the private arena:
        let x2 = arena.real_var("x");
        let t2 = arena.add(x2, one);
        assert_eq!(t, t2);
    }

    #[test]
    fn symbols_intern_to_stable_ids() {
        let a = Symbol::intern("some_var");
        let b = Symbol::intern("some_var");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "some_var");
        assert_ne!(Symbol::intern("other_var"), a);
    }

    /// `Symbol::interned` shares the table's copy of a name but gives it
    /// no id: the id comes from the first `Symbol::intern`, so ids keep
    /// the order names were first interned as symbols.
    #[test]
    fn interned_names_take_no_symbol_id() {
        let copy = Symbol::interned("name_read_back_first");
        assert!(std::ptr::eq(copy, Symbol::interned("name_read_back_first")));
        let earlier = Symbol::intern("name_interned_first");
        let later = Symbol::intern("name_read_back_first");
        assert!(earlier < later);
        assert!(std::ptr::eq(later.as_str(), copy));
    }

    /// Interning the same structure into two independent arenas — in any
    /// construction order — yields the same fingerprint; structurally
    /// different terms get different fingerprints.
    #[test]
    fn fingerprints_are_arena_independent() {
        let mut a = TermArena::new();
        let mut b = TermArena::new();

        // Arena A builds x + 1 <= 0 directly.
        let ax = a.real_var("x");
        let a1 = a.int(1);
        let asum = a.add(ax, a1);
        let a0 = a.int(0);
        let at = a.le(asum, a0);

        // Arena B interns unrelated junk first, shifting every numeric id,
        // then builds the same structure.
        let junk = b.real_var("junk");
        let j2 = b.int(42);
        let _ = b.mul(junk, j2);
        let bx = b.real_var("x");
        let b1 = b.int(1);
        let bsum = b.add(bx, b1);
        let b0 = b.int(0);
        let bt = b.le(bsum, b0);

        assert_ne!(at, bt, "ids should differ (shifted arena)");
        assert_eq!(a.fingerprint(at), b.fingerprint(bt));

        // A different bound is a different structure.
        let a2 = a.int(2);
        let at2 = a.le(asum, a2);
        assert_ne!(a.fingerprint(at), a.fingerprint(at2));
        // Different variable name, same shape.
        let by = b.real_var("y");
        let bsum_y = b.add(by, b1);
        let bt_y = b.le(bsum_y, b0);
        assert_ne!(b.fingerprint(bt), b.fingerprint(bt_y));
    }

    /// The same chainable program run on two threads (each with its own
    /// shard) produces fingerprint-identical terms.
    #[test]
    fn thread_shards_agree_on_fingerprints() {
        fn build() -> u128 {
            let t = Term::real_var("tsx")
                .add(Term::int(3))
                .le(Term::real_var("tsy").abs());
            with_shard(|a| a.fingerprint(t)).0
        }
        let here = build();
        let there = std::thread::spawn(build).join().unwrap();
        assert_eq!(here, there);
    }

    /// Chainable calls inside `with_shard` fail fast with a descriptive
    /// panic (the old process-wide mutex deadlocked here).
    #[test]
    #[should_panic(expected = "re-entrant arena-shard access")]
    fn reentrant_shard_access_panics() {
        with_shard(|_| Term::int(1));
    }
}
