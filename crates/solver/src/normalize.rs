//! Normalization: desugaring, `ite`/`abs` lifting, NNF, and sound
//! abstraction of non-linear atoms.
//!
//! The output is a [`Formula`] whose leaves are either boolean variables or
//! linear constraints, suitable for the tableau search in [`crate::solve`].
//! Normalization runs against a [`TermArena`]: recursion walks interned
//! nodes, and the `ite`/`abs` case splits intern their rewritten terms back
//! into the same arena (where hash-consing dedups the shared structure).
//!
//! Finding a split needs only the term layer's node shape: the search
//! descends into the first child (`TermNode::children`) of an arithmetic
//! node that holds an `ite` or `abs`, and rebuilds that node around each
//! branch (`TermNode::map_children`). Where the variants mean different
//! things, the code here still matches on them: NNF treats each connective
//! by its own law, and linearization each arithmetic operator by its own
//! rule.
//!
//! # Shard-discipline audit
//!
//! The solver calls [`Normalizer::normalize`] while holding this thread's
//! arena-shard borrow ([`crate::term::with_shard`]), so nothing on this
//! path may touch the chainable `TermId` API — every term is built through
//! the `&mut TermArena` handle threaded down the recursion, which makes
//! shard re-entry impossible by construction. The one other lock this path
//! takes is the process-wide [`Symbol`] interner (in [`Normalizer`]'s
//! abstraction-cache path, minting `$absN` booleans): that interner is a
//! leaf lock that never calls back into arena or solver code, so the
//! acquisition order shard → interner cannot deadlock and is safe from any
//! number of threads.

use std::collections::HashMap;

use shadowdp_num::Rat;

use crate::fm::{Constraint, Rel};
use crate::linear::LinExpr;
use crate::term::{Symbol, TermArena, TermId, TermNode};

/// A normalized formula in negation normal form.
#[derive(Clone, Debug, PartialEq)]
pub enum Formula {
    /// Constant truth value.
    Const(bool),
    /// A boolean variable or its negation.
    BLit(Symbol, bool),
    /// A linear constraint `lin ⊙ 0` (negations already pushed into the
    /// relation).
    Atom(Constraint),
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
}

/// Normalization context: gensym for abstraction symbols, and a record of
/// whether any abstraction happened.
#[derive(Debug, Default)]
pub struct Normalizer {
    fresh: u64,
    /// Whether any non-linear atom was abstracted away. When true, `Sat`
    /// models may be spurious (but `Unsat` remains sound).
    pub abstracted: bool,
    /// Canonical abstraction symbols: structurally identical non-linear
    /// atoms share one boolean, so hypotheses can still entail goals that
    /// repeat them (e.g. a branch guard `(i+1) % M == 0` re-asserted).
    /// Keyed by interned id — equal structure is equal id, so the lookup
    /// is a u32 hash instead of a deep tree clone + deep hash.
    cache: HashMap<(TermId, Rel), Symbol>,
}

/// Result of linearizing a numeric term: either a linear expression or a
/// marker that the term was non-linear.
enum Linearized {
    Lin(LinExpr),
    NonLinear,
}

impl Normalizer {
    /// Creates a fresh normalizer.
    pub fn new() -> Normalizer {
        Normalizer::default()
    }

    fn fresh_bool(&mut self) -> Formula {
        self.fresh += 1;
        self.abstracted = true;
        Formula::BLit(Symbol::intern(&format!("$abs{}", self.fresh)), true)
    }

    /// Normalizes a boolean-sorted term into NNF with linear atoms.
    ///
    /// `polarity = true` normalizes `t`, `false` normalizes `¬t`.
    pub fn normalize(&mut self, arena: &mut TermArena, t: TermId, polarity: bool) -> Formula {
        // The n-ary connectives are walked by index so their child vectors
        // are never cloned; every other variant holds only `Copy` data, so
        // the `clone()` below is an allocation-free copy of a few words.
        if let TermNode::And(_) | TermNode::Or(_) = arena.node(t) {
            let conjunctive = matches!(arena.node(t), TermNode::And(_));
            let len = arena.node(t).children().len();
            let mut parts = Vec::with_capacity(len);
            for i in 0..len {
                let child = arena.node(t).children()[i];
                parts.push(self.normalize(arena, child, polarity));
            }
            return if conjunctive == polarity {
                mk_and(parts)
            } else {
                mk_or(parts)
            };
        }
        match arena.node(t).clone() {
            TermNode::BConst(b) => Formula::Const(b == polarity),
            TermNode::BVar(v) => Formula::BLit(v, polarity),
            TermNode::Not(inner) => self.normalize(arena, inner, !polarity),
            TermNode::Implies(a, b) => {
                // a => b  ==  ¬a ∨ b
                if polarity {
                    let na = self.normalize(arena, a, false);
                    let nb = self.normalize(arena, b, true);
                    mk_or(vec![na, nb])
                } else {
                    // ¬(a => b) == a ∧ ¬b
                    let pa = self.normalize(arena, a, true);
                    let nb = self.normalize(arena, b, false);
                    mk_and(vec![pa, nb])
                }
            }
            TermNode::Iff(a, b) => {
                if polarity {
                    // a <=> b  ==  (a ∧ b) ∨ (¬a ∧ ¬b)
                    let pp = mk_and(vec![
                        self.normalize(arena, a, true),
                        self.normalize(arena, b, true),
                    ]);
                    let nn = mk_and(vec![
                        self.normalize(arena, a, false),
                        self.normalize(arena, b, false),
                    ]);
                    mk_or(vec![pp, nn])
                } else {
                    // ¬(a <=> b) == (a ∧ ¬b) ∨ (¬a ∧ b)
                    let pn = mk_and(vec![
                        self.normalize(arena, a, true),
                        self.normalize(arena, b, false),
                    ]);
                    let np = mk_and(vec![
                        self.normalize(arena, a, false),
                        self.normalize(arena, b, true),
                    ]);
                    mk_or(vec![pn, np])
                }
            }
            TermNode::Le(a, b) => self.comparison(arena, a, b, Rel::Le, polarity),
            TermNode::Lt(a, b) => self.comparison(arena, a, b, Rel::Lt, polarity),
            TermNode::EqNum(a, b) => self.comparison(arena, a, b, Rel::Eq, polarity),
            // A boolean-sorted `ite`.
            TermNode::Ite(c, x, y) => {
                // (c ∧ x) ∨ (¬c ∧ y), with polarity applied to the branches.
                let ct = self.normalize(arena, c, true);
                let cf = self.normalize(arena, c, false);
                let xt = self.normalize(arena, x, polarity);
                let yt = self.normalize(arena, y, polarity);
                mk_or(vec![mk_and(vec![ct, xt]), mk_and(vec![cf, yt])])
            }
            // A real-sorted term where a boolean was expected is a caller
            // bug; abstract it soundly rather than panic so verification
            // stays conservative.
            _ => self.fresh_bool(),
        }
    }

    /// Normalizes `a ⊙ b` (or its negation) into atoms, lifting `ite`/`abs`
    /// out of the numeric arguments.
    fn comparison(
        &mut self,
        arena: &mut TermArena,
        a: TermId,
        b: TermId,
        rel: Rel,
        polarity: bool,
    ) -> Formula {
        // First lift any ite/abs inside the numeric term by case-splitting
        // the whole comparison.
        let diff = arena.sub(a, b);
        if let Some((cond, then_t, else_t)) = find_ite(arena, diff) {
            // diff = C[ite(cond, x, y)]  =>  (cond ∧ C[x] ⊙ 0) ∨ (¬cond ∧ C[y] ⊙ 0)
            let zero = arena.int(0);
            let ct = self.normalize(arena, cond, true);
            let cf = self.normalize(arena, cond, false);
            let ft = self.comparison(arena, then_t, zero, rel, polarity);
            let fe = self.comparison(arena, else_t, zero, rel, polarity);
            return mk_or(vec![mk_and(vec![ct, ft]), mk_and(vec![cf, fe])]);
        }
        match linearize(arena, diff) {
            Linearized::Lin(lin) => {
                // Ground atoms evaluate immediately.
                if lin.is_constant() {
                    let c = lin.constant_part();
                    let holds = match rel {
                        Rel::Le => c <= Rat::ZERO,
                        Rel::Lt => c < Rat::ZERO,
                        Rel::Eq => c.is_zero(),
                    };
                    return Formula::Const(holds == polarity);
                }
                if polarity {
                    Formula::Atom(Constraint { lin, rel })
                } else {
                    match rel {
                        // ¬(lin <= 0)  ==  -lin < 0
                        Rel::Le => Formula::Atom(Constraint::lt0(-lin)),
                        // ¬(lin < 0)  ==  -lin <= 0
                        Rel::Lt => Formula::Atom(Constraint::le0(-lin)),
                        // ¬(lin == 0)  ==  lin < 0 ∨ -lin < 0
                        Rel::Eq => mk_or(vec![
                            Formula::Atom(Constraint::lt0(lin.clone())),
                            Formula::Atom(Constraint::lt0(-lin)),
                        ]),
                    }
                }
            }
            Linearized::NonLinear => {
                // Canonical abstraction: equal atoms (equal ids) share a
                // symbol, and polarity is preserved through it.
                let key = (diff, rel);
                let name = match self.cache.get(&key) {
                    Some(n) => {
                        // A cached abstraction still makes the output
                        // formula abstract — a long-lived normalizer (the
                        // solver's pushed-assumption context) resets the
                        // flag per query, so a hit must re-taint it.
                        self.abstracted = true;
                        *n
                    }
                    None => {
                        self.fresh += 1;
                        self.abstracted = true;
                        let n = Symbol::intern(&format!("$abs{}", self.fresh));
                        self.cache.insert(key, n);
                        n
                    }
                };
                Formula::BLit(name, polarity)
            }
        }
    }
}

/// Finds the leftmost `ite`/`abs` inside `t`; if found, returns the guard
/// and the two copies of `t` with that subterm replaced by its branches.
///
/// An `ite` splits where it stands, without looking into its branches. An
/// arithmetic node (`+`, `-`, `*`, `/`, `mod`, `abs`) descends into its
/// first child that holds a split and is rebuilt around each branch (raw
/// interning — the surrounding structure was already built by the smart
/// constructors). An `abs` whose argument holds no split splits itself as
/// `|x| = ite(x >= 0, x, -x)`. Comparisons and connectives are not
/// entered: they do not occur in numeric position, and their `ite`s are
/// split at the boolean level.
fn find_ite(arena: &mut TermArena, t: TermId) -> Option<(TermId, TermId, TermId)> {
    match *arena.node(t) {
        TermNode::Ite(c, x, y) => return Some((c, x, y)),
        TermNode::Add(_)
        | TermNode::Neg(_)
        | TermNode::Mul(..)
        | TermNode::Div(..)
        | TermNode::Mod(..)
        | TermNode::Abs(_) => {}
        _ => return None,
    }
    // Children are read by index, so nothing is cloned unless a split is
    // found.
    for i in 0..arena.node(t).children().len() {
        let child = arena.node(t).children()[i];
        if let Some((c, a, b)) = find_ite(arena, child) {
            let node = arena.node(t);
            let with_a = node.map_children(|j, x| if j == i { a } else { x });
            let with_b = node.map_children(|j, x| if j == i { b } else { x });
            return Some((c, arena.intern(with_a), arena.intern(with_b)));
        }
    }
    let TermNode::Abs(inner) = *arena.node(t) else {
        return None;
    };
    let zero = arena.int(0);
    let cond = arena.ge(inner, zero);
    let neg = arena.neg(inner);
    Some((cond, inner, neg))
}

/// Attempts to put an (ite-free) numeric term into linear normal form.
fn linearize(arena: &TermArena, t: TermId) -> Linearized {
    match arena.node(t) {
        TermNode::RConst(r) => Linearized::Lin(LinExpr::constant(*r)),
        TermNode::RVar(v) => Linearized::Lin(LinExpr::var(*v)),
        TermNode::Add(ts) => {
            let mut acc = LinExpr::zero();
            for sub in ts {
                match linearize(arena, *sub) {
                    Linearized::Lin(l) => acc = acc + l,
                    Linearized::NonLinear => return Linearized::NonLinear,
                }
            }
            Linearized::Lin(acc)
        }
        TermNode::Neg(inner) => match linearize(arena, *inner) {
            Linearized::Lin(l) => Linearized::Lin(-l),
            nl => nl,
        },
        TermNode::Mul(a, b) => match (linearize(arena, *a), linearize(arena, *b)) {
            (Linearized::Lin(la), Linearized::Lin(lb)) => {
                if la.is_constant() {
                    Linearized::Lin(lb.scale(la.constant_part()))
                } else if lb.is_constant() {
                    Linearized::Lin(la.scale(lb.constant_part()))
                } else {
                    Linearized::NonLinear
                }
            }
            _ => Linearized::NonLinear,
        },
        TermNode::Div(a, b) => match (linearize(arena, *a), linearize(arena, *b)) {
            (Linearized::Lin(la), Linearized::Lin(lb)) => {
                if lb.is_constant() && !lb.constant_part().is_zero() {
                    Linearized::Lin(la.scale(Rat::ONE / lb.constant_part()))
                } else {
                    Linearized::NonLinear
                }
            }
            _ => Linearized::NonLinear,
        },
        TermNode::Mod(a, b) => match (linearize(arena, *a), linearize(arena, *b)) {
            (Linearized::Lin(la), Linearized::Lin(lb))
                if la.is_constant() && lb.is_constant() && !lb.constant_part().is_zero() =>
            {
                // Constant fold: a mod b over rationals via floored division
                // (operands are integers in practice).
                let a = la.constant_part();
                let b = lb.constant_part();
                let q = Rat::int((a / b).floor());
                Linearized::Lin(LinExpr::constant(a - q * b))
            }
            _ => Linearized::NonLinear,
        },
        // Abs/Ite were lifted before linearization; anything else (booleans
        // in numeric position) is non-linear.
        _ => Linearized::NonLinear,
    }
}

fn mk_and(parts: Vec<Formula>) -> Formula {
    let mut out = Vec::new();
    for p in parts {
        match p {
            Formula::Const(true) => {}
            Formula::Const(false) => return Formula::Const(false),
            Formula::And(xs) => out.extend(xs),
            other => out.push(other),
        }
    }
    match out.len() {
        0 => Formula::Const(true),
        1 => out.pop().unwrap(),
        _ => Formula::And(out),
    }
}

fn mk_or(parts: Vec<Formula>) -> Formula {
    let mut out = Vec::new();
    for p in parts {
        match p {
            Formula::Const(false) => {}
            Formula::Const(true) => return Formula::Const(true),
            Formula::Or(xs) => out.extend(xs),
            other => out.push(other),
        }
    }
    match out.len() {
        0 => Formula::Const(false),
        1 => out.pop().unwrap(),
        _ => Formula::Or(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{with_shard, Term};

    fn norm(t: Term) -> (Formula, bool) {
        let mut n = Normalizer::new();
        let f = with_shard(|arena| n.normalize(arena, t, true));
        (f, n.abstracted)
    }

    #[test]
    fn simple_atom() {
        let t = Term::real_var("x").le(Term::int(3));
        let (f, abs) = norm(t);
        assert!(!abs);
        match f {
            Formula::Atom(c) => {
                assert_eq!(c.rel, Rel::Le);
                assert_eq!(c.lin.coeff("x"), Rat::ONE);
                assert_eq!(c.lin.constant_part(), Rat::int(-3));
            }
            other => panic!("expected atom, got {other:?}"),
        }
    }

    #[test]
    fn negation_flips_relation() {
        let t = Term::real_var("x").le(Term::int(3)).not();
        let (f, _) = norm(t);
        match f {
            Formula::Atom(c) => {
                assert_eq!(c.rel, Rel::Lt);
                // ¬(x - 3 <= 0) == 3 - x < 0
                assert_eq!(c.lin.coeff("x"), Rat::int(-1));
                assert_eq!(c.lin.constant_part(), Rat::int(3));
            }
            other => panic!("expected atom, got {other:?}"),
        }
    }

    #[test]
    fn disequality_becomes_disjunction() {
        let t = Term::real_var("x").ne_num(Term::int(0));
        let (f, _) = norm(t);
        assert!(matches!(f, Formula::Or(ref xs) if xs.len() == 2), "{f:?}");
    }

    #[test]
    fn abs_lifts_to_case_split() {
        // |x| <= 1  ==  (x >= 0 ∧ x <= 1) ∨ (x < 0 ∧ -x <= 1)
        let t = Term::real_var("x").abs().le(Term::int(1));
        let (f, abs) = norm(t);
        assert!(!abs, "abs should not be abstracted");
        assert!(matches!(f, Formula::Or(_)), "{f:?}");
    }

    #[test]
    fn ite_lifts() {
        // (b ? 1 : 0) <= 0 == (b ∧ 1 <= 0) ∨ (¬b ∧ 0 <= 0) == ¬b
        let t = Term::ite(Term::bool_var("b"), Term::int(1), Term::int(0)).le(Term::int(0));
        let (f, _) = norm(t);
        assert_eq!(f, Formula::BLit("b".into(), false));
    }

    #[test]
    fn nonlinear_products_are_abstracted() {
        let t = Term::real_var("x")
            .mul(Term::real_var("y"))
            .le(Term::int(1));
        let (f, abstracted) = norm(t);
        assert!(abstracted);
        assert!(matches!(f, Formula::BLit(n, true) if n.as_str().starts_with("$abs")));
    }

    #[test]
    fn abstraction_cache_reuses_symbols_by_id() {
        // The same non-linear atom normalized twice through one Normalizer
        // shares the abstraction boolean (keyed by interned id).
        let atom = Term::real_var("x").mul(Term::real_var("y"));
        let t1 = atom.le(Term::int(1));
        let t2 = atom.le(Term::int(1)).not();
        let mut n = Normalizer::new();
        let (f1, f2) =
            with_shard(|arena| (n.normalize(arena, t1, true), n.normalize(arena, t2, true)));
        match (f1, f2) {
            (Formula::BLit(a, true), Formula::BLit(b, false)) => assert_eq!(a, b),
            other => panic!("expected shared abstraction literal, got {other:?}"),
        }
    }

    #[test]
    fn constant_mod_folds() {
        // 7 mod 2 == 1 folds all the way to true
        let t = Term::int(7).rem(Term::int(2)).eq_num(Term::int(1));
        let (f, abstracted) = norm(t);
        assert!(!abstracted);
        assert_eq!(f, Formula::Const(true));
        // 8 mod 2 == 1 folds to false
        let t = Term::int(8).rem(Term::int(2)).eq_num(Term::int(1));
        let (f, _) = norm(t);
        assert_eq!(f, Formula::Const(false));
    }

    #[test]
    fn symbolic_mod_is_abstracted() {
        let t = Term::real_var("i")
            .rem(Term::real_var("m"))
            .eq_num(Term::int(0));
        let (_, abstracted) = norm(t);
        assert!(abstracted);
    }

    #[test]
    fn implication_and_iff() {
        let a = Term::bool_var("a");
        let b = Term::bool_var("b");
        let (f, _) = norm(a.implies(b));
        assert!(matches!(f, Formula::Or(_)));
        let (f, _) = norm(a.iff(b));
        assert!(matches!(f, Formula::Or(_)));
    }

    #[test]
    fn division_by_constant_is_linear() {
        let t = Term::real_var("x").div(Term::int(4)).le(Term::int(1));
        let (f, abstracted) = norm(t);
        assert!(!abstracted);
        match f {
            Formula::Atom(c) => assert_eq!(c.lin.coeff("x"), Rat::new(1, 4)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn division_by_symbol_is_abstracted() {
        let t = Term::real_var("x")
            .div(Term::real_var("n"))
            .le(Term::int(1));
        let (_, abstracted) = norm(t);
        assert!(abstracted);
    }
}
