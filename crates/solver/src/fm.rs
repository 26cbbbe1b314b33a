//! Fourier–Motzkin elimination over conjunctions of linear constraints,
//! with model reconstruction.
//!
//! This is the theory core of the solver: given a conjunction of constraints
//! `lin ⊙ 0` (with `⊙ ∈ {≤, <, =}`), decide satisfiability over the
//! rationals and, if satisfiable, produce a satisfying assignment. All
//! variables are interned [`Symbol`]s.

use std::collections::{BTreeMap, HashSet};

use shadowdp_num::Rat;

use crate::linear::LinExpr;
use crate::term::Symbol;

/// Relation of a constraint against zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rel {
    /// `lin <= 0`
    Le,
    /// `lin < 0`
    Lt,
    /// `lin == 0`
    Eq,
}

/// A linear constraint `lin ⊙ 0`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// Left-hand side.
    pub lin: LinExpr,
    /// Relation against zero.
    pub rel: Rel,
}

impl Constraint {
    /// `lin <= 0`
    pub fn le0(lin: LinExpr) -> Constraint {
        Constraint { lin, rel: Rel::Le }
    }

    /// `lin < 0`
    pub fn lt0(lin: LinExpr) -> Constraint {
        Constraint { lin, rel: Rel::Lt }
    }

    /// `lin == 0`
    pub fn eq0(lin: LinExpr) -> Constraint {
        Constraint { lin, rel: Rel::Eq }
    }

    /// Whether the constraint holds under `assignment`.
    pub fn eval(&self, assignment: &BTreeMap<Symbol, Rat>) -> bool {
        let v = self.lin.eval(assignment);
        match self.rel {
            Rel::Le => v <= Rat::ZERO,
            Rel::Lt => v < Rat::ZERO,
            Rel::Eq => v.is_zero(),
        }
    }

    /// If the constraint mentions no variables, evaluates it.
    fn as_ground(&self) -> Option<bool> {
        if !self.lin.is_constant() {
            return None;
        }
        let c = self.lin.constant_part();
        Some(match self.rel {
            Rel::Le => c <= Rat::ZERO,
            Rel::Lt => c < Rat::ZERO,
            Rel::Eq => c.is_zero(),
        })
    }
}

impl std::fmt::Display for Constraint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rel = match self.rel {
            Rel::Le => "<=",
            Rel::Lt => "<",
            Rel::Eq => "==",
        };
        write!(f, "{} {} 0", self.lin, rel)
    }
}

/// Result of a Fourier–Motzkin satisfiability check.
#[derive(Clone, Debug, PartialEq)]
pub enum FmResult {
    /// Satisfiable, with a witness assignment for every mentioned variable.
    Sat(BTreeMap<Symbol, Rat>),
    /// Unsatisfiable.
    Unsat,
}

impl FmResult {
    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, FmResult::Sat(_))
    }
}

/// Decides satisfiability of a conjunction of linear constraints over the
/// rationals; returns a model when satisfiable.
///
/// The procedure first uses equalities as substitutions (Gaussian
/// elimination), then eliminates the remaining variables one at a time,
/// combining every lower bound with every upper bound. Model reconstruction
/// walks the eliminations backwards, picking a value inside the final
/// bounds at each step.
///
/// # Examples
///
/// ```
/// use shadowdp_num::Rat;
/// use shadowdp_solver::{Constraint, LinExpr, Symbol};
/// use shadowdp_solver::fm::{check_sat, FmResult};
///
/// // x <= 3  ∧  -x < -1   (i.e. x > 1): satisfiable
/// let c1 = Constraint::le0(LinExpr::var("x") - LinExpr::constant(Rat::int(3)));
/// let c2 = Constraint::lt0(LinExpr::constant(Rat::ONE) - LinExpr::var("x"));
/// match check_sat(&[c1, c2]) {
///     FmResult::Sat(m) => {
///         let x = m[&Symbol::intern("x")];
///         assert!(x > Rat::ONE && x <= Rat::int(3));
///     }
///     FmResult::Unsat => panic!("should be satisfiable"),
/// }
/// ```
pub fn check_sat(constraints: &[Constraint]) -> FmResult {
    // Steps of the elimination, replayed backwards for model construction.
    enum Step {
        /// Variable defined by an equality: `var := expr` (expr over
        /// still-unresolved variables).
        Defined { var: Symbol, expr: LinExpr },
        /// Variable eliminated by FM; the bounds refer to the constraint
        /// system at that point.
        Eliminated {
            var: Symbol,
            lowers: Vec<(LinExpr, bool)>, // (bound_expr, strict): var >(=) bound
            uppers: Vec<(LinExpr, bool)>, // (bound_expr, strict): var <(=) bound
        },
    }

    let mut work: Vec<Constraint> = Vec::new();
    for c in constraints {
        match c.as_ground() {
            Some(true) => {}
            Some(false) => return FmResult::Unsat,
            None => work.push(c.clone()),
        }
    }
    dedupe(&mut work);

    let mut steps: Vec<Step> = Vec::new();

    // Phase 1: Gaussian elimination on equalities.
    while let Some(pos) = work.iter().position(|c| c.rel == Rel::Eq) {
        let eq = work.swap_remove(pos);
        // Pick the variable with the "simplest" coefficient to solve for.
        let Some((var, k)) = eq.lin.terms().next() else {
            // Ground equality.
            if eq.lin.constant_part().is_zero() {
                continue;
            }
            return FmResult::Unsat;
        };
        // var == -(lin - k*var)/k
        let mut rest = eq.lin;
        rest.add_term(var, -k);
        let def = rest.scale(-Rat::ONE / k);
        for c in &mut work {
            if !c.lin.coeff(var).is_zero() {
                c.lin = c.lin.subst(var, &def);
            }
        }
        // Re-check ground constraints created by the substitution.
        let mut next = Vec::with_capacity(work.len());
        for c in work {
            match c.as_ground() {
                Some(true) => {}
                Some(false) => return FmResult::Unsat,
                None => next.push(c),
            }
        }
        work = next;
        dedupe(&mut work);
        steps.push(Step::Defined { var, expr: def });
    }

    // Phase 2: Fourier–Motzkin on the inequalities.
    let mut counts: Vec<(Symbol, usize)> = Vec::new();
    loop {
        // Pick the variable occurring in the fewest constraints (greedy
        // heuristic to limit blowup); `counts` is in symbol order, so ties
        // go to the smallest symbol.
        counts.clear();
        for v in work.iter().flat_map(|c| c.lin.vars()) {
            match counts.binary_search_by_key(&v, |&(s, _)| s) {
                Ok(i) => counts[i].1 += 1,
                Err(i) => counts.insert(i, (v, 1)),
            }
        }
        let Some(&(var, _)) = counts.iter().min_by_key(|&&(_, n)| n) else {
            break; // no variables left
        };

        let mut lowers: Vec<(LinExpr, bool)> = Vec::new();
        let mut uppers: Vec<(LinExpr, bool)> = Vec::new();
        let mut rest: Vec<Constraint> = Vec::new();
        for c in work {
            let k = c.lin.coeff(var);
            if k.is_zero() {
                rest.push(c);
                continue;
            }
            // k*var + r ⊙ 0  with ⊙ ∈ {<=, <}
            let mut r = c.lin;
            r.add_term(var, -k);
            let strict = c.rel == Rel::Lt;
            let bound = r.scale(-Rat::ONE / k);
            if k.is_positive() {
                // var <=(<) bound
                uppers.push((bound, strict));
            } else {
                // var >=(>) bound
                lowers.push((bound, strict));
            }
        }
        // Combine lower and upper bounds: lower ⊙ upper.
        for (lo, lo_strict) in &lowers {
            for (hi, hi_strict) in &uppers {
                let lin = lo - hi;
                let strict = *lo_strict || *hi_strict;
                let c = if strict {
                    Constraint::lt0(lin)
                } else {
                    Constraint::le0(lin)
                };
                match c.as_ground() {
                    Some(true) => {}
                    Some(false) => return FmResult::Unsat,
                    None => rest.push(c),
                }
            }
        }
        dedupe(&mut rest);
        work = rest;
        steps.push(Step::Eliminated {
            var,
            lowers,
            uppers,
        });
    }

    // All remaining constraints are ground and were checked; reconstruct a
    // model by replaying the steps backwards.
    let mut model: BTreeMap<Symbol, Rat> = BTreeMap::new();
    for step in steps.iter().rev() {
        match step {
            Step::Eliminated {
                var,
                lowers,
                uppers,
            } => {
                let lo = tighten(lowers, &model, true);
                let hi = tighten(uppers, &model, false);
                let value = choose_value(lo, hi);
                model.insert(*var, value);
            }
            Step::Defined { var, expr } => {
                let value = expr.eval(&model);
                model.insert(*var, value);
            }
        }
    }
    FmResult::Sat(model)
}

/// Evaluates a set of bounds under `model` and returns the tightest one:
/// for lower bounds (`is_lower = true`) the maximum, preferring strict at
/// ties; for upper bounds the minimum, preferring strict at ties.
fn tighten(
    bounds: &[(LinExpr, bool)],
    model: &BTreeMap<Symbol, Rat>,
    is_lower: bool,
) -> Option<(Rat, bool)> {
    let mut best: Option<(Rat, bool)> = None;
    for (e, strict) in bounds {
        let v = e.eval(model);
        best = Some(match best {
            None => (v, *strict),
            Some((bv, bs)) => {
                if v == bv {
                    (bv, bs || *strict)
                } else if (is_lower && v > bv) || (!is_lower && v < bv) {
                    (v, *strict)
                } else {
                    (bv, bs)
                }
            }
        });
    }
    best
}

/// Picks a rational strictly/weakly between the given bounds. The bounds are
/// guaranteed compatible because elimination already checked all
/// combinations.
fn choose_value(lo: Option<(Rat, bool)>, hi: Option<(Rat, bool)>) -> Rat {
    match (lo, hi) {
        (None, None) => Rat::ZERO,
        (Some((l, strict)), None) => {
            if strict {
                l + Rat::ONE
            } else {
                l
            }
        }
        (None, Some((h, strict))) => {
            if strict {
                h - Rat::ONE
            } else {
                h
            }
        }
        (Some((l, ls)), Some((h, hs))) => {
            if !ls && l == h {
                // l <= x <= h with l == h forces x = l (h side must be weak
                // too, otherwise elimination would have failed).
                debug_assert!(!hs);
                l
            } else if !ls {
                if !hs {
                    // midpoint works for weak bounds too
                    (l + h) / Rat::TWO
                } else {
                    l // l satisfies l <= x < h since l < h here
                }
            } else if !hs {
                h
            } else {
                (l + h) / Rat::TWO
            }
        }
    }
}

/// Removes duplicate constraints (syntactic, after normal forms), keeping
/// the first of each in place.
fn dedupe(cs: &mut Vec<Constraint>) {
    let mut seen = HashSet::with_capacity(cs.len());
    let first: Vec<bool> = cs.iter().map(|c| seen.insert(c)).collect();
    let mut first = first.into_iter();
    cs.retain(|_| first.next() == Some(true));
}

/// Incremental Fourier–Motzkin saturation with undo.
///
/// [`check_sat`] rebuilds its whole elimination from scratch on every call;
/// a `Saturation` instead keeps the elimination steps *live* between pushes.
/// Each step records one eliminated variable and the lower/upper bounds
/// collected for it; [`Saturation::push`] cascades a new constraint through
/// the existing steps — converting it into a bound at the first step whose
/// variable it mentions, combining it with every stored opposite bound, and
/// recursing on the combinations — so the incremental closure equals the
/// batch FM closure over the same constraints under the same (dynamically
/// grown) elimination order. Over the rationals FM is order-insensitive for
/// satisfiability, so a push reports inconsistency exactly when a fresh
/// [`check_sat`] over the whole set would.
///
/// Every push returns a [`SatUndo`] that [`Saturation::pop`] applies to
/// restore the pre-push state exactly. Undo tokens must be popped in
/// reverse push order (stack discipline) — the solver's trail guarantees
/// this.
///
/// Equalities are split into two weak inequalities (`lin == 0` becomes
/// `lin <= 0 ∧ -lin <= 0`), which is exact over ℚ; the Gaussian
/// substitution phase of [`check_sat`] exists only to speed up model
/// reconstruction, which a saturation never performs. Once the boolean
/// search succeeds, a consistent saturation is itself the `Sat` verdict;
/// the solver runs one final [`check_sat`] only for a caller that reads
/// the model, to build it.
#[derive(Debug, Default)]
pub struct Saturation {
    steps: Vec<SatStep>,
    unsat: bool,
}

/// One live elimination step: the variable and its collected bounds.
/// Stored bound expressions mention only variables whose step comes later
/// (or that have no step yet) — the invariant that makes cascading from
/// `step + 1` complete.
#[derive(Debug)]
struct SatStep {
    var: Symbol,
    lowers: Vec<(LinExpr, bool)>, // (bound, strict): var >(=) bound
    uppers: Vec<(LinExpr, bool)>, // (bound, strict): var <(=) bound
}

/// Undo token for one [`Saturation::push`].
#[derive(Debug)]
pub struct SatUndo {
    /// Step count before the push; later steps are dropped wholesale.
    steps_mark: usize,
    /// Bounds appended to pre-existing steps: `(step index, is_lower)`,
    /// popped in reverse.
    added: Vec<(usize, bool)>,
    /// Whether this push flipped the saturation to inconsistent.
    tripped: bool,
}

impl Saturation {
    /// An empty (trivially consistent) saturation.
    pub fn new() -> Saturation {
        Saturation::default()
    }

    /// Whether no constraints have been absorbed.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty() && !self.unsat
    }

    /// Whether the absorbed conjunction is still satisfiable.
    pub fn is_consistent(&self) -> bool {
        !self.unsat
    }

    /// Absorbs one constraint; returns whether the conjunction is still
    /// satisfiable, plus the token that undoes this push. Pushing onto an
    /// already-inconsistent saturation is a no-op that reports `false`.
    pub fn push(&mut self, c: &Constraint) -> (bool, SatUndo) {
        let mut undo = SatUndo {
            steps_mark: self.steps.len(),
            added: Vec::new(),
            tripped: false,
        };
        if self.unsat {
            return (false, undo);
        }
        // Worklist of inequalities `lin ⊙ 0` still to cascade, each tagged
        // with the first step index it may interact with.
        let mut queue: Vec<(LinExpr, bool, usize)> = Vec::new();
        match c.rel {
            Rel::Le => queue.push((c.lin.clone(), false, 0)),
            Rel::Lt => queue.push((c.lin.clone(), true, 0)),
            Rel::Eq => {
                queue.push((c.lin.clone(), false, 0));
                queue.push((-c.lin.clone(), false, 0));
            }
        }
        while let Some((lin, strict, from)) = queue.pop() {
            if !self.absorb(lin, strict, from, &mut undo, &mut queue) {
                self.unsat = true;
                undo.tripped = true;
                return (false, undo);
            }
        }
        (true, undo)
    }

    /// Rolls back one push. Tokens must be popped in reverse push order.
    pub fn pop(&mut self, undo: SatUndo) {
        if undo.tripped {
            self.unsat = false;
        }
        for &(i, is_lower) in undo.added.iter().rev() {
            let step = &mut self.steps[i];
            if is_lower {
                step.lowers.pop();
            } else {
                step.uppers.pop();
            }
        }
        self.steps.truncate(undo.steps_mark);
    }

    /// Cascades one inequality `lin ⊙ 0` (strict iff `strict`) through the
    /// steps starting at `from`: ground inequalities evaluate (a violation
    /// is the unsat signal), others become a bound at the first relevant
    /// step — queuing one FM combination per stored opposite bound — or
    /// open a new step when no existing one mentions their variables.
    fn absorb(
        &mut self,
        lin: LinExpr,
        strict: bool,
        from: usize,
        undo: &mut SatUndo,
        queue: &mut Vec<(LinExpr, bool, usize)>,
    ) -> bool {
        if lin.is_constant() {
            let c = lin.constant_part();
            return if strict {
                c < Rat::ZERO
            } else {
                c <= Rat::ZERO
            };
        }
        let mut hit = None;
        for i in from..self.steps.len() {
            if !lin.coeff(self.steps[i].var).is_zero() {
                hit = Some(i);
                break;
            }
        }
        let Some(i) = hit else {
            // No step mentions any of its variables: open a new step for
            // its first variable (empty opposite side, so no combinations).
            // The new step's index is past `steps_mark`, so undo handles it
            // by truncation alone.
            let (var, k) = lin.terms().next().expect("non-ground expression");
            let mut r = lin;
            r.add_term(var, -k);
            let bound = r.scale(-Rat::ONE / k);
            let (lowers, uppers) = if k.is_positive() {
                (Vec::new(), vec![(bound, strict)])
            } else {
                (vec![(bound, strict)], Vec::new())
            };
            self.steps.push(SatStep {
                var,
                lowers,
                uppers,
            });
            return true;
        };
        let var = self.steps[i].var;
        let k = lin.coeff(var);
        let mut r = lin;
        r.add_term(var, -k);
        let bound = r.scale(-Rat::ONE / k);
        let is_lower = !k.is_positive(); // k < 0: var >= bound
        let step = &self.steps[i];
        let side = if is_lower { &step.lowers } else { &step.uppers };
        if side.iter().any(|(b, s)| *s == strict && *b == bound) {
            // Exact duplicate of a live bound: it adds nothing and its
            // combinations already exist. Skipping keeps repeated
            // assumptions (Houdini re-pushes the same path atoms per
            // query) from inflating the closure quadratically.
            return true;
        }
        let opposite = if is_lower { &step.uppers } else { &step.lowers };
        for (other, other_strict) in opposite {
            // lower - upper ⊙ 0, strict if either side is.
            let (lo, hi) = if is_lower {
                (&bound, other)
            } else {
                (other, &bound)
            };
            queue.push((lo - hi, strict || *other_strict, i + 1));
        }
        let step = &mut self.steps[i];
        let side = if is_lower {
            &mut step.lowers
        } else {
            &mut step.uppers
        };
        side.push((bound, strict));
        if i < undo.steps_mark {
            undo.added.push((i, is_lower));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le(lin: LinExpr) -> Constraint {
        Constraint::le0(lin)
    }

    fn x() -> LinExpr {
        LinExpr::var("x")
    }

    fn y() -> LinExpr {
        LinExpr::var("y")
    }

    fn k(n: i128) -> LinExpr {
        LinExpr::constant(Rat::int(n))
    }

    fn val(m: &BTreeMap<Symbol, Rat>, name: &str) -> Rat {
        m[&Symbol::intern(name)]
    }

    #[test]
    fn trivial_sat_and_unsat() {
        assert!(check_sat(&[]).is_sat());
        assert!(check_sat(&[le(k(-1))]).is_sat());
        assert_eq!(check_sat(&[le(k(1))]), FmResult::Unsat);
        assert_eq!(check_sat(&[Constraint::lt0(k(0))]), FmResult::Unsat);
        assert!(check_sat(&[Constraint::eq0(k(0))]).is_sat());
        assert_eq!(check_sat(&[Constraint::eq0(k(2))]), FmResult::Unsat);
    }

    #[test]
    fn bounded_interval() {
        // 1 <= x <= 3
        let cs = [le(k(1) - x()), le(x() - k(3))];
        match check_sat(&cs) {
            FmResult::Sat(m) => {
                assert!(cs.iter().all(|c| c.eval(&m)), "model violates input: {m:?}");
            }
            FmResult::Unsat => panic!("should be sat"),
        }
    }

    #[test]
    fn empty_interval_is_unsat() {
        // x <= 1 ∧ x >= 2
        let cs = [le(x() - k(1)), le(k(2) - x())];
        assert_eq!(check_sat(&cs), FmResult::Unsat);
    }

    #[test]
    fn strictness_matters() {
        // x <= 1 ∧ x >= 1 is sat (x = 1) but x < 1 ∧ x >= 1 is unsat
        assert!(check_sat(&[le(x() - k(1)), le(k(1) - x())]).is_sat());
        assert_eq!(
            check_sat(&[Constraint::lt0(x() - k(1)), le(k(1) - x())]),
            FmResult::Unsat
        );
    }

    #[test]
    fn equalities_substitute() {
        // x == y + 1 ∧ y == 2  =>  x == 3; check with x <= 3 ∧ x >= 3
        let cs = [
            Constraint::eq0(x() - y() - k(1)),
            Constraint::eq0(y() - k(2)),
            le(x() - k(3)),
            le(k(3) - x()),
        ];
        match check_sat(&cs) {
            FmResult::Sat(m) => {
                assert_eq!(val(&m, "x"), Rat::int(3));
                assert_eq!(val(&m, "y"), Rat::int(2));
            }
            FmResult::Unsat => panic!("should be sat"),
        }
    }

    #[test]
    fn inconsistent_equalities() {
        let cs = [Constraint::eq0(x() - k(1)), Constraint::eq0(x() - k(2))];
        assert_eq!(check_sat(&cs), FmResult::Unsat);
    }

    #[test]
    fn two_variable_system() {
        // x + y <= 1 ∧ x - y <= 1 ∧ -x < 0 (x > 0)
        let cs = [
            le(x() + y() - k(1)),
            le(x() - y() - k(1)),
            Constraint::lt0(-x()),
        ];
        match check_sat(&cs) {
            FmResult::Sat(m) => assert!(cs.iter().all(|c| c.eval(&m))),
            FmResult::Unsat => panic!("should be sat"),
        }
    }

    #[test]
    fn chained_transitivity_unsat() {
        // x <= y ∧ y <= z ∧ z < x is unsat
        let z = LinExpr::var("z");
        let cs = [le(x() - y()), le(y() - z.clone()), Constraint::lt0(z - x())];
        assert_eq!(check_sat(&cs), FmResult::Unsat);
    }

    #[test]
    fn model_satisfies_equalities_mixed_with_inequalities() {
        // x == 2y ∧ y >= 3 ∧ x <= 10
        let cs = [
            Constraint::eq0(x() - y().scale(Rat::int(2))),
            le(k(3) - y()),
            le(x() - k(10)),
        ];
        match check_sat(&cs) {
            FmResult::Sat(m) => assert!(cs.iter().all(|c| c.eval(&m)), "{m:?}"),
            FmResult::Unsat => panic!("should be sat"),
        }
    }

    #[test]
    fn models_pin_the_elimination_order_and_the_equality_pivot() {
        // The names are this test's own, interned in the order listed, so
        // each first name has the smaller symbol id. Every system below
        // yields another model when the choice it pins goes the other way.
        let model = |cs: &[Constraint], names: [&str; 2]| match check_sat(cs) {
            FmResult::Sat(m) => names.map(|n| val(&m, n)),
            FmResult::Unsat => panic!("should be sat"),
        };
        let [a, b] = ["fm_pin_a", "fm_pin_b"].map(LinExpr::var);
        // a + b <= 4, a >= 0, b >= 0: both occur twice and the tie goes to
        // the smaller id, so `a` is eliminated first. The model is built
        // backwards: b takes the midpoint 2 of [0, 4], then a the midpoint
        // 1 of [0, 2] ({a: 2, b: 1} the other way).
        let cs = [
            le(a.clone() + b.clone() - k(4)),
            le(-a.clone()),
            le(-b.clone()),
        ];
        assert_eq!(model(&cs, ["fm_pin_a", "fm_pin_b"]), [Rat::ONE, Rat::TWO]);
        // Add a <= 3: `a` now occurs three times and `b` twice, so `b` goes
        // first despite its larger id ({a: 1, b: 2} the other way).
        let cs = [
            le(a.clone() + b.clone() - k(4)),
            le(-a.clone()),
            le(-b.clone()),
            le(a.clone() - k(3)),
        ];
        assert_eq!(
            model(&cs, ["fm_pin_a", "fm_pin_b"]),
            [Rat::new(3, 2), Rat::new(5, 4)]
        );
        // a + 2b == 4, a > 0: the equality is solved for its first term,
        // `a := 4 - 2b`, leaving b < 2, so b = 1 ({a: 1, b: 3/2} had it
        // been solved for `b`).
        let cs = [
            Constraint::eq0(a.clone() + b.scale(Rat::TWO) - k(4)),
            Constraint::lt0(-a),
        ];
        assert_eq!(model(&cs, ["fm_pin_a", "fm_pin_b"]), [Rat::TWO, Rat::ONE]);
    }

    #[test]
    fn saturation_tracks_batch_fm_verdicts_incrementally() {
        // Pushing one constraint at a time must agree with batch FM over
        // every prefix — the completeness invariant the trail core rests on.
        let cs = [
            le(k(1) - x()),                    // x >= 1
            le(x() - k(8)),                    // x <= 8
            le(k(2) - y()),                    // y >= 2
            le(x() + y() - k(20)),             // x + y <= 20
            Constraint::lt0(k(9) - x() - y()), // x + y > 9
        ];
        let mut sat = Saturation::new();
        let mut undos = Vec::new();
        for i in 0..cs.len() {
            let (ok, u) = sat.push(&cs[i]);
            undos.push(u);
            let batch = check_sat(&cs[..=i]).is_sat();
            assert_eq!(ok, batch, "prefix {i}");
            assert_eq!(sat.is_consistent(), batch, "prefix {i}");
        }
        // Unwind completely: back to the pristine empty saturation.
        for u in undos.into_iter().rev() {
            sat.pop(u);
        }
        assert!(sat.is_empty());
        assert!(sat.is_consistent());
    }

    #[test]
    fn saturation_pop_recovers_from_inconsistency() {
        let mut sat = Saturation::new();
        let (ok, _base) = sat.push(&le(k(1) - x())); // x >= 1
        assert!(ok);
        let (ok, bad) = sat.push(&le(x() + k(5))); // x <= -5: contradiction
        assert!(!ok);
        assert!(!sat.is_consistent());
        // Rolling back the offending push restores the consistent base…
        sat.pop(bad);
        assert!(sat.is_consistent());
        // …which still constrains: x <= 0 contradicts it again.
        let (ok, _u) = sat.push(&le(x()));
        assert!(!ok);
    }

    #[test]
    fn saturation_dedups_repeated_pushes() {
        // The Houdini base re-pushes identical path atoms across frames;
        // repeats are consumed without growing the bound lists, and the
        // stack discipline keeps the undo of the duplicate a no-op.
        let mut sat = Saturation::new();
        let c = le(k(1) - x());
        let (_, first) = sat.push(&c);
        let (ok, dup) = sat.push(&c);
        assert!(ok);
        sat.pop(dup);
        // The original bound survived the duplicate's pop.
        let (ok, _u) = sat.push(&le(x())); // x <= 0 vs x >= 1
        assert!(!ok, "bound lost when the duplicate was popped");
        sat.pop(_u);
        sat.pop(first);
        assert!(sat.is_empty());
    }

    #[test]
    fn saturation_splits_equalities() {
        // x == 2 pushed incrementally behaves as both x <= 2 and x >= 2.
        let mut sat = Saturation::new();
        let (ok, _u) = sat.push(&Constraint::eq0(x() - k(2)));
        assert!(ok);
        let (ok, u) = sat.push(&le(k(3) - x())); // x >= 3
        assert!(!ok);
        sat.pop(u);
        let (ok, u) = sat.push(&le(x() - k(1))); // x <= 1
        assert!(!ok);
        sat.pop(u);
        let (ok, _u) = sat.push(&le(k(2) - x())); // x >= 2: tight but fine
        assert!(ok);
    }
}
