//! Symbolic execution of target-language commands.
//!
//! Both verification engines drive this executor: the bounded model checker
//! unrolls loops in place (with concrete list lengths), while the inductive
//! engine runs it over loop-free segments and single loop-body iterations
//! from havocked states.
//!
//! List handling is the CPAChecker-style skolemization described in
//! DESIGN.md: input lists are families of scalar symbols. In bounded mode
//! the family is materialized up front (`q[0] … q[K-1]`); in inductive mode
//! an element is materialized at first read, cached by the syntactic form
//! of the index term, and constrained on the spot by the instantiated
//! adjacency invariant Ψ — including the *ghost encoding* of `atmostone`
//! (at most one element of `^q` is non-zero): a 0/1 ghost variable
//! `$changed_q` guards every materialization.
//!
//! Terms are built through the chainable [`Term`] API, which interns into
//! **this thread's arena shard** — an [`Obligation`]'s `path`/`goal` ids
//! are only meaningful on the thread that executed the program, so a whole
//! verification (symbolic execution through solving) runs on one thread.
//! The parallel corpus driver in `shadowdp` parallelizes *across*
//! verifications; cached solver verdicts still transfer between threads
//! because the solver keys its memo on structural fingerprints, not ids.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use shadowdp_solver::{Solver, Term};
use shadowdp_syntax::{
    preorder, pretty_expr, BinOp, Cmd, CmdKind, Expr, Name, NameKind, Precondition, UnOp,
};

/// Whether `e` is integer-valued assuming the variables in `ints` are.
fn int_expr_over(e: &Expr, ints: &std::collections::BTreeSet<Name>) -> bool {
    match e {
        Expr::Num(r) => r.is_integer(),
        Expr::Var(n) => ints.contains(n),
        Expr::Unary(UnOp::Neg | UnOp::Abs, a) => int_expr_over(a, ints),
        Expr::Binary(BinOp::Add | BinOp::Sub | BinOp::Mul, a, b) => {
            int_expr_over(a, ints) && int_expr_over(b, ints)
        }
        _ => false,
    }
}

/// A proof obligation: `path ⊢ goal`.
#[derive(Clone, Debug)]
pub struct Obligation {
    /// Hypotheses (path condition and assumptions) at the assert.
    pub path: Vec<Term>,
    /// The asserted condition.
    pub goal: Term,
    /// Human-readable description (the source assert).
    pub description: String,
}

/// Symbolic-execution failure (constructs outside the engine's fragment).
#[derive(Clone, Debug, PartialEq)]
pub struct SymError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SymError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "symbolic execution failed: {}", self.message)
    }
}

impl std::error::Error for SymError {}

fn err(message: impl Into<String>) -> SymError {
    SymError {
        message: message.into(),
    }
}

/// A symbolic value.
#[derive(Clone, Debug)]
pub enum SymVal {
    /// A scalar (real- or bool-sorted term).
    Scalar(Term),
    /// A list with concretely known elements (bounded mode, and output
    /// lists built by the program).
    Concrete(Vec<Term>),
    /// An input list read through the skolem cache (inductive mode). The
    /// payload selects which member of the materialized element triple a
    /// read returns.
    Input(ListRole),
    /// An output list whose elements are never read (inductive mode).
    Opaque,
}

/// Which component of a materialized input-list element a name denotes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ListRole {
    /// The values `q[i]`.
    Value,
    /// The aligned distances `^q[i]`.
    HatAligned,
    /// The shadow distances `~q[i]`.
    HatShadow,
}

/// One materialized element triple.
#[derive(Clone, Debug)]
struct Element {
    value: Term,
    hat_aligned: Term,
    hat_shadow: Term,
}

/// A symbolic state.
#[derive(Clone, Debug)]
pub struct SymState {
    /// Variable bindings.
    pub vars: BTreeMap<Name, SymVal>,
    /// Path condition (branch guards, assumptions, Ψ instantiations).
    pub path: Vec<Term>,
    /// Materialized input-list elements, keyed by `(list, index-term-id)` —
    /// the hash-consed id stands in for the old pretty-printed index
    /// string, so cache lookups compare a `u32` instead of rendering and
    /// hashing text.
    elements: BTreeMap<(String, Term), Element>,
    /// Whether a `return` was executed (terminates the state).
    pub finished: bool,
}

impl SymState {
    /// An empty state.
    pub fn new() -> SymState {
        SymState {
            vars: BTreeMap::new(),
            path: Vec::new(),
            elements: BTreeMap::new(),
            finished: false,
        }
    }

    /// Binds a scalar variable.
    pub fn set_scalar(&mut self, name: Name, t: Term) {
        self.vars.insert(name, SymVal::Scalar(t));
    }

    /// Reads a scalar variable's term.
    pub fn scalar(&self, name: &Name) -> Option<&Term> {
        match self.vars.get(name) {
            Some(SymVal::Scalar(t)) => Some(t),
            _ => None,
        }
    }
}

impl Default for SymState {
    fn default() -> Self {
        SymState::new()
    }
}

/// Adjacency information extracted from preconditions, in executable form.
#[derive(Clone, Debug, Default)]
pub struct AdjacencySpec {
    /// Quantifier-free clauses (assumed once at entry by the engines).
    pub plain: Vec<Expr>,
    /// `forall i :: φ(i)` clauses as `(i, φ)` — instantiated per element.
    pub foralls: Vec<(String, Expr)>,
    /// Lists under the at-most-one-differs adjacency.
    pub at_most_one: Vec<String>,
}

impl AdjacencySpec {
    /// Extracts the spec from a function's preconditions.
    pub fn from_preconditions(pres: &[Precondition]) -> AdjacencySpec {
        let mut spec = AdjacencySpec::default();
        for p in pres {
            match p {
                Precondition::Plain(e) => spec.plain.push(e.clone()),
                Precondition::Forall { var, body } => {
                    spec.foralls.push((var.clone(), body.clone()));
                }
                Precondition::AtMostOne(q) => spec.at_most_one.push(q.clone()),
            }
        }
        spec
    }

    /// The ghost variable name for an `atmostone` list.
    pub fn ghost_name(list: &str) -> Name {
        Name::plain(format!("$changed_{list}"))
    }
}

/// The symbolic executor.
pub struct SymExec<'a> {
    /// Adjacency spec driving element materialization.
    pub adjacency: AdjacencySpec,
    /// Solver used for path-feasibility pruning.
    pub solver: &'a Solver,
    /// Collected proof obligations.
    pub obligations: Vec<Obligation>,
    /// Maximum loop unrollings for in-place unrolling (`None` = loops are
    /// an error; the inductive engine splits them out itself).
    pub max_unroll: Option<usize>,
    /// Integer-valued variables (loop counters and the parameters bounding
    /// them — the information C's `int` declarations give CPAChecker).
    /// Strict comparisons between integer expressions are encoded with the
    /// integer gap: `a < b` becomes `a <= b - 1`.
    pub int_vars: std::collections::BTreeSet<Name>,
    fresh: u64,
    /// High-water mark of `fresh` across resets (see [`SymExec::seal_fresh`]).
    fresh_high: u64,
}

impl<'a> SymExec<'a> {
    /// Creates an executor.
    pub fn new(adjacency: AdjacencySpec, solver: &'a Solver) -> SymExec<'a> {
        SymExec {
            adjacency,
            solver,
            obligations: Vec::new(),
            max_unroll: None,
            int_vars: BTreeSet::new(),
            fresh: 0,
            fresh_high: 0,
        }
    }

    /// Whether an expression is integer-valued under [`Self::int_vars`].
    fn is_int_expr(&self, e: &Expr) -> bool {
        int_expr_over(e, &self.int_vars)
    }

    fn next_fresh(&mut self) -> u64 {
        self.fresh += 1;
        self.fresh_high = self.fresh_high.max(self.fresh);
        self.fresh
    }

    /// A fresh real-sorted symbol.
    pub fn fresh_symbol(&mut self, hint: &str) -> Term {
        let n = self.next_fresh();
        Term::real_var(format!("{hint}#{n}"))
    }

    /// The current fresh-counter position. Together with
    /// [`SymExec::reset_fresh`] this makes repeated symbolic passes name
    /// their symbols identically, so the solver's query memo table answers
    /// the repeats — the Houdini engine replays each consecution round from
    /// the same mark for exactly this reason.
    pub fn fresh_mark(&self) -> u64 {
        self.fresh
    }

    /// Rewinds fresh naming to a mark taken earlier. Only sound when every
    /// state and obligation produced after the mark has been discarded (or
    /// is about to be rebuilt identically); see [`SymExec::seal_fresh`].
    pub fn reset_fresh(&mut self, mark: u64) {
        self.fresh = mark;
    }

    /// Fast-forwards the counter past every name ever handed out, ending a
    /// reset/replay episode: symbols created afterwards can never collide
    /// with symbols minted during the replays.
    pub fn seal_fresh(&mut self) {
        self.fresh = self.fresh_high;
    }

    /// Drops states whose path condition is unsatisfiable.
    fn feasible(&self, state: &SymState) -> bool {
        self.solver.satisfiable(&state.path)
    }

    /// Executes a command sequence from each input state; returns the
    /// surviving (feasible) output states.
    pub fn exec_cmds(
        &mut self,
        states: Vec<SymState>,
        cmds: &[Cmd],
    ) -> Result<Vec<SymState>, SymError> {
        let mut current = states;
        for c in cmds {
            let mut next = Vec::new();
            for st in current {
                if st.finished {
                    next.push(st);
                    continue;
                }
                next.extend(self.exec_cmd(st, c)?);
            }
            current = next;
        }
        Ok(current)
    }

    fn exec_cmd(&mut self, mut st: SymState, c: &Cmd) -> Result<Vec<SymState>, SymError> {
        match &c.kind {
            CmdKind::Skip => Ok(vec![st]),
            CmdKind::Assign(x, e) => {
                let v = self.eval(e, &mut st)?;
                st.vars.insert(x.clone(), v);
                Ok(vec![st])
            }
            CmdKind::Havoc(x) => {
                let t = self.fresh_symbol(&x.to_string());
                st.set_scalar(x.clone(), t);
                Ok(vec![st])
            }
            CmdKind::Assume(e) => {
                let t = self.eval_bool(e, &mut st)?;
                st.path.push(t);
                Ok(vec![st])
            }
            CmdKind::Assert(e) => {
                let t = self.eval_bool(e, &mut st)?;
                self.obligations.push(Obligation {
                    path: st.path.clone(),
                    goal: t,
                    description: format!("assert({})", pretty_expr(e)),
                });
                // Standard assert-then-assume: downstream paths may rely on
                // the asserted fact.
                st.path.push(t);
                Ok(vec![st])
            }
            CmdKind::Return(_) => {
                st.finished = true;
                Ok(vec![st])
            }
            CmdKind::If(cond, then_b, else_b) => {
                let t = self.eval_bool(cond, &mut st)?;
                let mut out = Vec::new();
                let mut st_then = st.clone();
                st_then.path.push(t);
                if self.feasible(&st_then) {
                    out.extend(self.exec_cmds(vec![st_then], then_b)?);
                }
                let mut st_else = st;
                st_else.path.push(t.not());
                if self.feasible(&st_else) {
                    out.extend(self.exec_cmds(vec![st_else], else_b)?);
                }
                Ok(out)
            }
            CmdKind::While { cond, body, .. } => {
                let Some(max) = self.max_unroll else {
                    return Err(err("loop reached in loop-free execution mode (engine bug)"));
                };
                let mut exits = Vec::new();
                let mut live = vec![st];
                for _ in 0..=max {
                    let mut continuing = Vec::new();
                    for mut s in live {
                        let t = self.eval_bool(cond, &mut s)?;
                        let mut s_exit = s.clone();
                        s_exit.path.push(t.not());
                        if self.feasible(&s_exit) {
                            exits.push(s_exit);
                        }
                        s.path.push(t);
                        if self.feasible(&s) {
                            continuing.extend(self.exec_cmds(vec![s], body)?);
                        }
                    }
                    live = continuing;
                    if live.is_empty() {
                        break;
                    }
                }
                if !live.is_empty() {
                    return Err(err(format!(
                        "loop not fully unrolled within {max} iterations; \
                         increase the bound or constrain the inputs"
                    )));
                }
                Ok(exits)
            }
            CmdKind::Sample { .. } => Err(err(
                "sampling command in target program (lower it with lower_to_target first)",
            )),
        }
    }

    // ---- expression evaluation ----

    /// Evaluates an expression to a symbolic value.
    pub fn eval(&mut self, e: &Expr, st: &mut SymState) -> Result<SymVal, SymError> {
        match e {
            Expr::Num(r) => Ok(SymVal::Scalar(Term::rat(*r))),
            Expr::Bool(b) => Ok(SymVal::Scalar(Term::bool_const(*b))),
            Expr::Nil => Ok(SymVal::Concrete(Vec::new())),
            Expr::Var(n) => st
                .vars
                .get(n)
                .cloned()
                .ok_or_else(|| err(format!("unbound variable `{n}`"))),
            Expr::Unary(op, inner) => {
                let t = self.eval_scalar(inner, st)?;
                Ok(SymVal::Scalar(match op {
                    UnOp::Neg => t.neg(),
                    UnOp::Not => t.not(),
                    UnOp::Abs => t.abs(),
                    UnOp::Sgn => Term::ite(
                        t.gt(Term::int(0)),
                        Term::int(1),
                        Term::ite(t.lt(Term::int(0)), Term::int(-1), Term::int(0)),
                    ),
                }))
            }
            Expr::Binary(op, a, b) => {
                // Integer-gap encoding of strict comparisons between
                // integer-valued expressions: `a < b  ⇔  a <= b - 1`.
                let int_gap = matches!(op, BinOp::Lt | BinOp::Gt)
                    && self.is_int_expr(a)
                    && self.is_int_expr(b);
                let ta = self.eval_scalar(a, st)?;
                let tb = self.eval_scalar(b, st)?;
                Ok(SymVal::Scalar(match op {
                    BinOp::Add => ta.add(tb),
                    BinOp::Sub => ta.sub(tb),
                    BinOp::Mul => ta.mul(tb),
                    BinOp::Div => ta.div(tb),
                    BinOp::Mod => ta.rem(tb),
                    BinOp::Lt if int_gap => ta.le(tb.sub(Term::int(1))),
                    BinOp::Gt if int_gap => ta.ge(tb.add(Term::int(1))),
                    BinOp::Lt => ta.lt(tb),
                    BinOp::Le => ta.le(tb),
                    BinOp::Gt => ta.gt(tb),
                    BinOp::Ge => ta.ge(tb),
                    BinOp::Eq => ta.eq_num(tb),
                    BinOp::Ne => ta.ne_num(tb),
                    BinOp::And => ta.and(tb),
                    BinOp::Or => ta.or(tb),
                }))
            }
            Expr::Ternary(c, t, f) => {
                let tc = self.eval_scalar(c, st)?;
                let tt = self.eval_scalar(t, st)?;
                let tf = self.eval_scalar(f, st)?;
                Ok(SymVal::Scalar(Term::ite(tc, tt, tf)))
            }
            Expr::Cons(h, t) => {
                let hv = self.eval_scalar(h, st)?;
                match self.eval(t, st)? {
                    SymVal::Concrete(mut xs) => {
                        xs.insert(0, hv);
                        Ok(SymVal::Concrete(xs))
                    }
                    SymVal::Opaque => Ok(SymVal::Opaque),
                    _ => Err(err("cons onto an input list")),
                }
            }
            Expr::Index(base, idx) => {
                let idx_t = self.eval_scalar(idx, st)?;
                let Expr::Var(n) = &**base else {
                    return Err(err("indexing a non-variable list"));
                };
                match st.vars.get(n).cloned() {
                    Some(SymVal::Concrete(xs)) => {
                        let shadowdp_solver::TermNode::RConst(r) = idx_t.view() else {
                            return Err(err(format!(
                                "index into `{n}` is not concrete in bounded mode"
                            )));
                        };
                        if !r.is_integer() || r.is_negative() {
                            return Err(err(format!("bad index {r} into `{n}`")));
                        }
                        let k = r.numer() as usize;
                        xs.get(k).copied().map(SymVal::Scalar).ok_or_else(|| {
                            err(format!(
                                "index {k} out of bounds for `{n}` (len {})",
                                xs.len()
                            ))
                        })
                    }
                    Some(SymVal::Input(role)) => {
                        let elem = self.materialize(&n.base, &idx_t, st)?;
                        Ok(SymVal::Scalar(match role {
                            ListRole::Value => elem.value,
                            ListRole::HatAligned => elem.hat_aligned,
                            ListRole::HatShadow => elem.hat_shadow,
                        }))
                    }
                    Some(SymVal::Opaque) => Err(err(format!(
                        "reading an element of output list `{n}` (unsupported in \
                         inductive mode)"
                    ))),
                    Some(SymVal::Scalar(_)) => Err(err(format!("`{n}` is not a list"))),
                    None => Err(err(format!("unbound list `{n}`"))),
                }
            }
        }
    }

    fn eval_scalar(&mut self, e: &Expr, st: &mut SymState) -> Result<Term, SymError> {
        match self.eval(e, st)? {
            SymVal::Scalar(t) => Ok(t),
            _ => Err(err(format!(
                "expected a scalar, got a list: `{}`",
                pretty_expr(e)
            ))),
        }
    }

    /// Evaluates a boolean expression.
    pub fn eval_bool(&mut self, e: &Expr, st: &mut SymState) -> Result<Term, SymError> {
        self.eval_scalar(e, st)
    }

    /// Materializes (or fetches) the element triple for `list[idx]`,
    /// pushing its adjacency constraints onto the path.
    fn materialize(
        &mut self,
        list: &str,
        idx: &Term,
        st: &mut SymState,
    ) -> Result<Element, SymError> {
        let key = (list.to_string(), *idx);
        if let Some(e) = st.elements.get(&key) {
            return Ok(e.clone());
        }
        let n = self.next_fresh();
        let elem = Element {
            value: Term::real_var(format!("{list}@{n}")),
            hat_aligned: Term::real_var(format!("^{list}@{n}")),
            hat_shadow: Term::real_var(format!("~{list}@{n}")),
        };

        // Instantiate every forall clause at this element.
        for (var, body) in &self.adjacency.foralls.clone() {
            let t = self.eval_forall_body(body, var, list, &elem)?;
            st.path.push(t);
        }

        // Ghost encoding of atmostone: a nonzero aligned distance is only
        // allowed if no earlier element was nonzero, and flips the ghost.
        if self.adjacency.at_most_one.iter().any(|l| l == list) {
            let ghost = AdjacencySpec::ghost_name(list);
            let g = st
                .scalar(&ghost)
                .copied()
                .ok_or_else(|| err(format!("ghost `{ghost}` not initialized")))?;
            let nonzero = elem.hat_aligned.ne_num(Term::int(0));
            st.path.push(nonzero.implies(g.eq_num(Term::int(0))));
            let g_next = Term::ite(nonzero, Term::int(1), g);
            st.set_scalar(ghost, g_next);
        }

        st.elements.insert(key, elem.clone());
        Ok(elem)
    }

    /// Evaluates a forall body `φ(i)` against a materialized element:
    /// `list[i] ↦ value`, `^list[i] ↦ hat_aligned`, `~list[i] ↦ hat_shadow`.
    fn eval_forall_body(
        &mut self,
        body: &Expr,
        bound: &str,
        list: &str,
        elem: &Element,
    ) -> Result<Term, SymError> {
        fn walk(e: &Expr, bound: &str, list: &str, elem: &Element) -> Result<Term, SymError> {
            match e {
                Expr::Num(r) => Ok(Term::rat(*r)),
                Expr::Bool(b) => Ok(Term::bool_const(*b)),
                Expr::Index(base, idx) => {
                    let Expr::Var(n) = &**base else {
                        return Err(err("complex index base in precondition"));
                    };
                    let idx_is_bound =
                        matches!(&**idx, Expr::Var(i) if i.base == bound && !i.is_hat());
                    if !idx_is_bound {
                        return Err(err("precondition indexes a list at a non-bound index"));
                    }
                    if n.base != list {
                        // A clause about a different list: irrelevant here,
                        // represented by a fresh unconstrained... simpler:
                        // reject (corpus preconditions talk about one list).
                        return Err(err(format!(
                            "precondition mentions list `{}`; expected `{list}`",
                            n.base
                        )));
                    }
                    Ok(match n.kind {
                        NameKind::Plain => elem.value,
                        NameKind::HatAligned => elem.hat_aligned,
                        NameKind::HatShadow => elem.hat_shadow,
                    })
                }
                Expr::Var(n) if n.base == bound && !n.is_hat() => {
                    // The bare bound variable (e.g. `i >= 0`): not useful
                    // for a skolemized element; treat as unconstrained
                    // fresh — conservative.
                    Ok(Term::real_var(format!("$idx_{bound}")))
                }
                Expr::Unary(UnOp::Neg, a) => Ok(walk(a, bound, list, elem)?.neg()),
                Expr::Unary(UnOp::Not, a) => Ok(walk(a, bound, list, elem)?.not()),
                Expr::Unary(UnOp::Abs, a) => Ok(walk(a, bound, list, elem)?.abs()),
                Expr::Unary(UnOp::Sgn, _) => Err(err("sgn in precondition")),
                Expr::Binary(op, a, b) => {
                    let ta = walk(a, bound, list, elem)?;
                    let tb = walk(b, bound, list, elem)?;
                    Ok(match op {
                        BinOp::Add => ta.add(tb),
                        BinOp::Sub => ta.sub(tb),
                        BinOp::Mul => ta.mul(tb),
                        BinOp::Div => ta.div(tb),
                        BinOp::Mod => ta.rem(tb),
                        BinOp::Lt => ta.lt(tb),
                        BinOp::Le => ta.le(tb),
                        BinOp::Gt => ta.gt(tb),
                        BinOp::Ge => ta.ge(tb),
                        BinOp::Eq => ta.eq_num(tb),
                        BinOp::Ne => ta.ne_num(tb),
                        BinOp::And => ta.and(tb),
                        BinOp::Or => ta.or(tb),
                    })
                }
                Expr::Ternary(c, t, f) => {
                    let tc = walk(c, bound, list, elem)?;
                    let tt = walk(t, bound, list, elem)?;
                    let tf = walk(f, bound, list, elem)?;
                    Ok(Term::ite(tc, tt, tf))
                }
                _ => Err(err("unsupported construct in precondition")),
            }
        }
        walk(body, bound, list, elem)
    }

    /// Materializes a whole input list of length `len` with adjacency
    /// constraints (bounded mode), returning the three concrete lists
    /// (values, aligned hats, shadow hats) and pushing constraints.
    pub fn materialize_bounded_list(
        &mut self,
        list: &str,
        len: usize,
        st: &mut SymState,
    ) -> Result<(), SymError> {
        let mut values = Vec::new();
        let mut hats = Vec::new();
        let mut shadows = Vec::new();
        for k in 0..len {
            let elem = Element {
                value: Term::real_var(format!("{list}[{k}]")),
                hat_aligned: Term::real_var(format!("^{list}[{k}]")),
                hat_shadow: Term::real_var(format!("~{list}[{k}]")),
            };
            for (var, body) in &self.adjacency.foralls.clone() {
                let t = self.eval_forall_body(body, var, list, &elem)?;
                st.path.push(t);
            }
            values.push(elem.value);
            hats.push(elem.hat_aligned);
            shadows.push(elem.hat_shadow);
        }
        // atmostone: pairwise exclusion over the aligned hats.
        if self.adjacency.at_most_one.iter().any(|l| l == list) {
            for a in 0..len {
                for b in (a + 1)..len {
                    let both = hats[a]
                        .ne_num(Term::int(0))
                        .and(hats[b].ne_num(Term::int(0)));
                    st.path.push(both.not());
                }
            }
        }
        let base = Name::plain(list);
        st.vars.insert(base.clone(), SymVal::Concrete(values));
        st.vars.insert(base.aligned_hat(), SymVal::Concrete(hats));
        st.vars.insert(base.shadow_hat(), SymVal::Concrete(shadows));
        Ok(())
    }

    /// Infers integer-valued variables of a function: variables whose every
    /// assignment is an integer constant or an integer combination of other
    /// integer variables (loop counters), plus the parameters that bound
    /// them in comparisons. This recovers what CPAChecker reads off the C
    /// `int` declarations in the paper's benchmarks.
    pub fn infer_int_vars(f: &shadowdp_syntax::Function) -> BTreeSet<Name> {
        // Collect assignments and disqualifying writes.
        let mut assigns: Vec<(&Name, &Expr)> = Vec::new();
        let mut disqualified: BTreeSet<&Name> = BTreeSet::new();
        for c in preorder(&f.body) {
            match &c.kind {
                CmdKind::Assign(n, e) if !n.is_hat() => assigns.push((n, e)),
                CmdKind::Havoc(n) | CmdKind::Sample { var: n, .. } => {
                    disqualified.insert(n);
                }
                _ => {}
            }
        }

        let mut ints: BTreeSet<Name> = assigns
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !disqualified.contains(n))
            .cloned()
            .collect();
        // Fixed point: drop variables with a non-integer assignment.
        loop {
            let snapshot = ints.clone();
            ints.retain(|candidate| {
                assigns
                    .iter()
                    .filter(|(n, _)| *n == candidate)
                    .all(|(_, rhs)| int_expr_over(rhs, &snapshot))
            });
            if ints.len() == snapshot.len() {
                break;
            }
        }

        // Parameters bounding integer counters in comparisons are integers
        // themselves.
        let param_names: BTreeSet<String> = f.params.iter().map(|p| p.name.clone()).collect();
        let mut bound_params: BTreeSet<Name> = BTreeSet::new();
        fn scan_expr(
            e: &Expr,
            ints: &BTreeSet<Name>,
            params: &BTreeSet<String>,
            out: &mut BTreeSet<Name>,
        ) {
            match e {
                Expr::Binary(BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq, a, b) => {
                    for (x, y) in [(a, b), (b, a)] {
                        if let (Expr::Var(xv), Expr::Var(yv)) = (&**x, &**y) {
                            if ints.contains(xv) && params.contains(&yv.base) && !yv.is_hat() {
                                out.insert(yv.clone());
                            }
                        }
                    }
                }
                Expr::Binary(BinOp::And | BinOp::Or, a, b) => {
                    scan_expr(a, ints, params, out);
                    scan_expr(b, ints, params, out);
                }
                Expr::Unary(_, a) => scan_expr(a, ints, params, out),
                _ => {}
            }
        }
        for c in preorder(&f.body) {
            if let CmdKind::If(g, ..) | CmdKind::While { cond: g, .. } = &c.kind {
                scan_expr(g, &ints, &param_names, &mut bound_params);
            }
        }
        ints.extend(bound_params);
        ints
    }

    /// Registers an input list for inductive (skolem-cache) mode.
    pub fn register_input_list(&self, list: &str, st: &mut SymState) {
        let base = Name::plain(list);
        st.vars.insert(base.clone(), SymVal::Input(ListRole::Value));
        st.vars
            .insert(base.aligned_hat(), SymVal::Input(ListRole::HatAligned));
        st.vars
            .insert(base.shadow_hat(), SymVal::Input(ListRole::HatShadow));
        if self.adjacency.at_most_one.iter().any(|l| l == list) {
            st.set_scalar(AdjacencySpec::ghost_name(list), Term::int(0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowdp_syntax::parse_function;

    fn exec_body(
        src: &str,
        setup: impl FnOnce(&mut SymExec<'_>, &mut SymState),
        max_unroll: Option<usize>,
    ) -> (Vec<SymState>, Vec<Obligation>) {
        let f = parse_function(src).unwrap();
        let solver = Solver::new();
        let adjacency = AdjacencySpec::from_preconditions(&f.preconditions);
        let mut exec = SymExec::new(adjacency, &solver);
        exec.max_unroll = max_unroll;
        let mut st = SymState::new();
        setup(&mut exec, &mut st);
        let out = exec.exec_cmds(vec![st], &f.body).unwrap();
        (out, exec.obligations)
    }

    #[test]
    fn straight_line_assignment() {
        let (states, _) = exec_body(
            "function F(x: num(0,0)) returns out: num(0,0) {
                out := x + 1;
             }",
            |exec, st| {
                let x = exec.fresh_symbol("x");
                st.set_scalar(Name::plain("x"), x);
            },
            None,
        );
        assert_eq!(states.len(), 1);
        let out = states[0].scalar(&Name::plain("out")).unwrap();
        assert!(out.to_string().contains("x#"));
    }

    #[test]
    fn branching_splits_and_prunes() {
        let (states, _) = exec_body(
            "function F(x: num(0,0)) returns out: num(0,0) {
                x := 1;
                if (x > 0) { out := 1; } else { out := 2; }
             }",
            |_, _| {},
            None,
        );
        // x := 1 makes the else branch infeasible.
        assert_eq!(states.len(), 1);
        assert_eq!(states[0].scalar(&Name::plain("out")), Some(&Term::int(1)));
    }

    #[test]
    fn asserts_become_obligations_and_assumptions() {
        let (states, obligations) = exec_body(
            "function F(x: num(0,0)) returns out: num(0,0) {
                assert(x > 0);
                out := x;
             }",
            |exec, st| {
                let x = exec.fresh_symbol("x");
                st.set_scalar(Name::plain("x"), x);
            },
            None,
        );
        assert_eq!(obligations.len(), 1);
        assert!(obligations[0].description.contains("x > 0"));
        // assumed downstream
        assert_eq!(states[0].path.len(), 1);
    }

    #[test]
    fn bounded_unrolling_terminates_with_assumed_bound() {
        let (states, _) = exec_body(
            "function F(size: num(0,0)) returns out: num(0,0) {
                assume(size == 2);
                out := 0; i := 0;
                while (i < size) {
                    out := out + 1;
                    i := i + 1;
                }
             }",
            |exec, st| {
                let s = exec.fresh_symbol("size");
                st.set_scalar(Name::plain("size"), s);
            },
            Some(5),
        );
        assert_eq!(states.len(), 1);
        assert_eq!(states[0].scalar(&Name::plain("out")), Some(&Term::int(2)));
    }

    #[test]
    fn unrolling_bound_exceeded_is_an_error() {
        let f = parse_function(
            "function F(size: num(0,0)) returns out: num(0,0) {
                out := 0; i := 0;
                while (i < size) { i := i + 1; }
             }",
        )
        .unwrap();
        let solver = Solver::new();
        let mut exec = SymExec::new(AdjacencySpec::default(), &solver);
        exec.max_unroll = Some(3);
        let mut st = SymState::new();
        let s = exec.fresh_symbol("size");
        st.set_scalar(Name::plain("size"), s); // unbounded size
        let r = exec.exec_cmds(vec![st], &f.body);
        assert!(r.is_err());
    }

    #[test]
    fn inductive_list_reads_are_cached_and_constrained() {
        let f = parse_function(
            "function F(q: list num(*,*), i: num(0,0)) returns out: num(0,0)
             precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1 && ~q[k] == ^q[k]
             {
                 out := q[i] + q[i] + ^q[i];
             }",
        )
        .unwrap();
        let solver = Solver::new();
        let adjacency = AdjacencySpec::from_preconditions(&f.preconditions);
        let mut exec = SymExec::new(adjacency, &solver);
        let mut st = SymState::new();
        exec.register_input_list("q", &mut st);
        let i = exec.fresh_symbol("i");
        st.set_scalar(Name::plain("i"), i);
        let out = exec.exec_cmds(vec![st], &f.body).unwrap();
        let st = &out[0];
        // One element materialized (cache hit for the repeated q[i]).
        assert_eq!(st.elements.len(), 1);
        // Ψ constraints pushed: the hat is bounded by 1, provable.
        let hat = Term::real_var("^q@2");
        assert!(
            solver.entails(&st.path, &hat.le(Term::int(1)))
                || solver.entails(&st.path, &Term::real_var("^q@1").le(Term::int(1))),
            "Ψ instantiation missing: {:?}",
            st.path
        );
    }

    #[test]
    fn atmostone_ghost_flips() {
        let f = parse_function(
            "function F(q: list num(*,*), i, j: num(0,0)) returns out: num(0,0)
             precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1
             precondition atmostone q
             {
                 out := ^q[i] + ^q[j];
             }",
        )
        .unwrap();
        let solver = Solver::new();
        let adjacency = AdjacencySpec::from_preconditions(&f.preconditions);
        let mut exec = SymExec::new(adjacency, &solver);
        let mut st = SymState::new();
        exec.register_input_list("q", &mut st);
        let i = exec.fresh_symbol("i");
        let j = exec.fresh_symbol("j");
        st.set_scalar(Name::plain("i"), i);
        st.set_scalar(Name::plain("j"), j);
        let out = exec.exec_cmds(vec![st], &f.body).unwrap();
        let st = &out[0];
        // Both elements can't be nonzero: |^q[i]| + |^q[j]| <= 2 is weak;
        // the ghost encoding proves the sum of absolutes <= 1.
        let a = Term::real_var("^q@3");
        let b = Term::real_var("^q@4");
        let goal = a.abs().add(b.abs()).le(Term::int(1));
        assert!(
            solver.entails(&st.path, &goal),
            "ghost encoding too weak: {:?}",
            st.path
        );
    }
}
