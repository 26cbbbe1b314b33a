//! The inductive verification engine: Hoare-style loop verification with
//! Houdini invariant inference.
//!
//! This replaces CPAChecker's predicate analysis for the unbounded proof.
//! Loops are verified against an inductive invariant discovered as the
//! maximal conjunction of surviving candidates:
//!
//! 1. generate a candidate pool (counter ranges, cost-versus-counter affine
//!    bounds derived from the rescaled cost sites, hat-variable bounds,
//!    adjacency-ghost implications, the scaled budget itself, and any
//!    user-supplied `invariant` annotations);
//! 2. drop candidates that fail *initiation* (entry states);
//! 3. repeatedly drop candidates that fail *consecution* (one symbolic
//!    body iteration from a havocked loop-head state assuming all current
//!    candidates) until the set is stable — the classic Houdini fixed
//!    point, sound because the surviving conjunction is inductive;
//! 4. discharge every `assert` obligation: body asserts under the
//!    invariant and guard, post-loop asserts under the invariant and the
//!    negated guard.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use shadowdp_num::Rat;
use shadowdp_solver::{Solver, Term, TermNode};
use shadowdp_syntax::{preorder, pretty_expr, BinOp, Cmd, CmdKind, Expr, Name, Ty};

use crate::sym::{AdjacencySpec, SymExec, SymState, SymVal};
use crate::target::{CostSite, TargetInfo, V_EPS};

/// Per-round Houdini consecution metrics, collected when
/// [`InductiveOptions::profile`] is set.
///
/// `queries`/`hits` count the round's assumption-set-keyed consecution
/// entailments ([`Solver::prove_pushed`]) and how many the solver
/// answered from its memo. The figure of merit is the hit rate of rounds
/// with `after_drop` set: under per-candidate assumption keying, a round
/// that follows a candidate drop re-uses every verdict for candidates
/// whose own assumption sets the drop did not touch (the old monolithic
/// all-candidates prefix missed on every query there).
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundProfile {
    /// Round index within this loop's fixed point (0-based).
    pub round: usize,
    /// Candidates dropped at the end of this round.
    pub dropped: usize,
    /// Assumption-set-keyed consecution queries asked this round.
    pub queries: u64,
    /// How many of `queries` were memo hits.
    pub hits: u64,
    /// Whether any previous round of this loop dropped a candidate (the
    /// post-drop rounds are the ones the per-candidate keying speeds up).
    pub after_drop: bool,
    /// Incremental saturation extensions this round: atoms absorbed into
    /// an already-saturated constraint set (a pushed base reused across
    /// queries, or a later atom of one search) instead of triggering a
    /// from-scratch recomputation.
    pub sat_reuses: u64,
    /// Full from-scratch saturations this round (cold constraint sets and
    /// final model reconstructions).
    pub resats: u64,
}

/// Shared sink for [`RoundProfile`]s: the engine appends one entry per
/// consecution round (across all loops, in execution order).
pub type RoundProfileSink = Arc<Mutex<Vec<RoundProfile>>>;

/// Inductive-engine knobs.
#[derive(Clone, Debug)]
pub struct InductiveOptions {
    /// Safety valve on Houdini rounds: at most this many *drop* rounds; a
    /// set stabilized by the last permitted round's drops still gets one
    /// final verification pass before the engine gives up.
    pub max_rounds: usize,
    /// Optional per-round profiling sink (`None` collects nothing). Used
    /// by the `houdini-rekey` bench and the consecution-hit-rate
    /// regression tests; has no effect on verdicts.
    pub profile: Option<RoundProfileSink>,
}

impl Default for InductiveOptions {
    fn default() -> Self {
        InductiveOptions {
            max_rounds: 24,
            profile: None,
        }
    }
}

/// Outcome of the inductive engine.
#[derive(Clone, Debug)]
pub enum InductiveOutcome {
    /// Every obligation proved; the surviving loop invariants are reported
    /// for the log.
    Proved {
        /// Pretty-printed invariants per loop.
        invariants: Vec<String>,
    },
    /// Some obligation could not be proved (the invariant pool may simply
    /// be too weak — this is *not* a refutation).
    Failed {
        /// Description of the first failure.
        reason: String,
    },
}

/// Attempts an unbounded proof of all assertions in the target program.
pub fn prove(info: &TargetInfo, opts: &InductiveOptions, solver: &Solver) -> InductiveOutcome {
    Engine.run(info, opts, solver)
}

struct Engine;

impl Engine {
    fn run(&self, info: &TargetInfo, opts: &InductiveOptions, solver: &Solver) -> InductiveOutcome {
        let f = &info.function;
        let adjacency = AdjacencySpec::from_preconditions(&f.preconditions);
        let mut exec = SymExec::new(adjacency, solver);
        exec.int_vars = SymExec::infer_int_vars(f);
        let mut st = SymState::new();

        // Parameters.
        for p in &f.params {
            match &p.ty {
                Ty::List(_) => exec.register_input_list(&p.name, &mut st),
                _ => {
                    let t = exec.fresh_symbol(&p.name);
                    st.set_scalar(Name::plain(&p.name), t);
                }
            }
        }
        // Global assumptions.
        for clause in exec.adjacency.plain.clone() {
            match exec.eval_bool(&clause, &mut st) {
                Ok(t) => st.path.push(t),
                Err(e) => {
                    return InductiveOutcome::Failed {
                        reason: format!("precondition: {e}"),
                    }
                }
            }
        }

        let mut states = vec![st];
        let mut all_invariants = Vec::new();

        for cmd in &f.body {
            match &cmd.kind {
                CmdKind::While {
                    cond,
                    invariants,
                    body,
                } => {
                    match self.handle_loop(
                        info, opts, solver, &mut exec, states, cond, invariants, body,
                    ) {
                        Ok((next, survivors)) => {
                            states = next;
                            all_invariants.push(survivors);
                        }
                        Err(reason) => return InductiveOutcome::Failed { reason },
                    }
                }
                _ => match exec.exec_cmds(states, std::slice::from_ref(cmd)) {
                    Ok(next) => states = next,
                    Err(e) => {
                        return InductiveOutcome::Failed {
                            reason: e.to_string(),
                        }
                    }
                },
            }
        }

        // Discharge every collected obligation.
        for ob in &exec.obligations {
            if let Some(reason) = solver.exhausted() {
                return InductiveOutcome::Failed {
                    reason: format!("resource budget exhausted: {reason}"),
                };
            }
            if !solver.entails(&ob.path, &ob.goal) {
                return InductiveOutcome::Failed {
                    reason: format!("could not prove {}", ob.description),
                };
            }
        }

        InductiveOutcome::Proved {
            invariants: all_invariants,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_loop(
        &self,
        info: &TargetInfo,
        opts: &InductiveOptions,
        solver: &Solver,
        exec: &mut SymExec<'_>,
        entry_states: Vec<SymState>,
        guard: &Expr,
        user_invariants: &[Expr],
        body: &[Cmd],
    ) -> Result<(Vec<SymState>, String), String> {
        let assigned = assigned_in(body, exec);
        let mut candidates = generate_candidates(
            info,
            guard,
            body,
            user_invariants,
            &entry_states,
            &assigned,
            exec,
            solver,
        );

        // Initiation: drop candidates not implied at entry.
        candidates.retain(|c| {
            entry_states.iter().all(|st| {
                let mut probe = st.clone();
                match exec.eval_bool(c, &mut probe) {
                    Ok(t) => solver.entails(&probe.path, &t),
                    Err(_) => false,
                }
            })
        });

        // Houdini consecution fixed point, with **per-candidate assumption
        // keying**.
        //
        // Every round replays the same havoc → assume → body-iteration
        // shape from the same fresh-naming mark, so the terms a round
        // builds are *identical* (same hash-consed ids) to the previous
        // round's wherever the surviving candidate set is unchanged. The
        // candidate terms still go into the head path (body execution, its
        // feasibility pruning, and therefore the end states are exactly
        // those of the monolithic formulation), but each term's path
        // position is recorded so the per-candidate queries below can key
        // on assumption sets of their own:
        //
        // - **narrow** (tried first): the end path *minus every sibling
        //   candidate's term* — only base facts plus the candidate's own
        //   assumption. This set does not mention the rest of the
        //   candidate pool at all, so its assumption-set memo key
        //   ([`Solver::prove_pushed`]) is identical across rounds no
        //   matter which siblings dropped — the round after a drop answers
        //   every self-inductive candidate from the memo.
        // - **full** (the authoritative fallback): the whole end path,
        //   exactly the monolithic obligation. A candidate is dropped only
        //   when this one fails, so the fixed point computed here is the
        //   same as the monolithic formulation's: the narrow set is a
        //   subset of the full one, and entailment is monotone in its
        //   assumptions, so a narrow success can never contradict a full
        //   check.
        let fresh_mark = exec.fresh_mark();
        let mut dropped_any = false;
        for round in 0..=opts.max_rounds {
            // Budget check at the round boundary: once the solver is
            // exhausted every fresh entailment comes back unproved, so
            // continuing would drop every candidate and report a
            // misleading "too weak" failure instead of the budget.
            if let Some(reason) = solver.exhausted() {
                return Err(format!("resource budget exhausted: {reason}"));
            }
            exec.reset_fresh(fresh_mark);
            let mut round_span = shadowdp_obs::span("houdini.round");
            let stats_before = solver.stats();
            let mut failed: BTreeSet<usize> = BTreeSet::new();
            for entry in &entry_states {
                let (head, cand_pos) =
                    loop_head(entry, &assigned, &candidates, guard, false, exec)?;

                // One body iteration; obligations from this exploratory run
                // are discarded (re-collected after stabilization).
                let saved_obligations = exec.obligations.len();
                let ends = exec
                    .exec_cmds(vec![head], body)
                    .map_err(|e| e.to_string())?;
                exec.obligations.truncate(saved_obligations);

                let cand_pos_set: BTreeSet<usize> = cand_pos.iter().copied().collect();
                // The candidate-independent slice of each end path — entry
                // facts, guard, and body terms, but no candidate's own
                // assumption — is pushed once per end state and shared by
                // every candidate's checks below: the solver saturates the
                // base a single time and each query only pushes (and pops)
                // its narrow delta on top.
                for end in &ends {
                    let base: Vec<Term> = end
                        .path
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| !cand_pos_set.contains(k))
                        .map(|(_, t)| *t)
                        .collect();
                    solver.push_assumptions(&base);
                    let r = (|| -> Result<(), String> {
                        for (i, c) in candidates.iter().enumerate() {
                            if failed.contains(&i) {
                                continue;
                            }
                            let mut probe = end.clone();
                            // An evaluation failure here is a semantics or
                            // lowering bug (the same candidate evaluated
                            // fine on the head state), not a weak
                            // candidate: surface it instead of masking it
                            // as a benign drop.
                            let t = exec.eval_bool(c, &mut probe).map_err(|e| {
                                format!("candidate `{}` consecution eval: {e}", pretty_expr(c))
                            })?;
                            let tail = &probe.path[end.path.len()..];
                            // Narrow first: the base plus only this
                            // candidate's own assumption. Same multiset —
                            // and therefore the same memo key — as the
                            // sibling-filtered assumption set described
                            // above, insensitive to which siblings have
                            // dropped.
                            if candidates.len() > 1 {
                                let mut delta = vec![end.path[cand_pos[i]]];
                                delta.extend_from_slice(tail);
                                solver.push_assumptions(&delta);
                                let narrow_ok = solver.entails_pushed(&t);
                                solver.pop_assumptions();
                                if narrow_ok {
                                    continue;
                                }
                            }
                            // Full fallback: every candidate's assumption —
                            // exactly the monolithic obligation, and the
                            // only check that may drop a candidate.
                            let mut delta: Vec<Term> =
                                cand_pos.iter().map(|&k| end.path[k]).collect();
                            delta.extend_from_slice(tail);
                            solver.push_assumptions(&delta);
                            let full_ok = solver.entails_pushed(&t);
                            solver.pop_assumptions();
                            if !full_ok {
                                failed.insert(i);
                            }
                        }
                        Ok(())
                    })();
                    solver.pop_assumptions();
                    r?;
                }
            }
            if opts.profile.is_some() || shadowdp_obs::armed() {
                let stats_after = solver.stats();
                let profile = RoundProfile {
                    round,
                    dropped: failed.len(),
                    queries: stats_after.assumption_queries - stats_before.assumption_queries,
                    hits: stats_after.assumption_hits - stats_before.assumption_hits,
                    after_drop: dropped_any,
                    sat_reuses: stats_after.saturation_reuses - stats_before.saturation_reuses,
                    resats: stats_after.resaturations - stats_before.resaturations,
                };
                if let Some(sink) = &opts.profile {
                    sink.lock()
                        .expect("profile sink not poisoned")
                        .push(profile);
                }
                // The span reuses the same per-round profile the PR 5 sink
                // collects; the label is only materialized when armed.
                round_span.set_label(&format!(
                    "round={} dropped={} queries={} hits={} after_drop={} sat_reuses={} resats={}",
                    profile.round,
                    profile.dropped,
                    profile.queries,
                    profile.hits,
                    profile.after_drop,
                    profile.sat_reuses,
                    profile.resats
                ));
            }
            if failed.is_empty() {
                break;
            }
            // The budget bounds *drop* rounds; the `0..=` above grants the
            // set produced by the last permitted round's drops its own
            // verification pass (the old `0..` loop rejected it unseen).
            if round == opts.max_rounds {
                return Err("Houdini did not stabilize".into());
            }
            dropped_any = true;
            let mut idx = 0;
            candidates.retain(|_| {
                let keep = !failed.contains(&idx);
                idx += 1;
                keep
            });
        }

        // Final pass: collect body obligations under the stable invariant.
        // Replayed from the same mark as the rounds, so the obligations'
        // entailment checks hit the memo for everything the last round
        // already proved.
        if let Some(reason) = solver.exhausted() {
            return Err(format!("resource budget exhausted: {reason}"));
        }
        exec.reset_fresh(fresh_mark);
        for entry in &entry_states {
            let (head, _) = loop_head(entry, &assigned, &candidates, guard, false, exec)?;
            let _ = exec
                .exec_cmds(vec![head], body)
                .map_err(|e| e.to_string())?;
        }

        // Exit states: invariant ∧ ¬guard.
        exec.reset_fresh(fresh_mark);
        let mut exits = Vec::new();
        for entry in &entry_states {
            exits.push(loop_head(entry, &assigned, &candidates, guard, true, exec)?.0);
        }
        // End the replay episode: downstream symbols must never collide
        // with names minted during the discarded round states.
        exec.seal_fresh();

        let pretty: Vec<String> = candidates.iter().map(pretty_expr).collect();
        Ok((exits, pretty.join(" && ")))
    }
}

/// Variables (including hats, `v_eps`, and adjacency ghosts) the loop body
/// can change.
fn assigned_in(body: &[Cmd], exec: &SymExec<'_>) -> BTreeSet<Name> {
    let mut out: BTreeSet<Name> = preorder(body)
        .filter_map(|c| match &c.kind {
            CmdKind::Assign(n, _) | CmdKind::Havoc(n) => Some(n.clone()),
            _ => None,
        })
        .collect();
    // Reading an at-most-one list advances its ghost.
    for list in &exec.adjacency.at_most_one {
        if body_reads_list(body, list) {
            out.insert(AdjacencySpec::ghost_name(list));
        }
    }
    out
}

fn body_reads_list(cmds: &[Cmd], list: &str) -> bool {
    let reads = |e: &Expr| {
        e.any_subexpr(&mut |x| match x {
            Expr::Index(base, _) => matches!(&**base, Expr::Var(n) if n.base == list),
            _ => false,
        })
    };
    preorder(cmds).any(|c| match &c.kind {
        CmdKind::Assign(_, e)
        | CmdKind::Assert(e)
        | CmdKind::Assume(e)
        | CmdKind::Return(e)
        | CmdKind::If(e, ..)
        | CmdKind::While { cond: e, .. } => reads(e),
        _ => false,
    })
}

/// Builds the loop head from `entry`: every assigned variable becomes a
/// fresh symbol (lists become opaque) while everything else keeps its entry
/// value and the entry path is retained (facts about loop-invariant data);
/// then every candidate is assumed, then the guard (its negation for an
/// `exit` state). Returns the state and each candidate term's path
/// position.
fn loop_head(
    entry: &SymState,
    assigned: &BTreeSet<Name>,
    candidates: &[Expr],
    guard: &Expr,
    exit: bool,
    exec: &mut SymExec<'_>,
) -> Result<(SymState, Vec<usize>), String> {
    let mut head = entry.clone();
    for name in assigned {
        let fresh = exec.fresh_symbol(&name.to_string());
        match head.vars.get(name) {
            Some(SymVal::Concrete(_) | SymVal::Opaque) => {
                head.vars.insert(name.clone(), SymVal::Opaque);
            }
            _ => {
                head.vars.insert(name.clone(), SymVal::Scalar(fresh));
            }
        }
    }
    let mut cand_pos = Vec::with_capacity(candidates.len());
    for c in candidates {
        let t = exec
            .eval_bool(c, &mut head)
            .map_err(|e| format!("candidate eval: {e}"))?;
        head.path.push(t);
        cand_pos.push(head.path.len() - 1);
    }
    let g = exec
        .eval_bool(guard, &mut head)
        .map_err(|e| format!("guard eval: {e}"))?;
    head.path.push(if exit { g.not() } else { g });
    Ok((head, cand_pos))
}

/// Builds the candidate invariant pool.
#[allow(clippy::too_many_arguments)]
fn generate_candidates(
    info: &TargetInfo,
    guard: &Expr,
    body: &[Cmd],
    user_invariants: &[Expr],
    entry_states: &[SymState],
    assigned: &BTreeSet<Name>,
    exec: &SymExec<'_>,
    solver: &Solver,
) -> Vec<Expr> {
    let mut out: Vec<Expr> = user_invariants.to_vec();
    let v_eps = Expr::var(V_EPS);

    // v_eps sign and budget.
    out.push(Expr::cmp_op(BinOp::Ge, v_eps.clone(), Expr::int(0)));
    out.push(Expr::cmp_op(
        BinOp::Le,
        v_eps.clone(),
        info.scaled_budget.clone(),
    ));

    // Counters: x := x + k with k a positive constant.
    let counters = find_counters(body);
    for (name, _) in &counters {
        // Lower bound from a constant entry value.
        if let Some(c0) = const_entry(entry_states, name) {
            out.push(Expr::cmp_op(
                BinOp::Ge,
                Expr::var(name.clone()),
                Expr::Num(c0),
            ));
        }
    }

    // Guard-derived upper bounds: for conjuncts `x < B` / `x <= B` where x
    // is assigned in the body, the weakened `x <= B` is a candidate.
    for (lhs, rhs) in guard_upper_bounds(guard) {
        if assigned.contains(&Name::plain(&lhs)) {
            out.push(Expr::cmp_op(BinOp::Le, Expr::var(lhs), rhs));
        }
    }

    // Cost-versus-counter affine bound: v_eps <= V0 + M·counter, with V0
    // the prologue cost and M a solver-certified per-iteration bound.
    let prologue: Expr = info
        .sites
        .iter()
        .filter(|s| s.loop_depth == 0)
        .fold(Expr::int(0), |acc, s| acc.add(s.scaled_increment.clone()));
    let in_loop: Vec<&CostSite> = info.sites.iter().filter(|s| s.loop_depth > 0).collect();
    if !in_loop.is_empty() && !in_loop.iter().any(|s| s.resets) {
        if let Some(m) = per_iteration_bound(&in_loop, exec, solver) {
            for (name, _) in &counters {
                let bound = prologue
                    .clone()
                    .add(Expr::Num(m).mul(Expr::var(name.clone())));
                out.push(Expr::cmp_op(BinOp::Le, v_eps.clone(), bound));
            }
        }
    }

    // Adjacency ghosts and hat scalars.
    let ghosts: Vec<Name> = exec
        .adjacency
        .at_most_one
        .iter()
        .map(|l| AdjacencySpec::ghost_name(l))
        .collect();
    for g in &ghosts {
        let ge = Expr::Var(g.clone());
        out.push(Expr::cmp_op(BinOp::Ge, ge.clone(), Expr::int(0)));
        out.push(Expr::cmp_op(BinOp::Le, ge.clone(), Expr::int(1)));
        for k in [1i128, 2] {
            out.push(Expr::cmp_op(
                BinOp::Le,
                v_eps.clone(),
                Expr::int(k).mul(ge.clone()),
            ));
        }
    }

    let hats: Vec<Name> = assigned.iter().filter(|n| n.is_hat()).cloned().collect();
    for h in &hats {
        let he = Expr::Var(h.clone());
        for k in [1i128, 2] {
            out.push(Expr::cmp_op(BinOp::Le, he.clone(), Expr::int(k)));
            out.push(Expr::cmp_op(BinOp::Ge, he.clone(), Expr::int(-k)));
        }
        for g in &ghosts {
            let ge = Expr::Var(g.clone());
            out.push(Expr::cmp_op(BinOp::Le, he.clone(), ge.clone()));
            out.push(Expr::cmp_op(
                BinOp::Le,
                Expr::int(0).sub(he.clone()),
                ge.clone(),
            ));
            for k in [1i128, 2] {
                // v_eps ± h <= k·g (the SmartSum potential).
                out.push(Expr::cmp_op(
                    BinOp::Le,
                    v_eps.clone().add(he.clone()),
                    Expr::int(k).mul(ge.clone()),
                ));
                out.push(Expr::cmp_op(
                    BinOp::Le,
                    v_eps.clone().sub(he.clone()),
                    Expr::int(k).mul(ge.clone()),
                ));
            }
        }
        // Disjunctive first-iteration candidates: counter == init || h >= 1
        // (Report Noisy Max's ^bq >= 1 after the first iteration).
        for (cname, _) in &counters {
            if let Some(c0) = const_entry(entry_states, cname) {
                let at_init = Expr::cmp_op(BinOp::Eq, Expr::var(cname.clone()), Expr::Num(c0));
                out.push(
                    at_init
                        .clone()
                        .or(Expr::cmp_op(BinOp::Ge, he.clone(), Expr::int(1))),
                );
                out.push(at_init.or(Expr::cmp_op(BinOp::Le, he.clone(), Expr::int(-1))));
            }
        }
    }

    out
}

/// `x := x + k` updates anywhere in the body, with `k` a positive constant.
fn find_counters(body: &[Cmd]) -> Vec<(String, Rat)> {
    let mut out: Vec<(String, Rat)> = Vec::new();
    for c in preorder(body) {
        if let CmdKind::Assign(n, Expr::Binary(BinOp::Add, a, b)) = &c.kind {
            if let (Expr::Var(v), Expr::Num(k)) = (&**a, &**b) {
                if !n.is_hat()
                    && v == n
                    && k.is_positive()
                    && !out.iter().any(|(x, _)| x == &n.base)
                {
                    out.push((n.base.clone(), *k));
                }
            }
        }
    }
    out
}

/// The constant entry value of a variable, when all entry states agree.
fn const_entry(entry_states: &[SymState], name: &str) -> Option<Rat> {
    let mut val: Option<Rat> = None;
    for st in entry_states {
        match st.scalar(&Name::plain(name)) {
            Some(t) => match (t.view(), val) {
                (TermNode::RConst(r), None) => val = Some(r),
                (TermNode::RConst(r), Some(v)) if v == r => {}
                _ => return None,
            },
            _ => return None,
        }
    }
    val
}

/// Upper-bound conjuncts `x < B` / `x <= B` in the guard.
fn guard_upper_bounds(guard: &Expr) -> Vec<(String, Expr)> {
    guard
        .conjuncts()
        .into_iter()
        .filter_map(|c| match c {
            Expr::Binary(BinOp::Lt | BinOp::Le, a, b) => match &**a {
                Expr::Var(n) if !n.is_hat() => Some((n.base.clone(), (**b).clone())),
                _ => None,
            },
            _ => None,
        })
        .collect()
}

/// Smallest constant `B` such that Ψ proves every in-loop increment `<= B`,
/// summed over the sites (each iteration passes each site at most once).
fn per_iteration_bound(sites: &[&CostSite], exec: &SymExec<'_>, solver: &Solver) -> Option<Rat> {
    let mut total = Rat::ZERO;
    for site in sites {
        let mut found = None;
        for b in [0i128, 1, 2, 3, 4, 6, 8] {
            // Prove the bound in a scratch state so materializations don't
            // leak; increments mention only constants, parameters, hat
            // variables and list elements.
            let mut probe_exec = SymExec::new(exec.adjacency.clone(), solver);
            let mut probe = SymState::new();
            seed_probe_state(&site.scaled_increment, &mut probe_exec, &mut probe);
            let goal_expr = Expr::cmp_op(BinOp::Le, site.scaled_increment.clone(), Expr::int(b));
            if let Ok(goal) = probe_exec.eval_bool(&goal_expr, &mut probe) {
                if solver.entails(&probe.path, &goal) {
                    found = Some(Rat::int(b));
                    break;
                }
            }
        }
        total += found?;
    }
    Some(total)
}

/// Binds every free variable of an increment expression in a scratch state
/// (scalars fresh, lists registered) so the bound query can evaluate.
fn seed_probe_state(e: &Expr, exec: &mut SymExec<'_>, st: &mut SymState) {
    e.any_subexpr(&mut |x| {
        match x {
            // Registering a list binds its base and hat names, so the walk
            // then passes over the base variable.
            Expr::Index(base, _) => {
                if let Expr::Var(n) = &**base {
                    if !st.vars.contains_key(&Name::plain(&n.base)) {
                        exec.register_input_list(&n.base, st);
                    }
                }
            }
            Expr::Var(n) if !st.vars.contains_key(n) => {
                let t = exec.fresh_symbol(&n.to_string());
                st.set_scalar(n.clone(), t);
            }
            _ => {}
        }
        false
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{lower_to_target, VerifyMode};
    use shadowdp_syntax::parse_function;
    use shadowdp_typing::check_function;

    fn prove_src(src: &str) -> InductiveOutcome {
        let f = parse_function(src).unwrap();
        let t = check_function(&f).expect("type checks");
        let info = lower_to_target(&t.function, VerifyMode::Scaled).expect("lowers");
        let solver = Solver::new();
        prove(&info, &InductiveOptions::default(), &solver)
    }

    #[test]
    fn laplace_mechanism_proves() {
        let out = prove_src(
            "function AddNoise(eps: num(0,0), x: num(1,1)) returns out: num(0,0)
             precondition eps > 0
             {
                 eta := lap(1 / eps) { select: aligned, align: -1 };
                 out := x + eta;
             }",
        );
        assert!(matches!(out, InductiveOutcome::Proved { .. }), "{out:?}");
    }

    #[test]
    fn overbudget_straight_line_fails() {
        // Two eps-cost samples against a budget of eps.
        let out = prove_src(
            "function TwoSamples(eps: num(0,0), x: num(1,1)) returns out: num(0,0)
             precondition eps > 0
             {
                 e1 := lap(1 / eps) { select: aligned, align: -1 };
                 e2 := lap(1 / eps) { select: aligned, align: -1 };
                 out := x + e1;
             }",
        );
        assert!(matches!(out, InductiveOutcome::Failed { .. }), "{out:?}");
    }

    #[test]
    fn counter_loop_with_cost_proves() {
        // Pay eps/(2N) per iteration for at most N iterations plus eps/2 up
        // front: total <= eps.
        let out = prove_src(
            "function Loop(eps, NN, size: num(0,0), q: list num(*,*))
             returns out: num(0,0)
             precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1 && ~q[k] == ^q[k]
             precondition eps > 0
             precondition NN >= 1
             precondition size >= 0
             {
                 e0 := lap(2 / eps) { select: aligned, align: 1 };
                 count := 0;
                 while (count < NN) {
                     e1 := lap(2 * NN / eps) { select: aligned, align: 1 };
                     count := count + 1;
                 }
                 out := count;
             }",
        );
        assert!(matches!(out, InductiveOutcome::Proved { .. }), "{out:?}");
    }

    const COUNTER_LOOP_WITH_INV: &str = "function Loop(eps, NN, size: num(0,0), q: list num(*,*))
         returns out: num(0,0)
         precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1 && ~q[k] == ^q[k]
         precondition eps > 0
         precondition NN >= 1
         precondition size >= 0
         {
             e0 := lap(2 / eps) { select: aligned, align: 1 };
             count := 0;
             while (count < NN) INV {
                 e1 := lap(2 * NN / eps) { select: aligned, align: 1 };
                 count := count + 1;
             }
             out := count;
         }";

    fn prove_with_rounds(src: &str, max_rounds: usize) -> InductiveOutcome {
        let f = parse_function(src).unwrap();
        let t = check_function(&f).expect("type checks");
        let info = lower_to_target(&t.function, VerifyMode::Scaled).expect("lowers");
        let solver = Solver::new();
        let opts = InductiveOptions {
            max_rounds,
            ..InductiveOptions::default()
        };
        prove(&info, &opts, &solver)
    }

    /// The final-round off-by-one: a candidate set stabilized *by* the
    /// last permitted round's drops gets one more verification pass
    /// instead of an unconditional "did not stabilize".
    #[test]
    fn set_stabilized_by_final_round_drops_still_proves() {
        // `count <= 0` passes initiation (count starts at 0) but fails
        // consecution, so round 0 must drop it; with a budget of one drop
        // round, the old loop rejected the (already stable) remainder
        // unseen.
        let src = COUNTER_LOOP_WITH_INV.replace("INV", "invariant (count <= 0)");
        let out = prove_with_rounds(&src, 1);
        assert!(matches!(out, InductiveOutcome::Proved { .. }), "{out:?}");
        // The doomed candidate must not appear in the surviving invariant.
        if let InductiveOutcome::Proved { invariants } = out {
            assert!(!invariants.join(" ").contains("count <= 0"));
        }
        // A zero budget genuinely cannot stabilize this set: the one
        // permitted pass finds the failing candidate and has no drop
        // round left.
        let out = prove_with_rounds(&src, 0);
        assert!(
            matches!(&out, InductiveOutcome::Failed { reason } if reason.contains("stabilize")),
            "{out:?}"
        );
        // And the plain program (nothing to drop) proves within any budget.
        let plain = COUNTER_LOOP_WITH_INV.replace("INV", "");
        let out = prove_with_rounds(&plain, 0);
        assert!(matches!(out, InductiveOutcome::Proved { .. }), "{out:?}");
    }

    /// Consecution-time candidate evaluation errors are engine/semantics
    /// bugs, not weak candidates: they must surface as a failure naming
    /// the candidate, never be masked as a silent drop (the old
    /// `Err(_) => failed.insert(i)` made real bugs look like benign
    /// Houdini refinement).
    #[test]
    fn poisoned_candidate_eval_error_propagates() {
        // `t` is a scalar at loop entry (so the invariant passes
        // initiation and evaluates fine on the havocked head state) but
        // the body rebinds it to a list, so evaluating the candidate on
        // the post-body state is a type confusion the engine must report.
        let f = parse_function(
            "function F(eps, NN: num(0,0)) returns out: num(0,0)
             precondition eps > 0
             precondition NN >= 1
             {
                 t := 0;
                 count := 0;
                 while (count < NN) invariant (t <= 0) {
                     t := 0 :: nil;
                     count := count + 1;
                 }
                 out := count;
             }",
        )
        .unwrap();
        let info = lower_to_target(&f, VerifyMode::Scaled).expect("lowers");
        let solver = Solver::new();
        let out = prove(&info, &InductiveOptions::default(), &solver);
        match out {
            InductiveOutcome::Failed { reason } => {
                assert!(
                    reason.contains("consecution eval") && reason.contains("t <= 0"),
                    "error must name the poisoned candidate: {reason}"
                );
            }
            other => panic!("expected a propagated eval error, got {other:?}"),
        }
    }

    #[test]
    fn find_counters_detects_increments() {
        let f = parse_function(
            "function F(eps: num(0,0)) returns o: num(0,0) {
                i := 0; c := 0;
                while (i < 10) {
                    if (i > 5) { c := c + 1; } else { skip; }
                    i := i + 1;
                }
                o := c;
             }",
        )
        .unwrap();
        match &f.body[2].kind {
            CmdKind::While { body, .. } => {
                let counters = find_counters(body);
                let names: Vec<&str> = counters.iter().map(|(n, _)| n.as_str()).collect();
                assert!(names.contains(&"i"));
                assert!(names.contains(&"c"));
            }
            _ => panic!("expected while"),
        }
    }

    #[test]
    fn guard_bounds_extracted() {
        let g = shadowdp_syntax::parse_expr("count < NN && i < size").unwrap();
        let bounds = guard_upper_bounds(&g);
        assert_eq!(bounds.len(), 2);
        assert_eq!(bounds[0].0, "count");
        assert_eq!(bounds[1].0, "i");
    }
}
