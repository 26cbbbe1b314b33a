//! Bounded model checking with concrete counterexamples.
//!
//! Loops are unrolled under concrete input-size assumptions; every path's
//! assertions are discharged by the solver. A failed assertion yields a
//! model over the skolem symbols — query values `q[k]`, their adjacent
//! distances `^q[k]`, and the havocked noise `eta#n` — which is exactly the
//! counterexample format the paper's bug-finding discussion (§1, §8) asks
//! for.

use std::fmt;

use shadowdp_solver::Solver;
use shadowdp_syntax::{BinOp, Expr, Name, Ty};

use crate::sym::{AdjacencySpec, SymExec, SymState};
use crate::target::TargetInfo;

/// Bounded-model-checking options.
#[derive(Clone, Debug)]
pub struct BmcOptions {
    /// Concrete length for every input list; a parameter literally named
    /// `size` is pinned to this value.
    pub list_len: usize,
    /// Maximum loop unrollings (defaults to `list_len + 2`).
    pub max_unroll: Option<usize>,
    /// Extra assumptions constraining parameters (e.g. `NN == 1`,
    /// `T == 2`, `MM == 2`) — needed when loop trip counts depend on
    /// parameters other than `size`.
    pub assumptions: Vec<Expr>,
}

impl Default for BmcOptions {
    fn default() -> Self {
        BmcOptions {
            list_len: 3,
            max_unroll: None,
            assumptions: Vec::new(),
        }
    }
}

/// A concrete counterexample.
#[derive(Clone, Debug, PartialEq)]
pub struct Counterexample {
    /// Which assertion failed.
    pub violated: String,
    /// The witnessing assignment (skolem symbol → value), rendered.
    pub witness: Vec<(String, String)>,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "violates {} with ", self.violated)?;
        for (i, (k, v)) in self.witness.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k} = {v}")?;
        }
        Ok(())
    }
}

/// BMC outcome.
#[derive(Clone, Debug)]
pub enum BmcOutcome {
    /// Every assertion holds for all inputs within the bound.
    Verified {
        /// The list-length bound used.
        bound: usize,
    },
    /// A concrete violation was found.
    Refuted(Counterexample),
    /// The engine could not decide (unrolling failure or abstraction).
    Inconclusive {
        /// Why.
        reason: String,
    },
}

/// Runs bounded verification of the target program.
pub fn check(info: &TargetInfo, opts: &BmcOptions, solver: &Solver) -> BmcOutcome {
    let f = &info.function;
    let adjacency = AdjacencySpec::from_preconditions(&f.preconditions);
    let mut exec = SymExec::new(adjacency, solver);
    exec.int_vars = SymExec::infer_int_vars(f);
    exec.max_unroll = Some(opts.max_unroll.unwrap_or(opts.list_len + 2));

    let mut st = SymState::new();
    // Parameters: lists materialize at the concrete bound; scalars are
    // symbolic, with `size` pinned to the bound.
    for p in &f.params {
        match &p.ty {
            Ty::List(_) => {
                if let Err(e) = exec.materialize_bounded_list(&p.name, opts.list_len, &mut st) {
                    return BmcOutcome::Inconclusive {
                        reason: e.to_string(),
                    };
                }
            }
            _ => {
                let t = exec.fresh_symbol(&p.name);
                st.set_scalar(Name::plain(&p.name), t);
            }
        }
    }
    if st.scalar(&Name::plain("size")).is_some() {
        let pin = Expr::cmp_op(
            BinOp::Eq,
            Expr::var("size"),
            Expr::int(opts.list_len as i128),
        );
        match exec.eval_bool(&pin, &mut st) {
            Ok(t) => st.path.push(t),
            Err(e) => {
                return BmcOutcome::Inconclusive {
                    reason: e.to_string(),
                }
            }
        }
    }
    for clause in exec
        .adjacency
        .plain
        .clone()
        .iter()
        .chain(opts.assumptions.iter())
    {
        match exec.eval_bool(clause, &mut st) {
            Ok(t) => st.path.push(t),
            Err(e) => {
                return BmcOutcome::Inconclusive {
                    reason: format!("assumption: {e}"),
                }
            }
        }
    }

    let states = match exec.exec_cmds(vec![st], &f.body) {
        Ok(s) => s,
        Err(e) => {
            return BmcOutcome::Inconclusive {
                reason: e.to_string(),
            }
        }
    };
    let _ = states;

    let mut saw_spurious = false;
    for ob in &exec.obligations {
        // An exhausted solver answers every fresh obligation with a
        // possibly-spurious refutation; bail out with the real reason
        // instead of burning through the remaining obligations.
        if let Some(reason) = solver.exhausted() {
            return BmcOutcome::Inconclusive {
                reason: format!("resource budget exhausted: {reason}"),
            };
        }
        match solver.prove(&ob.path, &ob.goal) {
            shadowdp_solver::ProveResult::Proved => {}
            shadowdp_solver::ProveResult::Refuted(model) => {
                if model.possibly_spurious {
                    saw_spurious = true;
                    continue;
                }
                let witness = model
                    .reals()
                    .iter()
                    .filter(|(k, _)| !k.starts_with('$'))
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect();
                return BmcOutcome::Refuted(Counterexample {
                    violated: ob.description.clone(),
                    witness,
                });
            }
        }
    }
    if saw_spurious {
        BmcOutcome::Inconclusive {
            reason: "non-linear abstraction blocked some obligations".into(),
        }
    } else {
        BmcOutcome::Verified {
            bound: opts.list_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{lower_to_target, VerifyMode};
    use shadowdp_syntax::parse_function;
    use shadowdp_typing::check_function;

    fn bmc_src(src: &str, opts: &BmcOptions) -> BmcOutcome {
        let f = parse_function(src).unwrap();
        let t = check_function(&f).expect("type checks");
        let info = lower_to_target(&t.function, VerifyMode::Scaled).expect("lowers");
        let solver = Solver::new();
        check(&info, opts, &solver)
    }

    #[test]
    fn laplace_mechanism_bounded_ok() {
        let out = bmc_src(
            "function AddNoise(eps: num(0,0), x: num(1,1)) returns out: num(0,0)
             precondition eps > 0
             {
                 eta := lap(1 / eps) { select: aligned, align: -1 };
                 out := x + eta;
             }",
            &BmcOptions::default(),
        );
        assert!(matches!(out, BmcOutcome::Verified { .. }), "{out:?}");
    }

    #[test]
    fn overbudget_is_refuted_with_witness() {
        let out = bmc_src(
            "function TwoSamples(eps: num(0,0), x: num(1,1)) returns out: num(0,0)
             precondition eps > 0
             {
                 e1 := lap(1 / eps) { select: aligned, align: -1 };
                 e2 := lap(1 / eps) { select: aligned, align: -1 };
                 out := x + e1;
             }",
            &BmcOptions::default(),
        );
        match out {
            BmcOutcome::Refuted(cex) => {
                assert!(cex.violated.contains("v_eps"), "{cex}");
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn loop_over_query_list_bounded_ok() {
        let out = bmc_src(
            "function Sum(eps, size: num(0,0), q: list num(*,*))
             returns out: num(0,0)
             precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1 && ~q[k] == ^q[k]
             precondition atmostone q
             precondition eps > 0
             precondition size >= 0
             {
                 sum := 0; i := 0;
                 while (i < size) {
                     sum := sum + q[i];
                     i := i + 1;
                 }
                 eta := lap(1 / eps) { select: aligned, align: 0 - ^sum };
                 out := sum + eta;
             }",
            &BmcOptions {
                list_len: 3,
                ..BmcOptions::default()
            },
        );
        assert!(matches!(out, BmcOutcome::Verified { .. }), "{out:?}");
    }

    #[test]
    fn partial_sum_without_atmostone_is_refuted() {
        // With every query allowed to differ, the sum's distance reaches
        // `size`, blowing the eps budget — BMC finds the witness.
        let out = bmc_src(
            "function Sum(eps, size: num(0,0), q: list num(*,*))
             returns out: num(0,0)
             precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1 && ~q[k] == ^q[k]
             precondition eps > 0
             precondition size >= 0
             {
                 sum := 0; i := 0;
                 while (i < size) {
                     sum := sum + q[i];
                     i := i + 1;
                 }
                 eta := lap(1 / eps) { select: aligned, align: 0 - ^sum };
                 out := sum + eta;
             }",
            &BmcOptions {
                list_len: 3,
                ..BmcOptions::default()
            },
        );
        match out {
            BmcOutcome::Refuted(cex) => assert!(cex.violated.contains("v_eps")),
            other => panic!("expected refutation, got {other:?}"),
        }
    }
}
