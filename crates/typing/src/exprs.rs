//! Expression typing (paper Figure 4, top).
//!
//! The typer infers the aligned/shadow *distance expressions* of numeric
//! expressions and discharges the (T-ODot) side conditions — the boolean
//! value of a comparison must be identical in the aligned and shadow
//! executions — with the solver under the invariant Ψ.

use shadowdp_solver::{Solver, Term};
use shadowdp_syntax::{BinOp, Expr, Name, UnOp};

use crate::env::{Dist, TypeEnv, VarTy};
use crate::lower::{lower_bool, LowerCtx};
use crate::psi::Psi;

/// The inferred type of an expression.
#[derive(Clone, Debug, PartialEq)]
pub enum ETy {
    /// Numeric with aligned and shadow distance expressions.
    Num {
        /// Aligned distance.
        al: Expr,
        /// Shadow distance.
        sh: Expr,
    },
    /// Boolean (distances ⟨0,0⟩ by (T-ODot)).
    Bool,
    /// List of numbers with element distances.
    NumList {
        /// Aligned element distance.
        al: Dist,
        /// Shadow element distance.
        sh: Dist,
    },
    /// List of booleans.
    BoolList,
    /// The empty list `nil` (element type unconstrained).
    NilList,
}

impl ETy {
    /// The ⟨0,0⟩ numeric type.
    pub fn num00() -> ETy {
        ETy::Num {
            al: Expr::int(0),
            sh: Expr::int(0),
        }
    }
}

/// Expression typing context: the (already branch-simplified) environment,
/// the invariant Ψ, and the solver.
pub struct ExprTyper<'a> {
    /// Typing environment at this program point.
    pub env: &'a TypeEnv,
    /// The global invariant.
    pub psi: &'a Psi,
    /// Solver for side conditions.
    pub solver: &'a Solver,
}

impl<'a> ExprTyper<'a> {
    /// Builds the lowering context (boolean variables) from the
    /// environment.
    pub(crate) fn lower_ctx(&self) -> LowerCtx {
        let mut ctx = LowerCtx::new();
        for (name, ty) in self.env.iter() {
            if matches!(ty, VarTy::Bool) {
                ctx.bool_vars.insert(name);
            }
        }
        ctx
    }

    /// Proves `Ψ ⊢ goal` where `goal` is a boolean ShadowDP expression;
    /// `mentioned` lists expressions whose index terms drive Ψ
    /// instantiation (the goal itself is always included).
    pub fn prove(&self, goal: &Expr, mentioned: &[&Expr]) -> Result<bool, String> {
        let ctx = self.lower_ctx();
        let mut query: Vec<&Expr> = vec![goal];
        query.extend_from_slice(mentioned);
        let hyps = self
            .psi
            .hypotheses_for(&query, &ctx)
            .map_err(|e| e.to_string())?;
        let goal_t: Term = lower_bool(goal, &ctx).map_err(|e| e.to_string())?;
        Ok(self.solver.entails(&hyps, &goal_t))
    }

    /// Whether a distance expression is (provably) zero.
    pub fn dist_is_zero(&self, d: &Expr) -> Result<bool, String> {
        if d.is_zero_lit() {
            return Ok(true);
        }
        if d.vars().is_empty() {
            // Ground non-zero constant.
            if let Expr::Num(r) = d {
                return Ok(r.is_zero());
            }
        }
        self.prove(&Expr::cmp_op(BinOp::Eq, d.clone(), Expr::int(0)), &[])
    }

    /// Whether two distance expressions are (provably) equal.
    pub fn dists_equal(&self, a: &Expr, b: &Expr) -> Result<bool, String> {
        if a == b {
            return Ok(true);
        }
        self.prove(&Expr::cmp_op(BinOp::Eq, a.clone(), b.clone()), &[])
    }

    /// Infers the type of `e` (paper Figure 4, expression rules).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated rule.
    pub fn type_expr(&self, e: &Expr) -> Result<ETy, String> {
        match e {
            Expr::Num(_) => Ok(ETy::num00()),
            Expr::Bool(_) => Ok(ETy::Bool),
            Expr::Nil => Ok(ETy::NilList),
            Expr::Var(n) => self.type_var(n),
            Expr::Unary(op, inner) => self.type_unary(*op, inner),
            Expr::Binary(op, a, b) => self.type_binary(*op, a, b, e),
            Expr::Ternary(c, t, f) => {
                let ct = self.type_expr(c)?;
                if ct != ETy::Bool {
                    return Err("ternary guard must be boolean".into());
                }
                let tt = self.type_expr(t)?;
                let ft = self.type_expr(f)?;
                self.join_branches(tt, ft)
            }
            Expr::Cons(head, tail) => {
                let ht = self.type_expr(head)?;
                let tt = self.type_expr(tail)?;
                self.type_cons(ht, tt)
            }
            Expr::Index(base, idx) => {
                let it = self.type_expr(idx)?;
                match it {
                    ETy::Num { al, sh } => {
                        if !(self.dist_is_zero(&al)? && self.dist_is_zero(&sh)?) {
                            return Err("list index must have distance ⟨0,0⟩ (rule T-Index)".into());
                        }
                    }
                    _ => return Err("list index must be numeric".into()),
                }
                let Expr::Var(n) = &**base else {
                    return Err("only variables can be indexed".into());
                };
                if n.is_hat() {
                    // Hat lists are distance trackers; their elements are
                    // plain numbers at distance ⟨0,0⟩.
                    return Ok(ETy::num00());
                }
                match self.env.get(&n.base) {
                    Some(VarTy::NumList { al, sh }) => Ok(ETy::Num {
                        al: elem_dist_expr(al, n, idx, true),
                        sh: elem_dist_expr(sh, n, idx, false),
                    }),
                    Some(VarTy::BoolList) => Ok(ETy::Bool),
                    Some(_) => Err(format!("`{}` is not a list", n.base)),
                    None => Err(format!("unbound variable `{}`", n.base)),
                }
            }
        }
    }

    fn type_var(&self, n: &Name) -> Result<ETy, String> {
        if n.is_hat() {
            // Distance-tracking variables have type num⟨0,0⟩ (the Σ-type
            // desugaring of the paper hides them behind ⟨0,0⟩ components).
            return Ok(ETy::num00());
        }
        match self.env.get(&n.base) {
            Some(VarTy::Num { al, sh }) => Ok(ETy::Num {
                al: al.expr_for(n, true),
                sh: sh.expr_for(n, false),
            }),
            Some(VarTy::Bool) => Ok(ETy::Bool),
            Some(VarTy::NumList { al, sh }) => Ok(ETy::NumList {
                al: al.clone(),
                sh: sh.clone(),
            }),
            Some(VarTy::BoolList) => Ok(ETy::BoolList),
            None => Err(format!("unbound variable `{}`", n.base)),
        }
    }

    fn type_unary(&self, op: UnOp, inner: &Expr) -> Result<ETy, String> {
        let it = self.type_expr(inner)?;
        match op {
            UnOp::Neg => match it {
                ETy::Num { al, sh } => Ok(ETy::Num {
                    al: Expr::int(0).sub(al),
                    sh: Expr::int(0).sub(sh),
                }),
                _ => Err("negation needs a numeric operand".into()),
            },
            UnOp::Not => match it {
                ETy::Bool => Ok(ETy::Bool),
                _ => Err("`!` needs a boolean operand".into()),
            },
            // abs/sgn are non-linear: conservative ⟨0,0⟩ rule like (T-OTimes).
            UnOp::Abs | UnOp::Sgn => match it {
                ETy::Num { al, sh } => {
                    if self.dist_is_zero(&al)? && self.dist_is_zero(&sh)? {
                        Ok(ETy::num00())
                    } else {
                        Err("abs/sgn operands must have distance ⟨0,0⟩".into())
                    }
                }
                _ => Err("abs/sgn needs a numeric operand".into()),
            },
        }
    }

    fn type_binary(&self, op: BinOp, a: &Expr, b: &Expr, whole: &Expr) -> Result<ETy, String> {
        if op.is_boolean() {
            let at = self.type_expr(a)?;
            let bt = self.type_expr(b)?;
            if at == ETy::Bool && bt == ETy::Bool {
                return Ok(ETy::Bool);
            }
            return Err(format!("`{}` needs boolean operands", op.symbol()));
        }
        let at = self.type_expr(a)?;
        let bt = self.type_expr(b)?;
        let (ETy::Num { al: n1, sh: n2 }, ETy::Num { al: n3, sh: n4 }) = (at, bt) else {
            return Err(format!("`{}` needs numeric operands", op.symbol()));
        };
        if op.is_linear_arith() {
            // (T-OPlus)
            let (al, sh) = match op {
                BinOp::Add => (n1.add(n3), n2.add(n4)),
                BinOp::Sub => (n1.sub(n3), n2.sub(n4)),
                _ => unreachable!(),
            };
            return Ok(ETy::Num { al, sh });
        }
        if op.is_nonlinear_arith() {
            // (T-OTimes): both operands at ⟨0,0⟩.
            for d in [&n1, &n2, &n3, &n4] {
                if !self.dist_is_zero(d)? {
                    return Err(format!(
                        "`{}` requires operands at distance ⟨0,0⟩ (rule T-OTimes); \
                         offending distance: {}",
                        op.symbol(),
                        shadowdp_syntax::pretty_expr(d)
                    ));
                }
            }
            return Ok(ETy::num00());
        }
        // (T-ODot): the comparison's value must agree in the aligned and
        // shadow executions.
        debug_assert!(op.is_comparison());
        let zero = [&n1, &n2, &n3, &n4].iter().all(|d| d.is_zero_lit());
        if zero {
            return Ok(ETy::Bool);
        }
        let base = Expr::cmp_op(op, a.clone(), b.clone());
        let aligned = Expr::cmp_op(op, a.clone().add(n1), b.clone().add(n3));
        let shadow = Expr::cmp_op(op, a.clone().add(n2), b.clone().add(n4));
        let goal = iff(base.clone(), aligned).and(iff(base, shadow));
        if self.prove(&goal, &[whole])? {
            Ok(ETy::Bool)
        } else {
            Err(format!(
                "comparison `{}` is not stable across aligned/shadow executions \
                 (rule T-ODot)",
                shadowdp_syntax::pretty_expr(whole)
            ))
        }
    }

    fn join_branches(&self, t: ETy, f: ETy) -> Result<ETy, String> {
        match (t, f) {
            (ETy::Num { al: a1, sh: s1 }, ETy::Num { al: a2, sh: s2 }) => {
                if self.dists_equal(&a1, &a2)? && self.dists_equal(&s1, &s2)? {
                    Ok(ETy::Num { al: a1, sh: s1 })
                } else {
                    Err("ternary branches must have equal distances (rule T-Ternary)".into())
                }
            }
            (ETy::Bool, ETy::Bool) => Ok(ETy::Bool),
            (ETy::BoolList, ETy::BoolList) => Ok(ETy::BoolList),
            (ETy::NilList, other) | (other, ETy::NilList) => Ok(other),
            (ETy::NumList { al: a1, sh: s1 }, ETy::NumList { al: a2, sh: s2 }) => {
                if a1 == a2 && s1 == s2 {
                    Ok(ETy::NumList { al: a1, sh: s1 })
                } else {
                    Err("ternary list branches must have equal element distances".into())
                }
            }
            _ => Err("ternary branches have different base types".into()),
        }
    }

    fn type_cons(&self, head: ETy, tail: ETy) -> Result<ETy, String> {
        match (head, tail) {
            (ETy::Bool, ETy::BoolList) => Ok(ETy::BoolList),
            (ETy::Bool, ETy::NilList) => Ok(ETy::BoolList),
            (ETy::Num { al, sh }, ETy::NilList) => {
                // Consing onto nil fixes the element distances; normalize
                // provably-zero distances so the type stays loop-stable.
                let aln = if self.dist_is_zero(&al)? {
                    Dist::zero()
                } else {
                    Dist::D(al)
                };
                let shn = if self.dist_is_zero(&sh)? {
                    Dist::zero()
                } else {
                    Dist::D(sh)
                };
                Ok(ETy::NumList { al: aln, sh: shn })
            }
            (ETy::Num { al, sh }, ETy::NumList { al: eal, sh: esh }) => {
                // (T-Cons): the element must match the list's element type.
                match &eal {
                    Dist::D(d) => {
                        if !self.dists_equal(&al, d)? {
                            return Err(format!(
                                "cons element has aligned distance {} but the list \
                                 carries {} (rule T-Cons)",
                                shadowdp_syntax::pretty_expr(&al),
                                shadowdp_syntax::pretty_expr(d)
                            ));
                        }
                    }
                    Dist::Star => {
                        return Err("cons onto a list with dynamically tracked element \
                             distances is not supported"
                            .into())
                    }
                    Dist::Any => {}
                }
                match &esh {
                    Dist::D(d) => {
                        if !self.dists_equal(&sh, d)? {
                            return Err(format!(
                                "cons element has shadow distance {} but the list \
                                 carries {} (rule T-Cons)",
                                shadowdp_syntax::pretty_expr(&sh),
                                shadowdp_syntax::pretty_expr(d)
                            ));
                        }
                    }
                    Dist::Star => {
                        return Err("cons onto a list with dynamically tracked element \
                             distances is not supported"
                            .into())
                    }
                    Dist::Any => {}
                }
                Ok(ETy::NumList { al: eal, sh: esh })
            }
            (h, t) => Err(format!("ill-typed cons of {h:?} onto {t:?}")),
        }
    }
}

/// The element distance expression for `list[idx]`.
fn elem_dist_expr(d: &Dist, list: &Name, idx: &Expr, aligned: bool) -> Expr {
    match d {
        Dist::D(e) => e.clone(),
        Dist::Star => Expr::Index(
            Box::new(Expr::Var(if aligned {
                list.aligned_hat()
            } else {
                list.shadow_hat()
            })),
            Box::new(idx.clone()),
        ),
        // `Any` appears only in output lists, whose shadow distances are
        // never consulted; zero keeps downstream algebra total.
        Dist::Any => Expr::int(0),
    }
}

fn iff(a: Expr, b: Expr) -> Expr {
    // a <=> b over ShadowDP booleans: (a && b) || (!a && !b)
    a.clone().and(b.clone()).or(a.not().and(b.not()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowdp_syntax::{parse_expr, parse_function, pretty_expr};

    fn setup() -> (TypeEnv, Psi) {
        let f = parse_function(
            "function NoisyMax(eps, size: num(0,0), q: list num(*,*))
             returns max: num(0,*)
             precondition forall i :: -1 <= ^q[i] && ^q[i] <= 1 && ~q[i] == ^q[i]
             { max := 0; }",
        )
        .unwrap();
        let psi = Psi::from_function(&f);
        let mut env = TypeEnv::new();
        env.set("eps", VarTy::num00());
        env.set("size", VarTy::num00());
        env.set("i", VarTy::num00());
        env.set(
            "q",
            VarTy::NumList {
                al: Dist::Star,
                sh: Dist::Star,
            },
        );
        env.set(
            "eta",
            VarTy::Num {
                al: Dist::D(Expr::int(2)),
                sh: Dist::zero(),
            },
        );
        env.set(
            "bq",
            VarTy::Num {
                al: Dist::Star,
                sh: Dist::Star,
            },
        );
        env.set("flag", VarTy::Bool);
        (env, psi)
    }

    fn typer<'a>(env: &'a TypeEnv, psi: &'a Psi, solver: &'a Solver) -> ExprTyper<'a> {
        ExprTyper { env, psi, solver }
    }

    #[test]
    fn literals_and_vars() {
        let (env, psi) = setup();
        let solver = Solver::new();
        let t = typer(&env, &psi, &solver);
        assert_eq!(
            t.type_expr(&parse_expr("1").unwrap()).unwrap(),
            ETy::num00()
        );
        assert_eq!(
            t.type_expr(&parse_expr("true").unwrap()).unwrap(),
            ETy::Bool
        );
        // eta: distances (2, 0)
        match t.type_expr(&parse_expr("eta").unwrap()).unwrap() {
            ETy::Num { al, sh } => {
                assert_eq!(al, Expr::int(2));
                assert_eq!(sh, Expr::int(0));
            }
            other => panic!("{other:?}"),
        }
        // bq: star distances desugar to hat vars
        match t.type_expr(&parse_expr("bq").unwrap()).unwrap() {
            ETy::Num { al, sh } => {
                assert_eq!(pretty_expr(&al), "^bq");
                assert_eq!(pretty_expr(&sh), "~bq");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn indexing_star_list() {
        let (env, psi) = setup();
        let solver = Solver::new();
        let t = typer(&env, &psi, &solver);
        match t.type_expr(&parse_expr("q[i]").unwrap()).unwrap() {
            ETy::Num { al, sh } => {
                assert_eq!(pretty_expr(&al), "^q[i]");
                assert_eq!(pretty_expr(&sh), "~q[i]");
            }
            other => panic!("{other:?}"),
        }
        // q[i] + eta: (T-OPlus)
        match t.type_expr(&parse_expr("q[i] + eta").unwrap()).unwrap() {
            ETy::Num { al, sh } => {
                assert_eq!(pretty_expr(&al), "^q[i] + 2");
                assert_eq!(pretty_expr(&sh), "~q[i]");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn index_requires_public_index() {
        let (env, psi) = setup();
        let solver = Solver::new();
        let t = typer(&env, &psi, &solver);
        // q[eta] — eta has nonzero aligned distance
        assert!(t.type_expr(&parse_expr("q[eta]").unwrap()).is_err());
    }

    #[test]
    fn otimes_requires_zero_distances() {
        let (env, psi) = setup();
        let solver = Solver::new();
        let t = typer(&env, &psi, &solver);
        assert!(t.type_expr(&parse_expr("i * size").unwrap()).is_ok());
        assert!(t.type_expr(&parse_expr("eta * 2").unwrap()).is_err());
        assert!(t.type_expr(&parse_expr("q[i] / 2").unwrap()).is_err());
        assert!(t.type_expr(&parse_expr("(i + 1) % size").unwrap()).is_ok());
    }

    #[test]
    fn todot_accepts_stable_comparisons() {
        let (env, psi) = setup();
        let solver = Solver::new();
        let t = typer(&env, &psi, &solver);
        // i < size: all distances zero, trivially stable
        assert_eq!(
            t.type_expr(&parse_expr("i < size").unwrap()).unwrap(),
            ETy::Bool
        );
        // eta > eta is stable (same shift both sides)... distances (2,0) on
        // both sides: (eta+2 > eta+2) <=> (eta > eta) ✓
        assert_eq!(
            t.type_expr(&parse_expr("eta > eta").unwrap()).unwrap(),
            ETy::Bool
        );
    }

    #[test]
    fn todot_rejects_unstable_comparisons() {
        let (env, psi) = setup();
        let solver = Solver::new();
        let t = typer(&env, &psi, &solver);
        // eta > i: lhs shifts by 2, rhs by 0 — not stable
        assert!(t.type_expr(&parse_expr("eta > i").unwrap()).is_err());
        // q[i] > bq: shifts by ^q[i] vs ^bq — unknown, not provable
        assert!(t.type_expr(&parse_expr("q[i] > bq").unwrap()).is_err());
    }

    #[test]
    fn cons_and_lists() {
        let (mut env, psi) = setup();
        env.set("out", VarTy::BoolList);
        env.set(
            "nout",
            VarTy::NumList {
                al: Dist::zero(),
                sh: Dist::Any,
            },
        );
        let solver = Solver::new();
        let t = typer(&env, &psi, &solver);
        assert_eq!(
            t.type_expr(&parse_expr("true :: out").unwrap()).unwrap(),
            ETy::BoolList
        );
        // element with provably-zero aligned distance: q[i] - q[i]
        assert!(t
            .type_expr(&parse_expr("(q[i] - q[i]) :: nout").unwrap())
            .is_ok());
        // element with nonzero aligned distance rejected
        assert!(t.type_expr(&parse_expr("q[i] :: nout").unwrap()).is_err());
        // nil takes any element type
        assert_eq!(
            t.type_expr(&parse_expr("true :: nil").unwrap()).unwrap(),
            ETy::BoolList
        );
    }

    #[test]
    fn ternary_needs_equal_distances() {
        let (env, psi) = setup();
        let solver = Solver::new();
        let t = typer(&env, &psi, &solver);
        assert!(t.type_expr(&parse_expr("flag ? i : size").unwrap()).is_ok());
        assert!(t.type_expr(&parse_expr("flag ? eta : i").unwrap()).is_err());
    }

    #[test]
    fn provable_zero_distance_via_psi() {
        // ^q[i] - ^q[i] is syntactic zero only after algebra; the solver
        // proves it.
        let (env, psi) = setup();
        let solver = Solver::new();
        let t = typer(&env, &psi, &solver);
        let d = parse_expr("^q[i] - ^q[i]").unwrap();
        assert!(t.dist_is_zero(&d).unwrap());
        // 1 - ^q[i] is not zero in general
        let d = parse_expr("1 - ^q[i]").unwrap();
        assert!(!t.dist_is_zero(&d).unwrap());
    }
}
