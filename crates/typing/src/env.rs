//! Typing environments Γ and the distance lattice.
//!
//! Γ is keyed by interned [`Symbol`]s: every lookup and insertion compares
//! `u32` ids, and iterating hands out `Copy` keys — no string hashing or
//! cloning on the type-checking path. Symbols are interned process-wide
//! (unlike solver terms, which live in per-thread arena shards), so
//! environments and distances are thread-agnostic; only lowered solver
//! terms pin a verification to its worker thread.

use std::collections::BTreeMap;
use std::fmt;

use shadowdp_solver::Symbol;
use shadowdp_syntax::{Distance, Expr, Name, Ty};

/// A distance in the typing environment: statically tracked (`D`) or
/// dynamically tracked (`Star`, value lives in the hat variable).
///
/// This mirrors [`shadowdp_syntax::Distance`] minus the `Any` marker, which
/// is only legal in `returns` declarations.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Dist {
    /// Statically tracked distance expression.
    D(Expr),
    /// Dynamically tracked (`∗`).
    Star,
    /// Irrelevant (the paper's `−` in output declarations): never
    /// consulted, compatible with anything on the shadow side of outputs.
    Any,
}

impl Dist {
    /// The constant-zero distance.
    pub fn zero() -> Dist {
        Dist::D(Expr::int(0))
    }

    /// Whether this is the literal zero distance.
    pub fn is_zero(&self) -> bool {
        matches!(self, Dist::D(e) if e.is_zero_lit())
    }

    /// The paper's two-level join: `d ⊔ d = d`, anything else is `∗`
    /// (`Any` joins with anything to `Any`-preserving behaviour on the
    /// output side).
    pub fn join(&self, other: &Dist) -> Dist {
        match (self, other) {
            (Dist::Any, Dist::Any) => Dist::Any,
            _ if self == other => self.clone(),
            _ => Dist::Star,
        }
    }

    /// The distance *expression* for variable `x`: the tracked expression,
    /// or the hat variable when dynamic (rule T-Var's desugaring). `Any`
    /// renders as zero — it belongs to outputs whose shadow distance is
    /// never consulted.
    pub fn expr_for(&self, x: &Name, aligned: bool) -> Expr {
        match self {
            Dist::D(e) => e.clone(),
            Dist::Any => Expr::int(0),
            Dist::Star => Expr::Var(if aligned {
                x.aligned_hat()
            } else {
                x.shadow_hat()
            }),
        }
    }

    /// Rewrites ternaries guarded (syntactically) by `cond` to the branch
    /// selected by `polarity` — the paper's branch-condition simplification.
    pub fn simplify_under(&self, cond: &Expr, polarity: bool) -> Dist {
        match self {
            Dist::Star => Dist::Star,
            Dist::Any => Dist::Any,
            Dist::D(e) => Dist::D(simplify_expr_under(e, cond, polarity)),
        }
    }
}

impl fmt::Display for Dist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dist::Star => write!(f, "*"),
            Dist::Any => write!(f, "-"),
            Dist::D(e) => write!(f, "{}", shadowdp_syntax::pretty_expr(e)),
        }
    }
}

/// Rewrites `cond ? a : b` subterms to `a` (polarity true) or `b` under the
/// syntactic assumption that `cond` holds / fails.
pub fn simplify_expr_under(e: &Expr, cond: &Expr, polarity: bool) -> Expr {
    if let Expr::Ternary(g, a, b) = e {
        // A guard that is `cond` or its negation decides the ternary.
        let g_holds = if **g == *cond {
            Some(polarity)
        } else if **g == cond.clone().not() {
            Some(!polarity)
        } else {
            None
        };
        if let Some(g_holds) = g_holds {
            return simplify_expr_under(if g_holds { a } else { b }, cond, polarity);
        }
    }
    match e.map_children(|x| simplify_expr_under(x, cond, polarity)) {
        Expr::Ternary(g, a, b) => Expr::ite(*g, *a, *b),
        other => other,
    }
}

/// The type of one variable in Γ.
#[derive(Clone, Debug, PartialEq)]
pub enum VarTy {
    /// A number with aligned and shadow distances.
    Num {
        /// Aligned distance.
        al: Dist,
        /// Shadow distance.
        sh: Dist,
    },
    /// A boolean (distances are always ⟨0,0⟩).
    Bool,
    /// A list of numbers with *element-wise* distances; `Star` element
    /// distances desugar to the hat lists `^q` / `~q`.
    NumList {
        /// Aligned element distance.
        al: Dist,
        /// Shadow element distance.
        sh: Dist,
    },
    /// A list of booleans.
    BoolList,
}

impl VarTy {
    /// A number at distance ⟨0,0⟩.
    pub fn num00() -> VarTy {
        VarTy::Num {
            al: Dist::zero(),
            sh: Dist::zero(),
        }
    }

    /// Join per the two-level lattice, pointwise on distances.
    ///
    /// Returns `None` when base types clash (a program that assigns a bool
    /// then a list to the same variable).
    pub fn join(&self, other: &VarTy) -> Option<VarTy> {
        match (self, other) {
            (VarTy::Num { al: a1, sh: s1 }, VarTy::Num { al: a2, sh: s2 }) => Some(VarTy::Num {
                al: a1.join(a2),
                sh: s1.join(s2),
            }),
            (VarTy::Bool, VarTy::Bool) => Some(VarTy::Bool),
            (VarTy::NumList { al: a1, sh: s1 }, VarTy::NumList { al: a2, sh: s2 }) => {
                Some(VarTy::NumList {
                    al: a1.join(a2),
                    sh: s1.join(s2),
                })
            }
            (VarTy::BoolList, VarTy::BoolList) => Some(VarTy::BoolList),
            _ => None,
        }
    }

    /// Converts a declared syntax type into a `VarTy`.
    ///
    /// `Distance::Any` (legal only in return declarations) is mapped to
    /// `Star` — it is never consulted.
    pub fn from_ty(ty: &Ty) -> Option<VarTy> {
        match ty {
            Ty::Num(d1, d2) => Some(VarTy::Num {
                al: dist_from_decl(d1),
                sh: dist_from_decl(d2),
            }),
            Ty::Bool => Some(VarTy::Bool),
            Ty::List(inner) => match &**inner {
                Ty::Num(d1, d2) => Some(VarTy::NumList {
                    al: dist_from_decl(d1),
                    sh: dist_from_decl(d2),
                }),
                Ty::Bool => Some(VarTy::BoolList),
                // Nested lists do not occur in the paper's language use;
                // rejecting keeps the distance story simple.
                Ty::List(_) => None,
            },
        }
    }
}

fn dist_from_decl(d: &Distance) -> Dist {
    match d {
        Distance::D(e) => Dist::D(e.clone()),
        Distance::Star => Dist::Star,
        Distance::Any => Dist::Any,
    }
}

/// The flow-sensitive typing environment Γ, keyed by interned symbols.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TypeEnv {
    vars: BTreeMap<Symbol, VarTy>,
}

impl TypeEnv {
    /// An empty environment.
    pub fn new() -> TypeEnv {
        TypeEnv::default()
    }

    /// Looks up a variable.
    pub fn get(&self, name: impl Into<Symbol>) -> Option<&VarTy> {
        self.vars.get(&name.into())
    }

    /// Binds (or rebinds) a variable.
    pub fn set(&mut self, name: impl Into<Symbol>, ty: VarTy) {
        self.vars.insert(name.into(), ty);
    }

    /// Iterates bindings in symbol order (deterministic per process).
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &VarTy)> {
        self.vars.iter().map(|(k, v)| (*k, v))
    }

    /// Mutable iteration, for well-formedness promotions.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Symbol, &mut VarTy)> {
        self.vars.iter_mut().map(|(k, v)| (*k, v))
    }

    /// Pointwise join `Γ1 ⊔ Γ2`. Variables bound on only one side keep
    /// their binding (they are dead on the other path).
    ///
    /// Returns `Err(name)` if a variable's base types clash.
    pub fn join(&self, other: &TypeEnv) -> Result<TypeEnv, String> {
        let mut out = self.clone();
        for (name, ty2) in &other.vars {
            match out.vars.get(name) {
                None => {
                    out.vars.insert(*name, ty2.clone());
                }
                Some(ty1) => {
                    let joined = ty1.join(ty2).ok_or_else(|| name.as_str().to_string())?;
                    out.vars.insert(*name, joined);
                }
            }
        }
        Ok(out)
    }

    /// `Γ1 ⊑ Γ2` — every distance either matches or was promoted to `∗`.
    pub fn le(&self, other: &TypeEnv) -> bool {
        self.vars.iter().all(|(name, t1)| match other.get(*name) {
            None => false,
            Some(t2) => t1.join(t2).as_ref() == Some(t2),
        })
    }

    /// Applies branch-condition simplification to every distance.
    pub fn simplify_under(&self, cond: &Expr, polarity: bool) -> TypeEnv {
        let mut out = TypeEnv::new();
        for (name, ty) in &self.vars {
            let ty = match ty {
                VarTy::Num { al, sh } => VarTy::Num {
                    al: al.simplify_under(cond, polarity),
                    sh: sh.simplify_under(cond, polarity),
                },
                VarTy::NumList { al, sh } => VarTy::NumList {
                    al: al.simplify_under(cond, polarity),
                    sh: sh.simplify_under(cond, polarity),
                },
                other => other.clone(),
            };
            out.vars.insert(*name, ty);
        }
        out
    }
}

impl fmt::Display for TypeEnv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (name, ty)) in self.vars.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match ty {
                VarTy::Num { al, sh } => write!(f, "{name}: num<{al},{sh}>")?,
                VarTy::Bool => write!(f, "{name}: bool")?,
                VarTy::NumList { al, sh } => write!(f, "{name}: list num<{al},{sh}>")?,
                VarTy::BoolList => write!(f, "{name}: list bool")?,
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowdp_syntax::parse_expr;

    #[test]
    fn join_is_two_level() {
        let d1 = Dist::D(Expr::int(3));
        let d2 = Dist::D(Expr::int(4));
        assert_eq!(d1.join(&d1), d1);
        assert_eq!(d1.join(&d2), Dist::Star);
        assert_eq!(Dist::Star.join(&d1), Dist::Star);
        assert_eq!(Dist::Star.join(&Dist::Star), Dist::Star);
        // x + y ⊔ x + y = x + y (syntactic equality)
        let e = Dist::D(parse_expr("x + y").unwrap());
        assert_eq!(e.join(&e.clone()), e);
    }

    #[test]
    fn expr_for_desugars_star() {
        let x = Name::plain("bq");
        assert_eq!(Dist::Star.expr_for(&x, true), Expr::Var(x.aligned_hat()));
        assert_eq!(Dist::Star.expr_for(&x, false), Expr::Var(x.shadow_hat()));
        let d = Dist::D(Expr::int(2));
        assert_eq!(d.expr_for(&x, true), Expr::int(2));
    }

    #[test]
    fn simplification_selects_branch() {
        // (omega ? 2 : 0) under omega=true is 2, under omega=false is 0
        let omega = parse_expr("q[i] + eta > bq || i == 0").unwrap();
        let d = Dist::D(Expr::Ternary(
            Box::new(omega.clone()),
            Box::new(Expr::int(2)),
            Box::new(Expr::int(0)),
        ));
        assert_eq!(d.simplify_under(&omega, true), Dist::D(Expr::int(2)));
        assert_eq!(d.simplify_under(&omega, false), Dist::D(Expr::int(0)));
        // unrelated guards stay
        let other = parse_expr("x > 0").unwrap();
        assert_eq!(d.simplify_under(&other, true), d);
    }

    #[test]
    fn env_join_and_le() {
        let mut g1 = TypeEnv::new();
        g1.set("x", VarTy::num00());
        let mut g2 = TypeEnv::new();
        g2.set(
            "x",
            VarTy::Num {
                al: Dist::D(Expr::int(1)),
                sh: Dist::zero(),
            },
        );
        let j = g1.join(&g2).unwrap();
        assert_eq!(
            j.get("x"),
            Some(&VarTy::Num {
                al: Dist::Star,
                sh: Dist::zero()
            })
        );
        assert!(g1.le(&j));
        assert!(g2.le(&j));
        assert!(!j.le(&g1));
    }

    #[test]
    fn join_rejects_base_type_clash() {
        let mut g1 = TypeEnv::new();
        g1.set("x", VarTy::num00());
        let mut g2 = TypeEnv::new();
        g2.set("x", VarTy::Bool);
        assert!(g1.join(&g2).is_err());
    }

    #[test]
    fn var_only_on_one_side_is_kept() {
        let mut g1 = TypeEnv::new();
        g1.set("x", VarTy::num00());
        let g2 = TypeEnv::new();
        let j = g1.join(&g2).unwrap();
        assert_eq!(j.get("x"), Some(&VarTy::num00()));
    }

    #[test]
    fn from_ty_handles_declarations() {
        use shadowdp_syntax::Ty;
        let t = VarTy::from_ty(&Ty::num_star()).unwrap();
        assert_eq!(
            t,
            VarTy::Num {
                al: Dist::Star,
                sh: Dist::Star
            }
        );
        let t = VarTy::from_ty(&Ty::List(Box::new(Ty::Bool))).unwrap();
        assert_eq!(t, VarTy::BoolList);
        // nested lists rejected
        assert!(VarTy::from_ty(&Ty::List(Box::new(Ty::List(Box::new(Ty::Bool))))).is_none());
    }
}
