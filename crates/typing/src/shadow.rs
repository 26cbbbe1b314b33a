//! The aligned/shadow constructions `⟦e, Γ⟧⋆` (Figure 8) and `⟦c, Γ⟧†`
//! (Figure 9).
//!
//! `⟦e, Γ⟧◦` replaces every variable by its aligned counterpart
//! `x + d◦(x)`; `⟦e, Γ⟧†` by `x + d†(x)`. `⟦c, Γ⟧†` is the shadow execution
//! of a command — standard self-composition except that assignments update
//! the shadow *distance* variable (`x̂† := ⟦e⟧† − x`) rather than a renamed
//! copy of `x`, and sampling commands are not allowed (the shadow execution
//! must reuse the original noise).

use shadowdp_syntax::{Cmd, CmdKind, Expr, UnOp};

use crate::env::{TypeEnv, VarTy};

/// Which execution to project.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Version {
    /// `◦` — the aligned execution.
    Aligned,
    /// `†` — the shadow execution.
    Shadow,
}

impl Version {
    fn aligned(self) -> bool {
        self == Version::Aligned
    }
}

/// `⟦e, Γ⟧⋆`: the value of `e` in the aligned/shadow execution, as an
/// expression over current-state variables and hat variables.
///
/// Variables missing from Γ (e.g. hat variables appearing inside distance
/// expressions) are treated as distance ⟨0,0⟩ — hat variables track
/// distances of the *original* execution's variables and are identical in
/// all versions.
pub fn transform_expr(e: &Expr, env: &TypeEnv, version: Version) -> Expr {
    match e {
        Expr::Var(n) => {
            if n.is_hat() {
                return e.clone();
            }
            match env.get(&n.base) {
                Some(VarTy::Num { al, sh }) => {
                    let d = if version.aligned() { al } else { sh };
                    e.clone().add(d.expr_for(n, version.aligned()))
                }
                // Booleans and whole-list values are ⟨0,0⟩.
                _ => e.clone(),
            }
        }
        Expr::Index(base, idx) => {
            // Fig. 8: the index is ⟨0,0⟩-typed, used as-is.
            let Expr::Var(n) = &**base else {
                return e.clone();
            };
            if n.is_hat() {
                return e.clone();
            }
            match env.get(&n.base) {
                Some(VarTy::NumList { al, sh }) => {
                    let d = if version.aligned() { al } else { sh };
                    let offset = match d {
                        crate::env::Dist::D(expr) => expr.clone(),
                        // Output lists' irrelevant shadow side.
                        crate::env::Dist::Any => Expr::int(0),
                        crate::env::Dist::Star => Expr::Index(
                            Box::new(Expr::Var(if version.aligned() {
                                n.aligned_hat()
                            } else {
                                n.shadow_hat()
                            })),
                            idx.clone(),
                        ),
                    };
                    e.clone().add(offset)
                }
                _ => e.clone(),
            }
        }
        _ => e.map_children(|x| transform_expr(x, env, version)),
    }
}

/// Negation helper used by the (T-If) assert on the else branch.
pub fn negate(e: Expr) -> Expr {
    match e {
        Expr::Unary(UnOp::Not, inner) => *inner,
        other => Expr::Unary(UnOp::Not, Box::new(other)),
    }
}

/// `⟦c, Γ⟧†` (Figure 9): the shadow execution of a command sequence.
///
/// # Errors
///
/// Returns the offending command's description if `c` contains a sampling
/// command (the shadow execution cannot take fresh samples) or an
/// instrumentation-only command.
pub fn shadow_cmds(cmds: &[Cmd], env: &TypeEnv) -> Result<Vec<Cmd>, String> {
    let mut out = Vec::new();
    for c in cmds {
        match &c.kind {
            CmdKind::Skip => {}
            CmdKind::Assign(x, e) => {
                if x.is_hat() {
                    // Instrumentation inserted by the type system is part of
                    // the *aligned* bookkeeping; the shadow execution is
                    // constructed from the source command, so hat
                    // assignments should not be present here.
                    return Err(format!(
                        "shadow construction reached instrumentation `{x} := ...`"
                    ));
                }
                // x̂† := ⟦e, Γ⟧† − x
                let rhs = transform_expr(e, env, Version::Shadow).sub(Expr::Var(x.clone()));
                out.push(Cmd::synth(CmdKind::Assign(x.shadow_hat(), rhs)));
            }
            CmdKind::If(cond, c1, c2) => {
                let sc = transform_expr(cond, env, Version::Shadow);
                let s1 = shadow_cmds(c1, env)?;
                let s2 = shadow_cmds(c2, env)?;
                if s1.is_empty() && s2.is_empty() {
                    continue;
                }
                out.push(Cmd::synth(CmdKind::If(sc, s1, s2)));
            }
            CmdKind::While {
                cond,
                invariants,
                body,
            } => {
                let sc = transform_expr(cond, env, Version::Shadow);
                let sb = shadow_cmds(body, env)?;
                out.push(Cmd::synth(CmdKind::While {
                    cond: sc,
                    invariants: invariants.clone(),
                    body: sb,
                }));
            }
            CmdKind::Sample { var, .. } => {
                return Err(format!(
                    "sampling command `{var} := lap(...)` inside a branch whose shadow \
                     execution may diverge (pc = ⊤); ShadowDP cannot align differing \
                     sample counts"
                ));
            }
            CmdKind::Return(_) => return Err("return inside a shadow-diverged branch".to_string()),
            CmdKind::Assert(_) | CmdKind::Assume(_) | CmdKind::Havoc(_) => {
                return Err("verifier command reached shadow construction".to_string())
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Dist;
    use shadowdp_syntax::{parse_expr, pretty_cmds, pretty_expr, Name};

    fn noisy_max_env() -> TypeEnv {
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
            "bq",
            VarTy::Num {
                al: Dist::Star,
                sh: Dist::Star,
            },
        );
        env.set(
            "eta",
            VarTy::Num {
                al: Dist::D(parse_expr("q[i] + eta > bq || i == 0 ? 2 : 0").unwrap()),
                sh: Dist::zero(),
            },
        );
        env.set(
            "max",
            VarTy::Num {
                al: Dist::zero(),
                sh: Dist::Star,
            },
        );
        env
    }

    #[test]
    fn shadow_guard_matches_figure_1_line_16() {
        // ⟦q[i] + eta > bq || i == 0⟧† = q[i] + ~q[i] + eta > bq + ~bq || i == 0
        let env = noisy_max_env();
        let guard = parse_expr("q[i] + eta > bq || i == 0").unwrap();
        let shadow = transform_expr(&guard, &env, Version::Shadow);
        assert_eq!(
            pretty_expr(&shadow),
            "q[i] + ~q[i] + eta > bq + ~bq || i == 0"
        );
    }

    #[test]
    fn aligned_guard_uses_aligned_hats_and_distances() {
        let env = noisy_max_env();
        let guard = parse_expr("q[i] + eta > bq || i == 0").unwrap();
        let aligned = transform_expr(&guard, &env, Version::Aligned);
        let printed = pretty_expr(&aligned);
        assert!(printed.contains("^q[i]"), "{printed}");
        assert!(printed.contains("^bq"), "{printed}");
        // eta's aligned distance is the (unsimplified) ternary
        assert!(printed.contains("? 2 : 0"), "{printed}");
    }

    #[test]
    fn shadow_assignment_matches_figure_1_line_17() {
        // shadow of [max := i; bq := q[i] + eta] is
        //   ~max := i + 0 - max ; ~bq := q[i] + ~q[i] + eta - bq
        let env = noisy_max_env();
        let cmds = vec![
            Cmd::synth(CmdKind::Assign(
                Name::plain("max"),
                parse_expr("i").unwrap(),
            )),
            Cmd::synth(CmdKind::Assign(
                Name::plain("bq"),
                parse_expr("q[i] + eta").unwrap(),
            )),
        ];
        let shadow = shadow_cmds(&cmds, &env).unwrap();
        let printed = pretty_cmds(&shadow, 0);
        assert!(printed.contains("~max := i - max;"), "{printed}");
        assert!(
            printed.contains("~bq := q[i] + ~q[i] + eta - bq;"),
            "{printed}"
        );
    }

    #[test]
    fn shadow_if_keeps_structure() {
        let env = noisy_max_env();
        let cmds = vec![Cmd::synth(CmdKind::If(
            parse_expr("q[i] + eta > bq || i == 0").unwrap(),
            vec![Cmd::synth(CmdKind::Assign(
                Name::plain("bq"),
                parse_expr("q[i] + eta").unwrap(),
            ))],
            vec![],
        ))];
        let shadow = shadow_cmds(&cmds, &env).unwrap();
        assert_eq!(shadow.len(), 1);
        match &shadow[0].kind {
            CmdKind::If(cond, t, f) => {
                assert!(pretty_expr(cond).contains("~bq"));
                assert_eq!(t.len(), 1);
                assert!(f.is_empty());
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn sampling_in_shadow_is_rejected() {
        let env = noisy_max_env();
        let cmds = vec![Cmd::synth(CmdKind::Sample {
            var: Name::plain("eta"),
            dist: shadowdp_syntax::RandExpr::Lap(parse_expr("2 / eps").unwrap()),
            selector: shadowdp_syntax::Selector::Aligned,
            align: Expr::int(0),
        })];
        assert!(shadow_cmds(&cmds, &env).is_err());
    }

    #[test]
    fn booleans_and_constants_unchanged() {
        let env = noisy_max_env();
        let e = parse_expr("true").unwrap();
        assert_eq!(transform_expr(&e, &env, Version::Shadow), e);
        let e = parse_expr("3 / 4").unwrap();
        assert_eq!(transform_expr(&e, &env, Version::Shadow), e);
    }

    #[test]
    fn hat_vars_pass_through() {
        let env = noisy_max_env();
        let e = parse_expr("^bq + 1").unwrap();
        assert_eq!(transform_expr(&e, &env, Version::Aligned), e);
    }
}
