//! Command typing rules and the source-to-`c'` transformation
//! (paper Figure 4, middle and bottom).

use std::collections::BTreeSet;
use std::fmt;

use shadowdp_solver::{Solver, Symbol, Term};
use shadowdp_syntax::{
    assigned_vars, preorder, pretty_expr, Cmd, CmdKind, Expr, Function, Name, RandExpr, Selector,
    Span,
};

use crate::cleanup::eliminate_dead_hats;
use crate::env::{Dist, TypeEnv, VarTy};
use crate::exprs::{ETy, ExprTyper};
use crate::lower::lower_num;
use crate::psi::Psi;
use crate::shadow::{negate, shadow_cmds, transform_expr, Version};

/// A type error with source location.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeError {
    /// What went wrong.
    pub message: String,
    /// Where (span of the offending command; `Span::ZERO` for
    /// function-level errors).
    pub span: Span,
}

impl TypeError {
    fn at(span: Span, message: impl Into<String>) -> TypeError {
        TypeError {
            message: message.into(),
            span,
        }
    }

    /// Renders the error with 1-based line/column resolved against
    /// `src` (mirrors `ParseError::render`). Function-level errors
    /// carry `Span::ZERO` and render without a location. `Display`
    /// deliberately stays location-free: its text is embedded in
    /// corpus report digests, which are pinned byte-for-byte.
    pub fn render(&self, src: &str) -> String {
        if self.span == Span::ZERO {
            return format!("type error: {}", self.message);
        }
        let (line, col) = self.span.line_col(src);
        format!("type error at {line}:{col}: {}", self.message)
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.message)
    }
}

impl std::error::Error for TypeError {}

/// Result of a successful check: the transformed program `c'` and the
/// final typing environment.
#[derive(Debug, Clone)]
pub struct Transformed {
    /// The instrumented probabilistic program (sampling commands retained
    /// with their annotations; `assert`s and hat bookkeeping added).
    pub function: Function,
    /// Γ at the return point.
    pub final_env: TypeEnv,
    /// Whether the shadow execution machinery was active (some selector
    /// can choose `†`); when `false`, the paper's §6.2.1 optimization
    /// applied.
    pub shadow_used: bool,
}

/// The program counter of Figure 4: can the shadow execution diverge here?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pc {
    /// `⊥` — shadow takes the same branches.
    Low,
    /// `⊤` — shadow may have diverged.
    High,
}

/// Type-checks `f` and produces the transformed program (rule composition
/// `⊥ ⊢ Γ₁ {c ⇀ c'} Γ₂`).
///
/// # Errors
///
/// Returns the first rule violation encountered.
///
/// # Examples
///
/// See the crate-level docs.
pub fn check_function(f: &Function) -> Result<Transformed, TypeError> {
    let solver = Solver::new();
    check_function_with(f, &solver)
}

/// [`check_function`] against a caller-provided solver (so callers can
/// aggregate [`shadowdp_solver::SolverStats`] across phases).
pub fn check_function_with(f: &Function, solver: &Solver) -> Result<Transformed, TypeError> {
    f.validate_source()
        .map_err(|(span, m)| TypeError::at(span, m))?;

    let psi = Psi::from_function(f);
    let shadow_enabled = f.uses_shadow();

    let mut env = TypeEnv::new();
    for p in &f.params {
        let ty = VarTy::from_ty(&p.ty).ok_or_else(|| {
            TypeError::at(
                Span::ZERO,
                format!("unsupported declared type for parameter `{}`", p.name),
            )
        })?;
        env.set(p.name.clone(), ty);
    }

    // A sampling annotation that mentions `^x` (or `~x`) for a *scalar*
    // program variable asks for dynamic distance tracking of `x`: force
    // those variables to ∗ from their first assignment so the hat variable
    // is live when the annotation reads it (SmartSum's `ŝum◦`, PartialSum's
    // `−ŝum◦`). Input lists (`^q`) are excluded — their hats are inputs.
    let list_params: BTreeSet<String> = f
        .params
        .iter()
        .filter(|p| matches!(p.ty, shadowdp_syntax::Ty::List(_)))
        .map(|p| p.name.clone())
        .collect();
    let (force_star_aligned, force_star_shadow) = annotation_hats(f, &list_params);

    let checker = Checker {
        solver,
        psi,
        shadow_enabled,
        func: f,
        force_star_aligned,
        force_star_shadow,
    };
    let (final_env, mut body) = checker.check_cmds(Pc::Low, env, &f.body)?;
    eliminate_dead_hats(&mut body);

    Ok(Transformed {
        function: Function {
            name: f.name.clone(),
            params: f.params.clone(),
            ret: f.ret.clone(),
            preconditions: f.preconditions.clone(),
            budget: f.budget.clone(),
            body,
        },
        final_env,
        shadow_used: shadow_enabled,
    })
}

struct Checker<'a> {
    solver: &'a Solver,
    psi: Psi,
    shadow_enabled: bool,
    func: &'a Function,
    /// Scalars whose aligned distance is dynamically tracked because an
    /// annotation reads `^x`.
    force_star_aligned: BTreeSet<String>,
    /// Scalars whose shadow distance is dynamically tracked because an
    /// annotation reads `~x`.
    force_star_shadow: BTreeSet<String>,
}

/// Hat variables of scalar program variables read by sampling annotations.
fn annotation_hats(
    f: &Function,
    list_params: &BTreeSet<String>,
) -> (BTreeSet<String>, BTreeSet<String>) {
    use shadowdp_syntax::NameKind;
    let mut aligned = BTreeSet::new();
    let mut shadow = BTreeSet::new();
    // Laplace scales need no scan: `validate_source` rejects hats there.
    for c in preorder(&f.body) {
        let CmdKind::Sample {
            selector, align, ..
        } = &c.kind
        else {
            continue;
        };
        for e in std::iter::once(align).chain(selector.guards()) {
            for v in e.vars() {
                let hats = match v.kind {
                    NameKind::HatAligned => &mut aligned,
                    NameKind::HatShadow => &mut shadow,
                    NameKind::Plain => continue,
                };
                if !list_params.contains(&v.base) {
                    hats.insert(v.base);
                }
            }
        }
    }
    (aligned, shadow)
}

impl<'a> Checker<'a> {
    fn typer<'e>(&'e self, env: &'e TypeEnv) -> ExprTyper<'e> {
        ExprTyper {
            env,
            psi: &self.psi,
            solver: self.solver,
        }
    }

    fn check_cmds(
        &self,
        pc: Pc,
        mut env: TypeEnv,
        cmds: &[Cmd],
    ) -> Result<(TypeEnv, Vec<Cmd>), TypeError> {
        let mut out = Vec::new();
        for c in cmds {
            let (new_env, mut emitted) = self.check_cmd(pc, env, c)?;
            env = new_env;
            out.append(&mut emitted);
        }
        Ok((env, out))
    }

    fn check_cmd(&self, pc: Pc, env: TypeEnv, c: &Cmd) -> Result<(TypeEnv, Vec<Cmd>), TypeError> {
        match &c.kind {
            CmdKind::Skip => Ok((env, vec![c.clone()])),
            CmdKind::Assign(x, e) => self.check_assign(pc, env, x, e, c.span),
            CmdKind::Sample {
                var,
                dist,
                selector,
                align,
            } => self.check_sample(pc, env, var, dist, selector, align, c.span),
            CmdKind::If(cond, c1, c2) => self.check_if(pc, env, cond, c1, c2, c.span),
            CmdKind::While {
                cond,
                invariants,
                body,
            } => self.check_while(pc, env, cond, invariants, body, c.span),
            CmdKind::Return(e) => self.check_return(env, e, c.span),
            CmdKind::Assert(_) | CmdKind::Assume(_) | CmdKind::Havoc(_) => Err(TypeError::at(
                c.span,
                "verifier-only command in source program",
            )),
        }
    }

    // ----- T-Asgn -----

    fn check_assign(
        &self,
        pc: Pc,
        mut env: TypeEnv,
        x: &Name,
        e: &Expr,
        span: Span,
    ) -> Result<(TypeEnv, Vec<Cmd>), TypeError> {
        if x.is_hat() {
            return Err(TypeError::at(span, "cannot assign hat variables"));
        }
        let mut out = Vec::new();

        // `x := nil` adopts the declared type for the output variable.
        if matches!(e, Expr::Nil) {
            let ty = if x.base == self.func.ret.name {
                VarTy::from_ty(&self.func.ret.ty)
                    .ok_or_else(|| TypeError::at(span, "unsupported declared return type"))?
            } else {
                return Err(TypeError::at(
                    span,
                    "nil may only initialize the declared output list",
                ));
            };
            if !matches!(ty, VarTy::NumList { .. } | VarTy::BoolList) {
                return Err(TypeError::at(span, "nil assigned to a non-list output"));
            }
            env.set(x.base.clone(), ty);
            out.push(Cmd {
                kind: CmdKind::Assign(x.clone(), e.clone()),
                span,
            });
            return Ok((env, out));
        }

        let ety = self
            .typer(&env)
            .type_expr(e)
            .map_err(|m| TypeError::at(span, m))?;

        // Well-formedness: no remaining distance may mention x after the
        // assignment. Promote violators to ∗, instrumenting their hat
        // variables with the pre-assignment distance value.
        out.extend(self.promote_mentions(&mut env, x, span)?);

        match ety {
            ETy::Num { al, sh } => {
                // Normalize provably-zero distances to keep environments
                // loop-stable (PartialSum's out, GapSVT's gap, ...).
                let typer = self.typer(&env);
                let al = self.normalize_zero(&typer, al, span)?;
                let sh = self.normalize_zero(&typer, sh, span)?;
                // Annotation-requested dynamic tracking: keep the hat
                // variable in sync and use ∗.
                let mut al_dist = Dist::D(al.clone());
                let mut sh_dist = Dist::D(sh.clone());
                if self.force_star_aligned.contains(&x.base) {
                    if al != Expr::Var(x.aligned_hat()) {
                        out.push(Cmd::synth(CmdKind::Assign(x.aligned_hat(), al.clone())));
                    }
                    al_dist = Dist::Star;
                }
                if self.force_star_shadow.contains(&x.base) {
                    if sh != Expr::Var(x.shadow_hat()) {
                        out.push(Cmd::synth(CmdKind::Assign(x.shadow_hat(), sh.clone())));
                    }
                    sh_dist = Dist::Star;
                }
                let (new_ty, pre) = match pc {
                    Pc::Low => (
                        VarTy::Num {
                            al: al_dist.clone(),
                            sh: sh_dist,
                        },
                        None,
                    ),
                    Pc::High => {
                        // The shadow execution did not run this assignment:
                        // preserve x's shadow value in ~x.
                        let old_sh = match env.get(&x.base) {
                            Some(VarTy::Num { sh, .. }) => sh.expr_for(x, false),
                            Some(_) => {
                                return Err(TypeError::at(
                                    span,
                                    format!("`{x}` changes base type under diverged shadow"),
                                ))
                            }
                            None => {
                                return Err(TypeError::at(
                                    span,
                                    format!(
                                        "`{x}` is first assigned inside a branch whose \
                                         shadow execution may diverge"
                                    ),
                                ))
                            }
                        };
                        let keep = Expr::Var(x.clone()).add(old_sh).sub(e.clone());
                        (
                            VarTy::Num {
                                al: al_dist,
                                sh: Dist::Star,
                            },
                            Some(Cmd::synth(CmdKind::Assign(x.shadow_hat(), keep))),
                        )
                    }
                };
                if let Some(cmd) = pre {
                    out.push(cmd);
                }
                env.set(x.base.clone(), new_ty);
            }
            ETy::Bool => {
                if pc == Pc::High && !matches!(env.get(&x.base), None | Some(VarTy::Bool)) {
                    return Err(TypeError::at(span, "base type change under ⊤"));
                }
                env.set(x.base.clone(), VarTy::Bool);
            }
            ETy::BoolList => {
                if pc == Pc::High {
                    return Err(TypeError::at(
                        span,
                        "list assignment under diverged shadow execution is unsupported",
                    ));
                }
                env.set(x.base.clone(), VarTy::BoolList);
            }
            ETy::NumList { al, sh } => {
                if pc == Pc::High {
                    return Err(TypeError::at(
                        span,
                        "list assignment under diverged shadow execution is unsupported",
                    ));
                }
                env.set(x.base.clone(), VarTy::NumList { al, sh });
            }
            ETy::NilList => unreachable!("nil handled above"),
        }

        out.push(Cmd {
            kind: CmdKind::Assign(x.clone(), e.clone()),
            span,
        });
        Ok((env, out))
    }

    /// Tries to prove a non-trivial distance expression equal to zero and
    /// normalizes it to the literal when it is.
    fn normalize_zero(
        &self,
        typer: &ExprTyper<'_>,
        d: Expr,
        span: Span,
    ) -> Result<Expr, TypeError> {
        if d.is_zero_lit() || d.vars().is_empty() {
            return Ok(d);
        }
        match typer.dist_is_zero(&d) {
            Ok(true) => Ok(Expr::int(0)),
            Ok(false) => Ok(d),
            Err(m) => Err(TypeError::at(span, m)),
        }
    }

    /// Well-formedness promotion: every distance mentioning `x` (about to
    /// be assigned) is promoted to ∗ with its current value captured in the
    /// hat variable *before* the assignment runs.
    fn promote_mentions(
        &self,
        env: &mut TypeEnv,
        x: &Name,
        span: Span,
    ) -> Result<Vec<Cmd>, TypeError> {
        let mut out = Vec::new();
        let mut promotions: Vec<(Symbol, bool, Expr)> = Vec::new();
        for (name, ty) in env.iter() {
            let (al, sh, is_list) = match ty {
                VarTy::Num { al, sh } => (al, sh, false),
                VarTy::NumList { al, sh } => (al, sh, true),
                _ => continue,
            };
            for (dist, aligned) in [(al, true), (sh, false)] {
                if let Dist::D(d) = dist {
                    if d.mentions(x) {
                        if is_list {
                            return Err(TypeError::at(
                                span,
                                format!(
                                    "element distance of list `{name}` depends on `{x}`, \
                                     which is being assigned (cannot promote lists to ∗)"
                                ),
                            ));
                        }
                        promotions.push((name, aligned, d.clone()));
                    }
                }
            }
        }
        for (name, aligned, d) in promotions {
            let var = Name::plain(name.as_str());
            let hat = if aligned {
                var.aligned_hat()
            } else {
                var.shadow_hat()
            };
            // Skip no-op self captures.
            if d != Expr::Var(hat.clone()) {
                out.push(Cmd::synth(CmdKind::Assign(hat, d)));
            }
            if let Some(VarTy::Num { al, sh }) = env_get_mut(env, name) {
                if aligned {
                    *al = Dist::Star;
                } else {
                    *sh = Dist::Star;
                }
            }
        }
        Ok(out)
    }

    // ----- T-Laplace -----

    #[allow(clippy::too_many_arguments)]
    fn check_sample(
        &self,
        pc: Pc,
        mut env: TypeEnv,
        var: &Name,
        dist: &RandExpr,
        selector: &Selector,
        align: &Expr,
        span: Span,
    ) -> Result<(TypeEnv, Vec<Cmd>), TypeError> {
        if self.shadow_enabled && pc == Pc::High {
            return Err(TypeError::at(
                span,
                "sampling requires pc = ⊥ (rule T-Laplace): the shadow execution \
                 cannot align differing sample counts",
            ));
        }
        if var.is_hat() {
            return Err(TypeError::at(span, "cannot sample into a hat variable"));
        }

        // The scale must be public (distance ⟨0,0⟩).
        let RandExpr::Lap(scale) = dist;
        match self
            .typer(&env)
            .type_expr(scale)
            .map_err(|m| TypeError::at(span, m))?
        {
            ETy::Num { al, sh } => {
                let typer = self.typer(&env);
                let zero = typer
                    .dist_is_zero(&al)
                    .map_err(|m| TypeError::at(span, m))?
                    && typer
                        .dist_is_zero(&sh)
                        .map_err(|m| TypeError::at(span, m))?;
                if !zero {
                    return Err(TypeError::at(
                        span,
                        "Laplace scale must have distance ⟨0,0⟩",
                    ));
                }
            }
            _ => return Err(TypeError::at(span, "Laplace scale must be numeric")),
        }

        // Well-formedness for the sampled variable.
        let mut out = self.promote_mentions(&mut env, var, span)?;

        // Injectivity: η ↦ η + n_η must be injective (same aligned value
        // implies same sample).
        self.check_injectivity(&env, var, align, span)?;

        // Environment update: the selector rebuilds every aligned distance
        // from the aligned/shadow pair; shadow distances are unchanged.
        if selector.uses_shadow() {
            let names: Vec<Symbol> = env.iter().map(|(n, _)| n).collect();
            for name in names {
                let n = Name::plain(name.as_str());
                let ty = env.get(name).cloned().expect("iterating env keys");
                match ty {
                    VarTy::Num { al, sh } => {
                        let al_e = al.expr_for(&n, true);
                        let sh_e = sh.expr_for(&n, false);
                        let selected = selector.select(al_e.clone(), sh_e);
                        let new_al = if selected == al_e {
                            al
                        } else {
                            Dist::D(selected)
                        };
                        env.set(name, VarTy::Num { al: new_al, sh });
                    }
                    VarTy::NumList { al, sh } => {
                        // Lists cannot carry the selection ternary
                        // element-wise; require Ψ to make it a no-op
                        // (the adjacency clause ~q[i] == ^q[i]).
                        let same = al == sh || self.psi.shadow_equals_aligned(name.as_str());
                        if !same {
                            return Err(TypeError::at(
                                span,
                                format!(
                                    "selector may switch list `{name}` to its shadow \
                                     distances, but Ψ does not guarantee ~{name}[i] == \
                                     ^{name}[i]"
                                ),
                            ));
                        }
                    }
                    VarTy::Bool | VarTy::BoolList => {}
                }
            }
        }

        // The fresh sample: aligned distance n_η, shadow distance 0.
        env.set(
            var.base.clone(),
            VarTy::Num {
                al: Dist::D(align.clone()),
                sh: Dist::zero(),
            },
        );

        out.push(Cmd {
            kind: CmdKind::Sample {
                var: var.clone(),
                dist: dist.clone(),
                selector: selector.clone(),
                align: align.clone(),
            },
            span,
        });
        Ok((env, out))
    }

    fn check_injectivity(
        &self,
        env: &TypeEnv,
        var: &Name,
        align: &Expr,
        span: Span,
    ) -> Result<(), TypeError> {
        // Ψ ⇒ ((η + n_η){η1/η} = (η + n_η){η2/η} ⇒ η1 = η2)
        let eta1 = Expr::var("$eta1");
        let eta2 = Expr::var("$eta2");
        let aligned = Expr::Var(var.clone()).add(align.clone());
        let a1 = aligned.subst(var, &eta1);
        let a2 = aligned.subst(var, &eta2);

        let ctx = self.typer(env).lower_ctx();
        let mut hyps = self
            .psi
            .hypotheses_for(&[&a1, &a2], &ctx)
            .map_err(|m| TypeError::at(span, m.to_string()))?;
        let t1 = lower_num(&a1, &ctx).map_err(|m| TypeError::at(span, m.to_string()))?;
        let t2 = lower_num(&a2, &ctx).map_err(|m| TypeError::at(span, m.to_string()))?;
        hyps.push(t1.eq_num(t2));
        let goal: Term = Term::real_var("$eta1").eq_num(Term::real_var("$eta2"));
        if self.solver.entails(&hyps, &goal) {
            Ok(())
        } else {
            Err(TypeError::at(
                span,
                format!(
                    "alignment `{}` for sample `{var}` is not injective \
                     (rule T-Laplace)",
                    pretty_expr(align)
                ),
            ))
        }
    }

    // ----- updPC -----

    fn upd_pc(&self, pc: Pc, env: &TypeEnv, guard: &Expr, span: Span) -> Result<Pc, TypeError> {
        if !self.shadow_enabled {
            return Ok(Pc::Low);
        }
        if pc == Pc::High {
            return Ok(Pc::High);
        }
        let shadow_guard = transform_expr(guard, env, Version::Shadow);
        if shadow_guard == *guard {
            return Ok(Pc::Low);
        }
        // Ψ ⇒ (e ⇔ ⟦e, Γ⟧†)
        let iff = guard
            .clone()
            .and(shadow_guard.clone())
            .or(guard.clone().not().and(shadow_guard.not()));
        let proved = self
            .typer(env)
            .prove(&iff, &[])
            .map_err(|m| TypeError::at(span, m))?;
        Ok(if proved { Pc::Low } else { Pc::High })
    }

    // ----- the ⇛ instrumentation rule -----

    /// Emits `x̂ := d` for every distance promoted to ∗ between `from` and
    /// `to`. Shadow-side updates are only emitted under `pc = ⊥` (under ⊤
    /// the appended shadow execution owns the shadow values). Distances
    /// are simplified under the branch condition when one applies, and
    /// no-op self-assignments are dropped.
    fn instrument(
        &self,
        from: &TypeEnv,
        to: &TypeEnv,
        pc: Pc,
        under: Option<(&Expr, bool)>,
    ) -> Vec<Cmd> {
        let mut out = Vec::new();
        for (name, to_ty) in to.iter() {
            let Some(from_ty) = from.get(name) else {
                continue;
            };
            let n = Name::plain(name.as_str());
            let pairs: Vec<(Option<&Dist>, Option<&Dist>, bool)> = match (from_ty, to_ty) {
                (VarTy::Num { al: fa, sh: fs }, VarTy::Num { al: ta, sh: ts }) => {
                    vec![(Some(fa), Some(ta), true), (Some(fs), Some(ts), false)]
                }
                _ => continue,
            };
            for (f, t, aligned) in pairs {
                let (Some(Dist::D(d)), Some(Dist::Star)) = (f, t) else {
                    continue;
                };
                if !aligned && pc == Pc::High {
                    continue; // ⇛ under ⊤ only maintains aligned hats
                }
                let d = match under {
                    Some((cond, polarity)) => crate::env::simplify_expr_under(d, cond, polarity),
                    None => d.clone(),
                };
                let hat = if aligned {
                    n.aligned_hat()
                } else {
                    n.shadow_hat()
                };
                if d == Expr::Var(hat.clone()) {
                    continue; // x̂ := x̂
                }
                out.push(Cmd::synth(CmdKind::Assign(hat, d)));
            }
        }
        out
    }

    // ----- T-If -----

    fn check_if(
        &self,
        pc: Pc,
        mut env: TypeEnv,
        cond: &Expr,
        c1: &[Cmd],
        c2: &[Cmd],
        span: Span,
    ) -> Result<(TypeEnv, Vec<Cmd>), TypeError> {
        let pc_body = self.upd_pc(pc, &env, cond, span)?;
        let mut out = Vec::new();

        // On a ⊥→⊤ transition, make sure every variable the branches assign
        // already has a live shadow hat (soundness of the appended shadow
        // execution).
        if pc == Pc::Low && pc_body == Pc::High {
            out.extend(self.ensure_shadow_hats(&mut env, c1, c2, span)?);
        }

        // The paper's branch-condition simplification: distances are
        // rewritten under the branch polarity at entry and *kept* — flow
        // sensitivity merges them back at the join.
        let env_then = env.simplify_under(cond, true);
        let env_else = env.simplify_under(cond, false);

        let (g1, t1) = self.check_cmds(pc_body, env_then.clone(), c1)?;
        let (g2, t2) = self.check_cmds(pc_body, env_else.clone(), c2)?;

        let merged = g1
            .join(&g2)
            .map_err(|name| TypeError::at(span, format!("incompatible types for `{name}`")))?;

        let i1 = self.instrument(&g1, &merged, pc_body, Some((cond, true)));
        let i2 = self.instrument(&g2, &merged, pc_body, Some((cond, false)));

        // Aligned-execution asserts (branch-simplified environments).
        let a_then = Cmd::synth(CmdKind::Assert(transform_expr(
            cond,
            &env_then,
            Version::Aligned,
        )));
        let a_else = Cmd::synth(CmdKind::Assert(negate(transform_expr(
            cond,
            &env_else,
            Version::Aligned,
        ))));

        let mut then_block = vec![a_then];
        then_block.extend(t1);
        then_block.extend(i1);
        let mut else_block = vec![a_else];
        else_block.extend(t2);
        else_block.extend(i2);

        out.push(Cmd {
            kind: CmdKind::If(cond.clone(), then_block, else_block),
            span,
        });

        // Shadow execution of the whole branch on the ⊥→⊤ transition.
        if pc == Pc::Low && pc_body == Pc::High {
            let source_if = Cmd {
                kind: CmdKind::If(cond.clone(), c1.to_vec(), c2.to_vec()),
                span,
            };
            let shadow = shadow_cmds(std::slice::from_ref(&source_if), &merged)
                .map_err(|m| TypeError::at(span, m))?;
            out.extend(shadow);
        }

        Ok((merged, out))
    }

    /// Promotes to ∗ (with hat initialization) the shadow distance of every
    /// variable assigned in `c1`/`c2`, so the appended shadow execution has
    /// live `~x` trackers to read and write.
    fn ensure_shadow_hats(
        &self,
        env: &mut TypeEnv,
        c1: &[Cmd],
        c2: &[Cmd],
        span: Span,
    ) -> Result<Vec<Cmd>, TypeError> {
        // Sorted, so the `~x` initializations come out in name order.
        let assigned: BTreeSet<String> = assigned_vars(c1)
            .into_iter()
            .chain(assigned_vars(c2))
            .collect();
        let mut out = Vec::new();
        for name in assigned {
            let Some(ty) = env.get(&name).cloned() else {
                continue;
            };
            match ty {
                VarTy::Num { al, sh } => {
                    if let Dist::D(d) = sh {
                        let n = Name::plain(&name);
                        out.push(Cmd::synth(CmdKind::Assign(n.shadow_hat(), d)));
                        env.set(name, VarTy::Num { al, sh: Dist::Star });
                    }
                }
                VarTy::Bool => {}
                _ => {
                    return Err(TypeError::at(
                        span,
                        format!(
                            "list `{name}` assigned inside a branch whose shadow \
                             execution may diverge"
                        ),
                    ))
                }
            }
        }
        Ok(out)
    }

    // ----- T-While -----

    fn check_while(
        &self,
        pc: Pc,
        mut env: TypeEnv,
        cond: &Expr,
        invariants: &[Expr],
        body: &[Cmd],
        span: Span,
    ) -> Result<(TypeEnv, Vec<Cmd>), TypeError> {
        let pc_body = self.upd_pc(pc, &env, cond, span)?;
        let mut out = Vec::new();

        if pc == Pc::Low && pc_body == Pc::High {
            out.extend(self.ensure_shadow_hats(&mut env, body, &[], span)?);
        }

        let entry = env.clone();

        // Fixed point on typing environments (two-level lattice, so this
        // terminates in at most 2·|vars| + 1 rounds).
        let mut head = entry.clone();
        for round in 0.. {
            if round > 2 * count_vars(&head) + 8 {
                return Err(TypeError::at(
                    span,
                    "loop typing did not reach a fixed point (internal error)",
                ));
            }
            let head_view = head.simplify_under(cond, true);
            let (body_out, _) = self.check_cmds(pc_body, head_view, body)?;
            let next = body_out
                .join(&entry)
                .map_err(|n| TypeError::at(span, format!("incompatible types for `{n}`")))?;
            if next == head {
                break;
            }
            head = next;
        }

        // Final pass generating code from the fixed point.
        let head_view = head.simplify_under(cond, true);
        let (body_out, body_t) = self.check_cmds(pc_body, head_view.clone(), body)?;

        let cs = self.instrument(&entry, &head, pc_body, None);
        let c_end = self.instrument(&body_out, &head, pc_body, None);

        let assert_guard = Cmd::synth(CmdKind::Assert(transform_expr(
            cond,
            &head_view,
            Version::Aligned,
        )));

        let mut loop_body = vec![assert_guard];
        loop_body.extend(body_t);
        loop_body.extend(c_end);

        out.extend(cs);
        out.push(Cmd {
            kind: CmdKind::While {
                cond: cond.clone(),
                invariants: invariants.to_vec(),
                body: loop_body,
            },
            span,
        });

        if pc == Pc::Low && pc_body == Pc::High {
            let source_while = Cmd {
                kind: CmdKind::While {
                    cond: cond.clone(),
                    invariants: invariants.to_vec(),
                    body: body.to_vec(),
                },
                span,
            };
            let shadow = shadow_cmds(std::slice::from_ref(&source_while), &head)
                .map_err(|m| TypeError::at(span, m))?;
            out.extend(shadow);
        }

        Ok((head, out))
    }

    // ----- T-Return -----

    fn check_return(
        &self,
        env: TypeEnv,
        e: &Expr,
        span: Span,
    ) -> Result<(TypeEnv, Vec<Cmd>), TypeError> {
        let ety = self
            .typer(&env)
            .type_expr(e)
            .map_err(|m| TypeError::at(span, m))?;
        let typer = self.typer(&env);
        let ok = match &ety {
            ETy::Num { al, .. } => typer.dist_is_zero(al).map_err(|m| TypeError::at(span, m))?,
            ETy::Bool | ETy::BoolList | ETy::NilList => true,
            ETy::NumList { al, .. } => match al {
                Dist::D(d) => d.is_zero_lit(),
                Dist::Star | Dist::Any => false,
            },
        };
        if !ok {
            return Err(TypeError::at(
                span,
                format!(
                    "returned expression `{}` must have aligned distance 0 \
                     (rule T-Return)",
                    pretty_expr(e)
                ),
            ));
        }
        Ok((
            env,
            vec![Cmd {
                kind: CmdKind::Return(e.clone()),
                span,
            }],
        ))
    }
}

fn count_vars(env: &TypeEnv) -> usize {
    env.iter().count()
}

fn env_get_mut(env: &mut TypeEnv, name: Symbol) -> Option<&mut VarTy> {
    env.iter_mut().find(|(n, _)| *n == name).map(|(_, t)| t)
}
