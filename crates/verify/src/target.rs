//! Lowering `c'` to the target language `c''` (paper Figure 5) with
//! automatic privacy-cost linearization.
//!
//! Figure 5 replaces each sampling command by
//!
//! ```text
//! havoc η;  v_eps := S(⟨v_eps, 0⟩) + |n_η| / r;
//! ```
//!
//! and the pipeline adds `v_eps := 0` up front and
//! `assert (v_eps <= budget)` before `return`. The increments `|n_η|/r` are
//! non-linear in the symbolic `eps` and budget-split parameter (`N`), which
//! defeats linear-arithmetic backends — the paper rewrites them by hand
//! (§6.1–§6.2). Here the rewrite is automated: every increment and the
//! budget are expressed as `coeff · Πᵥ v^pᵥ` monomials times the alignment
//! magnitude, and all of them are rescaled by a common positive unit `μ`
//! chosen to cancel `eps` and denominator parameters. Positivity of the
//! unit (`eps > 0`, `N > 0`) must be a declared precondition.

use std::collections::BTreeMap;
use std::fmt;

use shadowdp_num::Rat;
use shadowdp_syntax::{
    pretty_expr, BinOp, Cmd, CmdKind, Expr, Function, Name, Precondition, RandExpr,
};

/// The distinguished privacy-cost variable of the target language.
pub const V_EPS: &str = "v_eps";

/// How to make the cost arithmetic linear.
#[derive(Clone, Debug, PartialEq)]
pub enum VerifyMode {
    /// Rescale all costs by a common `eps`/`N` monomial (automates the
    /// paper's "Rewrite" column).
    Scaled,
    /// Additionally substitute a concrete value for `eps` first (the
    /// paper's "Fix ε" column).
    FixEps(Rat),
}

/// One privacy-cost site (a lowered sampling command).
#[derive(Clone, Debug)]
pub struct CostSite {
    /// The rescaled increment added to `v_eps` at this site.
    pub scaled_increment: Expr,
    /// Loop nesting depth of the site (0 = straight-line prologue).
    pub loop_depth: usize,
    /// Whether the selector can reset the cost (chooses the shadow
    /// execution).
    pub resets: bool,
}

/// Result of lowering: the target function plus metadata the engines use.
#[derive(Clone, Debug)]
pub struct TargetInfo {
    /// The target program `c''` (no sampling commands; `havoc`s, cost
    /// updates, and the final budget assert).
    pub function: Function,
    /// The rescaled privacy budget bound.
    pub scaled_budget: Expr,
    /// Cost sites in source order.
    pub sites: Vec<CostSite>,
}

/// Lowering failure.
#[derive(Clone, Debug, PartialEq)]
pub struct LowerTargetError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LowerTargetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "target lowering failed: {}", self.message)
    }
}

impl std::error::Error for LowerTargetError {}

fn err(message: impl Into<String>) -> LowerTargetError {
    LowerTargetError {
        message: message.into(),
    }
}

/// A monomial `coeff · Πᵥ v^pᵥ` over parameter variables.
#[derive(Clone, Debug, PartialEq)]
struct Monomial {
    coeff: Rat,
    pows: BTreeMap<String, i32>,
}

impl Monomial {
    fn constant(coeff: Rat) -> Monomial {
        Monomial {
            coeff,
            pows: BTreeMap::new(),
        }
    }

    fn var(name: &str) -> Monomial {
        let mut pows = BTreeMap::new();
        pows.insert(name.to_string(), 1);
        Monomial {
            coeff: Rat::ONE,
            pows,
        }
    }

    fn mul(mut self, other: &Monomial) -> Monomial {
        self.coeff *= other.coeff;
        for (v, p) in &other.pows {
            let e = self.pows.entry(v.clone()).or_insert(0);
            *e += p;
            if *e == 0 {
                self.pows.remove(v);
            }
        }
        self
    }

    fn recip(self) -> Option<Monomial> {
        if self.coeff.is_zero() {
            return None;
        }
        Some(Monomial {
            coeff: self.coeff.recip(),
            pows: self.pows.into_iter().map(|(v, p)| (v, -p)).collect(),
        })
    }

    /// Renders the monomial as an expression (only non-negative powers).
    fn to_expr(&self) -> Option<Expr> {
        let mut out = Expr::Num(self.coeff);
        for (v, p) in &self.pows {
            if *p < 0 {
                return None;
            }
            for _ in 0..*p {
                out = out.mul(Expr::var(v.clone()));
            }
        }
        Some(out)
    }
}

/// Parses an expression as a monomial over symbolic parameters.
fn parse_monomial(e: &Expr) -> Option<Monomial> {
    match e {
        Expr::Num(r) => Some(Monomial::constant(*r)),
        Expr::Var(n) if !n.is_hat() => Some(Monomial::var(&n.base)),
        Expr::Binary(BinOp::Mul, a, b) => Some(parse_monomial(a)?.mul(&parse_monomial(b)?)),
        Expr::Binary(BinOp::Div, a, b) => {
            Some(parse_monomial(a)?.mul(&parse_monomial(b)?.recip()?))
        }
        Expr::Unary(shadowdp_syntax::UnOp::Neg, inner) => {
            let m = parse_monomial(inner)?;
            Some(Monomial {
                coeff: -m.coeff,
                pows: m.pows,
            })
        }
        _ => None,
    }
}

fn lcm(a: i128, b: i128) -> i128 {
    fn gcd(mut a: i128, mut b: i128) -> i128 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a.max(1)
    }
    (a / gcd(a, b)) * b
}

/// Substitutes a concrete `eps` in fix-ε mode.
fn fix_eps(e: &Expr, mode: &VerifyMode) -> Expr {
    match mode {
        VerifyMode::Scaled => e.clone(),
        VerifyMode::FixEps(v) => e.subst(&Name::plain("eps"), &Expr::Num(*v)),
    }
}

/// Collects the `1/r` monomials of every sampling site (post fix-ε).
fn collect_site_monomials(
    cmds: &[Cmd],
    mode: &VerifyMode,
    depth: usize,
    out: &mut Vec<(Monomial, usize)>,
) -> Result<(), LowerTargetError> {
    for c in cmds {
        match &c.kind {
            CmdKind::Sample { dist, .. } => {
                let RandExpr::Lap(scale) = dist;
                let scale = fix_eps(scale, mode);
                let m = parse_monomial(&scale)
                    .and_then(Monomial::recip)
                    .ok_or_else(|| {
                        err(format!(
                            "cannot express Laplace scale `{}` as a parameter monomial",
                            pretty_expr(&scale)
                        ))
                    })?;
                out.push((m, depth));
            }
            CmdKind::If(_, a, b) => {
                collect_site_monomials(a, mode, depth, out)?;
                collect_site_monomials(b, mode, depth, out)?;
            }
            CmdKind::While { body, .. } => {
                collect_site_monomials(body, mode, depth + 1, out)?;
            }
            _ => {}
        }
    }
    Ok(())
}

/// Lowers the transformed program `c'` into the target language, rescaling
/// privacy costs into linear form.
///
/// # Errors
///
/// Fails when a Laplace scale or the budget cannot be expressed as a
/// parameter monomial, or when the program already uses the reserved
/// variable `v_eps`.
pub fn lower_to_target(
    transformed: &Function,
    mode: VerifyMode,
) -> Result<TargetInfo, LowerTargetError> {
    // Reserved-name check.
    if transformed.params.iter().any(|p| p.name == V_EPS) {
        return Err(err("the program uses the reserved variable `v_eps`"));
    }

    // Gather site monomials and the budget monomial.
    let mut monos: Vec<(Monomial, usize)> = Vec::new();
    collect_site_monomials(&transformed.body, &mode, 0, &mut monos)?;
    let budget_e = fix_eps(&transformed.budget, &mode);
    let budget_m = parse_monomial(&budget_e).ok_or_else(|| {
        err(format!(
            "cannot express budget `{}` as a parameter monomial",
            pretty_expr(&budget_e)
        ))
    })?;

    // Choose μ: for every parameter appearing anywhere, cancel the minimum
    // power across all sites and the budget, and clear coefficient
    // denominators.
    let mut min_pows: BTreeMap<String, i32> = BTreeMap::new();
    let mut all_vars: Vec<String> = Vec::new();
    for (m, _) in monos.iter().chain(std::iter::once(&(budget_m.clone(), 0))) {
        for v in m.pows.keys() {
            if !all_vars.contains(v) {
                all_vars.push(v.clone());
            }
        }
    }
    for v in &all_vars {
        let mn = monos
            .iter()
            .map(|(m, _)| m.pows.get(v).copied().unwrap_or(0))
            .chain(std::iter::once(budget_m.pows.get(v).copied().unwrap_or(0)))
            .min()
            .unwrap_or(0);
        min_pows.insert(v.clone(), mn);
    }
    let mut denom_lcm = 1i128;
    for (m, _) in monos.iter().chain(std::iter::once(&(budget_m.clone(), 0))) {
        denom_lcm = lcm(denom_lcm, m.coeff.denom());
    }
    let mu = Monomial {
        coeff: Rat::int(denom_lcm),
        pows: min_pows.iter().map(|(v, p)| (v.clone(), -p)).collect(),
    };

    // μ must be positive: each parameter with a non-zero power in μ needs a
    // declared positivity precondition.
    for (v, p) in &mu.pows {
        if *p == 0 {
            continue;
        }
        let positive_declared = transformed
            .preconditions
            .iter()
            .any(|pr| matches!(pr, Precondition::Plain(e) if declares_positive(e, v)));
        if !positive_declared {
            return Err(err(format!(
                "cost rescaling needs `{v} > 0` (or `{v} >= 1`) as a declared \
                 precondition"
            )));
        }
    }

    let scaled_budget = budget_m
        .clone()
        .mul(&mu)
        .to_expr()
        .ok_or_else(|| err("budget did not linearize"))?;

    // Rewrite the body.
    let mut sites = Vec::new();
    let mut body = lower_cmds(&transformed.body, &mode, &mu, &scaled_budget, 0, &mut sites)?;
    body.insert(
        0,
        Cmd::synth(CmdKind::Assign(Name::plain(V_EPS), Expr::int(0))),
    );

    Ok(TargetInfo {
        function: Function {
            name: transformed.name.clone(),
            params: transformed.params.clone(),
            ret: transformed.ret.clone(),
            preconditions: transformed.preconditions.clone(),
            budget: transformed.budget.clone(),
            body,
        },
        scaled_budget,
        sites,
    })
}

/// Whether `e` is a positivity declaration for `v` (`v > 0`, `v >= k` with
/// `k > 0`, or `k < v` / `k <= v`).
fn declares_positive(e: &Expr, v: &str) -> bool {
    let is_v = |x: &Expr| matches!(x, Expr::Var(n) if n.base == v && !n.is_hat());
    let pos_const = |x: &Expr| matches!(x, Expr::Num(r) if r.is_positive());
    let nonneg_const = |x: &Expr| matches!(x, Expr::Num(r) if !r.is_negative());
    e.conjuncts().into_iter().any(|c| match c {
        Expr::Binary(BinOp::Gt, a, b) => is_v(a) && nonneg_const(b),
        Expr::Binary(BinOp::Ge, a, b) => is_v(a) && pos_const(b),
        Expr::Binary(BinOp::Lt, a, b) => nonneg_const(a) && is_v(b),
        Expr::Binary(BinOp::Le, a, b) => pos_const(a) && is_v(b),
        _ => false,
    })
}

fn lower_cmds(
    cmds: &[Cmd],
    mode: &VerifyMode,
    mu: &Monomial,
    scaled_budget: &Expr,
    depth: usize,
    sites: &mut Vec<CostSite>,
) -> Result<Vec<Cmd>, LowerTargetError> {
    let mut out = Vec::new();
    for c in cmds {
        match &c.kind {
            CmdKind::Sample {
                var,
                dist,
                selector,
                align,
            } => {
                let RandExpr::Lap(scale) = dist;
                let scale = fix_eps(scale, mode);
                let inv_scale = parse_monomial(&scale)
                    .and_then(Monomial::recip)
                    .ok_or_else(|| err("unparseable scale"))?;
                let scaled = inv_scale.mul(mu);
                // scaled increment = |align| · coeff · leftover-vars
                let monomial_part = scaled.to_expr().ok_or_else(|| {
                    err(format!(
                        "scale `{}` leaves a negative parameter power after \
                             rescaling; unsupported cost shape",
                        pretty_expr(&scale)
                    ))
                })?;
                let increment = fix_eps(align, mode).abs().mul(monomial_part);
                let resets = selector.uses_shadow();
                sites.push(CostSite {
                    scaled_increment: increment.clone(),
                    loop_depth: depth,
                    resets,
                });
                out.push(Cmd {
                    kind: CmdKind::Havoc(var.clone()),
                    span: c.span,
                });
                // v_eps := S(⟨v_eps, 0⟩) + increment
                let base = selector.select(Expr::var(V_EPS), Expr::int(0));
                out.push(Cmd {
                    kind: CmdKind::Assign(Name::plain(V_EPS), base.add(increment)),
                    span: c.span,
                });
            }
            CmdKind::If(cond, a, b) => {
                let la = lower_cmds(a, mode, mu, scaled_budget, depth, sites)?;
                let lb = lower_cmds(b, mode, mu, scaled_budget, depth, sites)?;
                out.push(Cmd {
                    kind: CmdKind::If(cond.clone(), la, lb),
                    span: c.span,
                });
            }
            CmdKind::While {
                cond,
                invariants,
                body,
            } => {
                let lb = lower_cmds(body, mode, mu, scaled_budget, depth + 1, sites)?;
                out.push(Cmd {
                    kind: CmdKind::While {
                        cond: cond.clone(),
                        invariants: invariants.clone(),
                        body: lb,
                    },
                    span: c.span,
                });
            }
            CmdKind::Return(e) => {
                out.push(Cmd::synth(CmdKind::Assert(Expr::cmp_op(
                    BinOp::Le,
                    Expr::var(V_EPS),
                    scaled_budget.clone(),
                ))));
                out.push(Cmd {
                    kind: CmdKind::Return(e.clone()),
                    span: c.span,
                });
            }
            _ => out.push(c.clone()),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowdp_syntax::{parse_function, pretty_function};
    use shadowdp_typing::check_function;

    fn lower_src(src: &str, mode: VerifyMode) -> TargetInfo {
        let f = parse_function(src).unwrap();
        let t = check_function(&f).unwrap();
        lower_to_target(&t.function, mode).unwrap()
    }

    const LAPLACE_MECH: &str = "function AddNoise(eps: num(0,0), x: num(1,1))
        returns out: num(0,0)
        precondition eps > 0
        {
            eta := lap(1 / eps) { select: aligned, align: -1 };
            out := x + eta;
        }";

    #[test]
    fn laplace_mechanism_lowering() {
        let info = lower_src(LAPLACE_MECH, VerifyMode::Scaled);
        let printed = pretty_function(&info.function);
        // havoc replaces sampling; v_eps initialized and asserted.
        assert!(printed.contains("havoc eta;"), "{printed}");
        assert!(printed.contains("v_eps := 0;"), "{printed}");
        // increment |−1| · μ·(1/r) with μ = 1/eps: |−1|·1 = 1 (folded)
        assert!(printed.contains("v_eps := v_eps + 1;"), "{printed}");
        // budget eps scaled by 1/eps = 1
        assert!(printed.contains("assert(v_eps <= 1);"), "{printed}");
        assert_eq!(info.sites.len(), 1);
        assert!(!info.sites[0].resets);
        assert_eq!(info.sites[0].loop_depth, 0);
    }

    #[test]
    fn missing_positivity_precondition_is_reported() {
        let src = "function AddNoise(eps: num(0,0), x: num(1,1))
            returns out: num(0,0)
            {
                eta := lap(1 / eps) { select: aligned, align: -1 };
                out := x + eta;
            }";
        let f = parse_function(src).unwrap();
        let t = check_function(&f).unwrap();
        let e = lower_to_target(&t.function, VerifyMode::Scaled).unwrap_err();
        assert!(e.message.contains("eps > 0"), "{e}");
    }

    #[test]
    fn fix_eps_substitutes() {
        let info = lower_src(LAPLACE_MECH, VerifyMode::FixEps(Rat::int(2)));
        let printed = pretty_function(&info.function);
        // with eps = 2 nothing needs rescaling beyond constants: budget 2
        assert!(printed.contains("assert(v_eps <= 2);"), "{printed}");
    }

    #[test]
    fn svt_scaling_produces_linear_costs() {
        // Mixed denominators eps/2 and eps/(4N): μ = 4N/eps.
        let src = "function SVT(eps, size, T, NN: num(0,0), q: list num(*,*))
            returns out: list bool
            precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1 && ~q[k] == ^q[k]
            precondition eps > 0
            precondition NN >= 1
            precondition size >= 0
            {
                out := nil;
                eta1 := lap(2 / eps) { select: aligned, align: 1 };
                tt := T + eta1;
                count := 0; i := 0;
                while (count < NN && i < size) {
                    eta2 := lap(4 * NN / eps) { select: aligned,
                        align: q[i] + eta2 >= tt ? 2 : 0 };
                    if (q[i] + eta2 >= tt) {
                        out := true :: out;
                        count := count + 1;
                    } else {
                        out := false :: out;
                    }
                    i := i + 1;
                }
            }";
        let info = lower_src(src, VerifyMode::Scaled);
        let printed = pretty_function(&info.function);
        // budget eps · (4N/eps) = 4N
        assert!(printed.contains("assert(v_eps <= 4 * NN);"), "{printed}");
        // η1 site: |1| · (eps/2) · (4N/eps) = 2N (|1| folded away)
        assert!(printed.contains("v_eps := v_eps + 2 * NN;"), "{printed}");
        // η2 site: |Ω?2:0| · 1
        assert!(
            printed.contains("v_eps := v_eps + abs(q[i] + eta2 >= tt ? 2 : 0)"),
            "{printed}"
        );
        assert_eq!(info.sites.len(), 2);
        assert_eq!(info.sites[0].loop_depth, 0);
        assert_eq!(info.sites[1].loop_depth, 1);
    }

    #[test]
    fn selector_reset_shows_in_cost_update() {
        let src = "function NoisyMax(eps, size: num(0,0), q: list num(*,*))
            returns max: num(0,*)
            precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1 && ~q[k] == ^q[k]
            precondition eps > 0
            precondition size >= 0
            {
                i := 0; bq := 0; max := 0;
                while (i < size) {
                    eta := lap(2 / eps) { select: q[i] + eta > bq || i == 0 ? shadow : aligned,
                                          align:  q[i] + eta > bq || i == 0 ? 2 : 0 };
                    if (q[i] + eta > bq || i == 0) {
                        max := i;
                        bq := q[i] + eta;
                    }
                    i := i + 1;
                }
            }";
        let info = lower_src(src, VerifyMode::Scaled);
        let printed = pretty_function(&info.function);
        // cost reset: v_eps := (Ω ? 0 : v_eps) + |Ω ? 2 : 0| · 1
        assert!(
            printed.contains(
                "v_eps := (q[i] + eta > bq || i == 0 ? 0 : v_eps) + abs(q[i] + eta > bq || i == 0 ? 2 : 0)"
            ),
            "{printed}"
        );
        // budget eps · 2/eps = 2
        assert!(printed.contains("assert(v_eps <= 2);"), "{printed}");
        assert!(info.sites[0].resets);
    }

    #[test]
    fn declares_positive_forms() {
        use shadowdp_syntax::parse_expr;
        assert!(declares_positive(&parse_expr("eps > 0").unwrap(), "eps"));
        assert!(declares_positive(&parse_expr("NN >= 1").unwrap(), "NN"));
        assert!(declares_positive(&parse_expr("0 < eps").unwrap(), "eps"));
        assert!(!declares_positive(&parse_expr("eps >= 0").unwrap(), "eps"));
        assert!(!declares_positive(&parse_expr("eps > 0").unwrap(), "NN"));
    }
}
