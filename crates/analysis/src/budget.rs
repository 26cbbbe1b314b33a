//! SD02 — static privacy-budget accounting.
//!
//! Two checks over the Laplace sample sites:
//!
//! 1. **Unbounded loop cost.** A cost-bearing sample inside a loop is
//!    flagged unless something statically amortizes or bounds it: the
//!    selector can switch to the shadow execution (the paper's Noisy
//!    Max trick pays for at most one iteration), a guard conjunct
//!    `v < E` / `v <= E` bounds the iterations by a constant or by a
//!    quantity the scale compensates for (the SVT family's `count < NN`
//!    against a `·NN/eps` scale), or the alignment is built from hat
//!    (distance) variables under `atmostone` adjacency, where only one
//!    iteration can pay a nonzero cost (the sum family).
//! 2. **Definite overrun.** Straight-line samples with a constant
//!    alignment and a `c/eps` scale have the definite cost
//!    `|align|·eps/c`; their running total must not exceed the declared
//!    budget `k·eps`.

use std::collections::BTreeMap;

use shadowdp_num::Rat;
use shadowdp_syntax::{assigned_vars, BinOp, Cmd, CmdKind, Expr, Function, Name, UnOp};

use crate::diag::{Code, Diagnostic, Severity};
use crate::taint::Class;

/// Constant-folds an expression to a rational, if it is one.
fn const_eval(e: &Expr) -> Option<Rat> {
    match e {
        Expr::Num(r) => Some(*r),
        Expr::Unary(UnOp::Neg, inner) => const_eval(inner).map(|r| -r),
        Expr::Unary(UnOp::Abs, inner) => const_eval(inner).map(Rat::abs),
        Expr::Binary(op, a, b) => {
            let (a, b) = (const_eval(a)?, const_eval(b)?);
            match op {
                BinOp::Add => Some(a + b),
                BinOp::Sub => Some(a - b),
                BinOp::Mul => Some(a * b),
                BinOp::Div if !b.is_zero() => Some(a / b),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Whether the alignment can be nonzero: `false` only when it
/// const-folds to `0` or is a ternary whose arms both fold to `0`.
fn align_may_cost(align: &Expr) -> bool {
    match align {
        Expr::Ternary(_, a, b) => align_may_cost(a) || align_may_cost(b),
        e => const_eval(e).is_none_or(|r| !r.is_zero()),
    }
}

/// Interprets a scale expression as `c / eps`, returning `c`.
fn scale_over_eps(scale: &Expr, eps: &str) -> Option<Rat> {
    if let Expr::Binary(BinOp::Div, num, den) = scale {
        if matches!(&**den, Expr::Var(n) if !n.is_hat() && n.base == eps) {
            return const_eval(num).filter(|c| c.is_positive());
        }
    }
    None
}

/// Interprets the declared budget as `k · eps`, returning `(eps, k)`.
/// The privacy parameter is whatever single plain variable the budget
/// expression mentions (`eps` by default, from the parser).
fn budget_coeff(budget: &Expr) -> Option<(String, Rat)> {
    let vars: Vec<Name> = budget.vars().into_iter().filter(|n| !n.is_hat()).collect();
    let [eps] = vars.as_slice() else { return None };
    let eps = eps.base.clone();
    let k = match budget {
        Expr::Var(_) => Rat::ONE,
        Expr::Binary(BinOp::Mul, a, b) => match (&**a, &**b) {
            (Expr::Num(k), Expr::Var(_)) | (Expr::Var(_), Expr::Num(k)) => *k,
            _ => return None,
        },
        _ => return None,
    };
    k.is_positive().then_some((eps, k))
}

/// Top-level `&&` conjuncts of a guard.
fn conjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Binary(BinOp::And, a, b) => {
            let mut out = conjuncts(a);
            out.extend(conjuncts(b));
            out
        }
        _ => vec![e],
    }
}

/// Whether some guard conjunct `v < E` / `v <= E` statically bounds the
/// loop for cost purposes: `v` is updated in the body and `E` is either
/// a constant or built only from variables the scale compensates for
/// (the `·NN/eps` cancellation).
fn guard_bounds_cost(cond: &Expr, body: &[Cmd], scale: &Expr) -> bool {
    let modified = assigned_vars(body);
    let scale_vars: Vec<String> = scale
        .vars()
        .into_iter()
        .filter(|n| !n.is_hat())
        .map(|n| n.base)
        .collect();
    conjuncts(cond).iter().any(|c| {
        let Expr::Binary(BinOp::Lt | BinOp::Le, lhs, rhs) = c else {
            return false;
        };
        let Expr::Var(v) = &**lhs else { return false };
        if v.is_hat() || !modified.contains(&v.base) {
            return false;
        }
        const_eval(rhs).is_some()
            || rhs
                .vars()
                .iter()
                .all(|n| !n.is_hat() && scale_vars.contains(&n.base))
    })
}

/// Whether the alignment is the `atmostone` sum-family shape: it
/// mentions at least one hat (distance) variable and everything else in
/// it is a public plain variable (loop indices). Under one-changed-query
/// adjacency only one iteration can make such an alignment nonzero.
fn align_is_hat_bounded(align: &Expr, atmostone: bool, taint: &BTreeMap<String, Class>) -> bool {
    if !atmostone {
        return false;
    }
    let vars = align.vars();
    let mut saw_hat = false;
    for n in &vars {
        if n.is_hat() {
            saw_hat = true;
        } else if taint.get(&n.base).copied().unwrap_or(Class::Public) != Class::Public {
            return false;
        }
    }
    saw_hat
}

struct BudgetWalker<'a> {
    src: &'a str,
    eps: Option<(String, Rat)>,
    atmostone: bool,
    taint: &'a BTreeMap<String, Class>,
    /// Running definite straight-line cost, as a coefficient of eps.
    spent: Rat,
    /// Nesting depth of `if` branches (samples under a branch are
    /// alternatives, not a definite sequence — never summed).
    branch_depth: usize,
    diags: Vec<Diagnostic>,
}

impl BudgetWalker<'_> {
    /// `loops`: the stack of enclosing `(guard, body)` loops.
    fn walk<'f>(&mut self, cmds: &'f [Cmd], loops: &mut Vec<(&'f Expr, &'f [Cmd])>) {
        for c in cmds {
            match &c.kind {
                CmdKind::Sample {
                    dist,
                    selector,
                    align,
                    ..
                } => {
                    let scale = dist.scale();
                    if !align_may_cost(align) || selector.uses_shadow() {
                        continue;
                    }
                    // Check 1: cost-bearing sample in an unbounded loop.
                    let unbounded = loops
                        .iter()
                        .any(|(cond, body)| !guard_bounds_cost(cond, body, scale));
                    if unbounded && !align_is_hat_bounded(align, self.atmostone, self.taint) {
                        self.diags.push(
                            Diagnostic::new(
                                Code::Sd02,
                                Severity::Warning,
                                c.span,
                                self.src,
                                "privacy cost accumulates in a loop without a static bound",
                            )
                            .with_hint(
                                "bound the costly iterations with a guard the scale \
                                 compensates for (e.g. `count < NN` with an `·NN/eps` scale)",
                            ),
                        );
                    }
                    // Check 2: definite straight-line cost vs budget.
                    if loops.is_empty() && self.branch_depth == 0 {
                        if let (Some((eps, k)), Some(a)) = (self.eps.as_ref(), const_eval(align)) {
                            if let Some(c_scale) = scale_over_eps(scale, eps) {
                                self.spent += a.abs() / c_scale;
                                if self.spent > *k {
                                    let msg = format!(
                                        "definite privacy cost reaches {}·{eps}, exceeding \
                                         the declared budget {}·{eps}",
                                        self.spent, k
                                    );
                                    self.diags.push(
                                        Diagnostic::new(
                                            Code::Sd02,
                                            Severity::Error,
                                            c.span,
                                            self.src,
                                            msg,
                                        )
                                        .with_hint("declare a larger budget or remove a release"),
                                    );
                                }
                            }
                        }
                    }
                }
                CmdKind::If(_, a, b) => {
                    self.branch_depth += 1;
                    self.walk(a, loops);
                    self.walk(b, loops);
                    self.branch_depth -= 1;
                }
                CmdKind::While { cond, body, .. } => {
                    loops.push((cond, body));
                    self.walk(body, loops);
                    loops.pop();
                }
                _ => {}
            }
        }
    }
}

/// Runs the SD02 checks.
pub(crate) fn analyze(f: &Function, src: &str, taint: &BTreeMap<String, Class>) -> Vec<Diagnostic> {
    let mut w = BudgetWalker {
        src,
        eps: budget_coeff(&f.budget),
        atmostone: matches!(f.adjacency(), shadowdp_syntax::Adjacency::OneDiffer),
        taint,
        spent: Rat::ZERO,
        branch_depth: 0,
        diags: Vec::new(),
    };
    w.walk(&f.body, &mut Vec::new());
    w.diags
}
