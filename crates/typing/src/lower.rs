//! Lowering ShadowDP expressions to solver terms.
//!
//! Lowered [`Term`]s are interned into the calling thread's arena shard
//! (the chainable API in `shadowdp_solver::term`), so they must be
//! consumed — typing side conditions discharged, obligations solved — on
//! the same thread that lowered them. Each parallel corpus worker
//! therefore lowers its own algorithm from scratch; identical side
//! conditions still share solver verdicts across workers through the
//! fingerprint-keyed query memo.
//!
//! The solver speaks QF-LRA over scalar symbols, so list indexing is
//! *skolemized*: each syntactically distinct `q[idx]` becomes the scalar
//! symbol `q[idx-pretty-printed]`. Two occurrences with syntactically equal
//! indices share a symbol; distinct indices get unrelated symbols, which is
//! conservative (fewer facts, never wrong answers on validity).

use std::collections::BTreeSet;
use std::fmt;

use shadowdp_solver::{Symbol, Term};
use shadowdp_syntax::{pretty_expr, BinOp, Expr, Name, UnOp};

/// Failure to lower an expression (constructs outside the solvable
/// fragment, e.g. list values in arithmetic position).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// Description of the offending construct.
    pub message: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot lower to solver term: {}", self.message)
    }
}

impl std::error::Error for LowerError {}

fn err(message: impl Into<String>) -> LowerError {
    LowerError {
        message: message.into(),
    }
}

/// The interned symbol naming a (possibly hatted, possibly indexed)
/// variable.
pub fn symbol_for(name: &Name) -> Symbol {
    Symbol::intern(&name.to_string())
}

/// The interned skolem symbol for `base[idx]`.
pub fn index_symbol(base: &Name, idx: &Expr) -> Symbol {
    Symbol::intern(&format!("{base}[{}]", pretty_expr(idx)))
}

/// Context for lowering: which variables are boolean-sorted.
#[derive(Debug, Default, Clone)]
pub struct LowerCtx {
    /// Interned names of boolean variables; everything else is real.
    pub bool_vars: BTreeSet<Symbol>,
}

impl LowerCtx {
    /// Creates an empty (all-real) context.
    pub fn new() -> LowerCtx {
        LowerCtx::default()
    }
}

/// Lowers a numeric ShadowDP expression to a real-sorted solver term.
///
/// # Errors
///
/// Fails on list literals/cons and boolean subexpressions in numeric
/// position other than ternary guards.
pub fn lower_num(e: &Expr, ctx: &LowerCtx) -> Result<Term, LowerError> {
    match e {
        Expr::Num(r) => Ok(Term::rat(*r)),
        Expr::Bool(_) => Err(err("boolean literal in numeric position")),
        Expr::Nil => Err(err("nil in numeric position")),
        Expr::Var(n) => {
            let s = symbol_for(n);
            if ctx.bool_vars.contains(&s) {
                Err(err(format!("boolean variable `{s}` in numeric position")))
            } else {
                Ok(Term::real_var(s))
            }
        }
        Expr::Unary(UnOp::Neg, inner) => Ok(lower_num(inner, ctx)?.neg()),
        Expr::Unary(UnOp::Abs, inner) => Ok(lower_num(inner, ctx)?.abs()),
        Expr::Unary(UnOp::Sgn, inner) => {
            // sgn(x) = ite(x > 0, 1, ite(x < 0, -1, 0))
            let x = lower_num(inner, ctx)?;
            Ok(Term::ite(
                x.gt(Term::int(0)),
                Term::int(1),
                Term::ite(x.lt(Term::int(0)), Term::int(-1), Term::int(0)),
            ))
        }
        Expr::Unary(UnOp::Not, _) => Err(err("boolean negation in numeric position")),
        Expr::Binary(op, a, b) => {
            let op = *op;
            if op.is_comparison() || op.is_boolean() {
                return Err(err(format!(
                    "boolean operator `{}` in numeric position",
                    op.symbol()
                )));
            }
            let ta = lower_num(a, ctx)?;
            let tb = lower_num(b, ctx)?;
            Ok(match op {
                BinOp::Add => ta.add(tb),
                BinOp::Sub => ta.sub(tb),
                BinOp::Mul => ta.mul(tb),
                BinOp::Div => ta.div(tb),
                BinOp::Mod => ta.rem(tb),
                _ => unreachable!("filtered above"),
            })
        }
        Expr::Ternary(c, t, f) => Ok(Term::ite(
            lower_bool(c, ctx)?,
            lower_num(t, ctx)?,
            lower_num(f, ctx)?,
        )),
        Expr::Index(base, idx) => match &**base {
            Expr::Var(n) => Ok(Term::real_var(index_symbol(n, idx))),
            _ => Err(err("indexing a non-variable list expression")),
        },
        Expr::Cons(..) => Err(err("list cons in numeric position")),
    }
}

/// Lowers a boolean ShadowDP expression to a bool-sorted solver term.
///
/// # Errors
///
/// Fails on constructs outside the boolean fragment.
pub fn lower_bool(e: &Expr, ctx: &LowerCtx) -> Result<Term, LowerError> {
    match e {
        Expr::Bool(b) => Ok(Term::bool_const(*b)),
        Expr::Var(n) => {
            let s = symbol_for(n);
            if ctx.bool_vars.contains(&s) {
                Ok(Term::bool_var(s))
            } else {
                Err(err(format!("real variable `{s}` in boolean position")))
            }
        }
        Expr::Unary(UnOp::Not, inner) => Ok(lower_bool(inner, ctx)?.not()),
        Expr::Binary(op, a, b) => match op {
            BinOp::And => Ok(lower_bool(a, ctx)?.and(lower_bool(b, ctx)?)),
            BinOp::Or => Ok(lower_bool(a, ctx)?.or(lower_bool(b, ctx)?)),
            BinOp::Lt => Ok(lower_num(a, ctx)?.lt(lower_num(b, ctx)?)),
            BinOp::Le => Ok(lower_num(a, ctx)?.le(lower_num(b, ctx)?)),
            BinOp::Gt => Ok(lower_num(a, ctx)?.gt(lower_num(b, ctx)?)),
            BinOp::Ge => Ok(lower_num(a, ctx)?.ge(lower_num(b, ctx)?)),
            BinOp::Eq => Ok(lower_num(a, ctx)?.eq_num(lower_num(b, ctx)?)),
            BinOp::Ne => Ok(lower_num(a, ctx)?.ne_num(lower_num(b, ctx)?)),
            _ => Err(err(format!(
                "numeric operator `{}` in boolean position",
                op.symbol()
            ))),
        },
        Expr::Ternary(c, t, f) => {
            // boolean-valued ternary: (c ∧ t) ∨ (¬c ∧ f)
            let c1 = lower_bool(c, ctx)?;
            let t1 = lower_bool(t, ctx)?;
            let f1 = lower_bool(f, ctx)?;
            Ok(c1.and(t1).or(c1.not().and(f1)))
        }
        _ => Err(err("expression is not boolean")),
    }
}

/// Collects every `base[idx]` occurrence (plain or hatted base) in an
/// expression, in pre-order, de-duplicated by `(base-name, pretty(idx))`.
pub fn collect_index_occurrences(e: &Expr, out: &mut Vec<(Name, Expr)>) {
    e.any_subexpr(&mut |x| {
        let Expr::Index(base, idx) = x else {
            return false;
        };
        let Expr::Var(n) = &**base else { return false };
        if !out
            .iter()
            .any(|(b, i)| b == n && pretty_expr(i) == pretty_expr(idx))
        {
            out.push((n.clone(), (**idx).clone()));
        }
        false
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowdp_syntax::parse_expr;

    fn ctx() -> LowerCtx {
        LowerCtx::new()
    }

    #[test]
    fn lowers_arithmetic() {
        let e = parse_expr("x + 2 * y - 1").unwrap();
        let t = lower_num(&e, &ctx()).unwrap();
        let vars = t.vars();
        assert!(vars.contains(&"x".to_string()));
        assert!(vars.contains(&"y".to_string()));
    }

    #[test]
    fn lowers_comparisons_and_connectives() {
        let e = parse_expr("q[i] + eta > bq || i == 0").unwrap();
        let t = lower_bool(&e, &ctx()).unwrap();
        assert!(t.vars().contains(&"q[i]".to_string()));
        assert!(t.vars().contains(&"eta".to_string()));
    }

    #[test]
    fn hat_vars_get_distinct_symbols() {
        let e = parse_expr("^q[i] + ~q[i] + q[i]").unwrap();
        let t = lower_num(&e, &ctx()).unwrap();
        let vars = t.vars();
        assert!(vars.contains(&"^q[i]".to_string()));
        assert!(vars.contains(&"~q[i]".to_string()));
        assert!(vars.contains(&"q[i]".to_string()));
    }

    #[test]
    fn index_skolemization_is_syntactic() {
        let a = lower_num(&parse_expr("q[i]").unwrap(), &ctx()).unwrap();
        let b = lower_num(&parse_expr("q[i + 0]").unwrap(), &ctx()).unwrap();
        // `i + 0` folds to `i` in the parser's smart constructors? It does
        // not (only literal arithmetic folds); so these are distinct
        // symbols — conservative but sound.
        assert_eq!(a.vars(), vec!["q[i]".to_string()]);
        assert!(b.vars() != a.vars() || pretty_expr(&parse_expr("q[i + 0]").unwrap()) == "q[i]");
    }

    #[test]
    fn bool_vars_respected() {
        let mut c = ctx();
        c.bool_vars.insert("flag".into());
        assert!(lower_bool(&parse_expr("flag").unwrap(), &c).is_ok());
        assert!(lower_num(&parse_expr("flag").unwrap(), &c).is_err());
        assert!(lower_bool(&parse_expr("x").unwrap(), &c).is_err());
    }

    #[test]
    fn collect_indices() {
        let e = parse_expr("q[i] + ^q[i] + q[i + 1] > q[i]").unwrap();
        let mut out = Vec::new();
        collect_index_occurrences(&e, &mut out);
        // q[i], ^q[i], q[i+1] — deduplicated
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn sgn_lowering() {
        let e = parse_expr("sgn(x)").unwrap();
        let t = lower_num(&e, &ctx()).unwrap();
        assert!(matches!(t.view(), shadowdp_solver::TermNode::Ite(..)));
    }

    #[test]
    fn rejects_mixed_sorts() {
        assert!(lower_num(&parse_expr("true").unwrap(), &ctx()).is_err());
        assert!(lower_bool(&parse_expr("1 + 2").unwrap(), &ctx()).is_err());
        assert!(lower_num(&parse_expr("1 :: nil").unwrap(), &ctx()).is_err());
    }
}
