//! The global invariant Ψ: adjacency preconditions, instantiated on demand.
//!
//! Ψ contains quantifier-free clauses (used as-is) and `forall i :: φ(i)`
//! clauses describing every list element. For a solver query mentioning
//! index terms `t₁, …, tₖ`, each `forall` clause is instantiated at every
//! distinct index term — the standard pattern-based instantiation that
//! suffices for the paper's benchmarks (indices are loop counters).

use shadowdp_solver::Term;
use shadowdp_syntax::{Expr, Function, Name, Precondition};

use crate::lower::{collect_index_occurrences, lower_bool, LowerCtx, LowerError};

/// The lowered adjacency invariant.
#[derive(Debug, Clone, Default)]
pub struct Psi {
    /// Quantifier-free clauses.
    pub plain: Vec<Expr>,
    /// `forall i :: φ(i)` clauses as `(i, φ)`.
    pub foralls: Vec<(String, Expr)>,
    /// Lists declared `atmostone` (used by the verifier's ghost encoding;
    /// typing ignores the constraint, which is sound — fewer assumptions).
    pub at_most_one: Vec<String>,
}

impl Psi {
    /// Extracts Ψ from a function's preconditions.
    pub fn from_function(f: &Function) -> Psi {
        let mut psi = Psi::default();
        for p in &f.preconditions {
            match p {
                Precondition::Plain(e) => psi.plain.push(e.clone()),
                Precondition::Forall { var, body } => psi.foralls.push((var.clone(), body.clone())),
                Precondition::AtMostOne(q) => psi.at_most_one.push(q.clone()),
            }
        }
        psi
    }

    /// Produces the hypotheses relevant to a query: all plain clauses plus
    /// every `forall` clause instantiated at each distinct index term the
    /// query (or the plain clauses) mentions.
    ///
    /// # Errors
    ///
    /// Propagates lowering failures (malformed preconditions).
    pub fn hypotheses_for(
        &self,
        query_exprs: &[&Expr],
        ctx: &LowerCtx,
    ) -> Result<Vec<Term>, LowerError> {
        // Index terms occurring anywhere relevant.
        let mut occs: Vec<(Name, Expr)> = Vec::new();
        for e in query_exprs {
            collect_index_occurrences(e, &mut occs);
        }
        for e in &self.plain {
            collect_index_occurrences(e, &mut occs);
        }
        // Distinct index expressions (the base doesn't matter for
        // instantiation: `forall i :: φ(i)` talks about all of `q`, `^q`,
        // `~q` through φ's own uses).
        let mut index_terms: Vec<Expr> = Vec::new();
        for (_, idx) in &occs {
            if !index_terms.contains(idx) {
                index_terms.push(idx.clone());
            }
        }

        let mut out = Vec::new();
        for e in &self.plain {
            out.push(lower_bool(e, ctx)?);
        }
        for (var, body) in &self.foralls {
            let bound = Name::plain(var.clone());
            for t in &index_terms {
                let inst = body.subst(&bound, t);
                out.push(lower_bool(&inst, ctx)?);
                // Instantiation indices are list positions, hence >= 0 —
                // the paper writes the quantifier as `∀ i ≥ 0`.
                // (Only emit when the index is non-constant.)
                if !matches!(t, Expr::Num(_)) {
                    let nonneg = Expr::cmp_op(shadowdp_syntax::BinOp::Ge, t.clone(), Expr::int(0));
                    out.push(lower_bool(&nonneg, ctx)?);
                }
            }
        }
        Ok(out)
    }

    /// Whether Ψ syntactically guarantees `~q[i] == ^q[i]` for list `q` —
    /// the condition under which a `†`-selecting sampling command may leave
    /// list distances unchanged (rule T-Laplace's environment update).
    pub fn shadow_equals_aligned(&self, list: &str) -> bool {
        self.foralls
            .iter()
            .any(|(var, body)| clause_contains_shadow_eq(body, list, var))
    }
}

/// Looks for a conjunct `~q[i] == ^q[i]` (either orientation) in a forall
/// body.
fn clause_contains_shadow_eq(body: &Expr, list: &str, var: &str) -> bool {
    use shadowdp_syntax::{BinOp, NameKind};
    let is_hat = |e: &Expr, kind: NameKind| match e {
        Expr::Index(base, idx) => matches!(
            (&**base, &**idx),
            (Expr::Var(n), Expr::Var(i)) if n.base == list && i.base == var && n.kind == kind
        ),
        _ => false,
    };
    body.conjuncts().into_iter().any(|c| {
        let Expr::Binary(BinOp::Eq, a, b) = c else {
            return false;
        };
        (is_hat(a, NameKind::HatShadow) && is_hat(b, NameKind::HatAligned))
            || (is_hat(a, NameKind::HatAligned) && is_hat(b, NameKind::HatShadow))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowdp_syntax::parse_function;

    fn noisy_max_header() -> Function {
        parse_function(
            "function NoisyMax(eps, size: num(0,0), q: list num(*,*))
             returns max: num(0,*)
             precondition forall i :: -1 <= ^q[i] && ^q[i] <= 1 && ~q[i] == ^q[i]
             precondition size >= 0
             { max := 0; }",
        )
        .unwrap()
    }

    #[test]
    fn extraction() {
        let psi = Psi::from_function(&noisy_max_header());
        assert_eq!(psi.plain.len(), 1);
        assert_eq!(psi.foralls.len(), 1);
        assert!(psi.at_most_one.is_empty());
    }

    #[test]
    fn instantiation_at_query_indices() {
        let psi = Psi::from_function(&noisy_max_header());
        let query = shadowdp_syntax::parse_expr("q[i] + ^q[i] > bq").unwrap();
        let hyps = psi.hypotheses_for(&[&query], &LowerCtx::new()).unwrap();
        // 1 plain + 3 instantiated (bounds ∧ shadow-eq as one clause) + i>=0
        assert!(hyps.len() >= 3, "got {} hypotheses", hyps.len());
        // The instantiated clause mentions the skolem symbols for index i.
        let all_vars: Vec<String> = hyps.iter().flat_map(|t| t.vars()).collect();
        assert!(all_vars.contains(&"^q[i]".to_string()));
        assert!(all_vars.contains(&"~q[i]".to_string()));
    }

    #[test]
    fn no_indices_no_forall_instances() {
        let psi = Psi::from_function(&noisy_max_header());
        let query = shadowdp_syntax::parse_expr("x > 0").unwrap();
        let hyps = psi.hypotheses_for(&[&query], &LowerCtx::new()).unwrap();
        // only the plain clause
        assert_eq!(hyps.len(), 1);
    }

    #[test]
    fn shadow_eq_detection() {
        let psi = Psi::from_function(&noisy_max_header());
        assert!(psi.shadow_equals_aligned("q"));
        assert!(!psi.shadow_equals_aligned("r"));
        // a function without the clause
        let f = parse_function(
            "function F(q: list num(*,*)) returns o: num(0,0)
             precondition forall i :: -1 <= ^q[i] && ^q[i] <= 1
             { o := 0; }",
        )
        .unwrap();
        assert!(!Psi::from_function(&f).shadow_equals_aligned("q"));
    }

    #[test]
    fn at_most_one_recorded() {
        let f = parse_function(
            "function F(q: list num(*,*)) returns o: num(0,0)
             precondition atmostone q
             { o := 0; }",
        )
        .unwrap();
        let psi = Psi::from_function(&f);
        assert_eq!(psi.at_most_one, vec!["q".to_string()]);
    }
}
