//! Differential test for `LinExpr` against a reference model: a constant
//! plus a `BTreeMap<Symbol, Rat>` of nonzero coefficients, with the map
//! operations written out plainly. Random programs of additions,
//! subtractions (of owned and of borrowed operands), negations, scalings (by zero too), `add_term`s (half of
//! them cancelling a coefficient exactly) and substitutions run on a few
//! slots of both, and after every step each slot must agree on the term
//! order, every coefficient, `is_constant`, equality with every other slot
//! and the rendered text.
//!
//! The variables are interned in an order unlike their names' order, so
//! that a representation ordering terms by name rather than by symbol
//! would show.

use std::collections::BTreeMap;

use proptest::prelude::*;
use shadowdp_num::Rat;
use shadowdp_solver::{LinExpr, Symbol};

const SLOTS: usize = 4;
const NAMES: [&str; 6] = ["lm_e", "lm_b", "lm_f", "lm_a", "lm_d", "lm_c"];

fn vars() -> Vec<Symbol> {
    NAMES.iter().map(|n| Symbol::intern(n)).collect()
}

/// The reference: `constant + Σ coeffs[x]·x`, no zero coefficient stored.
#[derive(Clone, Debug, Default, PartialEq)]
struct Model {
    constant: Rat,
    coeffs: BTreeMap<Symbol, Rat>,
}

impl Model {
    fn var(x: Symbol) -> Model {
        let mut m = Model::default();
        m.coeffs.insert(x, Rat::ONE);
        m
    }

    fn add_term(&mut self, x: Symbol, k: Rat) {
        let c = self.coeffs.get(&x).copied().unwrap_or(Rat::ZERO) + k;
        if c.is_zero() {
            self.coeffs.remove(&x);
        } else {
            self.coeffs.insert(x, c);
        }
    }

    fn plus_scaled(&self, rhs: &Model, k: Rat) -> Model {
        let mut out = self.clone();
        out.constant += rhs.constant * k;
        for (&x, &c) in &rhs.coeffs {
            out.add_term(x, c * k);
        }
        out
    }

    fn scale(&self, k: Rat) -> Model {
        Model::default().plus_scaled(self, k)
    }

    fn subst(&self, x: Symbol, r: &Model) -> Model {
        let Some(&k) = self.coeffs.get(&x) else {
            return self.clone();
        };
        let mut rest = self.clone();
        rest.coeffs.remove(&x);
        rest.plus_scaled(r, k)
    }

    fn render(&self) -> String {
        let mut out = String::new();
        if !self.constant.is_zero() || self.coeffs.is_empty() {
            out.push_str(&self.constant.to_string());
        }
        for (&x, &k) in &self.coeffs {
            let term = match (out.is_empty(), k.is_negative()) {
                (true, _) if k == Rat::ONE => format!("{x}"),
                (true, _) => format!("{k}*{x}"),
                (false, true) if k == -Rat::ONE => format!(" - {x}"),
                (false, true) => format!(" - {}*{x}", -k),
                (false, false) if k == Rat::ONE => format!(" + {x}"),
                (false, false) => format!(" + {k}*{x}"),
            };
            out.push_str(&term);
        }
        out
    }
}

fn assert_agrees(e: &LinExpr, m: &Model, vars: &[Symbol]) {
    let terms: Vec<(Symbol, Rat)> = e.terms().collect();
    let expected: Vec<(Symbol, Rat)> = m.coeffs.iter().map(|(&x, &k)| (x, k)).collect();
    assert_eq!(terms, expected, "term order or coefficients");
    assert_eq!(
        e.vars().collect::<Vec<_>>(),
        m.coeffs.keys().copied().collect::<Vec<_>>()
    );
    for &x in vars {
        assert_eq!(e.coeff(x), m.coeffs.get(&x).copied().unwrap_or(Rat::ZERO));
    }
    assert_eq!(e.constant_part(), m.constant);
    assert_eq!(e.is_constant(), m.coeffs.is_empty());
    assert_eq!(e.to_string(), m.render());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn linexpr_matches_btreemap_model(
        program in proptest::collection::vec(
            (0u8..10, 0usize..SLOTS, 0usize..SLOTS, 0usize..NAMES.len(), (-3i128..=3, 1i128..=3)),
            1..48,
        )
    ) {
        let vars = vars();
        let mut exprs: Vec<LinExpr> = (0..SLOTS).map(|i| LinExpr::var(vars[i])).collect();
        let mut models: Vec<Model> = (0..SLOTS).map(|i| Model::var(vars[i])).collect();
        for (op, i, j, v, (n, d)) in program {
            let (x, k) = (vars[v], Rat::new(n, d));
            let (rhs, rhs_model) = (exprs[j].clone(), models[j].clone());
            match op {
                0 => {
                    exprs[i] = exprs[i].clone() + rhs;
                    models[i] = models[i].plus_scaled(&rhs_model, Rat::ONE);
                }
                1 => {
                    exprs[i] = exprs[i].clone() - rhs;
                    models[i] = models[i].plus_scaled(&rhs_model, -Rat::ONE);
                }
                2 => {
                    exprs[i] = -exprs[i].clone();
                    models[i] = models[i].scale(-Rat::ONE);
                }
                3 => {
                    exprs[i] = exprs[i].clone().scale(k);
                    models[i] = models[i].scale(k);
                }
                4 => {
                    exprs[i].add_term(x, k);
                    models[i].add_term(x, k);
                }
                5 => {
                    // Cancels `x` exactly when `x` is present.
                    let k = -models[i].coeffs.get(&x).copied().unwrap_or(k);
                    exprs[i].add_term(x, k);
                    models[i].add_term(x, k);
                }
                6 => {
                    exprs[i] = exprs[i].subst(x, &rhs);
                    models[i] = models[i].subst(x, &rhs_model);
                }
                7 => {
                    exprs[i] = LinExpr::var(x) + LinExpr::constant(k);
                    models[i] = Model {
                        constant: k,
                        ..Model::var(x)
                    };
                }
                8 => {
                    exprs[i] = exprs[i].clone() + LinExpr::constant(k);
                    models[i].constant += k;
                }
                _ => {
                    exprs[i] = &exprs[i] - &rhs;
                    models[i] = models[i].plus_scaled(&rhs_model, -Rat::ONE);
                }
            }
            for s in 0..SLOTS {
                assert_agrees(&exprs[s], &models[s], &vars);
                for t in 0..SLOTS {
                    assert_eq!(exprs[s] == exprs[t], models[s] == models[t], "slots {s} and {t}");
                }
            }
        }
    }
}

#[test]
fn render_follows_symbol_order_not_name_order() {
    let v = vars();
    // `lm_e` was interned before `lm_a`, so it prints first.
    let e = LinExpr::var(v[3]).scale(Rat::int(-2))
        + LinExpr::var(v[0])
        + LinExpr::constant(Rat::new(1, 2));
    assert_eq!(e.to_string(), "1/2 + lm_e - 2*lm_a");
}
