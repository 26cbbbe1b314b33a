//! Linear normal form for numeric terms: `c + Σ aᵢ·xᵢ`.
//!
//! A [`LinExpr`] holds its terms in one vector sorted by [`Symbol`] id,
//! each symbol once and no coefficient zero. Lookups are binary searches
//! over `u32` ids, a sum or difference of two borrowed expressions is one
//! linear merge into one allocation, and every caller sees the terms in
//! symbol-id order: `terms`, `Display`, and the choices Fourier–Motzkin
//! makes from them (`crate::fm`).

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

use shadowdp_num::Rat;

use crate::term::Symbol;

/// A linear expression over real-sorted variables.
///
/// # Examples
///
/// ```
/// use shadowdp_num::Rat;
/// use shadowdp_solver::LinExpr;
///
/// let e = LinExpr::var("x") + LinExpr::var("x") + LinExpr::constant(Rat::int(3));
/// assert_eq!(e.coeff("x"), Rat::int(2));
/// assert_eq!(e.constant_part(), Rat::int(3));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct LinExpr {
    constant: Rat,
    /// Invariant: sorted by symbol, each symbol at most once, no zero
    /// coefficient.
    coeffs: Vec<(Symbol, Rat)>,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: Rat) -> LinExpr {
        LinExpr {
            constant: c,
            coeffs: Vec::new(),
        }
    }

    /// A single variable with coefficient 1.
    pub fn var(name: impl Into<Symbol>) -> LinExpr {
        LinExpr {
            constant: Rat::ZERO,
            coeffs: vec![(name.into(), Rat::ONE)],
        }
    }

    /// The constant part `c`.
    pub fn constant_part(&self) -> Rat {
        self.constant
    }

    /// Where `name`'s term is, or where it would go.
    fn position(&self, name: Symbol) -> Result<usize, usize> {
        self.coeffs.binary_search_by_key(&name, |&(v, _)| v)
    }

    /// The coefficient of `name` (zero if absent).
    pub fn coeff(&self, name: impl Into<Symbol>) -> Rat {
        match self.position(name.into()) {
            Ok(i) => self.coeffs[i].1,
            Err(_) => Rat::ZERO,
        }
    }

    /// Iterates over `(variable, coefficient)` pairs with nonzero
    /// coefficients, in symbol order.
    pub fn terms(&self) -> impl Iterator<Item = (Symbol, Rat)> + '_ {
        self.coeffs.iter().copied()
    }

    /// Whether the expression is a constant (mentions no variables).
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// The variables mentioned, in symbol order.
    pub fn vars(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.coeffs.iter().map(|&(v, _)| v)
    }

    /// Scales by a rational.
    pub fn scale(mut self, k: Rat) -> LinExpr {
        if k.is_zero() {
            return LinExpr::zero();
        }
        self.constant *= k;
        for (_, c) in &mut self.coeffs {
            *c *= k;
        }
        self
    }

    /// Adds `k * name` in place.
    pub fn add_term(&mut self, name: Symbol, k: Rat) {
        if k.is_zero() {
            return;
        }
        match self.position(name) {
            Ok(i) => {
                let c = self.coeffs[i].1 + k;
                if c.is_zero() {
                    self.coeffs.remove(i);
                } else {
                    self.coeffs[i].1 = c;
                }
            }
            Err(i) => self.coeffs.insert(i, (name, k)),
        }
    }

    /// Substitutes `replacement` for `name`, i.e. `self[name := replacement]`.
    pub fn subst(&self, name: Symbol, replacement: &LinExpr) -> LinExpr {
        let k = self.coeff(name);
        if k.is_zero() {
            return self.clone();
        }
        LinExpr {
            constant: self.constant + replacement.constant * k,
            coeffs: merge(
                self.terms().filter(|&(v, _)| v != name),
                replacement.terms().map(|(v, c)| (v, c * k)),
                self.coeffs.len() + replacement.coeffs.len(),
            ),
        }
    }

    /// Evaluates under a variable assignment.
    ///
    /// Missing variables default to zero (the solver always produces total
    /// models over mentioned variables, so this default only matters in
    /// tests).
    pub fn eval(&self, assignment: &BTreeMap<Symbol, Rat>) -> Rat {
        let mut acc = self.constant;
        for (v, k) in &self.coeffs {
            acc += *k * assignment.get(v).copied().unwrap_or(Rat::ZERO);
        }
        acc
    }
}

/// Merges two symbol-sorted term lists into one, adding the coefficients
/// of a symbol both hold and dropping the sums that cancel.
fn merge(
    lhs: impl Iterator<Item = (Symbol, Rat)>,
    rhs: impl Iterator<Item = (Symbol, Rat)>,
    capacity: usize,
) -> Vec<(Symbol, Rat)> {
    let mut out = Vec::with_capacity(capacity);
    let (mut lhs, mut rhs) = (lhs.peekable(), rhs.peekable());
    while let (Some(&(a, x)), Some(&(b, y))) = (lhs.peek(), rhs.peek()) {
        match a.cmp(&b) {
            Ordering::Less => {
                out.push((a, x));
                lhs.next();
            }
            Ordering::Greater => {
                out.push((b, y));
                rhs.next();
            }
            Ordering::Equal => {
                let sum = x + y;
                if !sum.is_zero() {
                    out.push((a, sum));
                }
                lhs.next();
                rhs.next();
            }
        }
    }
    out.extend(lhs);
    out.extend(rhs);
    out
}

impl std::ops::Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self.constant += rhs.constant;
        for (v, k) in rhs.coeffs {
            self.add_term(v, k);
        }
        self
    }
}

impl std::ops::Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + -rhs
    }
}

/// `lhs - rhs` from borrowed operands, built in one allocation
/// (Fourier–Motzkin's `lower - upper`).
impl std::ops::Sub for &LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: &LinExpr) -> LinExpr {
        LinExpr {
            constant: self.constant - rhs.constant,
            coeffs: merge(
                self.terms(),
                rhs.terms().map(|(v, k)| (v, -k)),
                self.coeffs.len() + rhs.coeffs.len(),
            ),
        }
    }
}

impl std::ops::Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        self.constant = -self.constant;
        for (_, k) in &mut self.coeffs {
            *k = -*k;
        }
        self
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        if !self.constant.is_zero() || self.coeffs.is_empty() {
            write!(f, "{}", self.constant)?;
            first = false;
        }
        for (v, k) in &self.coeffs {
            if first {
                if *k == Rat::ONE {
                    write!(f, "{v}")?;
                } else {
                    write!(f, "{k}*{v}")?;
                }
                first = false;
            } else if k.is_negative() {
                if *k == Rat::int(-1) {
                    write!(f, " - {v}")?;
                } else {
                    write!(f, " - {}*{v}", -*k)?;
                }
            } else if *k == Rat::ONE {
                write!(f, " + {v}")?;
            } else {
                write!(f, " + {k}*{v}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_coeffs() {
        let e = LinExpr::var("x").scale(Rat::int(2)) + LinExpr::var("y")
            - LinExpr::constant(Rat::int(5));
        assert_eq!(e.coeff("x"), Rat::int(2));
        assert_eq!(e.coeff("y"), Rat::ONE);
        assert_eq!(e.coeff("z"), Rat::ZERO);
        assert_eq!(e.constant_part(), Rat::int(-5));
    }

    #[test]
    fn cancellation_removes_entries() {
        let e = LinExpr::var("x") - LinExpr::var("x");
        assert!(e.is_constant());
        assert_eq!(e, LinExpr::zero());
    }

    #[test]
    fn subst() {
        // (2x + y + 1)[x := y - 3]  ==  3y - 5
        let e =
            LinExpr::var("x").scale(Rat::int(2)) + LinExpr::var("y") + LinExpr::constant(Rat::ONE);
        let r = LinExpr::var("y") - LinExpr::constant(Rat::int(3));
        let s = e.subst(Symbol::intern("x"), &r);
        assert_eq!(s.coeff("y"), Rat::int(3));
        assert_eq!(s.coeff("x"), Rat::ZERO);
        assert_eq!(s.constant_part(), Rat::int(-5));
    }

    #[test]
    fn eval() {
        let e = LinExpr::var("x").scale(Rat::int(3)) + LinExpr::constant(Rat::int(1));
        let mut m = BTreeMap::new();
        m.insert(Symbol::intern("x"), Rat::int(4));
        assert_eq!(e.eval(&m), Rat::int(13));
    }

    #[test]
    fn display() {
        let e = LinExpr::var("x").scale(Rat::int(-1)) + LinExpr::constant(Rat::int(2));
        assert_eq!(e.to_string(), "2 - x");
        assert_eq!(LinExpr::zero().to_string(), "0");
    }
}
