//! The [`Rat`] exact rational type.

use std::cmp::Ordering;
use std::error::Error;
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number backed by `i128` numerator/denominator.
///
/// Invariants (maintained by every constructor and operation):
/// - the denominator is strictly positive;
/// - numerator and denominator are coprime;
/// - zero is represented as `0/1`.
///
/// # Panics
///
/// Arithmetic (`+`, `-`, `*`, `/` and negation) panics with "rational
/// arithmetic overflowed i128" when a numerator or denominator would leave
/// `i128`, in release builds as in debug ones; division panics on a zero
/// divisor. ShadowDP verification conditions only involve small constants,
/// so overflow indicates a logic error rather than a data-size limitation.
///
/// # Cost
///
/// The sum and the product of two integers are one checked `i128`
/// operation each, with no gcd. Otherwise cross terms are reduced by gcds,
/// which run in `u64` when both operands fit there (one machine division
/// per remainder instead of a 128-bit library call). A product and a
/// reciprocal of reduced fractions come out reduced, so they take no
/// final gcd; a sum does.
///
/// # Examples
///
/// ```
/// use shadowdp_num::Rat;
/// assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
/// assert_eq!(Rat::new(1, -2), Rat::new(-1, 2));
/// assert_eq!(Rat::from(3) * Rat::new(1, 3), Rat::ONE);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

const OVERFLOW: &str = "rational arithmetic overflowed i128";

fn gcd(a: i128, b: i128) -> i128 {
    // Euclid on absolute values; gcd(0, 0) = 1 so that 0/1 stays canonical.
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        // A 64-bit remainder is one machine division, a 128-bit one a
        // library call.
        let r = match (u64::try_from(a), u64::try_from(b)) {
            (Ok(x), Ok(y)) => u128::from(x % y),
            _ => a % b,
        };
        (a, b) = (b, r);
    }
    if a == 0 {
        1
    } else {
        a as i128
    }
}

impl Rat {
    /// The rational zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Rat = Rat { num: 1, den: 1 };
    /// The rational two (the most common alignment distance in the paper).
    pub const TWO: Rat = Rat { num: 2, den: 1 };

    /// Creates a reduced rational from a numerator and denominator.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use shadowdp_num::Rat;
    /// assert_eq!(Rat::new(6, -4), Rat::new(-3, 2));
    /// ```
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "rational denominator must be nonzero");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den);
        Rat {
            num: sign * (num / g),
            den: (den / g).abs(),
        }
    }

    /// Creates an integer rational.
    pub const fn int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// The numerator of the reduced fraction (carries the sign).
    pub fn numer(self) -> i128 {
        self.num
    }

    /// The denominator of the reduced fraction (always positive).
    pub fn denom(self) -> i128 {
        self.den
    }

    /// Whether this rational is exactly zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Whether this rational is an integer.
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Whether this rational is strictly positive.
    pub fn is_positive(self) -> bool {
        self.num > 0
    }

    /// Whether this rational is strictly negative.
    pub fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Absolute value.
    ///
    /// ```
    /// use shadowdp_num::Rat;
    /// assert_eq!(Rat::new(-3, 2).abs(), Rat::new(3, 2));
    /// ```
    pub fn abs(self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    pub fn recip(self) -> Rat {
        assert!(self.num != 0, "cannot invert zero");
        // Already coprime: only the sign moves to the numerator.
        let sign = self.num.signum();
        Rat {
            num: sign * self.den,
            den: sign * self.num,
        }
    }

    /// Sign as `-1`, `0` or `1`.
    pub fn signum(self) -> i128 {
        self.num.signum()
    }

    /// Returns the smaller of two rationals.
    pub fn min(self, other: Rat) -> Rat {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two rationals.
    pub fn max(self, other: Rat) -> Rat {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Lossy conversion to `f64` (used only for reporting, never for logic).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Largest integer `<= self`.
    ///
    /// ```
    /// use shadowdp_num::Rat;
    /// assert_eq!(Rat::new(-1, 2).floor(), -1);
    /// assert_eq!(Rat::new(3, 2).floor(), 1);
    /// ```
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Smallest integer `>= self`.
    pub fn ceil(self) -> i128 {
        -((-self.num).div_euclid(self.den))
    }
}

impl Default for Rat {
    fn default() -> Self {
        Rat::ZERO
    }
}

impl From<i128> for Rat {
    fn from(n: i128) -> Rat {
        Rat::int(n)
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Rat {
        Rat::int(n as i128)
    }
}

impl From<i32> for Rat {
    fn from(n: i32) -> Rat {
        Rat::int(n as i128)
    }
}

impl From<u32> for Rat {
    fn from(n: u32) -> Rat {
        Rat::int(n as i128)
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        if self.den == 1 && rhs.den == 1 {
            return Rat::int(self.num.checked_add(rhs.num).expect(OVERFLOW));
        }
        // Reduce cross terms first to delay overflow.
        let g = gcd(self.den, rhs.den);
        let lhs_scale = rhs.den / g;
        let rhs_scale = self.den / g;
        let num = self.num.checked_mul(lhs_scale).and_then(|a| {
            rhs.num
                .checked_mul(rhs_scale)
                .and_then(|b| a.checked_add(b))
        });
        let den = self.den.checked_mul(lhs_scale);
        Rat::new(num.expect(OVERFLOW), den.expect(OVERFLOW))
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        if self.den == 1 && rhs.den == 1 {
            return Rat::int(self.num.checked_mul(rhs.num).expect(OVERFLOW));
        }
        // Cross-reduce before multiplying to keep intermediates small.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        // Both operands are reduced, so the cross-reduced factors are
        // coprime and the product needs no further gcd.
        Rat {
            num: (self.num / g1).checked_mul(rhs.num / g2).expect(OVERFLOW),
            den: (self.den / g2).checked_mul(rhs.den / g1).expect(OVERFLOW),
        }
    }
}

impl Div for Rat {
    type Output = Rat;
    #[allow(clippy::suspicious_arithmetic_impl)] // division via reciprocal is the point
    fn div(self, rhs: Rat) -> Rat {
        self * rhs.recip()
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: self.num.checked_neg().expect(OVERFLOW),
            den: self.den,
        }
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Rat) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rat {
    fn sub_assign(&mut self, rhs: Rat) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rat {
    fn mul_assign(&mut self, rhs: Rat) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rat {
    fn div_assign(&mut self, rhs: Rat) {
        *self = *self / rhs;
    }
}

impl Sum for Rat {
    fn sum<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ZERO, Add::add)
    }
}

impl Product for Rat {
    fn product<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ONE, Mul::mul)
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b  (denominators positive).
        let lhs = self
            .num
            .checked_mul(other.den)
            .expect("rational comparison overflowed i128");
        let rhs = other
            .num
            .checked_mul(self.den)
            .expect("rational comparison overflowed i128");
        lhs.cmp(&rhs)
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Error returned when parsing a [`Rat`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRatError {
    input: String,
}

impl fmt::Display for ParseRatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal `{}`", self.input)
    }
}

impl Error for ParseRatError {}

impl FromStr for Rat {
    type Err = ParseRatError;

    /// Parses `"a"`, `"a/b"`, or a finite decimal `"a.b"`.
    ///
    /// ```
    /// use shadowdp_num::Rat;
    /// assert_eq!("3/4".parse::<Rat>().unwrap(), Rat::new(3, 4));
    /// assert_eq!("0.25".parse::<Rat>().unwrap(), Rat::new(1, 4));
    /// assert_eq!("-2".parse::<Rat>().unwrap(), Rat::int(-2));
    /// ```
    fn from_str(s: &str) -> Result<Rat, ParseRatError> {
        let err = || ParseRatError {
            input: s.to_string(),
        };
        let s = s.trim();
        if let Some((n, d)) = s.split_once('/') {
            let n: i128 = n.trim().parse().map_err(|_| err())?;
            let d: i128 = d.trim().parse().map_err(|_| err())?;
            if d == 0 {
                return Err(err());
            }
            Ok(Rat::new(n, d))
        } else if let Some((int_part, frac_part)) = s.split_once('.') {
            if frac_part.is_empty() || !frac_part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(err());
            }
            let negative = int_part.trim_start().starts_with('-');
            let int: i128 = if int_part == "-" || int_part.is_empty() {
                0
            } else {
                int_part.parse().map_err(|_| err())?
            };
            let frac: i128 = frac_part.parse().map_err(|_| err())?;
            let scale = 10i128.checked_pow(frac_part.len() as u32).ok_or_else(err)?;
            let frac = Rat::new(frac, scale);
            let int = Rat::int(int);
            Ok(if negative { int - frac } else { int + frac })
        } else {
            let n: i128 = s.parse().map_err(|_| err())?;
            Ok(Rat::int(n))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_representation() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, 7), Rat::ZERO);
        assert_eq!(Rat::new(0, -7).denom(), 1);
    }

    #[test]
    fn arithmetic_basics() {
        assert_eq!(Rat::new(1, 2) + Rat::new(1, 3), Rat::new(5, 6));
        assert_eq!(Rat::new(1, 2) - Rat::new(1, 3), Rat::new(1, 6));
        assert_eq!(Rat::new(2, 3) * Rat::new(3, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, 3) / Rat::new(4, 3), Rat::new(1, 2));
        assert_eq!(-Rat::new(1, 2), Rat::new(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert!(Rat::new(7, 7) == Rat::ONE);
        assert_eq!(Rat::new(3, 2).max(Rat::int(1)), Rat::new(3, 2));
        assert_eq!(Rat::new(3, 2).min(Rat::int(1)), Rat::ONE);
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rat::new(3, 2).floor(), 1);
        assert_eq!(Rat::new(3, 2).ceil(), 2);
        assert_eq!(Rat::new(-3, 2).floor(), -2);
        assert_eq!(Rat::new(-3, 2).ceil(), -1);
        assert_eq!(Rat::int(4).floor(), 4);
        assert_eq!(Rat::int(4).ceil(), 4);
    }

    #[test]
    fn parsing() {
        assert_eq!("5".parse::<Rat>().unwrap(), Rat::int(5));
        assert_eq!("-5".parse::<Rat>().unwrap(), Rat::int(-5));
        assert_eq!("3/6".parse::<Rat>().unwrap(), Rat::new(1, 2));
        assert_eq!("0.5".parse::<Rat>().unwrap(), Rat::new(1, 2));
        assert_eq!("-0.25".parse::<Rat>().unwrap(), Rat::new(-1, 4));
        assert_eq!("1.25".parse::<Rat>().unwrap(), Rat::new(5, 4));
        assert!("".parse::<Rat>().is_err());
        assert!("1/0".parse::<Rat>().is_err());
        assert!("a.b".parse::<Rat>().is_err());
    }

    #[test]
    fn display_roundtrip() {
        for r in [Rat::new(3, 4), Rat::int(-7), Rat::ZERO, Rat::new(-9, 5)] {
            assert_eq!(r.to_string().parse::<Rat>().unwrap(), r);
        }
    }

    #[test]
    fn sum_product() {
        let xs = [Rat::new(1, 2), Rat::new(1, 3), Rat::new(1, 6)];
        assert_eq!(xs.iter().copied().sum::<Rat>(), Rat::ONE);
        assert_eq!(xs.iter().copied().product::<Rat>(), Rat::new(1, 36));
    }

    #[test]
    fn abs_recip_signum() {
        assert_eq!(Rat::new(-3, 2).abs(), Rat::new(3, 2));
        assert_eq!(Rat::new(3, 2).recip(), Rat::new(2, 3));
        assert_eq!(Rat::new(-3, 2).recip(), Rat::new(-2, 3));
        assert_eq!(Rat::new(-1, 9).signum(), -1);
        assert_eq!(Rat::ZERO.signum(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot invert zero")]
    fn recip_zero_panics() {
        let _ = Rat::ZERO.recip();
    }

    #[test]
    #[should_panic(expected = "denominator must be nonzero")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "rational arithmetic overflowed i128")]
    fn integer_add_overflow_panics() {
        let _ = Rat::int(i128::MAX) + Rat::ONE;
    }

    #[test]
    #[should_panic(expected = "rational arithmetic overflowed i128")]
    fn integer_sub_overflow_panics() {
        let _ = Rat::int(i128::MIN + 1) - Rat::TWO;
    }

    #[test]
    #[should_panic(expected = "rational arithmetic overflowed i128")]
    fn integer_mul_overflow_panics() {
        let _ = Rat::int(1 << 64) * Rat::int(1 << 64);
    }

    #[test]
    #[should_panic(expected = "rational arithmetic overflowed i128")]
    fn fraction_add_overflow_panics() {
        let _ = Rat::new(i128::MAX, 2) + Rat::new(1, 3);
    }

    #[test]
    #[should_panic(expected = "rational arithmetic overflowed i128")]
    fn fraction_mul_overflow_panics() {
        let _ = Rat::new(1 << 100, 3) * Rat::new(1 << 30, 7);
    }
}
