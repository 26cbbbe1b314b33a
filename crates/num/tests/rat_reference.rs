//! Differential tests for `Rat` arithmetic against a reference: the
//! always-cross-reducing algorithm over `(numerator, denominator)` pairs,
//! which reduces with an `i128` gcd on every add and multiply, integers
//! included. Every operation must give the reference's reduced fraction,
//! and must panic with the documented overflow message exactly where the
//! reference overflows `i128`.
//!
//! Operands mix small integers and fractions (what verification conditions
//! hold) with values wider than 2^63, so both the `u64` and the `i128`
//! gcd run, and with integers up to 2^127, so sums and products overflow.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use shadowdp_num::Rat;

/// A reduced fraction `(numerator, denominator)`, denominator positive.
type Frac = (i128, i128);

fn ref_gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    if a == 0 {
        1
    } else {
        a
    }
}

fn ref_new(num: i128, den: i128) -> Frac {
    let sign = if den < 0 { -1 } else { 1 };
    let g = ref_gcd(num, den);
    (sign * (num / g), (den / g).abs())
}

/// `None` where the reference overflows `i128`.
fn ref_add((an, ad): Frac, (bn, bd): Frac) -> Option<Frac> {
    let g = ref_gcd(ad, bd);
    let lhs_scale = bd / g;
    let rhs_scale = ad / g;
    let num = an
        .checked_mul(lhs_scale)?
        .checked_add(bn.checked_mul(rhs_scale)?)?;
    let den = ad.checked_mul(lhs_scale)?;
    Some(ref_new(num, den))
}

fn ref_sub(a: Frac, (bn, bd): Frac) -> Option<Frac> {
    ref_add(a, (-bn, bd))
}

fn ref_mul((an, ad): Frac, (bn, bd): Frac) -> Option<Frac> {
    let g1 = ref_gcd(an, bd);
    let g2 = ref_gcd(bn, ad);
    let num = (an / g1).checked_mul(bn / g2)?;
    let den = (ad / g2).checked_mul(bd / g1)?;
    Some(ref_new(num, den))
}

/// The divisor is nonzero.
fn ref_div(a: Frac, (bn, bd): Frac) -> Option<Frac> {
    ref_mul(a, ref_new(bd, bn))
}

const OVERFLOW: &str = "rational arithmetic overflowed i128";

/// Runs `op` on `a` and `b` as `Rat`s: the reduced result, or the panic
/// message.
fn run(op: fn(Rat, Rat) -> Rat, a: Frac, b: Frac) -> Result<Frac, String> {
    let (x, y) = (Rat::new(a.0, a.1), Rat::new(b.0, b.1));
    match catch_unwind(AssertUnwindSafe(|| op(x, y))) {
        Ok(r) => Ok((r.numer(), r.denom())),
        Err(payload) => Err(payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()),
    }
}

fn agrees(op: fn(Rat, Rat) -> Rat, reference: fn(Frac, Frac) -> Option<Frac>, a: Frac, b: Frac) {
    let expected = reference(a, b).ok_or_else(|| OVERFLOW.to_string());
    assert_eq!(run(op, a, b), expected, "operands {a:?} and {b:?}");
}

/// A nonzero magnitude of `bits` random bits at most.
fn wide(hi: u64, lo: u64, bits: u32) -> i128 {
    let full = (u128::from(hi) << 64) | u128::from(lo);
    ((full >> (128 - bits)) as i128).max(1)
}

/// Operands of every width the fast paths distinguish.
fn operand() -> impl Strategy<Value = Frac> {
    let small_int = (-1000i128..=1000).prop_map(|n| (n, 1));
    let small_frac = (-1000i128..=1000, 1i128..=1000).prop_map(|(n, d)| ref_new(n, d));
    // Past 2^63: numerators up to 2^100, denominators up to 2^70, and
    // some of each below 2^64, so mixed widths meet too.
    let wide_frac = (
        0u64..=u64::MAX,
        0u64..=u64::MAX,
        1u32..=100,
        1u32..=70,
        0u8..2,
    )
        .prop_map(|(hi, lo, nbits, dbits, neg)| {
            let n = wide(hi, lo, nbits);
            let d = wide(lo, hi, dbits);
            ref_new(if neg == 1 { -n } else { n }, d)
        });
    // Integers past 2^63, and integers of 127 bits, whose sums overflow
    // as often as not.
    let wide_int = |bits: std::ops::RangeInclusive<u32>| {
        (0u64..=u64::MAX, 0u64..=u64::MAX, bits, 0u8..2).prop_map(|(hi, lo, bits, neg)| {
            let n = wide(hi, lo, bits);
            (if neg == 1 { -n } else { n }, 1)
        })
    };
    prop_oneof![
        small_int,
        small_frac,
        wide_frac,
        wide_int(64..=126),
        wide_int(127..=127)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn add_matches_reference(a in operand(), b in operand()) {
        agrees(|x, y| x + y, ref_add, a, b);
    }

    #[test]
    fn sub_matches_reference(a in operand(), b in operand()) {
        agrees(|x, y| x - y, ref_sub, a, b);
    }

    #[test]
    fn mul_matches_reference(a in operand(), b in operand()) {
        agrees(|x, y| x * y, ref_mul, a, b);
    }

    #[test]
    fn div_matches_reference(a in operand(), b in operand()) {
        prop_assume!(b.0 != 0);
        agrees(|x, y| x / y, ref_div, a, b);
    }
}

#[test]
fn operands_cover_every_width_and_both_outcomes() {
    // The draws above must exercise what they claim to: integers and
    // fractions, operands past 2^63, and overflow next to success.
    let mut rng = proptest::test_runner::TestRng::deterministic("coverage", 0);
    let ops: Vec<Frac> = (0..4000).map(|_| operand().generate(&mut rng)).collect();
    assert!(ops
        .iter()
        .any(|&(n, d)| d == 1 && n.unsigned_abs() < 1 << 63));
    assert!(ops
        .iter()
        .any(|&(n, d)| d == 1 && n.unsigned_abs() > 1 << 63));
    assert!(ops
        .iter()
        .any(|&(n, d)| d > 1 && d < 1 << 63 && n.unsigned_abs() < 1 << 63));
    assert!(ops.iter().any(|&(_, d)| d > 1 << 63));
    let pairs = || ops.iter().zip(ops.iter().rev());
    let integers = |a: Frac, b: Frac| a.1 == 1 && b.1 == 1;
    assert!(pairs().any(|(&a, &b)| integers(a, b) && ref_add(a, b).is_none()));
    assert!(pairs().any(|(&a, &b)| integers(a, b) && ref_mul(a, b).is_none()));
    assert!(pairs().any(|(&a, &b)| !integers(a, b) && ref_add(a, b).is_none()));
    assert!(pairs().any(|(&a, &b)| ref_add(a, b).is_some() && a.1 > 1 << 63));
    assert!(pairs().any(|(&a, &b)| ref_mul(a, b).is_none()));
    assert!(pairs().any(|(&a, &b)| ref_mul(a, b).is_some() && a.0.unsigned_abs() > 1 << 63));
}
