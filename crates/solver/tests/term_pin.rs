//! Pins the observable output of the term layer over every `TermNode`
//! variant: a structural fingerprint (the persisted memo key), the
//! rendered s-expression, the `vars()` order, and the case-split order of
//! `ite`/`abs` lifting in normalization.
//!
//! `memo_keys_are_pinned` in `solve.rs` reaches only the variants its
//! three queries build; this term reaches all 19, so a change to how any
//! variant hashes, prints, collects or splits fails here.
//!
//! The variable names are interned by no other test: `Symbol` order is
//! interning order, and `LinExpr` prints its variables in that order.

use shadowdp_num::Rat;
use shadowdp_solver::normalize::{Formula, Normalizer};
use shadowdp_solver::{with_shard, Rel, Term};

/// A normalized formula as an s-expression; atoms print as `(rel lin 0)`.
fn render(f: &Formula) -> String {
    let list = |op: &str, fs: &[Formula]| {
        let parts: Vec<String> = fs.iter().map(render).collect();
        format!("({op} {})", parts.join(" "))
    };
    match f {
        Formula::Const(b) => b.to_string(),
        Formula::BLit(s, true) => s.to_string(),
        Formula::BLit(s, false) => format!("(not {s})"),
        Formula::Atom(c) => {
            let rel = match c.rel {
                Rel::Le => "<=",
                Rel::Lt => "<",
                Rel::Eq => "=",
            };
            format!("({rel} {} 0)", c.lin)
        }
        Formula::And(fs) => list("and", fs),
        Formula::Or(fs) => list("or", fs),
    }
}

#[test]
fn every_term_variant_is_pinned() {
    let x = Term::real_var("tvpin_x");
    let y = Term::real_var("tvpin_y");
    let z = Term::real_var("tvpin_z");
    let p = Term::bool_var("tvpin_p");
    let q = Term::bool_var("tvpin_q");

    // All 19 variants, each visible in the rendering below: RConst, RVar,
    // Add, Mul, Neg, Div, Mod, Abs and Ite in `num`; Le, Lt, EqNum, Not,
    // And, Or, Implies, Iff, BVar and BConst around it.
    let num = Term::ite(p, x.abs(), y.neg())
        .add(Term::rat(Rat::new(1, 2)).mul(z))
        .add(x.div(Term::int(4)))
        .add(y.rem(Term::int(3)));
    let t = num
        .le(Term::int(1))
        .and(x.lt(z))
        .or(y.eq_num(Term::int(0)).not())
        .implies(q.iff(Term::bool_const(false)));

    assert_eq!(
        with_shard(|a| a.fingerprint(t)).0,
        0xcd8a_09e8_7c1e_2576_b04b_421a_6b30_6623
    );
    assert_eq!(
        t.to_string(),
        concat!(
            "(=> (or (and (<= (+ (ite tvpin_p (abs tvpin_x) (- tvpin_y)) (* 1/2 tvpin_z) ",
            "(/ tvpin_x 4) (mod tvpin_y 3)) 1) (< tvpin_x tvpin_z)) (not (= tvpin_y 0))) ",
            "(iff tvpin_q false))"
        )
    );
    assert_eq!(
        t.vars(),
        ["tvpin_p", "tvpin_x", "tvpin_y", "tvpin_z", "tvpin_q"]
    );

    // An `ite` under `Mul` under `Add`, and an `abs` under `Neg` whose
    // argument holds another `ite`: the splits unwind leftmost first,
    // outside in.
    let cmp = Term::int(2)
        .mul(Term::ite(p, x, y))
        .sub(z.sub(Term::ite(q, x, Term::int(1))).abs())
        .le(Term::int(3));
    let formula = with_shard(|a| Normalizer::new().normalize(a, cmp, true));
    assert_eq!(
        render(&formula),
        concat!(
            "(or (and tvpin_p (or ",
            "(and tvpin_q (or ",
            "(and (<= tvpin_x - tvpin_z 0) (<= -3 + 3*tvpin_x - tvpin_z 0)) ",
            "(and (< -1*tvpin_x + tvpin_z 0) (<= -3 + tvpin_x + tvpin_z 0)))) ",
            "(and (not tvpin_q) (or ",
            "(and (<= 1 - tvpin_z 0) (<= -2 + 2*tvpin_x - tvpin_z 0)) ",
            "(and (< -1 + tvpin_z 0) (<= -4 + 2*tvpin_x + tvpin_z 0)))))) ",
            "(and (not tvpin_p) (or ",
            "(and tvpin_q (or ",
            "(and (<= tvpin_x - tvpin_z 0) (<= -3 + tvpin_x + 2*tvpin_y - tvpin_z 0)) ",
            "(and (< -1*tvpin_x + tvpin_z 0) (<= -3 - tvpin_x + 2*tvpin_y + tvpin_z 0)))) ",
            "(and (not tvpin_q) (or ",
            "(and (<= 1 - tvpin_z 0) (<= -2 + 2*tvpin_y - tvpin_z 0)) ",
            "(and (< -1 + tvpin_z 0) (<= -4 + 2*tvpin_y + tvpin_z 0)))))))"
        )
    );
}
