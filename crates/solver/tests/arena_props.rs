//! Property tests pinning the hash-consed smart constructors to the
//! semantics of the original deep-tree `Term` representation.
//!
//! `reference` below is a faithful copy of the seed's boxed `Term` with its
//! smart-constructor folding. Random *construction programs* (raw operator
//! trees, no folding) are replayed against both representations; the
//! results must agree on their s-expression rendering and variable sets —
//! rendering is injective on term structure, so agreement means the arena
//! folds exactly like the seed did. A second suite checks the solver's
//! memo-table keying across distinct arenas.

use proptest::prelude::*;
use shadowdp_solver::{Solver, Term, TermArena};

/// The seed's boxed term representation with its original folding.
mod reference {
    use shadowdp_num::Rat;
    use std::fmt;

    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum RTerm {
        RConst(Rat),
        BConst(bool),
        RVar(String),
        BVar(String),
        Add(Vec<RTerm>),
        Mul(Box<RTerm>, Box<RTerm>),
        Neg(Box<RTerm>),
        Div(Box<RTerm>, Box<RTerm>),
        Mod(Box<RTerm>, Box<RTerm>),
        Abs(Box<RTerm>),
        Ite(Box<RTerm>, Box<RTerm>, Box<RTerm>),
        Le(Box<RTerm>, Box<RTerm>),
        Lt(Box<RTerm>, Box<RTerm>),
        EqNum(Box<RTerm>, Box<RTerm>),
        Not(Box<RTerm>),
        And(Vec<RTerm>),
        Or(Vec<RTerm>),
        Implies(Box<RTerm>, Box<RTerm>),
        Iff(Box<RTerm>, Box<RTerm>),
    }

    impl RTerm {
        pub fn int(n: i128) -> RTerm {
            RTerm::RConst(Rat::int(n))
        }

        pub fn real_var(name: &str) -> RTerm {
            RTerm::RVar(name.to_string())
        }

        pub fn bool_var(name: &str) -> RTerm {
            RTerm::BVar(name.to_string())
        }

        pub fn add(self, rhs: RTerm) -> RTerm {
            match (self, rhs) {
                (RTerm::RConst(a), RTerm::RConst(b)) => RTerm::RConst(a + b),
                (RTerm::RConst(z), t) | (t, RTerm::RConst(z)) if z.is_zero() => t,
                (RTerm::Add(mut xs), RTerm::Add(ys)) => {
                    xs.extend(ys);
                    RTerm::Add(xs)
                }
                (RTerm::Add(mut xs), t) => {
                    xs.push(t);
                    RTerm::Add(xs)
                }
                (t, RTerm::Add(mut ys)) => {
                    ys.insert(0, t);
                    RTerm::Add(ys)
                }
                (a, b) => RTerm::Add(vec![a, b]),
            }
        }

        pub fn sub(self, rhs: RTerm) -> RTerm {
            self.add(rhs.neg())
        }

        pub fn neg(self) -> RTerm {
            match self {
                RTerm::RConst(r) => RTerm::RConst(-r),
                RTerm::Neg(inner) => *inner,
                t => RTerm::Neg(Box::new(t)),
            }
        }

        pub fn mul(self, rhs: RTerm) -> RTerm {
            match (&self, &rhs) {
                (RTerm::RConst(a), RTerm::RConst(b)) => return RTerm::RConst(*a * *b),
                (RTerm::RConst(a), _) if a.is_zero() => return RTerm::int(0),
                (_, RTerm::RConst(b)) if b.is_zero() => return RTerm::int(0),
                (RTerm::RConst(a), _) if *a == Rat::ONE => return rhs,
                (_, RTerm::RConst(b)) if *b == Rat::ONE => return self,
                _ => {}
            }
            RTerm::Mul(Box::new(self), Box::new(rhs))
        }

        pub fn div(self, rhs: RTerm) -> RTerm {
            match (&self, &rhs) {
                (RTerm::RConst(a), RTerm::RConst(b)) if !b.is_zero() => {
                    return RTerm::RConst(*a / *b)
                }
                (_, RTerm::RConst(b)) if *b == Rat::ONE => return self,
                _ => {}
            }
            RTerm::Div(Box::new(self), Box::new(rhs))
        }

        pub fn rem(self, rhs: RTerm) -> RTerm {
            RTerm::Mod(Box::new(self), Box::new(rhs))
        }

        pub fn abs(self) -> RTerm {
            match self {
                RTerm::RConst(r) => RTerm::RConst(r.abs()),
                t => RTerm::Abs(Box::new(t)),
            }
        }

        pub fn ite(cond: RTerm, then: RTerm, els: RTerm) -> RTerm {
            match cond {
                RTerm::BConst(true) => then,
                RTerm::BConst(false) => els,
                c => {
                    if then == els {
                        then
                    } else {
                        RTerm::Ite(Box::new(c), Box::new(then), Box::new(els))
                    }
                }
            }
        }

        pub fn le(self, rhs: RTerm) -> RTerm {
            RTerm::Le(Box::new(self), Box::new(rhs))
        }

        pub fn lt(self, rhs: RTerm) -> RTerm {
            RTerm::Lt(Box::new(self), Box::new(rhs))
        }

        pub fn eq_num(self, rhs: RTerm) -> RTerm {
            RTerm::EqNum(Box::new(self), Box::new(rhs))
        }

        pub fn ne_num(self, rhs: RTerm) -> RTerm {
            RTerm::EqNum(Box::new(self), Box::new(rhs)).not()
        }

        pub fn not(self) -> RTerm {
            match self {
                RTerm::BConst(b) => RTerm::BConst(!b),
                RTerm::Not(inner) => *inner,
                t => RTerm::Not(Box::new(t)),
            }
        }

        pub fn and(self, rhs: RTerm) -> RTerm {
            match (self, rhs) {
                (RTerm::BConst(true), t) | (t, RTerm::BConst(true)) => t,
                (RTerm::BConst(false), _) | (_, RTerm::BConst(false)) => RTerm::BConst(false),
                (RTerm::And(mut xs), RTerm::And(ys)) => {
                    xs.extend(ys);
                    RTerm::And(xs)
                }
                (RTerm::And(mut xs), t) => {
                    xs.push(t);
                    RTerm::And(xs)
                }
                (t, RTerm::And(mut ys)) => {
                    ys.insert(0, t);
                    RTerm::And(ys)
                }
                (a, b) => RTerm::And(vec![a, b]),
            }
        }

        pub fn or(self, rhs: RTerm) -> RTerm {
            match (self, rhs) {
                (RTerm::BConst(false), t) | (t, RTerm::BConst(false)) => t,
                (RTerm::BConst(true), _) | (_, RTerm::BConst(true)) => RTerm::BConst(true),
                (RTerm::Or(mut xs), RTerm::Or(ys)) => {
                    xs.extend(ys);
                    RTerm::Or(xs)
                }
                (RTerm::Or(mut xs), t) => {
                    xs.push(t);
                    RTerm::Or(xs)
                }
                (t, RTerm::Or(mut ys)) => {
                    ys.insert(0, t);
                    RTerm::Or(ys)
                }
                (a, b) => RTerm::Or(vec![a, b]),
            }
        }

        pub fn implies(self, rhs: RTerm) -> RTerm {
            match (&self, &rhs) {
                (RTerm::BConst(true), _) => return rhs,
                (RTerm::BConst(false), _) => return RTerm::BConst(true),
                (_, RTerm::BConst(true)) => return RTerm::BConst(true),
                _ => {}
            }
            RTerm::Implies(Box::new(self), Box::new(rhs))
        }

        pub fn iff(self, rhs: RTerm) -> RTerm {
            RTerm::Iff(Box::new(self), Box::new(rhs))
        }

        pub fn vars(&self, out: &mut Vec<String>) {
            match self {
                RTerm::RConst(_) | RTerm::BConst(_) => {}
                RTerm::RVar(v) | RTerm::BVar(v) => {
                    if !out.contains(v) {
                        out.push(v.clone());
                    }
                }
                RTerm::Add(ts) | RTerm::And(ts) | RTerm::Or(ts) => {
                    for t in ts {
                        t.vars(out);
                    }
                }
                RTerm::Neg(t) | RTerm::Abs(t) | RTerm::Not(t) => t.vars(out),
                RTerm::Mul(a, b)
                | RTerm::Div(a, b)
                | RTerm::Mod(a, b)
                | RTerm::Le(a, b)
                | RTerm::Lt(a, b)
                | RTerm::EqNum(a, b)
                | RTerm::Implies(a, b)
                | RTerm::Iff(a, b) => {
                    a.vars(out);
                    b.vars(out);
                }
                RTerm::Ite(a, b, c) => {
                    a.vars(out);
                    b.vars(out);
                    c.vars(out);
                }
            }
        }
    }

    impl fmt::Display for RTerm {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RTerm::RConst(r) => write!(f, "{r}"),
                RTerm::BConst(b) => write!(f, "{b}"),
                RTerm::RVar(v) | RTerm::BVar(v) => write!(f, "{v}"),
                RTerm::Add(ts) => {
                    write!(f, "(+")?;
                    for t in ts {
                        write!(f, " {t}")?;
                    }
                    write!(f, ")")
                }
                RTerm::Mul(a, b) => write!(f, "(* {a} {b})"),
                RTerm::Neg(t) => write!(f, "(- {t})"),
                RTerm::Div(a, b) => write!(f, "(/ {a} {b})"),
                RTerm::Mod(a, b) => write!(f, "(mod {a} {b})"),
                RTerm::Abs(t) => write!(f, "(abs {t})"),
                RTerm::Ite(c, a, b) => write!(f, "(ite {c} {a} {b})"),
                RTerm::Le(a, b) => write!(f, "(<= {a} {b})"),
                RTerm::Lt(a, b) => write!(f, "(< {a} {b})"),
                RTerm::EqNum(a, b) => write!(f, "(= {a} {b})"),
                RTerm::Not(t) => write!(f, "(not {t})"),
                RTerm::And(ts) => {
                    write!(f, "(and")?;
                    for t in ts {
                        write!(f, " {t}")?;
                    }
                    write!(f, ")")
                }
                RTerm::Or(ts) => {
                    write!(f, "(or")?;
                    for t in ts {
                        write!(f, " {t}")?;
                    }
                    write!(f, ")")
                }
                RTerm::Implies(a, b) => write!(f, "(=> {a} {b})"),
                RTerm::Iff(a, b) => write!(f, "(iff {a} {b})"),
            }
        }
    }
}

use reference::RTerm;

/// A raw construction program: one node per smart-constructor call, no
/// folding — folding happens when the program is replayed.
#[derive(Clone, Debug)]
enum Prog {
    Int(i128),
    RVar(u8),
    BConst(bool),
    BVar(u8),
    Add(Box<Prog>, Box<Prog>),
    Sub(Box<Prog>, Box<Prog>),
    Neg(Box<Prog>),
    Mul(Box<Prog>, Box<Prog>),
    Div(Box<Prog>, Box<Prog>),
    Rem(Box<Prog>, Box<Prog>),
    Abs(Box<Prog>),
    Ite(Box<Prog>, Box<Prog>, Box<Prog>),
    Le(Box<Prog>, Box<Prog>),
    Lt(Box<Prog>, Box<Prog>),
    EqNum(Box<Prog>, Box<Prog>),
    NeNum(Box<Prog>, Box<Prog>),
    Not(Box<Prog>),
    And(Box<Prog>, Box<Prog>),
    Or(Box<Prog>, Box<Prog>),
    Implies(Box<Prog>, Box<Prog>),
    Iff(Box<Prog>, Box<Prog>),
}

const RVARS: [&str; 3] = ["x", "y", "z"];
const BVARS: [&str; 2] = ["p", "q"];

fn run_reference(p: &Prog) -> RTerm {
    match p {
        Prog::Int(n) => RTerm::int(*n),
        Prog::RVar(i) => RTerm::real_var(RVARS[*i as usize % RVARS.len()]),
        Prog::BConst(b) => RTerm::BConst(*b),
        Prog::BVar(i) => RTerm::bool_var(BVARS[*i as usize % BVARS.len()]),
        Prog::Add(a, b) => run_reference(a).add(run_reference(b)),
        Prog::Sub(a, b) => run_reference(a).sub(run_reference(b)),
        Prog::Neg(a) => run_reference(a).neg(),
        Prog::Mul(a, b) => run_reference(a).mul(run_reference(b)),
        Prog::Div(a, b) => run_reference(a).div(run_reference(b)),
        Prog::Rem(a, b) => run_reference(a).rem(run_reference(b)),
        Prog::Abs(a) => run_reference(a).abs(),
        Prog::Ite(c, t, e) => RTerm::ite(run_reference(c), run_reference(t), run_reference(e)),
        Prog::Le(a, b) => run_reference(a).le(run_reference(b)),
        Prog::Lt(a, b) => run_reference(a).lt(run_reference(b)),
        Prog::EqNum(a, b) => run_reference(a).eq_num(run_reference(b)),
        Prog::NeNum(a, b) => run_reference(a).ne_num(run_reference(b)),
        Prog::Not(a) => run_reference(a).not(),
        Prog::And(a, b) => run_reference(a).and(run_reference(b)),
        Prog::Or(a, b) => run_reference(a).or(run_reference(b)),
        Prog::Implies(a, b) => run_reference(a).implies(run_reference(b)),
        Prog::Iff(a, b) => run_reference(a).iff(run_reference(b)),
    }
}

fn run_arena(p: &Prog) -> Term {
    match p {
        Prog::Int(n) => Term::int(*n),
        Prog::RVar(i) => Term::real_var(RVARS[*i as usize % RVARS.len()]),
        Prog::BConst(b) => Term::bool_const(*b),
        Prog::BVar(i) => Term::bool_var(BVARS[*i as usize % BVARS.len()]),
        Prog::Add(a, b) => run_arena(a).add(run_arena(b)),
        Prog::Sub(a, b) => run_arena(a).sub(run_arena(b)),
        Prog::Neg(a) => run_arena(a).neg(),
        Prog::Mul(a, b) => run_arena(a).mul(run_arena(b)),
        Prog::Div(a, b) => run_arena(a).div(run_arena(b)),
        Prog::Rem(a, b) => run_arena(a).rem(run_arena(b)),
        Prog::Abs(a) => run_arena(a).abs(),
        Prog::Ite(c, t, e) => Term::ite(run_arena(c), run_arena(t), run_arena(e)),
        Prog::Le(a, b) => run_arena(a).le(run_arena(b)),
        Prog::Lt(a, b) => run_arena(a).lt(run_arena(b)),
        Prog::EqNum(a, b) => run_arena(a).eq_num(run_arena(b)),
        Prog::NeNum(a, b) => run_arena(a).ne_num(run_arena(b)),
        Prog::Not(a) => run_arena(a).not(),
        Prog::And(a, b) => run_arena(a).and(run_arena(b)),
        Prog::Or(a, b) => run_arena(a).or(run_arena(b)),
        Prog::Implies(a, b) => run_arena(a).implies(run_arena(b)),
        Prog::Iff(a, b) => run_arena(a).iff(run_arena(b)),
    }
}

fn bx(p: Prog) -> Box<Prog> {
    Box::new(p)
}

/// Raw numeric construction programs.
fn num_prog() -> impl Strategy<Value = Prog> {
    let leaf = prop_oneof![
        (-6i128..=6).prop_map(Prog::Int),
        (0u8..3).prop_map(Prog::RVar),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Prog::Add(bx(a), bx(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Prog::Sub(bx(a), bx(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Prog::Mul(bx(a), bx(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Prog::Div(bx(a), bx(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Prog::Rem(bx(a), bx(b))),
            inner.clone().prop_map(|a| Prog::Neg(bx(a))),
            inner.clone().prop_map(|a| Prog::Abs(bx(a))),
        ]
    })
}

/// Raw boolean construction programs (numeric comparisons at the leaves,
/// boolean connectives and numeric `ite` above them).
fn bool_prog() -> impl Strategy<Value = Prog> {
    let atom = prop_oneof![
        (num_prog(), num_prog(), 0u8..4).prop_map(|(a, b, k)| match k {
            0 => Prog::Le(bx(a), bx(b)),
            1 => Prog::Lt(bx(a), bx(b)),
            2 => Prog::EqNum(bx(a), bx(b)),
            _ => Prog::NeNum(bx(a), bx(b)),
        }),
        (0u8..2).prop_map(Prog::BVar),
        (0u8..2).prop_map(|b| Prog::BConst(b == 1)),
    ];
    atom.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Prog::And(bx(a), bx(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Prog::Or(bx(a), bx(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Prog::Implies(bx(a), bx(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Prog::Iff(bx(a), bx(b))),
            inner.clone().prop_map(|a| Prog::Not(bx(a))),
        ]
    })
}

/// `ite` mixed into numeric position, guarded by boolean programs.
fn mixed_prog() -> impl Strategy<Value = Prog> {
    (bool_prog(), num_prog(), num_prog(), num_prog())
        .prop_map(|(c, t, e, rhs)| Prog::Le(bx(Prog::Ite(bx(c), bx(t), bx(e))), bx(rhs)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Numeric smart constructors fold exactly like the seed's.
    #[test]
    fn numeric_folding_matches_reference(p in num_prog()) {
        let reference = run_reference(&p);
        let arena = run_arena(&p);
        prop_assert_eq!(reference.to_string(), arena.to_string());
        let mut ref_vars = Vec::new();
        reference.vars(&mut ref_vars);
        prop_assert_eq!(ref_vars, arena.vars());
    }

    /// Boolean smart constructors fold exactly like the seed's.
    #[test]
    fn boolean_folding_matches_reference(p in bool_prog()) {
        let reference = run_reference(&p);
        let arena = run_arena(&p);
        prop_assert_eq!(reference.to_string(), arena.to_string());
        let mut ref_vars = Vec::new();
        reference.vars(&mut ref_vars);
        prop_assert_eq!(ref_vars, arena.vars());
    }

    /// `ite` lifting/collapse in numeric position matches too.
    #[test]
    fn mixed_ite_matches_reference(p in mixed_prog()) {
        let reference = run_reference(&p);
        let arena = run_arena(&p);
        prop_assert_eq!(reference.to_string(), arena.to_string());
    }

    /// Replaying a construction program yields the same id — hash-consing
    /// is deterministic and deduplicating.
    #[test]
    fn replay_is_id_stable(p in bool_prog()) {
        prop_assert_eq!(run_arena(&p), run_arena(&p));
    }
}

// ---------------------------------------------------------------------------
// Memo-table isolation across arenas
// ---------------------------------------------------------------------------

/// The solver's memo table keys on structural fingerprints: numerically
/// identical `TermId`s from different arenas denote different formulas and
/// must never share cache entries. (Entries *do* transfer across arenas
/// when the structures match — that contract is pinned by
/// `tests/shard_memo.rs`; here the structures differ, so the ids colliding
/// numerically must not matter.)
#[test]
fn memo_table_is_arena_isolated() {
    let solver = Solver::new();

    // Arena A: ids [x, 0, (<= x 0)] — satisfiable.
    let mut a = TermArena::new();
    let ax = a.real_var("x");
    let a0 = a.int(0);
    let a_le = a.le(ax, a0);
    assert!(solver.check_in(&mut a, &[a_le]).is_sat());

    // Arena B: ids [1, 0, (<= 1 0)] — the *same numeric ids* in the same
    // positions, but the formula is unsatisfiable.
    let mut b = TermArena::new();
    let b1 = b.int(1);
    let b0 = b.int(0);
    let b_le = b.intern(shadowdp_solver::TermNode::Le(b1, b0));
    assert_eq!(a_le, b_le, "test setup: ids must collide numerically");
    assert!(
        !solver.check_in(&mut b, &[b_le]).is_sat(),
        "a cached verdict leaked across arenas"
    );
    // Neither query may have been answered from the other's entry.
    assert_eq!(solver.stats().cache_hits, 0);

    // Re-asking within each arena *does* hit.
    assert!(solver.check_in(&mut a, &[a_le]).is_sat());
    assert!(!solver.check_in(&mut b, &[b_le]).is_sat());
    assert_eq!(solver.stats().cache_hits, 2);
}

/// A fresh arena bypasses a dropped arena's entries even when ids repeat
/// numerically, because the structures (and hence fingerprints) differ.
#[test]
fn dropped_arena_entries_are_unreachable() {
    let solver = Solver::new();
    let first_le = {
        let mut a = TermArena::new();
        let x = a.real_var("v");
        let zero = a.int(0);
        let le = a.le(x, zero);
        assert!(solver.check_in(&mut a, &[le]).is_sat());
        le
    };
    // New arena, same construction order → same numeric ids for a
    // different structure.
    let mut b = TermArena::new();
    let one = b.int(1);
    let zero = b.int(0);
    let le = b.intern(shadowdp_solver::TermNode::Le(one, zero));
    assert_eq!(le, first_le);
    assert!(!solver.check_in(&mut b, &[le]).is_sat());
    assert_eq!(solver.stats().cache_hits, 0);
}
