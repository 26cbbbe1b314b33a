//! An SMT-lite decision procedure for quantifier-free linear rational
//! arithmetic (QF-LRA) with boolean structure, built on **hash-consed
//! terms** and **memoized queries**.
//!
//! This crate stands in for the Z3 / MathSAT / SMTInterpol backends the
//! ShadowDP paper uses: the type system's side conditions ((T-ODot) branch
//! consistency, (T-Laplace) injectivity) and the verifier's verification
//! conditions are all QF-LRA after the paper's own linearization rewrites.
//!
//! # Architecture
//!
//! - [`term`] — the two-sorted term language (reals and booleans) with
//!   `ite`, `abs`, and the usual connectives. Terms are **hash-consed**: a
//!   [`TermArena`] dedups structurally equal nodes, a term is a `Copy`-able
//!   [`TermId`] (`u32`), and structural equality / hashing are O(1) id
//!   operations. Every node also carries a 128-bit structural
//!   [`Fingerprint`] computed at intern time. Variable names are interned
//!   [`Symbol`]s. Almost all code uses the chainable [`TermId`] methods
//!   against **this thread's arena shard** (no process-wide lock — one
//!   arena per thread); explicit arenas exist for isolation (property
//!   tests, fuzzing).
//! - [`linear`] — linear normal form `c + Σ aᵢ·xᵢ` over `Symbol` keys;
//! - [`normalize`] — desugaring (`abs`/`ite` lifting, implication
//!   elimination), NNF, and *sound abstraction* of non-linear atoms by
//!   fresh boolean symbols (the abstraction cache keys on `(TermId, Rel)` —
//!   an integer pair, not an owned subtree);
//! - [`fm`] — Fourier–Motzkin elimination with model reconstruction, plus
//!   the incremental [`fm::Saturation`] the trail core extends and rolls
//!   back one constraint at a time;
//! - [`trail`] — the reversible-op trail + decision levels backing the
//!   iterative search (no recursion, no worklist cloning);
//! - [`solve`] — an iterative trail-backed tableau search over the boolean
//!   structure with eager theory pruning, the query **memo table**,
//!   push/pop assumption frames, and the public [`Solver`] API.
//!
//! # Cache-keying discipline
//!
//! Three layers of caching, all keyed by interned ids:
//!
//! 1. **Node interning** ([`TermArena`]): smart constructors fold and then
//!    dedup, so equal subterms are built once and compared by id.
//! 2. **Abstraction symbols** ([`normalize::Normalizer`]): non-linear atoms
//!    map to canonical booleans via `(TermId, Rel)` keys.
//! 3. **Whole queries** ([`Solver`]): `check`/`prove` fold the query into
//!    one conjunction id and memoize the result under that conjunction's
//!    structural [`Fingerprint`]. The key carries no arena identity, so a
//!    [`QueryMemo`] shared between solvers on different threads answers a
//!    query one thread already solved even though each thread interns into
//!    its own arena shard — and structurally different formulas can never
//!    alias (up to 128-bit hash collisions). Query results depend only on
//!    formula structure, so the memo is sound by construction; hits are
//!    counted in [`SolverStats::cache_hits`].
//!
//! The pay-off is on the Houdini hot path: consecution rounds re-prove the
//! surviving candidate set with one candidate dropped, so the unchanged
//! majority of queries is answered by a hash lookup (see
//! `shadowdp-verify`'s inductive engine, which keeps its fresh-symbol
//! naming per-round deterministic precisely to maximize these hits).
//!
//! # Soundness of abstraction
//!
//! Atoms the linearizer cannot handle (products of unknowns, `mod` with a
//! symbolic modulus) are replaced by fresh boolean variables. Abstraction
//! only *adds* models, so `Unsat` answers — and therefore `Proved` answers
//! from [`Solver::prove`] — remain sound. `Sat` answers whose model touches
//! an abstracted atom are flagged [`Model::possibly_spurious`].
//!
//! # Examples
//!
//! ```
//! use shadowdp_solver::{Solver, Term};
//!
//! let solver = Solver::new();
//! let x = Term::real_var("x");
//! // prove:  x >= 1  ⊢  2*x > 1
//! let hyp = x.ge(Term::int(1));
//! let goal = Term::int(2).mul(x).gt(Term::int(1));
//! assert!(solver.prove(&[hyp], &goal).is_proved());
//! // the identical query is now answered from the memo table
//! assert!(solver.prove(&[hyp], &goal).is_proved());
//! assert_eq!(solver.stats().cache_hits, 1);
//! ```

pub mod fm;
pub mod linear;
pub mod normalize;
pub mod solve;
pub mod term;
pub mod trail;

pub use fm::{Constraint, Rel};
pub use linear::LinExpr;
pub use solve::{
    Budget, CheckResult, MemoEntry, Model, ProveResult, QueryMemo, Solver, SolverStats,
};
pub use term::{
    with_fresh_shard, with_shard, Fingerprint, Symbol, Term, TermArena, TermId, TermNode,
};
