//! The ShadowDP flow-sensitive type system (paper Section 4, Figure 4).
//!
//! [`check_function`] type-checks an annotated source function and, on
//! success, produces the *transformed* program `c'`: the same probabilistic
//! program instrumented with
//!
//! - `assert`s forcing the aligned execution down the same branches
//!   (rules T-If / T-While),
//! - dynamic distance bookkeeping over the hat variables `^x` / `~x`
//!   (the `⇛` instrumentation rule and the `pc = ⊤` assignment rule), and
//! - the shadow execution of diverged branches (`⟦c, Γ⟧†`, Figures 8–9).
//!
//! Sampling commands are kept (with their selector/alignment annotations)
//! for the verifier crate to lower into `havoc` + privacy-cost updates
//! (Figure 5).
//!
//! Modules:
//!
//! - [`env`](mod@env) — distances, variable types, typing environments, the
//!   two-level lattice join, and branch-condition simplification;
//! - [`lower`] — lowering ShadowDP expressions to solver terms
//!   (skolemizing list indexing);
//! - [`psi`] — the adjacency invariant Ψ: instantiation of `forall`
//!   clauses at the index terms a query mentions;
//! - [`exprs`] — expression typing (Figure 4 top; (T-ODot) side conditions
//!   discharged by the solver);
//! - [`shadow`] — the aligned/shadow expression and command constructions
//!   `⟦e, Γ⟧⋆` and `⟦c, Γ⟧†` (Figures 8–9);
//! - [`check`] — command rules with the program counter `pc`, loop typing
//!   by fixed point, well-formedness promotions, and assembly of the
//!   transformed function;
//! - [`cleanup`] — dead-hat-variable elimination (the paper's "slightly
//!   simplified for readability" presentation of transformed programs drops
//!   bookkeeping on hat variables nothing reads; we make that a principled
//!   pass).
//!
//! # Examples
//!
//! ```
//! use shadowdp_syntax::parse_function;
//! use shadowdp_typing::check_function;
//!
//! let f = parse_function(
//!     "function AddNoise(eps: num(0,0), x: num(1,1)) returns out: num(0,0)
//!      precondition eps > 0
//!      {
//!          eta := lap(1 / eps) { select: aligned, align: -1 };
//!          out := x + eta;
//!      }",
//! ).unwrap();
//! let transformed = check_function(&f).expect("type checks");
//! assert_eq!(transformed.function.name, "AddNoise");
//! ```

pub mod check;
pub mod cleanup;
pub mod env;
pub mod exprs;
pub mod lower;
pub mod psi;
pub mod shadow;

pub use check::{check_function, check_function_with, Transformed, TypeError};
pub use env::{Dist, TypeEnv, VarTy};
pub use lower::{lower_bool, lower_num, LowerError};
pub use psi::Psi;
