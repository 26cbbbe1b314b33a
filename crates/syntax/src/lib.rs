//! Frontend for the **ShadowDP** language of Wang et al., *Proving
//! Differential Privacy with Shadow Execution* (PLDI 2019), Figure 3.
//!
//! The crate provides:
//!
//! - [`ast`] — the abstract syntax: expressions, commands, types with
//!   aligned/shadow distances, selectors, sampling annotations, and function
//!   declarations with adjacency preconditions, plus [`preorder`], the one
//!   command walk every collecting pass uses;
//! - [`lexer`] — a hand-written tokenizer with byte-precise spans;
//! - [`parser`] — a recursive-descent parser producing [`ast::Function`];
//! - [`pretty`] — a pretty-printer whose output re-parses to the same AST
//!   (property-tested).
//!
//! # Concrete syntax
//!
//! The paper presents programs in mathematical notation; this crate uses an
//! ASCII rendering. `^x` is the paper's aligned distance variable `x̂◦`, `~x`
//! is the shadow distance variable `x̂†`, `aligned`/`shadow` are the selector
//! atoms `◦`/`†`, and a sampling statement carries its annotation inline:
//!
//! ```text
//! function NoisyMax(eps: num(0,0), size: num(0,0), q: list num(*,*))
//! returns max: num(0,*)
//! precondition forall i :: -1 <= ^q[i] && ^q[i] <= 1 && ~q[i] == ^q[i]
//! {
//!     i := 0; bq := 0; max := 0;
//!     while (i < size) {
//!         eta := lap(2 / eps) { select: q[i] + eta > bq || i == 0 ? shadow : aligned,
//!                               align:  q[i] + eta > bq || i == 0 ? 2 : 0 };
//!         if (q[i] + eta > bq || i == 0) {
//!             max := i;
//!             bq := q[i] + eta;
//!         } else { skip; }
//!         i := i + 1;
//!     }
//! }
//! ```
//!
//! # Examples
//!
//! ```
//! use shadowdp_syntax::parse_function;
//!
//! let src = r#"
//! function Trivial(eps: num(0,0), x: num(1,1)) returns out: num(0,0)
//! precondition eps > 0
//! {
//!     eta := lap(1 / eps) { select: aligned, align: -1 };
//!     out := x + eta;
//! }
//! "#;
//! let f = parse_function(src).expect("parses");
//! assert_eq!(f.name, "Trivial");
//! assert_eq!(f.params.len(), 2);
//! ```

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod pretty;

pub use ast::{
    assigned_vars, preorder, Adjacency, BinOp, Cmd, CmdKind, Distance, Expr, Function, Name,
    NameKind, Param, Precondition, Preorder, RandExpr, RetDecl, Selector, Ty, UnOp,
};
pub use lexer::{Lexer, Span, Token, TokenKind};
pub use parser::{parse_expr, parse_function, ParseError};
pub use pretty::{pretty_cmds, pretty_expr, pretty_function};
