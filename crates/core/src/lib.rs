//! **ShadowDP** — a reproduction of *Proving Differential Privacy with
//! Shadow Execution* (Wang, Ding, Wang, Kifer, Zhang — PLDI 2019) as a
//! Rust library.
//!
//! ShadowDP proves pure ε-differential privacy of randomized algorithms by
//! randomness alignment with a *shadow execution*: a flow-sensitive type
//! system checks programmer-annotated alignments and emits a
//! non-probabilistic program whose explicit privacy cost `v_eps` is then
//! bounded by an off-the-shelf-style model checker.
//!
//! This crate is the user-facing entry point:
//!
//! - [`Pipeline`] — parse → lint → type-check/transform → lower → verify, with
//!   wall-clock timings per phase (the measurements behind the paper's
//!   Table 1), plus the sequential and work-stealing **corpus drivers**
//!   ([`Pipeline::verify_corpus`],
//!   [`Pipeline::verify_corpus_parallel`]) that fan independent
//!   verifications across cores over a shared validity-query memo;
//! - [`corpus`] — the paper's complete benchmark suite (Report Noisy Max,
//!   Sparse Vector and its numerical/gap variants, Partial/Prefix/Smart
//!   Sum) plus classic *incorrect* Sparse Vector variants that must be
//!   rejected;
//! - [`table1`] — the harness regenerating Table 1.
//!
//! # Quickstart
//!
//! ```
//! use shadowdp::{corpus, Pipeline};
//! use shadowdp_verify::Verdict;
//!
//! let alg = corpus::laplace_mechanism();
//! let report = Pipeline::new().run(alg.source).expect("pipeline runs");
//! assert!(matches!(report.verdict, Verdict::Proved));
//! ```

pub mod corpus;
pub mod jobspec;
pub mod pipeline;
pub mod table1;

pub use corpus::{Algorithm, Expected};
pub use jobspec::{JobSpec, JobSpecError, OptionsSpec};
pub use pipeline::{
    lint_source, lint_timed, CorpusJob, CorpusOutcome, Phase, Pipeline, PipelineError,
    PipelineReport,
};
pub use shadowdp_analysis::{render_human, render_json_lines, Code, Diagnostic, Severity};
pub use table1::{run_table1, run_table1_parallel, Table1Row};

/// The verifier's epoch. Bump it with any change that moves a report
/// digest. Stored verdicts are keyed by source and options only, so the
/// verdict store carries this number in its file magic: a store written
/// under another epoch is a noted cold start instead of serving verdicts
/// this verifier would not give. `tests/houdini_rekey.rs` pins it next to
/// the Table 1 digests.
pub const VERIFIER_EPOCH: u8 = 1;
