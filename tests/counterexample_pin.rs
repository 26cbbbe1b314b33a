//! Regression lock for the counterexamples of the buggy corpus.
//!
//! `corpus_end_to_end.rs` checks only the verdict *kind* of each buggy
//! variant. This file pins what a user reads: the rendered verdict, whose
//! BMC witness is built from the solver's model, and the wire digest of
//! the job's report digest. Each program runs twice on one shared memo;
//! on the second run every solver query is a memo hit, so the witness is
//! read from a memoized model and must render byte for byte the same.

use std::sync::Arc;

use shadowdp::corpus;
use shadowdp::{CorpusJob, Pipeline};
use shadowdp_service::{render_verdict, wire_digest};
use shadowdp_solver::QueryMemo;
use shadowdp_verify::{BmcOptions, Engine, Options};

/// Per [`corpus::buggy_algorithms`] entry, in order: the rendered verdict
/// and the wire digest of its report digest.
const PINNED: [(&str, &str); 4] = [
    (
        "refuted: violates assert(!(q[i] + ^q[i] + eta2 >= tt)) with T#3 = 1, ^q[0] = 1, \
         ^q[1] = 0, ^q[2] = 0, eps#1 = 1, size#2 = 3, ~q[0] = 1, ~q[1] = 0, ~q[2] = 0",
        "c594a2adf896e6e3dec9d72f203b0926",
    ),
    (
        "refuted: violates assert(q[i] + ^q[i] + eta2 >= tt + 1) with T#3 = 0, ^q[0] = -1, \
         ^q[1] = 0, ^q[2] = 0, eps#1 = 1, size#2 = 3, ~q[0] = -1, ~q[1] = 0, ~q[2] = 0",
        "8b4dcc52c04a20af72e516a2ba617d8d",
    ),
    (
        "refuted: violates assert(v_eps <= 4) with T#3 = 0, ^q[0] = 0, ^q[1] = 0, ^q[2] = 0, \
         eps#1 = 1, eta2#5 = 0, q[1] = 0, size#2 = 3, ~q[0] = 0, ~q[1] = 0, ~q[2] = 0",
        "aab5018e064f79014b14b3d591990711",
    ),
    (
        "error in TypeCheck: type error: alignment `0 - eta` for sample `eta` is not \
         injective (rule T-Laplace)",
        "6e18bb2d7074a21f7e578b9355f2efc1",
    ),
];

/// The options `examples/bug_finding.rs` verifies a buggy variant with.
fn job_for(alg: &corpus::Algorithm) -> CorpusJob {
    let options = Options {
        engine: Engine::InductiveThenBmc,
        bmc: BmcOptions {
            list_len: 3,
            max_unroll: None,
            assumptions: alg
                .bmc_assumptions
                .iter()
                .map(|s| shadowdp_syntax::parse_expr(s).unwrap())
                .collect(),
        },
        ..Options::default()
    };
    CorpusJob::with_options(alg.source, options)
}

#[test]
fn buggy_corpus_counterexamples_are_pinned_cold_and_memoized() {
    let algorithms = corpus::buggy_algorithms();
    assert_eq!(algorithms.len(), PINNED.len());
    for (alg, (verdict, digest)) in algorithms.iter().zip(PINNED) {
        let jobs = [job_for(alg)];
        let memo = Arc::new(QueryMemo::default());
        let pipeline = Pipeline::new();
        let cold = pipeline.verify_corpus_parallel_with_memo(&jobs, Some(1), &memo);
        let warm = pipeline.verify_corpus_parallel_with_memo(&jobs, Some(1), &memo);
        for (run, outcome) in [("cold", &cold), ("memoized", &warm)] {
            assert_eq!(
                render_verdict(&outcome.reports[0]),
                verdict,
                "{} ({run}): rendered verdict",
                alg.name
            );
            assert_eq!(
                wire_digest(&outcome.report_digest(0)),
                digest,
                "{} ({run}): report digest",
                alg.name
            );
        }
        if let Ok(report) = &warm.reports[0] {
            let stats = report.solver_stats;
            assert_eq!(
                (stats.cache_hits, stats.theory_calls),
                (stats.checks, 0),
                "{}: the second run is answered from the memo",
                alg.name
            );
        }
    }
}
