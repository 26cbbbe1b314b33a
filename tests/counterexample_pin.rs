//! Regression lock for the counterexamples of the buggy corpus.
//!
//! `corpus_end_to_end.rs` checks only the verdict *kind* of each buggy
//! variant. This file pins what a user reads: the rendered verdict, whose
//! BMC witness is built from the solver's model, and the wire digest of
//! the job's report digest (the table is in `counterexamples/mod.rs`).
//! Each program runs twice on one shared memo; on the second run every
//! solver query is a memo hit, so the witness is read from a memoized
//! model and must render byte for byte the same.

mod counterexamples;

use std::sync::Arc;

use counterexamples::{job_for, PINNED};
use shadowdp::corpus;
use shadowdp::Pipeline;
use shadowdp_service::{render_verdict, wire_digest};
use shadowdp_solver::QueryMemo;

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
