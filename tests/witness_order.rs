//! A refuted job's witness depends only on its query, never on what the
//! process did before: not on the order names were first interned, and not
//! on the programs verified earlier.
//!
//! Fourier–Motzkin breaks ties between variables, and picks the variable
//! an equality is solved for, by symbol order, and the witness is the model
//! those choices build. This file is a test binary of its own, so no other
//! test interns a name first: it interns the names that matter against
//! their byte order, and the buggy corpus must still give the pins of
//! `counterexample_pin.rs`, before and after the Table 1 corpus runs.

mod counterexamples;

use std::collections::BTreeSet;
use std::sync::Arc;

use counterexamples::{job_for, PINNED};
use shadowdp::{corpus, table1, Pipeline};
use shadowdp_service::{render_verdict, wire_digest};
use shadowdp_solver::{QueryMemo, Symbol};
use shadowdp_syntax::{Lexer, TokenKind};

/// The names the pinned witnesses mention, and the names the solver can
/// see for each identifier `x` of the buggy programs: `x`, `^x` and `~x`,
/// each also as an element of a three-element list (`x[0]`…) and as a
/// BMC skolem (`x#0`…).
fn names() -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (verdict, _) in PINNED {
        if let Some((_, model)) = verdict.split_once(" with ") {
            names.extend(
                model
                    .split(", ")
                    .map(|v| v.split(" = ").next().unwrap().to_string()),
            );
        }
    }
    for alg in corpus::buggy_algorithms() {
        for token in Lexer::new(alg.source).lex().unwrap() {
            if let TokenKind::Ident(id) = token.kind {
                for var in [format!("^{id}"), format!("~{id}"), id.clone()] {
                    names.extend((0..3).map(|k| format!("{var}[{k}]")));
                    names.extend((0..10).map(|k| format!("{var}#{k}")));
                    names.insert(var);
                }
            }
        }
    }
    names
}

/// Verifies the buggy corpus on a fresh memo and checks it against the
/// pins.
fn assert_buggy_corpus_is_pinned(run: &str) {
    let algorithms = corpus::buggy_algorithms();
    let jobs: Vec<_> = algorithms.iter().map(job_for).collect();
    let memo = Arc::new(QueryMemo::default());
    let outcome = Pipeline::new().verify_corpus_parallel_with_memo(&jobs, Some(1), &memo);
    for (i, (alg, (verdict, digest))) in algorithms.iter().zip(PINNED).enumerate() {
        let name = alg.name;
        let report = &outcome.reports[i];
        assert_eq!(render_verdict(report), verdict, "{name} ({run}): verdict");
        let got = wire_digest(&outcome.report_digest(i));
        assert_eq!(got, digest, "{name} ({run}): report digest");
    }
}

#[test]
fn witnesses_do_not_depend_on_interning_order_or_earlier_jobs() {
    let names = names();
    assert!(["eta2#6", "~q[2]", "^eta2"]
        .iter()
        .all(|n| names.contains(*n)));
    for name in names.iter().rev() {
        Symbol::intern(name);
    }
    assert_buggy_corpus_is_pinned("names interned in reverse");
    let table1 = Pipeline::new().verify_corpus(&table1::corpus_jobs());
    assert_eq!(table1.reports.len(), 18);
    assert_buggy_corpus_is_pinned("after Table 1");
}
