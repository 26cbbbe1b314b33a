//! The synthesizer's search order, pinned by what it finds and after how
//! many candidates.
//!
//! Candidate alignments that read a list come from the body's list reads
//! in walk order, so a change to how expressions are walked can reorder
//! the search. Both the count and the winning annotation would move.

use shadowdp::corpus::{self, Algorithm};
use shadowdp_syntax::parse_function;
use shadowdp_synth::{synthesize, SynthOptions};

/// The candidate count and the `select …, align …` annotation per
/// sampling site that synthesis finds for `alg` with its annotations
/// ignored.
fn synthesized(alg: &Algorithm) -> (usize, Vec<String>) {
    let f = parse_function(alg.source).expect("corpus programs parse");
    let result = synthesize(&f, &SynthOptions::default());
    let found = result
        .annotations
        .unwrap_or_else(|| panic!("{}: no annotation found", alg.name));
    let found = found
        .iter()
        .map(|(selector, align)| format!("select {selector}, align {align}"))
        .collect();
    (result.attempts, found)
}

#[test]
fn laplace_mechanism_annotation_is_found_after_4_candidates() {
    assert_eq!(
        synthesized(&corpus::laplace_mechanism()),
        (4, vec!["select aligned, align -1".to_string()])
    );
}

#[test]
fn svt_n1_annotation_is_found_after_222_candidates() {
    assert_eq!(
        synthesized(&corpus::svt_n1()),
        (
            222,
            vec![
                "select aligned, align 1".to_string(),
                "select aligned, align q[i] + eta2 >= tt ? 2 : 0".to_string(),
            ]
        )
    );
}
