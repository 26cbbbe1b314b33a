//! Lint acceptance tests over the paper corpus and the buggy-variant
//! mini-corpus under `tests/lint/`.
//!
//! - Every Table 1 algorithm (and the Laplace mechanism) lints clean:
//!   the SD checks are tuned to the paper's idioms, so a correct,
//!   verifiable program must not trip them.
//! - The classic *incorrect* Sparse Vector variants are flagged before
//!   any verification runs, with the right code at the right place.
//! - The mini-corpus diagnostics are pinned byte-for-byte against
//!   golden `.expected` files (JSON-lines, canonical order), and the
//!   rendering is deterministic across repeated runs.
//! - The whole corpus lints in single-digit milliseconds — the lint
//!   tier must stay cheap enough to run unconditionally before
//!   verification.

use std::path::Path;
use std::time::Instant;

use shadowdp::{corpus, lint_source, render_json_lines};

/// Codes of a source's diagnostics, in canonical order.
fn codes(source: &str) -> Vec<String> {
    lint_source(source)
        .expect("corpus programs parse")
        .into_iter()
        .map(|d| format!("{}/{}", d.code.as_str(), d.severity.as_str()))
        .collect()
}

#[test]
fn table1_algorithms_lint_clean() {
    for alg in corpus::table1_algorithms() {
        assert_eq!(
            codes(alg.source),
            Vec::<String>::new(),
            "{} must lint clean",
            alg.name
        );
    }
    assert_eq!(
        codes(corpus::laplace_mechanism().source),
        Vec::<String>::new()
    );
}

/// The corpus's known-incorrect variants are flagged *pre-verification*
/// (except the no-threshold-noise variant, whose bug is a semantic
/// alignment failure only the verifier can see — the lint tier is a
/// filter, not a decision procedure).
#[test]
fn buggy_corpus_is_flagged_with_stable_codes() {
    let by_name = |name: &str| {
        let alg = corpus::buggy_algorithms()
            .into_iter()
            .find(|a| a.name == name)
            .unwrap_or_else(|| panic!("no corpus algorithm named {name}"));
        codes(alg.source)
    };
    assert_eq!(
        by_name("Buggy SVT (no threshold noise)"),
        Vec::<String>::new()
    );
    assert_eq!(
        by_name("Buggy SVT (unaligned query noise)"),
        vec!["SD03/warning"]
    );
    assert_eq!(
        by_name("Buggy SVT (unbounded answers)"),
        vec!["SD02/warning"]
    );
    assert_eq!(
        by_name("Buggy Noisy Max (non-injective alignment)"),
        vec!["SD02/warning"]
    );
}

/// Lints one mini-corpus file and compares the JSON-lines rendering
/// byte-for-byte against its golden `.expected` neighbour.
fn golden(stem: &str, expected_positions: &[(usize, usize)]) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint");
    let source = std::fs::read_to_string(dir.join(format!("{stem}.sdp"))).expect("source file");
    let expected =
        std::fs::read_to_string(dir.join(format!("{stem}.expected"))).expect("golden file");
    let diags = lint_source(&source).expect("mini-corpus programs parse");
    assert_eq!(
        render_json_lines(&diags),
        expected,
        "{stem}: diagnostics drifted from the golden file"
    );
    // Locations pinned independently of the golden bytes, so a golden
    // regeneration cannot silently launder a broken line:col mapping.
    let positions: Vec<(usize, usize)> = diags.iter().map(|d| (d.line, d.col)).collect();
    assert_eq!(positions, expected_positions, "{stem}");
}

#[test]
fn golden_svt_unused_threshold_noise() {
    golden("svt_unused_threshold_noise", &[(8, 5)]);
}

#[test]
fn golden_partial_sum_over_budget() {
    golden("partial_sum_over_budget", &[(14, 5)]);
}

#[test]
fn golden_noisy_max_unused_noise() {
    golden("noisy_max_unused_noise", &[(9, 9), (10, 9)]);
}

/// A hat in `return` breaks the source-stage rule: lint flags it where the
/// typechecker would reject it.
#[test]
fn golden_laplace_hat_return() {
    golden("laplace_hat_return", &[(7, 5)]);
}

/// Linting the same program twice renders byte-identical JSON — the
/// report digest contract extended to the lint tier.
#[test]
fn lint_is_deterministic_across_runs() {
    for alg in corpus::all_algorithms() {
        let a = render_json_lines(&lint_source(alg.source).expect("parses"));
        let b = render_json_lines(&lint_source(alg.source).expect("parses"));
        assert_eq!(a, b, "{}", alg.name);
    }
}

/// The lint tier is cheap: the entire corpus (nine Table 1 algorithms,
/// the Laplace mechanism, four buggy variants) lints well under the
/// 5 ms acceptance bound in release builds. Debug builds get slack —
/// the bound guards the optimized binary users run.
#[test]
fn full_corpus_lints_under_budget() {
    let algorithms = corpus::all_algorithms();
    // Warm up (first parse touches lazy metric registration).
    for alg in &algorithms {
        let _ = lint_source(alg.source);
    }
    let start = Instant::now();
    for alg in &algorithms {
        let _ = lint_source(alg.source).expect("parses");
    }
    let elapsed = start.elapsed();
    let budget_ms = if cfg!(debug_assertions) { 50 } else { 5 };
    assert!(
        elapsed.as_millis() < budget_ms,
        "linting {} algorithms took {elapsed:?} (budget {budget_ms}ms)",
        algorithms.len()
    );
}
