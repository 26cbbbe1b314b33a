//! Shared helpers for the Table 1 benchmark harness, plus the parsing and
//! comparison logic behind the `bench_compare` regression gate.
//!
//! The benches (one per Table 1 column group) live in `benches/`:
//!
//! - `table1_typecheck` — the "Type Check (s)" column: parse + type check
//!   + transformation for each of the nine algorithms;
//! - `table1_verification` — the "Verification by ShadowDP (s)" columns:
//!   lowering + inductive proof, in both the scaled ("Rewrite") and fixed-ε
//!   modes;
//! - `corpus_parallel` — the whole Table 1 corpus end-to-end through the
//!   sequential vs. the work-stealing parallel driver (the
//!   `table1/verify-parallel` group);
//! - `service_store` — the verification service's persistent-store payoff
//!   (the `service/warm-vs-cold` group): the Table 1 corpus cold versus
//!   re-verified against a memo loaded from a real on-disk verdict store,
//!   asserting zero fresh solver queries inside the warm run; plus the
//!   `service/flush-incremental` group pinning the O(delta) append-only
//!   store flush (same dirty delta into a small vs. a ~128× larger store,
//!   with per-batch appended bytes asserted flat inside the bench);
//! - `baseline_synthesis` — the "Verification by \[2\] (s)" comparison
//!   column: proof *search* over the §6.4 annotation space;
//! - `substrates` — microbenchmarks of the home-grown substrates (QF-LRA
//!   solver, interpreter) so regressions are visible independently of the
//!   pipeline.
//!
//! The `bench_compare` binary (`src/bin/bench_compare.rs`) diffs a fresh
//! `CRITERION_JSON` dump against the committed `BENCH_solver.json`
//! snapshot and fails CI on regressions in the gated benchmarks; the
//! line-format parsing and gating policy live here so they are unit
//! tested.

use shadowdp::corpus::Algorithm;
use shadowdp_syntax::{parse_function, Function};
use shadowdp_typing::check_function;

/// Parses a corpus algorithm (panicking on failure — bench inputs are
/// trusted).
pub fn parsed(alg: &Algorithm) -> Function {
    parse_function(alg.source).expect("corpus parses")
}

/// Parses and transforms a corpus algorithm.
pub fn transformed(alg: &Algorithm) -> Function {
    check_function(&parsed(alg))
        .expect("corpus type checks")
        .function
}

// ---------------------------------------------------------------------------
// bench_compare support
// ---------------------------------------------------------------------------

/// One benchmark measurement from a Criterion JSON-lines dump.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEntry {
    /// Full benchmark id, e.g. `table1/verify-scaled/Smart Sum`.
    pub id: String,
    /// Mean per-iteration time in nanoseconds.
    pub mean_ns: f64,
}

/// Parses the vendored Criterion harness's JSON-lines format
/// (`{"id": …, "mean_ns": …, "stddev_ns": …, "samples": …}`). Later
/// duplicates of an id win (an appended dump supersedes earlier runs).
/// Lines that do not carry both fields are ignored.
pub fn parse_bench_json(text: &str) -> Vec<BenchEntry> {
    let mut entries: Vec<BenchEntry> = Vec::new();
    for line in text.lines() {
        let Some(id) = extract_str(line, "\"id\"") else {
            continue;
        };
        let Some(mean_ns) = extract_num(line, "\"mean_ns\"") else {
            continue;
        };
        if let Some(existing) = entries.iter_mut().find(|e| e.id == id) {
            existing.mean_ns = mean_ns;
        } else {
            entries.push(BenchEntry { id, mean_ns });
        }
    }
    entries
}

fn extract_str(line: &str, key: &str) -> Option<String> {
    let at = line.find(key)? + key.len();
    let rest = line[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

fn extract_num(line: &str, key: &str) -> Option<f64> {
    let at = line.find(key)? + key.len();
    let rest = line[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Whether a benchmark id is perf-gated in CI.
///
/// The gate covers the two contracts this repository's performance work
/// rests on: the solver memo hit path (`repeated-query/memoized` — the
/// ~400× cached-query speedup) and end-to-end Table 1 verification in
/// scaled mode (`table1/verify-scaled/*` — the paper's headline numbers).
/// Everything else is tracked in the snapshot but only reported.
pub fn is_gated(id: &str) -> bool {
    id == "solver_micro/repeated-query/memoized" || id.starts_with("table1/verify-scaled/")
}

/// The outcome of comparing one gated benchmark.
#[derive(Clone, Debug, PartialEq)]
pub enum Comparison {
    /// Fresh mean is within the threshold of (or better than) baseline.
    Ok {
        /// Relative change, e.g. `0.10` for 10 % slower, negative = faster.
        delta: f64,
    },
    /// Fresh mean regressed beyond the threshold.
    Regressed {
        /// Relative change (> threshold).
        delta: f64,
    },
    /// The fresh dump is missing this gated benchmark entirely — treated
    /// as a failure so benches cannot silently disappear from CI.
    Missing,
}

/// Machine-independent invariants, checked on the **fresh** dump alone.
///
/// The snapshot comparison above is absolute and therefore assumes the
/// fresh run happened on hardware comparable to the machine that produced
/// `BENCH_solver.json` (a CI-class container; regenerate the snapshot when
/// the runner class changes). These checks complement it by comparing
/// fresh numbers only with fresh numbers, so they hold on any runner at
/// any clock speed:
///
/// - a memoized repeated query must stay at least 10× below a full
///   uncached solve (it is ~400× in practice) — the failure mode this
///   guards, a memo path that silently stopped hitting, shows up as the
///   two entries converging regardless of how fast the machine is;
/// - a warm (store-loaded memo) re-verification of the Table 1 service
///   corpus must stay at least 2× below the cold run (it is ~10× in
///   practice). The zero-fresh-solver-queries half of that contract is
///   asserted *inside* the bench itself (`benches/service_store.rs`
///   panics, failing the whole bench run, if a warm run performs any
///   theory call or diverges from the cold digest); the ratio here is
///   the independent end-to-end witness that the persistent store keeps
///   paying off;
/// - flushing one fixed-size dirty delta into a ~32k-entry store
///   (`service/flush-incremental/late`) must stay within 3× of the same
///   flush into a ~256-entry store (`early`) — the O(delta) append
///   contract. The failure mode this guards, a write path that quietly
///   went back to re-encoding the whole store per batch (quadratic over
///   a candidate loop), shows up as `late` exceeding `early` by the
///   stores' ~128× size ratio on any hardware. The byte-exact half of
///   the contract (per-batch appended bytes flat across eight batches)
///   is asserted inside the bench itself;
/// - the Houdini **post-drop consecution hit rate**
///   (`solver_micro/houdini-rekey/post-drop-hit-rate-pct` — a percentage
///   carried in the `mean_ns` field, not a time) must stay ≥ 50 %. Under
///   per-candidate assumption keying, the round that follows a candidate
///   drop re-asks each surviving candidate's obligation under an
///   assumption set that never mentioned the dropped sibling, so most of
///   those queries are memo hits; a regression back to candidate-set-
///   sensitive keys shows up as this rate collapsing toward 0 on any
///   hardware (it is ~80 % in practice on Partial Sum);
/// - the trail engine's **saturation reuse rate**
///   (`solver_micro/trail/saturation-reuse-pct` — likewise a percentage
///   in the `mean_ns` field) must stay ≥ 50 %. Under the incremental
///   trail core nearly every constraint push extends live tableau state
///   rather than recomputing it, so this sits near 90 % in practice; a
///   regression back to clone-and-resaturate-per-disjunct search shows
///   up as the rate collapsing toward 0 on any hardware.
///
/// Returns human-readable violation messages (empty = ok).
pub fn check_invariants(fresh: &[BenchEntry]) -> Vec<String> {
    let mut violations = Vec::new();
    let find = |id: &str| fresh.iter().find(|e| e.id == id).map(|e| e.mean_ns);
    match (
        find("solver_micro/repeated-query/memoized"),
        find("solver_micro/repeated-query/uncached"),
    ) {
        (Some(memoized), Some(uncached)) => {
            if memoized > uncached * 0.10 {
                violations.push(format!(
                    "memoized repeated query ({memoized:.1} ns) is not >=10x faster than \
                     uncached ({uncached:.1} ns): the solver memo has effectively stopped \
                     hitting"
                ));
            }
        }
        _ => violations.push(
            "fresh dump is missing the repeated-query memoized/uncached pair needed for the \
             machine-independent memo check"
                .to_string(),
        ),
    }
    match (
        find("service/warm-vs-cold/warm"),
        find("service/warm-vs-cold/cold"),
    ) {
        (Some(warm), Some(cold)) => {
            if warm > cold * 0.50 {
                violations.push(format!(
                    "warm service re-verification ({warm:.1} ns) is not >=2x faster than cold \
                     ({cold:.1} ns): the persistent verdict store has effectively stopped \
                     serving memo hits"
                ));
            }
        }
        _ => violations.push(
            "fresh dump is missing the service warm-vs-cold pair needed for the \
             machine-independent store check"
                .to_string(),
        ),
    }
    match (
        find("service/flush-incremental/early"),
        find("service/flush-incremental/late"),
    ) {
        (Some(early), Some(late)) => {
            if late > early * 3.0 {
                violations.push(format!(
                    "incremental store flush into a large store ({late:.1} ns) is more than \
                     3x the same flush into a small store ({early:.1} ns): the write path \
                     has stopped being O(delta)"
                ));
            }
        }
        _ => violations.push(
            "fresh dump is missing the service flush-incremental early/late pair needed for \
             the machine-independent O(delta) flush check"
                .to_string(),
        ),
    }
    match find("solver_micro/houdini-rekey/post-drop-hit-rate-pct") {
        Some(rate_pct) => {
            if rate_pct < 50.0 {
                violations.push(format!(
                    "Houdini post-drop consecution hit rate ({rate_pct:.1} %) fell below 50 %: \
                     per-candidate assumption keying has stopped answering post-drop rounds \
                     from the memo"
                ));
            }
        }
        None => violations.push(
            "fresh dump is missing the houdini-rekey post-drop-hit-rate-pct entry needed for \
             the machine-independent consecution-keying check"
                .to_string(),
        ),
    }
    match find("solver_micro/trail/saturation-reuse-pct") {
        Some(rate_pct) => {
            if rate_pct < 50.0 {
                violations.push(format!(
                    "trail saturation reuse rate ({rate_pct:.1} %) fell below 50 %: the \
                     incremental tableau has stopped extending live state and is recomputing \
                     saturations from scratch"
                ));
            }
        }
        None => violations.push(
            "fresh dump is missing the trail saturation-reuse-pct entry needed for the \
             machine-independent incremental-saturation check"
                .to_string(),
        ),
    }
    violations
}

/// Compares every gated baseline entry against the fresh dump.
/// `threshold` is the allowed relative slowdown (0.25 = +25 %).
pub fn compare_gated(
    baseline: &[BenchEntry],
    fresh: &[BenchEntry],
    threshold: f64,
) -> Vec<(String, f64, Option<f64>, Comparison)> {
    baseline
        .iter()
        .filter(|b| is_gated(&b.id))
        .map(|b| match fresh.iter().find(|f| f.id == b.id) {
            None => (b.id.clone(), b.mean_ns, None, Comparison::Missing),
            Some(f) => {
                let delta = f.mean_ns / b.mean_ns - 1.0;
                let verdict = if delta > threshold {
                    Comparison::Regressed { delta }
                } else {
                    Comparison::Ok { delta }
                };
                (b.id.clone(), b.mean_ns, Some(f.mean_ns), verdict)
            }
        })
        .collect()
}

/// The shell command that re-seeds the snapshot at `baseline_path`, for
/// `bench_compare`'s failure hint. Cargo runs benches from the bench
/// package's directory, so `CRITERION_JSON` must be absolute: a relative
/// path gets a `$PWD/` prefix, an absolute one is kept as it is.
pub fn reseed_command(baseline_path: &str) -> String {
    let target = if std::path::Path::new(baseline_path).is_absolute() {
        baseline_path.to_string()
    } else {
        format!("$PWD/{baseline_path}")
    };
    format!("rm {baseline_path} && CRITERION_JSON=\"{target}\" cargo bench -p shadowdp-bench")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"id\": \"solver_micro/repeated-query/memoized\", \"mean_ns\": 200.0, \"stddev_ns\": 17.3, \"samples\": 12}\n",
        "{\"id\": \"table1/verify-scaled/Smart Sum\", \"mean_ns\": 80000000.0, \"stddev_ns\": 1.0, \"samples\": 10}\n",
        "{\"id\": \"table1/typecheck/Smart Sum\", \"mean_ns\": 577750.4, \"stddev_ns\": 1.0, \"samples\": 20}\n",
    );

    #[test]
    fn parses_the_snapshot_format() {
        let entries = parse_bench_json(SAMPLE);
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].id, "solver_micro/repeated-query/memoized");
        assert_eq!(entries[0].mean_ns, 200.0);
        // Garbage and partial lines are skipped.
        assert!(parse_bench_json("not json\n{\"id\": \"x\"}\n").is_empty());
        // Appended re-runs supersede earlier entries.
        let dup = format!(
            "{SAMPLE}{}",
            SAMPLE.lines().next().unwrap().replace("200.0", "150.0")
        );
        let entries = parse_bench_json(&dup);
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].mean_ns, 150.0);
    }

    #[test]
    fn gating_policy_covers_memo_and_scaled_verify() {
        assert!(is_gated("solver_micro/repeated-query/memoized"));
        assert!(is_gated("table1/verify-scaled/Smart Sum"));
        assert!(!is_gated("solver_micro/repeated-query/uncached"));
        assert!(!is_gated("table1/typecheck/Smart Sum"));
        assert!(!is_gated("table1/verify-parallel/sequential"));
    }

    #[test]
    fn compare_flags_regressions_missing_and_ok() {
        let baseline = parse_bench_json(SAMPLE);
        // 10 % slower memo (ok), 30 % slower Smart Sum (regression), and
        // the typecheck entry is ungated either way.
        let fresh = vec![
            BenchEntry {
                id: "solver_micro/repeated-query/memoized".into(),
                mean_ns: 220.0,
            },
            BenchEntry {
                id: "table1/verify-scaled/Smart Sum".into(),
                mean_ns: 104000000.0,
            },
        ];
        let rows = compare_gated(&baseline, &fresh, 0.25);
        assert_eq!(rows.len(), 2);
        assert!(matches!(rows[0].3, Comparison::Ok { .. }));
        assert!(matches!(rows[1].3, Comparison::Regressed { .. }));

        // A gated baseline entry missing from the fresh dump fails.
        let rows = compare_gated(&baseline, &[], 0.25);
        assert!(rows.iter().all(|r| matches!(r.3, Comparison::Missing)));

        // Faster never fails.
        let fast = vec![
            BenchEntry {
                id: "solver_micro/repeated-query/memoized".into(),
                mean_ns: 20.0,
            },
            BenchEntry {
                id: "table1/verify-scaled/Smart Sum".into(),
                mean_ns: 1000.0,
            },
        ];
        let rows = compare_gated(&baseline, &fast, 0.25);
        assert!(rows.iter().all(|r| matches!(r.3, Comparison::Ok { .. })));
    }

    #[test]
    fn invariant_check_is_machine_independent() {
        let entry = |id: &str, mean_ns: f64| BenchEntry {
            id: id.into(),
            mean_ns,
        };
        let healthy = |scale: f64| {
            vec![
                entry("solver_micro/repeated-query/memoized", 220.0 * scale),
                entry("solver_micro/repeated-query/uncached", 87_000.0 * scale),
                entry("service/warm-vs-cold/warm", 6_800_000.0 * scale),
                entry("service/warm-vs-cold/cold", 150_000_000.0 * scale),
                entry("service/flush-incremental/early", 90_000.0 * scale),
                entry("service/flush-incremental/late", 110_000.0 * scale),
                // Rates in percent, not times: deliberately NOT scaled.
                entry("solver_micro/houdini-rekey/post-drop-hit-rate-pct", 80.0),
                entry("solver_micro/trail/saturation-reuse-pct", 90.0),
            ]
        };
        // A healthy ratio passes at any absolute speed (fast or slow box).
        for scale in [0.1, 1.0, 50.0] {
            assert!(
                check_invariants(&healthy(scale)).is_empty(),
                "scale {scale}"
            );
        }
        // A dead memo (hit path ~ uncached path) fails even on a fast box.
        let mut dead = healthy(1.0);
        dead[0].mean_ns = 40_000.0;
        dead[1].mean_ns = 41_000.0;
        assert_eq!(check_invariants(&dead).len(), 1);
        // A dead persistent store (warm ~ cold) fails the same way.
        let mut dead_store = healthy(1.0);
        dead_store[2].mean_ns = 140_000_000.0;
        assert_eq!(check_invariants(&dead_store).len(), 1);
        // A flush that went back to O(store) — the large-store flush pays
        // the store-size ratio — fails on any hardware.
        let mut quadratic = healthy(1.0);
        quadratic[5].mean_ns = quadratic[4].mean_ns * 100.0;
        assert_eq!(check_invariants(&quadratic).len(), 1);
        // A consecution-keying regression (post-drop rounds mostly missing
        // the memo again) fails regardless of machine speed.
        let mut rekeyed_away = healthy(1.0);
        rekeyed_away[6].mean_ns = 12.0;
        assert_eq!(check_invariants(&rekeyed_away).len(), 1);
        // A trail core that went back to resaturating from scratch per
        // disjunct fails regardless of machine speed.
        let mut resaturating = healthy(1.0);
        resaturating[7].mean_ns = 8.0;
        assert_eq!(check_invariants(&resaturating).len(), 1);
        // Missing entries are flagged, not silently skipped.
        assert_eq!(check_invariants(&[]).len(), 5);
    }

    #[test]
    fn reseed_command_prefixes_only_relative_paths() {
        assert_eq!(
            reseed_command("BENCH_solver.json"),
            "rm BENCH_solver.json && CRITERION_JSON=\"$PWD/BENCH_solver.json\" cargo bench \
             -p shadowdp-bench"
        );
        assert_eq!(
            reseed_command("/srv/bench/BENCH_solver.json"),
            "rm /srv/bench/BENCH_solver.json && CRITERION_JSON=\"/srv/bench/BENCH_solver.json\" \
             cargo bench -p shadowdp-bench"
        );
    }
}
