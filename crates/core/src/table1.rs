//! The Table 1 harness: runs the full pipeline on every benchmark and
//! reports per-phase timings alongside the paper's reference numbers.
//!
//! Both verification modes of all nine algorithms are expressed as one
//! 18-job corpus ([`corpus_jobs`]) so the harness can run it through either
//! driver: [`run_table1`] sequentially, [`run_table1_parallel`] fanned out
//! over worker threads (see [`Pipeline::verify_corpus_parallel`] for the
//! design and determinism guarantees — the rows differ only in measured
//! wall-clock). Each job keeps an isolated query memo so every row times a
//! cold verification, comparable with the paper's per-algorithm numbers.

use std::fmt::Write as _;
use std::time::Duration;

use shadowdp_num::Rat;
use shadowdp_verify::{BmcOptions, Engine, Options, Verdict, VerifyMode};

use crate::corpus::{table1_algorithms, Algorithm};
use crate::pipeline::{CorpusJob, CorpusOutcome, Pipeline};

/// One row of the regenerated Table 1.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Algorithm name.
    pub name: String,
    /// Measured type-check + transformation time.
    pub typecheck: Duration,
    /// Measured verification time, scaled-cost mode (≈ the paper's
    /// "Rewrite" column).
    pub verify_scaled: Option<Duration>,
    /// Measured verification time, fixed-ε mode (the paper's "Fix ε").
    pub verify_fix_eps: Option<Duration>,
    /// Whether the proof succeeded in each mode.
    pub proved_scaled: bool,
    /// Whether the fixed-ε proof succeeded.
    pub proved_fix_eps: bool,
    /// Paper reference times (type check, rewrite, fix ε, coupling
    /// verifier), seconds.
    pub paper_typecheck: Option<f64>,
    /// Paper "Rewrite" verification seconds.
    pub paper_verify: Option<f64>,
    /// Paper "Fix ε" verification seconds.
    pub paper_verify_fix: Option<f64>,
    /// Paper coupling-verifier seconds (\[2\]).
    pub paper_coupling: Option<f64>,
}

fn bmc_options(alg: &Algorithm) -> BmcOptions {
    BmcOptions {
        list_len: 3,
        max_unroll: None,
        assumptions: alg
            .bmc_assumptions
            .iter()
            .map(|s| shadowdp_syntax::parse_expr(s).expect("corpus assumption parses"))
            .collect(),
    }
}

fn mode_options(alg: &Algorithm, mode: VerifyMode) -> Options {
    Options {
        mode,
        engine: Engine::Inductive,
        bmc: bmc_options(alg),
        inductive: Default::default(),
        budget: None,
    }
}

/// The Table 1 corpus as driver jobs: for every algorithm in the paper's
/// order, a scaled-mode job immediately followed by its fixed-ε job
/// (18 jobs total — enough independent work to keep a CI-class machine's
/// cores saturated).
///
/// Every job opts **out** of the corpus-wide shared memo
/// ([`CorpusJob::with_isolated_memo`]): the rows stand in for the paper's
/// per-algorithm measurements, so each timing must be a cold, independent
/// verification, not one warmed by whatever a sibling job solved first.
/// Corpus-level memo sharing (the default for plain [`CorpusJob::new`]
/// jobs) remains the right choice for throughput-oriented drivers.
pub fn corpus_jobs() -> Vec<CorpusJob> {
    table1_algorithms()
        .iter()
        .flat_map(|alg| {
            [
                CorpusJob::with_options(alg.source, mode_options(alg, VerifyMode::Scaled))
                    .with_isolated_memo(),
                CorpusJob::with_options(
                    alg.source,
                    mode_options(alg, VerifyMode::FixEps(Rat::ONE)),
                )
                .with_isolated_memo(),
            ]
        })
        .collect()
}

/// The Table 1 corpus in its **service** form: identical sources and
/// options to [`corpus_jobs`], but sharing the corpus/daemon memo. The
/// harness's per-job isolation exists for cold row timings; a
/// throughput-oriented consumer (the verification daemon, the
/// `service/warm-vs-cold` bench) deliberately trades that away, and both
/// must agree on the corpus — hence one definition here.
pub fn service_jobs() -> Vec<CorpusJob> {
    corpus_jobs()
        .into_iter()
        .map(|mut job| {
            job.isolated_memo = false;
            job
        })
        .collect()
}

/// Assembles Table 1 rows from a [`corpus_jobs`] outcome (scaled/fix-ε job
/// pairs, in order).
pub fn rows_from_outcome(outcome: &CorpusOutcome) -> Vec<Table1Row> {
    let extract = |i: usize| -> (Duration, Duration, bool) {
        match &outcome.reports[i] {
            Ok(report) => (
                report.typecheck_time,
                report.verify_time,
                matches!(report.verdict, Verdict::Proved),
            ),
            Err(_) => (Duration::ZERO, Duration::ZERO, false),
        }
    };
    table1_algorithms()
        .iter()
        .enumerate()
        .map(|(idx, alg)| {
            let (tc, v_scaled, ok_scaled) = extract(2 * idx);
            let (_, v_fix, ok_fix) = extract(2 * idx + 1);
            Table1Row {
                name: alg.name.to_string(),
                typecheck: tc,
                verify_scaled: Some(v_scaled),
                verify_fix_eps: Some(v_fix),
                proved_scaled: ok_scaled,
                proved_fix_eps: ok_fix,
                paper_typecheck: alg.paper.map(|p| p.typecheck),
                paper_verify: alg.paper.and_then(|p| p.verify_rewrite),
                paper_verify_fix: alg.paper.and_then(|p| p.verify_fix),
                paper_coupling: alg.paper.and_then(|p| p.coupling),
            }
        })
        .collect()
}

/// Regenerates Table 1 sequentially: all nine algorithms, both
/// verification modes, one thread.
pub fn run_table1() -> Vec<Table1Row> {
    rows_from_outcome(&Pipeline::new().verify_corpus(&corpus_jobs()))
}

/// Regenerates Table 1 with the work-stealing parallel driver
/// (`threads = None` uses every available core). Returns the rows plus the
/// raw outcome so callers can report corpus wall-clock and thread count.
pub fn run_table1_parallel(threads: Option<usize>) -> (Vec<Table1Row>, CorpusOutcome) {
    let outcome = Pipeline::new().verify_corpus_parallel(&corpus_jobs(), threads);
    (rows_from_outcome(&outcome), outcome)
}

/// Renders rows as an aligned text table (the `examples/table1.rs` output).
pub fn render(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<42} {:>10} {:>12} {:>12} {:>8} {:>10} {:>10} {:>10}",
        "Algorithm",
        "TC (s)",
        "Verify (s)",
        "Fix-ε (s)",
        "Proved",
        "paper TC",
        "paper V",
        "paper [2]"
    );
    let _ = writeln!(out, "{}", "-".repeat(120));
    for r in rows {
        let fmt_d = |d: Option<Duration>| {
            d.map_or_else(|| "-".into(), |d| format!("{:.3}", d.as_secs_f64()))
        };
        let fmt_f = |f: Option<f64>| f.map_or_else(|| "-".into(), |f| format!("{f}"));
        let _ = writeln!(
            out,
            "{:<42} {:>10.3} {:>12} {:>12} {:>8} {:>10} {:>10} {:>10}",
            r.name,
            r.typecheck.as_secs_f64(),
            fmt_d(r.verify_scaled),
            fmt_d(r.verify_fix_eps),
            if r.proved_scaled && r.proved_fix_eps {
                "yes"
            } else if r.proved_scaled {
                "scaled"
            } else if r.proved_fix_eps {
                "fix-ε"
            } else {
                "NO"
            },
            fmt_f(r.paper_typecheck),
            fmt_f(r.paper_verify),
            fmt_f(r.paper_coupling),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nine algorithms × two modes, every job cold (isolated memo) so the
    /// row timings never depend on sibling jobs or scheduling.
    #[test]
    fn corpus_jobs_are_isolated_mode_pairs() {
        let jobs = corpus_jobs();
        assert_eq!(jobs.len(), 2 * table1_algorithms().len());
        assert!(jobs.iter().all(|j| j.isolated_memo));
        assert!(jobs.iter().all(|j| j.options.is_some()));
    }
}
