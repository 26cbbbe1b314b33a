//! Table 1, "Verification by ShadowDP (s)" columns: target lowering plus
//! the inductive (Houdini) proof, in both cost-linearization modes — the
//! paper's "Rewrite" (here: automatic rescaling) and "Fix ε" variants.
//!
//! Tracing spans stay **armed** throughout: the gated
//! `table1/verify-scaled/*` timings measured here are the
//! "observability overhead is bounded" acceptance — they must stay
//! within the regression threshold of the trace-free baseline. After
//! the timed groups, one armed cold corpus run derives per-phase rows
//! (`table1/phase/*`, mean ns per job from span durations) that are
//! appended to the `CRITERION_JSON` dump next to the Criterion entries.

use std::io::Write;

use criterion::{criterion_group, criterion_main, Criterion};
use shadowdp::corpus::table1_algorithms;
use shadowdp::{table1, Pipeline};
use shadowdp_bench::transformed;
use shadowdp_num::Rat;
use shadowdp_verify::{verify, Engine, Options, Verdict, VerifyMode};

fn options(mode: VerifyMode) -> Options {
    Options {
        mode,
        engine: Engine::Inductive,
        ..Options::default()
    }
}

fn bench_mode(c: &mut Criterion, label: &str, mode: VerifyMode) {
    let mut group = c.benchmark_group(format!("table1/verify-{label}"));
    group.sample_size(10);
    for alg in table1_algorithms() {
        let t = transformed(&alg);
        let opts = options(mode.clone());
        // Sanity: the proof must succeed, otherwise timing is meaningless.
        assert!(
            matches!(verify(&t, &opts).verdict, Verdict::Proved),
            "{} does not prove in mode {label}",
            alg.name
        );
        group.bench_function(alg.name, |b| {
            b.iter(|| verify(std::hint::black_box(&t), &opts));
        });
    }
    group.finish();
}

/// One armed cold 18-job corpus run, reduced to per-phase span totals
/// and appended to the `CRITERION_JSON` dump (mean ns per job) so the
/// paper's transpilation-vs-verification split is tracked per commit.
fn emit_phase_rows() {
    let _ = shadowdp_obs::take_spans(); // drop the benchmark-loop spans
    let jobs = table1::service_jobs();
    let outcome = Pipeline::new().verify_corpus_parallel(&jobs, Some(1));
    assert_eq!(outcome.reports.len(), jobs.len());
    let spans = shadowdp_obs::take_spans();
    let phase_total_us = |phase: &str| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == phase)
            .map(|s| s.dur_us)
            .sum()
    };
    let n = jobs.len() as f64;
    for phase in ["parse", "lint", "typecheck", "lower", "verify"] {
        let mean_ns = phase_total_us(phase) as f64 * 1_000.0 / n;
        println!("table1/phase/{phase}    mean {mean_ns:.0} ns/job (span-derived)");
        if let Ok(path) = std::env::var("CRITERION_JSON") {
            if !path.is_empty() {
                if let Ok(mut file) = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                {
                    let _ = writeln!(
                        file,
                        "{{\"id\": \"table1/phase/{phase}\", \"mean_ns\": {mean_ns:.1}, \
                         \"stddev_ns\": 0.0, \"samples\": {}}}",
                        jobs.len()
                    );
                }
            }
        }
    }
}

fn bench_verification(c: &mut Criterion) {
    shadowdp_obs::arm();
    bench_mode(c, "scaled", VerifyMode::Scaled);
    bench_mode(c, "fix-eps", VerifyMode::FixEps(Rat::ONE));
    emit_phase_rows();
    shadowdp_obs::disarm();
}

criterion_group!(benches, bench_verification);
criterion_main!(benches);
