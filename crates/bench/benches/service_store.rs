//! `service/warm-vs-cold` — the verification service's persistent-store
//! payoff, measured on the Table 1 corpus (service variant: shared memo,
//! the throughput configuration a daemon runs).
//!
//! `cold` verifies the 18-job corpus against an empty query memo — what
//! the first daemon boot pays. `warm` replays the daemon-restart path
//! byte for byte: the cold memo is snapshotted into a real on-disk
//! [`VerdictStore`], loaded back, absorbed into a fresh memo, and the
//! corpus is re-verified against it.
//!
//! Two invariants are **asserted inside the fresh run** (like the
//! ≥10× memoized solver invariant, they hold on any hardware):
//!
//! - a warm re-verification performs **zero fresh solver queries** —
//!   every validity check is a memo hit (`theory_calls == 0`);
//! - its outcome digest is byte-identical to the cold run's.
//!
//! `bench_compare` additionally checks the machine-independent ratio
//! warm < cold on the fresh dump (see `shadowdp_bench::check_invariants`).
//!
//! `service/flush-incremental` measures the daemon's steady-state write
//! path: one 32-entry dirty delta flushed to an append-only log, against
//! a small (`early`, ~256 live entries) and a large (`late`, ~32k live
//! entries) store. With O(delta) appends the two coincide; the
//! rewrite-everything flush this replaced would make `late` two orders of
//! magnitude slower. Asserted two ways: in-bench, eight successive
//! batches must append byte-identical record sizes (exact and
//! hardware-free); in `bench_compare`, `late` must stay within 3× of
//! `early` on the fresh dump.
//!
//! `service/store-load` times a daemon's start-up path: `VerdictStore::load`
//! of a store holding the Table 1 and buggy-corpus memos (the buggy
//! corpus's BMC countermodels included), then `warm_memo` into a fresh
//! memo. Each iteration also
//! frees what the one before it loaded. The row is not gated.

use std::path::PathBuf;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use shadowdp::{corpus, table1, CorpusJob, Pipeline};
use shadowdp_service::VerdictStore;
use shadowdp_solver::{Fingerprint, MemoEntry, Model, QueryMemo};

fn bench_warm_vs_cold(c: &mut Criterion) {
    let jobs = table1::service_jobs();
    let pipeline = Pipeline::new();

    let mut group = c.benchmark_group("service/warm-vs-cold");
    group.sample_size(10);

    group.bench_function("cold", |b| {
        b.iter(|| {
            pipeline.verify_corpus_parallel_with_memo(&jobs, None, &Arc::new(QueryMemo::default()))
        });
    });

    // Build the warm store exactly the way a daemon restart does: cold
    // run → snapshot to disk → load in a "new process" → absorb.
    let cold_memo = Arc::new(QueryMemo::default());
    let cold = pipeline.verify_corpus_parallel_with_memo(&jobs, None, &cold_memo);
    let path =
        std::env::temp_dir().join(format!("shadowdp-bench-store-{}.bin", std::process::id()));
    let mut store = VerdictStore::load(&path);
    store.update_from_memo(&cold_memo);
    store.flush().expect("store flush succeeds");
    let reloaded = VerdictStore::load(&path);
    let _ = std::fs::remove_file(&path);
    assert!(reloaded.load_note().is_none());
    assert_eq!(reloaded.solver_len(), cold_memo.len());

    let cold_digest = cold.digest();
    group.bench_function("warm", |b| {
        b.iter(|| {
            let memo = Arc::new(QueryMemo::default());
            reloaded.warm_memo(&memo);
            let warm = pipeline.verify_corpus_parallel_with_memo(&jobs, None, &memo);
            let stats = warm.solver_stats;
            assert_eq!(
                stats.theory_calls, 0,
                "warm re-verification did fresh solver work: {stats:?}"
            );
            assert_eq!(stats.cache_hits, stats.checks, "{stats:?}");
            assert_eq!(warm.digest(), cold_digest, "warm run diverged from cold");
            warm
        });
    });

    group.finish();
}

/// Distinct synthetic solver-tier fingerprints (high bit set so they can
/// never collide with real structural hashes used elsewhere in the run).
fn push_fresh_entries(store: &mut VerdictStore, next: &mut u128, n: usize) {
    for _ in 0..n {
        store.solver_put(Fingerprint(*next | (1 << 127)), MemoEntry::Unsat);
        *next += 1;
    }
}

fn bench_store_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "shadowdp-bench-flush-{tag}-{}.bin",
        std::process::id()
    ))
}

const DELTA: usize = 32;

fn bench_flush_incremental(c: &mut Criterion) {
    let mut next_fp: u128 = 0;

    // The exact, hardware-free half of the O(delta) contract: after the
    // base image, eight successive same-sized batches append the same
    // number of bytes each — flush cost after batch K does not scale
    // with K. (A rewrite-everything flush would grow every step.)
    {
        let path = bench_store_path("flat");
        let mut store = VerdictStore::load(&path);
        push_fresh_entries(&mut store, &mut next_fp, 256);
        store.flush().expect("base flush");
        let mut appended = Vec::new();
        for _ in 0..8 {
            let before = store.log_bytes();
            push_fresh_entries(&mut store, &mut next_fp, DELTA);
            store.flush().expect("delta flush");
            appended.push(store.log_bytes() - before);
        }
        assert!(
            appended.windows(2).all(|w| w[0] == w[1]),
            "per-batch appended bytes must be flat across batches: {appended:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    let mut group = c.benchmark_group("service/flush-incremental");
    group.sample_size(10);

    // `early`: a young store. `late`: the same flush against a store two
    // orders of magnitude larger — O(delta) appends keep the two equal
    // (bench_compare enforces late <= 3x early on the fresh dump).
    //
    // The measured delta overwrites the same `DELTA` dedicated keys with
    // a value that flips every iteration (an unchanged value would not
    // re-dirty), so the store's live size stays pinned at `live + DELTA`
    // for the whole measurement — the ~128x early/late size contrast the
    // invariant discriminates on cannot erode as samples accumulate. An
    // O(store) flush would still pay `live` per iteration; only the log
    // file grows, append-only, as it should.
    for (tag, live) in [("early", 256usize), ("late", 32_768usize)] {
        let path = bench_store_path(tag);
        let mut store = VerdictStore::load(&path);
        push_fresh_entries(&mut store, &mut next_fp, live);
        store.flush().expect("seed flush");
        let delta_base = next_fp;
        next_fp += DELTA as u128;
        let mut round = 0u64;
        group.bench_function(tag, |b| {
            b.iter(|| {
                round += 1;
                let value = if round.is_multiple_of(2) {
                    MemoEntry::Unsat
                } else {
                    MemoEntry::Model(Model::default().into())
                };
                for i in 0..DELTA as u128 {
                    store.solver_put(Fingerprint((delta_base + i) | (1 << 127)), value.clone());
                }
                store.flush().expect("delta flush");
                store.log_bytes()
            });
        });
        let _ = std::fs::remove_file(&path);
    }

    group.finish();
}

fn bench_store_load(c: &mut Criterion) {
    let pipeline = Pipeline::new();
    let memo = Arc::new(QueryMemo::default());
    let buggy: Vec<CorpusJob> = corpus::buggy_algorithms()
        .iter()
        .map(|alg| CorpusJob::new(alg.source))
        .collect();
    pipeline.verify_corpus_parallel_with_memo(&table1::service_jobs(), None, &memo);
    pipeline.verify_corpus_parallel_with_memo(&buggy, None, &memo);
    let path = bench_store_path("load");
    let mut store = VerdictStore::load(&path);
    store.update_from_memo(&memo);
    store.flush().expect("store flush succeeds");
    let models = memo
        .snapshot()
        .iter()
        .filter(|(_, entry)| entry.model().is_some())
        .count();
    assert!(models > 0, "the corpus memos hold models");

    let mut group = c.benchmark_group("service");
    group.bench_function("store-load", |b| {
        b.iter(|| {
            let store = VerdictStore::load(&path);
            let warm = QueryMemo::default();
            store.warm_memo(&warm);
            assert_eq!(warm.len(), memo.len());
            (store, warm)
        });
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

criterion_group!(
    benches,
    bench_warm_vs_cold,
    bench_flush_incremental,
    bench_store_load
);
criterion_main!(benches);
