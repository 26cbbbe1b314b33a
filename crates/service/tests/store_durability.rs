//! Durability contract of the persistent verdict store (append-only log
//! format, v3).
//!
//! Four properties, each pinned independently:
//!
//! 1. **Round trip** — a snapshot → flush → load → absorb cycle recovers
//!    every solver verdict and every pipeline entry (property-tested over
//!    randomized memo contents, and end-to-end over a real corpus run
//!    that must then do zero fresh theory work).
//! 2. **Torn-tail tolerance** — truncating or corrupting the log degrades
//!    the next load to the longest valid record prefix: no panic, no
//!    half-merged record, a note explaining what was dropped. Only header
//!    damage costs the whole store.
//! 3. **Append atomicity** — a crash at *any byte* of an incremental
//!    append recovers to exactly the pre-append or post-append view.
//! 4. **Compaction atomicity** — a crash at *any byte* of a compaction
//!    rewrite (staged in a temp file, renamed over the log) recovers to
//!    exactly the pre- or post-compaction view, never a mix.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use shadowdp::{corpus, CorpusJob, JobSpec, Pipeline};
use shadowdp_num::Rat;
use shadowdp_service::{PipelineEntry, VerdictStore};
use shadowdp_solver::{Fingerprint, MemoEntry, Model, QueryMemo, Symbol};

/// A fresh path under the system temp dir, unique per test invocation.
fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "shadowdp-store-{}-{tag}-{n}.bin",
        std::process::id()
    ))
}

fn entry(verdict: &str, digest: &str, deps: Option<Vec<Fingerprint>>) -> PipelineEntry {
    PipelineEntry {
        ok: true,
        verdict: verdict.into(),
        digest: digest.into(),
        deps,
    }
}

// ---------------------------------------------------------------------------
// Property: snapshot → flush → load → absorb recovers every verdict
// ---------------------------------------------------------------------------

fn arb_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..26, 1..6)
        .prop_map(|bytes| bytes.into_iter().map(|b| (b'a' + b) as char).collect())
}

fn arb_rat() -> impl Strategy<Value = Rat> {
    (-9999i128..10000, 1i128..100).prop_map(|(n, d)| Rat::new(n, d))
}

fn arb_model() -> impl Strategy<Value = Model> {
    (
        proptest::collection::vec((arb_name(), arb_rat()), 0..5),
        proptest::collection::vec((arb_name(), 0u8..2), 0..4),
        0u8..2,
    )
        .prop_map(|(reals, bools, spurious)| {
            // A repeated name keeps its last value, as a map insert would.
            let reals: BTreeMap<String, Rat> = reals.into_iter().collect();
            let bools: BTreeMap<String, bool> =
                bools.into_iter().map(|(k, v)| (k, v == 1)).collect();
            Model::new(
                reals
                    .iter()
                    .map(|(k, v)| (Symbol::intern(k).as_str(), *v))
                    .collect(),
                bools
                    .iter()
                    .map(|(k, v)| (Symbol::intern(k).as_str(), *v))
                    .collect(),
                spurious == 1,
            )
        })
}

fn arb_entry() -> impl Strategy<Value = MemoEntry> {
    prop_oneof![
        Just(MemoEntry::Unsat),
        Just(MemoEntry::Sat),
        arb_model().prop_map(|m| MemoEntry::Model(m.into())),
    ]
}

fn arb_fingerprint() -> impl Strategy<Value = Fingerprint> {
    (0u64..u64::MAX, 0u64..u64::MAX)
        .prop_map(|(hi, lo)| Fingerprint(((hi as u128) << 64) | lo as u128))
}

fn arb_deps() -> impl Strategy<Value = Option<Vec<Fingerprint>>> {
    prop_oneof![
        Just(None),
        proptest::collection::vec(arb_fingerprint(), 0..4).prop_map(Some),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One flush (all entries in one base record) round-trips every
    /// verdict, including randomized dependency sets.
    #[test]
    fn snapshot_flush_load_absorb_recovers_every_verdict(
        entries in proptest::collection::vec((arb_fingerprint(), arb_entry()), 0..24),
        pipeline in proptest::collection::vec((arb_name(), arb_name(), arb_name(), arb_deps()), 0..6),
    ) {
        let memo = QueryMemo::default();
        memo.absorb(entries.clone());

        let path = temp_path("prop");
        let mut store = VerdictStore::load(&path);
        store.update_from_memo(&memo);
        for (source, verdict, digest, deps) in &pipeline {
            store.pipeline_put(
                &JobSpec::new(source.clone()),
                PipelineEntry { ok: true, verdict: verdict.clone(), digest: digest.clone(), deps: deps.clone() },
            );
        }
        store.flush().expect("flush succeeds");

        let reloaded = VerdictStore::load(&path);
        prop_assert!(reloaded.load_note().is_none());
        let recovered = QueryMemo::default();
        reloaded.warm_memo(&recovered);
        // Every verdict the memo held is back, byte for byte (snapshot is
        // sorted, so direct comparison is order-insensitive).
        prop_assert_eq!(recovered.snapshot(), memo.snapshot());
        // Every pipeline entry answers again.
        for (source, verdict, digest, deps) in &pipeline {
            let entry = reloaded.pipeline_get(&JobSpec::new(source.clone()));
            let entry = entry.expect("pipeline entry survived");
            // Later duplicates of the same source overwrite earlier ones,
            // so only check the *last* write for each key.
            if pipeline.iter().rev().find(|(s, _, _, _)| s == source)
                == Some(&(source.clone(), verdict.clone(), digest.clone(), deps.clone()))
            {
                prop_assert_eq!(&entry.verdict, verdict);
                prop_assert_eq!(&entry.digest, digest);
                prop_assert_eq!(&entry.deps, deps);
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// The same contents spread over many incremental flushes (one base +
    /// one delta record per step) replay to the same state as one flush.
    #[test]
    fn incremental_flushes_replay_like_one_flush(
        entries in proptest::collection::vec((arb_fingerprint(), arb_entry()), 1..24),
        chunk in 1usize..6,
    ) {
        let path = temp_path("chunks");
        let mut store = VerdictStore::load(&path);
        for batch in entries.chunks(chunk) {
            for (fp, result) in batch {
                store.solver_put(*fp, result.clone());
            }
            store.flush().expect("flush succeeds");
        }

        let reloaded = VerdictStore::load(&path);
        prop_assert!(reloaded.load_note().is_none());
        let recovered = QueryMemo::default();
        reloaded.warm_memo(&recovered);
        let expected = QueryMemo::default();
        expected.absorb(entries.clone());
        prop_assert_eq!(recovered.snapshot(), expected.snapshot());
        let _ = std::fs::remove_file(&path);
    }
}

// ---------------------------------------------------------------------------
// End-to-end: a disk round trip preserves full warmth
// ---------------------------------------------------------------------------

/// The acceptance contract: re-verifying a corpus after a store round
/// trip does **zero** fresh solver validity queries — every check is a
/// memo hit — and the outcome digest is byte-identical.
#[test]
fn disk_round_trip_preserves_full_warmth() {
    let jobs: Vec<CorpusJob> = [corpus::laplace_mechanism(), corpus::partial_sum()]
        .iter()
        .map(|alg| CorpusJob::new(alg.source))
        .collect();
    let pipeline = Pipeline::new();

    let cold_memo = Arc::new(QueryMemo::default());
    let cold = pipeline.verify_corpus_parallel_with_memo(&jobs, Some(1), &cold_memo);
    assert!(cold.solver_stats.theory_calls > 0);

    let path = temp_path("warmth");
    let mut store = VerdictStore::load(&path);
    store.update_from_memo(&cold_memo);
    store.flush().expect("flush succeeds");

    // A different process would do exactly this: load, warm, re-verify.
    let reloaded = VerdictStore::load(&path);
    let warm_memo = Arc::new(QueryMemo::default());
    reloaded.warm_memo(&warm_memo);
    let warm = pipeline.verify_corpus_parallel_with_memo(&jobs, Some(2), &warm_memo);

    assert_eq!(cold.digest(), warm.digest());
    let stats = warm.solver_stats;
    assert_eq!(
        stats.theory_calls, 0,
        "fresh solver work after warm load: {stats:?}"
    );
    assert_eq!(stats.cache_hits, stats.checks, "{stats:?}");
    let _ = std::fs::remove_file(&path);
}

/// Same contract through the *incremental* path: a drained dirty delta
/// appended to the log carries full warmth, and compaction (with the
/// jobs' dependency sets recorded) keeps exactly the entries the corpus
/// needs.
#[test]
fn incremental_flush_and_compaction_preserve_warmth() {
    let jobs: Vec<CorpusJob> = [corpus::laplace_mechanism(), corpus::partial_sum()]
        .iter()
        .map(|alg| CorpusJob::new(alg.source))
        .collect();
    let pipeline = Pipeline::new();

    let path = temp_path("inc-warmth");
    let mut store = VerdictStore::load(&path);
    let memo = Arc::new(QueryMemo::default());

    // Two batches, each flushed incrementally with recorded deps.
    let mut digests = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let outcome =
            pipeline.verify_corpus_parallel_with_memo(std::slice::from_ref(job), Some(1), &memo);
        let report = outcome.reports[0].as_ref().expect("job verifies");
        digests.push(outcome.digest());
        store.pipeline_put(
            &JobSpec::new(job.source.clone()),
            entry(
                "proved",
                &outcome.report_digest(0),
                Some(report.solver_fingerprints.clone()),
            ),
        );
        let absorbed = store.absorb_dirty(&memo);
        assert!(absorbed > 0, "batch {i} solved something new");
        store.flush().expect("incremental flush succeeds");
    }
    let stats = store.compact().expect("compaction succeeds");
    assert_eq!(
        stats.dropped_solver, 0,
        "every solver entry is reachable from a recorded job: {stats:?}"
    );

    // Restart: load, warm, re-verify — zero fresh theory work.
    let reloaded = VerdictStore::load(&path);
    assert!(reloaded.load_note().is_none());
    assert_eq!(reloaded.solver_len(), store.solver_len());
    let warm_memo = Arc::new(QueryMemo::default());
    reloaded.warm_memo(&warm_memo);
    for (i, job) in jobs.iter().enumerate() {
        let warm = pipeline.verify_corpus_parallel_with_memo(
            std::slice::from_ref(job),
            Some(1),
            &warm_memo,
        );
        assert_eq!(warm.digest(), digests[i]);
        assert_eq!(warm.solver_stats.theory_calls, 0, "{:?}", warm.solver_stats);
    }
    let _ = std::fs::remove_file(&path);
}

/// The dangling-deps regression: solver entries stranded by a job that
/// produced no verdict are dropped by compaction — but a later job whose
/// queries are all *memo hits* on those same entries must re-persist
/// them ([`VerdictStore::ensure_deps`]), or its pipeline entry's deps
/// would reference verdicts the store no longer has and a restart would
/// quietly re-prove them.
#[test]
fn memo_served_deps_survive_an_earlier_compaction_drop() {
    let path = temp_path("dangling");
    let memo = QueryMemo::default();

    // Batch 1: solver work lands in the memo and the store, but the job
    // fails before a verdict — its pipeline entry pins nothing.
    let orphan_spec = JobSpec::new("function Broken() returns o: num(0,0) { o := x; }");
    let mut store = VerdictStore::load(&path);
    for fp in [Fingerprint(1), Fingerprint(2)] {
        memo.absorb([(fp, MemoEntry::Unsat)]);
        store.solver_put(fp, MemoEntry::Unsat);
    }
    store.pipeline_put(
        &orphan_spec,
        entry("error: unbound x", "error\n", Some(vec![])),
    );
    store.flush().unwrap();

    // Compaction drops the two entries: no pipeline entry reaches them.
    let stats = store.compact().unwrap();
    assert_eq!(stats.dropped_solver, 2, "{stats:?}");
    assert_eq!(store.solver_len(), 0);

    // Batch 2: a fixed job answers both queries from the live memo (no
    // fresh solves, so nothing is dirty) and records them as deps.
    let fixed_spec = JobSpec::new("function Fixed() returns o: num(0,0) { o := 0; }");
    let deps = vec![Fingerprint(1), Fingerprint(2)];
    store.ensure_deps(&memo, &deps);
    store.pipeline_put(
        &fixed_spec,
        entry("proved", "Fixed Proved\n", Some(deps.clone())),
    );
    store.flush().unwrap();

    // No dangling deps: the entries are back, compaction keeps them, and
    // a restart serves them.
    let stats = store.compact().unwrap();
    assert_eq!(stats.dropped_solver, 0, "{stats:?}");
    let reloaded = VerdictStore::load(&path);
    assert_eq!(reloaded.solver_len(), 2);
    let recovered = QueryMemo::default();
    reloaded.warm_memo(&recovered);
    assert_eq!(recovered.len(), 2);
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Torn-tail tolerance
// ---------------------------------------------------------------------------

fn flushed_store_bytes(path: &PathBuf) -> Vec<u8> {
    use shadowdp_solver::{Solver, Term};
    let memo = Arc::new(QueryMemo::default());
    let solver = Solver::with_memo(memo.clone());
    let x = Term::real_var("x");
    for i in 0..8 {
        let _ = solver.check(&[x.le(Term::int(i))]);
    }
    let mut store = VerdictStore::load(path);
    store.update_from_memo(&memo);
    store.pipeline_put(
        &JobSpec::new("function F() returns o: num(0,0) { o := 0; }"),
        entry("proved", "F Proved\n", Some(solver.touched_fingerprints())),
    );
    store.flush().expect("flush succeeds");
    std::fs::read(path).expect("store file exists")
}

/// Truncating a single-record log anywhere behind the header loses the
/// record but keeps a *working* store (with a note); cutting into the
/// header itself is a noted cold start. No truncation point panics or
/// half-loads.
#[test]
fn truncated_store_recovers_the_valid_prefix() {
    let path = temp_path("trunc");
    let bytes = flushed_store_bytes(&path);
    assert!(bytes.len() > 32);
    const HEADER: usize = 8; // b"SDPV3E" and the two-digit verifier epoch
    for len in [0, 1, 7, 8, HEADER + 1, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..len]).unwrap();
        let store = VerdictStore::load(&path);
        assert_eq!(
            store.solver_len(),
            0,
            "truncation to {len} drops the record"
        );
        assert_eq!(store.pipeline_len(), 0);
        if len == HEADER {
            // Exactly the header is a legitimately empty log.
            assert!(store.load_note().is_none());
        } else {
            assert!(
                store.load_note().is_some(),
                "truncation to {len} must be noted"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// A flipped byte behind the header fails that record's checksum and
/// drops it (noted); a flipped header byte is a noted cold start; and a
/// file that is not a store at all is a noted cold start. Never a panic,
/// never a half-merged record.
#[test]
fn corrupted_store_degrades_cleanly() {
    let path = temp_path("corrupt");
    let bytes = flushed_store_bytes(&path);
    for i in (0..bytes.len()).step_by(3) {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x55;
        std::fs::write(&path, &corrupt).unwrap();
        let store = VerdictStore::load(&path);
        assert_eq!(store.solver_len(), 0, "flip at {i} must drop the record");
        assert_eq!(store.pipeline_len(), 0);
        assert!(store.load_note().is_some(), "flip at {i} must be noted");
    }
    // And files that are not a v3 store: one that is not a store at all,
    // and an image in the retired v1 format (empty tiers, checksum).
    let mut v1 = b"SDPVERD1".to_vec();
    v1.extend_from_slice(&[0; 32]);
    for foreign in [b"definitely not a verdict store".to_vec(), v1] {
        std::fs::write(&path, &foreign).unwrap();
        let store = VerdictStore::load(&path);
        assert_eq!(store.solver_len(), 0);
        assert!(store.load_note().is_some());
    }
    let _ = std::fs::remove_file(&path);
}

/// A store written under another verifier epoch, before the store
/// carried one (`SDPVERD2`), or in the v2 layout (`SDPV2E..`, which had no
/// bare `Sat` entry) is a noted cold start: its verdicts may be ones this
/// verifier would not give, or its records ones this build does not
/// write. Only the magic differs; the records behind it are intact. The
/// note names the case, so an upgrade's expected cold start reads
/// differently from a damaged header.
#[test]
fn store_of_another_verifier_epoch_is_a_noted_cold_start() {
    let path = temp_path("epoch");
    let bytes = flushed_store_bytes(&path);
    let epoch = shadowdp::VERIFIER_EPOCH;
    assert_eq!(&bytes[..8], format!("SDPV3E{epoch:02}").as_bytes());
    let warm = VerdictStore::load(&path);
    assert!(warm.load_note().is_none());
    assert_eq!(warm.pipeline_len(), 1);
    let [(previous, under_previous), (next, under_next)] = [epoch - 1, epoch + 1].map(|other| {
        (
            format!("SDPV3E{other:02}"),
            format!("written under verifier epoch {other:02}, this build is epoch {epoch:02}"),
        )
    });
    for (magic, why) in [
        (b"SDPVERD2".as_slice(), "written before verifier epochs"),
        (
            b"SDPV2E01".as_slice(),
            "written in store layout v2, this build writes v3",
        ),
        (previous.as_bytes(), under_previous.as_str()),
        (next.as_bytes(), under_next.as_str()),
        (b"SDPV3Ex1".as_slice(), "bad magic"),
    ] {
        let mut other = bytes.clone();
        other[..8].copy_from_slice(magic);
        std::fs::write(&path, &other).unwrap();
        let store = VerdictStore::load(&path);
        assert_eq!((store.solver_len(), store.pipeline_len()), (0, 0));
        assert_eq!(
            store.load_note(),
            Some(format!("store {} unusable ({why}); starting empty", path.display()).as_str())
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// Damage to a *later* record must not take earlier records with it: the
/// log replays up to the last valid record.
#[test]
fn torn_tail_truncates_to_the_last_valid_record() {
    let path = temp_path("tail");
    let mut store = VerdictStore::load(&path);
    store.solver_put(Fingerprint(1), MemoEntry::Unsat);
    store.flush().unwrap(); // base record
    let base = std::fs::read(&path).unwrap();
    store.solver_put(Fingerprint(2), MemoEntry::Unsat);
    store.pipeline_put(
        &JobSpec::new("function F() returns o: num(0,0) { o := 0; }"),
        entry("proved", "F Proved\n", Some(vec![Fingerprint(2)])),
    );
    store.flush().unwrap(); // delta record
    let full = std::fs::read(&path).unwrap();
    assert!(full.len() > base.len());

    // Truncating to exactly the base record is a legitimately complete
    // log; every cut *into* the delta record drops it with a note.
    for len in (base.len() + 1)..full.len() {
        std::fs::write(&path, &full[..len]).unwrap();
        let reloaded = VerdictStore::load(&path);
        assert_eq!(reloaded.solver_len(), 1, "truncation to {len}");
        assert_eq!(reloaded.pipeline_len(), 0);
        assert!(reloaded.load_note().is_some(), "dropped tail is noted");

        // …and the recovered store keeps working: the next flush drops
        // the torn tail and appends cleanly.
        let mut recovered = VerdictStore::load(&path);
        recovered.solver_put(Fingerprint(3), MemoEntry::Unsat);
        recovered.flush().unwrap();
        let healed = VerdictStore::load(&path);
        assert!(healed.load_note().is_none(), "truncation to {len} healed");
        assert_eq!(healed.solver_len(), 2);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn missing_store_is_a_quiet_cold_start() {
    let store = VerdictStore::load(temp_path("missing"));
    assert_eq!(store.solver_len(), 0);
    assert!(store.load_note().is_none(), "a first run is not an error");
}

// ---------------------------------------------------------------------------
// Append atomicity: a crash at any byte of a delta append recovers to
// the pre- or post-append view
// ---------------------------------------------------------------------------

/// Compact comparable view of a store's contents.
fn view(store: &VerdictStore) -> (Vec<(Fingerprint, MemoEntry)>, usize) {
    let memo = QueryMemo::default();
    store.warm_memo(&memo);
    (memo.snapshot(), store.pipeline_len())
}

#[test]
fn killed_append_recovers_pre_or_post_view_at_every_byte() {
    let path = temp_path("kill-append");
    let mut store = VerdictStore::load(&path);
    for i in 0..6u128 {
        store.solver_put(Fingerprint(i), MemoEntry::Unsat);
    }
    store.flush().unwrap();
    let pre_bytes = std::fs::read(&path).unwrap();
    let pre_view = view(&VerdictStore::load(&path));

    store.solver_put(Fingerprint(100), MemoEntry::Unsat);
    store.pipeline_put(
        &JobSpec::new("function F() returns o: num(0,0) { o := 0; }"),
        entry("proved", "F Proved\n", Some(vec![Fingerprint(100)])),
    );
    store.flush().unwrap();
    let post_bytes = std::fs::read(&path).unwrap();
    let post_view = view(&VerdictStore::load(&path));
    assert_ne!(pre_view, post_view);
    assert_eq!(
        &post_bytes[..pre_bytes.len()],
        &pre_bytes[..],
        "append-only"
    );

    // An append that died after `len` bytes leaves pre_bytes + a partial
    // record; every such state must load as exactly pre or post.
    for len in pre_bytes.len()..=post_bytes.len() {
        std::fs::write(&path, &post_bytes[..len]).unwrap();
        let recovered = view(&VerdictStore::load(&path));
        assert!(
            recovered == pre_view || recovered == post_view,
            "crash at byte {len} produced a third state"
        );
        // Completeness is all-or-nothing: only the full append is post.
        if len < post_bytes.len() {
            assert_eq!(recovered, pre_view, "partial append at {len} must be pre");
        }
    }
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Compaction atomicity: a rewrite killed at any byte offset leaves the
// pre- or post-compaction view, never a corrupt one
// ---------------------------------------------------------------------------

#[test]
fn killed_compaction_recovers_pre_or_post_view_at_every_byte() {
    // Build a log with superseded weight: a base record plus several
    // delta records overwriting one pipeline key.
    let path = temp_path("kill-compact");
    let spec = JobSpec::new("function F() returns o: num(0,0) { o := 0; }");
    let mut store = VerdictStore::load(&path);
    for i in 0..4u128 {
        store.solver_put(Fingerprint(i), MemoEntry::Unsat);
        store.solver_put(Fingerprint(1000 + i), MemoEntry::Unsat); // orphans
        store.pipeline_put(
            &spec,
            entry(
                "proved",
                &format!("F Proved round {i}\n"),
                Some((0..=i).map(Fingerprint).collect()),
            ),
        );
        store.flush().unwrap();
    }
    let pre_bytes = std::fs::read(&path).unwrap();
    let pre_view = view(&VerdictStore::load(&path));

    // The post-compaction image: what `compact()` stages into the temp
    // file (compact on a copy of the store so `pre` stays on disk).
    let stats = store.compact().unwrap();
    assert_eq!(stats.dropped_solver, 4, "orphans dropped: {stats:?}");
    let post_bytes = std::fs::read(&path).unwrap();
    let post_view = view(&VerdictStore::load(&path));
    assert!(post_bytes.len() < pre_bytes.len());
    assert_ne!(pre_view, post_view);

    let tmp = {
        let mut name = path.file_name().unwrap().to_os_string();
        name.push(".tmp");
        path.with_file_name(name)
    };

    // Phase 1 — killed while staging the temp file, at every byte offset:
    // the store path still holds the old log; the partial temp must be
    // ignored entirely.
    for len in 0..=post_bytes.len() {
        std::fs::write(&path, &pre_bytes).unwrap();
        std::fs::write(&tmp, &post_bytes[..len]).unwrap();
        let recovered = view(&VerdictStore::load(&path));
        assert_eq!(recovered, pre_view, "staging crash at byte {len}");
    }

    // Phase 2 — killed after the rename: the store path holds the new
    // log; temp debris is gone or irrelevant.
    std::fs::write(&path, &post_bytes).unwrap();
    let _ = std::fs::remove_file(&tmp);
    assert_eq!(view(&VerdictStore::load(&path)), post_view);

    // And a store that recovered from a staging crash keeps working: the
    // next compaction replaces both the log and the stale temp debris.
    std::fs::write(&path, &pre_bytes).unwrap();
    std::fs::write(&tmp, &post_bytes[..post_bytes.len() / 2]).unwrap();
    let mut recovered = VerdictStore::load(&path);
    recovered.compact().expect("compaction over stale temp");
    assert_eq!(view(&VerdictStore::load(&path)), post_view);
    assert!(!tmp.exists(), "temp staging file consumed by rename");

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&tmp);
}

// ---------------------------------------------------------------------------
// FaultPlan ports of the kill sweeps: the same atomicity contracts, but
// driven through the injection sites of `shadowdp_fault` — the mechanism
// the daemon soak and the fault matrix use — so the crash scenarios stay
// reproducible without byte-surgery on the log file.
// ---------------------------------------------------------------------------

use shadowdp_fault::{FaultKind, FaultPlan};

#[test]
fn faultplan_torn_append_recovers_the_valid_prefix_at_any_tear() {
    // `keep = 0` tears before any byte lands; `u64::MAX` writes the whole
    // delta and errors after (the lost-fsync analogue). Every tear must
    // leave exactly the pre-append view on disk, with the dirty delta
    // retained in memory so a retry heals to post.
    for keep in [0u64, 1, 3, 4, 17, 40, u64::MAX] {
        let path = temp_path("fault-torn-append");
        let mut store = VerdictStore::load(&path);
        for i in 0..6u128 {
            store.solver_put(Fingerprint(i), MemoEntry::Unsat);
        }
        store.flush().unwrap();
        let pre_view = view(&VerdictStore::load(&path));
        store.solver_put(Fingerprint(100), MemoEntry::Unsat);

        let guard = FaultPlan::new()
            .once("store.append.write", FaultKind::TornWrite { keep })
            .install();
        let err = store.flush().expect_err("torn append must error");
        drop(guard);
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert_eq!(view(&VerdictStore::load(&path)), pre_view, "tear at {keep}");
        assert!(store.dirty_len() > 0, "delta retained after tear at {keep}");

        store.flush().expect("retry heals");
        let healed = view(&VerdictStore::load(&path));
        assert_eq!(healed.0.len(), 7, "retry after tear at {keep} reaches post");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn faultplan_torn_compaction_is_atomic() {
    for keep in [0u64, 1, 9, 33, u64::MAX] {
        let path = temp_path("fault-torn-compact");
        let spec = JobSpec::new("function F() returns o: num(0,0) { o := 0; }");
        let mut store = VerdictStore::load(&path);
        // Every delta references all four fingerprints, so compaction
        // drops no solver entries and the live view is invariant across
        // the collapse — one expected view serves fault and retry alike.
        for i in 0..4u128 {
            store.solver_put(Fingerprint(i), MemoEntry::Unsat);
            store.pipeline_put(
                &spec,
                entry(
                    "proved",
                    &format!("F Proved round {i}\n"),
                    Some((0..4).map(Fingerprint).collect()),
                ),
            );
            store.flush().unwrap();
        }
        let live_view = view(&VerdictStore::load(&path));

        let guard = FaultPlan::new()
            .once("store.rewrite.write", FaultKind::TornWrite { keep })
            .install();
        let err = store.compact().expect_err("torn rewrite must error");
        drop(guard);
        assert!(err.to_string().contains("injected fault"), "{err}");
        // The rename never ran: the old log is still authoritative.
        assert_eq!(
            view(&VerdictStore::load(&path)),
            live_view,
            "tear at {keep}"
        );

        store.compact().expect("retry heals");
        assert_eq!(
            view(&VerdictStore::load(&path)),
            live_view,
            "view preserved across retried compaction at {keep}"
        );
        let tmp = {
            let mut name = path.file_name().unwrap().to_os_string();
            name.push(".tmp");
            path.with_file_name(name)
        };
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&tmp);
    }
}
