//! `METRICS` end-to-end over a live daemon socket: the exposition is
//! well-formed, counters move with daemon activity (fresh work, store
//! hits, flushes, log fsyncs), the gauges agree with `STATUS`,
//! fault counters track injected crashes and budget exhaustion, and a
//! journal replay is counted.
//!
//! The obs registry is process-global while tests in this binary run in
//! parallel threads, so every test takes one lock to serialize — and
//! counter assertions are scrape-to-scrape *deltas*, never absolutes.

mod support;

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use shadowdp::jobspec::OptionsSpec;
use shadowdp::{corpus, JobSpec};
use shadowdp_fault::{FaultKind, FaultPlan};
use shadowdp_obs::{parse_exposition, validate_exposition, Sample, SnapValue};
use shadowdp_service::daemon::DaemonConfig;
use shadowdp_service::{proto, Client, OutcomeKind, Request};
use support::{journal_frame, journal_path, start_daemon, temp_paths};

/// Serializes the tests in this binary: each diffs process-global
/// counters that a concurrent sibling's daemon would move too.
static METRICS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    // A panicking sibling poisons the lock but leaves the registry usable
    // (deltas still work), so recover instead of cascading.
    METRICS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One `METRICS` round-trip: validated and parsed, or the test dies.
fn scrape(client: &mut Client) -> Vec<Sample> {
    let text = client.metrics().expect("METRICS round-trip");
    validate_exposition(&text).expect("exposition validates");
    parse_exposition(&text).expect("exposition parses")
}

/// The value of the label-less sample `name` (counters, gauges, and
/// histogram `_count`/`_sum` series of bare histograms).
fn value(samples: &[Sample], name: &str) -> f64 {
    samples
        .iter()
        .find(|s| s.name == name && s.labels.is_empty())
        .unwrap_or_else(|| panic!("missing sample `{name}`"))
        .value
}

/// The observation count of the `shadowdp_job_stage_us{stage=…}` member.
fn stage_count(samples: &[Sample], stage: &str) -> f64 {
    samples
        .iter()
        .find(|s| s.name == "shadowdp_job_stage_us_count" && s.label("stage") == Some(stage))
        .unwrap_or_else(|| panic!("missing stage `{stage}`"))
        .value
}

/// The `shadowdp_log_syncs_total{site=…}` member.
fn syncs(samples: &[Sample], site: &str) -> f64 {
    samples
        .iter()
        .find(|s| s.name == "shadowdp_log_syncs_total" && s.label("site") == Some(site))
        .unwrap_or_else(|| panic!("missing sync site `{site}`"))
        .value
}

/// A counter's current in-process value (for baselines taken while no
/// daemon is up yet, e.g. before a journal replay at startup).
fn counter_now(name: &str) -> u64 {
    shadowdp_obs::snapshot()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| match v {
            SnapValue::Counter(c) => c,
            other => panic!("`{name}` is not a counter: {other:?}"),
        })
}

/// Counters move with daemon activity and the gauges agree with
/// `STATUS`: two cold jobs do fresh solver work and flush;
/// resubmitting is all store hits and appends nothing.
#[test]
fn metrics_track_fresh_work_store_hits_and_flushes() {
    let _lock = lock();
    let (socket, store) = temp_paths("activity");
    let (handle, mut client) = start_daemon(DaemonConfig {
        store: Some(store.clone()),
        threads: Some(2),
        ..DaemonConfig::new(&socket)
    });
    let specs = vec![
        JobSpec::new(corpus::laplace_mechanism().source),
        JobSpec::new(corpus::partial_sum().source),
    ];

    let before = scrape(&mut client);
    let cold = client.run_corpus(&specs).expect("cold batch");
    assert!(cold.iter().all(|o| !o.from_store));
    let after = scrape(&mut client);
    let delta = |name: &str| value(&after, name) - value(&before, name);

    assert_eq!(delta("shadowdp_jobs_done_total"), 2.0);
    assert_eq!(delta("shadowdp_store_hits_total"), 0.0);
    assert!(delta("shadowdp_solver_queries_total") > 0.0);
    assert!(delta("shadowdp_solver_theory_calls_total") > 0.0);
    assert!(
        delta("shadowdp_store_flush_us_count") >= 1.0,
        "a fresh batch must flush (and record its latency)"
    );
    // Each freshly verified job times its queue wait, verify and flush
    // stages once.
    for stage in ["queue_wait", "verify", "flush"] {
        assert_eq!(
            stage_count(&after, stage) - stage_count(&before, stage),
            2.0,
            "stage {stage}"
        );
    }

    // The memo hit rate `shadowdp top` derives is well-defined: hits
    // never outrun queries.
    assert!(
        value(&after, "shadowdp_solver_memo_hits_total")
            <= value(&after, "shadowdp_solver_queries_total")
    );

    // Gauges agree with the STATUS view of the same daemon.
    let status = client.status().expect("status");
    assert_eq!(
        value(&after, "shadowdp_store_pipeline_entries"),
        status.pipeline_store as f64
    );
    assert_eq!(
        value(&after, "shadowdp_memo_entries"),
        status.memo_entries as f64
    );
    assert!(value(&after, "shadowdp_store_log_bytes") > 0.0);
    assert!(value(&after, "shadowdp_store_last_flush_us") > 0.0);

    // Resubmission: all store hits, no solver work, nothing flushed.
    let warm = client.run_corpus(&specs).expect("warm batch");
    assert!(warm.iter().all(|o| o.from_store));
    let warm_scrape = scrape(&mut client);
    let wdelta = |name: &str| value(&warm_scrape, name) - value(&after, name);
    assert_eq!(wdelta("shadowdp_store_hits_total"), 2.0);
    assert_eq!(wdelta("shadowdp_jobs_done_total"), 2.0);
    assert_eq!(wdelta("shadowdp_solver_theory_calls_total"), 0.0);
    assert_eq!(
        wdelta("shadowdp_store_flush_us_count"),
        0.0,
        "a store-served batch must not flush"
    );
    for stage in ["queue_wait", "verify", "flush"] {
        assert_eq!(
            stage_count(&warm_scrape, stage),
            stage_count(&after, stage),
            "store hits are not timed as fresh jobs (stage {stage})"
        );
    }

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_file(&store);
}

/// N sequential jobs on one connection against a fresh store: each
/// SUBMIT pays one journal fsync and only the first (which creates the
/// journal) a directory fsync, and the journal, idle after every job, is
/// never rewritten. Each store flush is one file fsync, and the first
/// flush's rename one directory fsync.
#[test]
fn sequential_jobs_append_to_one_journal_and_never_rewrite_it() {
    let _lock = lock();
    const N: usize = 5;
    let (socket, store) = temp_paths("syncs");
    let (handle, mut client) = start_daemon(DaemonConfig {
        store: Some(store.clone()),
        threads: Some(2),
        ..DaemonConfig::new(&socket)
    });

    let before = scrape(&mut client);
    let laplace = corpus::laplace_mechanism().source;
    for i in 0..N {
        // Distinct store keys, so every job verifies and flushes.
        let spec = JobSpec::new(format!("{laplace}{}", " ".repeat(i)));
        let outcome = client
            .run_corpus(std::slice::from_ref(&spec))
            .expect("job")
            .remove(0);
        assert!(!outcome.from_store, "{outcome:?}");
    }
    let after = scrape(&mut client);
    let delta = |site: &str| syncs(&after, site) - syncs(&before, site);
    assert_eq!(delta("journal.append.sync"), N as f64);
    assert_eq!(delta("journal.append.dirsync"), 1.0);
    assert_eq!(delta("journal.rewrite.sync"), 0.0);
    assert_eq!(delta("journal.rewrite.dirsync"), 0.0);
    let flushes = value(&after, "shadowdp_store_flush_us_count")
        - value(&before, "shadowdp_store_flush_us_count");
    assert_eq!(flushes, N as f64);
    assert_eq!(
        delta("store.append.sync") + delta("store.rewrite.sync"),
        flushes
    );
    assert_eq!(delta("store.rewrite.dirsync"), 1.0);
    assert_eq!(client.status().expect("status").journaled, 0);

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_file(&store);
}

/// `shadowdp_crashes_total` counts an injected solver panic and
/// `shadowdp_budget_exhausted_total` counts a starved job — each
/// exactly once, and independently of one another.
#[test]
fn fault_counters_track_crashes_and_budget_exhaustion() {
    let _lock = lock();
    let _guard = FaultPlan::new()
        .once("solver.step", FaultKind::Panic)
        .install();
    let (socket, _store) = temp_paths("faults");
    let (handle, mut client) = start_daemon(DaemonConfig {
        threads: Some(1),
        ..DaemonConfig::new(&socket)
    });
    let before = scrape(&mut client);

    // The injected panic unwinds through the runner's catch_unwind;
    // keep the default hook's backtrace out of the test output.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let crashed = client
        .run_corpus(&[JobSpec::new(corpus::laplace_mechanism().source)])
        .expect("crashing batch")
        .remove(0);
    std::panic::set_hook(prev_hook);
    assert_eq!(crashed.kind, OutcomeKind::Crashed, "{crashed:?}");

    let mid = scrape(&mut client);
    assert_eq!(
        value(&mid, "shadowdp_crashes_total") - value(&before, "shadowdp_crashes_total"),
        1.0
    );
    assert_eq!(
        value(&mid, "shadowdp_budget_exhausted_total")
            - value(&before, "shadowdp_budget_exhausted_total"),
        0.0
    );

    // A starved job (one theory call allowed) exhausts its budget.
    let mut starved_opts = OptionsSpec::from_options(&shadowdp_verify::Options::default());
    starved_opts.budget_theory_calls = Some(1);
    let starved = JobSpec {
        source: corpus::COUNTER_LOOP_TEMPLATE.replace("INV", ""),
        options: Some(starved_opts),
        isolated_memo: false,
    };
    let exhausted = client
        .run_corpus(std::slice::from_ref(&starved))
        .expect("starved batch")
        .remove(0);
    assert_eq!(exhausted.kind, OutcomeKind::Exhausted, "{exhausted:?}");

    let end = scrape(&mut client);
    assert_eq!(
        value(&end, "shadowdp_budget_exhausted_total")
            - value(&mid, "shadowdp_budget_exhausted_total"),
        1.0
    );
    assert_eq!(
        value(&end, "shadowdp_crashes_total") - value(&mid, "shadowdp_crashes_total"),
        0.0
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
}

/// A daemon restarting over a crash-left journal counts exactly the
/// replayed (whole) records in `shadowdp_journal_replayed_total` — the
/// torn tail record is not counted.
#[test]
fn journal_replay_is_counted() {
    let _lock = lock();
    let (socket, store) = temp_paths("replay");
    let journal = journal_path(&store);
    let spec = JobSpec::new(corpus::laplace_mechanism().source);

    let line = proto::encode_request(&Request::Submit(spec.clone()));
    let mut bytes = b"SDPJRNL1".to_vec();
    bytes.extend_from_slice(&journal_frame(&line));
    let torn = journal_frame(&line);
    bytes.extend_from_slice(&torn[..torn.len() / 2]);
    std::fs::write(&journal, &bytes).expect("write crafted journal");

    // The replay happens during startup, before any client can scrape —
    // baseline the process-global counter directly.
    let replayed_before = counter_now("shadowdp_journal_replayed_total");

    let (handle, mut client) = start_daemon(DaemonConfig {
        store: Some(store.clone()),
        threads: Some(2),
        ..DaemonConfig::new(&socket)
    });
    // The replayed job completes when its verdict lands in the store.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status().expect("status");
        if status.pipeline_store >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "timed out waiting for replay");
        thread::sleep(Duration::from_millis(10));
    }

    let samples = scrape(&mut client);
    assert_eq!(
        value(&samples, "shadowdp_journal_replayed_total"),
        replayed_before as f64 + 1.0,
        "exactly the one whole journal record replays"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_file(&store);
}
