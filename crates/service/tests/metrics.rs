//! `METRICS` end-to-end over a live daemon socket: the exposition is
//! well-formed, counters move with daemon activity (fresh work, store
//! hits, flushes, batches), the gauges agree with `STATUS`, fault
//! counters track injected crashes and budget exhaustion, and a
//! journal replay is counted.
//!
//! The obs registry is process-global while tests in this binary run in
//! parallel threads, so every test takes one lock to serialize — and
//! counter assertions are scrape-to-scrape *deltas*, never absolutes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use shadowdp::jobspec::OptionsSpec;
use shadowdp::{corpus, JobSpec};
use shadowdp_fault::{FaultKind, FaultPlan, PlanHandle};
use shadowdp_obs::{parse_exposition, validate_exposition, Sample, SnapValue};
use shadowdp_service::daemon::{self, DaemonConfig};
use shadowdp_service::{fnv128, proto, Client, OutcomeKind, Request};

/// Serializes the tests in this binary: each diffs process-global
/// counters that a concurrent sibling's daemon would move too.
static METRICS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    // A panicking sibling poisons the lock but leaves the registry usable
    // (deltas still work), so recover instead of cascading.
    METRICS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Unique socket/store paths per test.
fn temp_paths(tag: &str) -> (PathBuf, PathBuf) {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    (
        dir.join(format!("sdpm-{pid}-{tag}-{n}.sock")),
        dir.join(format!("sdpm-{pid}-{tag}-{n}.store")),
    )
}

/// Starts an in-process daemon under the calling test's fault plan and
/// waits until its socket answers PING.
fn start_daemon(config: DaemonConfig) -> (JoinHandle<()>, Client) {
    let run_config = config.clone();
    let faults = PlanHandle::current();
    let handle = thread::spawn(move || {
        let _faults = faults.bind();
        daemon::run(run_config).expect("daemon runs");
    });
    for _ in 0..200 {
        if let Ok(mut client) = Client::connect(&config.socket) {
            if client.ping().is_ok() {
                return (handle, client);
            }
        }
        thread::sleep(Duration::from_millis(25));
    }
    panic!("daemon did not come up on {}", config.socket.display());
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
/// `STATUS`: a cold two-job batch does fresh solver work and flushes;
/// resubmitting is all store hits, re-stamps the pipeline entries with
/// a newer batch sequence, and appends nothing.
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
    assert!(delta("shadowdp_batches_total") >= 1.0);
    assert!(delta("shadowdp_batch_jobs_count") >= 1.0);
    assert_eq!(delta("shadowdp_store_hits_total"), 0.0);
    assert!(delta("shadowdp_solver_queries_total") > 0.0);
    assert!(delta("shadowdp_solver_theory_calls_total") > 0.0);
    assert!(
        delta("shadowdp_store_flush_us_count") >= 1.0,
        "a fresh batch must flush (and record its latency)"
    );

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
    assert_eq!(
        value(&after, "shadowdp_queue_capacity"),
        status.queue_capacity as f64
    );
    assert!(status.store_bytes > 0, "{status:?}");
    assert_eq!(
        value(&after, "shadowdp_store_log_bytes"),
        status.store_bytes as f64
    );
    assert_eq!(
        value(&after, "shadowdp_store_last_flush_us"),
        status.last_flush_micros as f64
    );

    // Resubmission: all store hits, no solver work, nothing flushed —
    // and the served entries get re-stamped with a newer batch seq.
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
    let oldest = value(&warm_scrape, "shadowdp_pipeline_stamp_oldest");
    let newest = value(&warm_scrape, "shadowdp_pipeline_stamp_newest");
    assert!(oldest >= 1.0 && newest >= oldest, "{oldest}..{newest}");
    assert!(
        newest > value(&after, "shadowdp_pipeline_stamp_newest"),
        "a store-served batch must re-stamp entries with its own seq"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_file(&store);
}

/// The loop program from the fault matrix's budget tests: enough theory
/// work that a one-call budget always trips.
const LOOP_SRC: &str = "function Loop(eps, NN, size: num(0,0), q: list num(*,*))
     returns out: num(0,0)
     precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1 && ~q[k] == ^q[k]
     precondition eps > 0
     precondition NN >= 1
     precondition size >= 0
     {
         e0 := lap(2 / eps) { select: aligned, align: 1 };
         count := 0;
         while (count < NN) {
             e1 := lap(2 * NN / eps) { select: aligned, align: 1 };
             count := count + 1;
         }
         out := count;
     }";

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
        source: LOOP_SRC.to_string(),
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

/// One length-prefixed, checksummed journal record (the daemon's
/// on-disk frame format).
fn journal_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv128(payload).to_le_bytes());
    out
}

fn journal_path(store: &Path) -> PathBuf {
    let mut name = store.file_name().unwrap().to_os_string();
    name.push(".journal");
    store.with_file_name(name)
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
    bytes.extend_from_slice(&journal_frame(line.as_bytes()));
    let torn = journal_frame(line.as_bytes());
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
