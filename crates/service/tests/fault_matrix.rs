//! The fault-injection matrix: every `shadowdp_fault` site swept under
//! every applicable fault kind, plus end-to-end service faults over a
//! real Unix socket.
//!
//! Covered here:
//!
//! 1. **Store append sites** × {error, torn write, panic, delay} — a
//!    failed append leaves exactly the pre-append view on disk, keeps the
//!    dirty delta in memory, and a retry (or a restarted process) heals
//!    to the post-append view.
//! 2. **Store rewrite sites** × the same kinds — compaction stays atomic:
//!    the live view is never lost, and a retry completes the collapse.
//! 3. **Journal** — a hand-crafted journal (with a torn tail) is replayed
//!    into re-verification on startup, and one holding a record in the
//!    old positional encoding replays nothing; accepted submissions stay
//!    journaled until their verdicts are flushed, also while another
//!    worker publishes a faster job; an idle daemon keeps the journal as
//!    its bare magic, and a busy one rewrites it before the dead records
//!    of finished jobs reach the floor; a torn append costs only its own
//!    record, never the submissions journaled after it; a clean shutdown
//!    removes the journal.
//! 4. **Backpressure** — a full queue answers `BUSY`, the raw protocol
//!    and the retrying client both observe it, and the client eventually
//!    queues once the batch drains.
//! 5. **Panic isolation** — one poisoned job out of the full 18-job
//!    Table 1 corpus is reported `crashed` while the other 17 prove and
//!    the daemon keeps serving the same socket; the crashed verdict is
//!    *not* persisted, so a resubmission re-verifies cleanly.
//! 6. **Resource budgets over the wire** — a starved job comes back
//!    `exhausted`, is never persisted, and the same program under a
//!    bigger budget proves (and then store-hits).
//! 7. **Graceful drain** — `SHUTDOWN` mid-batch still publishes every
//!    accepted job's result, flushes the store, and clears the journal.
//! 8. **Delivery** — an outcome goes to the connection that submitted
//!    it: collected there in any order and only once, refused to any
//!    other, and dropped with a connection that closes before collecting
//!    it while its verdict is still stored.
//!
//! A test's `FaultPlan` is bound to the test's thread, and `start_daemon`
//! hands it to the in-process daemon, so a daemon never observes another
//! test's armed sites.

mod support;

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use shadowdp::jobspec::OptionsSpec;
use shadowdp::{corpus, table1, JobSpec};
use shadowdp_fault::{FaultKind, FaultPlan};
use shadowdp_service::daemon::DaemonConfig;
use shadowdp_service::{
    proto, Client, OutcomeKind, PipelineEntry, Request, StatusInfo, VerdictStore,
};
use support::{journal_frame, journal_path, start_daemon, temp_paths};

fn cleanup(paths: &[&Path]) {
    for p in paths {
        let _ = std::fs::remove_file(p);
    }
}

/// Polls `STATUS` until `pred` holds, or panics after `budget`.
fn wait_status(
    client: &mut Client,
    budget: Duration,
    what: &str,
    pred: impl Fn(&StatusInfo) -> bool,
) {
    let deadline = Instant::now() + budget;
    loop {
        let status = client.status().expect("status");
        if pred(&status) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(10));
    }
}

// ---------------------------------------------------------------------
// 1 + 2: the store site × kind sweeps
// ---------------------------------------------------------------------

/// The store's first flush is a rewrite, so its appends never create the
/// file and never reach `store.append.dirsync`.
const APPEND_SITES: &[&str] = &[
    "store.append.open",
    "store.append.setlen",
    "store.append.write",
    "store.append.sync",
];

const REWRITE_SITES: &[&str] = &[
    "store.rewrite.create",
    "store.rewrite.write",
    "store.rewrite.sync",
    "store.rewrite.rename",
    "store.rewrite.dirsync",
];

fn kinds() -> Vec<FaultKind> {
    vec![
        FaultKind::Error,
        FaultKind::TornWrite { keep: 7 },
        FaultKind::Panic,
        FaultKind::Delay { millis: 1 },
    ]
}

fn put(store: &mut VerdictStore, i: usize) {
    let spec = JobSpec::new(format!(
        "function F{i}() returns o: num(0,0) {{ o := {i}; }}"
    ));
    store.pipeline_put(
        &spec,
        PipelineEntry {
            ok: true,
            verdict: format!("proved-{i}"),
            digest: format!("digest-{i}"),
            deps: Some(Vec::new()),
        },
    );
}

/// On-disk view as canonical bytes ([`VerdictStore::encode`] is
/// deterministic, so equal views encode identically regardless of log
/// layout or compaction history).
fn disk_view(path: &Path) -> Vec<u8> {
    VerdictStore::load(path).encode()
}

#[test]
fn injected_append_faults_never_corrupt_the_store() {
    for site in APPEND_SITES {
        for (k, kind) in kinds().into_iter().enumerate() {
            let (_, path) = temp_paths(&format!("append-{k}"));
            let mut store = VerdictStore::load(&path);
            for i in 0..3 {
                put(&mut store, i);
            }
            store.flush().expect("clean base flush");
            let pre = disk_view(&path);
            for i in 3..5 {
                put(&mut store, i);
            }
            let post = store.encode();

            let guard = FaultPlan::new().once(site, kind.clone()).install();
            let result = catch_unwind(AssertUnwindSafe(|| store.flush()));
            drop(guard);

            match kind {
                FaultKind::Delay { .. } => {
                    result
                        .expect("delay does not panic")
                        .expect("delayed flush still succeeds");
                    assert_eq!(disk_view(&path), post, "delay at {site}");
                }
                FaultKind::Panic => {
                    assert!(result.is_err(), "panic at {site} must unwind");
                    // The crash may land before or after the delta hit the
                    // disk, but never in between (same contract as the
                    // kill-at-every-byte sweep in store_durability).
                    let now = disk_view(&path);
                    assert!(
                        now == pre || now == post,
                        "panic at {site} left a mixed on-disk state"
                    );
                    // A restarted process redoes the batch and flushes clean.
                    let mut fresh = VerdictStore::load(&path);
                    for i in 0..5 {
                        put(&mut fresh, i);
                    }
                    fresh.flush().expect("post-crash flush heals");
                    assert_eq!(disk_view(&path), post, "recovery after panic at {site}");
                }
                FaultKind::Error | FaultKind::TornWrite { .. } => {
                    let err = result
                        .expect("injected errors do not panic")
                        .expect_err("injected fault must surface");
                    assert!(err.to_string().contains("injected fault"), "{err}");
                    assert_eq!(
                        disk_view(&path),
                        pre,
                        "failed append at {site} must leave the valid prefix"
                    );
                    assert!(store.dirty_len() > 0, "dirty delta retained at {site}");
                    store.flush().expect("retry heals");
                    assert_eq!(disk_view(&path), post, "retry after fault at {site}");
                }
            }
            cleanup(&[&path]);
        }
    }
}

#[test]
fn injected_compaction_faults_keep_the_live_view() {
    for site in REWRITE_SITES {
        for (k, kind) in kinds().into_iter().enumerate() {
            let (_, path) = temp_paths(&format!("rewrite-{k}"));
            let mut store = VerdictStore::load(&path);
            for i in 0..3 {
                put(&mut store, i);
            }
            store.flush().expect("base flush");
            // Overwrite the same keys so the log holds dead records and
            // compaction has real work to do.
            for i in 0..3 {
                put(&mut store, i);
            }
            store.flush().expect("delta flush");
            let live = store.encode();
            assert!(store.logged_entries() > 3, "log must hold dead records");

            let guard = FaultPlan::new().once(site, kind.clone()).install();
            let result = catch_unwind(AssertUnwindSafe(|| store.compact()));
            drop(guard);

            match kind {
                FaultKind::Delay { .. } => {
                    result
                        .expect("delay does not panic")
                        .expect("delayed compaction still succeeds");
                    assert_eq!(disk_view(&path), live, "delay at {site}");
                }
                FaultKind::Panic => {
                    assert!(result.is_err(), "panic at {site} must unwind");
                    // Every rewrite site but the directory fsync fires
                    // before the rename: the file is the old log or, after
                    // the rename, the compacted one, and both hold the
                    // live view.
                    assert_eq!(disk_view(&path), live, "panic at {site} lost the view");
                    let mut fresh = VerdictStore::load(&path);
                    fresh.compact().expect("post-crash compaction heals");
                    assert_eq!(disk_view(&path), live, "recovery after panic at {site}");
                }
                FaultKind::Error | FaultKind::TornWrite { .. } => {
                    let err = result
                        .expect("injected errors do not panic")
                        .expect_err("injected fault must surface");
                    assert!(err.to_string().contains("injected fault"), "{err}");
                    assert_eq!(disk_view(&path), live, "failed compaction at {site}");
                    let stats = store.compact().expect("retry heals");
                    assert_eq!(stats.logged_after, 3, "retry collapses to live entries");
                    assert_eq!(disk_view(&path), live, "view preserved across retry");
                }
            }
            cleanup(&[&path]);
        }
    }
}

// ---------------------------------------------------------------------
// 3: the in-flight journal
// ---------------------------------------------------------------------

/// A journal left behind by a crashed daemon is replayed on startup: the
/// submission re-verifies (ownerless — its verdict lands in the store),
/// a torn trailing record is ignored, and a clean shutdown removes the
/// journal.
#[test]
fn journaled_submissions_reverify_on_restart() {
    let (socket, store) = temp_paths("journal-replay");
    let journal = journal_path(&store);
    let spec = JobSpec::new(corpus::laplace_mechanism().source);

    let line = proto::encode_request(&Request::Submit(spec.clone()));
    let mut bytes = b"SDPJRNL1".to_vec();
    bytes.extend_from_slice(&journal_frame(&line));
    // A crash mid-append leaves a torn record; replay keeps the prefix.
    let torn = journal_frame(&line);
    bytes.extend_from_slice(&torn[..torn.len() / 2]);
    std::fs::write(&journal, &bytes).expect("write crafted journal");

    let (handle, mut client) = start_daemon(DaemonConfig {
        store: Some(store.clone()),
        threads: Some(2),
        ..DaemonConfig::new(&socket)
    });
    // The replayed job has no owning connection; completion shows up as
    // its verdict landing in the persistent pipeline tier.
    wait_status(
        &mut client,
        Duration::from_secs(60),
        "journal replay",
        |s| s.pipeline_store >= 1,
    );
    // The accepted-but-unfinished submission was not lost: resubmitting
    // the same spec is a store hit.
    let outcome = client
        .run_corpus(std::slice::from_ref(&spec))
        .expect("resubmit")
        .remove(0);
    assert!(outcome.from_store, "replayed verdict must be persisted");
    assert_eq!(outcome.verdict, "proved");
    assert_eq!(outcome.kind, OutcomeKind::Completed);

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    assert!(
        !journal.exists(),
        "clean shutdown must clear the replay journal"
    );
    cleanup(&[&socket, &store]);
}

/// A journal record in the positional `SUBMIT` encoding (from before
/// `key=value` fields) is never misread: replay stops at it, so neither it
/// nor the record behind it re-verifies, the journal is cut to the empty
/// replayed set, and the daemon serves normally.
#[test]
fn positional_journal_record_replays_nothing() {
    let (socket, store) = temp_paths("journal-positional");
    let journal = journal_path(&store);
    let spec = JobSpec::new(corpus::laplace_mechanism().source);
    let positional = format!(
        "SUBMIT\t0\t-\t-\t-\t-\t-\t-\t-\t0\t{}",
        proto::esc(&spec.source)
    );
    let mut bytes = b"SDPJRNL1".to_vec();
    for line in [
        positional,
        proto::encode_request(&Request::Submit(spec.clone())),
    ] {
        bytes.extend_from_slice(&journal_frame(&line));
    }
    std::fs::write(&journal, &bytes).expect("write crafted journal");

    let (handle, mut client) = start_daemon(DaemonConfig {
        store: Some(store.clone()),
        ..DaemonConfig::new(&socket)
    });
    let status = client.status().expect("status");
    assert_eq!(status, StatusInfo::default(), "nothing replays");
    assert!(!journal.exists(), "the journal is cut to what replayed");
    let outcome = client
        .run_corpus(std::slice::from_ref(&spec))
        .expect("serves")
        .remove(0);
    assert!(
        !outcome.from_store && outcome.verdict == "proved",
        "{outcome:?}"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    cleanup(&[&socket, &store]);
}

/// While a batch is in flight, every accepted submission is covered by
/// the journal (file present, `STATUS` reports it); once the batch is
/// published and flushed the journal resets to the outstanding set.
#[test]
fn accepted_submissions_stay_journaled_until_flushed() {
    // Sticky per-step delay keeps the batch in flight long enough to
    // observe the journal window deterministically.
    let guard = FaultPlan::new()
        .sticky("solver.step", FaultKind::Delay { millis: 2 }, 1)
        .install();
    let (socket, store) = temp_paths("journal-window");
    let journal = journal_path(&store);
    let (handle, mut client) = start_daemon(DaemonConfig {
        store: Some(store.clone()),
        threads: Some(1),
        ..DaemonConfig::new(&socket)
    });

    let a = JobSpec::new(corpus::laplace_mechanism().source);
    let b = JobSpec::new(corpus::partial_sum().source);
    let id_a = client.submit(&a).expect("submit a");
    let id_b = client.submit(&b).expect("submit b");

    // Both submissions were journaled before they were acknowledged; the
    // first batch may already be running (its reset only happens at
    // publication), so at least the latest submission is still covered.
    let status = client.status().expect("status");
    assert!(
        status.journaled >= 1,
        "accepted submissions must be journaled (got {})",
        status.journaled
    );
    assert!(journal.exists(), "journal file must exist mid-batch");

    let out_a = client.result(id_a).expect("result a");
    let out_b = client.result(id_b).expect("result b");
    drop(guard);
    assert_eq!(out_a.verdict, "proved");
    assert_eq!(out_b.verdict, "proved");
    // The batch containing the last job has been published and flushed,
    // so the journal has reset to the (empty) outstanding set.
    let status = client.status().expect("status");
    assert_eq!(
        status.journaled, 0,
        "published batch must leave the journal"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    assert!(!journal.exists(), "clean shutdown removes the journal");
    cleanup(&[&socket, &store]);
}

/// Per-job dispatch: with two workers, a fast job submitted while a slow
/// one verifies is published without waiting for it. The journal is
/// append-only while a job runs: at the fast job's result it still holds
/// both submissions, and only the slow job's result, which leaves the
/// daemon idle, cuts it back to its magic.
#[test]
fn a_slow_job_does_not_hold_a_fast_one() {
    // Every uncached solver query sleeps, so a job's wall time follows
    // its count of them: Smart Sum asks about a hundred, the Laplace
    // mechanism a handful.
    let guard = FaultPlan::new()
        .sticky("solver.step", FaultKind::Delay { millis: 5 }, 1)
        .install();
    let (socket, store) = temp_paths("slow-fast");
    let journal = journal_path(&store);
    let (handle, mut control) = start_daemon(DaemonConfig {
        store: Some(store.clone()),
        threads: Some(2),
        ..DaemonConfig::new(&socket)
    });
    let slow = JobSpec::new(corpus::smart_sum().source);
    let fast = JobSpec::new(corpus::laplace_mechanism().source);

    let mut slow_client = Client::connect(&socket).expect("connect");
    let slow_id = slow_client.submit(&slow).expect("submit slow");
    wait_status(
        &mut control,
        Duration::from_secs(30),
        "slow job start",
        |s| s.running == 1,
    );
    let mut fast_client = Client::connect(&socket).expect("connect");
    let fast_id = fast_client.submit(&fast).expect("submit fast");
    let out_fast = fast_client.result(fast_id).expect("fast result");
    assert_eq!(out_fast.verdict, "proved");

    let status = control.status().expect("status");
    assert_eq!(status.running, 1, "the slow job still runs: {status:?}");
    assert_eq!(status.journaled, 2, "{status:?}");
    let mut both = b"SDPJRNL1".to_vec();
    for spec in [&slow, &fast] {
        let line = proto::encode_request(&Request::Submit(spec.clone()));
        both.extend_from_slice(&journal_frame(&line));
    }
    assert_eq!(
        std::fs::read(&journal).expect("journal exists"),
        both,
        "the journal holds exactly the slow and the fast job's SUBMIT"
    );

    let out_slow = slow_client.result(slow_id).expect("slow result");
    drop(guard);
    assert_eq!(out_slow.verdict, "proved");
    assert_eq!(control.status().expect("status").journaled, 0);
    assert_eq!(
        std::fs::read(&journal).expect("the journal is kept while idle"),
        b"SDPJRNL1",
        "an idle daemon cuts the journal back to its magic"
    );

    control.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    cleanup(&[&socket, &store]);
}

/// Outcomes follow their connection. One connection collects a slow job
/// before a fast one that finished first, so its connection holds the
/// fast outcome until it is asked for; a second `RESULT` for an id, or
/// one from another connection, is an `ERR`. A connection that closes
/// without collecting loses only the outcome: the job is counted done
/// and its verdict stored.
#[test]
fn outcomes_follow_their_connection() {
    // The delay plan of `a_slow_job_does_not_hold_a_fast_one`: Smart Sum
    // runs far longer than the Laplace mechanism.
    let guard = FaultPlan::new()
        .sticky("solver.step", FaultKind::Delay { millis: 5 }, 1)
        .install();
    let (socket, store) = temp_paths("follow");
    let (handle, mut control) = start_daemon(DaemonConfig {
        store: Some(store.clone()),
        threads: Some(2),
        ..DaemonConfig::new(&socket)
    });
    let laplace = corpus::laplace_mechanism().source;

    let mut client = Client::connect(&socket).expect("connect");
    let slow_id = client
        .submit(&JobSpec::new(corpus::smart_sum().source))
        .expect("submit slow");
    wait_status(
        &mut control,
        Duration::from_secs(30),
        "slow job start",
        |s| s.running == 1,
    );
    let fast_id = client.submit(&JobSpec::new(laplace)).expect("submit fast");
    wait_status(
        &mut control,
        Duration::from_secs(30),
        "fast job done",
        |s| s.done == 1 && s.running == 1,
    );
    let slow = client.result(slow_id).expect("slow result");
    assert_eq!((slow.id, slow.verdict.as_str()), (slow_id, "proved"));
    let fast = client.result(fast_id).expect("held fast result");
    assert_eq!((fast.id, fast.verdict.as_str()), (fast_id, "proved"));
    assert!(client.result(fast_id).is_err(), "collected only once");
    let mut other = Client::connect(&socket).expect("connect");
    assert!(other.result(fast_id).is_err(), "not another client's");

    // A distinct store key, submitted by a connection that never collects.
    let orphan = JobSpec::new(format!("{laplace} "));
    let mut quitter = Client::connect(&socket).expect("connect");
    quitter.submit(&orphan).expect("submit orphan");
    drop(quitter);
    wait_status(&mut control, Duration::from_secs(30), "orphan done", |s| {
        s.done == 3 && s.pipeline_store == 3
    });
    drop(guard);
    let id = other.submit(&orphan).expect("resubmit");
    assert!(other.result(id).expect("result").from_store);

    control.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    cleanup(&[&socket, &store]);
}

/// A one-worker daemon fed a pipelined stream longer than the rewrite
/// floor never goes idle, so it never cuts the journal back; it rewrites
/// the journal to the outstanding jobs instead, and at every `STATUS`
/// poll fewer than the floor of its records belong to finished jobs. The
/// last job leaves the daemon idle and the journal its bare magic.
#[test]
fn a_busy_daemon_rewrites_the_journal_before_the_floor() {
    let floor = shadowdp_service::daemon::JOURNAL_REWRITE_FLOOR;
    let jobs = floor + 16;
    // The first job's flush (the store's first, a rewrite) stalls for two
    // seconds, long enough to queue every submission behind it, so the
    // queue only drains from then on; later flushes are slowed so that
    // polls see it drain.
    let guard = FaultPlan::new()
        .once("store.rewrite.sync", FaultKind::Delay { millis: 2000 })
        .sticky("store.append.sync", FaultKind::Delay { millis: 3 }, 1)
        .install();
    let (socket, store) = temp_paths("journal-floor");
    let journal = journal_path(&store);
    let (handle, mut control) = start_daemon(DaemonConfig {
        store: Some(store.clone()),
        threads: Some(1),
        ..DaemonConfig::new(&socket)
    });
    // Distinct store keys for one program: each job verifies (memo hits
    // after the first) and flushes.
    let laplace = corpus::laplace_mechanism().source;
    let mut client = Client::connect(&socket).expect("connect");
    let started = Instant::now();
    let ids: Vec<u64> = (0..jobs as usize)
        .map(|i| {
            let spec = JobSpec::new(format!("{laplace}{}", " ".repeat(i)));
            client.submit(&spec).expect("submit")
        })
        .collect();
    // `STATUS` would wait for the stalled flush (it reads the store), so
    // time the submissions instead: the first job cannot finish sooner.
    assert!(
        started.elapsed() < Duration::from_millis(2000),
        "every submission is queued before the first job finishes"
    );

    let deadline = Instant::now() + Duration::from_secs(60);
    let mut past_floor = 0;
    loop {
        let s = control.status().expect("status");
        assert_eq!(s.queued + s.running, jobs - s.done, "never idle: {s:?}");
        assert!(s.journaled < s.queued + s.running + floor, "{s:?}");
        if s.done == jobs {
            assert_eq!(s.journaled, 0, "{s:?}");
            break;
        }
        if s.done >= floor {
            past_floor += 1;
        }
        assert!(Instant::now() < deadline, "timed out draining: {s:?}");
        thread::sleep(Duration::from_millis(1));
    }
    drop(guard);
    assert!(past_floor > 0, "no poll saw the stream past the floor");
    assert_eq!(
        std::fs::read(&journal).expect("the journal is kept while idle"),
        b"SDPJRNL1"
    );
    for id in ids {
        let outcome = client.result(id).expect("result");
        assert_eq!(outcome.verdict, "proved", "{outcome:?}");
    }

    control.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    assert!(!journal.exists(), "clean shutdown removes the journal");
    cleanup(&[&socket, &store]);
}

/// A torn journal append costs only its own record. Every store flush
/// fails (so the journal is never rewritten) and the second append tears
/// after 7 bytes: that submission runs unjournaled, but the third one,
/// appended after it, must still replay after a restart.
#[test]
fn a_torn_journal_append_does_not_hide_later_submissions() {
    let (socket, store) = temp_paths("journal-torn");
    let journal = journal_path(&store);
    let specs = [
        corpus::laplace_mechanism(),
        corpus::partial_sum(),
        corpus::prefix_sum(),
    ]
    .map(|alg| JobSpec::new(alg.source));
    let config = DaemonConfig {
        store: Some(store.clone()),
        ..DaemonConfig::new(&socket)
    };

    let guard = FaultPlan::new()
        .sticky("store.append.sync", FaultKind::Error, 1)
        .sticky("store.rewrite.sync", FaultKind::Error, 1)
        .at("journal.append.write", FaultKind::TornWrite { keep: 7 }, 2)
        .install();
    let (handle, mut client) = start_daemon(config.clone());
    for spec in &specs {
        client.submit(spec).expect("submit");
    }
    assert_eq!(client.status().expect("status").journaled, 2);
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    drop(guard);

    // Fault-free restart: both journaled submissions re-verify.
    let (handle, mut client) = start_daemon(config);
    wait_status(
        &mut client,
        Duration::from_secs(60),
        "journal replay",
        |s| s.queued == 0 && s.running == 0,
    );
    assert_eq!(client.status().expect("status").done, 2, "jobs replayed");
    let outcomes = client.run_corpus(&specs).expect("resubmit");
    let from_store: Vec<bool> = outcomes.iter().map(|o| o.from_store).collect();
    assert_eq!(from_store, [true, false, true], "{outcomes:?}");

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    let tmp = PathBuf::from(format!("{}.tmp", store.display()));
    cleanup(&[&socket, &store, &journal, &tmp]);
}

// ---------------------------------------------------------------------
// 4: backpressure
// ---------------------------------------------------------------------

/// Raw-socket helper: send one line, read one reply line.
fn ask(stream: &mut UnixStream, reader: &mut BufReader<UnixStream>, line: &str) -> String {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("write request");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    reply.trim_end().to_string()
}

fn raw_conn(socket: &Path) -> (UnixStream, BufReader<UnixStream>) {
    let stream = UnixStream::connect(socket).expect("connect");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// A full submission queue answers `BUSY <retry_ms>` on the wire, and
/// the retrying client rides the backoff until the batch drains and the
/// job is accepted.
#[test]
fn full_queue_answers_busy_and_client_retry_succeeds() {
    // The delay makes the first batch slow enough that the queue stays
    // full while we probe it; dropping the guard releases the logjam.
    let guard = FaultPlan::new()
        .sticky("solver.step", FaultKind::Delay { millis: 10 }, 1)
        .install();
    let (socket, _) = temp_paths("busy");
    let (handle, mut client) = start_daemon(DaemonConfig {
        threads: Some(1),
        queue_limit: Some(1),
        ..DaemonConfig::new(&socket)
    });

    let (mut raw, mut reader) = raw_conn(&socket);
    let slow = JobSpec::new(corpus::laplace_mechanism().source);
    let queued = JobSpec::new(corpus::partial_sum().source);
    let retried = JobSpec::new(corpus::smart_sum().source);

    let reply = ask(
        &mut raw,
        &mut reader,
        &proto::encode_request(&Request::Submit(slow)),
    );
    assert!(reply.starts_with("QUEUED\t"), "{reply}");
    // Wait until the worker owns the first job, so `pending` is empty
    // and exactly one more submission fits under the cap of 1.
    wait_status(&mut client, Duration::from_secs(30), "batch start", |s| {
        s.running >= 1
    });
    let reply = ask(
        &mut raw,
        &mut reader,
        &proto::encode_request(&Request::Submit(queued.clone())),
    );
    assert!(reply.starts_with("QUEUED\t"), "{reply}");
    let id_queued: u64 = reply.split('\t').nth(1).unwrap().parse().unwrap();
    // The queue is now at capacity and the runner is mid-batch: the next
    // submission must be turned away with a retry hint.
    let reply = ask(
        &mut raw,
        &mut reader,
        &proto::encode_request(&Request::Submit(retried.clone())),
    );
    let mut parts = reply.split('\t');
    assert_eq!(parts.next(), Some("BUSY"), "expected BUSY, got {reply}");
    let retry_ms: u64 = parts.next().expect("retry hint").parse().expect("millis");
    assert!(retry_ms > 0, "retry hint must be positive");

    // The retrying client blocks through BUSY; releasing the delay lets
    // the batches drain and the submission land.
    let submit_socket = socket.clone();
    let submit_spec = retried.clone();
    let submitter = thread::spawn(move || {
        let mut c = Client::connect(&submit_socket).expect("connect");
        let id = c.submit(&submit_spec).expect("retry eventually queues");
        c.result(id).expect("result")
    });
    thread::sleep(Duration::from_millis(50)); // let it hit BUSY at least once
    drop(guard);
    let outcome = submitter.join().expect("submitter thread");
    assert_eq!(outcome.verdict, "proved");

    // The directly-queued job also completes.
    let reply = ask(
        &mut raw,
        &mut reader,
        &proto::encode_request(&Request::Result(id_queued)),
    );
    assert!(reply.contains("proved"), "{reply}");

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    cleanup(&[&socket]);
}

// ---------------------------------------------------------------------
// 5: panic isolation over the full Table 1 corpus
// ---------------------------------------------------------------------

/// An injected panic in the first solver step crashes exactly one of the
/// 18 Table 1 jobs; the other 17 prove, the daemon keeps serving the
/// same socket, and — because crashed outcomes are never persisted — a
/// resubmission of the poisoned program re-verifies cleanly.
#[test]
fn one_poisoned_table1_job_crashes_alone_and_daemon_survives() {
    let guard = FaultPlan::new()
        .once("solver.step", FaultKind::Panic)
        .install();
    let (socket, _) = temp_paths("panic-isolation");
    // One runner thread makes the panic land deterministically in the
    // first job's verification (the first solver step of the batch).
    let (handle, mut client) = start_daemon(DaemonConfig {
        threads: Some(1),
        ..DaemonConfig::new(&socket)
    });

    let specs: Vec<JobSpec> = table1::service_jobs()
        .iter()
        .map(JobSpec::from_job)
        .collect();
    assert_eq!(specs.len(), 18);

    // The injected panic unwinds through the runner's catch_unwind; keep
    // the default hook's backtrace out of the test output.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcomes = client.run_corpus(&specs).expect("corpus over the wire");
    std::panic::set_hook(prev_hook);
    drop(guard);

    assert_eq!(outcomes[0].kind, OutcomeKind::Crashed, "{:?}", outcomes[0]);
    assert!(!outcomes[0].ok);
    assert!(
        outcomes[0].verdict.starts_with("crashed:"),
        "{}",
        outcomes[0].verdict
    );
    for (i, outcome) in outcomes.iter().enumerate().skip(1) {
        assert_eq!(outcome.kind, OutcomeKind::Completed, "job {i}");
        assert_eq!(outcome.verdict, "proved", "job {i}");
    }

    // The daemon survives on the same socket and the crash was not
    // persisted: the poisoned job re-verifies from scratch and proves,
    // while its 17 siblings are answered from the pipeline store.
    client.ping().expect("daemon still serving");
    let again = client.run_corpus(&specs).expect("second corpus");
    assert_eq!(again[0].kind, OutcomeKind::Completed);
    assert_eq!(again[0].verdict, "proved");
    assert!(
        !again[0].from_store,
        "a crashed outcome must never be served from the store"
    );
    for (i, outcome) in again.iter().enumerate().skip(1) {
        assert!(outcome.from_store, "job {i} should be a store hit");
        assert_eq!(outcome.verdict, "proved", "job {i}");
    }

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    cleanup(&[&socket]);
}

// ---------------------------------------------------------------------
// 6: resource budgets over the wire
// ---------------------------------------------------------------------

/// A starved job is reported `exhausted` (with the reason in the
/// verdict), never persisted — resubmitting is *not* a store hit, and a
/// bigger budget proves the same program, whose verdict then does
/// persist.
#[test]
fn budget_exhaustion_reported_never_persisted_and_rerun_proves() {
    let (socket, store) = temp_paths("budget");
    let (handle, mut client) = start_daemon(DaemonConfig {
        store: Some(store.clone()),
        threads: Some(2),
        ..DaemonConfig::new(&socket)
    });

    let mut starved_opts = OptionsSpec::from_options(&shadowdp_verify::Options::default());
    starved_opts.budget_theory_calls = Some(1);
    let starved = JobSpec {
        source: corpus::COUNTER_LOOP_TEMPLATE.replace("INV", ""),
        options: Some(starved_opts.clone()),
        isolated_memo: false,
    };

    let outcome = client
        .run_corpus(std::slice::from_ref(&starved))
        .expect("starved run")
        .remove(0);
    assert_eq!(outcome.kind, OutcomeKind::Exhausted, "{outcome:?}");
    assert!(outcome.ok, "exhaustion is a verdict, not a failure");
    assert!(!outcome.from_store);
    assert!(
        outcome.verdict.starts_with("resource-exhausted:"),
        "{}",
        outcome.verdict
    );

    // Exhausted outcomes are never memoized into the store: the same
    // starved spec runs (and exhausts) again instead of being answered
    // from a partial verdict.
    let again = client
        .run_corpus(std::slice::from_ref(&starved))
        .expect("starved rerun")
        .remove(0);
    assert_eq!(again.kind, OutcomeKind::Exhausted);
    assert!(
        !again.from_store,
        "an exhausted verdict must never be served from the store"
    );

    // Lifting the budget re-verifies cleanly (distinct cache key), and
    // *that* verdict persists.
    let mut roomy_opts = starved_opts.clone();
    roomy_opts.budget_theory_calls = Some(10_000_000);
    let roomy = JobSpec {
        options: Some(roomy_opts),
        ..starved.clone()
    };
    let proved = client
        .run_corpus(std::slice::from_ref(&roomy))
        .expect("roomy run")
        .remove(0);
    assert_eq!(proved.kind, OutcomeKind::Completed, "{proved:?}");
    assert_eq!(proved.verdict, "proved");
    assert!(!proved.from_store);
    let hit = client
        .run_corpus(std::slice::from_ref(&roomy))
        .expect("roomy rerun")
        .remove(0);
    assert!(hit.from_store, "completed verdicts do persist");
    assert_eq!(hit.verdict, "proved");

    // A wall-clock deadline trips the same way. Zero milliseconds: the
    // deadline is already expired when the solver arms it, so the first
    // budget check trips no matter how fast the machine is (a 1 ms
    // deadline raced real solve time and lost on fast hardware).
    let mut deadline_opts = starved_opts.clone();
    deadline_opts.budget_theory_calls = None;
    deadline_opts.budget_millis = Some(0);
    // Isolated memo: the roomy run above warmed the daemon's shared memo,
    // and a fully-cached run legitimately finishes inside any deadline.
    let deadline_spec = JobSpec {
        options: Some(deadline_opts),
        isolated_memo: true,
        ..starved.clone()
    };
    let started = Instant::now();
    let timed = client
        .run_corpus(std::slice::from_ref(&deadline_spec))
        .expect("deadline run")
        .remove(0);
    assert_eq!(timed.kind, OutcomeKind::Exhausted, "{timed:?}");
    assert!(timed.verdict.contains("deadline"), "{}", timed.verdict);
    // Generous 2-orders-of-magnitude bound: the point is that the
    // deadline cuts the run short instead of letting it finish.
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "deadline did not bound the run"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    cleanup(&[&socket, &store]);
}

// ---------------------------------------------------------------------
// 7: graceful drain on SHUTDOWN mid-batch
// ---------------------------------------------------------------------

/// `SHUTDOWN` while a batch is running drains instead of dropping work:
/// every accepted job still gets its result, verdicts are flushed to the
/// store, and the journal is cleared before exit.
#[test]
fn shutdown_mid_batch_drains_accepted_work() {
    let guard = FaultPlan::new()
        .sticky("solver.step", FaultKind::Delay { millis: 2 }, 1)
        .install();
    let (socket, store) = temp_paths("drain");
    let journal = journal_path(&store);
    let (handle, mut client) = start_daemon(DaemonConfig {
        store: Some(store.clone()),
        threads: Some(1),
        ..DaemonConfig::new(&socket)
    });

    let a = JobSpec::new(corpus::laplace_mechanism().source);
    let b = JobSpec::new(corpus::partial_sum().source);
    let id_a = client.submit(&a).expect("submit a");
    let id_b = client.submit(&b).expect("submit b");
    wait_status(&mut client, Duration::from_secs(30), "batch start", |s| {
        s.running >= 1
    });

    // A second client asks for shutdown while the batch is mid-flight.
    let mut other = Client::connect(&socket).expect("second client");
    other.shutdown().expect("shutdown accepted");
    drop(guard); // release the solver delay so the drain is quick

    // The submitting client still collects both results.
    let out_a = client.result(id_a).expect("result a survives shutdown");
    let out_b = client.result(id_b).expect("result b survives shutdown");
    assert_eq!(out_a.verdict, "proved");
    assert_eq!(out_b.verdict, "proved");
    handle.join().expect("daemon exits");

    // The drained verdicts reached the store, and the journal is gone.
    let reloaded = VerdictStore::load(&store);
    assert!(reloaded.load_note().is_none(), "store must load clean");
    assert_eq!(reloaded.pipeline_len(), 2, "both verdicts flushed");
    assert!(!journal.exists(), "drained shutdown clears the journal");
    cleanup(&[&socket, &store]);
}
