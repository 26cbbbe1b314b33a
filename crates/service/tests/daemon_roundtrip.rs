//! End-to-end daemon tests over a real Unix socket: warm restart served
//! from the persistent store, solver-tier warmth crossing a restart for
//! *new* cache keys, corrupted-store cold recovery, protocol robustness,
//! and zero caps refused at start-up.

mod support;

use std::io::ErrorKind;
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use shadowdp::{corpus, JobSpec};
use shadowdp_service::daemon::{self, DaemonConfig};
use shadowdp_service::Client;
use support::{start_daemon, temp_paths};

fn corpus_specs() -> Vec<JobSpec> {
    vec![
        JobSpec::new(corpus::laplace_mechanism().source),
        JobSpec::new(corpus::partial_sum().source),
        // A parse error is a per-job outcome, not a protocol failure.
        JobSpec::new("function {"),
    ]
}

/// The acceptance criterion: submitting an identical corpus to a freshly
/// restarted daemon yields byte-identical digests with zero solver work,
/// served from the persistent store.
#[test]
fn warm_restart_serves_identical_digests_from_store() {
    let (socket, store) = temp_paths("restart");
    let config = DaemonConfig {
        store: Some(store.clone()),
        threads: Some(2),
        ..DaemonConfig::new(&socket)
    };
    let specs = corpus_specs();

    // Pass 1: cold daemon, everything fresh.
    let (handle, mut client) = start_daemon(config.clone());
    let pass1 = client.run_corpus(&specs).expect("pass 1 runs");
    assert!(pass1.iter().all(|o| !o.from_store));
    assert_eq!(pass1[0].verdict, "proved");
    assert_eq!(pass1[1].verdict, "proved");
    assert!(!pass1[2].ok, "{:?}", pass1[2]);
    assert!(pass1[0].theory_calls > 0);
    // Fresh verification runs the trail-based solver core; its counters
    // travel the wire per job.
    assert!(pass1[0].trail_ops > 0, "{:?}", pass1[0]);
    assert!(pass1[0].max_trail_depth > 0, "{:?}", pass1[0]);

    let status = client.status().expect("status");
    assert_eq!(status.done, 3);
    assert!(status.memo_entries > 0);
    assert_eq!(status.pipeline_store, 3);

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits cleanly");

    // Pass 2: restarted daemon, identical corpus — all served from the
    // persistent pipeline tier, digests byte-identical, no solver work.
    let (handle, mut client) = start_daemon(config.clone());
    let pass2 = client.run_corpus(&specs).expect("pass 2 runs");
    for (a, b) in pass1.iter().zip(&pass2) {
        assert!(b.from_store, "{b:?}");
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(b.checks, 0);
        assert_eq!(b.theory_calls, 0);
        assert_eq!(b.trail_ops, 0, "store hits run no search: {b:?}");
    }

    // Solver-tier warmth crosses the restart for *new* pipeline keys: a
    // spec that differs only in an inert option (a Houdini round cap the
    // fixed point never reaches) misses the pipeline tier, runs fresh —
    // and still needs zero fresh theory work, because every validity
    // query it poses was loaded from the store's solver tier.
    let mut nudged = JobSpec::new(corpus::laplace_mechanism().source);
    let mut options = shadowdp::OptionsSpec::from_options(&shadowdp_verify::Options::default());
    options.max_rounds += 1;
    nudged.options = Some(options);
    let outcome = client
        .run_corpus(std::slice::from_ref(&nudged))
        .expect("nudged runs");
    let outcome = &outcome[0];
    assert!(!outcome.from_store, "{outcome:?}");
    assert_eq!(outcome.verdict, "proved");
    assert!(outcome.checks > 0);
    assert_eq!(
        outcome.theory_calls, 0,
        "solver tier did not warm the restarted daemon: {outcome:?}"
    );
    assert_eq!(outcome.cache_hits, outcome.checks);

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits cleanly");
    let _ = std::fs::remove_file(&store);
}

/// Per-candidate Houdini assumption stats travel the wire, and the
/// persisted solver tier transfers those verdicts **across candidate-set
/// variations**: a restarted daemon serving a *variant* program (an extra
/// doomed loop invariant, so the Houdini pool and every round's surviving
/// set differ from the original's) misses the pipeline tier, runs fresh —
/// and still answers most of its per-candidate consecution queries from
/// the store-loaded solver tier, because those memo keys never mention
/// sibling candidates.
#[test]
fn assumption_verdicts_transfer_across_candidate_set_variations() {
    const LOOP_SRC: &str = corpus::COUNTER_LOOP_TEMPLATE;
    let (socket, store) = temp_paths("variation");
    let config = DaemonConfig {
        store: Some(store.clone()),
        threads: Some(2),
        ..DaemonConfig::new(&socket)
    };

    // Pass 1: the plain program, cold. Its Houdini run asks
    // assumption-set-keyed consecution queries, reported over the wire.
    let (handle, mut client) = start_daemon(config.clone());
    let plain = JobSpec::new(LOOP_SRC.replace("INV", ""));
    let cold = &client
        .run_corpus(std::slice::from_ref(&plain))
        .expect("plain runs")[0];
    assert_eq!(cold.verdict, "proved");
    assert!(cold.assumption_queries > 0, "{cold:?}");
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits cleanly");

    // Pass 2: restarted daemon, a variant whose candidate set differs
    // (`count <= 0` survives initiation, then drops in consecution).
    let (handle, mut client) = start_daemon(config.clone());
    let variant = JobSpec::new(LOOP_SRC.replace("INV", "invariant (count <= 0)"));
    let warm = &client
        .run_corpus(std::slice::from_ref(&variant))
        .expect("variant runs")[0];
    assert!(!warm.from_store, "a variant must miss the pipeline tier");
    assert_eq!(warm.verdict, "proved");
    assert!(
        warm.assumption_hits > 0,
        "per-candidate verdicts must transfer across the variation: {warm:?}"
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits cleanly");
    let _ = std::fs::remove_file(&store);
}

/// The candidate-loop steady state: resubmitting an identical corpus is
/// served from the pipeline tier and flushes **nothing** — the log file
/// does not grow by a byte across resubmission batches. New work appends
/// a delta; the clean-shutdown compaction collapses the log back to live
/// size; and a restarted daemon still serves everything from the store.
#[test]
fn resubmission_batches_keep_the_log_bounded() {
    let (socket, store) = temp_paths("bounded");
    let config = DaemonConfig {
        store: Some(store.clone()),
        threads: Some(2),
        ..DaemonConfig::new(&socket)
    };
    let specs = vec![
        JobSpec::new(corpus::laplace_mechanism().source),
        JobSpec::new(corpus::partial_sum().source),
    ];

    let (handle, mut client) = start_daemon(config.clone());
    client.run_corpus(&specs).expect("cold batch");
    let after_cold = std::fs::metadata(&store).expect("store flushed").len();
    assert!(after_cold > 0);

    // N resubmission batches: all store hits, zero dirty delta, zero
    // bytes appended.
    for round in 0..3 {
        let outcomes = client.run_corpus(&specs).expect("resubmission");
        assert!(outcomes.iter().all(|o| o.from_store), "round {round}");
        assert_eq!(
            std::fs::metadata(&store).unwrap().len(),
            after_cold,
            "a store-served batch must not grow the log (round {round})"
        );
    }

    // Fresh work appends an O(batch) delta on top.
    let mut nudged = JobSpec::new(corpus::laplace_mechanism().source);
    let mut options = shadowdp::OptionsSpec::from_options(&shadowdp_verify::Options::default());
    options.max_rounds += 1;
    nudged.options = Some(options);
    client
        .run_corpus(std::slice::from_ref(&nudged))
        .expect("nudged batch");
    let after_delta = std::fs::metadata(&store).unwrap().len();
    assert!(after_delta > after_cold, "fresh work appends");

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    // The shutdown compaction rewrote the log as one base record; with
    // a duplicated pipeline answer gone it cannot exceed the pre-delta
    // image by more than the one new entry it keeps.
    let compacted = std::fs::metadata(&store).unwrap().len();
    assert!(
        compacted < after_delta,
        "shutdown compaction shrinks the log ({compacted} vs {after_delta})"
    );

    // Restart: everything — including the nudged variant — from the store.
    let (handle, mut client) = start_daemon(config);
    let mut all = specs.clone();
    all.push(nudged);
    let outcomes = client.run_corpus(&all).expect("warm corpus");
    for outcome in &outcomes {
        assert!(outcome.from_store, "{outcome:?}");
    }
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_file(&store);
}

/// `--store-max-pipeline-entries`: past the cap, the daemon evicts the
/// least recently *served* pipeline entries after each job, and a
/// store hit counts as a use. Survivors keep answering from the store
/// (across a restart too); an evicted spec re-verifies fresh and
/// re-enters the store.
#[test]
fn pipeline_cap_evicts_lru_and_survivors_stay_warm() {
    let (socket, store) = temp_paths("evict");
    let config = DaemonConfig {
        store: Some(store.clone()),
        threads: Some(2),
        max_pipeline_entries: Some(2),
        ..DaemonConfig::new(&socket)
    };
    let [a, b, c] = [
        corpus::laplace_mechanism(),
        corpus::partial_sum(),
        corpus::prefix_sum(),
    ]
    .map(|alg| JobSpec::new(alg.source));
    // Runs `spec` on its own; true when the store answered.
    let served = |client: &mut Client, spec: &JobSpec| {
        let o = client.run_corpus(std::slice::from_ref(spec)).expect("runs");
        assert_eq!(o[0].verdict, "proved");
        o[0].from_store
    };

    let (handle, mut client) = start_daemon(config.clone());
    assert!(!served(&mut client, &a) && !served(&mut client, &b));
    // Serving `a` makes it more recent than `b`, so storing `c` evicts `b`.
    assert!(served(&mut client, &a));
    assert!(!served(&mut client, &c));
    assert!(served(&mut client, &a));
    // Evicted `b` re-verifies fresh, which re-stores it and evicts `c`.
    assert!(!served(&mut client, &b));
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits cleanly");

    // The eviction is durable: the restarted store holds exactly the
    // survivors `a` and `b`, served warm; `c` is cold again.
    let (handle, mut client) = start_daemon(config);
    assert!(served(&mut client, &a) && served(&mut client, &b));
    assert!(!served(&mut client, &c));
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits cleanly");
    let _ = std::fs::remove_file(&store);
}

/// A corrupted store file must degrade to a cold (but working) daemon.
#[test]
fn corrupted_store_degrades_to_cold_run() {
    let (socket, store) = temp_paths("corrupt");
    std::fs::write(&store, b"not a store image at all").unwrap();
    let config = DaemonConfig {
        store: Some(store.clone()),
        threads: Some(1),
        ..DaemonConfig::new(&socket)
    };
    let (handle, mut client) = start_daemon(config);
    let spec = JobSpec::new(corpus::laplace_mechanism().source);
    let outcome = client
        .run_corpus(std::slice::from_ref(&spec))
        .expect("runs cold");
    assert!(!outcome[0].from_store);
    assert_eq!(outcome[0].verdict, "proved");
    assert!(outcome[0].theory_calls > 0, "cold run does real work");
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");

    // The cold run's flush replaced the corrupt image with a valid one.
    let reloaded = shadowdp_service::VerdictStore::load(&store);
    assert!(reloaded.load_note().is_none());
    assert!(reloaded.solver_len() > 0);
    let _ = std::fs::remove_file(&store);
}

/// Concurrent submissions from several clients are batched but answered
/// per client in submission order, and identical sibling jobs share the
/// daemon memo.
#[test]
fn concurrent_clients_are_batched_and_ordered() {
    let (socket, _store) = temp_paths("concurrent");
    let config = DaemonConfig {
        // No store: an in-memory daemon still batches.
        threads: Some(2),
        ..DaemonConfig::new(&socket)
    };
    let (handle, mut control) = start_daemon(config);

    let clients: Vec<JoinHandle<()>> = (0..3)
        .map(|_| {
            let socket = socket.clone();
            thread::spawn(move || {
                let mut client = Client::connect(&socket).expect("connect");
                let spec = JobSpec::new(corpus::laplace_mechanism().source);
                let outcomes = client
                    .run_corpus(&[spec.clone(), spec])
                    .expect("corpus runs");
                assert_eq!(outcomes.len(), 2);
                for outcome in outcomes {
                    assert_eq!(outcome.verdict, "proved");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    control.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
}

/// Garbage on the wire gets an ERR line, not a dropped connection or a
/// dead daemon.
#[test]
fn protocol_errors_do_not_kill_the_connection() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let (socket, _store) = temp_paths("proto");
    let config = DaemonConfig {
        threads: Some(1),
        ..DaemonConfig::new(&socket)
    };
    let (handle, mut control) = start_daemon(config);

    let stream = UnixStream::connect(&socket).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut ask = |line: &str| -> String {
        writeln!(writer, "{line}").expect("write");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        reply.trim_end().to_string()
    };
    assert!(ask("GIBBERISH\twith\tfields").starts_with("ERR\t"));
    assert!(ask("SUBMIT\t9\tbad").starts_with("ERR\t"));
    // Lint runs in the client; the daemon has no such verb.
    assert!(ask("LINT\tfunction F() returns o: num(0,0) { o := 0; }").starts_with("ERR\t"));
    assert_eq!(ask("PING"), "PONG");
    assert!(
        ask("RESULT\t999").starts_with("ERR\t"),
        "unknown id is an ERR"
    );

    control.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
}

/// Job ids belong to the connection that submitted them: another client
/// cannot steal an outcome, and the submitter cannot collect twice.
#[test]
fn results_are_owned_by_the_submitting_connection() {
    let (socket, _store) = temp_paths("owner");
    let config = DaemonConfig {
        threads: Some(1),
        ..DaemonConfig::new(&socket)
    };
    let (handle, mut submitter) = start_daemon(config);

    let spec = JobSpec::new(corpus::laplace_mechanism().source);
    let id = submitter.submit(&spec).expect("submit");

    // A second connection probing the id gets an error, not the outcome.
    let mut thief = Client::connect(&socket).expect("connect");
    let stolen = thief.result(id);
    assert!(stolen.is_err(), "{stolen:?}");

    // The rightful submitter still collects it — exactly once.
    let outcome = submitter.result(id).expect("owner collects");
    assert_eq!(outcome.verdict, "proved");
    assert!(
        submitter.result(id).is_err(),
        "second collection is an error"
    );

    submitter.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");
}

/// A queue limit of 0 would answer every `SUBMIT` with `BUSY`, and a
/// pipeline cap of 0 would evict every entry after every job: `run`
/// refuses either before it binds the socket, instead of serving.
#[test]
fn zero_caps_are_rejected_up_front() {
    let (socket, store) = temp_paths("zero-caps");
    let base = DaemonConfig {
        store: Some(store),
        ..DaemonConfig::new(&socket)
    };
    let zero_queue = DaemonConfig {
        queue_limit: Some(0),
        ..base.clone()
    };
    let zero_pipeline = DaemonConfig {
        max_pipeline_entries: Some(0),
        ..base
    };
    for config in [zero_queue, zero_pipeline] {
        // A daemon that serves never returns: wait on a channel, not a
        // join, so the test fails instead of hanging.
        let (tx, rx) = mpsc::channel();
        let runner = thread::spawn(move || tx.send(daemon::run(config)));
        let err = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("run returns instead of serving")
            .expect_err("a zero cap is refused");
        runner.join().expect("runner").expect("result received");
        assert_eq!(err.kind(), ErrorKind::InvalidInput, "{err}");
        assert!(!socket.exists(), "no socket was bound");
    }
}
