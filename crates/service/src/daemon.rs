//! `shadowdpd`: the verification daemon.
//!
//! A std-only [`UnixListener`] server speaking the line protocol of
//! [`crate::proto`]. The architecture is three kinds of threads around two
//! locks:
//!
//! - the **accept loop** (caller's thread inside [`run`]) spawns one
//!   handler thread per connection;
//! - **handler threads** parse requests — `SUBMIT` enqueues and returns
//!   immediately, `RESULT` waits on the connection's own reply channel
//!   for the job's outcome;
//! - **workers** ([`DaemonConfig::threads`] of them) each take the oldest
//!   pending job and carry it alone from store lookup to published
//!   outcome. A fresh job is verified through
//!   [`Pipeline::verify_corpus_parallel_with_memo`] as a one-job corpus on
//!   the worker's own thread, against the daemon's long-lived shared
//!   [`QueryMemo`]: a stream of near-identical candidates (the CheckDP
//!   loop shape) pays theory work once, and while a worker is free no job
//!   waits behind another job's verification (workers take turns only at
//!   the store lock, for lookups and flushes).
//!
//! Persistence: on startup the daemon loads the [`VerdictStore`] (an
//! append-only record log), whose solver tier lands in the memo the
//! workers query ([`VerdictStore::memo`]); after every freshly verified
//! job it drains the memo's dirty delta and **appends one framed delta
//! record** — O(job), not O(store), so a long candidate loop pays
//! constant flush cost per job instead of quadratic total. When the log
//! holds more than twice as many entries as live ones
//! ([`VerdictStore::wants_compaction`]), and always on clean shutdown, a
//! compaction pass rewrites the log atomically and drops solver-tier
//! entries unreachable from any pipeline-tier job. Jobs whose (source,
//! options) pair is already in the pipeline tier are answered from disk
//! without verifying and report `from = store` over the wire.
//!
//! A worker sends a finished job's outcome straight to the reply channel
//! of the connection that submitted it, which holds it until its client
//! asks with `RESULT`, in any order. A connection that closes drops what
//! it did not collect, and a journal replay's outcome goes to nobody.
//!
//! # Fault tolerance
//!
//! The daemon is built to degrade per job, never per process:
//!
//! - **Panic isolation** — each job runs under the pipeline's
//!   `catch_unwind` boundary, so one poisoned job becomes a `crashed`
//!   outcome while the other workers' jobs complete and the daemon keeps
//!   serving the same socket.
//! - **Resource budgets** — a job's [`shadowdp::OptionsSpec`] budget
//!   fields bound wall clock and theory calls; exhaustion comes back as a
//!   `resource-exhausted` verdict with `kind = exhausted`. Exhausted and
//!   crashed outcomes are **never persisted** to the pipeline tier:
//!   re-submitting (say, with a larger budget) re-verifies from scratch
//!   instead of replaying a partial verdict.
//! - **Backpressure** — with [`DaemonConfig::queue_limit`] set, a
//!   `SUBMIT` past the bound answers `BUSY <retry-after-ms>` instead of
//!   queueing without limit; the bundled client retries with capped
//!   exponential backoff.
//! - **In-flight journal** — when a store is configured, every accepted
//!   submission is appended to `<store>.journal` *before* `QUEUED` is
//!   sent and dropped only once its verdict is durably flushed: the
//!   journal covers queued and running jobs. A daemon killed mid-job
//!   re-verifies the journaled submissions on restart, so an accepted job
//!   is never silently lost.
//!   The journal is a record log like the store (`log.rs` owns the
//!   framing and the append/rewrite/clear discipline) with magic
//!   `SDPJRNL1` and one encoded `SUBMIT` line per record. It is
//!   append-only while the daemon lives: the first append creates the
//!   file (and fsyncs the directory), and a finished job does not rewrite
//!   it. Once the store is clean, a job's record is dead: when nothing is
//!   queued or running the file is cut back to its magic, and otherwise
//!   it is rewritten to the outstanding jobs only once
//!   [`JOURNAL_REWRITE_FLOOR`] records are dead. Replay stops at the first
//!   torn, corrupt or unparseable record, keeping the valid prefix; once
//!   the daemon owns its socket the journal is rewritten to that prefix,
//!   which removes the file if nothing replayed. A clean shutdown removes
//!   it too.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use shadowdp::{CorpusOutcome, JobSpec, Phase, Pipeline, PipelineError, PipelineReport};
use shadowdp_solver::{QueryMemo, SolverStats};
use shadowdp_verify::Verdict;

use crate::log::RecordLog;
use crate::proto::{self, JobOutcome, OutcomeKind, Request, Response, StatusInfo};
use crate::store::{fnv128, hex128, PipelineEntry, VerdictStore};

/// What `BUSY` tells a rejected submitter to wait before retrying.
/// Jobs normally turn around well within this; the client treats it
/// as a floor and backs off further on repeated rejections.
pub const BUSY_RETRY_MS: u64 = 100;

// ---------------------------------------------------------------------------
// Metrics (always-on; exposed over the METRICS verb)
// ---------------------------------------------------------------------------

use shadowdp_obs::{Histogram, LazyCounter, LazyFamily, LazyFloatGauge, LazyGauge, LazyHistogram};

static JOBS_DONE: LazyCounter = LazyCounter::new(
    "shadowdp_jobs_done_total",
    "Job outcomes published since daemon startup (store hits included)",
);
static STORE_HITS_TOTAL: LazyCounter = LazyCounter::new(
    "shadowdp_store_hits_total",
    "Jobs answered from the persistent pipeline tier without verifying",
);
static BUSY_REJECTIONS: LazyCounter = LazyCounter::new(
    "shadowdp_busy_rejections_total",
    "SUBMIT requests rejected with BUSY by queue backpressure",
);
static CRASHES: LazyCounter = LazyCounter::new(
    "shadowdp_crashes_total",
    "Jobs that panicked and were isolated as crashed outcomes",
);
static BUDGET_EXHAUSTED: LazyCounter = LazyCounter::new(
    "shadowdp_budget_exhausted_total",
    "Jobs that hit their resource budget before reaching a verdict",
);
static JOURNAL_REPLAYED: LazyCounter = LazyCounter::new(
    "shadowdp_journal_replayed_total",
    "In-flight submissions re-verified from the journal at startup",
);
static COMPACTIONS: LazyCounter = LazyCounter::new(
    "shadowdp_store_compactions_total",
    "Successful store compaction passes (ratio-triggered and shutdown)",
);
static PIPELINE_EVICTIONS: LazyCounter = LazyCounter::new(
    "shadowdp_pipeline_evictions_total",
    "Pipeline-tier entries evicted by the --store-max-pipeline-entries LRU cap",
);
static QUEUE_DEPTH: LazyGauge = LazyGauge::new(
    "shadowdp_queue_depth",
    "Submissions accepted but not yet taken by a worker",
);
static QUEUE_CAPACITY: LazyGauge = LazyGauge::new(
    "shadowdp_queue_capacity",
    "Submission-queue bound (0 = unbounded)",
);
static JOURNAL_ENTRIES: LazyGauge = LazyGauge::new(
    "shadowdp_journal_entries",
    "Records in the in-flight journal file: the submissions a crash now \
     would re-verify (finished jobs' records linger until the journal is \
     cut back or rewritten)",
);
static MEMO_ENTRIES: LazyGauge = LazyGauge::new(
    "shadowdp_memo_entries",
    "Entries in the live solver query memo",
);
static PIPELINE_ENTRIES: LazyGauge = LazyGauge::new(
    "shadowdp_store_pipeline_entries",
    "Whole-verification entries in the persistent pipeline tier",
);
static STORE_LOG_BYTES: LazyGauge = LazyGauge::new(
    "shadowdp_store_log_bytes",
    "On-disk size of the verdict store log in bytes",
);
static LAST_FLUSH_US: LazyGauge = LazyGauge::new(
    "shadowdp_store_last_flush_us",
    "Wall-clock microseconds the most recent store flush took",
);
static COMPACTION_RATIO: LazyFloatGauge = LazyFloatGauge::new(
    "shadowdp_store_compaction_ratio",
    "Logged entries (superseded included) over live entries; a job's \
     flush compacts the store once this exceeds 2",
);
static FLUSH_US: LazyHistogram = LazyHistogram::new(
    "shadowdp_store_flush_us",
    "Store flush latency in microseconds (delta appends and rewrites)",
);
static JOB_STAGE_US: LazyFamily<Histogram> = LazyFamily::new(
    "shadowdp_job_stage_us",
    "Microseconds per stage of each freshly verified job: queue_wait (SUBMIT \
     accepted to taken by a worker), verify (the corpus call), flush (verify \
     end to outcome published: store lock wait, puts, flush)",
    "stage",
);

/// Forces registration of every daemon metric so the very first scrape
/// exposes the full set (a never-incremented counter reads 0 instead of
/// being absent — scrape consumers can rely on the schema).
fn register_metrics() {
    JOBS_DONE.get();
    STORE_HITS_TOTAL.get();
    BUSY_REJECTIONS.get();
    CRASHES.get();
    BUDGET_EXHAUSTED.get();
    JOURNAL_REPLAYED.get();
    COMPACTIONS.get();
    PIPELINE_EVICTIONS.get();
    QUEUE_DEPTH.get();
    QUEUE_CAPACITY.get();
    JOURNAL_ENTRIES.get();
    MEMO_ENTRIES.get();
    PIPELINE_ENTRIES.get();
    STORE_LOG_BYTES.get();
    LAST_FLUSH_US.get();
    COMPACTION_RATIO.get();
    FLUSH_US.get();
    for stage in ["queue_wait", "verify", "flush"] {
        JOB_STAGE_US.with(stage);
    }
    crate::log::register_metrics();
    // Pipeline + solver metrics live in their own crates; pull them in
    // too, or a warm daemon serving everything from its store would
    // scrape without the solver counters.
    shadowdp::pipeline::register_metrics();
}

/// Sets the state gauges from the daemon's current state. `METRICS`, their
/// only reader, calls this before rendering; nothing else moves them.
fn refresh_gauges(shared: &Shared) {
    let store = shared.store();
    PIPELINE_ENTRIES.set(store.pipeline_len() as u64);
    STORE_LOG_BYTES.set(store.log_bytes());
    let live = store.live_entries();
    if live > 0 {
        COMPACTION_RATIO.set(store.logged_entries() as f64 / live as f64);
    }
    let st = shared.state();
    QUEUE_DEPTH.set(st.pending.len() as u64);
    JOURNAL_ENTRIES.set(st.journaled());
    MEMO_ENTRIES.set(shared.memo.len() as u64);
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Unix socket path to listen on. A leftover file from a crashed
    /// daemon is probed first and replaced only if nothing answers;
    /// binding over a *live* daemon's socket is refused.
    pub socket: PathBuf,
    /// Verdict store path; `None` runs fully in memory (still memoized,
    /// just nothing survives the process).
    pub store: Option<PathBuf>,
    /// Worker threads (`--threads`; `None` = all cores, at least 1). Each
    /// worker verifies one job at a time, so this is how many jobs run at
    /// once.
    pub threads: Option<usize>,
    /// Bound on the submission queue (`--queue-limit`, at least 1). A
    /// `SUBMIT` that would push `pending` past this answers `BUSY` instead
    /// of queueing; `None` keeps the queue unbounded (the pre-backpressure
    /// behavior).
    pub queue_limit: Option<usize>,
    /// Cap on pipeline-tier store entries (`--store-max-pipeline-entries`,
    /// at least 1). After each job's put and before its flush, the least
    /// recently *served* entries past the cap are evicted
    /// ([`VerdictStore::evict_pipeline_lru`]), so a daemon fed an
    /// unbounded stream of distinct programs keeps a bounded store.
    /// `None` = unbounded (the pre-eviction behavior).
    pub max_pipeline_entries: Option<usize>,
}

impl DaemonConfig {
    /// A config with defaults for everything but the socket path: no
    /// store, all cores, unbounded queue and pipeline tier.
    /// Construct variants with struct-update syntax:
    /// `DaemonConfig { store: Some(p), ..DaemonConfig::new(sock) }`.
    pub fn new(socket: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            socket: socket.into(),
            store: None,
            threads: None,
            queue_limit: None,
            max_pipeline_entries: None,
        }
    }
}

/// The journal's file magic (see the module docs).
const JOURNAL_MAGIC: &[u8; 8] = b"SDPJRNL1";

/// Dead journal records (finished jobs, verdicts durable) that trigger a
/// rewrite to the outstanding jobs while some are still queued or
/// running. A rewrite costs a temp file, two fsyncs and a rename under
/// the state lock; the floor bounds what a crash re-verifies needlessly
/// (as store hits) and how far the file grows under a queue that never
/// drains.
pub const JOURNAL_REWRITE_FLOOR: u64 = 64;

/// A journal record: the submission's encoded `SUBMIT` line.
fn submit_line(spec: &JobSpec) -> String {
    proto::encode_request(&Request::Submit(spec.clone()))
}

/// An accepted submission, queued or running.
#[derive(Clone)]
struct Submission {
    id: u64,
    spec: JobSpec,
    /// When `SUBMIT` accepted it (daemon start, for a journal replay): the
    /// start of its `queue_wait` stage.
    accepted: Instant,
    /// The submitting connection's reply channel; `None` for a journal
    /// replay, whose outcome nobody collects.
    reply: Option<mpsc::Sender<JobOutcome>>,
}

/// Queue state behind the daemon's mutex.
#[derive(Default)]
struct State {
    /// Accepted submissions no worker has taken yet, oldest first.
    pending: VecDeque<Submission>,
    /// Submissions taken by a worker and not yet published. Workers take
    /// the oldest pending job and removal keeps order, so this is in id
    /// order and every id here is below every pending id.
    running: Vec<Submission>,
    /// Outcomes published since startup, replays and those of closed
    /// connections included (`STATUS done`).
    done: u64,
    next_id: u64,
    /// The in-flight journal, `<store>.journal` (`None` without a store).
    /// Kept here, every journal call holds the state lock, which orders
    /// appends, rewrites and clears.
    journal: Option<RecordLog>,
    shutdown: bool,
}

impl State {
    /// Journals one accepted submission, fsynced so it survives a crash
    /// the instant after `QUEUED` is acknowledged.
    fn journal_submit(&mut self, spec: &JobSpec) -> std::io::Result<()> {
        match &mut self.journal {
            Some(journal) => journal.append(submit_line(spec).as_bytes()),
            None => Ok(()),
        }
    }

    /// Records in the journal file: the submissions a crash now would
    /// re-verify (`STATUS journaled`).
    fn journaled(&self) -> u64 {
        self.journal.as_ref().map_or(0, RecordLog::records)
    }

    /// Rewrites the journal to every accepted submission whose verdict may
    /// not be durable yet — running, then pending, so in id order; with
    /// none, this removes the file. Call only after checking, with the
    /// store locked, that it holds no unflushed verdict, and without
    /// releasing this state since.
    fn rewrite_journal(&mut self) -> std::io::Result<()> {
        let Some(journal) = &mut self.journal else {
            return Ok(());
        };
        let lines: Vec<String> = self
            .running
            .iter()
            .chain(&self.pending)
            .map(|s| submit_line(&s.spec))
            .collect();
        journal.rewrite(&lines)
    }

    /// Forgets finished jobs' records, on the same precondition as
    /// [`State::rewrite_journal`]: with nothing queued or running the
    /// journal is cut back to its magic, and otherwise it is rewritten
    /// once [`JOURNAL_REWRITE_FLOOR`] of its records are dead.
    fn trim_journal(&mut self) -> std::io::Result<()> {
        let outstanding = (self.running.len() + self.pending.len()) as u64;
        let Some(journal) = &mut self.journal else {
            return Ok(());
        };
        if outstanding == 0 {
            journal.clear()
        } else if journal.records().saturating_sub(outstanding) >= JOURNAL_REWRITE_FLOOR {
            self.rewrite_journal()
        } else {
            Ok(())
        }
    }
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a submission is queued or shutdown begins; workers
    /// wait on it.
    queued: Condvar,
    store: Mutex<VerdictStore>,
    /// The store's memo ([`VerdictStore::memo`]), which workers query
    /// without taking the store lock.
    memo: Arc<QueryMemo>,
    config: DaemonConfig,
}

impl Shared {
    /// The queue state, journal included. Lock order: the store (if held)
    /// before the state.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("no thread panics while holding the queue state")
    }

    fn store(&self) -> MutexGuard<'_, VerdictStore> {
        self.store
            .lock()
            .expect("no thread panics while holding the verdict store")
    }
}

/// Renders a per-job pipeline result as the wire verdict string.
pub fn render_verdict(report: &Result<PipelineReport, PipelineError>) -> String {
    match report {
        Ok(report) => match &report.verdict {
            Verdict::Proved => "proved".to_string(),
            Verdict::Refuted(cex) => format!("refuted: {cex}"),
            Verdict::Unknown(reason) => format!("unknown: {reason}"),
            Verdict::ResourceExhausted { reason } => format!("resource-exhausted: {reason}"),
        },
        Err(e) => match e.phase() {
            Phase::Crash => format!("crashed: {e}"),
            phase => format!("error in {phase:?}: {e}"),
        },
    }
}

/// Classifies a per-job pipeline result for the wire `kind` field.
pub fn outcome_kind(report: &Result<PipelineReport, PipelineError>) -> OutcomeKind {
    match report {
        Ok(report) => match &report.verdict {
            Verdict::ResourceExhausted { .. } => OutcomeKind::Exhausted,
            _ => OutcomeKind::Completed,
        },
        Err(e) => match e.phase() {
            Phase::Crash => OutcomeKind::Crashed,
            _ => OutcomeKind::Error,
        },
    }
}

/// The wire digest of a per-job report digest text.
pub fn wire_digest(report_digest: &str) -> String {
    hex128(fnv128(report_digest.as_bytes()))
}

/// One job's outcome: `ok` follows `kind`, and the solver counters are
/// the job's own (all zero for a job that ran no search).
fn job_outcome(
    id: u64,
    from_store: bool,
    kind: OutcomeKind,
    digest: String,
    verdict: String,
    stats: &SolverStats,
) -> JobOutcome {
    JobOutcome {
        id,
        ok: kind.ok(),
        from_store,
        kind,
        digest,
        checks: stats.checks,
        cache_hits: stats.cache_hits,
        theory_calls: stats.theory_calls,
        assumption_queries: stats.assumption_queries,
        assumption_hits: stats.assumption_hits,
        trail_ops: stats.trail_ops,
        max_trail_depth: stats.max_trail_depth,
        saturation_reuses: stats.saturation_reuses,
        resaturations: stats.resaturations,
        verdict,
    }
}

/// Runs the daemon until a client sends `SHUTDOWN`. Blocks the calling
/// thread (spawn it yourself for an in-process daemon — the integration
/// tests and `examples/service_demo.rs` do).
///
/// # Errors
///
/// Returns [`std::io::ErrorKind::InvalidInput`], before touching the
/// store or the socket, if either cap is 0, and an error if the socket
/// cannot be bound. Per-connection and store-flush errors are logged to
/// stderr and survived.
pub fn run(config: DaemonConfig) -> std::io::Result<()> {
    if config.queue_limit == Some(0) || config.max_pipeline_entries == Some(0) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "the queue limit and the pipeline cap must be at least 1",
        ));
    }
    let store = match &config.store {
        Some(path) => VerdictStore::load(path),
        None => VerdictStore::in_memory(),
    };
    if let Some(note) = store.load_note() {
        eprintln!("shadowdpd: {note}");
    }
    let memo = store.memo().clone();

    // Submissions journaled by a previous run that crashed before their
    // verdicts were flushed: requeue them without a reply channel. Nobody
    // collects the outcomes (the submitting connections are gone), but the
    // verdicts land in the store, so resubmitting clients get store hits.
    let mut initial = State::default();
    let mut replayed = Vec::new();
    initial.journal = config.store.as_deref().map(|store| {
        // A whole record that is not a `SUBMIT` this daemon can parse (an
        // older wire encoding, a foreign file) stops the replay with a
        // note: it is never guessed at.
        let accept = |payload: &[u8]| match proto::parse_request(
            std::str::from_utf8(payload).unwrap_or_default(),
        ) {
            Ok(Request::Submit(spec)) => {
                replayed.push(spec);
                true
            }
            other => {
                let why = other.map_or_else(|e| e.to_string(), |_| "not a SUBMIT".into());
                eprintln!(
                    "shadowdpd: journal: record {} is unreadable ({why}); it and any \
                     later records are not re-verified",
                    replayed.len() + 1
                );
                false
            }
        };
        let path = crate::sibling_path(store, ".journal");
        RecordLog::open(path, JOURNAL_MAGIC, "journal", |_| None, accept).0
    });
    let started = Instant::now();
    for spec in replayed {
        let id = initial.next_id;
        initial.next_id += 1;
        initial.pending.push_back(Submission {
            id,
            spec,
            accepted: started,
            reply: None,
        });
    }
    if !initial.pending.is_empty() {
        eprintln!(
            "shadowdpd: journal: re-verifying {} in-flight submission(s) from a previous run",
            initial.pending.len()
        );
        JOURNAL_REPLAYED.add(initial.pending.len() as u64);
    }
    // Spans stay disarmed unless SHADOWDP_TRACE asks for them; metrics
    // are always on.
    shadowdp_obs::arm_from_env();
    register_metrics();
    QUEUE_CAPACITY.set(config.queue_limit.map_or(0, |n| n as u64));

    // A socket file may be left over from a crashed daemon — or belong to
    // a daemon that is alive right now. Probe before touching it: only a
    // refused connection proves the file is stale, and a live listener is
    // an error here (silently unlinking it would orphan that daemon's
    // listener — the auto-spawn race this probe exists to prevent).
    //
    // Probe, unlink, and bind are three separate syscalls, so two daemons
    // started concurrently over the *same stale file* could interleave
    // them (both probe refused → both unlink+bind → the second unlink
    // orphans the first daemon's fresh listener). An exclusive kernel
    // lock on `<socket>.bind-lock` serializes the whole section: the
    // second daemon enters it only after the first has bound, probes a
    // live socket, and refuses. The lock is dropped right after the bind
    // (the kernel also releases it on any early return or crash), and
    // the lockfile itself is deliberately never unlinked (removing a
    // path others may have open would split the lock across inodes).
    let bind_lock = {
        let lock = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(crate::sibling_path(&config.socket, ".bind-lock"))?;
        lock.lock()?;
        lock
    };
    match UnixStream::connect(&config.socket) {
        Ok(_) => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AddrInUse,
                format!("a daemon is already serving {}", config.socket.display()),
            ));
        }
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
            // Stale file from a dead daemon: safe to replace.
            let _ = std::fs::remove_file(&config.socket);
        }
        Err(_) => {} // most commonly NotFound: nothing to replace
    }
    let listener = UnixListener::bind(&config.socket)?;
    drop(bind_lock);
    // Now that this daemon owns its socket, cut the journal down to what
    // was replayed: a torn or unreadable record would otherwise hide this
    // run's appends behind it from the next replay. This assumes one
    // daemon per store (and so per journal): the bind lock serializes
    // the socket only, and a second daemon on another socket with the
    // same `--store` would replay and rewrite the same journal.
    if let Err(e) = initial.rewrite_journal() {
        eprintln!("shadowdpd: journal rewrite after replay failed: {e}");
    }

    let worker_count = config
        .threads
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, std::num::NonZero::get))
        .max(1);
    let shared = Arc::new(Shared {
        state: Mutex::new(initial),
        queued: Condvar::new(),
        store: Mutex::new(store),
        memo,
        config,
    });

    // Workers and connection threads run under the starter's fault plan,
    // if any (an in-process daemon under test inherits its test's).
    let faults = shadowdp_fault::PlanHandle::current();
    let workers: Vec<thread::JoinHandle<()>> = (0..worker_count)
        .map(|_| {
            let shared = shared.clone();
            let faults = faults.clone();
            thread::spawn(move || {
                let _faults = faults.bind();
                work(&shared);
            })
        })
        .collect();

    for stream in listener.incoming() {
        if shared.state().shutdown {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = shared.clone();
        let faults = faults.clone();
        thread::spawn(move || {
            let _faults = faults.bind();
            if let Err(e) = serve(&shared, stream) {
                eprintln!("shadowdpd: connection error: {e}");
            }
        });
    }

    for worker in workers {
        worker.join().expect("a worker does not panic");
    }
    close_store(&shared);
    let _ = std::fs::remove_file(&shared.config.socket);
    Ok(())
}

/// Blocks until a job is pending, then moves the oldest one to `running`
/// and returns it; `None` once shutdown has begun and nothing is pending.
fn take(shared: &Shared) -> Option<Submission> {
    let mut st = shared.state();
    loop {
        if let Some(job) = st.pending.pop_front() {
            st.running.push(job.clone());
            return Some(job);
        }
        if st.shutdown {
            return None;
        }
        st = shared
            .queued
            .wait(st)
            .expect("no thread panics while holding the queue state");
    }
}

/// A worker: takes the oldest pending job and carries it alone from store
/// lookup to published outcome, until shutdown leaves nothing pending.
fn work(shared: &Shared) {
    let pipeline = Pipeline::new();
    while let Some(job) = take(shared) {
        // Workers take the oldest pending job under the state lock, so
        // dispatch order is id order and the id is a recency stamp for
        // LRU eviction (+ 1: stamp 0 means never served).
        let stamp = job.id + 1;
        let picked = Instant::now();
        let mut span = shadowdp_obs::span("daemon.job");

        let mut store = shared.store();
        // The verify window of a freshly verified job, for its stage
        // timings; `None` for a store hit or a malformed spec.
        let mut verified_in = None;
        let outcome = if let Some(entry) = store.pipeline_get(&job.spec) {
            // Exhausted and crashed runs are never persisted, so a store
            // entry is exactly completed-or-error.
            let kind = if entry.ok {
                OutcomeKind::Completed
            } else {
                OutcomeKind::Error
            };
            let outcome = job_outcome(
                job.id,
                true,
                kind,
                wire_digest(&entry.digest),
                entry.verdict.clone(),
                &SolverStats::default(),
            );
            // Serve-time stamp: this dispatch is the entry's last use.
            store.stamp_served(&job.spec, stamp);
            STORE_HITS_TOTAL.inc();
            outcome
        } else {
            match job.spec.to_job() {
                Ok(corpus_job) => {
                    drop(store);
                    let start = Instant::now();
                    let verified = pipeline.verify_corpus_parallel_with_memo(
                        &[corpus_job],
                        Some(1),
                        &shared.memo,
                    );
                    verified_in = Some((start, Instant::now()));
                    store = shared.store();
                    persist(shared, &mut store, &job, stamp, &verified)
                }
                Err(e) => job_outcome(
                    job.id,
                    false,
                    OutcomeKind::Error,
                    wire_digest(&format!("{e}")),
                    format!("error: {e}"),
                    &SolverStats::default(),
                ),
            }
        };
        match outcome.kind {
            OutcomeKind::Crashed => CRASHES.inc(),
            OutcomeKind::Exhausted => BUDGET_EXHAUSTED.inc(),
            OutcomeKind::Completed | OutcomeKind::Error => {}
        }
        JOBS_DONE.inc();
        if shadowdp_obs::armed() {
            span.set_label(&format!("id={} store_hit={}", job.id, outcome.from_store));
        }

        // A clean store means every verdict put so far is on disk, this
        // job's included, so the journal may drop every record but those
        // of jobs still running or queued. Checking under both locks makes
        // that safe: a verdict put after the check belongs to a job that
        // is already running (taking a job needs the state lock), and it
        // stays listed until its worker gets the state lock after this
        // one. A failed flush leaves the store dirty, and the journal
        // keeps covering this job until a later flush succeeds.
        let mut st = shared.state();
        st.running.retain(|s| s.id != job.id);
        let clean = store.dirty_len() == 0;
        drop(store);
        if clean {
            if let Err(e) = st.trim_journal() {
                eprintln!("shadowdpd: journal trim failed (will retry): {e}");
            }
        }
        // Every metric for this job moves before its outcome becomes
        // visible, so a client that scrapes after its RESULT sees them.
        if let Some((start, end)) = verified_in {
            let us = |d: Duration| d.as_micros() as u64;
            JOB_STAGE_US
                .with("queue_wait")
                .observe(us(picked - job.accepted));
            JOB_STAGE_US.with("verify").observe(us(end - start));
            JOB_STAGE_US.with("flush").observe(us(end.elapsed()));
        }
        st.done += 1;
        drop(st);
        // A failed send means the submitting connection has closed: nobody
        // can collect the outcome, and its verdict is persisted either way.
        if let Some(reply) = &job.reply {
            let _ = reply.send(outcome);
        }
    }
}

/// Persists one freshly verified job under the store lock: the memo's
/// dirty delta, its pipeline entry (completed and error outcomes only),
/// LRU eviction, one flush and a compaction check. Returns the job's wire
/// outcome.
fn persist(
    shared: &Shared,
    store: &mut VerdictStore,
    job: &Submission,
    stamp: u64,
    verified: &CorpusOutcome,
) -> JobOutcome {
    let report = &verified.reports[0];
    let digest_text = verified.report_digest(0);
    let verdict = render_verdict(report);
    let kind = outcome_kind(report);
    let stats = report.as_ref().map(|r| r.solver_stats).unwrap_or_default();
    // O(job), not O(store): drain only what has been solved since the
    // last drain and append it as one delta record. A failed flush keeps
    // the delta dirty, so the next successful flush (or the shutdown
    // compaction) persists it.
    store.absorb_dirty(&shared.memo);
    // Exhausted and crashed runs are properties of this attempt (budget
    // size, poisoned worker), not of the program: persisting them would
    // answer future re-submissions — possibly with a *larger* budget —
    // from a partial verdict. They stay out of the store entirely.
    if matches!(kind, OutcomeKind::Completed | OutcomeKind::Error) {
        // The job's solver-tier dependency set: compaction keeps a
        // persisted solver verdict alive iff some pipeline entry lists
        // it. A job that failed before verification has no report to
        // list dependencies from — its (empty) set is exact: it needs no
        // solver entries to be re-served.
        let deps = report
            .as_ref()
            .map(|r| r.solver_fingerprints.clone())
            .unwrap_or_default();
        // A dependency served purely by memo hits was never in a dirty
        // delta; if a past compaction dropped it as an orphan, re-persist
        // it now so no pipeline entry's deps ever dangle.
        store.ensure_deps(&shared.memo, &deps);
        store.pipeline_put(
            &job.spec,
            PipelineEntry {
                ok: report.is_ok(),
                verdict: verdict.clone(),
                digest: digest_text.clone(),
                deps: Some(deps),
            },
        );
        // Put-time stamp: the entry's first use.
        store.stamp_served(&job.spec, stamp);
    }
    // Enforce the pipeline-tier cap now, after this job's put and before
    // the flush: an eviction forces a full rewrite, and doing it here
    // folds that rewrite into the flush I/O below instead of paying for
    // it separately.
    if let Some(max) = shared.config.max_pipeline_entries {
        let evicted = store.evict_pipeline_lru(max);
        if evicted > 0 {
            PIPELINE_EVICTIONS.add(evicted as u64);
        }
    }
    let flush_start = Instant::now();
    let flushed = {
        let _span = shadowdp_obs::span("daemon.flush");
        store.flush()
    };
    let us = flush_start.elapsed().as_micros() as u64;
    FLUSH_US.observe(us);
    LAST_FLUSH_US.set(us);
    if let Err(e) = flushed {
        eprintln!("shadowdpd: store flush failed (delta retained, will retry): {e}");
    } else if store.wants_compaction() {
        match store.compact() {
            Ok(stats) => {
                COMPACTIONS.inc();
                eprintln!(
                    "shadowdpd: compacted store ({} -> {} logged entries, {} unreachable \
                     solver entries dropped)",
                    stats.logged_before, stats.logged_after, stats.dropped_solver
                );
            }
            Err(e) => {
                eprintln!("shadowdpd: store compaction failed (continuing on the old log): {e}");
            }
        }
    }
    job_outcome(
        job.id,
        false,
        kind,
        wire_digest(&digest_text),
        verdict,
        &stats,
    )
}

/// Clean shutdown, once every worker has exited: fold in whatever the
/// last jobs left in the memo and compact — the log collapses to one base
/// record and solver entries no surviving job depends on are dropped. If
/// the rewrite fails, fall back to an append so the final delta still
/// lands.
fn close_store(shared: &Shared) {
    let mut store = shared.store();
    store.absorb_dirty(&shared.memo);
    match store.compact() {
        Ok(_) => COMPACTIONS.inc(),
        Err(e) => {
            eprintln!("shadowdpd: shutdown compaction failed: {e}");
            if let Err(e) = store.flush() {
                eprintln!("shadowdpd: final store flush failed: {e}");
            }
        }
    }
    if store.dirty_len() == 0 {
        // Everything is persisted and the queue drained; an empty journal
        // (removed file) marks the shutdown as clean.
        if let Err(e) = shared.state().rewrite_journal() {
            eprintln!("shadowdpd: shutdown journal removal failed: {e}");
        }
    }
}

/// Writes one response line through the `daemon.socket.write` fault site.
fn write_response(writer: &mut UnixStream, resp: &Response) -> std::io::Result<()> {
    let mut line = proto::encode_response(resp);
    line.push('\n');
    shadowdp_fault::write_all("daemon.socket.write", writer, line.as_bytes())
}

/// One connection: request lines in, response lines out, until EOF or
/// `SHUTDOWN`.
fn serve(shared: &Shared, stream: UnixStream) -> std::io::Result<()> {
    let reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    // Workers send the outcome of every job submitted here to `reply`.
    // `owed` holds the ids submitted here and not yet collected, each with
    // its outcome once that has arrived. Both go when the connection
    // closes, and a worker's send to the closed channel drops the outcome.
    let (reply, outcomes) = mpsc::channel();
    let mut owed: HashMap<u64, Option<JobOutcome>> = HashMap::new();
    for line in reader.lines() {
        shadowdp_fault::fail_point("daemon.socket.read")?;
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let parsed = proto::parse_request(&line);
        // One span per request, labeled by verb. RESULT spans include the
        // wait for the job — that *is* the client-visible reply latency on
        // the accept→queue→verify→flush→reply path.
        let mut request_span = shadowdp_obs::span("daemon.request");
        if parsed.is_ok() {
            // A parsed line's first field is its verb.
            request_span.set_label(line.split('\t').next().unwrap_or_default());
        }
        let response = match parsed {
            Err(e) => Response::Err(e.to_string()),
            Ok(Request::Ping) => Response::Pong,
            Ok(Request::Status) => {
                let pipeline_store = shared.store().pipeline_len() as u64;
                let st = shared.state();
                Response::Status(StatusInfo {
                    queued: st.pending.len() as u64,
                    running: st.running.len() as u64,
                    done: st.done,
                    memo_entries: shared.memo.len() as u64,
                    pipeline_store,
                    journaled: st.journaled(),
                })
            }
            Ok(Request::Metrics) => {
                refresh_gauges(shared);
                Response::Metrics(shadowdp_obs::render_prometheus())
            }
            Ok(Request::Submit(spec)) => {
                let mut st = shared.state();
                if st.shutdown {
                    Response::Err("shutting down".into())
                } else if shared
                    .config
                    .queue_limit
                    .is_some_and(|cap| st.pending.len() >= cap)
                {
                    BUSY_REJECTIONS.inc();
                    Response::Busy(BUSY_RETRY_MS)
                } else {
                    // Journal before acknowledging: once `QUEUED` is on
                    // the wire the submission must survive a daemon
                    // crash. A failed append degrades durability, not
                    // availability — the job still runs in this process.
                    if let Err(e) = st.journal_submit(&spec) {
                        eprintln!(
                            "shadowdpd: journal append failed (submission accepted unjournaled): {e}"
                        );
                    }
                    let id = st.next_id;
                    st.next_id += 1;
                    st.pending.push_back(Submission {
                        id,
                        spec,
                        accepted: Instant::now(),
                        reply: Some(reply.clone()),
                    });
                    owed.insert(id, None);
                    shared.queued.notify_one();
                    Response::Queued(id)
                }
            }
            Ok(Request::Result(id)) => match owed.remove(&id) {
                // Outcomes of this connection's other jobs that arrive
                // first are held for their own `RESULT`. The wait is
                // finite: workers drain every pending job before exiting,
                // even after shutdown begins.
                Some(held) => Response::Result(held.unwrap_or_else(|| loop {
                    let outcome = outcomes.recv().expect("this connection holds a sender");
                    if outcome.id == id {
                        break outcome;
                    }
                    owed.insert(outcome.id, Some(outcome));
                })),
                None if id >= shared.state().next_id => {
                    Response::Err(format!("unknown job id {id}"))
                }
                None => Response::Err(format!(
                    "job {id} was submitted by another client or already delivered"
                )),
            },
            Ok(Request::Shutdown) => {
                shared.state().shutdown = true;
                shared.queued.notify_all();
                write_response(&mut writer, &Response::Bye)?;
                // Wake the accept loop so `run` can observe the flag.
                let _ = UnixStream::connect(&shared.config.socket);
                return Ok(());
            }
        };
        write_response(&mut writer, &response)?;
    }
    Ok(())
}
