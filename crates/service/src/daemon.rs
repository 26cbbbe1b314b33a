//! `shadowdpd`: the verification daemon.
//!
//! A std-only [`UnixListener`] server speaking the line protocol of
//! [`crate::proto`]. The architecture is three kinds of threads around two
//! locks:
//!
//! - the **accept loop** (caller's thread inside [`run`]) spawns one
//!   handler thread per connection;
//! - **handler threads** parse requests and touch only the queue state —
//!   `SUBMIT` enqueues and returns immediately, `RESULT` blocks on a
//!   condvar until the job's outcome is published;
//! - the **scheduler thread** drains everything queued at once and runs it
//!   as *one batch* through
//!   [`Pipeline::verify_corpus_parallel_with_memo`] — so jobs submitted
//!   concurrently by any number of clients fan out over the work-stealing
//!   corpus driver against the daemon's long-lived shared [`QueryMemo`],
//!   and a burst of near-identical candidates (the CheckDP loop shape)
//!   pays theory work once.
//!
//! Persistence: on startup the daemon loads the [`VerdictStore`] (an
//! append-only record log) and warms the memo from its solver tier; after
//! every batch it drains the memo's dirty delta and **appends one framed
//! delta record** — O(batch), not O(store), so a long candidate loop pays
//! constant flush cost per batch instead of quadratic total. When the log
//! accumulates enough superseded weight (`--compact-ratio`), and always on
//! clean shutdown, a compaction pass rewrites the log atomically and drops
//! solver-tier entries unreachable from any pipeline-tier job. Jobs whose
//! (source, options) pair is already in the pipeline tier are answered
//! from disk without scheduling at all and report `from = store` over the
//! wire.
//!
//! Results are published per job id; each client receives `RESULT`
//! replies in the order it asks for them, which the bundled client does
//! in submission order.
//!
//! # Fault tolerance
//!
//! The daemon is built to degrade per job, never per process:
//!
//! - **Panic isolation** — each corpus job runs under the pipeline's
//!   `catch_unwind` boundary, so one poisoned job becomes a `crashed`
//!   outcome while the rest of its batch completes and the daemon keeps
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
//!   sent and dropped only after its batch's verdicts are durably
//!   flushed. A daemon killed mid-batch re-verifies the journaled
//!   submissions on restart, so an accepted job is never silently lost.
//!   The journal reuses the store's framing discipline: an 8-byte magic
//!   (`SDPJRNL1`) then per-record `u32` LE payload length + payload (one
//!   encoded `SUBMIT` line) + 16-byte LE fnv128 of the payload; replay
//!   stops at the first torn or corrupt record, keeping the valid
//!   prefix.
//! - **I/O deadlines** — [`DaemonConfig::io_timeout`] puts read/write
//!   timeouts on every connection so a stalled client cannot wedge a
//!   handler thread forever (it also bounds idle connection lifetime).

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use shadowdp::{CorpusJob, JobSpec, Phase, Pipeline, PipelineError, PipelineReport};
use shadowdp_solver::QueryMemo;
use shadowdp_verify::Verdict;

use crate::proto::{self, JobOutcome, OutcomeKind, Request, Response, StatusInfo};
use crate::store::{fnv128, hex128, PipelineEntry, VerdictStore};

/// Default live/dead compaction trigger: compact once the log holds more
/// than twice as many record entries as there are live entries. Low
/// enough that a long-lived candidate loop's log stays within a small
/// constant factor of live state, high enough that compaction (an
/// O(store) rewrite) stays rare next to O(batch) appends.
pub const DEFAULT_COMPACT_RATIO: f64 = 2.0;

/// What `BUSY` tells a rejected submitter to wait before retrying.
/// Batches normally turn around well within this; the client treats it
/// as a floor and backs off further on repeated rejections.
pub const BUSY_RETRY_MS: u64 = 100;

// ---------------------------------------------------------------------------
// Metrics (always-on; exposed over the METRICS verb)
// ---------------------------------------------------------------------------

use shadowdp_obs::{LazyCounter, LazyFloatGauge, LazyGauge, LazyHistogram};

static JOBS_DONE: LazyCounter = LazyCounter::new(
    "shadowdp_jobs_done_total",
    "Job outcomes published since daemon startup (store hits included)",
);
static STORE_HITS_TOTAL: LazyCounter = LazyCounter::new(
    "shadowdp_store_hits_total",
    "Jobs answered from the persistent pipeline tier without scheduling",
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
static BATCHES: LazyCounter = LazyCounter::new(
    "shadowdp_batches_total",
    "Scheduler batches run (store-hit-only batches included)",
);
static QUEUE_DEPTH: LazyGauge = LazyGauge::new(
    "shadowdp_queue_depth",
    "Submissions accepted but not yet drained into a batch",
);
static QUEUE_CAPACITY: LazyGauge = LazyGauge::new(
    "shadowdp_queue_capacity",
    "Submission-queue bound (0 = unbounded)",
);
static JOURNAL_ENTRIES: LazyGauge = LazyGauge::new(
    "shadowdp_journal_entries",
    "Accepted submissions currently covered by the in-flight journal",
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
    "Logged entries (superseded included) over live entries; the \
     --compact-ratio trigger compares against this",
);
static STAMP_OLDEST: LazyGauge = LazyGauge::new(
    "shadowdp_pipeline_stamp_oldest",
    "Oldest last-served-batch stamp across pipeline-tier entries \
     (eviction groundwork; 0 until an entry is served)",
);
static STAMP_NEWEST: LazyGauge = LazyGauge::new(
    "shadowdp_pipeline_stamp_newest",
    "Newest last-served-batch stamp across pipeline-tier entries \
     (eviction groundwork; 0 until an entry is served)",
);
static BATCH_JOBS: LazyHistogram = LazyHistogram::new(
    "shadowdp_batch_jobs",
    "Jobs per scheduler batch (occupancy of each corpus fan-out)",
);
static FLUSH_US: LazyHistogram = LazyHistogram::new(
    "shadowdp_store_flush_us",
    "Store flush latency in microseconds (delta appends and rewrites)",
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
    BATCHES.get();
    QUEUE_DEPTH.get();
    QUEUE_CAPACITY.get();
    JOURNAL_ENTRIES.get();
    MEMO_ENTRIES.get();
    PIPELINE_ENTRIES.get();
    STORE_LOG_BYTES.get();
    LAST_FLUSH_US.get();
    COMPACTION_RATIO.get();
    STAMP_OLDEST.get();
    STAMP_NEWEST.get();
    BATCH_JOBS.get();
    FLUSH_US.get();
    // Pipeline + solver metrics live in their own crates; pull them in
    // too, or a warm daemon serving everything from its store would
    // scrape without the solver counters.
    shadowdp::pipeline::register_metrics();
}

/// Refreshes the store-shaped gauges from a locked store. Called after
/// every batch and on METRICS reads so scrapes see current state even
/// when the daemon is idle.
fn refresh_store_gauges(store: &VerdictStore) {
    PIPELINE_ENTRIES.set(store.pipeline_len() as u64);
    STORE_LOG_BYTES.set(store.log_bytes());
    let live = store.live_entries();
    if live > 0 {
        COMPACTION_RATIO.set(store.logged_entries() as f64 / live as f64);
    }
    let (oldest, newest) = store.pipeline_stamp_range().unwrap_or((0, 0));
    STAMP_OLDEST.set(oldest);
    STAMP_NEWEST.set(newest);
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Unix socket path to listen on. A leftover file from a crashed
    /// daemon is probed first and replaced only if nothing answers;
    /// binding over a *live* daemon's socket is refused.
    pub socket: PathBuf,
    /// Verdict store path; `None` runs fully in memory (still batched and
    /// memoized, just nothing survives the process).
    pub store: Option<PathBuf>,
    /// Worker threads per batch (`None` = all cores), forwarded to
    /// [`Pipeline::verify_corpus_parallel_with_memo`].
    pub threads: Option<usize>,
    /// Live/dead ratio that triggers a store compaction after a batch
    /// flush (see [`VerdictStore::wants_compaction`]);
    /// [`DEFAULT_COMPACT_RATIO`] unless overridden (`--compact-ratio`),
    /// `f64::INFINITY` disables ratio-triggered compaction. Clean
    /// shutdown always compacts.
    pub compact_ratio: f64,
    /// Bound on the submission queue (`--queue-limit`). A `SUBMIT` that
    /// would push `pending` past this answers `BUSY` instead of queueing;
    /// `None` keeps the queue unbounded (the pre-backpressure behavior).
    pub queue_limit: Option<usize>,
    /// Read/write timeout for daemon-side connection sockets
    /// (`--io-timeout-ms`). `None` = no deadline. Note this also bounds
    /// how long an *idle* connection may sit between requests.
    pub io_timeout: Option<Duration>,
    /// Cap on pipeline-tier store entries (`--store-max-pipeline-entries`).
    /// After each batch's puts and before its flush, the least recently
    /// *served* entries past the cap are evicted
    /// ([`VerdictStore::evict_pipeline_lru`]), so a daemon fed an
    /// unbounded stream of distinct programs keeps a bounded store.
    /// `None` = unbounded (the pre-eviction behavior).
    pub max_pipeline_entries: Option<usize>,
}

impl DaemonConfig {
    /// A config with defaults for everything but the socket path: no
    /// store, all cores, [`DEFAULT_COMPACT_RATIO`], unbounded queue, no
    /// I/O deadline. Construct variants with struct-update syntax:
    /// `DaemonConfig { store: Some(p), ..DaemonConfig::new(sock) }`.
    pub fn new(socket: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            socket: socket.into(),
            store: None,
            threads: None,
            compact_ratio: DEFAULT_COMPACT_RATIO,
            queue_limit: None,
            io_timeout: None,
            max_pipeline_entries: None,
        }
    }
}

/// The in-flight submission journal (see the module docs for the file
/// format). `Journal` itself is immutable — all state lives in the file —
/// but appends and resets race each other, so **every call must hold the
/// daemon's state lock** (lock order: state, then journal file I/O).
struct Journal {
    /// `<store>.journal`, or `None` for a storeless (in-memory) daemon,
    /// where every method is a no-op.
    path: Option<PathBuf>,
}

const JOURNAL_MAGIC: &[u8; 8] = b"SDPJRNL1";

impl Journal {
    fn for_store(store: Option<&std::path::Path>) -> Journal {
        Journal {
            path: store.map(|p| crate::sibling_path(p, ".journal")),
        }
    }

    /// One framed record: `u32` LE payload length, payload, fnv128 LE.
    fn frame(line: &str) -> Vec<u8> {
        let payload = line.as_bytes();
        let mut out = Vec::with_capacity(4 + payload.len() + 16);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&fnv128(payload).to_le_bytes());
        out
    }

    /// Reads back journaled submissions, stopping at the first torn or
    /// corrupt record (a crash mid-append leaves exactly such a tail).
    /// A missing or unreadable journal is a quiet empty start.
    fn replay(&self) -> Vec<JobSpec> {
        let Some(path) = &self.path else {
            return Vec::new();
        };
        let Ok(bytes) = std::fs::read(path) else {
            return Vec::new();
        };
        let mut specs = Vec::new();
        if bytes.len() < JOURNAL_MAGIC.len() || &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
            return specs;
        }
        let mut off = JOURNAL_MAGIC.len();
        while let Some(len_bytes) = bytes.get(off..off + 4) {
            let len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
            let Some(payload) = bytes.get(off + 4..off + 4 + len) else {
                break;
            };
            let Some(sum) = bytes.get(off + 4 + len..off + 4 + len + 16) else {
                break;
            };
            if sum != fnv128(payload).to_le_bytes() {
                break;
            }
            match std::str::from_utf8(payload)
                .ok()
                .and_then(|line| proto::parse_request(line).ok())
            {
                Some(Request::Submit(spec)) => specs.push(spec),
                _ => break, // checksummed but not a SUBMIT: foreign file
            }
            off += 4 + len + 16;
        }
        specs
    }

    /// Appends one accepted submission, creating the journal on first
    /// use, and fsyncs so the entry survives a crash the instant after
    /// `QUEUED` is acknowledged.
    fn append(&self, spec: &JobSpec) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let line = proto::encode_request(&Request::Submit(spec.clone()));
        let mut bytes = Vec::new();
        if file.metadata()?.len() == 0 {
            bytes.extend_from_slice(JOURNAL_MAGIC);
        }
        bytes.extend_from_slice(&Self::frame(&line));
        shadowdp_fault::write_all("journal.append", &mut file, &bytes)?;
        file.sync_data()
    }

    /// Rewrites the journal to exactly the still-outstanding submissions
    /// (atomically, via a temp sibling) — called after a batch's verdicts
    /// are durably flushed. An empty outstanding set removes the file.
    fn reset(&self, outstanding: &[(u64, JobSpec)]) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        if outstanding.is_empty() {
            shadowdp_fault::fail_point("journal.reset")?;
            return match std::fs::remove_file(path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
                _ => Ok(()),
            };
        }
        let mut bytes = JOURNAL_MAGIC.to_vec();
        for (_, spec) in outstanding {
            let line = proto::encode_request(&Request::Submit(spec.clone()));
            bytes.extend_from_slice(&Self::frame(&line));
        }
        let tmp = crate::sibling_path(path, ".tmp");
        {
            let mut file = std::fs::File::create(&tmp)?;
            shadowdp_fault::write_all("journal.reset", &mut file, &bytes)?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }
}

/// Queue state behind the daemon's mutex.
#[derive(Default)]
struct State {
    pending: Vec<(u64, JobSpec)>,
    done: HashMap<u64, JobOutcome>,
    /// Ids whose outcome was handed to a RESULT request — or dropped
    /// because the submitter disconnected first. Outcomes leave `done` on
    /// delivery and disconnect-reaping, so a long-lived daemon's memory is
    /// bounded by live connections' work, not total jobs served; this id
    /// set (8 bytes per job, the only per-job residue) keeps a re-asked id
    /// an error instead of an infinite wait.
    delivered: HashSet<u64>,
    /// Which connection submitted each undelivered job. Only the
    /// submitting connection may consume the outcome — otherwise any
    /// client probing ids could steal results and leave the rightful
    /// submitter with a permanent error. Entries are removed on delivery.
    owners: HashMap<u64, u64>,
    next_id: u64,
    running: u64,
    store_hits: u64,
    /// Cumulative solver trail operations across every fresh job this
    /// daemon has verified (store hits add nothing — no search ran).
    /// Reported by `STATUS`.
    trail_ops: u64,
    /// Cumulative incremental-saturation reuses across fresh jobs,
    /// reported by `STATUS`. Together with `trail_ops` this makes the
    /// incremental solver core's work visible without a METRICS scrape.
    saturation_reuses: u64,
    /// Submissions currently covered by the on-disk journal (reported by
    /// `STATUS`). Incremented per successful append, reset to the
    /// still-outstanding count after each batch's journal rewrite.
    journaled: u64,
    /// Wall-clock microseconds of the most recent store flush (0 until
    /// the first), reported by `STATUS`.
    last_flush_micros: u64,
    /// Monotonic batch counter. Stamped onto pipeline-tier entries at
    /// put/serve time (eviction groundwork; see
    /// [`VerdictStore::stamp_served`]).
    batch_seq: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    cond: Condvar,
    store: Mutex<VerdictStore>,
    memo: Arc<QueryMemo>,
    journal: Journal,
    config: DaemonConfig,
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

/// Runs the daemon until a client sends `SHUTDOWN`. Blocks the calling
/// thread (spawn it yourself for an in-process daemon — the integration
/// tests and `examples/service_demo.rs` do).
///
/// # Errors
///
/// Returns an error if the socket cannot be bound. Per-connection and
/// store-flush errors are logged to stderr and survived.
pub fn run(config: DaemonConfig) -> std::io::Result<()> {
    // `compact_ratio` semantics only make sense at >= 1 (logged entries
    // can never be fewer than live ones): NaN would make the trigger
    // comparison silently false forever, and a sub-1 ratio would fire an
    // O(store) compaction after every batch. Reject both up front — the
    // CLI validates its flag, but `DaemonConfig` is a public API.
    if config.compact_ratio.is_nan() || config.compact_ratio < 1.0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "compact-ratio must be a number >= 1 (got {}); use `inf` to disable \
                 ratio-triggered compaction",
                config.compact_ratio
            ),
        ));
    }
    let store = match &config.store {
        Some(path) => VerdictStore::load(path),
        None => VerdictStore::in_memory(),
    };
    if let Some(note) = store.load_note() {
        eprintln!("shadowdpd: {note}");
    }
    let memo = Arc::new(QueryMemo::default());
    store.warm_memo(&memo);

    // Submissions journaled by a previous run that crashed before their
    // verdicts were flushed: requeue them ownerless. Nobody collects the
    // outcomes (the submitting connections are gone), but the verdicts
    // land in the store, so resubmitting clients get store hits.
    let journal = Journal::for_store(config.store.as_deref());
    let mut initial = State::default();
    for spec in journal.replay() {
        let id = initial.next_id;
        initial.next_id += 1;
        initial.pending.push((id, spec));
    }
    if !initial.pending.is_empty() {
        eprintln!(
            "shadowdpd: journal: re-verifying {} in-flight submission(s) from a previous run",
            initial.pending.len()
        );
        initial.journaled = initial.pending.len() as u64;
        JOURNAL_REPLAYED.add(initial.pending.len() as u64);
    }
    // Spans stay disarmed unless SHADOWDP_TRACE asks for them; metrics
    // are always on.
    shadowdp_obs::arm_from_env();
    register_metrics();
    QUEUE_CAPACITY.set(config.queue_limit.map_or(0, |n| n as u64));
    QUEUE_DEPTH.set(initial.pending.len() as u64);
    JOURNAL_ENTRIES.set(initial.journaled);
    refresh_store_gauges(&store);

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

    let shared = Arc::new(Shared {
        state: Mutex::new(initial),
        cond: Condvar::new(),
        store: Mutex::new(store),
        memo,
        journal,
        config,
    });

    // The scheduler and connection threads run under the starter's fault
    // plan, if any (an in-process daemon under test inherits its test's).
    let faults = shadowdp_fault::PlanHandle::current();
    let scheduler = {
        let shared = shared.clone();
        let faults = faults.clone();
        thread::spawn(move || {
            let _faults = faults.bind();
            schedule(&shared);
        })
    };

    let mut next_conn: u64 = 0;
    for stream in listener.incoming() {
        if shared.state.lock().unwrap().shutdown {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn = next_conn;
        next_conn += 1;
        let shared = shared.clone();
        let faults = faults.clone();
        thread::spawn(move || {
            let _faults = faults.bind();
            if let Err(e) = handle(&shared, conn, stream) {
                eprintln!("shadowdpd: connection error: {e}");
            }
        });
    }

    scheduler.join().expect("scheduler does not panic");
    let _ = std::fs::remove_file(&shared.config.socket);
    Ok(())
}

/// The scheduler thread: batch, verify, persist, publish — until
/// shutdown.
fn schedule(shared: &Shared) {
    let pipeline = Pipeline::new();
    loop {
        let (batch, seq): (Vec<(u64, JobSpec)>, u64) = {
            let mut st = shared.state.lock().unwrap();
            while st.pending.is_empty() && !st.shutdown {
                st = shared.cond.wait(st).unwrap();
            }
            if st.pending.is_empty() {
                break; // shutdown with nothing queued
            }
            let batch = std::mem::take(&mut st.pending);
            st.running = batch.len() as u64;
            st.batch_seq += 1;
            QUEUE_DEPTH.set(0);
            (batch, st.batch_seq)
        };
        let mut batch_span = shadowdp_obs::span("daemon.batch");
        let batch_len = batch.len();
        BATCHES.inc();
        BATCH_JOBS.observe(batch_len as u64);

        let mut outcomes: Vec<JobOutcome> = Vec::new();
        let mut fresh: Vec<(u64, JobSpec, CorpusJob)> = Vec::new();
        let mut hits = 0u64;
        {
            let mut store = shared.store.lock().unwrap();
            for (id, spec) in batch {
                if let Some(entry) = store.pipeline_get(&spec) {
                    hits += 1;
                    outcomes.push(JobOutcome {
                        id,
                        ok: entry.ok,
                        from_store: true,
                        // Exhausted and crashed runs are never persisted,
                        // so a store entry is exactly completed-or-error.
                        kind: if entry.ok {
                            OutcomeKind::Completed
                        } else {
                            OutcomeKind::Error
                        },
                        digest: wire_digest(&entry.digest),
                        checks: 0,
                        cache_hits: 0,
                        theory_calls: 0,
                        assumption_queries: 0,
                        assumption_hits: 0,
                        trail_ops: 0,
                        max_trail_depth: 0,
                        saturation_reuses: 0,
                        resaturations: 0,
                        verdict: entry.verdict.clone(),
                    });
                    // Serve-time stamp: this batch is the entry's last use.
                    store.stamp_served(&spec, seq);
                } else {
                    match spec.to_job() {
                        Ok(job) => fresh.push((id, spec, job)),
                        Err(e) => outcomes.push(JobOutcome {
                            id,
                            ok: false,
                            from_store: false,
                            kind: OutcomeKind::Error,
                            digest: wire_digest(&format!("{e}")),
                            checks: 0,
                            cache_hits: 0,
                            theory_calls: 0,
                            assumption_queries: 0,
                            assumption_hits: 0,
                            trail_ops: 0,
                            max_trail_depth: 0,
                            saturation_reuses: 0,
                            resaturations: 0,
                            verdict: format!("error: {e}"),
                        }),
                    }
                }
            }
            refresh_store_gauges(&store);
        }

        // Whether this batch's verdicts are durably persisted by the time
        // we publish — the precondition for dropping the batch's journal
        // entries. An all-store-hit batch adds nothing to persist.
        let mut persisted = true;
        let mut flush_micros: Option<u64> = None;
        if !fresh.is_empty() {
            let jobs: Vec<CorpusJob> = fresh.iter().map(|(_, _, job)| job.clone()).collect();
            let outcome = pipeline.verify_corpus_parallel_with_memo(
                &jobs,
                shared.config.threads,
                &shared.memo,
            );
            let mut store = shared.store.lock().unwrap();
            for (slot, (id, spec, _)) in fresh.iter().enumerate() {
                let digest_text = outcome.report_digest(slot);
                let verdict = render_verdict(&outcome.reports[slot]);
                let kind = outcome_kind(&outcome.reports[slot]);
                let stats = outcome.reports[slot]
                    .as_ref()
                    .map(|r| r.solver_stats)
                    .unwrap_or_default();
                // Exhausted and crashed runs are properties of this
                // attempt (budget size, poisoned worker), not of the
                // program: persisting them would answer future
                // re-submissions — possibly with a *larger* budget — from
                // a partial verdict. They stay out of the store entirely.
                if matches!(kind, OutcomeKind::Completed | OutcomeKind::Error) {
                    // The job's solver-tier dependency set: compaction
                    // keeps a persisted solver verdict alive iff some
                    // pipeline entry lists it. A job that failed before
                    // verification has no report to list dependencies
                    // from — its (empty) set is exact: it needs no solver
                    // entries to be re-served.
                    let deps = outcome.reports[slot]
                        .as_ref()
                        .map(|r| r.solver_fingerprints.clone())
                        .unwrap_or_default();
                    // A dependency served purely by memo hits was never
                    // in this batch's dirty delta; if a past compaction
                    // dropped it as an orphan, re-persist it now so no
                    // pipeline entry's deps ever dangle.
                    store.ensure_deps(&shared.memo, &deps);
                    store.pipeline_put(
                        spec,
                        PipelineEntry {
                            ok: outcome.reports[slot].is_ok(),
                            verdict: verdict.clone(),
                            digest: digest_text.clone(),
                            deps: Some(deps),
                        },
                    );
                    // Put-time stamp (eviction groundwork).
                    store.stamp_served(spec, seq);
                }
                outcomes.push(JobOutcome {
                    id: *id,
                    ok: outcome.reports[slot].is_ok(),
                    from_store: false,
                    kind,
                    digest: wire_digest(&digest_text),
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
                });
            }
            // O(batch), not O(store): drain only what this batch solved
            // and append it as one delta record. A failed flush keeps the
            // delta dirty, so the next successful flush (or the shutdown
            // compaction) persists it.
            store.absorb_dirty(&shared.memo);
            // Enforce the pipeline-tier cap now, after this batch's puts
            // and before the flush: an eviction forces a full rewrite,
            // and doing it here folds that rewrite into the flush I/O
            // below instead of paying for it separately.
            if let Some(max) = shared.config.max_pipeline_entries {
                let evicted = store.evict_pipeline_lru(max);
                if evicted > 0 {
                    PIPELINE_EVICTIONS.add(evicted as u64);
                }
            }
            let flush_start = std::time::Instant::now();
            let flushed = {
                let _span = shadowdp_obs::span("daemon.flush");
                store.flush()
            };
            let us = flush_start.elapsed().as_micros() as u64;
            flush_micros = Some(us);
            FLUSH_US.observe(us);
            LAST_FLUSH_US.set(us);
            if let Err(e) = flushed {
                persisted = false;
                eprintln!("shadowdpd: store flush failed (delta retained, will retry): {e}");
            } else if store.wants_compaction(shared.config.compact_ratio) {
                match store.compact() {
                    Ok(stats) => {
                        COMPACTIONS.inc();
                        eprintln!(
                            "shadowdpd: compacted store ({} -> {} logged entries, {} \
                             unreachable solver entries dropped)",
                            stats.logged_before, stats.logged_after, stats.dropped_solver
                        );
                    }
                    Err(e) => {
                        eprintln!(
                            "shadowdpd: store compaction failed (continuing on the old log): {e}"
                        );
                    }
                }
            }
            refresh_store_gauges(&store);
        }

        STORE_HITS_TOTAL.add(hits);
        JOBS_DONE.add(outcomes.len() as u64);
        for outcome in &outcomes {
            match outcome.kind {
                OutcomeKind::Crashed => CRASHES.inc(),
                OutcomeKind::Exhausted => BUDGET_EXHAUSTED.inc(),
                OutcomeKind::Completed | OutcomeKind::Error => {}
            }
        }
        MEMO_ENTRIES.set(shared.memo.len() as u64);
        if shadowdp_obs::armed() {
            batch_span.set_label(&format!("seq={seq} jobs={batch_len} store_hits={hits}"));
        }
        drop(batch_span);

        let mut st = shared.state.lock().unwrap();
        st.store_hits += hits;
        for outcome in &outcomes {
            st.trail_ops += outcome.trail_ops;
            st.saturation_reuses += outcome.saturation_reuses;
        }
        if let Some(us) = flush_micros {
            st.last_flush_micros = us;
        }
        for outcome in outcomes {
            if st.owners.contains_key(&outcome.id) {
                st.done.insert(outcome.id, outcome);
            } else {
                // The submitting connection disconnected while this job
                // was in flight; nobody can ever collect it, so publishing
                // would leak. The verdict is persisted either way.
                st.delivered.insert(outcome.id);
            }
        }
        // The batch is done and (if anything was fresh) durably flushed:
        // shrink the journal to what's still outstanding — submissions
        // accepted while this batch ran. On a failed flush the journal
        // keeps covering the batch, so a crash before the retry succeeds
        // still re-verifies it.
        if persisted {
            match shared.journal.reset(&st.pending) {
                Ok(()) => st.journaled = st.pending.len() as u64,
                Err(e) => eprintln!("shadowdpd: journal reset failed (will retry): {e}"),
            }
        }
        st.running = 0;
        QUEUE_DEPTH.set(st.pending.len() as u64);
        JOURNAL_ENTRIES.set(st.journaled);
        shared.cond.notify_all();
    }

    // Clean shutdown: fold in whatever the last batch left in the memo and
    // compact — the log collapses to one base record and solver entries no
    // surviving job depends on are dropped. If the rewrite fails, fall
    // back to an append so the final delta still lands.
    let mut store = shared.store.lock().unwrap();
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
    refresh_store_gauges(&store);
    let clean = store.dirty_len() == 0;
    drop(store);
    if clean {
        // Everything is persisted and the queue drained; an empty journal
        // (removed file) marks the shutdown as clean.
        let mut st = shared.state.lock().unwrap();
        match shared.journal.reset(&st.pending) {
            Ok(()) => st.journaled = st.pending.len() as u64,
            Err(e) => eprintln!("shadowdpd: shutdown journal reset failed: {e}"),
        }
    }
}

/// One connection: request lines in, response lines out, until EOF or
/// `SHUTDOWN`, then reap whatever the client never collected. `conn`
/// identifies this connection for job ownership.
fn handle(shared: &Shared, conn: u64, stream: UnixStream) -> std::io::Result<()> {
    let result = serve(shared, conn, stream);
    // A client that disconnected without collecting its outcomes will
    // never RESULT them; dropping them here (and letting the scheduler
    // drop in-flight ones at publication, see above) keeps daemon memory
    // bounded by live connections' work, not total jobs ever served.
    let mut st = shared.state.lock().unwrap();
    let orphaned: Vec<u64> = st
        .owners
        .iter()
        .filter(|(_, owner)| **owner == conn)
        .map(|(id, _)| *id)
        .collect();
    for id in orphaned {
        st.owners.remove(&id);
        if st.done.remove(&id).is_some() {
            st.delivered.insert(id);
        }
    }
    result
}

/// Writes one response line through the `daemon.socket.write` fault site.
fn write_response(writer: &mut UnixStream, resp: &Response) -> std::io::Result<()> {
    let mut line = proto::encode_response(resp);
    line.push('\n');
    shadowdp_fault::write_all("daemon.socket.write", writer, line.as_bytes())
}

/// The request/response loop behind [`handle`].
fn serve(shared: &Shared, conn: u64, stream: UnixStream) -> std::io::Result<()> {
    // Per-connection deadlines: a peer that stops reading or writing
    // cannot wedge this handler thread past the configured timeout
    // (`None` keeps the pre-hardening blocking behavior).
    stream.set_read_timeout(shared.config.io_timeout)?;
    stream.set_write_timeout(shared.config.io_timeout)?;
    let reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    for line in reader.lines() {
        shadowdp_fault::fail_point("daemon.socket.read")?;
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let parsed = proto::parse_request(&line);
        // One span per request, labeled by verb. RESULT spans include the
        // wait for the job's batch — that *is* the client-visible reply
        // latency on the accept→queue→batch→flush→reply path.
        let mut request_span = shadowdp_obs::span("daemon.request");
        if let Ok(req) = &parsed {
            let verb = match req {
                Request::Ping => "PING",
                Request::Status => "STATUS",
                Request::Metrics => "METRICS",
                Request::Lint(_) => "LINT",
                Request::Submit(_) => "SUBMIT",
                Request::Result(_) => "RESULT",
                Request::Shutdown => "SHUTDOWN",
            };
            request_span.set_label(verb);
        }
        let response = match parsed {
            Err(e) => Response::Err(e.to_string()),
            Ok(Request::Ping) => Response::Pong,
            Ok(Request::Status) => {
                let (
                    queued,
                    running,
                    done,
                    store_hits,
                    journaled,
                    last_flush_micros,
                    trail_ops,
                    saturation_reuses,
                ) = {
                    let st = shared.state.lock().unwrap();
                    (
                        st.pending.len() as u64,
                        st.running,
                        st.done.len() as u64 + st.delivered.len() as u64,
                        st.store_hits,
                        st.journaled,
                        st.last_flush_micros,
                        st.trail_ops,
                        st.saturation_reuses,
                    )
                };
                let (pipeline_store, store_bytes) = {
                    let store = shared.store.lock().unwrap();
                    (store.pipeline_len() as u64, store.log_bytes())
                };
                Response::Status(StatusInfo {
                    queued,
                    running,
                    done,
                    memo_entries: shared.memo.len() as u64,
                    pipeline_store,
                    store_hits,
                    queue_capacity: shared.config.queue_limit.map_or(0, |n| n as u64),
                    journaled,
                    store_bytes,
                    last_flush_micros,
                    trail_ops,
                    saturation_reuses,
                })
            }
            Ok(Request::Metrics) => {
                // Refresh point-in-time gauges so an idle daemon's scrape
                // is current, then render the whole registry.
                MEMO_ENTRIES.set(shared.memo.len() as u64);
                {
                    let st = shared.state.lock().unwrap();
                    QUEUE_DEPTH.set(st.pending.len() as u64);
                    JOURNAL_ENTRIES.set(st.journaled);
                }
                refresh_store_gauges(&shared.store.lock().unwrap());
                Response::Metrics(shadowdp_obs::render_prometheus())
            }
            Ok(Request::Lint(source)) => {
                // Linting is synchronous and cheap (milliseconds for the
                // whole corpus): it runs on the connection thread, never
                // touching the scheduler, the queue, or the store.
                match shadowdp::lint_source(&source) {
                    Ok(diags) => Response::Lint(shadowdp::render_json_lines(&diags)),
                    Err(e) => Response::Err(e.to_string()),
                }
            }
            Ok(Request::Submit(spec)) => {
                let mut st = shared.state.lock().unwrap();
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
                    match shared.journal.append(&spec) {
                        Ok(()) => st.journaled += 1,
                        Err(e) => eprintln!(
                            "shadowdpd: journal append failed (submission accepted unjournaled): {e}"
                        ),
                    }
                    let id = st.next_id;
                    st.next_id += 1;
                    st.pending.push((id, spec));
                    st.owners.insert(id, conn);
                    QUEUE_DEPTH.set(st.pending.len() as u64);
                    JOURNAL_ENTRIES.set(st.journaled);
                    shared.cond.notify_all();
                    Response::Queued(id)
                }
            }
            Ok(Request::Result(id)) => {
                let mut st = shared.state.lock().unwrap();
                loop {
                    if id >= st.next_id {
                        break Response::Err(format!("unknown job id {id}"));
                    }
                    if st.delivered.contains(&id) {
                        break Response::Err(format!("job {id} already delivered"));
                    }
                    // Only the submitting connection may consume an
                    // outcome; anyone else probing the id would otherwise
                    // steal it and leave the submitter with an error.
                    if st.owners.get(&id) != Some(&conn) {
                        break Response::Err(format!("job {id} was submitted by another client"));
                    }
                    if let Some(outcome) = st.done.remove(&id) {
                        st.delivered.insert(id);
                        st.owners.remove(&id);
                        break Response::Result(outcome);
                    }
                    // Note: no shutdown early-out here. Every issued id is
                    // eventually published — the scheduler drains pending
                    // batches before exiting even after the shutdown flag
                    // is set — so waiting is always finite and correct.
                    st = shared.cond.wait(st).unwrap();
                }
            }
            Ok(Request::Shutdown) => {
                {
                    let mut st = shared.state.lock().unwrap();
                    st.shutdown = true;
                }
                shared.cond.notify_all();
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
