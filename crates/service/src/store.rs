//! The persistent verdict store: a disk-backed cache with two tiers,
//! persisted as an **append-only record log with periodic compaction**.
//!
//! - **Solver tier** — `Fingerprint → CheckResult`, the contents of a
//!   [`QueryMemo`] exported with [`QueryMemo::snapshot`] (or, incrementally,
//!   [`QueryMemo::drain_dirty`]) and re-imported with [`QueryMemo::absorb`].
//!   Fingerprints are arena-independent structural hashes (see
//!   `shadowdp_solver::term`), so an entry written by one daemon process
//!   answers the structurally identical validity query in any later
//!   process — this tier is what makes a daemon restart *warm*.
//! - **Pipeline tier** — `fnv128(JobSpec::canonical()) → (verdict, digest,
//!   deps)`: whole-verification results keyed by source text plus options.
//!   A resubmitted program is answered without running the pipeline at all,
//!   the stored per-job digest lets the caller check byte-identical output
//!   across restarts, and `deps` (the job's solver-tier fingerprint set)
//!   is what lets compaction prove which solver verdicts are still
//!   reachable.
//!
//! # On-disk format (v2)
//!
//! A hand-rolled little-endian binary log (the format is simple enough
//! that a schema language would cost more than it buys):
//!
//! ```text
//! magic   b"SDPVERD2"
//! record* u32  payload length
//!         payload:
//!           u8  kind (0 = base, 1 = delta)
//!           u64 solver entry count
//!               per entry: u128 fingerprint, u8 tag (0 = Unsat, 1 = Sat);
//!               Sat carries a Model: u8 possibly_spurious,
//!                 u32 reals count, per real: u32 name len, name bytes,
//!                                            i128 numer, i128 denom,
//!                 u32 bools count, per bool: u32 name len, name bytes, u8 value
//!           u64 pipeline entry count
//!               per entry: u128 key, u8 ok, u32 verdict len, verdict bytes,
//!                          u32 digest len, digest bytes,
//!                          u8 deps tag (0 = unknown, 1 = known);
//!                          known ⇒ u64 dep count, count × u128 fingerprint
//!         u128 FNV-1a-128 checksum of the payload
//! ```
//!
//! Replay starts from empty state; a **base** record resets it (compaction
//! and first-flush write exactly one) and a **delta** record merges on top
//! (each incremental flush appends one). Every record carries its own
//! checksum, so a torn tail — a crash mid-append — **truncates the log to
//! the last valid record** instead of cold-starting the whole store; only
//! a damaged or unknown header falls back to a cold (empty) cache. The
//! store never panics and never half-loads a record.
//!
//! Appends first truncate the file back to the last known-valid length
//! (dropping any torn tail a crashed sibling left), then write + fsync.
//! **Compaction** ([`VerdictStore::compact`]) rewrites the whole log as
//! one base record — atomically: sibling temp file, fsync, `rename` —
//! dropping both superseded log records and solver-tier entries
//! unreachable from any pipeline-tier job's dependency set.

use std::collections::{HashMap, HashSet};
use std::io::{self, Seek};
use std::path::{Path, PathBuf};

use shadowdp::JobSpec;
use shadowdp_num::Rat;
use shadowdp_solver::{CheckResult, Fingerprint, Model, QueryMemo};

/// The v2 file magic: format name + version. Bump the trailing digit on
/// any layout change — old daemons then treat new files as corrupt (cold
/// start) instead of misreading them.
const MAGIC_V2: &[u8; 8] = b"SDPVERD2";

/// Record kinds. A base record resets replay state; a delta merges.
const KIND_BASE: u8 = 0;
const KIND_DELTA: u8 = 1;

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013B;

/// FNV-1a over a byte string, folded to 128 bits. Used both as the
/// per-record checksum and as the pipeline-tier cache key (hashing
/// [`JobSpec::canonical`], which is injective on specs, so key collisions
/// are 128-bit-hash unlikely rather than structural).
pub fn fnv128(bytes: &[u8]) -> u128 {
    let mut h = FNV128_OFFSET;
    for b in bytes {
        h = (h ^ (*b as u128)).wrapping_mul(FNV128_PRIME);
    }
    h
}

/// Renders a 128-bit hash as 32 lowercase hex chars (the wire form of
/// digests and keys).
pub fn hex128(v: u128) -> String {
    format!("{v:032x}")
}

/// One pipeline-tier record: the daemon's answer for a (source, options)
/// pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelineEntry {
    /// Whether verification produced a verdict (`false` = the job failed
    /// before verification, e.g. a parse or type error). Persisted
    /// explicitly so store-served jobs report the same flag a fresh run
    /// would, independent of how verdicts happen to be rendered.
    pub ok: bool,
    /// Rendered verdict (`proved`, `refuted: …`, `unknown: …`,
    /// `error: …`).
    pub verdict: String,
    /// The full per-job [`shadowdp::CorpusOutcome::report_digest`] text —
    /// stored verbatim so a warm restart can reproduce the digest byte for
    /// byte rather than merely hash-equal.
    pub digest: String,
    /// The solver-tier fingerprints this job's verification touched
    /// ([`shadowdp::PipelineReport::solver_fingerprints`]); compaction
    /// keeps a solver entry alive iff some pipeline entry lists it.
    /// `None` = unknown provenance (deps tag 0 on disk) — conservatively
    /// pins *every* solver entry.
    pub deps: Option<Vec<Fingerprint>>,
}

/// What a [`VerdictStore::compact`] pass accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Log record entries before compaction (live + superseded).
    pub logged_before: u64,
    /// Entries in the rewritten base record (= live entries after).
    pub logged_after: u64,
    /// Solver-tier entries dropped as unreachable from any pipeline job.
    pub dropped_solver: usize,
}

/// The disk-backed two-tier verdict cache. See the module docs for the
/// format and durability contract.
#[derive(Debug)]
pub struct VerdictStore {
    path: Option<PathBuf>,
    solver: HashMap<Fingerprint, CheckResult>,
    pipeline: HashMap<u128, PipelineEntry>,
    /// Solver keys added (or re-solved) since the last successful flush;
    /// their current values live in `solver`.
    dirty_solver: Vec<Fingerprint>,
    /// Pipeline keys added or overwritten since the last successful flush.
    dirty_pipeline: Vec<u128>,
    /// Byte length of the valid log prefix on disk. Appends truncate back
    /// to this first, so a torn tail from a crashed append can never
    /// corrupt the middle of the log.
    log_valid_len: u64,
    /// Entries (solver + pipeline) across every record currently in the
    /// log, superseded ones included — the denominator of the live/dead
    /// compaction ratio.
    logged_entries: u64,
    /// Last-served-batch stamps for pipeline-tier entries, keyed like
    /// `pipeline`. Eviction groundwork: in-memory only (a restart resets
    /// them — eviction should act on traffic the current process
    /// observed), surfaced as oldest/newest gauges over `METRICS`.
    batch_stamps: HashMap<u128, u64>,
    /// The next flush must rewrite the whole log (missing file, damaged or
    /// unknown header, or an append whose partial write could not be
    /// rolled back).
    needs_rewrite: bool,
    /// Why the last load fell back to cold or dropped a tail, if it did
    /// (missing file is not noted — a first run is expected to be cold).
    load_note: Option<String>,
}

impl VerdictStore {
    fn empty(path: Option<PathBuf>) -> VerdictStore {
        VerdictStore {
            path,
            solver: HashMap::new(),
            pipeline: HashMap::new(),
            dirty_solver: Vec::new(),
            dirty_pipeline: Vec::new(),
            batch_stamps: HashMap::new(),
            log_valid_len: 0,
            logged_entries: 0,
            needs_rewrite: true,
            load_note: None,
        }
    }

    /// An empty store with no backing file ([`VerdictStore::flush`] only
    /// resets the dirty tracking). Used by ephemeral daemons and unit
    /// tests.
    pub fn in_memory() -> VerdictStore {
        VerdictStore::empty(None)
    }

    /// Opens the store at `path`, replaying any previous log. A missing
    /// file is a normal cold start; a damaged or unknown header is a cold
    /// start and a torn tail is truncated to the last valid record — both with
    /// [`VerdictStore::load_note`] explaining what happened. This
    /// constructor never fails and never panics on file contents.
    pub fn load(path: impl Into<PathBuf>) -> VerdictStore {
        let path = path.into();
        let mut store = VerdictStore::empty(Some(path.clone()));
        let Ok(bytes) = std::fs::read(&path) else {
            return store; // missing (or unreadable): cold start
        };
        match replay_v2(&bytes) {
            Err(e) => {
                store.load_note = Some(format!(
                    "store {} unusable ({e}); starting cold",
                    path.display()
                ));
            }
            Ok(replayed) => {
                store.solver = replayed.solver;
                store.pipeline = replayed.pipeline;
                store.log_valid_len = replayed.valid_len;
                store.logged_entries = replayed.logged_entries;
                store.needs_rewrite = false;
                if replayed.valid_len < bytes.len() as u64 {
                    store.load_note = Some(format!(
                        "store {}: dropped {} trailing bytes after the last valid \
                         record ({} records replayed)",
                        path.display(),
                        bytes.len() as u64 - replayed.valid_len,
                        replayed.records,
                    ));
                }
            }
        }
        store
    }

    /// Why the last [`VerdictStore::load`] fell back to a cold cache or
    /// dropped a torn tail, if it did.
    pub fn load_note(&self) -> Option<&str> {
        self.load_note.as_deref()
    }

    /// Number of solver-tier entries.
    pub fn solver_len(&self) -> usize {
        self.solver.len()
    }

    /// Number of pipeline-tier entries.
    pub fn pipeline_len(&self) -> usize {
        self.pipeline.len()
    }

    /// Live entries across both tiers (the numerator of the compaction
    /// ratio).
    pub fn live_entries(&self) -> u64 {
        (self.solver.len() + self.pipeline.len()) as u64
    }

    /// Entries across every record in the log, superseded ones included.
    /// Equal to [`VerdictStore::live_entries`] right after a compaction;
    /// grows past it as deltas append.
    pub fn logged_entries(&self) -> u64 {
        self.logged_entries
    }

    /// Byte length of the valid log prefix on disk (0 for in-memory or
    /// not-yet-flushed stores).
    pub fn log_bytes(&self) -> u64 {
        self.log_valid_len
    }

    /// Entries waiting for the next flush (both tiers, duplicates
    /// uncollapsed).
    pub fn dirty_len(&self) -> usize {
        self.dirty_solver.len() + self.dirty_pipeline.len()
    }

    /// Whether the log carries enough superseded weight to be worth
    /// compacting: logged entries exceed `ratio` × live entries. `ratio`
    /// is clamped below at 1.0 (a log can never be smaller than live
    /// state); `f64::INFINITY` disables ratio-triggered compaction.
    pub fn wants_compaction(&self, ratio: f64) -> bool {
        if self.path.is_none() {
            return false;
        }
        let live = self.live_entries().max(1) as f64;
        self.logged_entries as f64 > ratio.max(1.0) * live
    }

    /// Imports the solver tier into a live memo ([`QueryMemo::absorb`];
    /// live entries win on key collisions).
    pub fn warm_memo(&self, memo: &QueryMemo) {
        memo.absorb(self.solver.iter().map(|(k, v)| (*k, v.clone())));
    }

    /// Merges a memo's **full** snapshot into the solver tier, marking
    /// anything new or changed dirty. O(memo) — the one-shot export path
    /// (benches, tests, tools). A long-lived daemon uses
    /// [`VerdictStore::absorb_dirty`] instead, which is O(delta).
    pub fn update_from_memo(&mut self, memo: &QueryMemo) {
        for (key, value) in memo.snapshot() {
            self.solver_put(key, value);
        }
    }

    /// Drains a memo's dirty delta ([`QueryMemo::drain_dirty`]) into the
    /// solver tier. O(batch): only entries solved since the last drain
    /// move. Returns how many entries were absorbed.
    pub fn absorb_dirty(&mut self, memo: &QueryMemo) -> usize {
        let delta = memo.drain_dirty();
        let n = delta.len();
        for (key, value) in delta {
            self.solver_put(key, value);
        }
        n
    }

    /// Records one solver-tier verdict directly, marking it dirty if it is
    /// new or changed. (Building block of the memo import paths; public
    /// for benches and tests that construct stores without running a
    /// solver.)
    pub fn solver_put(&mut self, key: Fingerprint, value: CheckResult) {
        match self.solver.get(&key) {
            Some(existing) if *existing == value => {}
            _ => {
                self.solver.insert(key, value);
                self.dirty_solver.push(key);
            }
        }
    }

    /// The pipeline-tier cache key for a job spec.
    pub fn job_key(spec: &JobSpec) -> u128 {
        fnv128(spec.canonical().as_bytes())
    }

    /// Looks up a previously stored whole-verification answer.
    pub fn pipeline_get(&self, spec: &JobSpec) -> Option<&PipelineEntry> {
        self.pipeline.get(&Self::job_key(spec))
    }

    /// Records a whole-verification answer, marking it dirty for the next
    /// flush.
    pub fn pipeline_put(&mut self, spec: &JobSpec, entry: PipelineEntry) {
        let key = Self::job_key(spec);
        self.pipeline.insert(key, entry);
        self.dirty_pipeline.push(key);
    }

    /// Stamps a pipeline-tier entry with the batch sequence number that
    /// last wrote or served it (no-op for an absent entry). The daemon
    /// calls this at `pipeline_put` time and whenever the store answers
    /// a resubmission — so the stamp is a last-use mark, the groundwork
    /// a future LRU-style pipeline-tier eviction policy needs.
    pub fn stamp_served(&mut self, spec: &JobSpec, batch_seq: u64) {
        let key = Self::job_key(spec);
        if self.pipeline.contains_key(&key) {
            self.batch_stamps.insert(key, batch_seq);
        }
    }

    /// The `(oldest, newest)` last-served-batch stamps across the
    /// pipeline tier, or `None` before any entry is stamped. The spread
    /// between the two is how stale the coldest entry is, in batches.
    pub fn pipeline_stamp_range(&self) -> Option<(u64, u64)> {
        self.batch_stamps.values().fold(None, |range, &seq| {
            Some(match range {
                None => (seq, seq),
                Some((lo, hi)) => (lo.min(seq), hi.max(seq)),
            })
        })
    }

    /// Evicts least-recently-used pipeline-tier entries until at most
    /// `max` remain, returning how many were dropped. Recency is the
    /// in-memory last-served batch stamp ([`VerdictStore::stamp_served`]);
    /// entries never served by this process count as stamp 0, i.e.
    /// coldest, and ties break by key so eviction is deterministic. The
    /// log format has no tombstones, so any eviction schedules a full
    /// rewrite — call right before a flush and the rewrite rides the same
    /// I/O pass. Evicted entries' solver-tier dependencies become
    /// unreachable and are pruned by the next compaction.
    pub fn evict_pipeline_lru(&mut self, max: usize) -> usize {
        if self.pipeline.len() <= max {
            return 0;
        }
        let excess = self.pipeline.len() - max;
        let mut order: Vec<(u64, u128)> = self
            .pipeline
            .keys()
            .map(|k| (self.batch_stamps.get(k).copied().unwrap_or(0), *k))
            .collect();
        order.sort_unstable();
        for (_, key) in order.into_iter().take(excess) {
            self.pipeline.remove(&key);
            self.batch_stamps.remove(&key);
        }
        self.needs_rewrite = true;
        excess
    }

    /// Re-persists any of `deps` missing from the solver tier, pulling
    /// their verdicts from the live memo. Closes a warmth leak in the
    /// compaction design: a job answered entirely by memo *hits* inserts
    /// nothing into the memo's dirty delta, yet its pipeline entry lists
    /// those fingerprints as dependencies — if an earlier compaction
    /// dropped them as orphans (e.g. solver work stranded by a job that
    /// failed before producing a verdict), the entry's deps would dangle
    /// and a daemon restart would quietly re-prove them. Call before
    /// flushing the batch that recorded the entry.
    pub fn ensure_deps(&mut self, memo: &QueryMemo, deps: &[Fingerprint]) {
        for fp in deps {
            if !self.solver.contains_key(fp) {
                if let Some(result) = memo.get(*fp) {
                    self.solver_put(*fp, result);
                }
            }
        }
    }

    /// Persists everything recorded since the last successful flush.
    ///
    /// Steady state this **appends one delta record** — O(batch), not
    /// O(store): the record holds only the dirty entries, framed with its
    /// own checksum, written after truncating away any torn tail a
    /// previous crash left. The whole log is rewritten instead (atomic
    /// temp + fsync + rename) when there is no valid v2 log to append to:
    /// first flush, a damaged or unknown header, or a failed append that
    /// could not be rolled back. With nothing dirty this is a
    /// no-op.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors. **The dirty delta is retained on failure**:
    /// the next successful flush (or the final flush at shutdown) persists
    /// it, so a transient write error costs latency, never verdicts.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.path.is_none() {
            // In-memory stores have nothing to persist; drop the tracking
            // so it cannot grow without bound.
            self.dirty_solver.clear();
            self.dirty_pipeline.clear();
            return Ok(());
        }
        if self.needs_rewrite {
            return self.rewrite(None);
        }
        if self.dirty_solver.is_empty() && self.dirty_pipeline.is_empty() {
            return Ok(());
        }
        self.append_delta()
    }

    /// Compacts the log: drops solver-tier entries unreachable from any
    /// pipeline-tier job's dependency set, then atomically rewrites the
    /// whole log as one base record (temp + fsync + rename — a crash at
    /// any byte leaves either the old log or the new one, never a mix).
    /// Pending dirty entries are folded in, so a clean-shutdown compaction
    /// subsumes the final flush.
    ///
    /// Pipeline entries with unknown dependencies conservatively pin every
    /// solver entry.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; on failure nothing is pruned and the dirty
    /// delta is retained, exactly as for [`VerdictStore::flush`].
    pub fn compact(&mut self) -> io::Result<CompactStats> {
        let logged_before = self.logged_entries;
        let reachable: Option<HashSet<Fingerprint>> = {
            let mut set = HashSet::new();
            let mut all_known = true;
            for entry in self.pipeline.values() {
                match &entry.deps {
                    None => {
                        all_known = false;
                        break;
                    }
                    Some(deps) => set.extend(deps.iter().copied()),
                }
            }
            all_known.then_some(set)
        };
        let dropped_solver = reachable.as_ref().map_or(0, |keep| {
            self.solver.keys().filter(|k| !keep.contains(k)).count()
        });
        self.rewrite(reachable.as_ref())?;
        Ok(CompactStats {
            logged_before,
            logged_after: self.logged_entries,
            dropped_solver,
        })
    }

    /// Atomically rewrites the whole log as magic + one base record,
    /// keeping only the solver entries in `keep` (`None` = all). The
    /// in-memory solver tier is pruned only *after* the write succeeds,
    /// so a failed compaction forgets nothing — and the filter works on
    /// borrowed entries, so no value is cloned either way.
    fn rewrite(&mut self, keep: Option<&HashSet<Fingerprint>>) -> io::Result<()> {
        let Some(path) = self.path.clone() else {
            // In-memory: nothing to write, but the pruning (so an
            // in-memory compaction's stats stay truthful and the memory
            // is actually reclaimed) and dirty-tracking reset still
            // apply.
            if let Some(keep) = keep {
                self.solver.retain(|k, _| keep.contains(k));
            }
            self.dirty_solver.clear();
            self.dirty_pipeline.clear();
            return Ok(());
        };
        let solver: Vec<(&Fingerprint, &CheckResult)> = self
            .solver
            .iter()
            .filter(|(k, _)| keep.is_none_or(|keep| keep.contains(*k)))
            .collect();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC_V2);
        let record_entries = (solver.len() + self.pipeline.len()) as u64;
        append_record(
            &mut bytes,
            KIND_BASE,
            solver,
            self.pipeline.iter().collect(),
        )?;

        let tmp = tmp_path(&path);
        {
            shadowdp_fault::fail_point("store.rewrite.create")?;
            let mut file = std::fs::File::create(&tmp)?;
            shadowdp_fault::write_all("store.rewrite.write", &mut file, &bytes)?;
            shadowdp_fault::fail_point("store.rewrite.sync")?;
            file.sync_all()?;
        }
        shadowdp_fault::fail_point("store.rewrite.rename")?;
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        if let Some(keep) = keep {
            self.solver.retain(|k, _| keep.contains(k));
        }
        self.log_valid_len = bytes.len() as u64;
        self.logged_entries = record_entries;
        self.needs_rewrite = false;
        self.dirty_solver.clear();
        self.dirty_pipeline.clear();
        Ok(())
    }

    /// Appends one delta record holding the dirty entries: truncate to the
    /// last known-valid length (drops any torn tail), write, fsync. On
    /// failure the file is rolled back to the valid prefix (or, if even
    /// that fails, the next flush falls back to a full rewrite) and the
    /// dirty delta is kept.
    fn append_delta(&mut self) -> io::Result<()> {
        let path = self.path.clone().expect("append requires a backing file");

        // Dedup against the live maps: the last value for a key wins, and
        // a key dirtied twice encodes once.
        let mut solver_keys = std::mem::take(&mut self.dirty_solver);
        solver_keys.sort();
        solver_keys.dedup();
        let mut pipeline_keys = std::mem::take(&mut self.dirty_pipeline);
        pipeline_keys.sort();
        pipeline_keys.dedup();
        let delta_solver: Vec<(&Fingerprint, &CheckResult)> = solver_keys
            .iter()
            .filter_map(|k| self.solver.get_key_value(k))
            .collect();
        let delta_pipeline: Vec<(&u128, &PipelineEntry)> = pipeline_keys
            .iter()
            .filter_map(|k| self.pipeline.get_key_value(k))
            .collect();
        let record_entries = (delta_solver.len() + delta_pipeline.len()) as u64;

        let mut bytes = Vec::new();
        if let Err(e) = append_record(&mut bytes, KIND_DELTA, delta_solver, delta_pipeline) {
            self.dirty_solver = solver_keys;
            self.dirty_pipeline = pipeline_keys;
            return Err(e);
        }

        let restore_dirty = |store: &mut VerdictStore| {
            store.dirty_solver = solver_keys.clone();
            store.dirty_pipeline = pipeline_keys.clone();
        };
        let result = (|| -> io::Result<()> {
            shadowdp_fault::fail_point("store.append.open")?;
            let mut file = std::fs::OpenOptions::new().write(true).open(&path)?;
            shadowdp_fault::fail_point("store.append.setlen")?;
            file.set_len(self.log_valid_len)?;
            file.seek(io::SeekFrom::Start(self.log_valid_len))?;
            shadowdp_fault::write_all("store.append.write", &mut file, &bytes)?;
            shadowdp_fault::fail_point("store.append.sync")?;
            file.sync_all()?;
            Ok(())
        })();
        match result {
            Ok(()) => {
                self.log_valid_len += bytes.len() as u64;
                self.logged_entries += record_entries;
                Ok(())
            }
            Err(e) => {
                restore_dirty(self);
                // Roll the file back to the valid prefix; if that fails
                // too, the log may carry a torn tail we can no longer
                // truncate here — replay would recover, but the safe move
                // is a full rewrite on the next flush.
                let rolled_back = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .and_then(|f| f.set_len(self.log_valid_len))
                    .is_ok();
                if !rolled_back {
                    self.needs_rewrite = true;
                }
                Err(e)
            }
        }
    }

    /// Serializes the current contents as a complete v2 image (magic + one
    /// base record) — the bytes a compaction would write. Deterministic:
    /// entries are sorted by key, so equal stores encode to equal bytes.
    ///
    /// # Panics
    ///
    /// Panics if the store exceeds the 4 GiB single-record frame limit
    /// (the fallible write paths return an error instead).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC_V2);
        append_record(
            &mut out,
            KIND_BASE,
            self.solver.iter().collect(),
            self.pipeline.iter().collect(),
        )
        .expect("store fits in one record frame");
        out
    }
}

/// The sibling temp path a rewrite stages into (same directory, so the
/// final rename never crosses a filesystem).
fn tmp_path(path: &Path) -> PathBuf {
    crate::sibling_path(path, ".tmp")
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn encode_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn encode_check_result(out: &mut Vec<u8>, result: &CheckResult) {
    match result {
        CheckResult::Unsat => out.push(0),
        CheckResult::Sat(model) => {
            out.push(1);
            out.push(model.possibly_spurious as u8);
            out.extend_from_slice(&(model.reals.len() as u32).to_le_bytes());
            for (name, value) in &model.reals {
                encode_bytes(out, name.as_bytes());
                out.extend_from_slice(&value.numer().to_le_bytes());
                out.extend_from_slice(&value.denom().to_le_bytes());
            }
            out.extend_from_slice(&(model.bools.len() as u32).to_le_bytes());
            for (name, value) in &model.bools {
                encode_bytes(out, name.as_bytes());
                out.push(*value as u8);
            }
        }
    }
}

/// Encodes one framed record (length + payload + checksum) onto `out`.
/// Entries are sorted by key so identical contents frame identically.
///
/// # Errors
///
/// A payload over the u32 frame-length limit (4 GiB in one record) is
/// refused rather than silently wrapped — a wrapped length would make
/// the record (for a compaction base record: the whole store) read back
/// as a torn tail and be dropped on the next load.
fn append_record(
    out: &mut Vec<u8>,
    kind: u8,
    mut solver: Vec<(&Fingerprint, &CheckResult)>,
    mut pipeline: Vec<(&u128, &PipelineEntry)>,
) -> io::Result<()> {
    let mut payload = Vec::new();
    payload.push(kind);

    solver.sort_by_key(|(k, _)| **k);
    payload.extend_from_slice(&(solver.len() as u64).to_le_bytes());
    for (fp, result) in solver {
        payload.extend_from_slice(&fp.0.to_le_bytes());
        encode_check_result(&mut payload, result);
    }

    pipeline.sort_by_key(|(k, _)| **k);
    payload.extend_from_slice(&(pipeline.len() as u64).to_le_bytes());
    for (key, entry) in pipeline {
        payload.extend_from_slice(&key.to_le_bytes());
        payload.push(entry.ok as u8);
        encode_bytes(&mut payload, entry.verdict.as_bytes());
        encode_bytes(&mut payload, entry.digest.as_bytes());
        match &entry.deps {
            None => payload.push(0),
            Some(deps) => {
                payload.push(1);
                payload.extend_from_slice(&(deps.len() as u64).to_le_bytes());
                for dep in deps {
                    payload.extend_from_slice(&dep.0.to_le_bytes());
                }
            }
        }
    }

    let Ok(frame_len) = u32::try_from(payload.len()) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "record payload ({} bytes) exceeds the u32 frame limit; \
                 the store has outgrown the single-record format",
                payload.len()
            ),
        ));
    };
    out.extend_from_slice(&frame_len.to_le_bytes());
    let checksum = fnv128(&payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&checksum.to_le_bytes());
    Ok(())
}

// ---------------------------------------------------------------------------
// Decoding (bounds-checked; a bad record truncates, a bad header rejects)
// ---------------------------------------------------------------------------

/// Why a store image (or one of its records) was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
enum DecodeError {
    /// File shorter than its magic, or a record ran off the end.
    Truncated,
    /// Magic bytes don't match (wrong file, or another format version).
    BadMagic,
    /// A structurally invalid record (unknown tag, non-UTF-8 name,
    /// zero denominator).
    Malformed(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated"),
            DecodeError::BadMagic => write!(f, "bad magic"),
            DecodeError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.at.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.bytes.len() {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u128(&mut self) -> Result<u128, DecodeError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    fn i128(&mut self) -> Result<i128, DecodeError> {
        Ok(i128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Malformed("string"))
    }
}

/// The result of replaying a v2 log.
struct Replayed {
    solver: HashMap<Fingerprint, CheckResult>,
    pipeline: HashMap<u128, PipelineEntry>,
    /// Byte length of the valid prefix (magic + every fully valid record).
    valid_len: u64,
    /// Records replayed.
    records: u64,
    /// Entries across all replayed records (superseded included).
    logged_entries: u64,
}

/// Replays a v2 log: magic, then framed records until the end of the file
/// or the first invalid record. A torn or corrupt record **ends** the
/// replay (everything before it is kept — the caller truncates there);
/// only a missing or wrong header is an error.
fn replay_v2(bytes: &[u8]) -> Result<Replayed, DecodeError> {
    if bytes.len() < MAGIC_V2.len() {
        return Err(DecodeError::Truncated);
    }
    if &bytes[..MAGIC_V2.len()] != MAGIC_V2 {
        return Err(DecodeError::BadMagic);
    }
    let mut out = Replayed {
        solver: HashMap::new(),
        pipeline: HashMap::new(),
        valid_len: MAGIC_V2.len() as u64,
        records: 0,
        logged_entries: 0,
    };
    let mut at = MAGIC_V2.len();
    while at < bytes.len() {
        let Some(record_end) = try_record(&bytes[at..], &mut out) else {
            break; // torn/corrupt tail: keep the valid prefix
        };
        at += record_end;
        out.valid_len = at as u64;
        out.records += 1;
    }
    Ok(out)
}

/// Attempts to decode one framed record at the start of `bytes`, merging
/// it into `out` on success and returning the record's total framed size.
/// `None` = the record is torn, corrupt, or malformed (nothing merged).
fn try_record(bytes: &[u8], out: &mut Replayed) -> Option<usize> {
    if bytes.len() < 4 {
        return None;
    }
    let payload_len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    let total = 4usize.checked_add(payload_len)?.checked_add(16)?;
    if total > bytes.len() {
        return None;
    }
    let payload = &bytes[4..4 + payload_len];
    let stored = u128::from_le_bytes(bytes[4 + payload_len..total].try_into().unwrap());
    if fnv128(payload) != stored {
        return None;
    }
    // The checksum matched, so structural failures below are virtually
    // impossible (a malformed record was sealed by a buggy or hostile
    // writer) — but they are still bounds-checked and reject the record.
    let mut cur = Cursor {
        bytes: payload,
        at: 0,
    };
    let kind = cur.u8().ok()?;
    if kind != KIND_BASE && kind != KIND_DELTA {
        return None;
    }

    let mut solver = Vec::new();
    let solver_count = cur.u64().ok()?;
    for _ in 0..solver_count {
        let fp = Fingerprint(cur.u128().ok()?);
        let result = decode_check_result(&mut cur).ok()?;
        solver.push((fp, result));
    }

    let mut pipeline = Vec::new();
    let pipeline_count = cur.u64().ok()?;
    for _ in 0..pipeline_count {
        let key = cur.u128().ok()?;
        let ok = match cur.u8().ok()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let verdict = cur.string().ok()?;
        let digest = cur.string().ok()?;
        let deps = match cur.u8().ok()? {
            0 => None,
            1 => {
                let n = cur.u64().ok()?;
                let mut deps = Vec::new();
                for _ in 0..n {
                    deps.push(Fingerprint(cur.u128().ok()?));
                }
                Some(deps)
            }
            _ => return None,
        };
        pipeline.push((
            key,
            PipelineEntry {
                ok,
                verdict,
                digest,
                deps,
            },
        ));
    }
    if cur.at != payload.len() {
        return None;
    }

    // Fully valid: merge. A base record resets replay state.
    if kind == KIND_BASE {
        out.solver.clear();
        out.pipeline.clear();
        out.logged_entries = 0;
    }
    out.logged_entries += (solver.len() + pipeline.len()) as u64;
    out.solver.extend(solver);
    out.pipeline.extend(pipeline);
    Some(total)
}

fn decode_check_result(cur: &mut Cursor<'_>) -> Result<CheckResult, DecodeError> {
    match cur.u8()? {
        0 => Ok(CheckResult::Unsat),
        1 => {
            let possibly_spurious = cur.u8()? != 0;
            let mut model = Model {
                possibly_spurious,
                ..Model::default()
            };
            let reals = cur.u32()?;
            for _ in 0..reals {
                let name = cur.string()?;
                let numer = cur.i128()?;
                let denom = cur.i128()?;
                // Encoded rationals come from `Rat`, which keeps the
                // denominator strictly positive and never holds i128::MIN
                // (its reduction negates both fields). Anything else is a
                // forged or corrupt record, and must be rejected *here*:
                // `Rat::new` would panic (zero denominator, or `.abs()`
                // overflow on i128::MIN), breaking load's never-panic
                // contract.
                if denom <= 0 || numer == i128::MIN || denom == i128::MIN {
                    return Err(DecodeError::Malformed("rational"));
                }
                model.reals.insert(name, Rat::new(numer, denom));
            }
            let bools = cur.u32()?;
            for _ in 0..bools {
                let name = cur.string()?;
                let value = cur.u8()? != 0;
                model.bools.insert(name, value);
            }
            Ok(CheckResult::Sat(model))
        }
        _ => Err(DecodeError::Malformed("check-result tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "shadowdp-storeunit-{}-{tag}-{n}.bin",
            std::process::id()
        ))
    }

    fn sample_model() -> Model {
        let mut reals = BTreeMap::new();
        reals.insert("x".to_string(), Rat::new(-7, 3));
        reals.insert("v_eps".to_string(), Rat::ZERO);
        let mut bools = BTreeMap::new();
        bools.insert("p".to_string(), true);
        Model {
            reals,
            bools,
            possibly_spurious: false,
        }
    }

    fn sample_store() -> VerdictStore {
        let mut store = VerdictStore::in_memory();
        store.solver_put(Fingerprint(1), CheckResult::Sat(sample_model()));
        store.solver_put(Fingerprint(u128::MAX), CheckResult::Unsat);
        store.pipeline.insert(
            42,
            PipelineEntry {
                ok: true,
                verdict: "proved".into(),
                digest: "Laplace Proved\n  target:\n…\n".into(),
                deps: Some(vec![Fingerprint(1), Fingerprint(u128::MAX)]),
            },
        );
        store
    }

    #[test]
    fn v2_image_round_trips() {
        let store = sample_store();
        let replayed = replay_v2(&store.encode()).unwrap();
        assert_eq!(replayed.solver, store.solver);
        assert_eq!(replayed.pipeline, store.pipeline);
        assert_eq!(replayed.valid_len, store.encode().len() as u64);
        assert_eq!(replayed.records, 1);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample_store().encode(), sample_store().encode());
    }

    #[test]
    fn every_truncation_keeps_a_valid_prefix_or_rejects() {
        let bytes = sample_store().encode();
        for len in 0..bytes.len() {
            match replay_v2(&bytes[..len]) {
                Err(e) => assert!(
                    len < MAGIC_V2.len(),
                    "only header damage may reject (len {len}: {e})"
                ),
                Ok(replayed) => {
                    // The single record is either fully there or fully
                    // dropped — never partially merged.
                    if (replayed.valid_len as usize) < len + 1 {
                        assert!(replayed.solver.is_empty());
                        assert!(replayed.pipeline.is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn every_single_byte_flip_drops_the_record_not_the_process() {
        let bytes = sample_store().encode();
        for i in MAGIC_V2.len()..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            match replay_v2(&corrupt) {
                Err(_) => panic!("flip at byte {i} must not reject the whole log"),
                Ok(replayed) => assert!(
                    replayed.solver.is_empty() && replayed.pipeline.is_empty(),
                    "flip at byte {i} must drop the damaged record"
                ),
            }
        }
        // A flip in the magic is a whole-file rejection.
        let mut corrupt = bytes.clone();
        corrupt[0] ^= 0x40;
        assert!(replay_v2(&corrupt).is_err());
    }

    #[test]
    fn flip_in_one_record_keeps_earlier_records() {
        let path = temp_path("midflip");
        let mut store = VerdictStore::load(&path);
        store.solver_put(Fingerprint(7), CheckResult::Unsat);
        store.flush().unwrap(); // base record
        let keep_len = std::fs::read(&path).unwrap().len();
        store.solver_put(Fingerprint(8), CheckResult::Unsat);
        store.flush().unwrap(); // delta record

        let bytes = std::fs::read(&path).unwrap();
        for i in keep_len..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x11;
            let replayed = replay_v2(&corrupt).unwrap();
            assert_eq!(replayed.valid_len as usize, keep_len, "flip at {i}");
            assert_eq!(replayed.solver.len(), 1);
        }
        // And the file as written replays both.
        let replayed = replay_v2(&bytes).unwrap();
        assert_eq!(replayed.solver.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    /// A checksum-valid record can still carry values `Rat` itself would
    /// never produce (forged or bit-rotted before sealing); replay must
    /// reject the record, never reach a panicking `Rat::new`.
    #[test]
    fn checksum_valid_but_malformed_rational_is_rejected() {
        for (numer, denom) in [(1i128, 0i128), (1, -1), (i128::MIN, 1), (1, i128::MIN)] {
            let mut payload = Vec::new();
            payload.push(KIND_BASE);
            payload.extend_from_slice(&1u64.to_le_bytes()); // one solver entry
            payload.extend_from_slice(&7u128.to_le_bytes()); // fingerprint
            payload.push(1); // Sat
            payload.push(0); // not spurious
            payload.extend_from_slice(&1u32.to_le_bytes()); // one real
            encode_bytes(&mut payload, b"x");
            payload.extend_from_slice(&numer.to_le_bytes());
            payload.extend_from_slice(&denom.to_le_bytes());
            payload.extend_from_slice(&0u32.to_le_bytes()); // no bools
            payload.extend_from_slice(&0u64.to_le_bytes()); // no pipeline entries

            let mut bytes = Vec::new();
            bytes.extend_from_slice(MAGIC_V2);
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            let sum = fnv128(&payload);
            bytes.extend_from_slice(&payload);
            bytes.extend_from_slice(&sum.to_le_bytes());

            let replayed = replay_v2(&bytes).unwrap();
            assert!(
                replayed.solver.is_empty(),
                "numer={numer} denom={denom} must drop the record"
            );
        }
    }

    #[test]
    fn batch_stamps_track_last_use_in_memory_only() {
        let mut store = VerdictStore::in_memory();
        assert_eq!(store.pipeline_stamp_range(), None);
        let a = JobSpec::new("function A() returns o: num(0,0) { o := 0; }");
        let b = JobSpec::new("function B() returns o: num(0,0) { o := 0; }");
        // Stamping an absent entry is a no-op.
        store.stamp_served(&a, 1);
        assert_eq!(store.pipeline_stamp_range(), None);

        let entry = PipelineEntry {
            ok: true,
            verdict: "proved".into(),
            digest: "ok\n".into(),
            deps: Some(vec![]),
        };
        store.pipeline_put(&a, entry.clone());
        store.stamp_served(&a, 1);
        store.pipeline_put(&b, entry);
        store.stamp_served(&b, 4);
        assert_eq!(store.pipeline_stamp_range(), Some((1, 4)));
        // A later serve moves an entry's stamp: `a` is now the newest.
        store.stamp_served(&a, 9);
        assert_eq!(store.pipeline_stamp_range(), Some((4, 9)));
    }

    #[test]
    fn lru_eviction_drops_the_coldest_entries_and_survives_reload() {
        let path = temp_path("evict");
        let mut store = VerdictStore::load(&path);
        let specs: Vec<JobSpec> = (0..4)
            .map(|i| JobSpec::new(format!("function F{i}() returns o: num(0,0) {{ o := 0; }}")))
            .collect();
        for (i, spec) in specs.iter().enumerate() {
            store.solver_put(Fingerprint(i as u128), CheckResult::Unsat);
            store.pipeline_put(
                spec,
                PipelineEntry {
                    ok: true,
                    verdict: "proved".into(),
                    digest: format!("F{i} Proved\n"),
                    deps: Some(vec![Fingerprint(i as u128)]),
                },
            );
            store.stamp_served(spec, i as u64 + 1);
        }
        store.flush().unwrap();

        // Under the cap: a no-op.
        assert_eq!(store.evict_pipeline_lru(4), 0);
        assert_eq!(store.pipeline_len(), 4);

        // Re-serve the oldest entry so it is now the hottest; eviction to
        // 2 must then drop the two *least recently served* (specs[1],
        // specs[2]), not the lowest-numbered.
        store.stamp_served(&specs[0], 9);
        assert_eq!(store.evict_pipeline_lru(2), 2);
        assert_eq!(store.pipeline_len(), 2);
        assert!(store.pipeline_get(&specs[0]).is_some());
        assert!(store.pipeline_get(&specs[1]).is_none());
        assert!(store.pipeline_get(&specs[2]).is_none());
        assert!(store.pipeline_get(&specs[3]).is_some());
        // Stamps follow the entries out.
        assert_eq!(store.pipeline_stamp_range(), Some((4, 9)));

        // The eviction is durable: the post-eviction flush rewrites the
        // log, and the evicted entries' solver deps are compaction prey.
        store.flush().unwrap();
        let reloaded = VerdictStore::load(&path);
        assert!(reloaded.load_note().is_none());
        assert_eq!(reloaded.pipeline_len(), 2);
        assert!(reloaded.pipeline_get(&specs[3]).is_some());
        let mut survivor = reloaded;
        let stats = survivor.compact().unwrap();
        assert_eq!(stats.dropped_solver, 2, "{stats:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn eviction_treats_unstamped_entries_as_coldest() {
        let mut store = VerdictStore::in_memory();
        let a = JobSpec::new("function A() returns o: num(0,0) { o := 0; }");
        let b = JobSpec::new("function B() returns o: num(0,0) { o := 0; }");
        let entry = PipelineEntry {
            ok: true,
            verdict: "proved".into(),
            digest: "ok\n".into(),
            deps: Some(vec![]),
        };
        store.pipeline_put(&a, entry.clone());
        store.pipeline_put(&b, entry);
        store.stamp_served(&b, 1); // `a` never served: stamp 0
        assert_eq!(store.evict_pipeline_lru(1), 1);
        assert!(store.pipeline_get(&a).is_none());
        assert!(store.pipeline_get(&b).is_some());
    }

    #[test]
    fn job_key_separates_specs() {
        let a = JobSpec::new("function A() returns o: num(0,0) { o := 0; }");
        let mut b = a.clone();
        b.source.push(' ');
        assert_ne!(VerdictStore::job_key(&a), VerdictStore::job_key(&b));
        assert_eq!(VerdictStore::job_key(&a), VerdictStore::job_key(&a.clone()));
    }

    #[test]
    fn incremental_flush_appends_only_the_delta() {
        let path = temp_path("delta");
        let mut store = VerdictStore::load(&path);
        for i in 0..50u128 {
            store.solver_put(Fingerprint(i), CheckResult::Unsat);
        }
        store.flush().unwrap(); // first flush: full rewrite (base)
        let base_len = store.log_bytes();
        assert_eq!(base_len, std::fs::metadata(&path).unwrap().len());

        // A one-entry delta costs one small record regardless of the 50
        // entries already in the log.
        store.solver_put(Fingerprint(1000), CheckResult::Unsat);
        store.flush().unwrap();
        let delta_cost = store.log_bytes() - base_len;
        assert!(
            delta_cost < base_len / 4,
            "delta append ({delta_cost} B) must not re-encode the store ({base_len} B)"
        );

        // Nothing dirty → no I/O, the file is untouched.
        let len_before = store.log_bytes();
        store.flush().unwrap();
        assert_eq!(store.log_bytes(), len_before);
        assert_eq!(len_before, std::fs::metadata(&path).unwrap().len());

        let reloaded = VerdictStore::load(&path);
        assert!(reloaded.load_note().is_none());
        assert_eq!(reloaded.solver_len(), 51);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_flush_retains_the_dirty_delta() {
        // The backing path's parent directory does not exist, so every
        // write fails — the injected failure.
        let dir = temp_path("missing-dir");
        let path = dir.join("store.bin");
        let mut store = VerdictStore::load(&path);
        store.solver_put(Fingerprint(5), CheckResult::Unsat);
        store.pipeline_put(
            &JobSpec::new("function F() returns o: num(0,0) { o := 0; }"),
            PipelineEntry {
                ok: true,
                verdict: "proved".into(),
                digest: "F Proved\n".into(),
                deps: Some(vec![Fingerprint(5)]),
            },
        );
        assert!(store.flush().is_err(), "write into a missing dir fails");
        assert!(store.dirty_len() > 0, "failure must keep the delta");

        // Once the directory exists, the retained delta persists in full.
        std::fs::create_dir_all(&dir).unwrap();
        store
            .flush()
            .expect("flush succeeds after the fault clears");
        assert_eq!(store.dirty_len(), 0);
        let reloaded = VerdictStore::load(&path);
        assert_eq!(reloaded.solver_len(), 1);
        assert_eq!(reloaded.pipeline_len(), 1);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn failed_append_rolls_back_and_retries() {
        let path = temp_path("rollback");
        let mut store = VerdictStore::load(&path);
        store.solver_put(Fingerprint(1), CheckResult::Unsat);
        store.flush().unwrap();

        // Injected append failure: replace the backing file with a
        // directory, so opening for write fails.
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir(&path).unwrap();
        store.solver_put(Fingerprint(2), CheckResult::Unsat);
        assert!(store.flush().is_err());
        assert!(store.dirty_len() > 0);

        // Fault clears; the retry rewrites (rollback was impossible) or
        // appends, either way both entries survive a reload.
        std::fs::remove_dir(&path).unwrap();
        store.flush().expect("retry persists the retained delta");
        let reloaded = VerdictStore::load(&path);
        assert_eq!(reloaded.solver_len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_drops_unreachable_solver_entries_and_superseded_records() {
        let path = temp_path("compact");
        let mut store = VerdictStore::load(&path);
        // Two reachable entries, one orphan (no pipeline entry lists it —
        // e.g. solver work from a job that failed before producing a
        // verdict).
        store.solver_put(Fingerprint(1), CheckResult::Unsat);
        store.solver_put(Fingerprint(2), CheckResult::Unsat);
        store.solver_put(Fingerprint(99), CheckResult::Unsat);
        let spec = JobSpec::new("function F() returns o: num(0,0) { o := 0; }");
        store.pipeline_put(
            &spec,
            PipelineEntry {
                ok: true,
                verdict: "proved".into(),
                digest: "F Proved\n".into(),
                deps: Some(vec![Fingerprint(1), Fingerprint(2)]),
            },
        );
        store.flush().unwrap();
        // Overwrite the pipeline entry a few times to generate superseded
        // log records.
        for round in 0..4 {
            store.pipeline_put(
                &spec,
                PipelineEntry {
                    ok: true,
                    verdict: "proved".into(),
                    digest: format!("F Proved round {round}\n"),
                    deps: Some(vec![Fingerprint(1), Fingerprint(2)]),
                },
            );
            store.flush().unwrap();
        }
        assert!(store.logged_entries() > store.live_entries());
        assert!(store.wants_compaction(1.0));
        let pre_len = store.log_bytes();

        let stats = store.compact().unwrap();
        assert_eq!(stats.dropped_solver, 1, "{stats:?}");
        assert_eq!(store.solver_len(), 2);
        assert_eq!(store.logged_entries(), store.live_entries());
        assert!(!store.wants_compaction(1.0));
        assert!(store.log_bytes() < pre_len);

        let reloaded = VerdictStore::load(&path);
        assert!(reloaded.load_note().is_none());
        assert_eq!(reloaded.solver_len(), 2);
        assert_eq!(reloaded.pipeline_len(), 1);
        assert_eq!(
            reloaded.pipeline_get(&spec).unwrap().digest,
            "F Proved round 3\n"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unknown_deps_pin_every_solver_entry_through_compaction() {
        let path = temp_path("pin");
        let mut store = VerdictStore::load(&path);
        store.solver_put(Fingerprint(1), CheckResult::Unsat);
        store.solver_put(Fingerprint(2), CheckResult::Unsat);
        store.pipeline_put(
            &JobSpec::new("function F() returns o: num(0,0) { o := 0; }"),
            PipelineEntry {
                ok: true,
                verdict: "proved".into(),
                digest: "F Proved\n".into(),
                deps: None, // unknown provenance
            },
        );
        let stats = store.compact().unwrap();
        assert_eq!(stats.dropped_solver, 0);
        assert_eq!(store.solver_len(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
