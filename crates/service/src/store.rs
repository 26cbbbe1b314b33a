//! The persistent verdict store: a disk-backed cache with two tiers,
//! persisted as an **append-only record log with periodic compaction**.
//!
//! - **Solver tier** — `Fingerprint → MemoEntry`, the contents of a
//!   [`QueryMemo`] exported with [`QueryMemo::snapshot`] (or, incrementally,
//!   [`QueryMemo::drain_dirty`]) and re-imported with [`QueryMemo::absorb`].
//!   Fingerprints are arena-independent structural hashes (see
//!   `shadowdp_solver::term`), so an entry written by one daemon process
//!   answers the structurally identical validity query in any later
//!   process — this tier is what makes a daemon restart *warm*. Most `Sat`
//!   entries hold no model (only a query that reads one builds it); an
//!   entry's model is an `Arc` shared with the live memo, so the daemon
//!   holds each model once.
//! - **Pipeline tier** — `fnv128(JobSpec::canonical()) → (verdict, digest,
//!   deps)`: whole-verification results keyed by source text plus options.
//!   A resubmitted program is answered without running the pipeline at all,
//!   the stored per-job digest lets the caller check byte-identical output
//!   across restarts, and `deps` (the job's solver-tier fingerprint set)
//!   is what lets compaction prove which solver verdicts are still
//!   reachable.
//!
//! # On-disk format (v3)
//!
//! A record log (`log.rs` owns the framing and the disk discipline) with
//! magic `b"SDPV3E"` plus the two-digit [`shadowdp::VERIFIER_EPOCH`]
//! (`b"SDPV3E01"` at epoch 1), and hand-rolled little-endian payloads
//! (the format is simple enough that a schema language would cost more
//! than it buys):
//!
//! ```text
//! payload   u8  kind (0 = base, 1 = delta)
//!           u64 solver entry count
//!               per entry: u128 fingerprint,
//!                          u8 tag (0 = Unsat, 1 = Sat with a model,
//!                                  2 = Sat without one);
//!               tag 1 carries a Model: u8 possibly_spurious,
//!                 u32 reals count, per real: u32 name len, name bytes,
//!                                            i128 numer, i128 denom,
//!                 u32 bools count, per bool: u32 name len, name bytes, u8 value
//!                 (each list's names UTF-8 and strictly increasing bytewise)
//!           u64 pipeline entry count
//!               per entry: u128 key, u8 ok, u32 verdict len, verdict bytes,
//!                          u32 digest len, digest bytes,
//!                          u8 deps tag (0 = unknown, 1 = known);
//!                          known ⇒ u64 dep count, count × u128 fingerprint
//! ```
//!
//! Replay starts from empty state; a **base** record resets it (compaction
//! and first-flush write exactly one) and a **delta** record merges on top
//! (each incremental flush appends one), a later entry replacing an
//! earlier one of the same key — which is how a model that upgrades a
//! tag-2 entry wins on reload. Every record carries its own
//! checksum, so a torn tail — a crash mid-append — **truncates the log to
//! the last valid record** instead of cold-starting the whole store; only
//! a damaged or unknown header falls back to a cold (empty) cache. The
//! store never panics and never half-loads a record: a checksum-valid
//! payload that does not decode ends the replay like a torn one.
//!
//! **Compaction** ([`VerdictStore::compact`]) rewrites the whole log as
//! one base record — atomically — dropping both superseded log records
//! and solver-tier entries unreachable from any pipeline-tier job's
//! dependency set.

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::PathBuf;

use shadowdp::JobSpec;
use shadowdp_num::Rat;
use shadowdp_solver::{Fingerprint, MemoEntry, Model, QueryMemo, Symbol};

use crate::log::{self, RecordLog};

/// The v3 file magic: `SDPV3E` (format name and layout version), then
/// [`shadowdp::VERIFIER_EPOCH`] as two decimal digits. Bump the layout
/// digit on any layout change. A file of another layout or another
/// verifier epoch fails the header check, so it is a noted cold start
/// instead of being misread or serving verdicts of another verifier.
const MAGIC: &[u8; 8] = &{
    let epoch = shadowdp::VERIFIER_EPOCH;
    assert!(epoch < 100, "the store magic holds a two-digit epoch");
    let mut magic = *b"SDPV3E00";
    magic[6] += epoch / 10;
    magic[7] += epoch % 10;
    magic
};

/// Which verifier wrote a store whose header is not [`MAGIC`], when the
/// header tells: `SDPVERD2` predates verifier epochs, `SDPV2E` is the
/// layout before bare `Sat` entries, and `SDPV3E` with other digits names
/// the epoch. After an upgrade this is the expected one-time cold start;
/// any other header is damage (`bad magic`).
fn other_verifier(header: &[u8]) -> Option<String> {
    let digits = |prefix: &[u8]| {
        header
            .strip_prefix(prefix)
            .filter(|digits| digits.iter().all(u8::is_ascii_digit))
    };
    if header == b"SDPVERD2" {
        return Some("written before verifier epochs".into());
    }
    if digits(b"SDPV2E").is_some() {
        return Some("written in store layout v2, this build writes v3".into());
    }
    let epoch = digits(b"SDPV3E")?;
    Some(format!(
        "written under verifier epoch {}, this build is epoch {:02}",
        String::from_utf8_lossy(epoch),
        shadowdp::VERIFIER_EPOCH
    ))
}

/// Record kinds. A base record resets replay state; a delta merges.
const KIND_BASE: u8 = 0;
const KIND_DELTA: u8 = 1;

/// Solver-entry tags, one per [`MemoEntry`] variant.
const TAG_UNSAT: u8 = 0;
const TAG_MODEL: u8 = 1;
const TAG_SAT: u8 = 2;

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
    /// The backing log; `None` for an in-memory store.
    log: Option<RecordLog>,
    solver: HashMap<Fingerprint, MemoEntry>,
    pipeline: HashMap<u128, PipelineEntry>,
    /// Solver keys added (or re-solved) since the last successful flush;
    /// their current values live in `solver`.
    dirty_solver: Vec<Fingerprint>,
    /// Pipeline keys added or overwritten since the last successful flush.
    dirty_pipeline: Vec<u128>,
    /// Entries (solver + pipeline) across every record currently in the
    /// log, superseded ones included — the denominator of the live/dead
    /// compaction ratio.
    logged_entries: u64,
    /// Last-served stamps for pipeline-tier entries, keyed like
    /// `pipeline`: the recency [`VerdictStore::evict_pipeline_lru`]
    /// orders by. In-memory only (a restart resets them — eviction should
    /// act on traffic the current process observed).
    served_stamps: HashMap<u128, u64>,
    /// An LRU eviction dropped entries since the last rewrite; the log has
    /// no tombstones, so only a whole rewrite forgets them.
    needs_rewrite: bool,
    /// Why the last load fell back to cold or dropped a tail, if it did
    /// (missing file is not noted — a first run is expected to be cold).
    load_note: Option<String>,
}

impl VerdictStore {
    /// An empty store with no backing file ([`VerdictStore::flush`] only
    /// resets the dirty tracking). Used by ephemeral daemons and unit
    /// tests.
    pub fn in_memory() -> VerdictStore {
        VerdictStore {
            log: None,
            solver: HashMap::new(),
            pipeline: HashMap::new(),
            dirty_solver: Vec::new(),
            dirty_pipeline: Vec::new(),
            served_stamps: HashMap::new(),
            logged_entries: 0,
            needs_rewrite: false,
            load_note: None,
        }
    }

    /// Opens the store at `path`, replaying any previous log. A missing
    /// file is a normal cold start; a damaged header, or one of another
    /// verifier epoch, is a cold start and a torn tail is truncated to the
    /// last valid record — each with [`VerdictStore::load_note`] explaining
    /// what happened (the note names the epoch a store was written under).
    /// This constructor never fails and never panics on file contents.
    pub fn load(path: impl Into<PathBuf>) -> VerdictStore {
        let mut store = VerdictStore::in_memory();
        let mut names = Names::default();
        let (log, note) = RecordLog::open(path.into(), MAGIC, "store", other_verifier, |payload| {
            store.merge_record(payload, &mut names).is_some()
        });
        store.log = Some(log);
        store.load_note = note;
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
    /// not-yet-flushed stores, and while the next flush must rewrite).
    pub fn log_bytes(&self) -> u64 {
        self.log.as_ref().map_or(0, RecordLog::len)
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
        if self.log.is_none() {
            return false;
        }
        let live = self.live_entries().max(1) as f64;
        self.logged_entries as f64 > ratio.max(1.0) * live
    }

    /// Imports the solver tier into a live memo ([`QueryMemo::absorb`];
    /// live entries win on key collisions). The memo and the tier then
    /// share each decoded model: warming copies no model.
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
    /// solver tier. O(job): only entries solved since the last drain
    /// move. Returns how many entries were absorbed.
    pub fn absorb_dirty(&mut self, memo: &QueryMemo) -> usize {
        let delta = memo.drain_dirty();
        let n = delta.len();
        for (key, value) in delta {
            self.solver_put(key, value);
        }
        n
    }

    /// Records one solver-tier entry directly, marking it dirty if it is
    /// new or changed — except that an entry holding a model is never
    /// replaced by a bare `Sat` (it [upgrades](MemoEntry::upgrades) that
    /// one). (Building block of the memo import paths; public for benches
    /// and tests that construct stores without running a solver.)
    pub fn solver_put(&mut self, key: Fingerprint, value: MemoEntry) {
        match self.solver.get(&key) {
            Some(existing) if *existing == value || existing.upgrades(&value) => {}
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

    /// Stamps a pipeline-tier entry with a recency mark that grows with
    /// each use (no-op for an absent entry); the daemon stamps with the
    /// job id + 1, since 0 means never served. It calls this at
    /// `pipeline_put` time and whenever the store answers a resubmission —
    /// so the stamp is a last-use mark, the recency
    /// [`VerdictStore::evict_pipeline_lru`] orders by.
    pub fn stamp_served(&mut self, spec: &JobSpec, stamp: u64) {
        let key = Self::job_key(spec);
        if self.pipeline.contains_key(&key) {
            self.served_stamps.insert(key, stamp);
        }
    }

    /// Evicts least-recently-used pipeline-tier entries until at most
    /// `max` remain, returning how many were dropped. Recency is the
    /// in-memory last-served stamp ([`VerdictStore::stamp_served`]);
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
            .map(|k| (self.served_stamps.get(k).copied().unwrap_or(0), *k))
            .collect();
        order.sort_unstable();
        for (_, key) in order.into_iter().take(excess) {
            self.pipeline.remove(&key);
            self.served_stamps.remove(&key);
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
    /// flushing the job that recorded the entry.
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
    /// Steady state this **appends one delta record** — O(job), not
    /// O(store): the record holds only the dirty entries. The whole log is
    /// rewritten instead as one base record when there is no valid log to
    /// append to (first flush, a damaged or unknown header, or a failed
    /// append that could not be cut back) and after an LRU eviction. With
    /// nothing dirty this is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors. **The dirty delta is retained on failure**:
    /// the next successful flush (or the final flush at shutdown) persists
    /// it, so a transient write error costs latency, never verdicts.
    pub fn flush(&mut self) -> io::Result<()> {
        let Some(log) = &self.log else {
            // In-memory stores have nothing to persist; drop the tracking
            // so it cannot grow without bound.
            self.dirty_solver.clear();
            self.dirty_pipeline.clear();
            return Ok(());
        };
        if self.needs_rewrite || log.len() == 0 {
            return self.rewrite(None);
        }
        if self.dirty_solver.is_empty() && self.dirty_pipeline.is_empty() {
            return Ok(());
        }
        self.append_delta()
    }

    /// Compacts the log: drops solver-tier entries unreachable from any
    /// pipeline-tier job's dependency set, then atomically rewrites the
    /// whole log as one base record (a crash at any byte leaves either the
    /// old log or the new one, never a mix). Pending dirty entries are
    /// folded in, so a clean-shutdown compaction subsumes the final flush.
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

    /// Atomically rewrites the whole log as one base record, keeping only
    /// the solver entries in `keep` (`None` = all). The in-memory solver
    /// tier is pruned only *after* the write succeeds, so a failed
    /// compaction forgets nothing — and the filter works on borrowed
    /// entries, so no value is cloned either way. An in-memory store only
    /// prunes (so its compaction stats stay truthful and the memory is
    /// reclaimed) and resets its dirty tracking.
    fn rewrite(&mut self, keep: Option<&HashSet<Fingerprint>>) -> io::Result<()> {
        if let Some(log) = &mut self.log {
            let solver: Vec<(&Fingerprint, &MemoEntry)> = self
                .solver
                .iter()
                .filter(|(k, _)| keep.is_none_or(|keep| keep.contains(*k)))
                .collect();
            let entries = (solver.len() + self.pipeline.len()) as u64;
            log.rewrite(&[encode_record(
                KIND_BASE,
                solver,
                self.pipeline.iter().collect(),
            )])?;
            self.logged_entries = entries;
        }
        if let Some(keep) = keep {
            self.solver.retain(|k, _| keep.contains(k));
        }
        self.needs_rewrite = false;
        self.dirty_solver.clear();
        self.dirty_pipeline.clear();
        Ok(())
    }

    /// Appends one delta record holding the dirty entries. On failure the
    /// dirty delta is kept for the next flush.
    fn append_delta(&mut self) -> io::Result<()> {
        // Dedup against the live maps: the last value for a key wins, and
        // a key dirtied twice encodes once.
        self.dirty_solver.sort();
        self.dirty_solver.dedup();
        self.dirty_pipeline.sort();
        self.dirty_pipeline.dedup();
        let solver: Vec<(&Fingerprint, &MemoEntry)> = self
            .dirty_solver
            .iter()
            .filter_map(|k| self.solver.get_key_value(k))
            .collect();
        let pipeline: Vec<(&u128, &PipelineEntry)> = self
            .dirty_pipeline
            .iter()
            .filter_map(|k| self.pipeline.get_key_value(k))
            .collect();
        let entries = (solver.len() + pipeline.len()) as u64;
        let record = encode_record(KIND_DELTA, solver, pipeline);
        self.log
            .as_mut()
            .expect("only a store with a backing log appends")
            .append(&record)?;
        self.logged_entries += entries;
        self.dirty_solver.clear();
        self.dirty_pipeline.clear();
        Ok(())
    }

    /// Serializes the current contents as a complete v3 image (magic + one
    /// base record) — the bytes a compaction would write. Deterministic:
    /// entries are sorted by key, so equal stores encode to equal bytes.
    ///
    /// # Panics
    ///
    /// Panics if the store exceeds the 4 GiB single-record frame limit
    /// (the fallible write paths return an error instead).
    pub fn encode(&self) -> Vec<u8> {
        let record = encode_record(
            KIND_BASE,
            self.solver.iter().collect(),
            self.pipeline.iter().collect(),
        );
        log::image(MAGIC, &[record]).expect("store fits in one record frame")
    }

    /// Decodes one record payload and merges it into the tiers — a base
    /// record first resets them. `None` (nothing merged) for a payload
    /// that does not decode: the checksum matched, so only a buggy or
    /// hostile writer seals one, but it is still bounds-checked and
    /// rejected, never half-loaded. Model names are interned through
    /// `names`, the load's own table.
    fn merge_record(&mut self, payload: &[u8], names: &mut Names) -> Option<()> {
        let mut cur = Cursor {
            bytes: payload,
            at: 0,
        };
        let kind = cur.u8()?;
        if kind != KIND_BASE && kind != KIND_DELTA {
            return None;
        }

        let solver_count = cur.u64()?;
        let mut solver = Vec::with_capacity(cur.capacity(solver_count, MIN_SOLVER_ENTRY));
        for _ in 0..solver_count {
            let fp = Fingerprint(cur.u128()?);
            let entry = decode_entry(&mut cur, names)?;
            solver.push((fp, entry));
        }

        let pipeline_count = cur.u64()?;
        let mut pipeline = Vec::with_capacity(cur.capacity(pipeline_count, MIN_PIPELINE_ENTRY));
        for _ in 0..pipeline_count {
            let key = cur.u128()?;
            let ok = match cur.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            let verdict = cur.string()?;
            let digest = cur.string()?;
            let deps = match cur.u8()? {
                0 => None,
                1 => {
                    let n = cur.u64()?;
                    let mut deps = Vec::with_capacity(cur.capacity(n, size_of::<u128>()));
                    for _ in 0..n {
                        deps.push(Fingerprint(cur.u128()?));
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

        if kind == KIND_BASE {
            self.solver.clear();
            self.pipeline.clear();
            self.logged_entries = 0;
        }
        self.logged_entries += (solver.len() + pipeline.len()) as u64;
        self.solver.reserve(solver.len());
        self.solver.extend(solver);
        self.pipeline.reserve(pipeline.len());
        self.pipeline.extend(pipeline);
        Some(())
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn encode_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn encode_entry(out: &mut Vec<u8>, entry: &MemoEntry) {
    match entry {
        MemoEntry::Unsat => out.push(TAG_UNSAT),
        MemoEntry::Sat => out.push(TAG_SAT),
        MemoEntry::Model(model) => {
            out.push(TAG_MODEL);
            out.push(model.possibly_spurious as u8);
            out.extend_from_slice(&(model.reals().len() as u32).to_le_bytes());
            for (name, value) in model.reals() {
                encode_bytes(out, name.as_bytes());
                out.extend_from_slice(&value.numer().to_le_bytes());
                out.extend_from_slice(&value.denom().to_le_bytes());
            }
            out.extend_from_slice(&(model.bools().len() as u32).to_le_bytes());
            for (name, value) in model.bools() {
                encode_bytes(out, name.as_bytes());
                out.push(*value as u8);
            }
        }
    }
}

/// Encodes one record payload. Entries are sorted by key so identical
/// contents encode identically.
fn encode_record(
    kind: u8,
    mut solver: Vec<(&Fingerprint, &MemoEntry)>,
    mut pipeline: Vec<(&u128, &PipelineEntry)>,
) -> Vec<u8> {
    let mut payload = vec![kind];

    solver.sort_by_key(|(k, _)| **k);
    payload.extend_from_slice(&(solver.len() as u64).to_le_bytes());
    for (fp, entry) in solver {
        payload.extend_from_slice(&fp.0.to_le_bytes());
        encode_entry(&mut payload, entry);
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
    payload
}

// ---------------------------------------------------------------------------
// Decoding (bounds-checked; a record that does not decode ends the replay)
// ---------------------------------------------------------------------------

/// The fewest bytes one solver entry encodes in (fingerprint, tag).
const MIN_SOLVER_ENTRY: usize = 16 + 1;
/// The fewest bytes one pipeline entry encodes in (key, ok, two empty
/// strings, deps tag).
const MIN_PIPELINE_ENTRY: usize = 16 + 1 + 4 + 4 + 1;
/// The fewest bytes one model real encodes in (empty name, numerator,
/// denominator).
const MIN_REAL: usize = 4 + 16 + 16;
/// The fewest bytes one model bool encodes in (empty name, value).
const MIN_BOOL: usize = 4 + 1;

/// The model names one load has interned, keyed by their bytes. Each
/// distinct name takes one trip through the solver's global interner per
/// load, however many models mention it; every later mention is a local
/// lookup, and every model naming it shares the interned copy.
#[derive(Default)]
struct Names(HashMap<&'static [u8], &'static str>);

impl Names {
    /// The interned copy of `bytes`; `None` if they are not UTF-8.
    fn intern(&mut self, bytes: &[u8]) -> Option<&'static str> {
        if let Some(name) = self.0.get(bytes) {
            return Some(name);
        }
        let name = Symbol::intern(std::str::from_utf8(bytes).ok()?).as_str();
        self.0.insert(name.as_bytes(), name);
        Some(name)
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.at..self.at.checked_add(n)?)?;
        self.at += n;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn u128(&mut self) -> Option<u128> {
        Some(u128::from_le_bytes(self.take(16)?.try_into().ok()?))
    }

    fn i128(&mut self) -> Option<i128> {
        Some(i128::from_le_bytes(self.take(16)?.try_into().ok()?))
    }

    /// A `u32`-length-prefixed byte string.
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn string(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?.to_vec()).ok()
    }

    /// A capacity for `count` entries of at least `min_len` bytes each,
    /// clamped to how many fit in the bytes left: a corrupt count cannot
    /// make the decoder allocate more than the record could hold.
    fn capacity(&self, count: u64, min_len: usize) -> usize {
        let fit = (self.bytes.len() - self.at) / min_len;
        usize::try_from(count).map_or(fit, |count| count.min(fit))
    }
}

fn decode_entry(cur: &mut Cursor<'_>, names: &mut Names) -> Option<MemoEntry> {
    match cur.u8()? {
        TAG_UNSAT => Some(MemoEntry::Unsat),
        TAG_SAT => Some(MemoEntry::Sat),
        TAG_MODEL => {
            let possibly_spurious = cur.u8()? != 0;
            let reals = decode_named(cur, names, MIN_REAL, |cur| {
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
                    return None;
                }
                Some(Rat::new(numer, denom))
            })?;
            let bools = decode_named(cur, names, MIN_BOOL, |cur| Some(cur.u8()? != 0))?;
            Some(MemoEntry::Model(
                Model::new(reals, bools, possibly_spurious).into(),
            ))
        }
        _ => None,
    }
}

/// One of a model's name-sorted lists: a `u32` count, then per entry a
/// name and a value read by `value`, into a vector sized once, which
/// [`Model::new`] keeps as is. `None` unless every name is UTF-8 and
/// greater than the one before — the encoder writes names in strictly
/// increasing order, so anything else is a corrupt record (and would
/// make `Model::new` panic).
fn decode_named<T>(
    cur: &mut Cursor<'_>,
    names: &mut Names,
    min_len: usize,
    mut value: impl FnMut(&mut Cursor<'_>) -> Option<T>,
) -> Option<Vec<(&'static str, T)>> {
    let count = cur.u32()?;
    let mut out = Vec::with_capacity(cur.capacity(count.into(), min_len));
    let mut last: Option<&[u8]> = None;
    for _ in 0..count {
        let name = cur.bytes()?;
        if last.is_some_and(|last| last >= name) {
            return None;
        }
        last = Some(name);
        out.push((names.intern(name)?, value(cur)?));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowdp_solver::{Solver, Term};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "shadowdp-storeunit-{}-{tag}-{n}.bin",
            std::process::id()
        ))
    }

    fn sample_model() -> Model {
        Model::new(
            vec![("x", Rat::new(-7, 3)), ("v_eps", Rat::ZERO)],
            vec![("p", true)],
            false,
        )
    }

    /// Replays an in-memory image the way [`VerdictStore::load`] replays
    /// a file: the store it rebuilds, and what the replay kept.
    fn replay(bytes: &[u8]) -> Result<(VerdictStore, log::Replay), &'static str> {
        let mut store = VerdictStore::in_memory();
        let mut names = Names::default();
        let kept = log::replay(bytes, MAGIC, |p| {
            store.merge_record(p, &mut names).is_some()
        })?;
        Ok((store, kept))
    }

    fn sample_store() -> VerdictStore {
        let mut store = VerdictStore::in_memory();
        store.solver_put(Fingerprint(1), MemoEntry::Model(sample_model().into()));
        store.solver_put(Fingerprint(2), MemoEntry::Sat);
        store.solver_put(Fingerprint(u128::MAX), MemoEntry::Unsat);
        store.pipeline.insert(
            42,
            PipelineEntry {
                ok: true,
                verdict: "proved".into(),
                digest: "Laplace Proved\n  target:\n…\n".into(),
                deps: Some(vec![Fingerprint(1), Fingerprint(2), Fingerprint(u128::MAX)]),
            },
        );
        store
    }

    /// How many entries with a model the solver tier holds, asserting
    /// that each is the memo's own model allocation, not a copy of it.
    fn sat_entries_shared_with(store: &VerdictStore, memo: &QueryMemo) -> usize {
        let mut shared = 0;
        for (fp, result) in &store.solver {
            if let MemoEntry::Model(model) = result {
                let Some(MemoEntry::Model(live)) = memo.get(*fp) else {
                    panic!("{fp:?}: the memo lacks the stored model");
                };
                assert!(Arc::ptr_eq(model, &live), "{fp:?}: model copied");
                shared += 1;
            }
        }
        shared
    }

    #[test]
    fn store_and_memo_share_every_model() {
        let memo = Arc::new(QueryMemo::default());
        let solver = Solver::with_memo(memo.clone());
        let x = Term::real_var("x");
        let y = Term::real_var("y");
        for k in 1..=4 {
            // Refuted (a model each), then proved (Unsat).
            let _ = solver.prove(&[x.ge(Term::int(0))], &x.add(y).ge(Term::int(k)));
            let _ = solver.prove(&[x.ge(Term::int(k))], &x.ge(Term::int(0)));
        }
        let path = temp_path("shared-models");
        let mut store = VerdictStore::load(&path);
        assert_eq!(store.absorb_dirty(&memo), 8);
        assert_eq!(sat_entries_shared_with(&store, &memo), 4);
        store.flush().unwrap();

        let reloaded = VerdictStore::load(&path);
        let warm = QueryMemo::default();
        reloaded.warm_memo(&warm);
        assert_eq!(warm.len(), 8);
        assert_eq!(sat_entries_shared_with(&reloaded, &warm), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn image_round_trips() {
        let store = sample_store();
        let (replayed, kept) = replay(&store.encode()).unwrap();
        assert_eq!(replayed.solver, store.solver);
        assert_eq!(replayed.pipeline, store.pipeline);
        assert_eq!(kept.valid_len, store.encode().len() as u64);
        assert_eq!(kept.records, 1);
    }

    /// Every kind of solver entry survives an append, a reload and a
    /// compaction; a model appended in a later delta record upgrades the
    /// bare `Sat` an earlier record holds for its key, and a bare `Sat`
    /// put over a model is never appended.
    #[test]
    fn v3_entries_round_trip_through_append_reload_and_compaction() {
        // A bare `Sat` is the tag byte 2 and nothing after it.
        let mut bare = vec![KIND_BASE];
        bare.extend_from_slice(&1u64.to_le_bytes());
        bare.extend_from_slice(&5u128.to_le_bytes());
        bare.push(2);
        bare.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            encode_record(KIND_BASE, vec![(&Fingerprint(5), &MemoEntry::Sat)], vec![]),
            bare
        );

        let path = temp_path("v3-kinds");
        let model = MemoEntry::Model(sample_model().into());
        let mut store = VerdictStore::load(&path);
        store.solver_put(Fingerprint(1), MemoEntry::Unsat);
        store.solver_put(Fingerprint(2), MemoEntry::Sat);
        store.solver_put(Fingerprint(3), model.clone());
        store.solver_put(Fingerprint(4), MemoEntry::Sat);
        store.pipeline_put(
            &JobSpec::new("function F() returns o: num(0,0) { o := 0; }"),
            PipelineEntry {
                ok: true,
                verdict: "proved".into(),
                digest: "F Proved\n".into(),
                deps: Some((1..=4).map(Fingerprint).collect()),
            },
        );
        store.flush().unwrap(); // base record: 5 entries
        store.solver_put(Fingerprint(4), model.clone());
        store.solver_put(Fingerprint(3), MemoEntry::Sat);
        store.flush().unwrap(); // delta record: key 4's model alone
        let want = HashMap::from([
            (Fingerprint(1), MemoEntry::Unsat),
            (Fingerprint(2), MemoEntry::Sat),
            (Fingerprint(3), model.clone()),
            (Fingerprint(4), model),
        ]);
        assert_eq!(store.solver, want);

        let mut reloaded = VerdictStore::load(&path);
        assert!(reloaded.load_note().is_none());
        assert_eq!(reloaded.solver, want, "the later delta wins");
        assert_eq!(reloaded.logged_entries(), 6);
        let stats = reloaded.compact().unwrap();
        assert_eq!((stats.dropped_solver, stats.logged_after), (0, 5));
        let compacted = VerdictStore::load(&path);
        assert!(compacted.load_note().is_none());
        assert_eq!(compacted.solver, want);
        assert_eq!(compacted.logged_entries(), 5);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample_store().encode(), sample_store().encode());
    }

    #[test]
    fn every_truncation_keeps_a_valid_prefix_or_rejects() {
        let bytes = sample_store().encode();
        for len in 0..bytes.len() {
            match replay(&bytes[..len]) {
                Err(e) => assert!(
                    len < MAGIC.len(),
                    "only header damage may reject (len {len}: {e})"
                ),
                Ok((replayed, kept)) => {
                    // The single record is either fully there or fully
                    // dropped — never partially merged.
                    if (kept.valid_len as usize) < len + 1 {
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
        for i in MAGIC.len()..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            match replay(&corrupt) {
                Err(_) => panic!("flip at byte {i} must not reject the whole log"),
                Ok((replayed, _)) => assert!(
                    replayed.solver.is_empty() && replayed.pipeline.is_empty(),
                    "flip at byte {i} must drop the damaged record"
                ),
            }
        }
        // A flip in the magic is a whole-file rejection.
        let mut corrupt = bytes.clone();
        corrupt[0] ^= 0x40;
        assert!(replay(&corrupt).is_err());
    }

    #[test]
    fn flip_in_one_record_keeps_earlier_records() {
        let path = temp_path("midflip");
        let mut store = VerdictStore::load(&path);
        store.solver_put(Fingerprint(7), MemoEntry::Unsat);
        store.flush().unwrap(); // base record
        let keep_len = std::fs::read(&path).unwrap().len();
        store.solver_put(Fingerprint(8), MemoEntry::Unsat);
        store.flush().unwrap(); // delta record

        let bytes = std::fs::read(&path).unwrap();
        for i in keep_len..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x11;
            let (replayed, kept) = replay(&corrupt).unwrap();
            assert_eq!(kept.valid_len as usize, keep_len, "flip at {i}");
            assert_eq!(replayed.solver.len(), 1);
        }
        // And the file as written replays both.
        let (replayed, _) = replay(&bytes).unwrap();
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
            payload.push(1); // Sat with a model
            payload.push(0); // not spurious
            payload.extend_from_slice(&1u32.to_le_bytes()); // one real
            encode_bytes(&mut payload, b"x");
            payload.extend_from_slice(&numer.to_le_bytes());
            payload.extend_from_slice(&denom.to_le_bytes());
            payload.extend_from_slice(&0u32.to_le_bytes()); // no bools
            payload.extend_from_slice(&0u64.to_le_bytes()); // no pipeline entries

            let mut bytes = Vec::new();
            bytes.extend_from_slice(MAGIC);
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            let sum = fnv128(&payload);
            bytes.extend_from_slice(&payload);
            bytes.extend_from_slice(&sum.to_le_bytes());

            let (replayed, _) = replay(&bytes).unwrap();
            assert!(
                replayed.solver.is_empty(),
                "numer={numer} denom={denom} must drop the record"
            );
        }
    }

    /// A delta record holding `Unsat` at fingerprint 8, then at 9 a model
    /// with one real per name in `reals` and one bool per name in
    /// `bools`, in the order given.
    fn delta_with_model(reals: &[&[u8]], bools: &[&[u8]]) -> Vec<u8> {
        let mut payload = vec![KIND_DELTA];
        payload.extend_from_slice(&2u64.to_le_bytes()); // two solver entries
        payload.extend_from_slice(&8u128.to_le_bytes());
        payload.push(0); // Unsat
        payload.extend_from_slice(&9u128.to_le_bytes());
        payload.push(1); // Sat with a model
        payload.push(0); // not spurious
        payload.extend_from_slice(&(reals.len() as u32).to_le_bytes());
        for name in reals {
            encode_bytes(&mut payload, name);
            payload.extend_from_slice(&1i128.to_le_bytes());
            payload.extend_from_slice(&2i128.to_le_bytes());
        }
        payload.extend_from_slice(&(bools.len() as u32).to_le_bytes());
        for name in bools {
            encode_bytes(&mut payload, name);
            payload.push(1);
        }
        payload.extend_from_slice(&0u64.to_le_bytes()); // no pipeline entries
        payload
    }

    /// A model record whose names are out of order, repeated or not UTF-8
    /// was sealed by a broken writer: replay ends there like at a torn
    /// record, keeping the records before it and nothing of it.
    #[test]
    fn checksum_valid_but_misordered_model_names_end_the_replay() {
        let base = sample_store();
        let base_payload = encode_record(
            KIND_BASE,
            base.solver.iter().collect(),
            base.pipeline.iter().collect(),
        );
        let base_len = base.encode().len() as u64;
        let ordered = delta_with_model(&[b"a", b"b"], &[b"p", b"q"]);
        let (replayed, kept) =
            replay(&log::image(MAGIC, &[&base_payload, &ordered]).unwrap()).unwrap();
        assert_eq!(kept.records, 2, "the well-formed delta is merged");
        let Some(MemoEntry::Model(model)) = replayed.solver.get(&Fingerprint(9)) else {
            panic!("the delta's model is loaded");
        };
        assert_eq!(model.to_string(), "a = 1/2, b = 1/2, p = true, q = true");

        for (why, reals, bools) in [
            ("reals out of order", &[&b"b"[..], b"a"][..], &[][..]),
            ("a real repeated", &[b"a", b"a"], &[]),
            ("a real not UTF-8", &[b"a", b"\xff"], &[]),
            ("bools out of order", &[b"a"], &[&b"q"[..], b"p"]),
            ("a bool repeated", &[], &[b"p", b"p"]),
        ] {
            let bad = delta_with_model(reals, bools);
            let image = log::image(MAGIC, &[&base_payload, &bad]).unwrap();
            let (replayed, kept) = replay(&image).unwrap();
            assert_eq!((kept.records, kept.valid_len), (1, base_len), "{why}");
            assert_eq!(replayed.solver, base.solver, "{why}: half-merged");
            assert_eq!(replayed.pipeline, base.pipeline, "{why}");
        }
    }

    /// Decoded models hold the interner's copy of each name: two models
    /// naming `x`, in one load or in two, share one `x`.
    #[test]
    fn decoded_models_share_each_name() {
        let mut store = VerdictStore::in_memory();
        let x = String::from("x"); // not the interned copy
        for (fp, value) in [(1, Rat::ONE), (2, Rat::ZERO)] {
            let x: &'static str = Box::leak(x.clone().into_boxed_str());
            let model = Model::new(vec![(x, value)], vec![(x, true)], false);
            store.solver_put(Fingerprint(fp), MemoEntry::Model(model.into()));
        }
        let image = store.encode();
        let (first, _) = replay(&image).unwrap();
        let (second, _) = replay(&image).unwrap();
        let interned = Symbol::intern("x").as_str();
        for replayed in [&first, &second] {
            for fp in [1, 2] {
                let Some(MemoEntry::Model(model)) = replayed.solver.get(&Fingerprint(fp)) else {
                    panic!("model {fp} is loaded");
                };
                assert!(std::ptr::eq(model.reals()[0].0, interned));
                assert!(std::ptr::eq(model.bools()[0].0, interned));
            }
        }
    }

    #[test]
    fn served_stamps_track_last_use_in_memory_only() {
        let mut store = VerdictStore::in_memory();
        let a = JobSpec::new("function A() returns o: num(0,0) { o := 0; }");
        let b = JobSpec::new("function B() returns o: num(0,0) { o := 0; }");
        let key = VerdictStore::job_key;
        // Stamping an absent entry is a no-op.
        store.stamp_served(&a, 1);
        assert!(store.served_stamps.is_empty());

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
        assert_eq!(
            store.served_stamps,
            HashMap::from([(key(&a), 1), (key(&b), 4)])
        );
        // A later serve moves an entry's stamp: `a` is now the newest.
        store.stamp_served(&a, 9);
        assert_eq!(
            store.served_stamps,
            HashMap::from([(key(&a), 9), (key(&b), 4)])
        );
    }

    #[test]
    fn lru_eviction_drops_the_coldest_entries_and_survives_reload() {
        let path = temp_path("evict");
        let mut store = VerdictStore::load(&path);
        let specs: Vec<JobSpec> = (0..4)
            .map(|i| JobSpec::new(format!("function F{i}() returns o: num(0,0) {{ o := 0; }}")))
            .collect();
        for (i, spec) in specs.iter().enumerate() {
            store.solver_put(Fingerprint(i as u128), MemoEntry::Unsat);
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
        // Stamps follow the entries out; the survivors keep their own.
        assert_eq!(
            store.served_stamps,
            HashMap::from([
                (VerdictStore::job_key(&specs[0]), 9),
                (VerdictStore::job_key(&specs[3]), 4),
            ])
        );

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
            store.solver_put(Fingerprint(i), MemoEntry::Unsat);
        }
        store.flush().unwrap(); // first flush: full rewrite (base)
        let base_len = store.log_bytes();
        assert_eq!(base_len, std::fs::metadata(&path).unwrap().len());

        // A one-entry delta costs one small record regardless of the 50
        // entries already in the log.
        store.solver_put(Fingerprint(1000), MemoEntry::Unsat);
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
        store.solver_put(Fingerprint(5), MemoEntry::Unsat);
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
        store.solver_put(Fingerprint(1), MemoEntry::Unsat);
        store.flush().unwrap();

        // Injected append failure: replace the backing file with a
        // directory, so opening for write fails.
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir(&path).unwrap();
        store.solver_put(Fingerprint(2), MemoEntry::Unsat);
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
        store.solver_put(Fingerprint(1), MemoEntry::Unsat);
        store.solver_put(Fingerprint(2), MemoEntry::Unsat);
        store.solver_put(Fingerprint(99), MemoEntry::Unsat);
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
        store.solver_put(Fingerprint(1), MemoEntry::Unsat);
        store.solver_put(Fingerprint(2), MemoEntry::Unsat);
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
