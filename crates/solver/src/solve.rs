//! The public solver API: a tableau-style search over the boolean structure
//! of normalized formulas with eager Fourier–Motzkin theory pruning, plus a
//! validity/satisfiability **memo table** keyed by structural fingerprints.
//!
//! # Query memoization
//!
//! Every query takes one path: a memo lookup, then — on a miss — one trail
//! search. The two query families differ only in their memo key and in
//! the state the search starts from:
//!
//! - `check`/`satisfiable`/`prove`/`entails` fold the input conjunction
//!   into a single hash-consed term and key the cache on that term's
//!   [`Fingerprint`] — a 128-bit structural hash that is identical for
//!   identical structure in *any* arena on *any* thread (see
//!   [`crate::term`]). A miss searches a fresh state; `prove` rides the
//!   same key through its refutation encoding.
//! - `prove_pushed`/`entails_pushed` key on the multiset of the open
//!   assumption frames' fingerprints plus the goal's, and a miss searches
//!   only the negated goal against the frames' shared saturated base.
//!
//! Queries also differ in what their caller reads of a `Sat` answer.
//! `satisfiable`, `entails` and `entails_pushed` read only the verdict:
//! their search answers `Sat` off its live incremental saturation, and
//! their entry holds no model ([`MemoEntry::Sat`]). `check`, `prove` and
//! `prove_pushed` read the model: their search runs one final
//! Fourier–Motzkin elimination to build it, and an entry without one is a
//! miss for them, solved again and upgraded to [`MemoEntry::Model`].
//!
//! Since the result of a query depends only on the formula's structure, a
//! repeated query — Houdini consecution rounds re-proving the surviving
//! candidates, typing rules re-discharging the same `Ψ ⊢ d == 0` side
//! conditions — is answered by one hash lookup instead of a fresh
//! normalize + search; and because the key carries no arena identity, a
//! [`QueryMemo`] can be **shared across solvers on different threads**, so
//! a parallel corpus driver warms one table for the whole fleet. Hits are
//! counted in [`SolverStats::cache_hits`]; [`Solver::without_memo`] opts
//! out (used by the microbenchmarks to pin the speedup).

use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use shadowdp_num::Rat;

use crate::fm::{check_sat, Constraint, FmResult, SatUndo, Saturation};
use crate::normalize::{Formula, Normalizer};
use crate::term::{with_shard, Fingerprint, Symbol, Term, TermArena, TermNode};
use crate::trail::{Trail, TrailOp};

/// Armed-only latency histograms for the two query outcomes (memo hit
/// vs. fresh solve), split as one `path`-labelled family. Disarmed —
/// the default, and the configuration the bench gate measures — every
/// query pays exactly one relaxed atomic load
/// ([`shadowdp_obs::armed`]); the member handles are cached so the
/// armed path is two clock reads plus three atomic adds, never a map
/// lookup.
static QUERY_LATENCY_US: shadowdp_obs::LazyFamily<shadowdp_obs::Histogram> = shadowdp_obs::LazyFamily::new(
    "shadowdp_solver_query_us",
    "Latency of solver validity queries by memo outcome (microseconds; collected while tracing is armed)",
    "path",
);

/// Forces registration of this crate's lazily-declared metrics so a
/// scrape shows the full schema before the first query runs (a daemon
/// serving everything from its store never touches the query path).
pub fn register_metrics() {
    QUERY_LATENCY_US.get();
}

fn query_hist(hit: bool) -> &'static shadowdp_obs::Histogram {
    static HIT: std::sync::OnceLock<&'static shadowdp_obs::Histogram> = std::sync::OnceLock::new();
    static FRESH: std::sync::OnceLock<&'static shadowdp_obs::Histogram> =
        std::sync::OnceLock::new();
    if hit {
        HIT.get_or_init(|| QUERY_LATENCY_US.with("hit"))
    } else {
        FRESH.get_or_init(|| QUERY_LATENCY_US.with("fresh"))
    }
}

/// A satisfying assignment.
///
/// # Layout
///
/// Two boxed slices of `(name, value)` pairs — the reals and the
/// booleans — each sorted by name in byte-lexicographic order, plus the
/// spurious flag. [`Model::reals`] and [`Model::bools`] iterate in that
/// order, [`fmt::Display`] renders in it, and the service's verdict store
/// encodes in it, so witnesses, report digests and store bytes depend on
/// a model's contents only, never on the order its names were interned.
/// Lookups ([`Model::real`], [`Model::bool`]) are binary searches.
///
/// On 64-bit targets a model of k reals and no booleans is one
/// allocation of 48·k bytes (an empty slice allocates nothing); inside
/// its `Arc` it costs one more, of 56 bytes.
///
/// # When one is built
///
/// Only for a caller that reads it: [`Solver::check`], [`Solver::prove`]
/// and [`Solver::prove_pushed`]. A verdict-only query answers `Sat`
/// without one (see [`MemoEntry`]), so most memo entries hold none.
///
/// # Names
///
/// Names are `&'static str`s from the solver's process-wide [`Symbol`]
/// interner, which already holds every name a query can mention, so a
/// model stores a pointer per name instead of its own copy: every model
/// that names `x` shares one `x`. The search converts its symbols once on
/// the way out, and a decoder reading models back interns each distinct
/// name once. Results carry a model as an `Arc<Model>`, shared rather
/// than copied (see [`CheckResult`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Model {
    reals: Box<[(&'static str, Rat)]>,
    bools: Box<[(&'static str, bool)]>,
    /// Whether a non-linear atom was abstracted during normalization; if
    /// so, this model may not satisfy the original (pre-abstraction)
    /// formula.
    pub possibly_spurious: bool,
}

impl Model {
    /// A model assigning `reals` and `bools`, each sorted by name here.
    /// The vectors become the model's slices, so one sized exactly (as
    /// `collect` from an exact-size iterator or `Vec::with_capacity`
    /// makes it) is kept without a copy. Names should come from the
    /// [`Symbol`] interner; any `&'static str` is correct, but only
    /// interned names are shared.
    ///
    /// # Panics
    ///
    /// If a name occurs twice among the reals or twice among the
    /// booleans.
    pub fn new(
        mut reals: Vec<(&'static str, Rat)>,
        mut bools: Vec<(&'static str, bool)>,
        possibly_spurious: bool,
    ) -> Model {
        reals.sort_unstable_by_key(|(name, _)| *name);
        bools.sort_unstable_by_key(|(name, _)| *name);
        assert!(
            names_increase(&reals) && names_increase(&bools),
            "a model assigns each name once"
        );
        Model {
            reals: reals.into_boxed_slice(),
            bools: bools.into_boxed_slice(),
            possibly_spurious,
        }
    }

    /// Value of a real variable, defaulting to zero (solver models are
    /// partial on variables that ended up unconstrained).
    pub fn real(&self, name: &str) -> Rat {
        lookup(&self.reals, name).unwrap_or(Rat::ZERO)
    }

    /// Value of a boolean variable, defaulting to `false`.
    pub fn bool(&self, name: &str) -> bool {
        lookup(&self.bools, name).unwrap_or(false)
    }

    /// The real variables this model assigns, in name order.
    pub fn reals(&self) -> &[(&'static str, Rat)] {
        &self.reals
    }

    /// The boolean variables this model assigns, in name order.
    pub fn bools(&self) -> &[(&'static str, bool)] {
        &self.bools
    }
}

/// Whether each name in `pairs` is greater than the one before it.
fn names_increase<T>(pairs: &[(&'static str, T)]) -> bool {
    pairs.windows(2).all(|w| w[0].0 < w[1].0)
}

/// The value `name` has in a name-sorted slice.
fn lookup<T: Copy>(pairs: &[(&'static str, T)], name: &str) -> Option<T> {
    let at = pairs.binary_search_by(|(k, _)| (*k).cmp(name)).ok()?;
    Some(pairs[at].1)
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, v) in &self.reals {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{k} = {v}")?;
            first = false;
        }
        for (k, v) in &self.bools {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{k} = {v}")?;
            first = false;
        }
        if self.possibly_spurious {
            write!(f, " (possibly spurious)")?;
        }
        Ok(())
    }
}

/// Result of a satisfiability check that reads the model.
///
/// A model is allocated once, by the search that found it or by the
/// decoder that read it from disk, and shared from then on: cloning a
/// result — a memo hit, the memo's insert, [`QueryMemo::snapshot`] and
/// [`QueryMemo::drain_dirty`] — bumps a reference count instead of
/// copying the model's maps. (The memo itself holds [`MemoEntry`]s,
/// which may lack a model.)
#[derive(Clone, Debug, PartialEq)]
pub enum CheckResult {
    /// A model was found.
    Sat(Arc<Model>),
    /// No model exists (sound even when abstraction occurred).
    Unsat,
}

impl CheckResult {
    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, CheckResult::Sat(_))
    }
}

/// What a [`QueryMemo`] holds for one query: its verdict, and its model
/// once some caller has read one.
///
/// Most queries want only the verdict — [`Solver::entails`],
/// [`Solver::entails_pushed`] and [`Solver::satisfiable`] — and their
/// search answers `Sat` from its live incremental saturation without
/// building a model, so their entry is a bare [`MemoEntry::Sat`]. A query
/// that reads the model ([`Solver::check`], [`Solver::prove`],
/// [`Solver::prove_pushed`]) treats a bare `Sat` as a miss: it solves the
/// query again, building the same model a fresh solve would, and upgrades
/// the entry to [`MemoEntry::Model`]. An entry is never downgraded.
#[derive(Clone, Debug, PartialEq)]
pub enum MemoEntry {
    /// No model exists.
    Unsat,
    /// A model exists, but none was built.
    Sat,
    /// A model exists, and this is the one a model-reading query built
    /// (shared, as in [`CheckResult`]).
    Model(Arc<Model>),
}

impl MemoEntry {
    /// Whether the query is satisfiable, with or without a model.
    pub fn is_sat(&self) -> bool {
        !matches!(self, MemoEntry::Unsat)
    }

    /// The model, if the entry holds one.
    pub fn model(&self) -> Option<&Arc<Model>> {
        match self {
            MemoEntry::Model(model) => Some(model),
            _ => None,
        }
    }

    /// Whether this entry should replace `old` under the same key: only a
    /// model replacing a bare `Sat`. Any other pair holds the same verdict
    /// (a query's answer depends on its structure alone), so the entry
    /// already there stays, and a model is never dropped for a bare
    /// verdict.
    pub fn upgrades(&self, old: &MemoEntry) -> bool {
        matches!((old, self), (MemoEntry::Sat, MemoEntry::Model(_)))
    }

    /// The answer of a query that reads the model, which always gets one.
    fn into_check_result(self) -> CheckResult {
        match self {
            MemoEntry::Unsat => CheckResult::Unsat,
            MemoEntry::Model(model) => CheckResult::Sat(model),
            MemoEntry::Sat => unreachable!("a model-reading query builds its model"),
        }
    }
}

/// What a query's caller reads of a satisfiable answer. Threaded from the
/// public entry points through [`Solver::memoized`], [`Solver::search`]
/// and [`TrailSearch::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Want {
    /// Only the verdict: a `Sat` answer is read off the live saturation,
    /// with no final elimination and no model.
    Verdict,
    /// The model too: a `Sat` answer runs one final [`check_sat`] over the
    /// branch's constraints and builds a [`Model`] from it.
    Model,
}

/// Result of a validity check (`prove`). A refutation shares its model
/// with the memo entry it came from (see [`CheckResult`]).
#[derive(Clone, Debug, PartialEq)]
pub enum ProveResult {
    /// The implication is valid.
    Proved,
    /// A countermodel to the implication was found. If
    /// [`Model::possibly_spurious`] is set, the goal may still be valid
    /// (abstraction lost precision) — callers must treat this as "unknown",
    /// never as "proved".
    Refuted(Arc<Model>),
}

impl ProveResult {
    /// Whether the result is `Proved`.
    pub fn is_proved(&self) -> bool {
        matches!(self, ProveResult::Proved)
    }

    /// A definite counterexample, if the refutation is trustworthy.
    pub fn counterexample(&self) -> Option<&Model> {
        match self {
            ProveResult::Refuted(m) if !m.possibly_spurious => Some(m.as_ref()),
            _ => None,
        }
    }
}

/// Cumulative statistics, for the Table 1 harness and the pipeline report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of `check` queries answered (including cache hits).
    pub checks: u64,
    /// Number of `prove` queries answered.
    pub proves: u64,
    /// Number of theory (Fourier–Motzkin) calls: one per atom cascaded
    /// into a saturation, plus one per model-building final [`check_sat`].
    /// A verdict-only `Sat`, read off the live saturation, runs no
    /// elimination and adds none.
    pub theory_calls: u64,
    /// Total solver time in nanoseconds, each query's time added whole,
    /// so a memo hit (well under a microsecond) still counts.
    pub nanos: u64,
    /// Total solver time in microseconds: `nanos / 1000`.
    pub micros: u64,
    /// Queries answered from the memo table without a search.
    pub cache_hits: u64,
    /// Assumption-set-keyed entailment queries ([`Solver::prove_pushed`])
    /// answered, including memo hits. These are also counted in
    /// `checks`/`proves`/`cache_hits`; the separate counters exist so the
    /// Houdini engine's per-candidate consecution hit rate is observable on
    /// its own.
    pub assumption_queries: u64,
    /// Assumption-set-keyed entailment queries answered from the memo.
    pub assumption_hits: u64,
    /// Reversible ops recorded on search trails (worklist pops/pushes,
    /// boolean binds, incremental constraint saturations). A measure of
    /// raw search volume, independent of theory cost.
    pub trail_ops: u64,
    /// Deepest decision-level (disjunction) nesting any single search
    /// reached.
    pub max_trail_depth: u64,
    /// Theory steps served by *extending* an already-populated incremental
    /// saturation — the re-saturation work the trail core avoids.
    pub saturation_reuses: u64,
    /// Full from-scratch Fourier–Motzkin saturations: one per `Sat`
    /// search whose caller reads the model, to build it. A verdict-only
    /// `Sat` runs none.
    pub resaturations: u64,
}

impl SolverStats {
    /// Fraction of assumption-set-keyed entailment queries answered from
    /// the memo (`None` when no such query was asked). This is the
    /// consecution hit rate the per-candidate Houdini keying exists for.
    pub fn assumption_hit_rate(&self) -> Option<f64> {
        if self.assumption_queries == 0 {
            None
        } else {
            Some(self.assumption_hits as f64 / self.assumption_queries as f64)
        }
    }

    /// Fraction of saturation work served incrementally — pushes onto a
    /// live saturation over all saturation events (`None` before any
    /// theory work). The bench gate's Houdini narrow-check invariant reads
    /// this: a pushed-assumption round should extend its shared base far
    /// more often than it re-saturates.
    pub fn saturation_reuse_rate(&self) -> Option<f64> {
        let total = self.saturation_reuses + self.resaturations;
        if total == 0 {
            None
        } else {
            Some(self.saturation_reuses as f64 / total as f64)
        }
    }
}

/// A resource budget for a solver: a wall-clock deadline and/or a cap on
/// theory (Fourier–Motzkin) steps, shared by every query the solver runs
/// until the budget is cleared.
///
/// Budgets make a pathological query **bounded instead of hanging**: when
/// either limit trips mid-search, the search aborts, the solver records a
/// sticky exhaustion reason ([`Solver::exhausted`]), and the query — plus
/// every later query until [`Solver::clear_budget`]/[`Solver::set_budget`]
/// resets the state — returns a *possibly-spurious* `Sat`. That degradation
/// is sound by the same argument as non-linear abstraction: exhaustion only
/// ever turns would-be answers into "maybe Sat", so `Unsat` (and therefore
/// `Proved`) can never be produced by a budget trip. Exhausted results are
/// **never memoized** — the memo holds only verdicts that were actually
/// computed, so a later run with a larger budget starts clean.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock allowance, measured from [`Solver::set_budget`].
    pub deadline: Option<Duration>,
    /// Total theory-call allowance across all queries under this budget.
    pub max_theory_calls: Option<u64>,
}

impl Budget {
    /// A budget with only a wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> Budget {
        Budget {
            deadline: Some(deadline),
            max_theory_calls: None,
        }
    }

    /// A budget with only a theory-call cap.
    pub fn with_theory_calls(max: u64) -> Budget {
        Budget {
            deadline: None,
            max_theory_calls: Some(max),
        }
    }
}

/// Live countdown state for an installed [`Budget`] (both fields `None`
/// when unlimited). A copy taken at the start of an operation is the
/// window that operation runs under.
#[derive(Clone, Copy, Debug, Default)]
struct BudgetState {
    deadline: Option<Instant>,
    calls_left: Option<u64>,
}

impl BudgetState {
    /// Why one more theory call, after `spent` calls in the current
    /// operation, would overrun this window — checked before every theory
    /// step, so trip timing (and every budget-pinning test) is exact.
    fn tripped(&self, spent: u64) -> Option<String> {
        if let Some(cap) = self.calls_left {
            if spent >= cap {
                return Some(format!("theory-call budget exhausted (cap {cap})"));
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some("deadline exceeded".to_string());
            }
        }
        None
    }
}

/// Number of lock shards in a [`QueryMemo`]. A power of two so the shard
/// index is a mask of the fingerprint's low bits; 16 comfortably exceeds
/// the worker counts of CI-class machines, so two workers touching the
/// same shard at the same instant is the exception, not the rule.
const MEMO_SHARDS: usize = 16;

/// A validity/satisfiability memo table, shareable across solvers and
/// threads.
///
/// Keys are structural [`Fingerprint`]s of whole query conjunctions, so an
/// entry written by a solver on one thread (against its own arena shard)
/// answers the structurally identical query from any other thread. The
/// table is split into `MEMO_SHARDS` fingerprint-hashed lock shards:
/// queries hold one shard's lock only for the lookup or the insert, never
/// across a solve, and two workers contend only when their queries land in
/// the same shard — so the hit path stays constant-time as worker counts
/// grow (a daemon serving a batched corpus hammers this path from every
/// core at once). Fingerprints are already uniformly mixed 128-bit hashes,
/// so the low bits are an adequate shard index.
///
/// [`Solver::new`] gives each solver a private table; a corpus driver that
/// wants cross-thread reuse creates one with [`QueryMemo::default`] inside
/// an [`Arc`] and hands clones to [`Solver::with_memo`]. For persistence,
/// [`QueryMemo::snapshot`] exports every entry in deterministic order and
/// [`QueryMemo::absorb`] merges entries back in; a long-lived process that
/// flushes incrementally instead drains only what changed with
/// [`QueryMemo::drain_dirty`] — the trio is the contract the service
/// crate's disk-backed verdict store is built on.
#[derive(Debug)]
pub struct QueryMemo {
    shards: Vec<Mutex<MemoShard>>,
}

/// One lock shard: the entry map plus the fingerprints *solved into* it
/// since the last [`QueryMemo::drain_dirty`]. Only fresh solves
/// ([`QueryMemo::insert`]) land in `dirty` — entries merged back from a
/// persisted snapshot ([`QueryMemo::absorb`]) are by definition already on
/// disk and must not be re-flushed.
#[derive(Debug, Default)]
struct MemoShard {
    entries: HashMap<Fingerprint, MemoEntry>,
    dirty: Vec<Fingerprint>,
}

impl Default for QueryMemo {
    fn default() -> QueryMemo {
        QueryMemo {
            shards: (0..MEMO_SHARDS)
                .map(|_| Mutex::new(MemoShard::default()))
                .collect(),
        }
    }
}

/// Locks one memo shard. Poison-tolerant: every critical section is a
/// single map operation, so a panic on another thread cannot leave a
/// shard half-updated.
fn lock(shard: &Mutex<MemoShard>) -> MutexGuard<'_, MemoShard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The shard a key lives in.
fn shard_index(key: Fingerprint) -> usize {
    (key.0 as usize) & (MEMO_SHARDS - 1)
}

impl QueryMemo {
    fn shard(&self, key: Fingerprint) -> MutexGuard<'_, MemoShard> {
        lock(&self.shards[shard_index(key)])
    }

    /// Number of memoized queries, summed across shards. Consistent when
    /// quiescent; during concurrent inserts it is a lower bound on the
    /// entries any later reader will see (each shard is counted atomically).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).entries.len()).sum()
    }

    /// Whether the table is empty (every shard is).
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| lock(s).entries.is_empty())
    }

    /// Exports every memoized entry, sorted by fingerprint so the result
    /// is deterministic regardless of shard layout or insertion order —
    /// the persistence tier hashes serialized snapshots, so order matters.
    pub fn snapshot(&self) -> Vec<(Fingerprint, MemoEntry)> {
        let mut out: Vec<(Fingerprint, MemoEntry)> = self
            .shards
            .iter()
            .flat_map(|s| {
                lock(s)
                    .entries
                    .iter()
                    .map(|(k, v)| (*k, v.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Exports the entries *solved since the last drain* (or since the
    /// table was created), sorted by fingerprint and deduplicated, and
    /// resets the dirty tracking. This is the incremental sibling of
    /// [`QueryMemo::snapshot`]: a daemon that appends delta records to its
    /// verdict log after every batch calls this instead of re-exporting
    /// the whole table, so flush cost tracks the batch, not the table.
    ///
    /// Entries merged in with [`QueryMemo::absorb`] are never dirty (they
    /// came *from* persistence); only fresh solves are. Each exported
    /// model is the memo's own allocation, so a store that keeps the
    /// delta holds no second copy.
    pub fn drain_dirty(&self) -> Vec<(Fingerprint, MemoEntry)> {
        let mut out: Vec<(Fingerprint, MemoEntry)> = Vec::new();
        for shard in &self.shards {
            let mut shard = lock(shard);
            let dirty = std::mem::take(&mut shard.dirty);
            for key in dirty {
                if let Some(value) = shard.entries.get(&key) {
                    out.push((key, value.clone()));
                }
            }
        }
        out.sort_by_key(|(k, _)| *k);
        // A key marked twice since the last drain (a bare `Sat`, then its
        // upgrade) exports once, with its current entry.
        out.dedup_by_key(|(k, _)| *k);
        out
    }

    /// Merges entries (e.g. a [`QueryMemo::snapshot`] loaded from disk)
    /// into the table. Existing entries win, unless the incoming one
    /// [upgrades](MemoEntry::upgrades) a bare `Sat` with its model: a live
    /// table's verdicts were computed by this process and never need
    /// overwriting — and results are structural, so a disagreement is
    /// impossible short of a corrupted snapshot, which must not clobber
    /// good entries.
    ///
    /// The entries are grouped by shard first, so a start-up warm-up takes
    /// each shard's lock once and grows its map once, not per entry.
    pub fn absorb(&self, entries: impl IntoIterator<Item = (Fingerprint, MemoEntry)>) {
        let mut batches: Vec<Vec<(Fingerprint, MemoEntry)>> = vec![Vec::new(); MEMO_SHARDS];
        for (key, value) in entries {
            batches[shard_index(key)].push((key, value));
        }
        for (shard, batch) in self.shards.iter().zip(batches) {
            if batch.is_empty() {
                continue;
            }
            let mut shard = lock(shard);
            shard.entries.reserve(batch.len());
            for (key, value) in batch {
                shard.put(key, value);
            }
        }
    }

    /// Looks up one memoized entry. Public for the persistence layer:
    /// a verdict store healing a dangling dependency (an entry a
    /// compaction dropped but a later job turned out to need) re-reads it
    /// from the live memo by fingerprint. A hit on a model hands out the
    /// entry's allocation, so the shard lock is held for a
    /// reference-count bump, not a copy of the model.
    pub fn get(&self, key: Fingerprint) -> Option<MemoEntry> {
        self.shard(key).entries.get(&key).cloned()
    }

    /// Records a fresh solve, marking the key dirty if the entry changed:
    /// a new key, or a bare `Sat` upgraded with its model. A verdict-only
    /// insert racing a model-reading one on another thread never drops
    /// the model, whichever lands last.
    fn insert(&self, key: Fingerprint, value: MemoEntry) {
        let mut shard = self.shard(key);
        if shard.put(key, value) {
            shard.dirty.push(key);
        }
    }
}

impl MemoShard {
    /// Stores `value` under `key` if the key is new or `value`
    /// [upgrades](MemoEntry::upgrades) its entry; whether it did.
    fn put(&mut self, key: Fingerprint, value: MemoEntry) -> bool {
        match self.entries.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(value);
                true
            }
            Entry::Occupied(mut slot) if value.upgrades(slot.get()) => {
                slot.insert(value);
                true
            }
            Entry::Occupied(_) => false,
        }
    }
}

/// The QF-LRA solver.
///
/// Holds only statistics and a handle to a query memo table between
/// queries; cheap to create. (`Solver` is not `Sync`: create one per
/// thread. The [`QueryMemo`] *is* shareable across threads, and terms
/// rebuilt on another thread's arena shard hit the same entries because
/// keys are structural fingerprints.)
///
/// # Examples
///
/// ```
/// use shadowdp_solver::{Solver, Term};
/// let s = Solver::new();
/// let x = Term::real_var("x");
/// // x <= 1 ∧ x >= 2 is unsatisfiable
/// let r = s.check(&[x.le(Term::int(1)), x.ge(Term::int(2))]);
/// assert!(!r.is_sat());
/// ```
#[derive(Debug)]
pub struct Solver {
    stats: Cell<SolverStats>,
    memo: Arc<QueryMemo>,
    memo_enabled: bool,
    /// Fingerprints of every memoized query this solver asked (hit or
    /// fresh solve), in ask order. The verification service records these
    /// per job as the pipeline-tier entry's solver-tier dependencies, so
    /// store compaction can prove which solver verdicts are still
    /// reachable from some persisted job. Empty while the memo is
    /// disabled (no fingerprints are computed at all on that path).
    touched: RefCell<Vec<Fingerprint>>,
    /// Countdown state of the installed [`Budget`].
    budget: Cell<BudgetState>,
    /// Why the budget ran out, once it has: set on the first trip, cleared
    /// only by [`Solver::set_budget`]/[`Solver::clear_budget`]. While set,
    /// every fresh solve short-circuits to a possibly-spurious `Sat` and
    /// nothing is memoized.
    exhausted: RefCell<Option<String>>,
    /// Open assumption frames ([`Solver::push_assumptions`]), innermost
    /// last. Terms are recorded eagerly but normalized and absorbed into
    /// the shared saturation lazily, on the first pushed query that misses
    /// the memo — a fully warm run never pays theory work for its bases.
    frames: RefCell<Vec<AssumptionFrame>>,
    /// The shared incremental context pushed queries run against: `None`
    /// until a query materializes a frame, dropped when the last frame is
    /// popped.
    actx: RefCell<Option<AssumptionCtx>>,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver with a private memo table (memoization on).
    pub fn new() -> Solver {
        Solver::with_memo(Arc::new(QueryMemo::default()))
    }

    /// Creates a solver backed by a caller-provided (possibly shared) memo
    /// table.
    pub fn with_memo(memo: Arc<QueryMemo>) -> Solver {
        Solver {
            stats: Cell::new(SolverStats::default()),
            memo,
            memo_enabled: true,
            touched: RefCell::new(Vec::new()),
            budget: Cell::new(BudgetState::default()),
            exhausted: RefCell::new(None),
            frames: RefCell::new(Vec::new()),
            actx: RefCell::new(None),
        }
    }

    /// Creates a solver with the query memo table disabled (every query
    /// runs the full normalize + search pipeline; used for benchmarking the
    /// uncached path).
    pub fn without_memo() -> Solver {
        Solver {
            memo_enabled: false,
            ..Solver::new()
        }
    }

    /// Installs a resource budget covering every query from now on. The
    /// deadline clock starts here. Replaces any previous budget and clears
    /// any previous exhaustion.
    pub fn set_budget(&self, budget: Budget) {
        self.budget.set(BudgetState {
            deadline: budget.deadline.map(|d| Instant::now() + d),
            calls_left: budget.max_theory_calls,
        });
        *self.exhausted.borrow_mut() = None;
    }

    /// Removes the budget and clears any exhaustion, restoring unlimited
    /// operation.
    pub fn clear_budget(&self) {
        self.set_budget(Budget::default());
    }

    /// Why the installed budget ran out, if it has. Sticky until the
    /// budget is reset; while set, every fresh solve returns a
    /// possibly-spurious `Sat` without searching (memo hits are still
    /// served — they are complete verdicts and cost nothing).
    pub fn exhausted(&self) -> Option<String> {
        self.exhausted.borrow().clone()
    }

    /// Records the first exhaustion reason (later trips keep the first).
    fn mark_exhausted(&self, reason: String) {
        let mut slot = self.exhausted.borrow_mut();
        if slot.is_none() {
            *slot = Some(reason);
        }
    }

    /// The memo table this solver reads and writes.
    pub fn memo(&self) -> &Arc<QueryMemo> {
        &self.memo
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats.get()
    }

    /// Applies one update to the accumulated statistics.
    fn bump(&self, update: impl FnOnce(&mut SolverStats)) {
        let mut stats = self.stats.get();
        update(&mut stats);
        self.stats.set(stats);
    }

    /// The fingerprints of every memoized query asked so far, sorted and
    /// deduplicated. A solver that served one verification job yields
    /// exactly that job's solver-tier dependency set (the service's store
    /// compaction keeps a persisted solver verdict alive iff some
    /// pipeline-tier entry lists it here). A solver reused across several
    /// runs yields the union, which over-approximates — safe for
    /// reachability (entries are only ever *kept* longer).
    pub fn touched_fingerprints(&self) -> Vec<Fingerprint> {
        let mut out = self.touched.borrow().clone();
        out.sort();
        out.dedup();
        out
    }

    /// Checks satisfiability of the conjunction of `terms` (thread shard),
    /// with a model when it is satisfiable.
    pub fn check(&self, terms: &[Term]) -> CheckResult {
        with_shard(|arena| self.check_in(arena, terms))
    }

    /// [`Solver::check`] against an explicit arena: `terms` must have been
    /// built by `arena`. Cached results are keyed by the conjunction's
    /// structural fingerprint, so a different arena that interned the same
    /// structure shares entries — and arenas with different contents can
    /// never alias.
    pub fn check_in(&self, arena: &mut TermArena, terms: &[Term]) -> CheckResult {
        self.query_in(arena, terms, Want::Model).into_check_result()
    }

    /// Whether the conjunction of `terms` is satisfiable (thread shard):
    /// [`Solver::check`] for a caller that reads only the verdict, so no
    /// model is built. An exhausted budget answers `true`, as `check`'s
    /// possibly-spurious `Sat` does.
    pub fn satisfiable(&self, terms: &[Term]) -> bool {
        with_shard(|arena| self.query_in(arena, terms, Want::Verdict)).is_sat()
    }

    /// The one monolithic-key query: the memo entry for the conjunction of
    /// `terms`, solved on a miss for what `want` reads.
    fn query_in(&self, arena: &mut TermArena, terms: &[Term], want: Want) -> MemoEntry {
        let start = Instant::now();
        // The cache key is the fingerprint of a *raw* n-ary And intern —
        // one O(n) hash of the child ids, not the O(n²) smart-constructor
        // fold (the fold clones the accumulated child vector per conjunct).
        // Raw keys are slightly finer than folded ones (slices that would
        // fold identically can key apart), which costs at most a duplicate
        // entry, never a wrong answer; the hot Houdini repeats pass
        // bit-identical slices anyway. Key construction is skipped entirely
        // with the memo off, so a memo-less solver never grows the arena
        // with key nodes.
        let folded = self.memo_enabled.then(|| match terms {
            [] => arena.bool_const(true),
            [t] => *t,
            _ => arena.intern(TermNode::And(terms.to_vec())),
        });
        let key = folded.map(|t| arena.fingerprint(t));
        self.memoized(key, false, want, start, || {
            // A fresh state over the normalized conjunction: the key's
            // folded And normalizes as one formula; without a key the terms
            // normalize one by one.
            let mut norm = Normalizer::new();
            let formulas: Vec<Formula> = match folded {
                Some(t) => vec![norm.normalize(arena, t, true)],
                None => terms
                    .iter()
                    .map(|t| norm.normalize(arena, *t, true))
                    .collect(),
            };
            self.search(formulas.iter().collect(), None, norm.abstracted, want)
        })
    }

    /// Attempts to prove `assumptions ⊢ goal` by refutation: checks
    /// `assumptions ∧ ¬goal` for unsatisfiability, with a countermodel
    /// when it is satisfiable.
    pub fn prove(&self, assumptions: &[Term], goal: &Term) -> ProveResult {
        refutation(self.refute(assumptions, goal, Want::Model))
    }

    /// Whether `assumptions ⊢ goal` holds: [`Solver::prove`] for a caller
    /// that reads only the verdict, so no countermodel is built.
    pub fn entails(&self, assumptions: &[Term], goal: &Term) -> bool {
        self.refute(assumptions, goal, Want::Verdict) == MemoEntry::Unsat
    }

    /// Counts one `prove`-family query and checks `assumptions ∧ ¬goal`.
    fn refute(&self, assumptions: &[Term], goal: &Term, want: Want) -> MemoEntry {
        self.bump(|s| s.proves += 1);
        with_shard(|arena| {
            let mut terms: Vec<Term> = assumptions.to_vec();
            terms.push(arena.not(*goal));
            self.query_in(arena, &terms, want)
        })
    }

    /// Opens an assumption frame: every subsequent [`Solver::prove_pushed`]
    /// / [`Solver::entails_pushed`] query runs under the conjunction of all
    /// open frames, until the matching [`Solver::pop_assumptions`]. Frames
    /// nest (strictly LIFO).
    ///
    /// Recording is free: terms are normalized and absorbed into the
    /// shared incremental saturation only when a pushed query actually
    /// misses the memo, so warm workloads — every consecution verdict
    /// already persisted — never pay any theory work for their bases.
    ///
    /// The Houdini engine is the motivating caller: it pushes one frame
    /// with the candidate-independent slice of a path condition, then per
    /// candidate pushes the narrow Δ, queries, and pops — the shared base
    /// is saturated once per round instead of re-proved inside every
    /// query.
    pub fn push_assumptions(&self, terms: &[Term]) {
        self.frames.borrow_mut().push(AssumptionFrame {
            terms: terms.to_vec(),
            materialized: None,
        });
    }

    /// Closes the innermost assumption frame, rolling its materialized
    /// state (bool bindings, constraints, saturation steps, disjunctive
    /// seeds) back out of the shared context.
    ///
    /// # Panics
    ///
    /// Panics if no frame is open.
    pub fn pop_assumptions(&self) {
        let frame = self
            .frames
            .borrow_mut()
            .pop()
            .expect("pop_assumptions without an open frame");
        if let Some(undo) = frame.materialized {
            let mut actx = self.actx.borrow_mut();
            let ctx = actx
                .as_mut()
                .expect("a materialized frame implies a live context");
            strip_frame(ctx, undo);
        }
        if self.frames.borrow().is_empty() {
            // Dropping the context with the last frame also drops the
            // shared normalizer, so abstraction symbols cannot accumulate
            // across unrelated assumption scopes.
            *self.actx.borrow_mut() = None;
        }
    }

    /// Attempts to prove `frames ⊢ goal`, where `frames` is the
    /// conjunction of every open assumption frame, by refuting
    /// `frames ∧ ¬goal`.
    ///
    /// The memo key is the **multiset of the individual assumption
    /// fingerprints** across all open frames, plus the goal fingerprint —
    /// not the fingerprint of one monolithic conjunction term. A multiset
    /// key is insensitive to assumption order, frame grouping, and
    /// surrounding context, so a re-asked entailment is a memo hit. The
    /// Houdini engine is the motivating caller: each candidate's
    /// consecution obligation is keyed by the assumptions *it* is checked
    /// under, so a round whose candidate set shrank re-uses every verdict
    /// for candidates whose own assumption sets are unchanged.
    ///
    /// Entries land in the same [`QueryMemo`] as `check`/`prove` queries
    /// (the key is domain-separated so the two families cannot collide),
    /// so they snapshot, absorb, drain, and persist through the
    /// verification service's store exactly like them. Hits and totals are
    /// also counted in [`SolverStats::assumption_hits`] /
    /// [`SolverStats::assumption_queries`].
    ///
    /// On a miss, the frames' conjunctive parts live in one shared
    /// incremental saturation; only the negated goal (plus any disjunctive
    /// assumption residue) is searched per query, and the trail unwinds the
    /// shared state back to the base afterwards.
    pub fn prove_pushed(&self, goal: &Term) -> ProveResult {
        refutation(self.refute_pushed(goal, Want::Model))
    }

    /// Whether the pushed assumption frames entail `goal`:
    /// [`Solver::prove_pushed`] for a caller that reads only the verdict,
    /// so no countermodel is built.
    pub fn entails_pushed(&self, goal: &Term) -> bool {
        self.refute_pushed(goal, Want::Verdict) == MemoEntry::Unsat
    }

    /// Counts one `prove`-family query and checks `frames ∧ ¬goal` under
    /// its assumption-set key.
    fn refute_pushed(&self, goal: &Term, want: Want) -> MemoEntry {
        let start = Instant::now();
        self.bump(|s| s.proves += 1);
        with_shard(|arena| {
            let key = self.memo_enabled.then(|| {
                let frames = self.frames.borrow();
                let flat: Vec<Term> = frames
                    .iter()
                    .flat_map(|f| f.terms.iter().copied())
                    .collect();
                assumption_set_key(arena, &flat, *goal)
            });
            self.memoized(key, true, want, start, || {
                self.search_pushed(arena, goal, want)
            })
        })
    }

    /// The one memoized query path, shared by both key families. Records
    /// `key` as a dependency and answers from the memo when it can;
    /// otherwise the answer is the degraded placeholder
    /// ([`Solver::degraded`]) or `solve`'s verdict, and only a verdict —
    /// never an exhaustion placeholder — is memoized. An entry with no
    /// model cannot answer a caller that reads one: that is a miss, and
    /// the fresh solve's model upgrades the entry. Counts the query in
    /// `checks`/`cache_hits` (and `assumption_*` for the assumption-set
    /// family) and its latency in `nanos` (and so `micros`) and the armed
    /// histogram.
    fn memoized(
        &self,
        key: Option<Fingerprint>,
        assumption_set: bool,
        want: Want,
        start: Instant,
        solve: impl FnOnce() -> MemoEntry,
    ) -> MemoEntry {
        let hit = key
            .and_then(|fp| {
                self.touched.borrow_mut().push(fp);
                self.memo.get(fp)
            })
            .filter(|entry| want == Want::Verdict || *entry != MemoEntry::Sat);
        let is_hit = hit.is_some();
        let out = hit.unwrap_or_else(|| {
            let out = self.degraded().unwrap_or_else(solve);
            // A result produced under (or after) budget exhaustion is a
            // placeholder, not a verdict — memoizing it would poison every
            // later run, including ones with a larger budget.
            if let Some(fp) = key {
                if self.exhausted.borrow().is_none() {
                    self.memo.insert(fp, out.clone());
                }
            }
            out
        });
        let elapsed = start.elapsed();
        self.bump(|s| {
            s.checks += 1;
            s.cache_hits += u64::from(is_hit);
            s.nanos += elapsed.as_nanos() as u64;
            s.micros = s.nanos / 1000;
            if assumption_set {
                s.assumption_queries += 1;
                s.assumption_hits += u64::from(is_hit);
            }
        });
        if shadowdp_obs::armed() {
            query_hist(is_hit).observe(elapsed.as_micros() as u64);
        }
        out
    }

    /// The answer a memo miss gets without searching, if any: once the
    /// budget tripped, later queries must not burn what little may remain
    /// of the deadline, so they get the sound possibly-spurious `Sat`
    /// placeholder at once. The `solver.step` fault-injection site also
    /// lives here: `Panic` models a logic bug inside the solver (the corpus
    /// driver's isolation must contain it), `Delay` a pathological query,
    /// `Hold` a query a test releases when it chooses, and `Error`/torn
    /// faults degrade to budget exhaustion — bounded, reportable, never a
    /// wrong verdict.
    fn degraded(&self) -> Option<MemoEntry> {
        if self.exhausted.borrow().is_some() {
            return Some(exhausted_placeholder());
        }
        match shadowdp_fault::check("solver.step") {
            None => None,
            Some(shadowdp_fault::FaultKind::Panic) => panic!("injected panic at solver.step"),
            Some(shadowdp_fault::FaultKind::Delay { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
                None
            }
            Some(shadowdp_fault::FaultKind::Hold(gate)) => {
                gate.hold();
                None
            }
            Some(_) => {
                self.mark_exhausted("injected solver fault".to_string());
                Some(exhausted_placeholder())
            }
        }
    }

    /// The one search path: a trail search for `pending` over the `shared`
    /// frame base, or over a fresh state when there is none, under the
    /// budget window as it stands, building a model only if `want` reads
    /// one. Charges the search's theory work and folds its trail counters
    /// into the stats. A shared base is unwound back to exactly what it
    /// was, so it survives for the next pushed query; a fresh one is
    /// simply dropped.
    fn search(
        &self,
        pending: Vec<&Formula>,
        shared: Option<&mut SearchBase>,
        abstracted: bool,
        want: Want,
    ) -> MemoEntry {
        let unwind = shared.is_some();
        let mut fresh = SearchBase::default();
        let base = shared.unwrap_or(&mut fresh);
        let mut search = TrailSearch::new(pending, base, self.budget.get());
        let outcome = search.run(want);
        if unwind {
            search.unwind_all();
        }
        self.charge(search.theory_calls);
        self.bump(|s| {
            s.trail_ops += search.trail.ops_total();
            s.max_trail_depth = s.max_trail_depth.max(search.trail.max_depth());
            s.saturation_reuses += search.saturation_reuses;
            s.resaturations += search.resaturations;
        });
        match outcome {
            SearchOutcome::Exhausted(reason) => {
                self.mark_exhausted(reason);
                exhausted_placeholder()
            }
            SearchOutcome::Model(reals, bools) => MemoEntry::Model(Arc::new(Model::new(
                reals.into_iter().map(|(k, v)| (k.as_str(), v)).collect(),
                bools.into_iter().map(|(k, v)| (k.as_str(), v)).collect(),
                abstracted,
            ))),
            SearchOutcome::Sat => MemoEntry::Sat,
            SearchOutcome::Unsat => MemoEntry::Unsat,
        }
    }

    /// Charges `spent` theory calls to the budget and the stats.
    fn charge(&self, spent: u64) {
        let mut budget = self.budget.get();
        if let Some(left) = budget.calls_left.as_mut() {
            *left = left.saturating_sub(spent);
        }
        self.budget.set(budget);
        self.bump(|s| s.theory_calls += spent);
    }

    /// The miss path of [`Solver::prove_pushed`]: brings every open frame
    /// into the shared base, then searches the negated goal (and the
    /// frames' disjunctive residue) against it.
    fn search_pushed(&self, arena: &mut TermArena, goal: &Term, want: Want) -> MemoEntry {
        if let Err(reason) = self.materialize_frames(arena) {
            self.mark_exhausted(reason);
            return exhausted_placeholder();
        }
        let (frames_abstracted, inconsistent) = self
            .frames
            .borrow()
            .iter()
            .filter_map(|f| f.materialized.as_ref())
            .fold((false, false), |(a, i), u| {
                (a || u.abstracted, i || u.inconsistent)
            });
        if inconsistent {
            // Contradictory assumptions entail everything: the conjunction
            // `frames ∧ ¬goal` is unsat before the goal is even looked at.
            return MemoEntry::Unsat;
        }
        let mut actx = self.actx.borrow_mut();
        let ctx = actx
            .as_mut()
            .expect("materialize_frames installs the context");
        ctx.norm.abstracted = false;
        let neg = arena.not(*goal);
        let goal_f = ctx.norm.normalize(arena, neg, true);
        let abstracted = frames_abstracted || ctx.norm.abstracted;
        // The negated goal is searched first (it pops last-in), then the
        // assumptions' disjunctive residues — the same relative order a
        // `prove` processes `[assumptions…, ¬goal]`.
        let mut pending: Vec<&Formula> = ctx.or_seeds.iter().collect();
        pending.push(&goal_f);
        self.search(pending, Some(&mut ctx.base), abstracted, want)
    }

    /// Ensures every open frame is materialized into the shared context,
    /// charging the theory work this does (and counting incremental
    /// pushes onto a live saturation as reuses).
    ///
    /// # Errors
    ///
    /// Returns the budget-trip reason if the budget runs out mid-frame;
    /// the partially materialized frame is rolled back and left
    /// unmaterialized, so a later query under a reset budget retries it
    /// cleanly.
    fn materialize_frames(&self, arena: &mut TermArena) -> Result<(), String> {
        let window = self.budget.get();
        let (mut spent, mut reuses) = (0u64, 0u64);
        let mut tripped = None;
        let mut frames = self.frames.borrow_mut();
        let mut actx = self.actx.borrow_mut();
        let ctx = actx.get_or_insert_with(AssumptionCtx::default);
        for frame in frames.iter_mut().filter(|f| f.materialized.is_none()) {
            let mut undo = FrameUndo::default();
            'frame: for t in &frame.terms {
                ctx.norm.abstracted = false;
                let f = ctx.norm.normalize(arena, *t, true);
                undo.abstracted |= ctx.norm.abstracted;
                // Absorb the conjunctive skeleton; disjunctive residue is
                // seeded into every query's search instead (only
                // conjunctive facts may enter the shared saturation).
                let mut stack = vec![f];
                while let Some(f) = stack.pop() {
                    let base = &mut ctx.base;
                    match f {
                        Formula::Const(true) => {}
                        Formula::Const(false) => {
                            undo.inconsistent = true;
                            break 'frame;
                        }
                        Formula::And(xs) => stack.extend(xs),
                        Formula::BLit(name, val) => match base.bools.get(&name) {
                            Some(existing) if *existing != val => {
                                undo.inconsistent = true;
                                break 'frame;
                            }
                            Some(_) => {}
                            None => {
                                base.bools.insert(name, val);
                                undo.bound.push(name);
                            }
                        },
                        Formula::Atom(c) => {
                            tripped = window.tripped(spent);
                            if tripped.is_some() {
                                break 'frame;
                            }
                            spent += 1;
                            if !base.sat.is_empty() {
                                reuses += 1;
                            }
                            let (ok, u) = base.sat.push(&c);
                            base.constraints.push(c);
                            undo.sat_undos.push(u);
                            undo.constraints_added += 1;
                            if !ok {
                                undo.inconsistent = true;
                                break 'frame;
                            }
                        }
                        or @ Formula::Or(_) => {
                            ctx.or_seeds.push(or);
                            undo.seeds_added += 1;
                        }
                    }
                }
            }
            if tripped.is_some() {
                strip_frame(ctx, undo);
                break;
            }
            frame.materialized = Some(undo);
        }
        self.charge(spent);
        self.bump(|s| s.saturation_reuses += reuses);
        tripped.map_or(Ok(()), Err)
    }
}

/// One [`Solver::push_assumptions`] frame: the recorded terms, plus the
/// undo record once the frame has been materialized into the shared
/// [`AssumptionCtx`].
#[derive(Debug)]
struct AssumptionFrame {
    terms: Vec<Term>,
    materialized: Option<FrameUndo>,
}

/// Everything needed to strip one materialized frame back out of the
/// shared context.
#[derive(Debug, Default)]
struct FrameUndo {
    /// Booleans this frame bound (undo removes them).
    bound: Vec<Symbol>,
    /// Saturation undo tokens, popped in reverse push order.
    sat_undos: Vec<SatUndo>,
    /// Constraints this frame appended (undo truncates).
    constraints_added: usize,
    /// Disjunctive residues this frame contributed to the context's
    /// `or_seeds`.
    seeds_added: usize,
    /// Whether normalizing this frame abstracted a non-linear atom; taints
    /// every refutation model found under it as possibly spurious.
    abstracted: bool,
    /// Whether the frame's conjunctive part is itself inconsistent: every
    /// goal under it is vacuously entailed.
    inconsistent: bool,
}

/// The state a search extends and unwinds: bool bindings, the constraint
/// stack, and its live saturation. Fresh per `check`; shared across
/// pushed queries as the frames' base.
#[derive(Debug, Default)]
struct SearchBase {
    bools: BoolModel,
    constraints: Vec<Constraint>,
    sat: Saturation,
}

/// The shared incremental state pushed queries run against: one normalizer
/// (abstraction symbols stay canonical across the base and every goal),
/// the frames' search base, and the disjunctive residues of the
/// assumptions, which must re-enter each query's search — only
/// conjunctive structure can live in the shared saturation.
#[derive(Debug, Default)]
struct AssumptionCtx {
    norm: Normalizer,
    base: SearchBase,
    or_seeds: Vec<Formula>,
}

/// Rolls one frame's materialized state back out of the context (LIFO:
/// the frame being stripped must be the most recently materialized one
/// still present).
fn strip_frame(ctx: &mut AssumptionCtx, undo: FrameUndo) {
    let base = &mut ctx.base;
    for u in undo.sat_undos.into_iter().rev() {
        base.sat.pop(u);
    }
    let keep = base.constraints.len() - undo.constraints_added;
    base.constraints.truncate(keep);
    for name in &undo.bound {
        base.bools.remove(name);
    }
    let keep = ctx.or_seeds.len() - undo.seeds_added;
    ctx.or_seeds.truncate(keep);
}

/// Domain-separation tag for assumption-set memo keys: structural
/// fingerprints are FNV chains over node tags, this family is a scrambled
/// multiset sum — the tag keeps the two key spaces from ever starting from
/// the same offset.
const ASSUMPTION_KEY_TAG: u128 = 0x9e3779b97f4a7c15_f39cc0605cedc835;

/// A full-avalanche 128-bit finalizer (two murmur3-style 64-bit rounds
/// with cross-feeding halves). Applied to each assumption fingerprint
/// before summing: a raw wrapping sum of structured values would admit
/// easy accidental collisions ({a+δ, b} vs {a, b+δ}); summing scrambled
/// values is the standard multiset-hash construction, collision-resistant
/// to the same 128-bit standard the fingerprints themselves are trusted
/// for.
#[inline]
fn scramble(x: u128) -> u128 {
    #[inline]
    fn fmix64(mut k: u64) -> u64 {
        k ^= k >> 33;
        k = k.wrapping_mul(0xff51afd7ed558ccd);
        k ^= k >> 33;
        k = k.wrapping_mul(0xc4ceb9fe1a85ec53);
        k ^= k >> 33;
        k
    }
    let lo = fmix64(x as u64);
    let hi = fmix64((x >> 64) as u64 ^ lo);
    ((hi as u128) << 64) | fmix64(lo ^ hi) as u128
}

/// The memo key of an assumption-set entailment query: a commutative hash
/// of the assumption fingerprint multiset, mixed with the assumption count
/// and the goal's fingerprint. Insensitive to assumption order and
/// grouping by construction; different multisets or goals key apart up to
/// 128-bit collisions (the same standard the structural fingerprints carry).
fn assumption_set_key(arena: &TermArena, assumptions: &[Term], goal: Term) -> Fingerprint {
    let mut sum: u128 = 0;
    for t in assumptions {
        sum = sum.wrapping_add(scramble(arena.fingerprint(*t).0));
    }
    let mut h = ASSUMPTION_KEY_TAG;
    h = scramble(h ^ sum);
    h = scramble(h ^ assumptions.len() as u128);
    h = scramble(h ^ arena.fingerprint(goal).0);
    Fingerprint(h)
}

/// The placeholder result a budget-exhausted (or fault-degraded) solve
/// returns: an empty model flagged possibly-spurious. Callers already
/// treat spurious `Sat` as "unknown, never proved", so the degradation is
/// sound by construction.
fn exhausted_placeholder() -> MemoEntry {
    MemoEntry::Model(Arc::new(Model::new(Vec::new(), Vec::new(), true)))
}

/// Reads a model-reading refutation check: `Unsat` proves the goal, a
/// model refutes it.
fn refutation(entry: MemoEntry) -> ProveResult {
    match entry.into_check_result() {
        CheckResult::Unsat => ProveResult::Proved,
        CheckResult::Sat(m) => ProveResult::Refuted(m),
    }
}

type RealModel = BTreeMap<Symbol, Rat>;
type BoolModel = BTreeMap<Symbol, bool>;

/// Outcome of one iterative tableau search.
#[derive(Debug)]
enum SearchOutcome {
    /// A model, for a caller that reads one ([`Want::Model`]): the final
    /// full saturation's real assignment plus the bound booleans.
    Model(RealModel, BoolModel),
    /// A branch satisfies the formula; no model was built, because the
    /// caller reads only the verdict ([`Want::Verdict`]).
    Sat,
    /// No branch satisfies the formula.
    Unsat,
    /// The budget tripped mid-search. A first-class outcome, never
    /// conflated with a model: the old recursive engine unwound a trip as
    /// `Some(empty model)` through every branch point, which only stayed
    /// sound because one caller knew to replace it — now the type makes
    /// the distinction.
    Exhausted(String),
}

/// The iterative trail-backed tableau search.
///
/// Replaces the seed's recursive clone-per-disjunct engine (kept verbatim
/// as [`reference`] for differential testing): the pending worklist,
/// boolean model, constraint stack, and incremental [`Saturation`] are
/// mutated in place; every mutation is recorded on the [`Trail`]; and a
/// disjunction opens a decision level instead of cloning `pending`.
/// Backtracking undoes ops to the level mark — proportional to the failed
/// branch, with no allocation — and the loop never recurses, so formula
/// depth is bounded by the heap, not the thread stack.
///
/// Exploration order, theory-call counts, and the final model are all
/// byte-identical to the recursive engine: atoms run one incremental
/// cascade each (where the old engine re-saturated the whole constraint
/// stack), and the single full saturation at the end reconstructs the
/// model from the same constraint vector in the same order. A search
/// that is asked for the verdict only ([`Want::Verdict`]) skips that
/// final saturation: the live one already shows the branch consistent,
/// so it answers `Sat` with one theory call fewer and no model.
///
/// The mutable state is borrowed, not owned, so one engine serves both the
/// one-shot path (a fresh [`SearchBase`] per query) and the
/// pushed-assumption path (the shared base under
/// [`Solver::push_assumptions`] frames, restored by
/// [`TrailSearch::unwind_all`] after each query).
struct TrailSearch<'f, 'a> {
    pending: Vec<&'f Formula>,
    bools: &'a mut BoolModel,
    constraints: &'a mut Vec<Constraint>,
    sat: &'a mut Saturation,
    trail: Trail<'f>,
    decisions: Vec<Decision<'f>>,
    theory_calls: u64,
    saturation_reuses: u64,
    resaturations: u64,
    /// Checked before every theory step, at the same points and in the
    /// same order as the recursive engine.
    budget: BudgetState,
}

/// One open disjunction: its alternatives and the next one to try.
struct Decision<'f> {
    alts: &'f [Formula],
    next: usize,
}

impl<'f, 'a> TrailSearch<'f, 'a> {
    fn new(
        pending: Vec<&'f Formula>,
        base: &'a mut SearchBase,
        budget: BudgetState,
    ) -> TrailSearch<'f, 'a> {
        let SearchBase {
            bools,
            constraints,
            sat,
        } = base;
        TrailSearch {
            pending,
            bools,
            constraints,
            sat,
            trail: Trail::new(),
            decisions: Vec::new(),
            theory_calls: 0,
            saturation_reuses: 0,
            resaturations: 0,
            budget,
        }
    }

    /// Runs the search to completion, building a model at the end only if
    /// `want` reads one.
    fn run(&mut self, want: Want) -> SearchOutcome {
        loop {
            let Some(f) = self.pending.pop() else {
                // All boolean structure satisfied, and the incremental
                // cascade already proved the conjunction consistent. The
                // final step keeps its budget checkpoint either way.
                if let Some(reason) = self.budget.tripped(self.theory_calls) {
                    return SearchOutcome::Exhausted(reason);
                }
                if want == Want::Verdict {
                    // The live saturation is the verdict; no elimination
                    // runs, so none is charged.
                    debug_assert!(
                        check_sat(self.constraints).is_sat(),
                        "the live saturation is consistent but check_sat is not"
                    );
                    return SearchOutcome::Sat;
                }
                // One full saturation over the (order-preserved)
                // constraint stack reconstructs the model exactly as the
                // recursive engine's final check did.
                self.theory_calls += 1;
                self.resaturations += 1;
                match check_sat(self.constraints) {
                    FmResult::Sat(reals) => {
                        return SearchOutcome::Model(reals, self.bools.clone());
                    }
                    // Unreachable while the incremental cascade is
                    // complete; treated as a conflict defensively rather
                    // than trusting an inconsistent model.
                    FmResult::Unsat => {
                        if !self.backtrack() {
                            return SearchOutcome::Unsat;
                        }
                        continue;
                    }
                }
            };
            self.trail.record(TrailOp::PopPending(f));
            match f {
                Formula::Const(true) => {}
                Formula::Const(false) => {
                    if !self.backtrack() {
                        return SearchOutcome::Unsat;
                    }
                }
                Formula::And(xs) => {
                    for x in xs {
                        self.pending.push(x);
                    }
                    self.trail.record(TrailOp::PushPending(xs.len()));
                }
                Formula::BLit(name, val) => match self.bools.get(name) {
                    Some(existing) if existing != val => {
                        if !self.backtrack() {
                            return SearchOutcome::Unsat;
                        }
                    }
                    Some(_) => {}
                    None => {
                        self.bools.insert(*name, *val);
                        self.trail.record(TrailOp::BindBool(*name));
                    }
                },
                Formula::Atom(c) => {
                    if let Some(reason) = self.budget.tripped(self.theory_calls) {
                        return SearchOutcome::Exhausted(reason);
                    }
                    self.theory_calls += 1;
                    if !self.sat.is_empty() {
                        self.saturation_reuses += 1;
                    }
                    let (ok, undo) = self.sat.push(c);
                    self.constraints.push(c.clone());
                    self.trail.record(TrailOp::PushConstraint(undo));
                    if !ok && !self.backtrack() {
                        return SearchOutcome::Unsat;
                    }
                }
                Formula::Or(xs) => {
                    if xs.is_empty() {
                        // The normalizer never emits an empty Or, but a
                        // hand-built one is an empty disjunction: false.
                        if !self.backtrack() {
                            return SearchOutcome::Unsat;
                        }
                        continue;
                    }
                    // The PopPending above sits *below* the level mark, so
                    // unwinding an enclosing decision restores the whole
                    // disjunction to pending for re-exploration — the same
                    // state the recursive engine's pending clone carried.
                    self.trail.push_level();
                    self.decisions.push(Decision { alts: xs, next: 1 });
                    self.pending.push(&xs[0]);
                    self.trail.record(TrailOp::PushPending(1));
                }
            }
        }
    }

    /// Unwinds to the innermost decision with an untried alternative and
    /// enters it; `false` when every branch is exhausted (the query is
    /// unsat).
    fn backtrack(&mut self) -> bool {
        loop {
            if self.decisions.is_empty() {
                return false;
            }
            let mark = self.trail.pop_level();
            while self.trail.len() > mark {
                let op = self.trail.pop_op().expect("ops above the level mark");
                self.undo(op);
            }
            let d = self.decisions.last_mut().expect("a decision per level");
            if d.next < d.alts.len() {
                let alt = &d.alts[d.next];
                d.next += 1;
                self.trail.push_level();
                self.pending.push(alt);
                self.trail.record(TrailOp::PushPending(1));
                return true;
            }
            self.decisions.pop();
        }
    }

    /// Applies one op's inverse.
    fn undo(&mut self, op: TrailOp<'f>) {
        match op {
            TrailOp::PopPending(f) => self.pending.push(f),
            TrailOp::PushPending(n) => {
                let keep = self.pending.len() - n;
                self.pending.truncate(keep);
            }
            TrailOp::BindBool(name) => {
                self.bools.remove(&name);
            }
            TrailOp::PushConstraint(undo) => {
                self.constraints.pop();
                self.sat.pop(undo);
            }
        }
    }

    /// Undoes everything — every open level, then every remaining op —
    /// restoring the borrowed state to exactly what it was at
    /// construction, so a shared base survives every query intact.
    fn unwind_all(&mut self) {
        while self.trail.depth() > 0 {
            self.trail.pop_level();
        }
        while let Some(op) = self.trail.pop_op() {
            self.undo(op);
        }
        self.decisions.clear();
    }
}

/// The seed's recursive clone-per-disjunct tableau engine, kept verbatim
/// (minus the budget plumbing, which the differential tests do not
/// exercise) as the oracle for the trail core: identical verdicts, and the
/// trail engine may never do *more* theory work.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    struct Search {
        theory_calls: u64,
    }

    impl Search {
        fn solve(
            &mut self,
            mut pending: Vec<Formula>,
            constraints: &mut Vec<Constraint>,
            bools: &mut BoolModel,
        ) -> Option<(RealModel, BoolModel)> {
            while let Some(f) = pending.pop() {
                match f {
                    Formula::Const(true) => {}
                    Formula::Const(false) => return None,
                    Formula::And(xs) => pending.extend(xs),
                    Formula::BLit(name, val) => match bools.get(&name) {
                        Some(existing) if *existing != val => return None,
                        Some(_) => {}
                        None => {
                            bools.insert(name, val);
                            let result = self.solve(pending, constraints, bools);
                            if result.is_none() {
                                bools.remove(&name);
                            }
                            return result;
                        }
                    },
                    Formula::Atom(c) => {
                        constraints.push(c);
                        self.theory_calls += 1;
                        if let FmResult::Unsat = check_sat(constraints) {
                            constraints.pop();
                            return None;
                        }
                        let result = self.solve(pending, constraints, bools);
                        if result.is_none() {
                            constraints.pop();
                        }
                        return result;
                    }
                    Formula::Or(xs) => {
                        for x in xs {
                            let mut branch_pending = pending.clone();
                            branch_pending.push(x);
                            if let Some(model) = self.solve(branch_pending, constraints, bools) {
                                return Some(model);
                            }
                        }
                        return None;
                    }
                }
            }
            self.theory_calls += 1;
            match check_sat(constraints) {
                FmResult::Sat(reals) => Some((reals, bools.clone())),
                FmResult::Unsat => None,
            }
        }
    }

    /// Solves normalized formulas with the recursive engine; returns the
    /// model (if any) and the theory-call count.
    pub(crate) fn solve_formulas(formulas: Vec<Formula>) -> (Option<(RealModel, BoolModel)>, u64) {
        let mut search = Search { theory_calls: 0 };
        let result = search.solve(formulas, &mut Vec::new(), &mut BTreeMap::new());
        (result, search.theory_calls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Term {
        Term::real_var("x")
    }

    fn y() -> Term {
        Term::real_var("y")
    }

    #[test]
    fn sat_with_model() {
        let s = Solver::new();
        let r = s.check(&[
            x().ge(Term::int(1)),
            x().le(Term::int(5)),
            y().eq_num(x().add(Term::int(1))),
        ]);
        match r {
            CheckResult::Sat(m) => {
                assert!(m.real("x") >= Rat::ONE && m.real("x") <= Rat::int(5));
                assert_eq!(m.real("y"), m.real("x") + Rat::ONE);
                assert!(!m.possibly_spurious);
            }
            CheckResult::Unsat => panic!("should be sat"),
        }
    }

    #[test]
    fn unsat_interval() {
        let s = Solver::new();
        assert_eq!(
            s.check(&[x().le(Term::int(1)), x().ge(Term::int(2))]),
            CheckResult::Unsat
        );
    }

    #[test]
    fn prove_scaling() {
        let s = Solver::new();
        // x >= 1 ⊢ 2x > 1
        assert!(s
            .prove(
                &[x().ge(Term::int(1))],
                &Term::int(2).mul(x()).gt(Term::int(1))
            )
            .is_proved());
        // x >= 0 ⊬ x > 0; counterexample x = 0
        let r = s.prove(&[x().ge(Term::int(0))], &x().gt(Term::int(0)));
        let m = r.counterexample().expect("definite counterexample");
        assert_eq!(m.real("x"), Rat::ZERO);
    }

    #[test]
    fn disjunction_branches() {
        let s = Solver::new();
        // (x <= -1 ∨ x >= 1) ∧ x >= 0 forces x >= 1
        let disj = x().le(Term::int(-1)).or(x().ge(Term::int(1)));
        let r = s.check(&[disj, x().ge(Term::int(0))]);
        match r {
            CheckResult::Sat(m) => assert!(m.real("x") >= Rat::ONE),
            CheckResult::Unsat => panic!("should be sat"),
        }
    }

    #[test]
    fn abs_reasoning() {
        let s = Solver::new();
        // |x| <= 1 ⊢ x <= 1
        assert!(s.entails(&[x().abs().le(Term::int(1))], &x().le(Term::int(1))));
        // |x| <= 1 ⊬ x >= 0
        assert!(!s.entails(&[x().abs().le(Term::int(1))], &x().ge(Term::int(0))));
        // ⊢ |x| >= x
        assert!(s.entails(&[], &x().abs().ge(x())));
        // ⊢ |x + y| <= |x| + |y| (triangle inequality)
        let lhs = x().add(y()).abs();
        let rhs = x().abs().add(y().abs());
        assert!(s.entails(&[], &lhs.le(rhs)));
    }

    #[test]
    fn boolean_variables() {
        let s = Solver::new();
        let p = Term::bool_var("p");
        let q = Term::bool_var("q");
        // p ∧ (p => q) ⊢ q
        assert!(s.entails(&[p, p.implies(q)], &q));
        // p ∨ q, ¬p ⊢ q
        assert!(s.entails(&[p.or(q), p.not()], &q));
        // p ⊬ q
        assert!(!s.entails(&[p], &q));
    }

    #[test]
    fn ite_in_numeric_position() {
        let s = Solver::new();
        let b = Term::bool_var("b");
        // (b ? 2 : 0) <= 2 is valid
        let t = Term::ite(b, Term::int(2), Term::int(0)).le(Term::int(2));
        assert!(s.entails(&[], &t));
        // (b ? 2 : 0) >= 1 ⊢ b
        let hyp = Term::ite(b, Term::int(2), Term::int(0)).ge(Term::int(1));
        assert!(s.entails(&[hyp], &b));
    }

    #[test]
    fn nonlinear_abstraction_is_sound_not_complete() {
        let s = Solver::new();
        // x*x >= 0 is valid over the reals but the solver abstracts it:
        // the refutation model must be flagged possibly spurious.
        let goal = x().mul(x()).ge(Term::int(0));
        match s.prove(&[], &goal) {
            ProveResult::Proved => panic!("abstraction should lose this"),
            ProveResult::Refuted(m) => assert!(m.possibly_spurious),
        }
        // ... and counterexample() must refuse to hand it out.
        assert!(s.prove(&[], &goal).counterexample().is_none());
    }

    #[test]
    fn equivalence_helper() {
        let s = Solver::new();
        let a = x().gt(Term::int(0));
        let b = Term::int(0).lt(x());
        assert!(s.entails(&[], &a.iff(b)));
        let c = x().ge(Term::int(0));
        assert!(!s.entails(&[], &a.iff(c)));
    }

    #[test]
    fn iff_with_offsets_matches_todot_sideconditions() {
        // The (T-ODot) check for NoisyMax's guard under the aligned
        // distances: q + 2 > bq + 2 <=> q > bq (shifting both sides by the
        // same distance preserves the comparison).
        let s = Solver::new();
        let q = Term::real_var("q");
        let bq = Term::real_var("bq");
        let lhs = q.add(Term::int(2)).gt(bq.add(Term::int(2)));
        let rhs = q.gt(bq);
        assert!(s.entails(&[], &lhs.iff(rhs)));
    }

    #[test]
    fn stats_accumulate() {
        let s = Solver::new();
        let _ = s.check(&[x().le(Term::int(0))]);
        let _ = s.prove(&[], &x().le(x()));
        let st = s.stats();
        assert_eq!(st.checks, 2);
        assert_eq!(st.proves, 1);
        assert!(st.theory_calls >= 1);
    }

    #[test]
    fn strict_vs_weak_boundaries() {
        let s = Solver::new();
        // x > 1 ∧ x < 1 unsat; x >= 1 ∧ x <= 1 sat with x = 1
        assert!(!s
            .check(&[x().gt(Term::int(1)), x().lt(Term::int(1))])
            .is_sat());
        match s.check(&[x().ge(Term::int(1)), x().le(Term::int(1))]) {
            CheckResult::Sat(m) => assert_eq!(m.real("x"), Rat::ONE),
            CheckResult::Unsat => panic!(),
        }
    }

    #[test]
    fn repeated_queries_hit_the_memo() {
        let s = Solver::new();
        let hyp = x().ge(Term::int(1));
        let goal = Term::int(2).mul(x()).gt(Term::int(1));
        assert!(s.prove(&[hyp], &goal).is_proved());
        let before = s.stats();
        assert_eq!(before.cache_hits, 0);
        for _ in 0..5 {
            assert!(s.prove(&[hyp], &goal).is_proved());
        }
        let after = s.stats();
        assert_eq!(after.cache_hits, 5);
        // No new theory work for the cached queries.
        assert_eq!(after.theory_calls, before.theory_calls);
    }

    #[test]
    fn memo_respects_distinct_formulas() {
        let s = Solver::new();
        assert!(s.check(&[x().le(Term::int(1))]).is_sat());
        // A different bound must not be answered from the cache entry.
        assert!(s.check(&[x().le(Term::int(1)), x().ge(Term::int(2))]) == CheckResult::Unsat);
        assert_eq!(s.stats().cache_hits, 0);
    }

    #[test]
    fn sharded_memo_len_counts_across_shards() {
        // Distinct bounds produce distinct fingerprints that scatter over
        // the shards; len/is_empty must aggregate all of them.
        let s = Solver::new();
        assert!(s.memo().is_empty());
        for i in 0..64 {
            let _ = s.check(&[x().le(Term::int(i))]);
        }
        assert_eq!(s.memo().len(), 64);
        assert!(!s.memo().is_empty());
        // Every one of them is answerable again (i.e. nothing was lost to
        // a mis-indexed shard).
        for i in 0..64 {
            let _ = s.check(&[x().le(Term::int(i))]);
        }
        let st = s.stats();
        assert_eq!(st.cache_hits, 64, "{st:?}");
    }

    #[test]
    fn snapshot_absorb_transfers_every_entry() {
        let warm = Solver::new();
        for i in 0..32 {
            let _ = warm.check(&[x().ge(Term::int(i))]);
        }
        let snap = warm.memo().snapshot();
        assert_eq!(snap.len(), 32);
        // Deterministic order regardless of shard layout.
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));

        let cold = Solver::new();
        cold.memo().absorb(snap);
        assert_eq!(cold.memo().len(), 32);
        for i in 0..32 {
            let _ = cold.check(&[x().ge(Term::int(i))]);
        }
        let st = cold.stats();
        assert_eq!(st.cache_hits, 32, "{st:?}");
        assert_eq!(st.theory_calls, 0, "{st:?}");
    }

    #[test]
    fn absorb_never_overwrites_live_entries() {
        let s = Solver::new();
        let _ = s.check(&[x().le(Term::int(1))]);
        let snap = s.memo().snapshot();
        let (fp, live) = (snap[0].0, snap[0].1.clone());
        // A (hypothetically corrupt) snapshot entry for the same key must
        // not clobber the live verdict.
        s.memo().absorb([(fp, MemoEntry::Unsat)]);
        assert_eq!(s.memo().get(fp), Some(live));
    }

    #[test]
    fn without_memo_never_hits() {
        let s = Solver::without_memo();
        let t = x().le(Term::int(0));
        for _ in 0..3 {
            assert!(s.check(std::slice::from_ref(&t)).is_sat());
        }
        let st = s.stats();
        assert_eq!(st.cache_hits, 0);
        assert!(st.theory_calls >= 3);
        assert!(
            s.touched_fingerprints().is_empty(),
            "memo-less solvers compute no fingerprints to touch"
        );
    }

    #[test]
    fn drain_dirty_exports_only_fresh_solves_once() {
        let s = Solver::new();
        for i in 0..8 {
            let _ = s.check(&[x().le(Term::int(i))]);
        }
        let first = s.memo().drain_dirty();
        assert_eq!(first.len(), 8);
        assert!(first.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        // Drained entries stay in the table but are no longer dirty.
        assert_eq!(s.memo().len(), 8);
        assert!(s.memo().drain_dirty().is_empty());

        // Cache hits do not re-dirty; only new solves do.
        let _ = s.check(&[x().le(Term::int(0))]);
        let _ = s.check(&[x().le(Term::int(99))]);
        let delta = s.memo().drain_dirty();
        assert_eq!(delta.len(), 1, "{delta:?}");
        assert_eq!(s.stats().cache_hits, 1);
    }

    #[test]
    fn absorbed_entries_are_never_dirty() {
        let warm = Solver::new();
        for i in 0..4 {
            let _ = warm.check(&[x().ge(Term::int(i))]);
        }
        let snap = warm.memo().snapshot();

        // A freshly warmed table has nothing to flush: its entries came
        // *from* persistence.
        let cold = QueryMemo::default();
        cold.absorb(snap.clone());
        assert_eq!(cold.len(), 4);
        assert!(cold.drain_dirty().is_empty());

        // A mixed table drains only the live solves.
        let s = Solver::new();
        let _ = s.check(&[x().le(Term::int(-3))]);
        s.memo().absorb(snap);
        let delta = s.memo().drain_dirty();
        assert_eq!(delta.len(), 1, "{delta:?}");
    }

    #[test]
    fn memo_hits_and_exports_share_one_model_allocation() {
        let s = Solver::new();
        // x, y >= 0 ⊬ x + y >= 3: refuted, with a model over both.
        let hyps = [x().ge(Term::int(0)), y().ge(Term::int(0))];
        let goal = x().add(y()).ge(Term::int(3));
        let ProveResult::Refuted(model) = s.prove(&hyps, &goal) else {
            panic!("x + y >= 3 does not follow");
        };
        assert_eq!(model.reals().len(), 2, "{model}");
        let ProveResult::Refuted(hit) = s.prove(&hyps, &goal) else {
            panic!("a hit answers like the solve");
        };
        assert_eq!(s.stats().cache_hits, 1);
        assert!(
            Arc::ptr_eq(&hit, &model),
            "a hit hands out the memo's model"
        );

        let snapshot = s.memo().snapshot();
        let drained = s.memo().drain_dirty();
        assert_eq!((snapshot.len(), drained.len()), (1, 1));
        let fp = snapshot[0].0;
        for (how, result) in [
            ("get", s.memo().get(fp).unwrap()),
            ("snapshot", snapshot[0].1.clone()),
            ("drain_dirty", drained[0].1.clone()),
        ] {
            let MemoEntry::Model(shared) = result else {
                panic!("{how}: the entry is the refutation's model");
            };
            assert!(Arc::ptr_eq(&shared, &model), "{how} copied the model");
        }
    }

    /// `x, y >= 0 ⊬ x + y >= 3`: refuted, with a countermodel over both.
    fn refutable() -> ([Term; 2], Term) {
        (
            [x().ge(Term::int(0)), y().ge(Term::int(0))],
            x().add(y()).ge(Term::int(3)),
        )
    }

    #[test]
    fn entails_memoizes_a_sat_verdict_without_a_model() {
        let s = Solver::new();
        let (hyps, goal) = refutable();
        assert!(!s.entails(&hyps, &goal));
        let snapshot = s.memo().snapshot();
        assert_eq!(snapshot.len(), 1);
        assert_eq!(snapshot[0].1, MemoEntry::Sat, "no model is built");
        let st = s.stats();
        assert_eq!(
            (st.proves, st.checks, st.resaturations),
            (1, 1, 0),
            "{st:?}"
        );
        // Three atoms cascaded; the verdict-only final step charges none.
        assert_eq!(st.theory_calls, 3, "{st:?}");
        assert!(!s.entails(&hyps, &goal));
        assert_eq!(s.stats().cache_hits, 1, "a verdict entry answers a verdict");
    }

    #[test]
    fn a_model_reading_query_upgrades_a_verdict_entry_once() {
        let s = Solver::new();
        let (hyps, goal) = refutable();
        assert!(!s.entails(&hyps, &goal));
        let drained = s.memo().drain_dirty();
        assert_eq!(drained.len(), 1);
        let fp = drained[0].0;

        // A bare verdict cannot answer a caller that reads the model: the
        // query is a miss, solved again into the model a memo-less solver
        // builds.
        let before = s.stats();
        let ProveResult::Refuted(model) = s.prove(&hyps, &goal) else {
            panic!("x + y >= 3 does not follow");
        };
        let fresh = Solver::without_memo().prove(&hyps, &goal);
        assert_eq!(fresh, ProveResult::Refuted(model.clone()));
        let st = s.stats();
        assert_eq!(st.cache_hits, before.cache_hits, "a miss: {st:?}");
        assert_eq!(st.resaturations - before.resaturations, 1, "{st:?}");
        // The entry is upgraded in place and dirty once.
        assert_eq!(s.memo().get(fp), Some(MemoEntry::Model(model.clone())));
        let drained = s.memo().drain_dirty();
        assert_eq!(drained, vec![(fp, MemoEntry::Model(model.clone()))]);

        // From then on the query is a hit with no theory work.
        let before = s.stats();
        let ProveResult::Refuted(hit) = s.prove(&hyps, &goal) else {
            panic!("a hit answers like the solve");
        };
        assert!(Arc::ptr_eq(&hit, &model));
        let st = s.stats();
        assert_eq!(st.cache_hits - before.cache_hits, 1, "{st:?}");
        assert_eq!(st.theory_calls, before.theory_calls, "{st:?}");
        assert!(s.memo().drain_dirty().is_empty());
    }

    #[test]
    fn a_verdict_never_replaces_a_model() {
        let s = Solver::new();
        let (hyps, goal) = refutable();
        let ProveResult::Refuted(model) = s.prove(&hyps, &goal) else {
            panic!("x + y >= 3 does not follow");
        };
        let fp = s.memo().drain_dirty()[0].0;
        let held = Some(MemoEntry::Model(model.clone()));
        // A model entry answers a verdict-only query.
        assert!(!s.entails(&hyps, &goal));
        assert_eq!(s.stats().cache_hits, 1);
        // A verdict-only insert landing after the model (two workers racing
        // on one key) keeps the model and dirties nothing; so does merging
        // a persisted bare verdict.
        s.memo().insert(fp, MemoEntry::Sat);
        s.memo().absorb([(fp, MemoEntry::Sat)]);
        assert_eq!(s.memo().get(fp), held);
        assert!(s.memo().drain_dirty().is_empty());
        // The other way round, the model upgrades the bare verdict.
        let memo = QueryMemo::default();
        memo.absorb([(fp, MemoEntry::Sat)]);
        memo.absorb([(fp, MemoEntry::Model(model.clone()))]);
        assert_eq!(memo.get(fp), held);
        memo.insert(fp, MemoEntry::Sat);
        assert_eq!(memo.get(fp), held);
        assert!(memo.drain_dirty().is_empty());
    }

    #[test]
    fn every_verdict_only_entry_point_skips_the_model() {
        let s = Solver::new();
        let bound = [x().le(Term::int(1))];
        let goal = x().ge(Term::int(5));
        assert!(s.satisfiable(&bound));
        s.push_assumptions(&[x().ge(Term::int(0))]);
        assert!(!s.entails_pushed(&goal));
        let entries = s.memo().snapshot();
        assert_eq!(entries.len(), 2);
        assert!(
            entries.iter().all(|(_, e)| *e == MemoEntry::Sat),
            "{entries:?}"
        );
        assert_eq!(s.stats().resaturations, 0);
        // Their model-reading twins upgrade the same two keys.
        let refuted = s.prove_pushed(&goal);
        s.pop_assumptions();
        assert!(refuted.counterexample().is_some());
        assert!(s.check(&bound).is_sat());
        let entries = s.memo().snapshot();
        assert_eq!(entries.len(), 2);
        assert!(
            entries.iter().all(|(_, e)| e.model().is_some()),
            "{entries:?}"
        );
        let st = s.stats();
        assert_eq!((st.cache_hits, st.resaturations), (0, 2), "{st:?}");
    }

    #[test]
    fn memo_hits_add_up_in_nanoseconds() {
        let s = Solver::new();
        let hyps = [x().ge(Term::int(1))];
        let goal = x().ge(Term::int(0));
        assert!(s.prove(&hyps, &goal).is_proved());
        let before = s.stats();
        for _ in 0..1000 {
            assert!(s.prove(&hyps, &goal).is_proved());
        }
        let after = s.stats();
        assert_eq!(after.cache_hits - before.cache_hits, 1000);
        assert!(after.nanos > before.nanos, "{before:?} -> {after:?}");
        assert_eq!(after.micros, after.nanos / 1000);
    }

    #[test]
    fn model_slices_are_name_sorted_and_searched() {
        let m = Model::new(
            vec![("y", Rat::ONE), ("b", Rat::int(2)), ("x", Rat::int(-3))],
            vec![("q", true), ("p", false)],
            false,
        );
        let names: Vec<&str> = m.reals().iter().map(|(k, _)| *k).collect();
        assert_eq!(names, ["b", "x", "y"]);
        assert_eq!(m.bools(), [("p", false), ("q", true)]);
        assert_eq!((m.real("x"), m.real("absent")), (Rat::int(-3), Rat::ZERO));
        assert!(m.bool("q") && !m.bool("p") && !m.bool("absent"));
        assert_eq!(m.to_string(), "b = 2, x = -3, y = 1, p = false, q = true");
    }

    #[test]
    #[should_panic(expected = "each name once")]
    fn model_rejects_a_repeated_name() {
        let _ = Model::new(vec![("x", Rat::ONE), ("x", Rat::ZERO)], Vec::new(), false);
    }

    /// `assumptions ⊢ goal` as one pushed frame: push, `prove_pushed`, pop.
    fn prove_in_frame(s: &Solver, assumptions: &[Term], goal: &Term) -> ProveResult {
        s.push_assumptions(assumptions);
        let r = s.prove_pushed(goal);
        s.pop_assumptions();
        r
    }

    fn entails_in_frame(s: &Solver, assumptions: &[Term], goal: &Term) -> bool {
        prove_in_frame(s, assumptions, goal).is_proved()
    }

    #[test]
    fn prove_assuming_agrees_with_prove() {
        let s = Solver::new();
        let hyp = x().ge(Term::int(1));
        let goal = Term::int(2).mul(x()).gt(Term::int(1));
        assert!(prove_in_frame(&s, &[hyp], &goal).is_proved());
        // x >= 0 ⊬ x > 0, with the counterexample surfaced the same way.
        let r = prove_in_frame(&s, &[x().ge(Term::int(0))], &x().gt(Term::int(0)));
        let m = r.counterexample().expect("definite counterexample");
        assert_eq!(m.real("x"), Rat::ZERO);
        // The empty assumption set proves tautologies.
        assert!(entails_in_frame(&s, &[], &x().abs().ge(x())));
    }

    #[test]
    fn assumption_key_is_order_and_grouping_insensitive() {
        let s = Solver::new();
        let a = x().ge(Term::int(1));
        let b = y().ge(Term::int(2));
        let c = x().le(Term::int(10));
        let goal = x().add(y()).ge(Term::int(3));
        assert!(entails_in_frame(&s, &[a, b, c], &goal));
        let fresh = s.stats();
        assert_eq!(fresh.assumption_queries, 1);
        assert_eq!(fresh.assumption_hits, 0);
        // Any permutation of the same multiset is a hit.
        for perm in [[c, b, a], [b, a, c], [a, c, b]] {
            assert!(entails_in_frame(&s, &perm, &goal));
        }
        let st = s.stats();
        assert_eq!(st.assumption_queries, 4);
        assert_eq!(st.assumption_hits, 3, "{st:?}");
        assert_eq!(st.theory_calls, fresh.theory_calls, "hits do no theory");
        // A shrunk assumption set keys apart (it is a different obligation).
        assert!(entails_in_frame(&s, &[a, b], &goal));
        assert_eq!(s.stats().assumption_hits, 3);
        // ... and so does the same multiset against a different goal.
        assert!(entails_in_frame(&s, &[a, b, c], &x().ge(Term::int(1))));
        assert_eq!(s.stats().assumption_hits, 3);
    }

    #[test]
    fn assumption_keys_do_not_alias_plain_keys() {
        // The same semantic query through `prove` and `prove_pushed`
        // lives under two different memo keys (monolithic fingerprint vs
        // domain-separated multiset hash): neither path may be answered by
        // the other's entry, because the plain key is order-sensitive and
        // the multiset key is not — aliasing would let one family's policy
        // leak into the other.
        let s = Solver::new();
        let hyp = x().ge(Term::int(1));
        let goal = Term::int(2).mul(x()).gt(Term::int(1));
        assert!(s.prove(&[hyp], &goal).is_proved());
        assert!(prove_in_frame(&s, &[hyp], &goal).is_proved());
        let st = s.stats();
        assert_eq!(st.cache_hits, 0, "{st:?}");
        assert_eq!(s.memo().len(), 2);
    }

    #[test]
    fn assumption_entries_transfer_through_snapshot_absorb() {
        // The persistence contract: assumption-keyed verdicts ride the
        // same snapshot/absorb/drain machinery as plain ones, so a daemon
        // restart (or a candidate-set variation in a later submission)
        // re-serves them without fresh theory work.
        let warm = Solver::new();
        let a = x().ge(Term::int(1));
        let b = y().le(Term::int(5));
        let goal = x().sub(y()).ge(Term::int(-4));
        assert!(entails_in_frame(&warm, &[a, b], &goal));
        let snap = warm.memo().snapshot();
        assert_eq!(snap.len(), 1);
        let dirty = warm.memo().drain_dirty();
        assert_eq!(dirty.len(), 1);

        let cold = Solver::new();
        cold.memo().absorb(snap);
        // Re-asked in the other order, from a different arena: still a hit.
        assert!(entails_in_frame(&cold, &[b, a], &goal));
        let st = cold.stats();
        assert_eq!(st.assumption_hits, 1, "{st:?}");
        assert_eq!(st.theory_calls, 0, "{st:?}");
        // The hit is recorded as a dependency for store compaction.
        assert_eq!(cold.touched_fingerprints(), vec![dirty[0].0]);
    }

    #[test]
    fn prove_assuming_without_memo_never_hits() {
        let s = Solver::without_memo();
        let hyp = x().ge(Term::int(1));
        let goal = x().ge(Term::int(0));
        for _ in 0..3 {
            assert!(prove_in_frame(&s, &[hyp], &goal).is_proved());
        }
        let st = s.stats();
        assert_eq!(st.assumption_queries, 3);
        assert_eq!(st.assumption_hits, 0);
        assert!(st.theory_calls >= 3);
        assert!(s.touched_fingerprints().is_empty());
    }

    #[test]
    fn equal_sum_multisets_key_apart() {
        // Same elements distributed differently — {a, a, b} vs {a, b, b} vs
        // {a, b} — and swapped pairs with the same underlying atoms must
        // all key apart (a raw unscrambled sum would conflate several of
        // these shapes far too easily).
        let s = Solver::new();
        let a = x().ge(Term::int(1));
        let b = y().ge(Term::int(1));
        let goal = x().add(y()).ge(Term::int(2));
        assert!(entails_in_frame(&s, &[a, a, b], &goal));
        assert!(entails_in_frame(&s, &[a, b, b], &goal));
        assert!(entails_in_frame(&s, &[a, b], &goal));
        assert_eq!(
            s.stats().assumption_hits,
            0,
            "distinct multisets must not alias: {:?}",
            s.stats()
        );
        assert_eq!(s.memo().len(), 3);
    }

    #[test]
    fn theory_call_budget_trips_sticky_and_sound() {
        let s = Solver::new();
        s.set_budget(Budget::with_theory_calls(1));
        // The first query burns the single allowed call and trips.
        let conj = [
            x().ge(Term::int(0)),
            y().ge(Term::int(0)),
            x().add(y()).le(Term::int(10)),
        ];
        let r = s.check(&conj);
        match r {
            CheckResult::Sat(m) => assert!(m.possibly_spurious, "exhausted result is spurious"),
            CheckResult::Unsat => panic!("exhaustion must never produce Unsat"),
        }
        let reason = s.exhausted().expect("budget tripped");
        assert!(reason.contains("theory-call"), "{reason}");

        // Sticky: a later prove cannot claim Proved, even of a tautology.
        match s.prove(&[], &x().le(x())) {
            ProveResult::Proved => panic!("exhausted solver must never prove"),
            ProveResult::Refuted(m) => assert!(m.possibly_spurious),
        }

        // Nothing was memoized: a reset budget re-solves for real.
        assert_eq!(s.memo().len(), 0, "no partial verdicts in the memo");
        assert!(s.memo().drain_dirty().is_empty());
        s.clear_budget();
        assert!(s.exhausted().is_none());
        assert!(s.check(&conj).is_sat());
        assert!(s.prove(&[], &x().le(x())).is_proved());
        assert!(!s.memo().is_empty());
    }

    #[test]
    fn expired_deadline_trips_immediately() {
        let s = Solver::new();
        s.set_budget(Budget::with_deadline(Duration::ZERO));
        let r = s.check(&[x().ge(Term::int(1))]);
        match r {
            CheckResult::Sat(m) => assert!(m.possibly_spurious),
            CheckResult::Unsat => panic!("deadline trip must never produce Unsat"),
        }
        assert!(s.exhausted().unwrap().contains("deadline"));
        assert_eq!(
            s.stats().theory_calls,
            0,
            "no theory work past the deadline"
        );
        // Replacing the budget clears exhaustion and the clock restarts.
        s.set_budget(Budget::with_deadline(Duration::from_secs(60)));
        assert!(s.exhausted().is_none());
        assert!(s.check(&[x().ge(Term::int(1))]).is_sat());
    }

    #[test]
    fn memo_hits_are_served_even_when_exhausted() {
        let s = Solver::new();
        let q = [x().le(Term::int(1)), x().ge(Term::int(2))];
        assert_eq!(s.check(&q), CheckResult::Unsat);
        s.set_budget(Budget::with_theory_calls(0));
        // A memo hit is a complete verdict and costs no theory work, so
        // even a zero-budget solver answers it exactly.
        assert_eq!(s.check(&q), CheckResult::Unsat);
        assert_eq!(s.stats().cache_hits, 1);
        assert!(s.exhausted().is_none(), "hits never trip the budget");
    }

    #[test]
    fn exhausted_assumption_queries_are_not_memoized() {
        let s = Solver::new();
        s.set_budget(Budget::with_theory_calls(0));
        let hyp = x().ge(Term::int(1));
        let goal = x().ge(Term::int(0));
        match prove_in_frame(&s, &[hyp], &goal) {
            ProveResult::Proved => panic!("exhausted solver must never prove"),
            ProveResult::Refuted(m) => assert!(m.possibly_spurious),
        }
        assert_eq!(s.memo().len(), 0);
        // With the budget lifted the same entailment proves and memoizes.
        s.clear_budget();
        assert!(prove_in_frame(&s, &[hyp], &goal).is_proved());
        assert_eq!(s.memo().len(), 1);
    }

    #[test]
    fn unlimited_budget_is_a_no_op() {
        let s = Solver::new();
        s.set_budget(Budget::default());
        assert!(s.check(&[x().ge(Term::int(1))]).is_sat());
        assert!(s.exhausted().is_none());
    }

    #[test]
    fn touched_fingerprints_cover_hits_and_fresh_solves() {
        let shared = Arc::new(QueryMemo::default());
        let warm = Solver::with_memo(shared.clone());
        let _ = warm.check(&[x().le(Term::int(1))]);

        // A second solver that only *hits* still reports the dependency.
        let hitter = Solver::with_memo(shared.clone());
        let _ = hitter.check(&[x().le(Term::int(1))]);
        let _ = hitter.check(&[x().le(Term::int(2))]);
        assert_eq!(hitter.stats().cache_hits, 1);
        let touched = hitter.touched_fingerprints();
        assert_eq!(touched.len(), 2);
        assert_eq!(
            touched,
            warm.memo()
                .snapshot()
                .iter()
                .map(|(k, _)| *k)
                .collect::<Vec<_>>()
        );

        // Repeats are deduplicated.
        let _ = hitter.check(&[x().le(Term::int(2))]);
        assert_eq!(hitter.touched_fingerprints().len(), 2);
    }

    #[test]
    fn budget_trip_mid_disjunction_is_exhausted_not_a_model() {
        // Regression for the seed engine's placeholder unwind: a budget
        // trip inside a disjunct bubbled up as `Some(empty model)` through
        // every branch point, indistinguishable from a genuine model until
        // one caller patched it over. The query below is genuinely Unsat,
        // and the budget trips on the *second* disjunct — after one branch
        // already failed — so any placeholder confusion would surface as
        // Unsat (unsound: the budget means we never finished looking) or
        // as a non-spurious model.
        let s = Solver::new();
        s.set_budget(Budget::with_theory_calls(2));
        let q = [
            x().ge(Term::int(1)).or(x().ge(Term::int(2))),
            x().le(Term::int(0)),
        ];
        match s.check(&q) {
            CheckResult::Sat(m) => {
                assert!(m.possibly_spurious, "exhausted placeholder is spurious");
                assert!(m.reals().is_empty() && m.bools().is_empty());
            }
            CheckResult::Unsat => panic!("a mid-disjunction trip must never claim Unsat"),
        }
        assert!(s.exhausted().unwrap().contains("theory-call"));
        assert_eq!(s.memo().len(), 0, "placeholders are never memoized");
        // With the budget lifted the same query resolves for real.
        s.clear_budget();
        assert_eq!(s.check(&q), CheckResult::Unsat);
    }

    #[test]
    fn trail_counters_accumulate() {
        let s = Solver::new();
        assert_eq!(s.stats().saturation_reuse_rate(), None, "no work yet");
        // One failing branch, one succeeding branch: the search opens a
        // decision level, backtracks through the trail, and retries.
        let q = [
            x().ge(Term::int(1)).or(x().le(Term::int(-1))),
            x().le(Term::int(-3)),
        ];
        assert!(s.check(&q).is_sat());
        let st = s.stats();
        assert!(st.trail_ops > 0, "{st:?}");
        assert_eq!(st.max_trail_depth, 1, "one disjunction deep: {st:?}");
        // x <= -3 starts the saturation; both disjuncts extend it live.
        assert_eq!(st.saturation_reuses, 2, "{st:?}");
        assert_eq!(st.resaturations, 1, "one full model reconstruction");
        let rate = st.saturation_reuse_rate().unwrap();
        assert!((rate - 2.0 / 3.0).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn pushed_queries_agree_and_share_keys_with_entails_assuming() {
        let s = Solver::new();
        let a = x().ge(Term::int(1));
        let b = y().le(Term::int(5));
        let goal = x().sub(y()).ge(Term::int(-4));
        // A fresh pushed query (frames [a] and [b]) solves and memoizes.
        s.push_assumptions(&[a]);
        s.push_assumptions(&[b]);
        assert!(s.entails_pushed(&goal));
        let st = s.stats();
        assert_eq!(st.assumption_queries, 1);
        assert_eq!(st.assumption_hits, 0, "{st:?}");
        s.pop_assumptions();
        s.pop_assumptions();
        // The same obligation as one frame, in the other order, is a hit:
        // keys are computed over the flattened frame multiset, insensitive
        // to frame grouping and order.
        assert!(entails_in_frame(&s, &[b, a], &goal));
        assert_eq!(s.stats().assumption_hits, 1, "{:?}", s.stats());
        // And again as one frame per term, innermost first.
        s.push_assumptions(&[b]);
        s.push_assumptions(&[a]);
        assert!(s.entails_pushed(&goal));
        assert_eq!(s.stats().assumption_hits, 2, "{:?}", s.stats());
        s.pop_assumptions();
        s.pop_assumptions();
    }

    #[test]
    fn warm_pushed_queries_do_no_theory_work() {
        // The warm-restart contract extends to the pushed path: frames are
        // materialized lazily, so a query answered from a persisted verdict
        // never normalizes or saturates its assumption base at all.
        let warm = Solver::new();
        let a = x().ge(Term::int(1));
        let b = y().le(Term::int(5));
        let goal = x().sub(y()).ge(Term::int(-4));
        assert!(entails_in_frame(&warm, &[a, b], &goal));
        let snap = warm.memo().snapshot();

        let cold = Solver::new();
        cold.memo().absorb(snap);
        cold.push_assumptions(&[a]);
        cold.push_assumptions(&[b]);
        assert!(cold.entails_pushed(&goal));
        let st = cold.stats();
        assert_eq!(st.assumption_hits, 1, "{st:?}");
        assert_eq!(st.theory_calls, 0, "{st:?}");
        cold.pop_assumptions();
        cold.pop_assumptions();
    }

    #[test]
    fn push_pop_restores_the_base_exactly() {
        let s = Solver::new();
        // An empty frame behaves like the empty assumption set: tautologies
        // and nothing else.
        s.push_assumptions(&[]);
        assert!(s.entails_pushed(&x().le(x())));
        assert!(!s.entails_pushed(&x().ge(Term::int(0))));
        s.pop_assumptions();

        s.push_assumptions(&[x().ge(Term::int(1))]);
        assert!(s.entails_pushed(&x().gt(Term::int(0))));
        assert!(!s.entails_pushed(&y().ge(Term::int(0))));
        // Narrow-Δ cycling, the Houdini pattern: push, query, pop — over
        // one shared saturated base.
        for k in 0..4 {
            s.push_assumptions(&[y().ge(Term::int(k))]);
            assert!(s.entails_pushed(&x().add(y()).ge(Term::int(k + 1))));
            s.pop_assumptions();
        }
        // The base still answers fresh queries correctly after cycling.
        assert!(s.entails_pushed(&Term::int(2).mul(x()).ge(Term::int(2))));
        // An inconsistent frame entails everything — and pops away clean.
        s.push_assumptions(&[x().le(Term::int(-5))]);
        assert!(s.entails_pushed(&y().eq_num(Term::int(42))));
        s.pop_assumptions();
        assert!(!s.entails_pushed(&y().eq_num(Term::int(42))));
        s.pop_assumptions();
    }

    #[test]
    #[should_panic(expected = "pop_assumptions without an open frame")]
    fn pop_without_frame_panics() {
        Solver::new().pop_assumptions();
    }

    #[test]
    fn exhausted_pushed_queries_are_not_memoized_and_frames_recover() {
        let s = Solver::new();
        s.push_assumptions(&[x().ge(Term::int(1))]);
        s.set_budget(Budget::with_theory_calls(0));
        // The zero budget trips while materializing the frame itself; the
        // partially built frame must be rolled back, not left half-in.
        match s.prove_pushed(&x().ge(Term::int(0))) {
            ProveResult::Proved => panic!("exhausted solver must never prove"),
            ProveResult::Refuted(m) => assert!(m.possibly_spurious),
        }
        assert!(s.exhausted().unwrap().contains("theory-call"));
        assert_eq!(s.memo().len(), 0);
        // Lifting the budget re-materializes cleanly and proves for real.
        s.clear_budget();
        assert!(s.entails_pushed(&x().ge(Term::int(0))));
        assert_eq!(s.memo().len(), 1);
        s.pop_assumptions();
    }

    /// Persisted stores stay warm only while memo keys stay byte-identical.
    /// These fingerprints pin one key of each family, so a change that
    /// re-keys queries fails here instead of silently cold-starting every
    /// persisted verdict store.
    #[test]
    fn memo_keys_are_pinned() {
        let key = |s: &Solver| s.touched_fingerprints()[0].0;
        let a = x().ge(Term::int(1));
        let s = Solver::new();
        let _ = s.check(&[x().le(Term::int(1)), x().ge(Term::int(2))]);
        assert_eq!(key(&s), 0xf59b_bc4a_cdf5_97a4_2dd8_430a_f470_9c8c);
        let s = Solver::new();
        let _ = s.prove(&[a], &Term::int(2).mul(x()).gt(Term::int(1)));
        assert_eq!(key(&s), 0x2029_816c_8bcd_5e75_1aa9_8b01_4d0f_797c);
        let s = Solver::new();
        s.push_assumptions(&[a]);
        s.push_assumptions(&[y().le(Term::int(5))]);
        let _ = s.prove_pushed(&x().sub(y()).ge(Term::int(-4)));
        s.pop_assumptions();
        s.pop_assumptions();
        assert_eq!(key(&s), 0xf1be_4c14_ecb9_66a5_380d_f387_4664_96c1);
    }

    /// Differential harness: the trail engine against the seed recursive
    /// engine (kept as [`reference`]) on random formula trees. Verdicts
    /// must be identical — models too, since exploration order is pinned —
    /// and the trail engine may never spend more theory calls.
    mod differential {
        use proptest::prelude::*;

        use super::super::{reference, BudgetState, SearchBase, SearchOutcome, TrailSearch, Want};
        use crate::fm::Constraint;
        use crate::linear::LinExpr;
        use crate::normalize::Formula;
        use crate::term::Symbol;
        use shadowdp_num::Rat;

        fn arb_atom() -> impl Strategy<Value = Formula> {
            (-3i128..=3, -3i128..=3, -3i128..=3, 0u8..3).prop_map(|(a, b, c, k)| {
                let mut lin = LinExpr::constant(Rat::int(c));
                lin.add_term(Symbol::intern("dx"), Rat::int(a));
                lin.add_term(Symbol::intern("dy"), Rat::int(b));
                Formula::Atom(match k {
                    0 => Constraint::le0(lin),
                    1 => Constraint::lt0(lin),
                    _ => Constraint::eq0(lin),
                })
            })
        }

        fn arb_formula() -> impl Strategy<Value = Formula> {
            let leaf = prop_oneof![
                (0u8..2).prop_map(|b| Formula::Const(b == 1)),
                (0usize..2, 0u8..2)
                    .prop_map(|(i, v)| { Formula::BLit(Symbol::intern(["dp", "dq"][i]), v == 1) }),
                arb_atom(),
            ];
            leaf.prop_recursive(8, 64, 4, |inner| {
                prop_oneof![
                    proptest::collection::vec(inner.clone(), 0..4).prop_map(Formula::And),
                    proptest::collection::vec(inner, 0..4).prop_map(Formula::Or),
                ]
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn trail_and_reference_engines_agree(
                fs in proptest::collection::vec(arb_formula(), 0..4)
            ) {
                let (want, ref_calls) = reference::solve_formulas(fs.clone());

                let run = |want: Want| {
                    let mut base = SearchBase::default();
                    let mut search =
                        TrailSearch::new(fs.iter().collect(), &mut base, BudgetState::default());
                    let outcome = search.run(want);
                    (outcome, search.theory_calls)
                };
                let (outcome, trail_calls) = run(Want::Model);

                match (&outcome, &want) {
                    (SearchOutcome::Model(reals, bs), Some((ref_reals, ref_bools))) => {
                        prop_assert_eq!(reals, ref_reals, "models diverge on {:?}", fs);
                        prop_assert_eq!(bs, ref_bools, "bool models diverge on {:?}", fs);
                    }
                    (SearchOutcome::Unsat, None) => {}
                    (got, want) => {
                        prop_assert!(false, "verdicts diverge on {:?}: trail {:?} vs reference {:?}",
                            fs, got, want);
                    }
                }
                prop_assert!(
                    trail_calls <= ref_calls,
                    "trail engine did more theory work on {:?}: {} vs {}",
                    fs, trail_calls, ref_calls
                );

                // The verdict-only search: the reference's verdict, no
                // model, and never more theory work than building one.
                let (verdict, verdict_calls) = run(Want::Verdict);
                prop_assert!(
                    matches!(
                        (&verdict, &want),
                        (SearchOutcome::Sat, Some(_)) | (SearchOutcome::Unsat, None)
                    ),
                    "verdict-only search diverges on {:?}: {:?} vs reference {:?}",
                    fs, verdict, want
                );
                prop_assert!(
                    verdict_calls <= trail_calls,
                    "verdict-only search did more theory work on {:?}: {} vs {}",
                    fs, verdict_calls, trail_calls
                );
            }
        }
    }
}
