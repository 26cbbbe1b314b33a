//! The end-to-end ShadowDP pipeline with per-phase timings, plus the
//! sequential and work-stealing **corpus drivers** that run many
//! independent algorithm verifications — on one thread or fanned out
//! across all cores — against one shared validity-query memo.

use std::fmt;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use shadowdp_analysis::Diagnostic;
use shadowdp_solver::{Fingerprint, QueryMemo, Solver, SolverStats};
use shadowdp_syntax::{parse_function, pretty_function, Function, ParseError};
use shadowdp_typing::{check_function_with, TypeError};
use shadowdp_verify::{verify_with, Options, Report, Verdict};

/// Per-phase wall-clock histogram. Shares its name with the `lower`
/// member observed inside `shadowdp-verify` — the obs registry dedupes
/// by name, so both crates feed one family.
static PHASE_US: shadowdp_obs::LazyHistogramFamily = shadowdp_obs::LazyHistogramFamily::new(
    "shadowdp_phase_us",
    "Wall-clock latency per pipeline phase (microseconds)",
    "phase",
);

/// Per-algorithm verification latency — what `shadowdp top`'s
/// per-algorithm rows are built from. One observation per verified job,
/// so the dynamic label set stays bounded by the corpus.
static ALGO_VERIFY_US: shadowdp_obs::LazyHistogramFamily = shadowdp_obs::LazyHistogramFamily::new(
    "shadowdp_verify_algorithm_us",
    "Wall-clock verification latency per algorithm (microseconds)",
    "algorithm",
);

static SOLVER_QUERIES: shadowdp_obs::LazyCounter = shadowdp_obs::LazyCounter::new(
    "shadowdp_solver_queries_total",
    "Validity queries asked by corpus jobs (memo hits included)",
);
static MEMO_HITS: shadowdp_obs::LazyCounter = shadowdp_obs::LazyCounter::new(
    "shadowdp_solver_memo_hits_total",
    "Validity queries answered from the shared query memo",
);
static THEORY_CALLS: shadowdp_obs::LazyCounter = shadowdp_obs::LazyCounter::new(
    "shadowdp_solver_theory_calls_total",
    "Fresh theory-solver invocations (simplex + case splits)",
);
static ASSUMPTION_QUERIES: shadowdp_obs::LazyCounter = shadowdp_obs::LazyCounter::new(
    "shadowdp_solver_assumption_queries_total",
    "Assumption-set-keyed consecution entailment queries",
);
static ASSUMPTION_HITS: shadowdp_obs::LazyCounter = shadowdp_obs::LazyCounter::new(
    "shadowdp_solver_assumption_hits_total",
    "Assumption-set-keyed consecution queries answered from the memo",
);
static TRAIL_DEPTH: shadowdp_obs::LazyHistogram = shadowdp_obs::LazyHistogram::new(
    "shadowdp_solver_trail_depth",
    "Deepest solver decision-level nesting per corpus run (one job in the daemon)",
);
static TRAIL_OPS: shadowdp_obs::LazyCounter = shadowdp_obs::LazyCounter::new(
    "shadowdp_solver_trail_ops_total",
    "Reversible search-state operations recorded on solver trails",
);
static SATURATION_REUSES: shadowdp_obs::LazyCounter = shadowdp_obs::LazyCounter::new(
    "shadowdp_saturation_reuse_total",
    "Constraints absorbed incrementally into an already-saturated set",
);
static RESATURATIONS: shadowdp_obs::LazyCounter = shadowdp_obs::LazyCounter::new(
    "shadowdp_saturation_recompute_total",
    "Full from-scratch constraint-set saturations",
);
static LINT_DIAGS: shadowdp_obs::LazyCounterFamily = shadowdp_obs::LazyCounterFamily::new(
    "shadowdp_lint_diagnostics_total",
    "Static-analysis diagnostics emitted, by stable SD code",
    "code",
);

/// Forces registration of every pipeline-level metric (and the solver's)
/// so a scrape exposes the full schema even before any job has run a
/// given phase — a warm daemon serving entirely from its store would
/// otherwise be missing the solver counters from its exposition.
pub fn register_metrics() {
    PHASE_US.get();
    ALGO_VERIFY_US.get();
    SOLVER_QUERIES.get();
    MEMO_HITS.get();
    THEORY_CALLS.get();
    ASSUMPTION_QUERIES.get();
    ASSUMPTION_HITS.get();
    TRAIL_DEPTH.get();
    TRAIL_OPS.get();
    SATURATION_REUSES.get();
    RESATURATIONS.get();
    LINT_DIAGS.get();
    shadowdp_solver::solve::register_metrics();
}

/// Parse with a span + phase observation; shared by the source-text
/// entry points.
fn parse_timed(source: &str) -> Result<Function, PipelineError> {
    let start = Instant::now();
    let parsed = {
        let _span = shadowdp_obs::span("parse");
        parse_function(source)
    };
    PHASE_US
        .with("parse")
        .observe(start.elapsed().as_micros() as u64);
    parsed.map_err(PipelineError::Parse)
}

/// Lints a parsed function as the pipeline's pre-verification phase:
/// its own span, a `lint` entry in the phase histogram, and per-code
/// `shadowdp_lint_diagnostics_total` counters. Diagnostics never gate
/// the pipeline — they are advisory, and verification output (and
/// therefore every corpus digest) is byte-identical with or without
/// them.
pub fn lint_timed(f: &Function, source: &str) -> Vec<Diagnostic> {
    let start = Instant::now();
    let diags = {
        let _span = shadowdp_obs::span_labeled("lint", &f.name);
        shadowdp_analysis::lint_function(f, source)
    };
    PHASE_US
        .with("lint")
        .observe(start.elapsed().as_micros() as u64);
    for d in &diags {
        LINT_DIAGS.with(d.code.as_str()).inc();
    }
    diags
}

/// Parses and lints source text without typechecking or verifying —
/// the cheap diagnostics tier (`shadowdp lint`) that front-ends call
/// before paying for a proof.
///
/// # Errors
///
/// The parse error if the program does not parse.
pub fn lint_source(source: &str) -> Result<Vec<Diagnostic>, ParseError> {
    match parse_timed(source) {
        Ok(f) => Ok(lint_timed(&f, source)),
        Err(PipelineError::Parse(e)) => Err(e),
        Err(other) => unreachable!("parse_timed only fails with Parse errors: {other}"),
    }
}

/// Which phase produced an error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Parsing the concrete syntax.
    Parse,
    /// Type checking / transformation.
    TypeCheck,
    /// The job panicked somewhere inside the pipeline (the corpus drivers
    /// isolate panics per job, so a crash cannot name a finer phase).
    Crash,
}

/// A pipeline failure.
#[derive(Clone, Debug, PartialEq)]
pub enum PipelineError {
    /// Syntax error.
    Parse(ParseError),
    /// Type-system rejection (with the source for span rendering).
    Type(TypeError),
    /// The job panicked; the payload message is preserved. Produced only
    /// by the corpus drivers, which catch per-job unwinds so one poisoned
    /// job cannot take down its batch (or the daemon scheduling it).
    Crashed(String),
}

impl PipelineError {
    /// The phase that failed.
    pub fn phase(&self) -> Phase {
        match self {
            PipelineError::Parse(_) => Phase::Parse,
            PipelineError::Type(_) => Phase::TypeCheck,
            PipelineError::Crashed(_) => Phase::Crash,
        }
    }

    /// Renders the error with `line:col` resolved against the source
    /// the job ran on — what interactive front-ends (`shadowdp check`)
    /// show. `Display` stays location-free because its text is embedded
    /// in corpus report digests, which are pinned byte-for-byte.
    pub fn render_located(&self, source: &str) -> String {
        match self {
            PipelineError::Parse(e) => e.render(source),
            PipelineError::Type(e) => e.render(source),
            PipelineError::Crashed(msg) => format!("job panicked: {msg}"),
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "{e}"),
            PipelineError::Type(e) => write!(f, "{e}"),
            PipelineError::Crashed(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Extracts the human-readable message from a caught panic payload
/// (`panic!` with a literal yields `&str`, with a format string `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The result of a full pipeline run.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// The function name.
    pub name: String,
    /// Wall-clock time of type checking + transformation (the paper's
    /// "Type Check" column).
    pub typecheck_time: Duration,
    /// Wall-clock time of lowering + verification (the paper's
    /// "Verification" column).
    pub verify_time: Duration,
    /// The verdict.
    pub verdict: Verdict,
    /// The transformed (instrumented, still probabilistic) program `c'`.
    pub transformed: Function,
    /// The verified target program `c''` and engine log.
    pub verification: Report,
    /// Cumulative solver statistics across both phases (one shared solver
    /// per run). `cache_hits` counts queries answered from the solver's
    /// memo table — on Houdini-heavy verifications the majority of
    /// consecution queries land here.
    /// `assumption_queries`/`assumption_hits` isolate the assumption-set-
    /// keyed consecution entailments (see
    /// [`SolverStats::assumption_hit_rate`]): under per-candidate keying,
    /// Houdini rounds that follow a candidate drop answer most of their
    /// queries from the memo instead of re-proving the whole round.
    pub solver_stats: SolverStats,
    /// The structural fingerprints of every memoized validity query this
    /// run asked (hit or fresh solve), sorted and deduplicated — the
    /// run's solver-tier dependency set. The verification service
    /// persists these with the job's verdict so store compaction can drop
    /// solver entries no surviving job depends on. Empty when the solver
    /// ran with its memo disabled.
    pub solver_fingerprints: Vec<Fingerprint>,
}

/// The ShadowDP pipeline: parse → type-check/transform → lower → verify.
///
/// # Examples
///
/// See the crate-level docs.
#[derive(Clone, Debug, Default)]
pub struct Pipeline {
    /// Verification options (engines, cost-linearization mode, BMC bounds).
    pub options: Options,
}

impl Pipeline {
    /// A pipeline with default options (scaled linearization, inductive
    /// engine with BMC fallback).
    pub fn new() -> Pipeline {
        Pipeline::default()
    }

    /// A pipeline with explicit verification options.
    pub fn with_options(options: Options) -> Pipeline {
        Pipeline { options }
    }

    /// Runs the full pipeline on ShadowDP source text.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] if parsing or type checking fails;
    /// verification failures are reported in the
    /// [`PipelineReport::verdict`], not as errors.
    pub fn run(&self, source: &str) -> Result<PipelineReport, PipelineError> {
        shadowdp_solver::with_fresh_shard(|| self.run_with(source, &Solver::new()))
    }

    /// [`Pipeline::run`] against `solver`. The corpus driver passes one
    /// backed by a shared [`QueryMemo`], so entries written by other runs
    /// (on this or any other thread) answer structurally identical
    /// queries here, and this run's entries flow back.
    ///
    /// Both callers run it under [`shadowdp_solver::with_fresh_shard`], so
    /// its terms live in an arena shard of their own, freed when it ends:
    /// no `TermId` leaves a run (reports carry ASTs, strings and symbols),
    /// and a long-lived thread running job after job does not grow its
    /// shard.
    fn run_with(&self, source: &str, solver: &Solver) -> Result<PipelineReport, PipelineError> {
        let f = parse_timed(source)?;
        // Advisory pre-verification lint phase: feeds the span log and
        // the per-code counters, never the report.
        let _ = lint_timed(&f, source);
        let t0 = Instant::now();
        let transformed = {
            let _span = shadowdp_obs::span_labeled("typecheck", &f.name);
            check_function_with(&f, solver).map_err(PipelineError::Type)
        }?;
        let typecheck_time = t0.elapsed();
        PHASE_US
            .with("typecheck")
            .observe(typecheck_time.as_micros() as u64);

        let t1 = Instant::now();
        let verification = {
            // Labeled with the algorithm name so a Table 1 trace attributes
            // verification time per algorithm.
            let _span = shadowdp_obs::span_labeled("verify", &f.name);
            verify_with(&transformed.function, &self.options, solver)
        };
        let verify_time = t1.elapsed();
        PHASE_US
            .with("verify")
            .observe(verify_time.as_micros() as u64);
        ALGO_VERIFY_US
            .with(&f.name)
            .observe(verify_time.as_micros() as u64);

        Ok(PipelineReport {
            name: f.name.clone(),
            typecheck_time,
            verify_time,
            verdict: verification.verdict.clone(),
            transformed: transformed.function,
            verification,
            solver_stats: solver.stats(),
            solver_fingerprints: solver.touched_fingerprints(),
        })
    }

    /// Runs a corpus of independent verifications **sequentially** on the
    /// calling thread, against one shared query memo.
    ///
    /// This is the single-threaded reference for
    /// [`Pipeline::verify_corpus_parallel`]: both drivers run the same
    /// per-job pipeline with the same memo-sharing design, so their
    /// [`CorpusOutcome::digest`]s are byte-identical and wall-clock is the
    /// only thing the parallel driver changes.
    pub fn verify_corpus(&self, jobs: &[CorpusJob]) -> CorpusOutcome {
        self.verify_corpus_parallel(jobs, Some(1))
    }

    /// Runs a corpus of independent verifications across worker threads
    /// with **work stealing**, against one shared query memo.
    ///
    /// # Design: arena shards + a cross-arena memo
    ///
    /// ShadowDP verifies each algorithm independently, so the corpus is
    /// embarrassingly parallel — the historical blocker was the solver's
    /// process-wide term arena mutex. That arena is now a **per-thread
    /// shard** ([`shadowdp_solver::with_shard`]): every job interns terms
    /// into an arena of its own with no locking, and the one piece of
    /// cross-thread state is the [`QueryMemo`], keyed by 128-bit
    /// *structural fingerprints* rather than arena-local `TermId`s. Two
    /// workers that build the same verification condition — SVT and its
    /// `N = 1` sibling share most of their Houdini obligations — therefore
    /// hit each other's cached verdicts even though they never share a term
    /// id, while structurally different queries cannot alias by
    /// construction of the fingerprint. (Jobs whose *timings* must stay
    /// cold and order-independent opt out per job with
    /// [`CorpusJob::with_isolated_memo`]; verdicts are identical either
    /// way.)
    ///
    /// Scheduling is a work-stealing job queue in its simplest sound form:
    /// an atomic next-job cursor that each idle worker bumps, so a worker
    /// that drew a 2 ms Prefix Sum immediately steals the next pending
    /// algorithm while a sibling is still inside a 78 ms Smart Sum. With
    /// per-job costs spread over ~30×, that keeps all cores busy until the
    /// tail and yields near-linear speedup on CI-class machines.
    ///
    /// # Determinism
    ///
    /// [`CorpusOutcome::reports`] is indexed by **input order**, never
    /// completion order: each worker writes its result into the slot of the
    /// job it drew. Verdicts, logs, transformed programs, and
    /// counterexamples are therefore byte-identical to the sequential
    /// driver's (see [`CorpusOutcome::digest`]) regardless of thread count
    /// or scheduling — a memo hit returns exactly the value the same
    /// process would have computed locally, because entries are keyed by
    /// structure and results depend only on structure. Only wall-clock
    /// timings and the split of `cache_hits` between jobs vary from run to
    /// run.
    ///
    /// `threads = None` uses [`std::thread::available_parallelism`];
    /// `Some(1)` degenerates to an inline loop with no threads spawned.
    pub fn verify_corpus_parallel(
        &self,
        jobs: &[CorpusJob],
        threads: Option<usize>,
    ) -> CorpusOutcome {
        self.verify_corpus_parallel_with_memo(jobs, threads, &Arc::new(QueryMemo::default()))
    }

    /// [`Pipeline::verify_corpus_parallel`] against a **caller-provided**
    /// shared memo, so solver work survives the corpus run: a daemon keeps
    /// one long-lived table across every batch it schedules (and persists
    /// it via [`QueryMemo::snapshot`]), which is what turns repeated
    /// near-identical submissions — the CheckDP candidate-loop shape — into
    /// pure cache hits. Per-job [`CorpusJob::with_isolated_memo`] opt-outs
    /// are honored exactly as in the fresh-memo driver.
    pub fn verify_corpus_parallel_with_memo(
        &self,
        jobs: &[CorpusJob],
        threads: Option<usize>,
        memo: &Arc<QueryMemo>,
    ) -> CorpusOutcome {
        let start = Instant::now();
        let mut corpus_span = shadowdp_obs::span("corpus");
        let memo = memo.clone();
        let workers = threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
            })
            .clamp(1, jobs.len().max(1));

        let run_job = |job: &CorpusJob| -> Result<PipelineReport, PipelineError> {
            let pipeline = match &job.options {
                Some(options) => Pipeline::with_options(options.clone()),
                None => self.clone(),
            };
            // Panic isolation: a poisoned job becomes a `Crashed` entry in
            // its slot while every other job completes normally. Unwinding
            // here is safe to assert across: per-job state (solver, arena
            // terms) is dropped on the way out, and the shared memo's
            // locks are panic-released with entry-atomic inserts.
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                let solver = if job.isolated_memo {
                    Solver::new()
                } else {
                    Solver::with_memo(memo.clone())
                };
                shadowdp_solver::with_fresh_shard(|| pipeline.run_with(&job.source, &solver))
            }));
            match attempt {
                Ok(result) => result,
                Err(payload) => Err(PipelineError::Crashed(panic_message(payload.as_ref()))),
            }
        };

        let reports: Vec<Result<PipelineReport, PipelineError>> = if workers <= 1 {
            jobs.iter().map(run_job).collect()
        } else {
            let next = AtomicUsize::new(0);
            let slots: Vec<OnceLock<Result<PipelineReport, PipelineError>>> =
                jobs.iter().map(|_| OnceLock::new()).collect();
            // Workers run under the caller's fault plan, if any: a plan
            // scoped to this corpus run reaches the jobs it runs, never a
            // sibling run's.
            let faults = shadowdp_fault::PlanHandle::current();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        let _faults = faults.bind();
                        loop {
                            // Claim the next pending job; the cursor is the
                            // whole work-stealing protocol — a free worker
                            // always takes the oldest unclaimed job.
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= jobs.len() {
                                break;
                            }
                            slots[i]
                                .set(run_job(&jobs[i]))
                                .expect("each job is claimed by one worker");
                        }
                    });
                }
            });
            slots
                .into_iter()
                .map(|slot| slot.into_inner().expect("every job slot is filled"))
                .collect()
        };

        let solver_stats = reports.iter().filter_map(|r| r.as_ref().ok()).fold(
            SolverStats::default(),
            |mut acc, r| {
                acc.checks += r.solver_stats.checks;
                acc.proves += r.solver_stats.proves;
                acc.theory_calls += r.solver_stats.theory_calls;
                acc.nanos += r.solver_stats.nanos;
                acc.micros = acc.nanos / 1000;
                acc.cache_hits += r.solver_stats.cache_hits;
                acc.assumption_queries += r.solver_stats.assumption_queries;
                acc.assumption_hits += r.solver_stats.assumption_hits;
                acc.trail_ops += r.solver_stats.trail_ops;
                acc.max_trail_depth = acc.max_trail_depth.max(r.solver_stats.max_trail_depth);
                acc.saturation_reuses += r.solver_stats.saturation_reuses;
                acc.resaturations += r.solver_stats.resaturations;
                acc
            },
        );

        // Always-on global counters (the METRICS verb exposes these);
        // counter totals are schedule-independent, so two identical
        // cold runs increment them identically.
        SOLVER_QUERIES.add(solver_stats.checks + solver_stats.proves);
        MEMO_HITS.add(solver_stats.cache_hits);
        THEORY_CALLS.add(solver_stats.theory_calls);
        ASSUMPTION_QUERIES.add(solver_stats.assumption_queries);
        ASSUMPTION_HITS.add(solver_stats.assumption_hits);
        TRAIL_OPS.add(solver_stats.trail_ops);
        SATURATION_REUSES.add(solver_stats.saturation_reuses);
        RESATURATIONS.add(solver_stats.resaturations);
        TRAIL_DEPTH.observe(solver_stats.max_trail_depth);
        if shadowdp_obs::armed() {
            corpus_span.set_label(&format!("jobs={} threads={workers}", jobs.len()));
        }

        CorpusOutcome {
            reports,
            solver_stats,
            wall: start.elapsed(),
            threads: workers,
        }
    }
}

/// One unit of corpus work: a source program and, optionally, per-job
/// verification options (BMC parameter pinning, linearization mode)
/// overriding the driver pipeline's.
#[derive(Clone, Debug)]
pub struct CorpusJob {
    /// ShadowDP source text.
    pub source: String,
    /// Per-job options; `None` inherits the driving [`Pipeline`]'s.
    pub options: Option<Options>,
    /// When `true`, this job runs against its own private query memo
    /// instead of the corpus-wide shared table. Opt in for harnesses whose
    /// per-job *timings* must be cold and independent of what other jobs
    /// already solved — the Table 1 rows do, because they stand in for the
    /// paper's per-algorithm measurements. Verdicts and reports are
    /// identical either way; only timing and cache-hit statistics differ.
    pub isolated_memo: bool,
}

impl CorpusJob {
    /// A job inheriting the driver's options (shared corpus memo).
    pub fn new(source: impl Into<String>) -> CorpusJob {
        CorpusJob {
            source: source.into(),
            options: None,
            isolated_memo: false,
        }
    }

    /// A job with its own verification options (shared corpus memo).
    pub fn with_options(source: impl Into<String>, options: Options) -> CorpusJob {
        CorpusJob {
            source: source.into(),
            options: Some(options),
            isolated_memo: false,
        }
    }

    /// Opts this job out of the corpus-wide shared memo (see
    /// [`CorpusJob::isolated_memo`]).
    pub fn with_isolated_memo(mut self) -> CorpusJob {
        self.isolated_memo = true;
        self
    }
}

/// The result of a corpus run, in **input order** (independent of worker
/// scheduling).
#[derive(Clone, Debug)]
pub struct CorpusOutcome {
    /// Per-job pipeline results, indexed like the submitted jobs.
    pub reports: Vec<Result<PipelineReport, PipelineError>>,
    /// Solver statistics summed over all successful jobs. The totals for
    /// `checks`/`proves`/`theory_calls` are schedule-independent; how
    /// `cache_hits` distribute between jobs (and timing sums) depends on
    /// which worker reached a shared query first.
    pub solver_stats: SolverStats,
    /// Wall-clock time of the whole corpus run.
    pub wall: Duration,
    /// Number of workers actually used.
    pub threads: usize,
}

impl CorpusOutcome {
    /// A canonical rendering of everything the drivers guarantee to be
    /// deterministic: per job, the function name, verdict, engine log, and
    /// the pretty-printed transformed and target programs — but no
    /// wall-clock timings and no solver statistics. Equal digests mean the
    /// observable verification output is byte-identical.
    pub fn digest(&self) -> String {
        let mut out = String::new();
        for i in 0..self.reports.len() {
            let _ = writeln!(out, "[{i}]");
            out.push_str(&self.report_digest(i));
        }
        out
    }

    /// The [`CorpusOutcome::digest`] fragment for one job, in the same
    /// canonical rendering but **independent of the job's position** in
    /// the batch. The verification service keys its pipeline-tier cache by
    /// (source, options), so it persists and compares these per-job
    /// digests — a warm daemon restart must reproduce them byte for byte,
    /// and an identical program resubmitted at a different batch position
    /// must digest identically.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range of [`CorpusOutcome::reports`].
    pub fn report_digest(&self, index: usize) -> String {
        let mut out = String::new();
        match &self.reports[index] {
            Ok(report) => {
                let _ = writeln!(out, "{} {:?}", report.name, report.verdict);
                for line in &report.verification.log {
                    let _ = writeln!(out, "  log: {line}");
                }
                let _ = writeln!(
                    out,
                    "  transformed:\n{}",
                    pretty_function(&report.transformed)
                );
                let _ = writeln!(
                    out,
                    "  target:\n{}",
                    pretty_function(&report.verification.target)
                );
            }
            Err(e) => {
                let _ = writeln!(out, "error in {:?}: {e}", e.phase());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_proves_the_laplace_mechanism() {
        let report = Pipeline::new()
            .run(crate::corpus::laplace_mechanism().source)
            .unwrap();
        assert!(matches!(report.verdict, Verdict::Proved), "{report:?}");
        assert!(report.typecheck_time.as_secs() < 5);
        assert!(report.solver_stats.checks > 0, "{:?}", report.solver_stats);
        // The dependency set the service persists: every memoized query
        // this run asked, sorted and deduplicated.
        let deps = &report.solver_fingerprints;
        assert!(!deps.is_empty());
        assert!(deps.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        assert!(deps.len() as u64 <= report.solver_stats.checks + report.solver_stats.proves);
    }

    #[test]
    fn houdini_verification_hits_the_solver_memo() {
        // A loop with per-iteration cost: the Houdini fixed point re-proves
        // the surviving candidate conjunction each round, so the memoized
        // solver must answer a healthy share of the queries from cache.
        let src = "function Loop(eps, NN, size: num(0,0), q: list num(*,*))
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
        let report = Pipeline::new().run(src).unwrap();
        assert!(matches!(report.verdict, Verdict::Proved), "{report:?}");
        let stats = report.solver_stats;
        assert!(
            stats.cache_hits > 0,
            "Houdini rounds should repeat queries verbatim: {stats:?}"
        );
    }

    /// Regression lock for the per-candidate assumption keying: on a
    /// Table 1 loop algorithm whose Houdini run drops candidates, the
    /// round *following* a drop must answer at least half its consecution
    /// queries from the memo (the narrow, sibling-independent keys are
    /// unchanged by the drop). Under the old monolithic all-candidates
    /// prefix this rate was ~0: one dropped sibling perturbed every query.
    #[test]
    fn post_drop_consecution_rounds_hit_the_memo() {
        use shadowdp_verify::{Engine, InductiveOptions, RoundProfileSink};
        let sink: RoundProfileSink = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let options = shadowdp_verify::Options {
            engine: Engine::Inductive,
            inductive: InductiveOptions {
                profile: Some(sink.clone()),
                ..InductiveOptions::default()
            },
            ..shadowdp_verify::Options::default()
        };
        let report = Pipeline::with_options(options)
            .run(crate::corpus::partial_sum().source)
            .unwrap();
        assert!(matches!(report.verdict, Verdict::Proved), "{report:?}");

        let rounds = sink.lock().unwrap();
        let (queries, hits) = rounds
            .iter()
            .filter(|r| r.after_drop)
            .fold((0u64, 0u64), |(q, h), r| (q + r.queries, h + r.hits));
        assert!(
            queries > 0,
            "Partial Sum must drop candidates for this regression lock: {rounds:?}"
        );
        assert!(
            hits * 2 >= queries,
            "post-drop consecution hit rate below 50%: {hits}/{queries} ({rounds:?})"
        );
        // The rate also surfaces through the report's aggregate stats.
        let stats = report.solver_stats;
        assert!(stats.assumption_queries > 0, "{stats:?}");
        assert_eq!(
            stats.assumption_hits > 0,
            stats.assumption_hit_rate().unwrap() > 0.0
        );
    }

    /// Persisted per-candidate consecution verdicts transfer across
    /// *candidate-set variations*: a variant program whose Houdini pool
    /// differs (an extra doomed user invariant changes every round's
    /// surviving set) still reuses the base program's assumption-keyed
    /// entries, because those keys never mention sibling candidates.
    #[test]
    fn assumption_entries_transfer_across_candidate_set_variations() {
        let base = crate::corpus::COUNTER_LOOP_TEMPLATE;
        let plain = base.replace("INV", "");
        // `count <= 0` passes initiation (count starts at 0) but fails
        // consecution, so the variant's candidate set shrinks mid-run and
        // never equals the plain program's.
        let doomed = base.replace("INV", "invariant (count <= 0)");

        let pipeline = Pipeline::new();
        let warm_memo = Arc::new(QueryMemo::default());
        let warm_up = pipeline
            .run_with(&plain, &Solver::with_memo(warm_memo.clone()))
            .unwrap();
        assert!(matches!(warm_up.verdict, Verdict::Proved));

        // Cold reference for the variant.
        let cold = pipeline.run(&doomed).unwrap();
        assert!(matches!(cold.verdict, Verdict::Proved), "{cold:?}");

        // The variant against the plain program's memo (the restarted-
        // daemon shape: snapshot → absorb → resubmit a variation).
        let transferred = Arc::new(QueryMemo::default());
        transferred.absorb(warm_memo.snapshot());
        let warm = pipeline
            .run_with(&doomed, &Solver::with_memo(transferred))
            .unwrap();
        assert!(matches!(warm.verdict, Verdict::Proved));
        assert_eq!(warm.verdict, cold.verdict);
        assert_eq!(
            warm.verification.log, cold.verification.log,
            "memo transfer must not change observable output"
        );
        assert_eq!(
            pretty_function(&warm.verification.target),
            pretty_function(&cold.verification.target)
        );
        assert!(
            warm.solver_stats.assumption_hits > cold.solver_stats.assumption_hits,
            "the variant must reuse per-candidate verdicts: cold {:?} vs warm {:?}",
            cold.solver_stats,
            warm.solver_stats
        );
        assert!(
            warm.solver_stats.theory_calls < cold.solver_stats.theory_calls,
            "cold {:?} vs warm {:?}",
            cold.solver_stats,
            warm.solver_stats
        );
    }

    #[test]
    fn parse_errors_surface_with_phase() {
        let err = Pipeline::new().run("function {").unwrap_err();
        assert_eq!(err.phase(), Phase::Parse);
    }

    /// Mixed-outcome corpus (proved / type error / parse error): the
    /// parallel driver's output must be byte-identical to the sequential
    /// driver's, in input order, for any worker count.
    #[test]
    fn corpus_drivers_agree_byte_for_byte() {
        let algs = [
            crate::corpus::laplace_mechanism(),
            crate::corpus::prefix_sum(),
            crate::corpus::bad_noisy_max_non_injective(),
        ];
        let mut jobs: Vec<CorpusJob> = algs.iter().map(|a| CorpusJob::new(a.source)).collect();
        jobs.push(CorpusJob::new("function {"));

        let pipeline = Pipeline::new();
        let sequential = pipeline.verify_corpus(&jobs);
        assert_eq!(sequential.threads, 1);
        let parallel = pipeline.verify_corpus_parallel(&jobs, Some(4));
        assert!(parallel.threads >= 2, "got {}", parallel.threads);

        assert!(matches!(
            sequential.reports[0].as_ref().unwrap().verdict,
            Verdict::Proved
        ));
        assert!(sequential.reports[2].is_err());
        assert!(sequential.reports[3].is_err());
        assert_eq!(sequential.digest(), parallel.digest());

        // And scheduling is irrelevant: a second parallel run agrees too.
        let again = pipeline.verify_corpus_parallel(&jobs, Some(2));
        assert_eq!(parallel.digest(), again.digest());
    }

    /// The corpus-wide shared memo: a job whose queries were already solved
    /// by an earlier identical job is answered from the cache instead of
    /// re-running theory work.
    #[test]
    fn corpus_jobs_share_the_query_memo() {
        let src = crate::corpus::laplace_mechanism().source;
        let jobs = [CorpusJob::new(src), CorpusJob::new(src)];
        let outcome = Pipeline::new().verify_corpus(&jobs);
        let first = outcome.reports[0].as_ref().unwrap().solver_stats;
        let second = outcome.reports[1].as_ref().unwrap().solver_stats;
        assert_eq!(first.checks, second.checks, "identical work profile");
        assert!(
            second.cache_hits > first.cache_hits,
            "the repeat job must reuse the corpus memo: {first:?} vs {second:?}"
        );
        assert!(
            second.theory_calls < first.theory_calls,
            "cached answers skip the theory solver: {first:?} vs {second:?}"
        );
    }

    /// The contract the verification service's persistent store rests on:
    /// after a cold corpus run against a shared memo, transferring that
    /// memo through `snapshot()`/`absorb()` into a fresh table (the daemon
    /// restart shape) and re-running the identical corpus does **zero**
    /// fresh solver work — every validity query is a memo hit — and the
    /// outcome digest is byte-identical.
    #[test]
    fn warm_memo_rerun_does_zero_theory_work() {
        let jobs: Vec<CorpusJob> = [
            crate::corpus::laplace_mechanism(),
            crate::corpus::prefix_sum(),
            crate::corpus::svt(),
        ]
        .iter()
        .map(|a| CorpusJob::new(a.source))
        .collect();

        let pipeline = Pipeline::new();
        let cold_memo = Arc::new(QueryMemo::default());
        let cold = pipeline.verify_corpus_parallel_with_memo(&jobs, Some(1), &cold_memo);
        assert!(cold.solver_stats.theory_calls > 0);

        let warm_memo = Arc::new(QueryMemo::default());
        warm_memo.absorb(cold_memo.snapshot());
        let warm = pipeline.verify_corpus_parallel_with_memo(&jobs, Some(2), &warm_memo);

        assert_eq!(cold.digest(), warm.digest());
        let stats = warm.solver_stats;
        assert_eq!(
            stats.theory_calls, 0,
            "warm run did fresh solver work: {stats:?}"
        );
        assert_eq!(stats.cache_hits, stats.checks, "{stats:?}");
    }

    /// Panic isolation: a job whose solver panics mid-search becomes a
    /// `Crashed` entry in its own slot while its batch-mates verify
    /// normally — one poisoned job must never take down the corpus run.
    #[test]
    fn corpus_isolates_a_panicking_job() {
        use shadowdp_fault::{FaultKind, FaultPlan};
        let _plan = FaultPlan::new()
            .once("solver.step", FaultKind::Panic)
            .install();
        // Single-threaded so the injected panic lands deterministically in
        // the first job to reach the solver.
        let jobs = [
            CorpusJob::new(crate::corpus::laplace_mechanism().source),
            CorpusJob::new(crate::corpus::prefix_sum().source),
        ];
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = Pipeline::new().verify_corpus(&jobs);
        std::panic::set_hook(prev_hook);

        match &outcome.reports[0] {
            Err(PipelineError::Crashed(msg)) => {
                assert!(msg.contains("injected panic at solver.step"), "{msg}");
            }
            other => panic!("expected the first job to crash, got {other:?}"),
        }
        assert_eq!(
            outcome.reports[0].as_ref().unwrap_err().phase(),
            Phase::Crash
        );
        assert!(
            matches!(
                outcome.reports[1].as_ref().unwrap().verdict,
                Verdict::Proved
            ),
            "the sibling job must complete normally"
        );
    }

    /// The work-stealing driver also survives a crashing job: the panic is
    /// caught inside the worker closure, so the thread scope joins cleanly
    /// and every other slot is filled.
    #[test]
    fn parallel_corpus_survives_a_panicking_job() {
        use shadowdp_fault::{FaultKind, FaultPlan};
        let _plan = FaultPlan::new()
            .once("solver.step", FaultKind::Panic)
            .install();
        let jobs: Vec<CorpusJob> = [
            crate::corpus::laplace_mechanism(),
            crate::corpus::prefix_sum(),
            crate::corpus::svt(),
        ]
        .iter()
        .map(|a| CorpusJob::new(a.source))
        .collect();
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = Pipeline::new().verify_corpus_parallel(&jobs, Some(2));
        std::panic::set_hook(prev_hook);

        let crashed = outcome
            .reports
            .iter()
            .filter(|r| matches!(r, Err(PipelineError::Crashed(_))))
            .count();
        assert_eq!(
            crashed, 1,
            "exactly one injected crash: {:?}",
            outcome.reports
        );
        let proved = outcome
            .reports
            .iter()
            .filter(|r| matches!(r, Ok(rep) if rep.verdict == Verdict::Proved))
            .count();
        assert_eq!(proved, jobs.len() - 1, "{:?}", outcome.reports);
    }

    /// Each run interns into an arena of its own: driving the corpus
    /// inline leaves the caller's shard as it was, after a crashed job
    /// too, so a long-lived thread does not grow with the jobs it runs.
    #[test]
    fn inline_corpus_runs_leave_the_callers_shard_as_it_was() {
        use shadowdp_fault::{FaultKind, FaultPlan};
        use shadowdp_solver::{with_shard, Term};
        let kept = Term::real_var("kept").add(Term::int(1)).le(Term::int(0));
        let rendered = kept.to_string();
        let len = with_shard(|a| a.len());
        let jobs = [CorpusJob::new(crate::corpus::laplace_mechanism().source)];

        let proved = Pipeline::new().verify_corpus(&jobs);
        assert!(proved.reports[0].is_ok(), "{:?}", proved.reports[0]);
        let plan = FaultPlan::new()
            .once("solver.step", FaultKind::Panic)
            .install();
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let crashed = Pipeline::new().verify_corpus(&jobs);
        std::panic::set_hook(prev_hook);
        drop(plan);
        assert!(
            matches!(crashed.reports[0], Err(PipelineError::Crashed(_))),
            "{:?}",
            crashed.reports[0]
        );

        assert_eq!(kept.to_string(), rendered);
        assert_eq!(with_shard(|a| a.len()), len, "the jobs' terms were freed");
    }

    #[test]
    fn type_errors_surface_with_phase() {
        let err = Pipeline::new()
            .run(
                "function F(eps: num(0,0), x: num(1,1)) returns out: num(0,0)
                 { out := x; }",
            )
            .unwrap_err();
        assert_eq!(err.phase(), Phase::TypeCheck);

        // A hat in a source `return` is a stage error at its command.
        let src = "function F(eps: num(0,0), x: num(1,1)) returns out: num(0,-)
precondition eps > 0
{
    eta := lap(1 / eps) { select: aligned, align: -1 };
    out := x + eta;
    return ^out;
}";
        let err = Pipeline::new().run(src).unwrap_err();
        assert_eq!(err.phase(), Phase::TypeCheck);
        assert_eq!(
            err.render_located(src),
            "type error at 6:5: hat variables are not allowed in source programs (in `return`)"
        );
    }
}
