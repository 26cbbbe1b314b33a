//! The traced, in-process replay: the same generated jobs, pushed through
//! each layer's public entry point in the order the daemon runs them,
//! with a benchmark-owned span around every call.
//!
//! Per job: the `SUBMIT` line is encoded and parsed (`service.proto`), the
//! pipeline tier is consulted (`store.lookup`), and a miss runs parse,
//! lint, typecheck, lowering, Houdini and — when Houdini fails — BMC
//! exactly as `shadowdp_verify::verify_with` sequences them, against one
//! long-lived memo as the daemon's scheduler does. The report is digested
//! (`service.digest`), persisted (`store.write`) and its `RESULT` line
//! encoded and parsed. Solver time inside typecheck, Houdini and BMC is
//! read from `Solver::stats()` and subtracted from those spans, so each
//! layer is reported as self time.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use shadowdp::{CorpusJob, CorpusOutcome, JobSpec, Pipeline, PipelineError, PipelineReport};
use shadowdp_obs::SpanRecord;
use shadowdp_service::proto::{encode_request, encode_response, parse_request, parse_response};
use shadowdp_service::{
    outcome_kind, render_verdict, wire_digest, JobOutcome, OutcomeKind, PipelineEntry, Request,
    Response, VerdictStore,
};
use shadowdp_solver::{QueryMemo, Solver, SolverStats};
use shadowdp_verify::{
    bmc, inductive, lower_to_target, BmcOutcome, InductiveOutcome, Options, Report, Verdict,
};

/// The benchmark's span log, kept in memory and written out at the end
/// through the `shadowdp_obs` Chrome exporter. These spans are the
/// benchmark's own: the program's spans stay disarmed.
pub struct Spans {
    origin: Instant,
    recs: Vec<SpanRecord>,
}

impl Spans {
    /// A log with room for `capacity` spans, reserved up front so that
    /// growing it never lands inside a measured job.
    pub fn with_capacity(capacity: usize) -> Spans {
        Spans {
            origin: Instant::now(),
            recs: Vec::with_capacity(capacity),
        }
    }

    /// Runs `f` inside a span and returns its result and duration in µs.
    /// All spans of one job share the job's index as their `tid`.
    fn time<T>(&mut self, name: &'static str, job: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        self.recs.push(SpanRecord {
            name,
            label: None,
            id: self.recs.len() as u64 + 1,
            parent: 0,
            tid: job as u64,
            start_us: (start - self.origin).as_micros() as u64,
            dur_us: elapsed.as_micros() as u64,
        });
        (out, elapsed.as_secs_f64() * 1e6)
    }

    /// Chrome `trace_event` JSON of every span.
    pub fn chrome_json(&self) -> String {
        shadowdp_obs::chrome_trace_json(&self.recs)
    }
}

/// Self time per layer for one job, in microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    pub proto: f64,
    pub lookup: f64,
    pub parse: f64,
    pub lint: f64,
    pub typecheck: f64,
    pub typing_solver: f64,
    pub lower: f64,
    pub inductive: f64,
    pub bmc: f64,
    pub verify_solver: f64,
    pub digest: f64,
    pub store_write: f64,
}

impl Layers {
    pub fn sum(&self) -> f64 {
        self.proto
            + self.lookup
            + self.parse
            + self.lint
            + self.typecheck
            + self.typing_solver
            + self.lower
            + self.inductive
            + self.bmc
            + self.verify_solver
            + self.digest
            + self.store_write
    }

    pub fn add(&mut self, o: &Layers) {
        self.proto += o.proto;
        self.lookup += o.lookup;
        self.parse += o.parse;
        self.lint += o.lint;
        self.typecheck += o.typecheck;
        self.typing_solver += o.typing_solver;
        self.lower += o.lower;
        self.inductive += o.inductive;
        self.bmc += o.bmc;
        self.verify_solver += o.verify_solver;
        self.digest += o.digest;
        self.store_write += o.store_write;
    }
}

/// What the replay of one job produced.
pub struct JobReplay {
    pub outcome: JobOutcome,
    pub layers: Layers,
    /// Outer wall time of the job's replay, µs.
    pub wall_us: f64,
    pub stats: SolverStats,
    pub houdini_rounds: usize,
}

/// The long-lived state the daemon keeps across jobs: its memo and store.
pub struct Ctx {
    pub memo: Arc<QueryMemo>,
    pub store: VerdictStore,
    /// Jobs per store flush — the daemon flushes once per batch.
    flush_every: usize,
    unflushed: usize,
}

impl Ctx {
    /// Loads the store at `path` and warms a fresh memo from it, as the
    /// daemon does at start-up. Returns the context and the time taken.
    pub fn open(path: &Path, flush_every: usize) -> (Ctx, Duration) {
        let start = Instant::now();
        let store = VerdictStore::load(path);
        let memo = Arc::new(QueryMemo::default());
        store.warm_memo(&memo);
        let took = start.elapsed();
        (
            Ctx {
                memo,
                store,
                flush_every: flush_every.max(1),
                unflushed: 0,
            },
            took,
        )
    }
}

fn outcome_from_stats(
    verdict: String,
    ok: bool,
    kind: OutcomeKind,
    digest: String,
    s: &SolverStats,
) -> JobOutcome {
    JobOutcome {
        id: 0,
        ok,
        from_store: false,
        kind,
        digest,
        checks: s.checks,
        cache_hits: s.cache_hits,
        theory_calls: s.theory_calls,
        assumption_queries: s.assumption_queries,
        assumption_hits: s.assumption_hits,
        trail_ops: s.trail_ops,
        max_trail_depth: s.max_trail_depth,
        saturation_reuses: s.saturation_reuses,
        resaturations: s.resaturations,
        verdict,
    }
}

/// Replays one job through every layer.
pub fn replay_job(ctx: &mut Ctx, spec: &JobSpec, job: usize, spans: &mut Spans) -> JobReplay {
    let mut l = Layers::default();
    let mut stats = SolverStats::default();
    let mut rounds = 0;
    let wall = Instant::now();
    let (spec, us) = spans.time("service.proto", job, || {
        match parse_request(&encode_request(&Request::Submit(spec.clone()))) {
            Ok(Request::Submit(spec)) => spec,
            other => panic!("SUBMIT line did not round-trip: {other:?}"),
        }
    });
    l.proto += us;
    let (hit, us) = spans.time("store.lookup", job, || {
        ctx.store.pipeline_get(&spec).cloned()
    });
    l.lookup += us;
    let outcome = match hit {
        Some(entry) => {
            let (outcome, us) = spans.time("service.digest", job, || {
                let kind = if entry.ok {
                    OutcomeKind::Completed
                } else {
                    OutcomeKind::Error
                };
                let digest = wire_digest(&entry.digest);
                JobOutcome {
                    from_store: true,
                    ..outcome_from_stats(
                        entry.verdict,
                        entry.ok,
                        kind,
                        digest,
                        &SolverStats::default(),
                    )
                }
            });
            l.digest += us;
            outcome
        }
        None => {
            let (decoded, us) = spans.time("service.proto", job, || spec.to_job());
            l.proto += us;
            match decoded {
                Err(e) => outcome_from_stats(
                    format!("error: {e}"),
                    false,
                    OutcomeKind::Error,
                    wire_digest(&format!("{e}")),
                    &SolverStats::default(),
                ),
                Ok(corpus_job) => {
                    let report = run_fresh(ctx, &corpus_job, job, spans, &mut l, &mut rounds);
                    if let Ok(r) = &report {
                        stats = r.solver_stats;
                    }
                    let ((outcome, entry), us) = spans.time("service.digest", job, || {
                        let corpus = CorpusOutcome {
                            reports: vec![report],
                            solver_stats: stats,
                            wall: Duration::ZERO,
                            threads: 1,
                        };
                        let text = corpus.report_digest(0);
                        let kind = outcome_kind(&corpus.reports[0]);
                        let ok = corpus.reports[0].is_ok();
                        let verdict = render_verdict(&corpus.reports[0]);
                        let deps = corpus.reports[0]
                            .as_ref()
                            .map(|r| r.solver_fingerprints.clone())
                            .unwrap_or_default();
                        let outcome = outcome_from_stats(
                            verdict.clone(),
                            ok,
                            kind,
                            wire_digest(&text),
                            &stats,
                        );
                        let entry = PipelineEntry {
                            ok,
                            verdict,
                            digest: text,
                            deps: Some(deps),
                        };
                        (outcome, entry)
                    });
                    l.digest += us;
                    let ((), us) = spans.time("store.write", job, || {
                        if matches!(outcome.kind, OutcomeKind::Completed | OutcomeKind::Error) {
                            if let Some(deps) = &entry.deps {
                                ctx.store.ensure_deps(&ctx.memo, deps);
                            }
                            ctx.store.pipeline_put(&spec, entry);
                        }
                        ctx.unflushed += 1;
                        if ctx.unflushed >= ctx.flush_every {
                            ctx.unflushed = 0;
                            ctx.store.absorb_dirty(&ctx.memo);
                            ctx.store.flush().expect("replay store flush");
                        }
                    });
                    l.store_write += us;
                    outcome
                }
            }
        }
    };
    let (outcome, us) = spans.time("service.proto", job, || {
        match parse_response(&encode_response(&Response::Result(outcome))) {
            Ok(Response::Result(outcome)) => outcome,
            other => panic!("RESULT line did not round-trip: {other:?}"),
        }
    });
    l.proto += us;
    JobReplay {
        outcome,
        layers: l,
        wall_us: wall.elapsed().as_secs_f64() * 1e6,
        stats,
        houdini_rounds: rounds,
    }
}

/// Solver microseconds accrued by `solver` since `before`.
fn solver_us(solver: &Solver, before: &SolverStats) -> f64 {
    (solver.stats().micros - before.micros) as f64
}

/// Parse → lint → typecheck → verify for one fresh job, as
/// `Pipeline::run_with_memo` runs it.
fn run_fresh(
    ctx: &Ctx,
    job: &CorpusJob,
    id: usize,
    spans: &mut Spans,
    l: &mut Layers,
    rounds: &mut usize,
) -> Result<PipelineReport, PipelineError> {
    let (parsed, us) = spans.time("syntax.parse", id, || {
        shadowdp_syntax::parse_function(&job.source)
    });
    l.parse += us;
    let f = parsed.map_err(PipelineError::Parse)?;
    let (_, us) = spans.time("analysis.lint", id, || {
        shadowdp_analysis::lint_function(&f, &job.source)
    });
    l.lint += us;

    let solver = if job.isolated_memo {
        Solver::new()
    } else {
        Solver::with_memo(ctx.memo.clone())
    };
    let before = solver.stats();
    let tc_start = Instant::now();
    let (checked, us) = spans.time("typing.typecheck", id, || {
        shadowdp_typing::check_function_with(&f, &solver)
    });
    let typecheck_time = tc_start.elapsed();
    let in_solver = solver_us(&solver, &before);
    l.typing_solver += in_solver;
    l.typecheck += us - in_solver;
    let transformed = checked.map_err(PipelineError::Type)?;

    let options = job
        .options
        .clone()
        .unwrap_or_else(|| Pipeline::new().options);
    assert!(
        options.budget.is_none(),
        "the generator emits no budgeted jobs"
    );
    let v_start = Instant::now();
    let verification = verify(
        &transformed.function,
        &options,
        &solver,
        id,
        spans,
        l,
        rounds,
    );
    let verify_time = v_start.elapsed();
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

/// `shadowdp_verify::verify_with` for an unbudgeted job, one span per
/// engine call.
fn verify(
    transformed: &shadowdp_syntax::Function,
    options: &Options,
    solver: &Solver,
    id: usize,
    spans: &mut Spans,
    l: &mut Layers,
    rounds: &mut usize,
) -> Report {
    let (lowered, us) = spans.time("verify.lower", id, || {
        lower_to_target(transformed, options.mode.clone())
    });
    l.lower += us;
    let info = match lowered {
        Ok(info) => info,
        Err(e) => {
            return Report {
                verdict: Verdict::Unknown(format!("lowering failed: {e}")),
                target: transformed.clone(),
                log: vec![],
            }
        }
    };
    let mut log = vec![format!(
        "scaled budget: {}",
        shadowdp_syntax::pretty_expr(&info.scaled_budget)
    )];
    let engine = options.engine;
    let run_inductive = matches!(
        engine,
        shadowdp_verify::Engine::Inductive | shadowdp_verify::Engine::InductiveThenBmc
    );
    let run_bmc = matches!(
        engine,
        shadowdp_verify::Engine::Bmc | shadowdp_verify::Engine::InductiveThenBmc
    );
    if run_inductive {
        let sink = Arc::new(Mutex::new(Vec::new()));
        let mut opts = options.inductive.clone();
        opts.profile = Some(sink.clone());
        let before = solver.stats();
        let (outcome, us) = spans.time("verify.inductive", id, || {
            inductive::prove(&info, &opts, solver)
        });
        let in_solver = solver_us(solver, &before);
        l.verify_solver += in_solver;
        l.inductive += us - in_solver;
        *rounds += sink.lock().expect("profile sink lock").len();
        match outcome {
            InductiveOutcome::Proved { invariants } => {
                log.push(format!("inductive proof with invariants: {invariants:?}"));
                return Report {
                    verdict: Verdict::Proved,
                    target: info.function,
                    log,
                };
            }
            InductiveOutcome::Failed { reason } => {
                log.push(format!("inductive engine failed: {reason}"));
                if !run_bmc {
                    return Report {
                        verdict: Verdict::Unknown(reason),
                        target: info.function,
                        log,
                    };
                }
            }
        }
    }
    let before = solver.stats();
    let (outcome, us) = spans.time("verify.bmc", id, || bmc::check(&info, &options.bmc, solver));
    let in_solver = solver_us(solver, &before);
    l.verify_solver += in_solver;
    l.bmc += us - in_solver;
    match outcome {
        BmcOutcome::Verified { bound } => {
            let msg = format!("bounded verification only (all inputs with size <= {bound})");
            log.push(msg.clone());
            Report {
                verdict: if run_inductive {
                    Verdict::Unknown(format!("inductive proof failed; {msg}"))
                } else {
                    Verdict::Proved
                },
                target: info.function,
                log,
            }
        }
        BmcOutcome::Refuted(cex) => {
            log.push(format!("counterexample: {cex}"));
            Report {
                verdict: Verdict::Refuted(cex),
                target: info.function,
                log,
            }
        }
        BmcOutcome::Inconclusive { reason } => Report {
            verdict: Verdict::Unknown(reason),
            target: info.function,
            log,
        },
    }
}

/// One burst through the work-stealing corpus driver, as the daemon runs
/// a batch.
pub struct Burst {
    pub wall: Duration,
    /// Σ per-job typecheck + verify time (`verify_corpus_parallel_with_memo`
    /// times nothing else per job).
    pub job_time: Duration,
    /// The slowest job's typecheck + verify time.
    pub critical_path: Duration,
    pub verdicts: Vec<String>,
}

pub fn burst(specs: &[JobSpec], threads: usize, memo: &Arc<QueryMemo>) -> Burst {
    let jobs: Vec<CorpusJob> = specs
        .iter()
        .map(|s| s.to_job().expect("generated specs decode"))
        .collect();
    let start = Instant::now();
    let outcome = Pipeline::new().verify_corpus_parallel_with_memo(&jobs, Some(threads), memo);
    let wall = start.elapsed();
    let times: Vec<Duration> = outcome
        .reports
        .iter()
        .map(|r| {
            r.as_ref()
                .map_or(Duration::ZERO, |r| r.typecheck_time + r.verify_time)
        })
        .collect();
    Burst {
        wall,
        job_time: times.iter().sum(),
        critical_path: times.iter().copied().max().unwrap_or_default(),
        verdicts: outcome.reports.iter().map(render_verdict).collect(),
    }
}
