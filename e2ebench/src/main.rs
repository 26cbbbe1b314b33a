//! Socket-level benchmark of the ShadowDP verification service.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the release `shadowdpd` of this checkout, spawns it on a copy of
//! a start-up store built during preparation, drives it through
//! `shadowdp_service::Client`, checks every verdict against the corpus
//! label, and prints the metrics by name with their units; the last line
//! of standard output is one JSON object. `--trace 0` measures the
//! end-to-end metrics with tracing off; `--trace 1` runs half the time end
//! to end and replays the same jobs in-process, layer by layer, for the
//! per-layer metrics. See README.md.

mod daemon;
mod inputs;
mod load;
mod replay;

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use shadowdp::{Expected, JobSpec};
use shadowdp_service::{Client, JobOutcome, OutcomeKind, VerdictStore};
use shadowdp_solver::{QueryMemo, SolverStats};

use crate::daemon::{Daemon, Scrape};
use crate::inputs::{BaseJob, Input, Variant};
use crate::load::Record;
use crate::replay::{Ctx, Layers, Spans};

/// Daemon start-ups timed per run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 21;
/// Pause between two timed start-ups, so that the start-ups sample a
/// few seconds of a shared machine rather than one busy instant.
const SETUP_GAP: Duration = Duration::from_millis(100);
/// Equal-count slices of a run's completions: `jobs_per_s` is the median
/// of their rates.
const RATE_SLICES: usize = 10;
/// Latency percentiles are taken per slice of at least this many jobs
/// (so p99 has ten samples beyond it) and the median slice is reported.
const LATENCY_SLICE: usize = 1_000;
/// Per-job coverage bound: the replay's layer spans must account for at
/// least this share of the job's replay wall time, and of the whole
/// replay's.
const COVERAGE_BOUND: f64 = 0.9;
/// Share of replayed jobs allowed to miss the per-job bound: on a shared
/// machine the process can be descheduled between two spans.
const COVERAGE_MISSES: f64 = 0.01;
/// Armed/disarmed pass pairs behind `obs.span_overhead_pct`.
const OVERHEAD_PAIRS: usize = 3;
/// Blocks of cold variants verified into the start-up store after the
/// base corpus, so that every start-up loads a store with history.
const HISTORY_BLOCKS: usize = 8;
/// Number of the first history input: far above any stream's, so that
/// history and stream never share a pipeline key.
const HISTORY_FIRST: u64 = 1 << 40;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    InteractiveCold,
    ColdBurst,
    CandidateLoop,
    Resubmit,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "interactive-cold" => Workload::InteractiveCold,
            "cold-burst" => Workload::ColdBurst,
            "candidate-loop" => Workload::CandidateLoop,
            "resubmit" => Workload::Resubmit,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::InteractiveCold => "interactive-cold",
            Workload::ColdBurst => "cold-burst",
            Workload::CandidateLoop => "candidate-loop",
            Workload::Resubmit => "resubmit",
        }
    }

    fn variant(self) -> Variant {
        match self {
            Workload::InteractiveCold | Workload::ColdBurst => Variant::Cold,
            Workload::CandidateLoop => Variant::Warm,
            Workload::Resubmit => Variant::Exact,
        }
    }

    /// Whether one connection pipelines 22-job bursts (otherwise a closed
    /// loop keeps one job outstanding per connection).
    fn bursts(self) -> bool {
        matches!(self, Workload::ColdBurst | Workload::Resubmit)
    }

    /// Closed-loop connections. `interactive-cold` is one user waiting
    /// for one proof at a time: with two connections the scheduler pairs
    /// jobs into batches by timing, and which slow programs meet in a
    /// batch made p99 swing by up to 0.23 (IQR/median) across seeds.
    fn connections(self, threads: usize) -> usize {
        match self {
            Workload::CandidateLoop => threads.min(2),
            Workload::InteractiveCold | Workload::ColdBurst | Workload::Resubmit => 1,
        }
    }

    /// Completed jobs after which the daemon's peak RSS is read: a few
    /// seconds into a run on a small machine.
    fn rss_at(self) -> usize {
        match self {
            Workload::InteractiveCold | Workload::ColdBurst => 1_100,
            Workload::CandidateLoop => 2_200,
            Workload::Resubmit => 11_000,
        }
    }

    /// An upper bound on the end-to-end rate on a small machine, jobs/s;
    /// the generated stream holds this many jobs per measured second.
    fn stream_rate(self) -> f64 {
        match self {
            Workload::InteractiveCold | Workload::ColdBurst => 800.0,
            Workload::CandidateLoop => 1_500.0,
            Workload::Resubmit => 12_000.0,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Metrics in print order, each with its unit.
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The value at quantile `q` (nearest rank) of unsorted samples.
fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// What the corpus label says a verdict must be.
fn classify(o: &JobOutcome) -> Option<Expected> {
    match o.kind {
        OutcomeKind::Completed if o.verdict == "proved" => Some(Expected::Proved),
        OutcomeKind::Completed if o.verdict.starts_with("refuted") => Some(Expected::Refuted),
        OutcomeKind::Error if o.verdict.starts_with("error in TypeCheck") => {
            Some(Expected::TypeError)
        }
        _ => None,
    }
}

/// Collects disagreements; every one is printed and counted.
#[derive(Default)]
struct Oracle {
    failures: Vec<String>,
    /// Failed benchmark self-checks (not per job).
    broken_checks: Vec<String>,
}

impl Oracle {
    fn job(&mut self, what: String) {
        self.failures.push(what);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.broken_checks.push(what());
        }
    }
}

/// Checks one end-to-end job against its label and the workload's rules.
fn check_record(
    workload: Workload,
    rec: &Record,
    base: &[BaseJob],
    input: &Input,
    served: &[String],
    oracle: &mut Oracle,
) {
    let job = &base[input.base];
    let o = match &rec.outcome {
        Ok(o) => o,
        Err(e) => return oracle.job(format!("job {}: {e}", rec.input)),
    };
    if classify(o) != Some(job.expect) {
        return oracle.job(format!(
            "job {} ({}): expected {:?}, daemon said {:?} `{}`",
            rec.input, job.name, job.expect, o.kind, o.verdict
        ));
    }
    match workload {
        Workload::CandidateLoop if o.theory_calls != 0 => oracle.job(format!(
            "job {} ({}): {} theory calls on a warm variant",
            rec.input, job.name, o.theory_calls
        )),
        Workload::Resubmit if !o.from_store || o.digest != served[input.base] => {
            oracle.job(format!(
                "job {} ({}): resubmission not served from the store with its first digest",
                rec.input, job.name
            ));
        }
        _ => {}
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let workload = args.workload;
    let bench_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let repo = bench_dir
        .parent()
        .ok_or("the benchmark directory has no parent")?
        .to_path_buf();
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::path::absolute(PathBuf::from(dir)).map_err(|e| e.to_string())?,
        None => bench_dir.join("target"),
    };
    let bin = daemon::build(&repo, &target)?;
    let run_dir =
        target
            .join("e2ebench-run")
            .join(format!("{}-{}", workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("creating run dir: {e}"))?;
    // Relative paths from here on keep the socket path short.
    std::env::set_current_dir(&run_dir).map_err(|e| format!("entering run dir: {e}"))?;
    let result = measure(&args, &bin);
    for entry in std::fs::read_dir(".").into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.contains(".store") {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    result
}

fn measure(args: &Args, bin: &Path) -> Result<(), String> {
    let workload = args.workload;
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut oracle = Oracle::default();

    // Inputs: a pure function of the seed, checked as they are made.
    let base = inputs::base_corpus();
    let blocks = ((workload.stream_rate() * args.seconds) / base.len() as f64).ceil() as usize;
    let stream = inputs::generate(&base, workload.variant(), args.seed, 0, blocks)?;
    let again = inputs::generate(&base, workload.variant(), args.seed, 0, 2)?;
    oracle.check(
        again
            .inputs
            .iter()
            .zip(&stream.inputs)
            .all(|(a, b)| a.spec == b.spec),
        || "the generator is not deterministic for a fixed seed".into(),
    );
    println!(
        "workload {} seed {}: {} generated inputs, digest {}, daemon threads {threads}, \
         connections {}",
        workload.name(),
        args.seed,
        stream.inputs.len(),
        stream.digest,
        workload.connections(threads),
    );

    // Preparation: the base corpus, then a cold history, verified once
    // into `base.store`, which every start-up loads. The base digests are
    // the ones resubmissions must be served with.
    let history = inputs::generate(
        &base,
        Variant::Cold,
        args.seed,
        HISTORY_FIRST,
        HISTORY_BLOCKS,
    )?;
    let history_keys: HashSet<u128> = history
        .inputs
        .iter()
        .map(|i| VerdictStore::job_key(&i.spec))
        .collect();
    oracle.check(
        !stream
            .inputs
            .iter()
            .any(|i| history_keys.contains(&VerdictStore::job_key(&i.spec))),
        || "a stream input shares a pipeline key with the store's history".into(),
    );
    let prep = Daemon::spawn(bin, "prep.sock", "base.store", threads)?;
    let mut client = prep.connect()?;
    let base_inputs: Vec<Input> = base
        .iter()
        .enumerate()
        .map(|(b, job)| Input {
            base: b,
            spec: job.spec.clone(),
        })
        .collect();
    let mut served = Vec::new();
    for block in std::iter::once(&base_inputs[..]).chain(history.inputs.chunks(base.len())) {
        let specs: Vec<JobSpec> = block.iter().map(|i| i.spec.clone()).collect();
        let outcomes = client
            .run_corpus(&specs)
            .map_err(|e| format!("building the start-up store: {e}"))?;
        for (input, o) in block.iter().zip(&outcomes) {
            let job = &base[input.base];
            oracle.check(classify(o) == Some(job.expect), || {
                format!("start-up store: {} came back `{}`", job.name, o.verdict)
            });
        }
        if served.is_empty() {
            served = outcomes.into_iter().map(|o| o.digest).collect();
        }
    }
    drop(client);
    prep.shutdown()?;

    // Set-up: several start-ups on copies of the store, timed spawn →
    // first PONG; the last one serves the load.
    let mut setups = Vec::new();
    let mut daemon = None;
    for k in 0..SETUP_SPAWNS {
        if k > 0 {
            std::thread::sleep(SETUP_GAP);
        }
        let store = format!("d{k}.store");
        std::fs::copy("base.store", &store).map_err(|e| format!("copying store: {e}"))?;
        let d = Daemon::spawn(bin, &format!("d{k}.sock"), &store, threads)?;
        setups.push(d.setup.as_secs_f64());
        if k + 1 < SETUP_SPAWNS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one spawn");
    let setup_s = quantile(&setups, 0.5);

    // The end-to-end load.
    let load_time = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut conns: Vec<Client> = (0..workload.connections(threads))
        .map(|_| daemon.connect())
        .collect::<Result<_, _>>()?;
    let before = Scrape::take(&mut conns[0])?;
    let probe = load::RssProbe::new(daemon.pid(), workload.rss_at());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(load_time);
    let records = if workload.bursts() {
        load::bursts(&mut conns[0], &stream.inputs, base.len(), deadline, &probe)
    } else {
        let (back, records) = load::closed_loop(conns, &stream.inputs, deadline, &probe);
        conns = back;
        records
    };
    let end = records.iter().map(|r| r.received).max().unwrap_or(start);
    let after = Scrape::take(&mut conns[0])?;
    let peak_rss_mb = probe.reading.lock().expect("probe lock").take();
    oracle.check(args.trace || peak_rss_mb.is_some(), || {
        format!("the run ended before {} jobs completed", workload.rss_at())
    });
    drop(conns);
    daemon.shutdown()?;
    if records
        .last()
        .is_some_and(|r| r.input + 1 == stream.inputs.len())
    {
        println!("note: the generated stream ran out before the deadline");
    }

    // The oracle, job by job.
    for rec in &records {
        check_record(
            workload,
            rec,
            &base,
            &stream.inputs[rec.input],
            &served,
            &mut oracle,
        );
    }
    let done: Vec<&Record> = records.iter().filter(|r| r.outcome.is_ok()).collect();
    let theory_sum: u64 = done
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .map(|o| o.theory_calls)
        .sum();
    let theory_delta = after.delta(&before, "shadowdp_solver_theory_calls_total", None);
    oracle.check(theory_sum as f64 == theory_delta, || {
        format!("RESULT theory calls sum to {theory_sum}, METRICS moved {theory_delta}")
    });
    let busy = after.delta(&before, "shadowdp_busy_rejections_total", None);
    let store_hits = after.delta(&before, "shadowdp_store_hits_total", None);
    let elapsed = (end - start).as_secs_f64();
    // The run's completions cut into equal-count slices, each timed from
    // the previous slice's last completion. Medians over slices are
    // robust to a neighbour's burst on a shared machine.
    let mut by_finish: Vec<(Instant, f64)> = done
        .iter()
        .map(|r| (r.received, (r.received - r.sent).as_secs_f64() * 1e3))
        .collect();
    by_finish.sort_by_key(|&(at, _)| at);
    let per_slice = (by_finish.len() / RATE_SLICES).max(1);
    let mut rates = Vec::new();
    let mut from = start;
    for slice in by_finish.chunks_exact(per_slice) {
        let to = slice[slice.len() - 1].0;
        rates.push(per_slice as f64 / (to - from).as_secs_f64());
        from = to;
    }
    let jobs_per_s = quantile(&rates, 0.5);
    let latency_slices = (by_finish.len() / LATENCY_SLICE).max(1);
    let per_latency_slice = by_finish.len().div_ceil(latency_slices).max(1);
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    for slice in by_finish.chunks(per_latency_slice) {
        let ms: Vec<f64> = slice.iter().map(|&(_, ms)| ms).collect();
        p50s.push(quantile(&ms, 0.5));
        p99s.push(quantile(&ms, 0.99));
    }
    println!(
        "slice rates (jobs/s): {:?}; latency p99 per slice of {per_latency_slice} (ms): {:?}",
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
        p99s.iter()
            .map(|r| (r * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    println!(
        "end to end: {} jobs attempted, {} completed in {elapsed:.3} s, {} failed, \
         {store_hits} store hits, {busy} BUSY rejections, {} latency samples",
        records.len(),
        done.len(),
        oracle.failures.len(),
        done.len()
    );
    // Printed, not gated: on a 2-core shared machine their IQR / median
    // over ten seeds reached 0.28 and 0.32 (see README.md, "Noise").
    println!(
        "jobs_per_s = {jobs_per_s} 1/s; latency_p99_ms = {} ms (median over slices of \
         {per_latency_slice} samples)",
        quantile(&p99s, 0.5)
    );

    let mut metrics = Metrics(Vec::new());
    if args.trace {
        per_layer(
            args,
            workload,
            &base,
            &stream.inputs,
            &records,
            &before,
            &after,
            threads,
            &mut oracle,
            &mut metrics,
        );
    } else {
        metrics.put("latency_p50_ms", quantile(&p50s, 0.5), "ms");
        metrics.put("setup_s", setup_s, "s");
        metrics.put("peak_rss_mb", peak_rss_mb.unwrap_or_default(), "MiB");
    }
    let failed = oracle.failures.len();
    println!(
        "failed_frac = {} ({failed} of {})",
        failed as f64 / records.len().max(1) as f64,
        records.len()
    );
    for f in oracle.failures.iter().take(20) {
        println!("  disagreement: {f}");
    }
    for c in &oracle.broken_checks {
        println!("  check failed: {c}");
    }
    for (name, value, unit) in &metrics.0 {
        println!("{name} = {value} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0 && oracle.broken_checks.is_empty() && !records.is_empty(),
        records.len().max(1),
        metrics.json()
    );
    Ok(())
}

/// Totals of a replay, per job.
#[derive(Default)]
struct ReplaySums {
    jobs: usize,
    layers: Layers,
    wall_us: f64,
    stats: SolverStats,
    rounds: usize,
    uncovered: usize,
}

impl ReplaySums {
    fn add(&mut self, r: &replay::JobReplay) {
        self.jobs += 1;
        self.layers.add(&r.layers);
        self.wall_us += r.wall_us;
        self.rounds += r.houdini_rounds;
        let s = &r.stats;
        let t = &mut self.stats;
        t.checks += s.checks;
        t.proves += s.proves;
        t.theory_calls += s.theory_calls;
        t.micros += s.micros;
        t.cache_hits += s.cache_hits;
        t.assumption_queries += s.assumption_queries;
        t.assumption_hits += s.assumption_hits;
        t.trail_ops += s.trail_ops;
        t.saturation_reuses += s.saturation_reuses;
        t.resaturations += s.resaturations;
        // Timer reads between spans are the only uncovered time; allow
        // the bound plus 2 µs of clock granularity.
        if r.layers.sum() + 2.0 < COVERAGE_BOUND * r.wall_us {
            self.uncovered += 1;
        }
    }
}

/// Opens the replay's store the way the workload's daemon started: on a
/// copy of the start-up store.
fn open_ctx(workload: Workload, name: &str) -> Result<(Ctx, Duration), String> {
    std::fs::copy("base.store", name).map_err(|e| format!("copying store: {e}"))?;
    let flush_every = if workload.bursts() { 22 } else { 1 };
    Ok(Ctx::open(Path::new(name), flush_every))
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    args: &Args,
    workload: Workload,
    base: &[BaseJob],
    inputs: &[Input],
    records: &[Record],
    before: &Scrape,
    after: &Scrape,
    threads: usize,
    oracle: &mut Oracle,
    m: &mut Metrics,
) {
    let replay_deadline = Instant::now() + Duration::from_secs_f64(args.seconds / 2.0);
    let by_input: BTreeMap<usize, &JobOutcome> = records
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok().map(|o| (r.input, o)))
        .collect();
    let sent: Vec<usize> = by_input.keys().copied().collect();

    // The program's own spans armed vs disarmed, over one block.
    let slice: Vec<&Input> = sent.iter().take(base.len()).map(|&i| &inputs[i]).collect();
    let mut armed = Vec::new();
    let mut disarmed = Vec::new();
    for pair in 0..OVERHEAD_PAIRS {
        for arm in [pair % 2 == 0, pair % 2 == 1] {
            let Ok((mut ctx, _)) = open_ctx(workload, "overhead.store") else {
                continue;
            };
            let mut spans = Spans::with_capacity(16 * slice.len());
            if arm {
                shadowdp_obs::arm();
            }
            let start = Instant::now();
            for (i, input) in slice.iter().enumerate() {
                replay::replay_job(&mut ctx, &input.spec, i, &mut spans);
            }
            let took = start.elapsed().as_secs_f64();
            shadowdp_obs::disarm();
            let _ = shadowdp_obs::take_spans();
            if arm { &mut armed } else { &mut disarmed }.push(took);
        }
    }
    let disarmed_s = quantile(&disarmed, 0.5);
    let span_overhead_pct = (quantile(&armed, 0.5) - disarmed_s) / disarmed_s * 100.0;

    // The replay proper: the end-to-end jobs in order, until the deadline.
    let (mut ctx, load_time) = match open_ctx(workload, "replay.store") {
        Ok(opened) => opened,
        Err(e) => {
            oracle.check(false, || e);
            return;
        }
    };
    let memo_before = ctx.memo.len();
    let par_memo = Arc::new(QueryMemo::default());
    let mut spans = Spans::with_capacity(16 * sent.len());
    let mut sums = ReplaySums::default();
    let mut mismatches = 0usize;
    let (mut burst_wall, mut burst_job, mut burst_crit, mut n_bursts) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO, 0u32);
    for block in sent.chunks(base.len()) {
        if Instant::now() >= replay_deadline && sums.jobs > 0 {
            break;
        }
        // Each full block of cold variants also goes through the
        // work-stealing driver, as one `cold-burst` burst would.
        if workload.variant() == Variant::Cold && block.len() == base.len() {
            let specs: Vec<_> = block.iter().map(|&i| inputs[i].spec.clone()).collect();
            let b = replay::burst(&specs, threads, &par_memo);
            for (&i, v) in block.iter().zip(&b.verdicts) {
                if *v != by_input[&i].verdict {
                    mismatches += 1;
                }
            }
            burst_wall += b.wall;
            burst_job += b.job_time;
            burst_crit += b.critical_path;
            n_bursts += 1;
        }
        for &i in block {
            let r = replay::replay_job(&mut ctx, &inputs[i].spec, i, &mut spans);
            if r.outcome.verdict != by_input[&i].verdict {
                mismatches += 1;
            }
            sums.add(&r);
        }
    }
    oracle.check(mismatches == 0, || {
        format!("{mismatches} replay verdicts differ from the daemon's")
    });
    let covered = sums.layers.sum() / sums.wall_us.max(1e-9);
    println!(
        "coverage: {} of {} replayed jobs below {:.0}% of their wall time; {:.2}% overall",
        sums.uncovered,
        sums.jobs,
        COVERAGE_BOUND * 100.0,
        covered * 100.0
    );
    oracle.check(
        sums.uncovered as f64 <= COVERAGE_MISSES * sums.jobs as f64 && covered >= COVERAGE_BOUND,
        || "the replay's layer spans do not cover its wall time".into(),
    );
    if std::fs::write("trace.json", spans.chrome_json()).is_ok() {
        println!(
            "replay spans written to {}",
            Path::new("trace.json").display()
        );
    }

    let e2e: Vec<&Record> = records.iter().filter(|r| r.outcome.is_ok()).collect();
    let e2e_jobs = e2e.len().max(1) as f64;
    let n = sums.jobs.max(1) as f64;
    let l = &sums.layers;
    let s = &sums.stats;
    let queries = s.checks + s.proves;
    println!(
        "replay: {} jobs, {} bursts; bases: {} solver queries, {} assumption queries, {} \
         saturation events",
        sums.jobs,
        n_bursts,
        queries,
        s.assumption_queries,
        s.saturation_reuses + s.resaturations
    );
    let rtt: Vec<f64> = e2e.iter().map(|r| us(r.queued - r.sent)).collect();
    let wait: Vec<f64> = e2e.iter().map(|r| us(r.received - r.queued)).collect();
    m.put("service.submit_rtt_us", quantile(&rtt, 0.5), "us");
    m.put("service.result_wait_us", quantile(&wait, 0.5), "us");
    m.put(
        "service.jobs_per_batch",
        after.hist_mean(before, "shadowdp_batch_jobs", None),
        "count",
    );
    m.put("service.proto_us", l.proto / n, "us");
    m.put("service.digest_us", l.digest / n, "us");
    m.put(
        "store.flush_us",
        after.hist_mean(before, "shadowdp_store_flush_us", None),
        "us",
    );
    m.put("store.lookup_us", l.lookup / n, "us");
    m.put("store.write_us", l.store_write / n, "us");
    m.put("store.load_s", load_time.as_secs_f64(), "s");
    m.put(
        "store.bytes_per_job",
        after.delta(before, "shadowdp_store_log_bytes", None) / e2e_jobs,
        "B",
    );
    for (name, phase) in [
        ("daemon.parse_us", "parse"),
        ("daemon.lint_us", "lint"),
        ("daemon.typecheck_us", "typecheck"),
        ("daemon.lower_us", "lower"),
        ("daemon.verify_us", "verify"),
    ] {
        m.put(
            name,
            after.hist_mean(before, "shadowdp_phase_us", Some(("phase", phase))),
            "us",
        );
    }
    m.put("syntax.parse_us", l.parse / n, "us");
    m.put("analysis.lint_us", l.lint / n, "us");
    m.put("typing.typecheck_us", l.typecheck / n, "us");
    m.put("typing.solver_us", l.typing_solver / n, "us");
    m.put("verify.lower_us", l.lower / n, "us");
    m.put("verify.inductive_us", l.inductive / n, "us");
    m.put("verify.bmc_us", l.bmc / n, "us");
    m.put(
        "verify.houdini_rounds_per_job",
        sums.rounds as f64 / n,
        "count",
    );
    m.put("solver.search_us", s.micros as f64 / n, "us");
    m.put(
        "solver.theory_calls_per_job",
        s.theory_calls as f64 / n,
        "count",
    );
    m.put("solver.trail_ops_per_job", s.trail_ops as f64 / n, "count");
    m.put(
        "solver.memo_hit_rate",
        s.cache_hits as f64 / queries.max(1) as f64,
        "ratio",
    );
    m.put(
        "solver.assumption_hit_rate",
        s.assumption_hit_rate().unwrap_or(0.0),
        "ratio",
    );
    m.put(
        "solver.saturation_reuse_rate",
        s.saturation_reuse_rate().unwrap_or(0.0),
        "ratio",
    );
    m.put(
        "solver.memo_entries_per_job",
        (ctx.memo.len() - memo_before) as f64 / n,
        "count",
    );
    let bursts = f64::from(n_bursts.max(1));
    m.put(
        "core.parallel_efficiency",
        if n_bursts == 0 {
            0.0
        } else {
            burst_job.as_secs_f64() / (threads as f64 * burst_wall.as_secs_f64())
        },
        "ratio",
    );
    m.put(
        "core.burst_critical_path_ms",
        burst_crit.as_secs_f64() * 1e3 / bursts,
        "ms",
    );
    m.put("obs.span_overhead_pct", span_overhead_pct, "%");
    m.put("obs.layer_coverage_pct", covered * 100.0, "%");
    m.put("replay.job_us", sums.wall_us / n, "us");
}
