//! The `shadowdp` CLI: verify programs directly or through a running
//! (or auto-spawned) verification daemon.
//!
//! ```text
//! shadowdp check <file>... [--fixeps <n>/<d>] [--trace-out <path>]
//!                [--threads <n>] [--socket <path> [--spawn]]
//! shadowdp lint (<file>... | --table1) [--json]
//! shadowdp table1 [--trace-out <path>] [--socket <path> [--spawn]]
//!                 [--store <path>] [--threads <n>]
//! shadowdp status --socket <path>
//! shadowdp metrics --socket <path>
//! shadowdp top --socket <path> [--interval-ms <n>] [--iterations <n>]
//! shadowdp shutdown --socket <path>
//! ```
//!
//! - `check` verifies ShadowDP source files. Without `--socket` the
//!   pipeline runs in this process; with it, jobs go over the wire
//!   (`--spawn` starts `shadowdpd` automatically if nothing is
//!   listening).
//! - `lint` runs the static-analysis passes only (SD01–SD04) — no
//!   typechecking, no verification — and prints located diagnostics,
//!   human-readable by default or as deterministic JSON-lines with
//!   `--json`. `--table1` lints the paper's nine Table 1 algorithms
//!   instead of files (they must come back clean). Linting reads no
//!   daemon state, so it always runs in this process; `--socket` is a
//!   usage error. Exit code: 0 iff no diagnostics.
//! - `table1` submits the paper's 18-job Table 1 corpus (both
//!   verification modes of all nine algorithms, shared-memo service
//!   variant) and prints one line per job with verdict, digest, and
//!   whether the persistent store served it — the CI `service` job
//!   drives the warm-restart check through this.
//! - `--trace-out` arms span collection for the (local, in-process) run
//!   and writes a Chrome `trace_event` JSON file on exit — load it in
//!   `about:tracing` or Perfetto for a per-phase, per-algorithm
//!   flame view. With `--socket` the spans live in the *daemon*
//!   process; trace that side with `SHADOWDP_TRACE=1 shadowdpd …`.
//! - `metrics` prints a daemon's registry in raw Prometheus text
//!   exposition format (scrape-ready: pipe to a pushgateway or a file).
//! - `top` polls `METRICS` and redraws a live per-phase/per-algorithm
//!   latency table (p50/p99), solver hit rates, and queue/store state.
//!
//! Exit code: 0 iff every job verified (`proved`).

use std::path::PathBuf;
use std::process::ExitCode;

use shadowdp::jobspec::OptionsSpec;
use shadowdp::{
    corpus, table1, CorpusJob, JobSpec, Phase, Pipeline, PipelineError, PipelineReport,
};
use shadowdp_num::Rat;
use shadowdp_service::daemon::{render_verdict, wire_digest};
use shadowdp_service::Client;
use shadowdp_verify::{Options, VerifyMode};

struct Args {
    command: String,
    files: Vec<PathBuf>,
    socket: Option<PathBuf>,
    store: Option<PathBuf>,
    spawn: bool,
    threads: Option<usize>,
    fixeps: Option<Rat>,
    trace_out: Option<PathBuf>,
    interval_ms: u64,
    iterations: Option<u64>,
    json: bool,
    table1: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: shadowdp check <file>... [--fixeps <n>/<d>] [--trace-out <path>] \
         [--threads <n>] [--socket <path> [--spawn]]\n\
         \x20      shadowdp lint (<file>... | --table1) [--json]\n\
         \x20      shadowdp table1 [--trace-out <path>] [--socket <path> [--spawn]] \
         [--store <path>] [--threads <n>]\n\
         \x20      shadowdp status --socket <path>\n\
         \x20      shadowdp metrics --socket <path>\n\
         \x20      shadowdp top --socket <path> [--interval-ms <n>] [--iterations <n>]\n\
         \x20      shadowdp shutdown --socket <path>"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut raw = std::env::args().skip(1);
    let command = raw.next()?;
    let mut args = Args {
        command,
        files: Vec::new(),
        socket: None,
        store: None,
        spawn: false,
        threads: None,
        fixeps: None,
        trace_out: None,
        interval_ms: 1000,
        iterations: None,
        json: false,
        table1: false,
    };
    while let Some(arg) = raw.next() {
        match arg.as_str() {
            "--socket" => args.socket = Some(PathBuf::from(raw.next()?)),
            "--store" => args.store = Some(PathBuf::from(raw.next()?)),
            "--spawn" => args.spawn = true,
            "--threads" => args.threads = Some(raw.next()?.parse().ok()?),
            "--trace-out" => args.trace_out = Some(PathBuf::from(raw.next()?)),
            "--interval-ms" => args.interval_ms = raw.next()?.parse().ok()?,
            "--iterations" => args.iterations = Some(raw.next()?.parse().ok()?),
            "--json" => args.json = true,
            "--table1" => args.table1 = true,
            "--fixeps" => {
                let value = raw.next()?;
                let (n, d) = value.split_once('/').unwrap_or((value.as_str(), "1"));
                let (n, d): (i128, i128) = (n.parse().ok()?, d.parse().ok()?);
                if d == 0 || d == i128::MIN || n == i128::MIN {
                    return None; // usage error, not a Rat::new panic
                }
                args.fixeps = Some(Rat::new(n, d));
            }
            // A typo'd flag must be a usage error, not a phantom input
            // file (several subcommands ignore positional files, so a
            // mistyped --socket would silently change the execution path).
            flag if flag.starts_with("--") => return None,
            _ => args.files.push(PathBuf::from(arg)),
        }
    }
    Some(args)
}

fn connect(args: &Args) -> Result<Client, ExitCode> {
    let socket = args.socket.as_ref().expect("caller checked --socket");
    let result = if args.spawn {
        Client::connect_or_spawn(socket, args.store.as_deref(), args.threads)
    } else {
        Client::connect(socket)
    };
    result.map_err(|e| {
        eprintln!("shadowdp: cannot reach daemon on {}: {e}", socket.display());
        ExitCode::FAILURE
    })
}

/// Prints one job line; returns whether the job verified.
fn print_outcome(label: &str, from: &str, digest: &str, verdict: &str) -> bool {
    // Verdicts can span lines (counterexamples); keep the line format
    // stable for scripting by reporting only the first line.
    let first = verdict.lines().next().unwrap_or("");
    println!("{label} from={from} digest={digest} verdict={first}");
    verdict == "proved"
}

/// Like [`render_verdict`], but parse/type failures carry `line:col`
/// resolved against the job's source. Only the terminal output renders
/// this way — digests embed the location-free `Display` text and stay
/// pinned.
fn render_verdict_located(report: &Result<PipelineReport, PipelineError>, source: &str) -> String {
    match report {
        Err(e) if e.phase() != Phase::Crash => {
            format!("error in {:?}: {}", e.phase(), e.render_located(source))
        }
        _ => render_verdict(report),
    }
}

fn run_specs_local(specs: &[(String, JobSpec)], threads: Option<usize>) -> Result<bool, ExitCode> {
    let jobs = specs
        .iter()
        .map(|(label, spec)| {
            spec.to_job().map_err(|e| {
                eprintln!("shadowdp: {label}: {e}");
                ExitCode::from(2)
            })
        })
        .collect::<Result<Vec<CorpusJob>, ExitCode>>()?;
    let outcome = Pipeline::new().verify_corpus_parallel(&jobs, threads);
    let mut all_proved = true;
    for (i, (label, spec)) in specs.iter().enumerate() {
        let verdict = render_verdict_located(&outcome.reports[i], &spec.source);
        let digest = wire_digest(&outcome.report_digest(i));
        all_proved &= print_outcome(label, "local", &digest, &verdict);
    }
    Ok(all_proved)
}

fn run_specs_daemon(specs: &[(String, JobSpec)], args: &Args) -> Result<bool, ExitCode> {
    let mut client = connect(args)?;
    let outcomes = client
        .run_corpus(&specs.iter().map(|(_, s)| s.clone()).collect::<Vec<_>>())
        .map_err(|e| {
            eprintln!("shadowdp: daemon request failed: {e}");
            ExitCode::FAILURE
        })?;
    let mut all_proved = true;
    for ((label, _), outcome) in specs.iter().zip(&outcomes) {
        let from = if outcome.from_store { "store" } else { "fresh" };
        all_proved &= print_outcome(label, from, &outcome.digest, &outcome.verdict);
    }
    Ok(all_proved)
}

fn check(args: &Args) -> Result<bool, ExitCode> {
    if args.files.is_empty() {
        eprintln!("shadowdp check: no input files");
        return Err(ExitCode::from(2));
    }
    let options = args.fixeps.map(|eps| Options {
        mode: VerifyMode::FixEps(eps),
        ..Options::default()
    });
    let mut specs = Vec::new();
    for file in &args.files {
        let source = std::fs::read_to_string(file).map_err(|e| {
            eprintln!("shadowdp: cannot read {}: {e}", file.display());
            ExitCode::from(2)
        })?;
        let spec = JobSpec {
            source,
            options: options.as_ref().map(OptionsSpec::from_options),
            isolated_memo: false,
        };
        specs.push((file.display().to_string(), spec));
    }
    if args.socket.is_some() {
        run_specs_daemon(&specs, args)
    } else {
        run_specs_local(&specs, args.threads)
    }
}

/// The `lint` subcommand: static analysis only, located diagnostics,
/// exit 0 iff everything came back clean.
fn lint(args: &Args) -> Result<bool, ExitCode> {
    let mut sources: Vec<(String, String)> = Vec::new();
    if args.table1 {
        for alg in corpus::table1_algorithms() {
            sources.push((alg.name.to_string(), alg.source.to_string()));
        }
    } else {
        if args.files.is_empty() {
            eprintln!("shadowdp lint: no input files (pass files or --table1)");
            return Err(ExitCode::from(2));
        }
        for file in &args.files {
            let source = std::fs::read_to_string(file).map_err(|e| {
                eprintln!("shadowdp: cannot read {}: {e}", file.display());
                ExitCode::from(2)
            })?;
            sources.push((file.display().to_string(), source));
        }
    }
    let mut clean = true;
    for (label, source) in &sources {
        let diags = shadowdp::lint_source(source).map_err(|e| {
            eprintln!("shadowdp: {label}: {}", e.render(source));
            ExitCode::from(2)
        })?;
        clean &= diags.is_empty();
        if args.json {
            print!("{}", shadowdp::render_json_lines(&diags));
        } else {
            print!("{}", shadowdp::render_human(&diags, Some(label)));
        }
    }
    Ok(clean)
}

/// [`table1::service_jobs`] as labelled wire specs.
fn table1_specs() -> Vec<(String, JobSpec)> {
    let names: Vec<String> = corpus::table1_algorithms()
        .iter()
        .flat_map(|alg| {
            [
                format!("{} [scaled]", alg.name),
                format!("{} [fix-eps]", alg.name),
            ]
        })
        .collect();
    table1::service_jobs()
        .iter()
        .map(JobSpec::from_job)
        .zip(names)
        .map(|(spec, name)| (name, spec))
        .collect()
}

/// The live `shadowdp top` view: polls the daemon's `METRICS` verb and
/// redraws per-phase / per-algorithm latency tables plus queue and
/// store state.
mod top {
    use std::process::ExitCode;
    use std::time::Duration;

    use shadowdp_obs::Sample;
    use shadowdp_service::Client;

    /// One histogram series reduced to the numbers the table shows.
    struct HistRow {
        label: String,
        count: u64,
        sum_us: f64,
        p50_us: f64,
        p99_us: f64,
    }

    /// Estimates a quantile from cumulative `_bucket` samples: the
    /// upper bound of the first bucket whose cumulative count reaches
    /// `q * count`. Log2 buckets make this a ≤2× overestimate, which
    /// is enough to rank phases and spot regressions.
    fn quantile(buckets: &[(f64, f64)], count: f64, q: f64) -> f64 {
        let target = q * count;
        for (bound, cumulative) in buckets {
            if *cumulative >= target {
                return *bound;
            }
        }
        f64::INFINITY
    }

    /// One series of histogram family `family` (the samples `in_series`
    /// accepts) reduced to count/sum/p50/p99, if it has observations.
    fn series_row(
        samples: &[Sample],
        family: &str,
        label: &str,
        in_series: impl Fn(&Sample) -> bool,
    ) -> Option<HistRow> {
        let in_series = &in_series;
        let part = move |suffix: &'static str| {
            samples
                .iter()
                .filter(move |s| s.name.strip_prefix(family) == Some(suffix) && in_series(s))
        };
        let mut buckets: Vec<(f64, f64)> = part("_bucket")
            .filter_map(|s| {
                let bound = match s.label("le")? {
                    "+Inf" => f64::INFINITY,
                    t => t.parse().ok()?,
                };
                Some((bound, s.value))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let pick = |suffix| part(suffix).next().map_or(0.0, |s| s.value);
        let count = pick("_count");
        (count > 0.0).then(|| HistRow {
            label: label.to_string(),
            count: count as u64,
            sum_us: pick("_sum"),
            p50_us: quantile(&buckets, count, 0.50),
            p99_us: quantile(&buckets, count, 0.99),
        })
    }

    /// Every series of histogram family `family` keyed by label `key`,
    /// sorted by descending total time so the busiest row tops the table.
    fn hist_rows(samples: &[Sample], family: &str, key: &str) -> Vec<HistRow> {
        let count_name = format!("{family}_count");
        let mut labels: Vec<&str> = Vec::new();
        for s in samples.iter().filter(|s| s.name == count_name) {
            if let Some(v) = s.label(key).filter(|v| !labels.contains(v)) {
                labels.push(v);
            }
        }
        let mut rows: Vec<HistRow> = labels
            .into_iter()
            .filter_map(|label| series_row(samples, family, label, |s| s.label(key) == Some(label)))
            .collect();
        rows.sort_by(|a, b| b.sum_us.total_cmp(&a.sum_us));
        rows
    }

    /// A label-less sample's value (counters and gauges), 0 if absent.
    fn value(samples: &[Sample], name: &str) -> f64 {
        samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .map_or(0.0, |s| s.value)
    }

    /// Microseconds as a short human latency (`840µs`, `3.2ms`, `1.7s`).
    fn fmt_us(us: f64) -> String {
        if !us.is_finite() {
            "-".to_string()
        } else if us < 1_000.0 {
            format!("{us:.0}µs")
        } else if us < 1_000_000.0 {
            format!("{:.1}ms", us / 1_000.0)
        } else {
            format!("{:.1}s", us / 1_000_000.0)
        }
    }

    fn print_table(title: &str, rows: &[HistRow]) {
        if rows.is_empty() {
            return;
        }
        println!("{title}");
        println!(
            "  {:<28} {:>8} {:>9} {:>9} {:>10}",
            "", "count", "p50", "p99", "total"
        );
        for r in rows {
            println!(
                "  {:<28} {:>8} {:>9} {:>9} {:>10}",
                r.label,
                r.count,
                fmt_us(r.p50_us),
                fmt_us(r.p99_us),
                fmt_us(r.sum_us)
            );
        }
    }

    fn render(samples: &[Sample]) {
        let queries = value(samples, "shadowdp_solver_queries_total");
        let hits = value(samples, "shadowdp_solver_memo_hits_total");
        let hit_rate = if queries > 0.0 {
            100.0 * hits / queries
        } else {
            0.0
        };
        println!(
            "jobs done {}  store hits {}  solver memo {:.1}% ({:.0}/{:.0})",
            value(samples, "shadowdp_jobs_done_total"),
            value(samples, "shadowdp_store_hits_total"),
            hit_rate,
            hits,
            queries
        );
        let reuses = value(samples, "shadowdp_saturation_reuse_total");
        let resats = value(samples, "shadowdp_saturation_recompute_total");
        let reuse_rate = if reuses + resats > 0.0 {
            100.0 * reuses / (reuses + resats)
        } else {
            0.0
        };
        println!(
            "trail ops {}  saturation reuse {:.1}% ({:.0}/{:.0})",
            value(samples, "shadowdp_solver_trail_ops_total"),
            reuse_rate,
            reuses,
            reuses + resats
        );
        println!(
            "queue {}/{}  journal {}  memo {}  pipeline {}  log {}B (ratio {:.2})  last flush {}",
            value(samples, "shadowdp_queue_depth"),
            value(samples, "shadowdp_queue_capacity"),
            value(samples, "shadowdp_journal_entries"),
            value(samples, "shadowdp_memo_entries"),
            value(samples, "shadowdp_store_pipeline_entries"),
            value(samples, "shadowdp_store_log_bytes"),
            value(samples, "shadowdp_store_compaction_ratio"),
            fmt_us(value(samples, "shadowdp_store_last_flush_us"))
        );
        let crashes = value(samples, "shadowdp_crashes_total");
        let exhausted = value(samples, "shadowdp_budget_exhausted_total");
        let replayed = value(samples, "shadowdp_journal_replayed_total");
        if crashes + exhausted + replayed > 0.0 {
            println!("faults: crashes {crashes}  budget exhausted {exhausted}  journal replayed {replayed}");
        }
        println!();
        print_table(
            "verify by algorithm",
            &hist_rows(samples, "shadowdp_verify_algorithm_us", "algorithm"),
        );
        print_table(
            "pipeline by phase",
            &hist_rows(samples, "shadowdp_phase_us", "phase"),
        );
        print_table(
            "fresh jobs by stage",
            &hist_rows(samples, "shadowdp_job_stage_us", "stage"),
        );
        print_table(
            "solver queries",
            &hist_rows(samples, "shadowdp_solver_query_us", "path"),
        );
        let daemon: Vec<HistRow> = [
            ("store flush", "shadowdp_store_flush_us"),
            ("trail depth", "shadowdp_solver_trail_depth"),
        ]
        .iter()
        .filter_map(|(label, family)| series_row(samples, family, label, |_| true))
        .collect();
        print_table("daemon (trail depth is a count, not µs)", &daemon);
    }

    pub fn run(
        mut client: Client,
        interval_ms: u64,
        iterations: Option<u64>,
    ) -> Result<bool, ExitCode> {
        let mut frame: u64 = 0;
        loop {
            let exposition = client.metrics().map_err(|e| {
                eprintln!("shadowdp top: metrics poll failed: {e}");
                ExitCode::FAILURE
            })?;
            // Full validation (not just parsing) so a single-frame
            // `top --iterations 1` doubles as an exposition checker.
            shadowdp_obs::validate_exposition(&exposition).map_err(|e| {
                eprintln!("shadowdp top: malformed exposition: {e}");
                ExitCode::FAILURE
            })?;
            let samples = shadowdp_obs::parse_exposition(&exposition).map_err(|e| {
                eprintln!("shadowdp top: malformed exposition: {e}");
                ExitCode::FAILURE
            })?;
            if frame > 0 {
                // Redraw in place; the first frame appends so
                // single-shot runs (CI) leave a clean transcript.
                print!("\x1b[2J\x1b[H");
            }
            render(&samples);
            frame += 1;
            if iterations.is_some_and(|n| frame >= n) {
                return Ok(true);
            }
            std::thread::sleep(Duration::from_millis(interval_ms));
        }
    }
}

/// Writes collected spans as a Chrome `trace_event` file and reports
/// how much the ring saw (and dropped) on stderr.
fn write_trace(path: &PathBuf) -> Result<(), ExitCode> {
    shadowdp_obs::disarm();
    let spans = shadowdp_obs::take_spans();
    let overwritten = shadowdp_obs::spans_overwritten();
    let json = shadowdp_obs::chrome_trace_json(&spans);
    std::fs::write(path, json).map_err(|e| {
        eprintln!("shadowdp: cannot write trace to {}: {e}", path.display());
        ExitCode::FAILURE
    })?;
    eprintln!(
        "shadowdp: wrote {} spans to {} ({overwritten} overwritten)",
        spans.len(),
        path.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    // Arm before dispatch so parse/typecheck/verify spans from local
    // runs land in the ring; daemon-side spans are the daemon's
    // (SHADOWDP_TRACE=1), not ours.
    if args.trace_out.is_some() {
        shadowdp_obs::arm();
    }
    let result = match args.command.as_str() {
        "check" => check(&args),
        // `lint` asks no daemon: accepting `--socket` would run it locally.
        "lint" if args.socket.is_none() => lint(&args),
        "table1" => {
            let specs = table1_specs();
            if args.socket.is_some() {
                run_specs_daemon(&specs, &args)
            } else {
                run_specs_local(&specs, args.threads)
            }
        }
        "status" if args.socket.is_some() => match connect(&args) {
            Err(code) => return code,
            Ok(mut client) => match client.status() {
                Ok(s) => {
                    println!(
                        "queued={} running={} done={} memo={} pipeline_store={} journaled={}",
                        s.queued, s.running, s.done, s.memo_entries, s.pipeline_store, s.journaled
                    );
                    Ok(true)
                }
                Err(e) => {
                    eprintln!("shadowdp: status failed: {e}");
                    return ExitCode::FAILURE;
                }
            },
        },
        "metrics" if args.socket.is_some() => match connect(&args) {
            Err(code) => return code,
            Ok(mut client) => match client.metrics() {
                Ok(exposition) => {
                    print!("{exposition}");
                    Ok(true)
                }
                Err(e) => {
                    eprintln!("shadowdp: metrics failed: {e}");
                    return ExitCode::FAILURE;
                }
            },
        },
        "top" if args.socket.is_some() => match connect(&args) {
            Err(code) => return code,
            Ok(client) => top::run(client, args.interval_ms, args.iterations),
        },
        "shutdown" if args.socket.is_some() => match connect(&args) {
            Err(code) => return code,
            Ok(mut client) => match client.shutdown() {
                Ok(()) => Ok(true),
                Err(e) => {
                    eprintln!("shadowdp: shutdown failed: {e}");
                    return ExitCode::FAILURE;
                }
            },
        },
        _ => return usage(),
    };
    if let Some(path) = &args.trace_out {
        if let Err(code) = write_trace(path) {
            return code;
        }
    }
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(code) => code,
    }
}
