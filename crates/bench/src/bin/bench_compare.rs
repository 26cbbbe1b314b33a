//! CI bench-regression gate.
//!
//! Compares a fresh Criterion JSON-lines dump (produced by running the
//! bench suite with `CRITERION_JSON=<file>`) against the committed
//! `BENCH_solver.json` snapshot and exits non-zero if any **gated**
//! benchmark — the solver memo hit path and the Table 1 scaled-mode
//! verifies, see [`shadowdp_bench::is_gated`] — regressed by more than the
//! threshold, or vanished from the fresh run.
//!
//! ```text
//! CRITERION_JSON=fresh.json cargo bench -p shadowdp-bench
//! cargo run -p shadowdp-bench --bin bench_compare -- BENCH_solver.json fresh.json
//! cargo run -p shadowdp-bench --bin bench_compare -- BENCH_solver.json fresh.json --threshold 0.5
//! ```
//!
//! The default threshold of 0.25 (+25 %) leaves headroom for shared-CI
//! noise while still catching the failure modes this gate exists for: a
//! memo path that silently stopped hitting, or an end-to-end verify that
//! lost an order of magnitude.

use std::process::ExitCode;

use shadowdp_bench::{
    check_invariants, compare_gated, parse_bench_json, reseed_command, Comparison,
};

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut threshold = 0.25f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threshold" {
            match it.next().and_then(|v| v.parse().ok()) {
                Some(t) => threshold = t,
                None => {
                    eprintln!("--threshold needs a numeric value");
                    return ExitCode::from(2);
                }
            }
        } else {
            paths.push(a.clone());
        }
    }
    let [baseline_path, fresh_path] = paths.as_slice() else {
        eprintln!("usage: bench_compare <baseline.json> <fresh.json> [--threshold 0.25]");
        return ExitCode::from(2);
    };

    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => Some(parse_bench_json(&text)),
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            None
        }
    };
    let (Some(baseline), Some(fresh)) = (read(baseline_path), read(fresh_path)) else {
        return ExitCode::from(2);
    };
    if baseline.is_empty() {
        eprintln!("{baseline_path}: no benchmark entries parsed");
        return ExitCode::from(2);
    }

    let rows = compare_gated(&baseline, &fresh, threshold);
    println!(
        "bench_compare: {} gated benchmarks, threshold +{:.0}% ({} baseline / {} fresh entries)\n",
        rows.len(),
        threshold * 100.0,
        baseline.len(),
        fresh.len()
    );
    println!(
        "{:<55} {:>12} {:>12} {:>9}  verdict",
        "benchmark", "baseline", "fresh", "delta"
    );
    let mut failed = false;
    for (id, base, fresh_mean, verdict) in &rows {
        let (delta_s, verdict_s) = match verdict {
            Comparison::Ok { delta } => (format!("{:+.1}%", delta * 100.0), "ok".to_string()),
            Comparison::Regressed { delta } => {
                failed = true;
                (format!("{:+.1}%", delta * 100.0), "REGRESSED".to_string())
            }
            Comparison::Missing => {
                failed = true;
                ("-".to_string(), "MISSING".to_string())
            }
        };
        println!(
            "{:<55} {:>12} {:>12} {:>9}  {}",
            id,
            fmt_ns(*base),
            fresh_mean.map_or_else(|| "-".into(), fmt_ns),
            delta_s,
            verdict_s
        );
    }

    // Machine-independent invariants (fresh-vs-fresh ratios) — these hold
    // on any runner, so they fail only on genuine behavioral regressions
    // even when the absolute snapshot comparison is noisy.
    let violations = check_invariants(&fresh);
    for v in &violations {
        eprintln!("invariant violated: {v}");
        failed = true;
    }

    if failed {
        eprintln!(
            "\nbench_compare: FAILED — gated benchmark regressed beyond +{:.0}% (or is \
             missing), or a machine-independent invariant broke. If an absolute-time change \
             is intentional (or the runner class changed), regenerate the snapshot on the \
             gating machine — the CRITERION_JSON path must be absolute, cargo runs benches \
             from the bench package dir: {} (or commit the fresh-bench-json artifact a CI run \
             uploads)",
            threshold * 100.0,
            reseed_command(baseline_path)
        );
        ExitCode::from(1)
    } else {
        println!("\nbench_compare: ok");
        ExitCode::SUCCESS
    }
}
