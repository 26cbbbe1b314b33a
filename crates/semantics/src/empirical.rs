//! Empirical differential-privacy testing (StatDP-style).
//!
//! The paper motivates ShadowDP partly by the prevalence of *incorrect*
//! published DP algorithms and cites counterexample-detection work
//! [Ding et al. CCS'18, Bichsel et al. CCS'18]. This module implements the
//! core of that methodology: run a mechanism many times on a pair of
//! adjacent inputs, bucket the outputs into discrete events, and estimate
//! the worst-case log-probability ratio. Correct ε-DP mechanisms stay below
//! ε (up to sampling error); the classic buggy Sparse Vector variants blow
//! past it.
//!
//! Trials are parallelized with `std` scoped threads; each worker
//! owns a deterministically-derived RNG seed so results are reproducible.

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

use shadowdp_syntax::Function;

use crate::interp::Interp;
use crate::value::Value;

/// Configuration for an empirical DP test.
#[derive(Clone, Debug)]
pub struct DpTestConfig {
    /// Trials per input (total runs = 2 × trials).
    pub trials: usize,
    /// Worker threads.
    pub threads: usize,
    /// Base RNG seed; trial `i` on input `k` uses `seed ⊕ hash(k, i)`.
    pub seed: u64,
    /// Laplace smoothing added to each event count before taking ratios,
    /// so events observed on only one side do not yield infinite estimates.
    pub smoothing: f64,
}

impl Default for DpTestConfig {
    fn default() -> Self {
        DpTestConfig {
            trials: 20_000,
            threads: 4,
            seed: 0xD1FF_EE75,
            smoothing: 1.0,
        }
    }
}

/// The result of an empirical DP test.
#[derive(Clone, Debug)]
pub struct DpEstimate {
    /// Worst observed `|ln(P1(E)/P2(E))|` over all single-output events.
    pub max_log_ratio: f64,
    /// The event achieving the maximum.
    pub worst_event: String,
    /// Number of distinct events observed.
    pub distinct_events: usize,
    /// Trials per input actually executed.
    pub trials: usize,
}

impl DpEstimate {
    /// Whether the estimate is consistent with `eps`-DP at the given
    /// slack (sampling error allowance).
    pub fn consistent_with(&self, eps: f64, slack: f64) -> bool {
        self.max_log_ratio <= eps + slack
    }
}

/// Runs the mechanism `trials` times on each of two adjacent inputs and
/// estimates the privacy loss over discrete output events.
///
/// `project` maps each output to an event key; use [`Value::event_key`] for
/// mechanisms with discrete outputs (Report Noisy Max's index, Sparse
/// Vector's boolean vector) and a bucketing projection for continuous ones.
///
/// # Panics
///
/// Panics if a trial run fails at runtime (test programs are expected to be
/// runnable); this is a testing harness, not production inference.
///
/// # Examples
///
/// ```no_run
/// use shadowdp_semantics::{estimate_privacy_loss, DpTestConfig, Value};
/// use shadowdp_syntax::parse_function;
///
/// let f = parse_function("function F(eps: num(0,0), x: num(1,1)) returns out: num(0,0) {
///     eta := lap(1 / eps) { select: aligned, align: -1 };
///     out := x + eta;
/// }").unwrap();
/// let est = estimate_privacy_loss(
///     &f,
///     &[("eps", Value::num(1.0)), ("x", Value::num(0.0))],
///     &[("eps", Value::num(1.0)), ("x", Value::num(1.0))],
///     &DpTestConfig { trials: 5_000, ..DpTestConfig::default() },
///     |v| format!("{:.0}", v.as_num().unwrap()), // unit buckets
/// );
/// assert!(est.max_log_ratio.is_finite());
/// ```
pub fn estimate_privacy_loss(
    f: &Function,
    input1: &[(&str, Value)],
    input2: &[(&str, Value)],
    config: &DpTestConfig,
    project: impl Fn(&Value) -> String + Sync,
) -> DpEstimate {
    let counts1 = Mutex::new(HashMap::<String, u64>::new());
    let counts2 = Mutex::new(HashMap::<String, u64>::new());
    let threads = config.threads.max(1);
    let per_thread = config.trials.div_ceil(threads);
    let trials = per_thread * threads;

    std::thread::scope(|scope| {
        for t in 0..threads {
            let counts1 = &counts1;
            let counts2 = &counts2;
            let project = &project;
            let seed = config.seed;
            scope.spawn(move || {
                let mut local1 = HashMap::<String, u64>::new();
                let mut local2 = HashMap::<String, u64>::new();
                for (which, inputs, local) in
                    [(0u64, input1, &mut local1), (1u64, input2, &mut local2)]
                {
                    let mut interp =
                        Interp::with_seed(seed ^ (which << 32) ^ (t as u64).wrapping_mul(0x9E37));
                    for _ in 0..per_thread {
                        let run = interp
                            .run(f, inputs.iter().cloned())
                            .expect("empirical test program must run");
                        *local.entry(project(&run.output)).or_insert(0) += 1;
                    }
                }
                let mut g1 = counts1.lock().unwrap_or_else(PoisonError::into_inner);
                for (k, v) in local1 {
                    *g1.entry(k).or_insert(0) += v;
                }
                drop(g1);
                let mut g2 = counts2.lock().unwrap_or_else(PoisonError::into_inner);
                for (k, v) in local2 {
                    *g2.entry(k).or_insert(0) += v;
                }
            });
        }
    });

    let counts1 = counts1.into_inner().unwrap_or_else(PoisonError::into_inner);
    let counts2 = counts2.into_inner().unwrap_or_else(PoisonError::into_inner);
    let mut events: Vec<&String> = counts1.keys().chain(counts2.keys()).collect();
    events.sort();
    events.dedup();
    let distinct_events = events.len();

    let total = trials as f64;
    let mut max_log_ratio = 0.0_f64;
    let mut worst_event = String::new();
    for e in events {
        let c1 = *counts1.get(e).unwrap_or(&0) as f64 + config.smoothing;
        let c2 = *counts2.get(e).unwrap_or(&0) as f64 + config.smoothing;
        let p1 = c1 / (total + config.smoothing);
        let p2 = c2 / (total + config.smoothing);
        let lr = (p1 / p2).ln().abs();
        if lr > max_log_ratio {
            max_log_ratio = lr;
            worst_event = e.clone();
        }
    }

    DpEstimate {
        max_log_ratio,
        worst_event,
        distinct_events,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowdp_syntax::parse_function;

    fn config(trials: usize) -> DpTestConfig {
        DpTestConfig {
            trials,
            threads: 4,
            seed: 42,
            smoothing: 1.0,
        }
    }

    #[test]
    fn laplace_mechanism_is_consistent_with_eps() {
        // Laplace mechanism with eps = 0.5 on inputs differing by 1.
        let f = parse_function(
            "function F(eps: num(0,0), x: num(1,1)) returns out: num(0,0) {
                eta := lap(1 / eps) { select: aligned, align: -1 };
                out := x + eta;
             }",
        )
        .unwrap();
        let est = estimate_privacy_loss(
            &f,
            &[("eps", Value::num(0.5)), ("x", Value::num(0.0))],
            &[("eps", Value::num(0.5)), ("x", Value::num(1.0))],
            &config(20_000),
            |v| format!("{:.0}", v.as_num().unwrap().clamp(-8.0, 8.0)),
        );
        assert!(
            est.consistent_with(0.5, 0.35),
            "estimated loss {} should be ~<= 0.5",
            est.max_log_ratio
        );
        assert!(est.distinct_events > 3);
    }

    #[test]
    fn non_private_release_is_flagged() {
        // Releasing x directly (no noise in the released value) is not DP:
        // the outputs on adjacent inputs never overlap.
        let f = parse_function(
            "function F(eps: num(0,0), x: num(1,1)) returns out: num(0,0) {
                out := x;
             }",
        )
        .unwrap();
        let est = estimate_privacy_loss(
            &f,
            &[("eps", Value::num(0.5)), ("x", Value::num(0.0))],
            &[("eps", Value::num(0.5)), ("x", Value::num(1.0))],
            &config(2_000),
            super::super::value::Value::event_key,
        );
        assert!(
            !est.consistent_with(0.5, 0.5),
            "direct release must violate the bound, got {}",
            est.max_log_ratio
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let f = parse_function(
            "function F(eps: num(0,0), x: num(1,1)) returns out: num(0,0) {
                eta := lap(1 / eps) { select: aligned, align: -1 };
                out := x + eta;
             }",
        )
        .unwrap();
        let run = || {
            estimate_privacy_loss(
                &f,
                &[("eps", Value::num(1.0)), ("x", Value::num(0.0))],
                &[("eps", Value::num(1.0)), ("x", Value::num(1.0))],
                &config(1_000),
                |v| format!("{:.0}", v.as_num().unwrap()),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.max_log_ratio, b.max_log_ratio);
        assert_eq!(a.worst_event, b.worst_event);
    }
}
