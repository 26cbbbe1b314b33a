//! Verification of transformed ShadowDP programs.
//!
//! This crate is the reproduction's replacement for CPAChecker: it lowers
//! the type system's output `c'` into the paper's *target language* `c''`
//! (Figure 5 — sampling becomes `havoc` plus an explicit privacy-cost
//! update of the distinguished variable `v_eps`) and then proves
//! `assert (v_eps <= budget)` along with every instrumentation assert.
//!
//! Two engines:
//!
//! - [`inductive`] — a Hoare-style engine: loops are verified against
//!   inductive invariants discovered by a Houdini fixed point over
//!   generated candidates (counter ranges, cost-versus-counter affine
//!   bounds, hat-variable bounds, adjacency-ghost implications, plus any
//!   user-supplied `invariant` annotations). This is the analogue of
//!   CPAChecker's predicate analysis and handles symbolic `size`/`N`/`eps`.
//! - [`bmc`] — a bounded model checker: loops are unrolled for concrete
//!   small bounds, every path is discharged by the solver, and violated
//!   assertions come back as concrete counterexamples (query values, noise
//!   values) — the paper's bug-finding story for incorrect programs.
//!
//! The non-linear privacy-cost arithmetic the paper handles by manual
//! rewriting (§6.1–§6.2) is automated in [`target`]: every cost increment
//! `|n_η|/r` is rescaled by a common positive unit (a monomial in `eps` and
//! the budget-split parameter) chosen so that all increments and the final
//! budget become linear; data-dependent factors that still break linearity
//! fall back to the paper's assert-a-bound rewrite.
//!
//! # Examples
//!
//! ```
//! use shadowdp_syntax::parse_function;
//! use shadowdp_typing::check_function;
//! use shadowdp_verify::{verify, Engine, Options, Verdict};
//!
//! let f = parse_function(
//!     "function AddNoise(eps: num(0,0), x: num(1,1)) returns out: num(0,0)
//!      precondition eps > 0
//!      {
//!          eta := lap(1 / eps) { select: aligned, align: -1 };
//!          out := x + eta;
//!      }",
//! ).unwrap();
//! let t = check_function(&f).unwrap();
//! let report = verify(&t.function, &Options::default());
//! assert!(matches!(report.verdict, Verdict::Proved));
//! ```

pub mod bmc;
pub mod inductive;
pub mod sym;
pub mod target;

use shadowdp_syntax::Function;

pub use bmc::{BmcOptions, BmcOutcome, Counterexample};
pub use inductive::{InductiveOptions, InductiveOutcome, RoundProfile, RoundProfileSink};
pub use sym::{Obligation, SymError};
pub use target::{lower_to_target, CostSite, LowerTargetError, TargetInfo, VerifyMode};

/// Which engine(s) to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Inductive (Houdini) proof only.
    Inductive,
    /// Bounded model checking only.
    Bmc,
    /// Inductive proof; on failure, BMC for a counterexample.
    InductiveThenBmc,
}

/// Verification options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Cost linearization mode.
    pub mode: VerifyMode,
    /// Engine selection.
    pub engine: Engine,
    /// BMC bounds.
    pub bmc: BmcOptions,
    /// Inductive-engine knobs.
    pub inductive: InductiveOptions,
    /// Optional resource budget (wall-clock deadline and/or theory-call
    /// cap) enforced across *both* engines. Exhaustion yields
    /// [`Verdict::ResourceExhausted`] rather than a hang or a spurious
    /// `Unknown`; partial results from an exhausted run are never
    /// memoized, so re-verifying with a larger budget starts clean.
    pub budget: Option<shadowdp_solver::Budget>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            mode: VerifyMode::Scaled,
            engine: Engine::InductiveThenBmc,
            bmc: BmcOptions::default(),
            inductive: InductiveOptions::default(),
            budget: None,
        }
    }
}

/// Final verdict for a program.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// All obligations proved for unbounded inputs.
    Proved,
    /// A concrete counterexample violates an obligation.
    Refuted(Counterexample),
    /// Neither proved nor refuted (e.g. invariant inference too weak and
    /// BMC found nothing within bounds).
    Unknown(String),
    /// The run hit its [`Options::budget`] before reaching a conclusion.
    /// Unlike [`Verdict::Unknown`] this is a property of the budget, not
    /// the program: re-verification with a larger budget may still prove
    /// or refute.
    ResourceExhausted {
        /// What ran out (deadline or theory-call cap).
        reason: String,
    },
}

/// A verification report.
#[derive(Clone, Debug)]
pub struct Report {
    /// The verdict.
    pub verdict: Verdict,
    /// The target program that was checked.
    pub target: Function,
    /// Human-readable log of engine decisions (discovered invariants,
    /// bounds used).
    pub log: Vec<String>,
}

/// Lowers `c'` to the target language and verifies it.
///
/// The input must be the output of
/// `shadowdp_typing::check_function` — a source program straight from the
/// parser still contains un-instrumented sampling and will be rejected by
/// lowering only if malformed, but its verification says nothing about
/// privacy.
pub fn verify(transformed: &Function, options: &Options) -> Report {
    let solver = shadowdp_solver::Solver::new();
    verify_with(transformed, options, &solver)
}

/// [`verify`] against a caller-provided solver (for stats aggregation).
///
/// When [`Options::budget`] is set it is installed on the solver for the
/// duration of the call and cleared afterwards; an exhausted run reports
/// [`Verdict::ResourceExhausted`] regardless of what the engines managed
/// to conclude from placeholder answers.
pub fn verify_with(
    transformed: &Function,
    options: &Options,
    solver: &shadowdp_solver::Solver,
) -> Report {
    if let Some(budget) = &options.budget {
        solver.set_budget(budget.clone());
    }
    let mut report = verify_inner(transformed, options, solver);
    if let Some(reason) = solver.exhausted() {
        report
            .log
            .push(format!("resource budget exhausted: {reason}"));
        report.verdict = Verdict::ResourceExhausted { reason };
    }
    if options.budget.is_some() {
        solver.clear_budget();
    }
    report
}

/// Per-phase latency histogram shared with the pipeline's parse /
/// typecheck / verify observations (the registry dedupes by name).
static PHASE_US: shadowdp_obs::LazyFamily<shadowdp_obs::Histogram> = shadowdp_obs::LazyFamily::new(
    "shadowdp_phase_us",
    "Wall-clock latency per pipeline phase (microseconds)",
    "phase",
);

fn verify_inner(
    transformed: &Function,
    options: &Options,
    solver: &shadowdp_solver::Solver,
) -> Report {
    let lower_start = std::time::Instant::now();
    let lowered = {
        let _span = shadowdp_obs::span("lower");
        lower_to_target(transformed, options.mode.clone())
    };
    PHASE_US
        .with("lower")
        .observe(lower_start.elapsed().as_micros() as u64);
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

    let run_inductive = matches!(options.engine, Engine::Inductive | Engine::InductiveThenBmc);
    let run_bmc = matches!(options.engine, Engine::Bmc | Engine::InductiveThenBmc);

    if run_inductive {
        let _span = shadowdp_obs::span("inductive");
        match inductive::prove(&info, &options.inductive, solver) {
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

    let _bmc_span = shadowdp_obs::span("bmc");
    match bmc::check(&info, &options.bmc, solver) {
        BmcOutcome::Verified { bound } => {
            let msg = format!("bounded verification only (all inputs with size <= {bound})");
            log.push(msg.clone());
            Report {
                verdict: if run_inductive {
                    Verdict::Unknown(format!("inductive proof failed; {msg}"))
                } else {
                    // BMC-only callers asked for bounded assurance.
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

#[cfg(test)]
mod budget_tests {
    use super::*;
    use shadowdp_solver::{Budget, Solver};
    use shadowdp_syntax::parse_function;
    use shadowdp_typing::check_function;

    const LOOP_SRC: &str = "function Loop(eps, NN, size: num(0,0), q: list num(*,*))
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

    fn transformed() -> Function {
        let f = parse_function(LOOP_SRC).unwrap();
        check_function(&f).expect("type checks").function
    }

    /// A starved budget yields `ResourceExhausted` (not a misleading
    /// `Unknown`), and the same solver proves the program once the budget
    /// is lifted: queries that *completed* before exhaustion are sound and
    /// may be memoized, but the placeholder answers minted after the trip
    /// never are, so the re-run is not poisoned.
    #[test]
    fn starved_budget_reports_exhaustion_and_rerun_proves() {
        let t = transformed();
        let solver = Solver::new();
        let opts = Options {
            budget: Some(Budget::with_theory_calls(1)),
            ..Options::default()
        };
        let report = verify_with(&t, &opts, &solver);
        match &report.verdict {
            Verdict::ResourceExhausted { reason } => {
                assert!(reason.contains("theory-call"), "{reason}");
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        let report = verify_with(&t, &Options::default(), &solver);
        assert!(
            matches!(report.verdict, Verdict::Proved),
            "{:?}",
            report.verdict
        );
    }

    /// A generous budget is a no-op: same verdict as the unbudgeted run.
    #[test]
    fn generous_budget_still_proves() {
        let t = transformed();
        let solver = Solver::new();
        let opts = Options {
            budget: Some(shadowdp_solver::Budget {
                deadline: Some(std::time::Duration::from_secs(600)),
                max_theory_calls: Some(10_000_000),
            }),
            ..Options::default()
        };
        let report = verify_with(&t, &opts, &solver);
        assert!(
            matches!(report.verdict, Verdict::Proved),
            "{:?}",
            report.verdict
        );
        // The budget was installed for the call only.
        assert!(solver.exhausted().is_none());
    }

    /// An already-expired deadline trips before any engine makes progress,
    /// and the report still carries the engines' logs for diagnosis.
    #[test]
    fn expired_deadline_exhausts_immediately() {
        let t = transformed();
        let solver = Solver::new();
        let opts = Options {
            budget: Some(Budget::with_deadline(std::time::Duration::ZERO)),
            ..Options::default()
        };
        let report = verify_with(&t, &opts, &solver);
        match &report.verdict {
            Verdict::ResourceExhausted { reason } => {
                assert!(reason.contains("deadline"), "{reason}");
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        assert!(report
            .log
            .iter()
            .any(|l| l.contains("resource budget exhausted")));
        // Nothing could complete before the trip, so nothing may be
        // memoized: no partial verdicts survive the exhausted run.
        assert_eq!(solver.memo().len(), 0, "exhausted run polluted the memo");
    }
}
