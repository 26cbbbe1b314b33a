//! The paper's benchmark suite (Table 1) in ShadowDP concrete syntax,
//! plus classic *incorrect* variants that the pipeline must reject.
//!
//! Annotation provenance, per algorithm:
//!
//! | Algorithm | Sampling annotations (selector, alignment) | Paper ref |
//! |---|---|---|
//! | Report Noisy Max | `(Ω ? † : ◦, Ω ? 2 : 0)` | Fig. 1 |
//! | Sparse Vector | `(◦, 1)`, `(◦, Ω ? 2 : 0)` | Fig. 6 |
//! | Numerical SVT | `(◦, 1)`, `(◦, Ω ? 2 : 0)`, `(◦, −q̂◦[i])` | Fig. 10 |
//! | Gap SVT | `(◦, 1)`, `(◦, Ω ? (1−q̂◦[i]) : 0)` | §6.2.2 |
//! | Partial Sum | `(◦, −ŝum◦)` | Fig. 11 |
//! | Prefix Sum | `(◦, −q̂◦[i])` | App. C.3 |
//! | Smart Sum | `(◦, −ŝum◦−q̂◦[i])`, `(◦, −q̂◦[i])` | Fig. 12 |
//!
//! `Ω` always denotes the branch condition following the sample. Gap SVT
//! encodes the paper's `false` output for below-threshold queries as `0`
//! (the language's lists are homogeneous).

/// What the pipeline must conclude for an algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expected {
    /// Type checks and verifies (unbounded proof).
    Proved,
    /// Type checks but verification finds a counterexample.
    Refuted,
    /// Rejected by the type system.
    TypeError,
}

/// Reference timings from the paper's Table 1 (seconds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperTimes {
    /// "Type Check (s)".
    pub typecheck: f64,
    /// "Verification by ShadowDP (s)" — Rewrite column (or the single
    /// column when no rewrite was needed).
    pub verify_rewrite: Option<f64>,
    /// "Verification by ShadowDP (s)" — Fix ε column.
    pub verify_fix: Option<f64>,
    /// "Verification by \[2\] (s)" — the coupling-based verifier.
    pub coupling: Option<f64>,
}

/// One benchmark: source, harness configuration, expectations.
#[derive(Clone, Debug)]
pub struct Algorithm {
    /// Display name (matches Table 1 where applicable).
    pub name: &'static str,
    /// ShadowDP source with the paper's annotations.
    pub source: &'static str,
    /// Extra BMC assumptions (parameter pinning for bounded runs).
    pub bmc_assumptions: &'static [&'static str],
    /// Expected pipeline outcome.
    pub expect: Expected,
    /// Paper Table 1 timings (None for algorithms not in the table).
    pub paper: Option<PaperTimes>,
}

/// §2.2's running example: the Laplace mechanism.
pub fn laplace_mechanism() -> Algorithm {
    Algorithm {
        name: "Laplace Mechanism",
        source: r#"
function LaplaceMech(eps: num(0,0), x: num(1,1))
returns out: num(0,-)
precondition eps > 0
{
    eta := lap(1 / eps) { select: aligned, align: -1 };
    out := x + eta;
}
"#,
        bmc_assumptions: &[],
        expect: Expected::Proved,
        paper: None,
    }
}

/// Report Noisy Max (paper Figure 1) — the flagship example: the selector
/// switches to the shadow execution whenever a new max is found.
pub fn noisy_max() -> Algorithm {
    Algorithm {
        name: "Report Noisy Max",
        source: r#"
function NoisyMax(eps, size: num(0,0), q: list num(*,*))
returns max: num(0,*)
precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1 && ~q[k] == ^q[k]
precondition eps > 0
precondition size >= 0
{
    i := 0; bq := 0; max := 0;
    while (i < size) {
        eta := lap(2 / eps) { select: q[i] + eta > bq || i == 0 ? shadow : aligned,
                              align:  q[i] + eta > bq || i == 0 ? 2 : 0 };
        if (q[i] + eta > bq || i == 0) {
            max := i;
            bq := q[i] + eta;
        }
        i := i + 1;
    }
}
"#,
        bmc_assumptions: &[],
        expect: Expected::Proved,
        paper: Some(PaperTimes {
            typecheck: 0.465,
            verify_rewrite: Some(1.932),
            verify_fix: None,
            coupling: Some(22.0),
        }),
    }
}

/// Sparse Vector Technique (paper Figure 6), general `N`.
pub fn svt() -> Algorithm {
    Algorithm {
        name: "Sparse Vector Technique",
        source: r#"
function SVT(eps, size, T, NN: num(0,0), q: list num(*,*))
returns out: list bool
precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1 && ~q[k] == ^q[k]
precondition eps > 0
precondition NN >= 1
precondition size >= 0
{
    out := nil;
    eta1 := lap(2 / eps) { select: aligned, align: 1 };
    tt := T + eta1;
    count := 0; i := 0;
    while (count < NN && i < size) {
        eta2 := lap(4 * NN / eps) { select: aligned, align: q[i] + eta2 >= tt ? 2 : 0 };
        if (q[i] + eta2 >= tt) {
            out := true :: out;
            count := count + 1;
        } else {
            out := false :: out;
        }
        i := i + 1;
    }
}
"#,
        bmc_assumptions: &["NN == 1"],
        expect: Expected::Proved,
        paper: Some(PaperTimes {
            typecheck: 0.399,
            verify_rewrite: Some(2.629),
            verify_fix: Some(1.679),
            coupling: Some(580.0),
        }),
    }
}

/// Sparse Vector Technique with `N = 1` (the paper's separate Table 1 row).
pub fn svt_n1() -> Algorithm {
    Algorithm {
        name: "Sparse Vector Technique (N = 1)",
        source: r#"
function SVT1(eps, size, T: num(0,0), q: list num(*,*))
returns out: list bool
precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1 && ~q[k] == ^q[k]
precondition eps > 0
precondition size >= 0
{
    out := nil;
    eta1 := lap(2 / eps) { select: aligned, align: 1 };
    tt := T + eta1;
    count := 0; i := 0;
    while (count < 1 && i < size) {
        eta2 := lap(4 / eps) { select: aligned, align: q[i] + eta2 >= tt ? 2 : 0 };
        if (q[i] + eta2 >= tt) {
            out := true :: out;
            count := count + 1;
        } else {
            out := false :: out;
        }
        i := i + 1;
    }
}
"#,
        bmc_assumptions: &[],
        expect: Expected::Proved,
        paper: Some(PaperTimes {
            typecheck: 0.398,
            verify_rewrite: Some(1.856),
            verify_fix: None,
            coupling: Some(27.0),
        }),
    }
}

/// Numerical Sparse Vector Technique (paper Figure 10), general `N`.
pub fn num_svt() -> Algorithm {
    Algorithm {
        name: "Numerical Sparse Vector Technique",
        source: r#"
function NumSVT(eps, size, T, NN: num(0,0), q: list num(*,*))
returns out: list num(0,-)
precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1 && ~q[k] == ^q[k]
precondition eps > 0
precondition NN >= 1
precondition size >= 0
{
    out := nil;
    eta1 := lap(3 / eps) { select: aligned, align: 1 };
    tt := T + eta1;
    count := 0; i := 0;
    while (count < NN && i < size) {
        eta2 := lap(6 * NN / eps) { select: aligned, align: q[i] + eta2 >= tt ? 2 : 0 };
        if (q[i] + eta2 >= tt) {
            eta3 := lap(3 * NN / eps) { select: aligned, align: 0 - ^q[i] };
            out := (q[i] + eta3) :: out;
            count := count + 1;
        } else {
            out := 0 :: out;
        }
        i := i + 1;
    }
}
"#,
        bmc_assumptions: &["NN == 1"],
        expect: Expected::Proved,
        paper: Some(PaperTimes {
            typecheck: 0.421,
            verify_rewrite: Some(2.584),
            verify_fix: Some(1.662),
            coupling: Some(5.0),
        }),
    }
}

/// Numerical Sparse Vector Technique with `N = 1`.
pub fn num_svt_n1() -> Algorithm {
    Algorithm {
        name: "Numerical Sparse Vector Technique (N = 1)",
        source: r#"
function NumSVT1(eps, size, T: num(0,0), q: list num(*,*))
returns out: list num(0,-)
precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1 && ~q[k] == ^q[k]
precondition eps > 0
precondition size >= 0
{
    out := nil;
    eta1 := lap(3 / eps) { select: aligned, align: 1 };
    tt := T + eta1;
    count := 0; i := 0;
    while (count < 1 && i < size) {
        eta2 := lap(6 / eps) { select: aligned, align: q[i] + eta2 >= tt ? 2 : 0 };
        if (q[i] + eta2 >= tt) {
            eta3 := lap(3 / eps) { select: aligned, align: 0 - ^q[i] };
            out := (q[i] + eta3) :: out;
            count := count + 1;
        } else {
            out := 0 :: out;
        }
        i := i + 1;
    }
}
"#,
        bmc_assumptions: &[],
        expect: Expected::Proved,
        paper: Some(PaperTimes {
            typecheck: 0.418,
            verify_rewrite: Some(1.783),
            verify_fix: Some(1.788),
            coupling: Some(4.0),
        }),
    }
}

/// Gap Sparse Vector Technique (paper §6.2.2) — the novel variant: the gap
/// between the noisy answer and the noisy threshold is released at the
/// *same* privacy level, reusing the comparison noise.
pub fn gap_svt() -> Algorithm {
    Algorithm {
        name: "Gap Sparse Vector Technique",
        source: r#"
function GapSVT(eps, size, T, NN: num(0,0), q: list num(*,*))
returns out: list num(0,-)
precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1 && ~q[k] == ^q[k]
precondition eps > 0
precondition NN >= 1
precondition size >= 0
{
    out := nil;
    eta1 := lap(2 / eps) { select: aligned, align: 1 };
    tt := T + eta1;
    count := 0; i := 0;
    while (count < NN && i < size) {
        eta2 := lap(4 * NN / eps) { select: aligned,
                                    align: q[i] + eta2 >= tt ? 1 - ^q[i] : 0 };
        if (q[i] + eta2 >= tt) {
            out := (q[i] + eta2 - tt) :: out;
            count := count + 1;
        } else {
            out := 0 :: out;
        }
        i := i + 1;
    }
}
"#,
        bmc_assumptions: &["NN == 1"],
        expect: Expected::Proved,
        paper: Some(PaperTimes {
            typecheck: 0.424,
            verify_rewrite: Some(2.494),
            verify_fix: Some(1.826),
            coupling: None,
        }),
    }
}

/// Partial Sum (paper Figure 11): one noisy release of the whole sum under
/// the one-changed-query adjacency.
pub fn partial_sum() -> Algorithm {
    Algorithm {
        name: "Partial Sum",
        source: r#"
function PartialSum(eps, size: num(0,0), q: list num(*,*))
returns out: num(0,-)
precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1 && ~q[k] == ^q[k]
precondition atmostone q
precondition eps > 0
precondition size >= 0
{
    sum := 0; i := 0;
    while (i < size) {
        sum := sum + q[i];
        i := i + 1;
    }
    eta := lap(1 / eps) { select: aligned, align: 0 - ^sum };
    out := sum + eta;
}
"#,
        bmc_assumptions: &[],
        expect: Expected::Proved,
        paper: Some(PaperTimes {
            typecheck: 0.445,
            verify_rewrite: Some(1.922),
            verify_fix: Some(1.897),
            coupling: Some(14.0),
        }),
    }
}

/// Prefix Sum (paper App. C.3): every prefix released with fresh noise —
/// Smart Sum with the else-branch always taken.
pub fn prefix_sum() -> Algorithm {
    Algorithm {
        name: "Prefix Sum",
        source: r#"
function PrefixSum(eps, size: num(0,0), q: list num(*,*))
returns out: list num(0,-)
precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1 && ~q[k] == ^q[k]
precondition atmostone q
precondition eps > 0
precondition size >= 0
{
    out := nil;
    next := 0; i := 0;
    while (i < size) {
        eta := lap(1 / eps) { select: aligned, align: 0 - ^q[i] };
        next := next + q[i] + eta;
        out := next :: out;
        i := i + 1;
    }
}
"#,
        bmc_assumptions: &[],
        expect: Expected::Proved,
        paper: Some(PaperTimes {
            typecheck: 0.449,
            verify_rewrite: Some(1.903),
            verify_fix: Some(1.825),
            coupling: Some(14.0),
        }),
    }
}

/// Smart Sum (paper Figure 12, after Chan et al.): block sums plus running
/// sums, 2ε-differentially private.
pub fn smart_sum() -> Algorithm {
    Algorithm {
        name: "Smart Sum",
        source: r#"
function SmartSum(eps, size, T, MM: num(0,0), q: list num(*,*))
returns out: list num(0,-)
precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1 && ~q[k] == ^q[k]
precondition atmostone q
precondition eps > 0
precondition size >= 0
budget 2 * eps
{
    out := nil;
    next := 0; i := 0; sum := 0;
    while (i <= T && i < size) {
        if ((i + 1) % MM == 0) {
            eta1 := lap(1 / eps) { select: aligned, align: 0 - ^sum - ^q[i] };
            next := sum + q[i] + eta1;
            sum := 0;
            out := next :: out;
        } else {
            eta2 := lap(1 / eps) { select: aligned, align: 0 - ^q[i] };
            next := next + q[i] + eta2;
            sum := sum + q[i];
            out := next :: out;
        }
        i := i + 1;
    }
}
"#,
        bmc_assumptions: &["T == 2", "MM == 2"],
        expect: Expected::Proved,
        paper: Some(PaperTimes {
            typecheck: 0.603,
            verify_rewrite: Some(2.603),
            verify_fix: Some(2.455),
            coupling: Some(255.0),
        }),
    }
}

/// Buggy Sparse Vector: the threshold is released *without* noise
/// (Lyu et al.'s iSVT-style mistake). Type checks, but the alignment
/// cannot force the aligned execution down the same branch — the
/// instrumentation assert is refutable.
pub fn bad_svt_no_threshold_noise() -> Algorithm {
    Algorithm {
        name: "Buggy SVT (no threshold noise)",
        source: r#"
function BadSVT1(eps, size, T: num(0,0), q: list num(*,*))
returns out: list bool
precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1 && ~q[k] == ^q[k]
precondition eps > 0
precondition size >= 0
{
    out := nil;
    tt := T;
    count := 0; i := 0;
    while (count < 1 && i < size) {
        eta2 := lap(4 / eps) { select: aligned, align: q[i] + eta2 >= tt ? 2 : 0 };
        if (q[i] + eta2 >= tt) {
            out := true :: out;
            count := count + 1;
        } else {
            out := false :: out;
        }
        i := i + 1;
    }
}
"#,
        bmc_assumptions: &[],
        expect: Expected::Refuted,
        paper: None,
    }
}

/// Buggy Sparse Vector: query noise is not aligned at all (alignment 0).
/// The above-threshold branch's assert is refutable at `^q[i] < 1`.
pub fn bad_svt_no_query_alignment() -> Algorithm {
    Algorithm {
        name: "Buggy SVT (unaligned query noise)",
        source: r#"
function BadSVT2(eps, size, T: num(0,0), q: list num(*,*))
returns out: list bool
precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1 && ~q[k] == ^q[k]
precondition eps > 0
precondition size >= 0
{
    out := nil;
    eta1 := lap(2 / eps) { select: aligned, align: 1 };
    tt := T + eta1;
    count := 0; i := 0;
    while (count < 1 && i < size) {
        eta2 := lap(4 / eps) { select: aligned, align: 0 };
        if (q[i] + eta2 >= tt) {
            out := true :: out;
            count := count + 1;
        } else {
            out := false :: out;
        }
        i := i + 1;
    }
}
"#,
        bmc_assumptions: &[],
        expect: Expected::Refuted,
        paper: None,
    }
}

/// Buggy Sparse Vector: no bound on the number of above-threshold answers
/// (the "forgot to stop" mistake) — the privacy cost grows with `size` and
/// blows the ε budget.
pub fn bad_svt_over_budget() -> Algorithm {
    Algorithm {
        name: "Buggy SVT (unbounded answers)",
        source: r#"
function BadSVT3(eps, size, T: num(0,0), q: list num(*,*))
returns out: list bool
precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1 && ~q[k] == ^q[k]
precondition eps > 0
precondition size >= 0
{
    out := nil;
    eta1 := lap(2 / eps) { select: aligned, align: 1 };
    tt := T + eta1;
    i := 0;
    while (i < size) {
        eta2 := lap(4 / eps) { select: aligned, align: q[i] + eta2 >= tt ? 2 : 0 };
        if (q[i] + eta2 >= tt) {
            out := true :: out;
        } else {
            out := false :: out;
        }
        i := i + 1;
    }
}
"#,
        bmc_assumptions: &[],
        expect: Expected::Refuted,
        paper: None,
    }
}

/// Buggy Report Noisy Max: a non-injective alignment (wiping out the
/// sample) — rejected by the type system's (T-Laplace) injectivity check.
pub fn bad_noisy_max_non_injective() -> Algorithm {
    Algorithm {
        name: "Buggy Noisy Max (non-injective alignment)",
        source: r#"
function BadNoisyMax(eps, size: num(0,0), q: list num(*,*))
returns max: num(0,*)
precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1 && ~q[k] == ^q[k]
precondition eps > 0
precondition size >= 0
{
    i := 0; bq := 0; max := 0;
    while (i < size) {
        eta := lap(2 / eps) { select: aligned, align: 0 - eta };
        if (q[i] + eta > bq || i == 0) {
            max := i;
            bq := q[i] + eta;
        }
        i := i + 1;
    }
}
"#,
        bmc_assumptions: &[],
        expect: Expected::TypeError,
        paper: None,
    }
}

/// The nine Table 1 benchmarks, in the paper's order.
pub fn table1_algorithms() -> Vec<Algorithm> {
    vec![
        noisy_max(),
        svt_n1(),
        svt(),
        num_svt_n1(),
        num_svt(),
        gap_svt(),
        partial_sum(),
        prefix_sum(),
        smart_sum(),
    ]
}

/// A minimal provable counter loop with an `INV` placeholder where a
/// user-supplied loop invariant can be spliced
/// (`COUNTER_LOOP_TEMPLATE.replace("INV", …)` — use `""` for the plain
/// program). Tests across the workspace use it to steer Houdini's
/// candidate pool: e.g. `invariant (count <= 0)` passes initiation
/// (count starts at 0) but fails consecution, forcing a candidate-drop
/// round.
pub const COUNTER_LOOP_TEMPLATE: &str = "function Loop(eps, NN, size: num(0,0), q: list num(*,*))
     returns out: num(0,0)
     precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1 && ~q[k] == ^q[k]
     precondition eps > 0
     precondition NN >= 1
     precondition size >= 0
     {
         e0 := lap(2 / eps) { select: aligned, align: 1 };
         count := 0;
         while (count < NN) INV {
             e1 := lap(2 * NN / eps) { select: aligned, align: 1 };
             count := count + 1;
         }
         out := count;
     }";

/// The incorrect variants (each must be rejected).
pub fn buggy_algorithms() -> Vec<Algorithm> {
    vec![
        bad_svt_no_threshold_noise(),
        bad_svt_no_query_alignment(),
        bad_svt_over_budget(),
        bad_noisy_max_non_injective(),
    ]
}

/// Everything: Table 1, the Laplace mechanism, and the buggy variants.
pub fn all_algorithms() -> Vec<Algorithm> {
    let mut v = vec![laplace_mechanism()];
    v.extend(table1_algorithms());
    v.extend(buggy_algorithms());
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowdp_syntax::parse_function;

    #[test]
    fn all_sources_parse() {
        for alg in all_algorithms() {
            parse_function(alg.source)
                .unwrap_or_else(|e| panic!("{} fails to parse: {e}", alg.name));
        }
    }

    #[test]
    fn bmc_assumptions_parse() {
        for alg in all_algorithms() {
            for a in alg.bmc_assumptions {
                shadowdp_syntax::parse_expr(a)
                    .unwrap_or_else(|e| panic!("{}: bad assumption `{a}`: {e}", alg.name));
            }
        }
    }

    #[test]
    fn table1_has_nine_rows() {
        assert_eq!(table1_algorithms().len(), 9);
        for alg in table1_algorithms() {
            assert!(alg.paper.is_some(), "{} missing paper times", alg.name);
            assert_eq!(alg.expect, Expected::Proved);
        }
    }
}
