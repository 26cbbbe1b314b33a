//! **shadowdp-analysis** — static DP-lint passes over the parsed
//! ShadowDP AST, run *before* typechecking and verification.
//!
//! The typechecker and verifier answer "does the proof go through";
//! this crate answers the cheaper, decidable question "is this program
//! obviously wrong" — with precise source locations, milliseconds after
//! parse. Four forward dataflow passes ship, each with a stable code:
//!
//! | code | check |
//! |---|---|
//! | `SD01` | taint: sensitive data reaching the output or a branch without noise |
//! | `SD02` | static privacy-budget accounting: unbounded loop cost, definite overruns |
//! | `SD03` | unused noise; trivially divergent aligned/shadow branches |
//! | `SD04` | structural: use-before-def, havoc'd reads, unreachable code, source-stage rule |
//!
//! Diagnostics are deterministic: source order with a stable tie-break,
//! rendered either human-readable ([`render_human`]) or as JSON-lines
//! ([`render_json_lines`], byte-identical across runs and transports).
//! All nine Table 1 algorithms lint clean; the checks are tuned to the
//! paper's idioms (shadow selectors amortizing loop cost, `·NN/eps`
//! scale cancellation, `atmostone` hat alignments).
//!
//! ```
//! let src = "function F(eps: num(0,0), x: num(1,1)) returns out: num(0,-)
//!            precondition eps > 0
//!            { out := x; }";
//! let diags = shadowdp_analysis::lint_source(src).unwrap();
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].code.as_str(), "SD01");
//! ```

mod budget;
mod diag;
mod noise;
mod structure;
mod taint;

pub use diag::{canonicalize, render_human, render_json_lines, Code, Diagnostic, Severity};

use shadowdp_syntax::{parse_function, Function, ParseError};

/// Lints a parsed function against its source text (needed for
/// `line:col`). Returns findings in canonical order.
pub fn lint_function(f: &Function, src: &str) -> Vec<Diagnostic> {
    let info = taint::analyze(f, src);
    let mut diags = info.diags;
    diags.extend(budget::analyze(f, src, &info.summary));
    diags.extend(noise::analyze(f, src, &info.summary));
    diags.extend(structure::analyze(f, src));
    canonicalize(diags)
}

/// Parses and lints a source program.
///
/// # Errors
///
/// The parse error, if the program does not parse (parse errors are
/// fatal — there is no AST to lint).
pub fn lint_source(src: &str) -> Result<Vec<Diagnostic>, ParseError> {
    let f = parse_function(src)?;
    Ok(lint_function(&f, src))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<(&'static str, &'static str)> {
        lint_source(src)
            .expect("parses")
            .into_iter()
            .map(|d| (d.code.as_str(), d.severity.as_str()))
            .collect()
    }

    const HEADER: &str = "function F(eps, size: num(0,0), q: list num(*,*))
returns out: num(0,-)
precondition forall k :: -1 <= ^q[k] && ^q[k] <= 1 && ~q[k] == ^q[k]
precondition eps > 0
precondition size >= 0
";

    #[test]
    fn raw_release_is_sd01() {
        let src = format!("{HEADER}{{ out := q[0]; }}");
        assert_eq!(codes(&src), vec![("SD01", "error")]);
    }

    #[test]
    fn noised_release_is_clean() {
        let src = format!(
            "{HEADER}{{ eta := lap(1 / eps) {{ select: aligned, align: 1 }}; out := q[0] + eta; }}"
        );
        assert_eq!(codes(&src), vec![]);
    }

    #[test]
    fn tainted_branch_is_sd01_warning() {
        let src = format!(
            "{HEADER}{{ eta := lap(1 / eps) {{ select: aligned, align: 1 }};
                if (q[0] > 0) {{ out := eta; }} else {{ out := 0 + eta; }} }}"
        );
        assert_eq!(codes(&src), vec![("SD01", "warning")]);
    }

    #[test]
    fn tainted_scale_is_sd01_error() {
        let src = format!(
            "{HEADER}{{ eta := lap(q[0] / eps) {{ select: aligned, align: 1 }}; out := eta; }}"
        );
        assert_eq!(codes(&src), vec![("SD01", "error")]);
    }

    #[test]
    fn loop_cost_without_bound_is_sd02() {
        let src = format!(
            "{HEADER}{{ i := 0; out := 0;
                while (i < size) {{
                    eta := lap(1 / eps) {{ select: aligned, align: 1 }};
                    out := q[i] + eta;
                    i := i + 1;
                }} }}"
        );
        assert_eq!(codes(&src), vec![("SD02", "warning")]);
    }

    #[test]
    fn scale_compensated_loop_is_clean() {
        let src = format!(
            "{HEADER}{{ i := 0; count := 0; out := 0;
                while (count < size && i < size) {{
                    eta := lap(2 * size / eps) {{ select: aligned, align: 1 }};
                    out := q[i] + eta;
                    count := count + 1;
                    i := i + 1;
                }} }}"
        );
        assert_eq!(codes(&src), vec![]);
    }

    #[test]
    fn definite_overrun_is_sd02_error() {
        let src = format!(
            "{HEADER}{{ e1 := lap(1 / eps) {{ select: aligned, align: 1 }};
                e2 := lap(1 / eps) {{ select: aligned, align: 1 }};
                out := q[0] + e1 + e2; }}"
        );
        assert_eq!(codes(&src), vec![("SD02", "error")]);
    }

    #[test]
    fn unused_noise_is_sd03() {
        let src = format!(
            "{HEADER}{{ eta := lap(4 / eps) {{ select: aligned, align: 1 }};
                e2 := lap(2 / eps) {{ select: aligned, align: 1 }};
                out := 0 + e2; }}"
        );
        assert_eq!(codes(&src), vec![("SD03", "warning")]);
    }

    #[test]
    fn zero_aligned_branch_is_sd03() {
        let src = format!(
            "{HEADER}{{ eta := lap(1 / eps) {{ select: aligned, align: 0 }};
                if (q[0] + eta > 0) {{ out := 1 + eta; }} else {{ out := 0 + eta; }} }}"
        );
        assert_eq!(codes(&src), vec![("SD03", "warning")]);
    }

    #[test]
    fn use_before_def_is_sd04() {
        let src = format!(
            "{HEADER}{{ eta := lap(1 / eps) {{ select: aligned, align: 1 }}; out := bogus + eta; }}"
        );
        assert_eq!(codes(&src), vec![("SD04", "error")]);
    }

    #[test]
    fn unreachable_after_return_is_sd04() {
        let src = format!(
            "{HEADER}{{ eta := lap(1 / eps) {{ select: aligned, align: 1 }};
                out := 0 + eta;
                return out;
                out := 1 + eta; }}"
        );
        assert_eq!(codes(&src), vec![("SD04", "warning")]);
    }

    #[test]
    fn branch_defined_var_needs_both_arms() {
        let src = format!(
            "{HEADER}{{ eta := lap(1 / eps) {{ select: aligned, align: 1 }};
                if (eta > 0) {{ t := 1; }} else {{ out := 0 + eta; }}
                out := t + eta; }}"
        );
        assert_eq!(codes(&src), vec![("SD04", "error")]);
    }

    #[test]
    fn source_stage_violations_are_located_sd04_errors() {
        let probes = [
            "out := ^q[0];",
            "return ^out;",
            "if (^out > 0) { skip; }",
            "while (out < ^out) { skip; }",
            "eta := lap(1 / eps + ^q[0]) { select: aligned, align: 1 };",
            "assert(out > 0);",
            "assume(out > 0);",
            "havoc out;",
        ];
        for cmd in probes {
            let src = format!(
                "function F(eps: num(0,0), q: list num(*,*)) returns out: num(0,0)\n\
                 {{\n    out := 0;\n    if (eps > 1) {{\n        {cmd}\n    }}\n}}"
            );
            let f = parse_function(&src).unwrap();
            let (_, message) = f.validate_source().unwrap_err();
            let stage: Vec<_> = lint_function(&f, &src)
                .into_iter()
                .filter(|d| d.message == message)
                .map(|d| (d.code.as_str(), d.severity.as_str(), d.line, d.col))
                .collect();
            assert_eq!(stage, [("SD04", "error", 5, 9)], "{cmd}");
        }
    }

    #[test]
    fn diagnostics_are_deterministic_and_located() {
        let src = format!("{HEADER}{{ out := q[0]; }}");
        let a = lint_source(&src).unwrap();
        let b = lint_source(&src).unwrap();
        assert_eq!(render_json_lines(&a), render_json_lines(&b));
        let d = &a[0];
        assert_eq!(d.line, 6);
        let human = render_human(&a, None);
        assert!(human.starts_with("6:"), "located rendering: {human}");
        assert!(human.contains("error[SD01]"));
    }
}
