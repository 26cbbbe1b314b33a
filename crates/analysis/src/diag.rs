//! The diagnostic model: stable codes, severities, located findings,
//! and deterministic rendering (human-readable and JSON-lines).

use std::fmt;

use shadowdp_syntax::Span;

/// Stable diagnostic codes. The code is the contract: front-ends key
/// suppressions and tests on it, so codes are never renumbered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Taint: sensitive data reaching an output or branch without noise.
    Sd01,
    /// Static privacy-budget accounting (unbounded loop cost, overrun).
    Sd02,
    /// Unused noise / trivially divergent shadow execution.
    Sd03,
    /// Structural checks (use-before-def, havoc'd use, unreachable code).
    Sd04,
}

impl Code {
    /// The wire spelling (`SD01` … `SD04`).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Sd01 => "SD01",
            Code::Sd02 => "SD02",
            Code::Sd03 => "SD03",
            Code::Sd04 => "SD04",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but conceivably intentional.
    Warning,
    /// Almost certainly a privacy or correctness bug.
    Error,
}

impl Severity {
    /// The wire spelling (`warning` / `error`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One located finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable diagnostic code.
    pub code: Code,
    /// Severity.
    pub severity: Severity,
    /// Byte span in the linted source.
    pub span: Span,
    /// 1-based line of the span start.
    pub line: usize,
    /// 1-based column of the span start.
    pub col: usize,
    /// Human-readable description of the finding.
    pub message: String,
    /// Optional fix hint.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// Builds a diagnostic, computing `line:col` from `src`.
    pub fn new(
        code: Code,
        severity: Severity,
        span: Span,
        src: &str,
        message: impl Into<String>,
    ) -> Diagnostic {
        let (line, col) = span.line_col(src);
        Diagnostic {
            code,
            severity,
            span,
            line,
            col,
            message: message.into(),
            hint: None,
        }
    }

    /// Attaches a fix hint.
    pub fn with_hint(mut self, hint: impl Into<String>) -> Diagnostic {
        self.hint = Some(hint.into());
        self
    }
}

/// Sorts into the canonical order (source position, then code, then
/// message as the stable tie-break) and drops exact duplicates.
pub fn canonicalize(mut diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags.sort_by(|a, b| {
        (
            a.span.start,
            a.span.end,
            a.code,
            a.message.as_str(),
            a.severity,
        )
            .cmp(&(
                b.span.start,
                b.span.end,
                b.code,
                b.message.as_str(),
                b.severity,
            ))
    });
    diags.dedup();
    diags
}

/// Renders diagnostics for a terminal, one per line, optionally
/// prefixed with a file name:
///
/// ```text
/// prog.sdp:9:5: warning[SD02]: privacy cost in a loop without a static bound
///   hint: bound the loop with a guard the scale compensates for
/// ```
pub fn render_human(diags: &[Diagnostic], file: Option<&str>) -> String {
    let mut out = String::new();
    for d in diags {
        if let Some(f) = file {
            out.push_str(f);
            out.push(':');
        }
        out.push_str(&format!(
            "{}:{}: {}[{}]: {}\n",
            d.line,
            d.col,
            d.severity.as_str(),
            d.code.as_str(),
            d.message
        ));
        if let Some(h) = &d.hint {
            out.push_str(&format!("  hint: {h}\n"));
        }
    }
    out
}

/// Escapes a string for a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders diagnostics as JSON-lines (one object per line, no trailing
/// spaces, keys in a fixed order) — the machine-readable form printed by
/// `shadowdp lint --json`. Byte-identical for identical findings.
pub fn render_json_lines(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"start\":{},\"end\":{},\"line\":{},\"col\":{},\"message\":\"{}\"",
            d.code.as_str(),
            d.severity.as_str(),
            d.span.start,
            d.span.end,
            d.line,
            d.col,
            json_escape(&d.message)
        ));
        if let Some(h) = &d.hint {
            out.push_str(&format!(",\"hint\":\"{}\"", json_escape(h)));
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(code: Code, start: usize, msg: &str) -> Diagnostic {
        Diagnostic::new(
            code,
            Severity::Warning,
            Span {
                start,
                end: start + 1,
            },
            "line one\nline two\n",
            msg,
        )
    }

    #[test]
    fn canonical_order_is_position_then_code_then_message() {
        let diags = vec![
            d(Code::Sd03, 10, "b"),
            d(Code::Sd01, 10, "a"),
            d(Code::Sd01, 2, "z"),
            d(Code::Sd01, 10, "a"), // duplicate
        ];
        let canon = canonicalize(diags);
        assert_eq!(canon.len(), 3);
        assert_eq!(canon[0].span.start, 2);
        assert_eq!(canon[1].code, Code::Sd01);
        assert_eq!(canon[2].code, Code::Sd03);
    }

    #[test]
    fn line_col_and_renderings() {
        let diag = d(Code::Sd02, 9, "cost in loop").with_hint("bound the loop");
        assert_eq!((diag.line, diag.col), (2, 1));
        let human = render_human(std::slice::from_ref(&diag), Some("p.sdp"));
        assert_eq!(
            human,
            "p.sdp:2:1: warning[SD02]: cost in loop\n  hint: bound the loop\n"
        );
        let json = render_json_lines(std::slice::from_ref(&diag));
        assert_eq!(
            json,
            "{\"code\":\"SD02\",\"severity\":\"warning\",\"start\":9,\"end\":10,\"line\":2,\"col\":1,\"message\":\"cost in loop\",\"hint\":\"bound the loop\"}\n"
        );
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
