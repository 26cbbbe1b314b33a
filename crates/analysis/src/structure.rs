//! SD04 — structural checks: use of possibly-undefined or havoc'd
//! variables, unreachable statements after `return`, and the source-stage
//! rule of [`Function::validate_source`] (no hat variable in program text,
//! no `assert`, `assume` or `havoc`), which the typechecker checks before
//! typing.
//!
//! Definedness is a *must* analysis: a variable counts as defined on a
//! path join only when every branch defines it, and a loop body starts
//! from the definitions available at loop entry (iteration one is the
//! witness for use-before-def). Hat (distance) variables are
//! instrumentation and always considered available, as is a sample
//! variable inside its own annotation (the annotation denotes the
//! sampled value).

use std::collections::BTreeSet;

use shadowdp_syntax::{Cmd, CmdKind, Expr, Function, Name, Span};

use crate::diag::{Code, Diagnostic, Severity};

#[derive(Clone, Default)]
struct State {
    /// Plain variables definitely assigned on every path here.
    defined: BTreeSet<String>,
    /// Plain variables whose latest definition is a `havoc`.
    havocked: BTreeSet<String>,
}

impl State {
    fn join(&self, other: &State) -> State {
        State {
            defined: self.defined.intersection(&other.defined).cloned().collect(),
            havocked: self.havocked.union(&other.havocked).cloned().collect(),
        }
    }

    fn define(&mut self, n: &Name) {
        if !n.is_hat() {
            self.defined.insert(n.base.clone());
            self.havocked.remove(&n.base);
        }
    }
}

struct StructWalker<'a> {
    src: &'a str,
    diags: Vec<Diagnostic>,
}

impl StructWalker<'_> {
    /// Flags reads of undefined or havoc'd variables in `e`, once per
    /// occurrence (`canonicalize` drops the repeats).
    /// `allow` is the sample's own variable inside its annotations.
    fn check_reads(&mut self, e: &Expr, st: &State, span: Span, allow: Option<&Name>) {
        e.any_subexpr(&mut |x| {
            let Expr::Var(n) = x else { return false };
            if n.is_hat() || allow == Some(n) {
                return false;
            }
            if st.havocked.contains(&n.base) {
                self.diags.push(
                    Diagnostic::new(
                        Code::Sd04,
                        Severity::Error,
                        span,
                        self.src,
                        format!("use of havoc'd variable `{}`", n.base),
                    )
                    .with_hint("reassign the variable before reading it"),
                );
            } else if !st.defined.contains(&n.base) {
                self.diags.push(
                    Diagnostic::new(
                        Code::Sd04,
                        Severity::Error,
                        span,
                        self.src,
                        format!("use of possibly-undefined variable `{}`", n.base),
                    )
                    .with_hint("assign the variable on every path before this point"),
                );
            }
            false
        });
    }

    /// Walks a block; returns `false` if the block definitely returns
    /// (so following statements are unreachable).
    fn walk(&mut self, cmds: &[Cmd], st: &mut State) -> bool {
        let mut iter = cmds.iter();
        while let Some(c) = iter.next() {
            match &c.kind {
                CmdKind::Skip => {}
                CmdKind::Assign(n, e) => {
                    self.check_reads(e, st, c.span, None);
                    st.define(n);
                }
                CmdKind::Sample {
                    var,
                    dist,
                    selector,
                    align,
                } => {
                    self.check_reads(dist.scale(), st, c.span, Some(var));
                    for g in selector.guards() {
                        self.check_reads(g, st, c.span, Some(var));
                    }
                    self.check_reads(align, st, c.span, Some(var));
                    st.define(var);
                }
                CmdKind::Havoc(n) => {
                    if !n.is_hat() {
                        st.defined.insert(n.base.clone());
                        st.havocked.insert(n.base.clone());
                    }
                }
                CmdKind::Assert(e) | CmdKind::Assume(e) => {
                    self.check_reads(e, st, c.span, None);
                }
                CmdKind::If(cond, then_cmds, else_cmds) => {
                    self.check_reads(cond, st, c.span, None);
                    let mut then_st = st.clone();
                    let then_falls = self.walk(then_cmds, &mut then_st);
                    let mut else_st = st.clone();
                    let else_falls = self.walk(else_cmds, &mut else_st);
                    match (then_falls, else_falls) {
                        (true, true) => *st = then_st.join(&else_st),
                        (true, false) => *st = then_st,
                        (false, true) => *st = else_st,
                        (false, false) => return self.unreachable_after(iter.next(), "return"),
                    }
                }
                CmdKind::While { cond, body, .. } => {
                    self.check_reads(cond, st, c.span, None);
                    // Iteration one starts from the entry definitions;
                    // the loop may run zero times, so the exit state is
                    // the entry state.
                    let mut body_st = st.clone();
                    self.walk(body, &mut body_st);
                }
                CmdKind::Return(e) => {
                    // The parser synthesizes a final `return out` with a
                    // zero span; a missing-output finding anchors there
                    // at 1:1, which is the best location available.
                    self.check_reads(e, st, c.span, None);
                    return self.unreachable_after(iter.next(), "return");
                }
            }
        }
        true
    }

    /// Flags the first statement after a definite `return`; reports
    /// `false` (does not fall through) either way.
    fn unreachable_after(&mut self, next: Option<&Cmd>, what: &str) -> bool {
        if let Some(c) = next {
            if c.span != Span::ZERO {
                self.diags.push(
                    Diagnostic::new(
                        Code::Sd04,
                        Severity::Warning,
                        c.span,
                        self.src,
                        format!("unreachable statement after `{what}`"),
                    )
                    .with_hint("delete the dead code"),
                );
            }
        }
        false
    }
}

/// Runs the SD04 checks.
pub(crate) fn analyze(f: &Function, src: &str) -> Vec<Diagnostic> {
    let mut st = State::default();
    for p in &f.params {
        st.defined.insert(p.name.clone());
    }
    let mut w = StructWalker {
        src,
        diags: Vec::new(),
    };
    w.walk(&f.body, &mut st);
    if let Err((span, message)) = f.validate_source() {
        w.diags.push(Diagnostic::new(
            Code::Sd04,
            Severity::Error,
            span,
            src,
            message,
        ));
    }
    w.diags
}
