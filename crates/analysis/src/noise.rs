//! SD03 — unused-noise and shadow-divergence pre-checks.
//!
//! 1. **Unused noise.** A sampled variable that is never read outside
//!    its own sampling command cannot influence the output: the
//!    privacy argument it was meant to support is vacuous (the classic
//!    "sampled the threshold noise, forgot to add it" mistake).
//! 2. **Trivial divergence.** A branch whose condition mixes sensitive
//!    data with a noise variable whose alignment is literally `0` (and
//!    whose selector never switches to the shadow execution): the two
//!    executions see identical noise over differing data, so the
//!    aligned run can take the other branch — the instrumented assert
//!    is refutable before any solver runs.

use std::collections::BTreeMap;

use shadowdp_syntax::{preorder, Cmd, CmdKind, Function, Name};

use crate::diag::{Code, Diagnostic, Severity};
use crate::taint::Class;

/// Per-sample facts gathered in one sweep.
struct SampleSite {
    var: Name,
    span: shadowdp_syntax::Span,
    zero_aligned: bool,
}

/// Whether `name` is read in any expression of any command other than
/// the sample at `site_span` (a sample's own scale/selector/alignment
/// annotations reference the sampled value and do not count as uses).
fn is_read(cmds: &[Cmd], name: &Name, site_span: shadowdp_syntax::Span) -> bool {
    preorder(cmds).any(|c| {
        if c.span == site_span && matches!(&c.kind, CmdKind::Sample { var, .. } if var == name) {
            return false;
        }
        match &c.kind {
            CmdKind::Skip | CmdKind::Havoc(_) => false,
            CmdKind::Assign(_, e)
            | CmdKind::Return(e)
            | CmdKind::Assert(e)
            | CmdKind::Assume(e)
            | CmdKind::If(e, ..) => e.mentions(name),
            CmdKind::Sample {
                dist,
                selector,
                align,
                ..
            } => {
                dist.scale().mentions(name)
                    || align.mentions(name)
                    || selector_mentions(selector, name)
            }
            CmdKind::While {
                cond, invariants, ..
            } => cond.mentions(name) || invariants.iter().any(|inv| inv.mentions(name)),
        }
    })
}

fn selector_mentions(s: &shadowdp_syntax::Selector, name: &Name) -> bool {
    match s {
        shadowdp_syntax::Selector::Aligned | shadowdp_syntax::Selector::Shadow => false,
        shadowdp_syntax::Selector::Cond(e, a, b) => {
            e.mentions(name) || selector_mentions(a, name) || selector_mentions(b, name)
        }
    }
}

/// Emits the divergence check over branch/loop conditions.
fn check_divergence(
    cmds: &[Cmd],
    src: &str,
    taint: &BTreeMap<String, Class>,
    zero_aligned: &[Name],
    diags: &mut Vec<Diagnostic>,
) {
    for c in preorder(cmds) {
        let (CmdKind::If(cond, ..) | CmdKind::While { cond, .. }) = &c.kind else {
            continue;
        };
        let mentions_tainted = cond.vars().iter().any(|n| {
            !n.is_hat() && taint.get(&n.base).copied().unwrap_or(Class::Public) == Class::Tainted
        });
        if !mentions_tainted {
            continue;
        }
        if let Some(nv) = zero_aligned.iter().find(|n| cond.mentions(n)) {
            diags.push(
                Diagnostic::new(
                    Code::Sd03,
                    Severity::Warning,
                    c.span,
                    src,
                    format!(
                        "branch on sensitive data with zero-aligned noise `{}`: the \
                         aligned and shadow executions trivially diverge here",
                        nv.base
                    ),
                )
                .with_hint(
                    "give the sample a nonzero alignment (or a shadow selector) so \
                     both executions take the same branch",
                ),
            );
        }
    }
}

/// Runs the SD03 checks.
pub(crate) fn analyze(f: &Function, src: &str, taint: &BTreeMap<String, Class>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let sites: Vec<SampleSite> = preorder(&f.body)
        .filter_map(|c| match &c.kind {
            CmdKind::Sample {
                var,
                selector,
                align,
                ..
            } => Some(SampleSite {
                var: var.clone(),
                span: c.span,
                zero_aligned: align.is_zero_lit() && !selector.uses_shadow(),
            }),
            _ => None,
        })
        .collect();
    for site in &sites {
        if !is_read(&f.body, &site.var, site.span) {
            diags.push(
                Diagnostic::new(
                    Code::Sd03,
                    Severity::Warning,
                    site.span,
                    src,
                    format!(
                        "noise `{}` is sampled but never used: it cannot influence the output",
                        site.var.base
                    ),
                )
                .with_hint("add the sample to the released quantity, or delete it"),
            );
        }
    }
    let zero_aligned: Vec<Name> = sites
        .iter()
        .filter(|s| s.zero_aligned)
        .map(|s| s.var.clone())
        .collect();
    if !zero_aligned.is_empty() {
        check_divergence(&f.body, src, taint, &zero_aligned, &mut diags);
    }
    diags
}
