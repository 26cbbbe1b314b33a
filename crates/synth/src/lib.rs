//! Annotation synthesis for ShadowDP — the paper's §6.4 proof-automation
//! sketch, realized.
//!
//! Given a program whose sampling commands carry *no* useful annotations,
//! enumerate the heuristic candidate space:
//!
//! - **selectors**: `◦`, `†`, and `Ω ? † : ◦` / `Ω ? ◦ : †` for each branch
//!   condition `Ω` in the program;
//! - **alignments**: small constants (`0`, `1`, `2`, `-1`), exact query
//!   differences (`−^q[i]`, `1 − ^q[i]`), negated tracked sums (`−^x`),
//!   and their branch-conditioned forms (`Ω ? d : 0`);
//!
//! and run the full check-and-verify pipeline on each candidate vector
//! until one verifies. This doubles as the reproduction's stand-in for the
//! *coupling-proof synthesis* baseline of Albarghouthi & Hsu (\[2\] in the
//! paper): that system also *searches* for a proof rather than checking a
//! pinned one, which is why the paper's Table 1 shows it minutes-slow where
//! ShadowDP is seconds-fast. The search multiplies the per-check cost by
//! the size of the candidate space, reproducing that gap's shape.
//!
//! # Examples
//!
//! ```
//! use shadowdp_syntax::parse_function;
//! use shadowdp_synth::{synthesize, SynthOptions};
//!
//! // The Laplace mechanism with a placeholder annotation.
//! let f = parse_function(
//!     "function AddNoise(eps: num(0,0), x: num(1,1)) returns out: num(0,0)
//!      precondition eps > 0
//!      {
//!          eta := lap(1 / eps) { select: aligned, align: 0 };
//!          out := x + eta;
//!      }",
//! ).unwrap();
//! let result = synthesize(&f, &SynthOptions::default());
//! let found = result.annotations.expect("synthesis finds -1");
//! assert_eq!(found.len(), 1);
//! ```

use std::time::{Duration, Instant};

use shadowdp_syntax::{
    preorder, pretty_expr, Cmd, CmdKind, Expr, Function, Name, NameKind, Selector, Ty,
};
use shadowdp_typing::check_function;
use shadowdp_verify::{verify, Engine, Options, Verdict};

/// Synthesis options.
#[derive(Clone, Debug)]
pub struct SynthOptions {
    /// Cap on candidate vectors tried.
    pub max_attempts: usize,
    /// Verification options used to validate a candidate (defaults to the
    /// inductive engine only — refutation is not needed during search).
    pub verify: Options,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            max_attempts: 4096,
            verify: Options {
                engine: Engine::Inductive,
                ..Options::default()
            },
        }
    }
}

/// Result of a synthesis run.
#[derive(Clone, Debug)]
pub struct SynthResult {
    /// The winning `(selector, alignment)` per sampling site (in source
    /// order), pretty-printed, if any candidate verified.
    pub annotations: Option<Vec<(String, String)>>,
    /// The fully annotated, verified function (when found).
    pub function: Option<Function>,
    /// Number of candidate vectors checked.
    pub attempts: usize,
    /// Total search time.
    pub elapsed: Duration,
}

/// One candidate annotation for a site.
#[derive(Clone, Debug)]
struct Candidate {
    selector: Selector,
    align: Expr,
}

/// Enumerates the §6.4 candidate space and searches for a verifying
/// annotation vector.
pub fn synthesize(f: &Function, opts: &SynthOptions) -> SynthResult {
    let start = Instant::now();
    let sites = sample_sites(&f.body);
    let site_candidates: Vec<Vec<Candidate>> =
        sites.iter().map(|site| candidates_for(f, site)).collect();

    let mut attempts = 0usize;
    let mut indices = vec![0usize; sites.len()];
    loop {
        if attempts >= opts.max_attempts {
            break;
        }
        attempts += 1;

        // Build the candidate function.
        let chosen: Vec<&Candidate> = indices
            .iter()
            .zip(&site_candidates)
            .map(|(i, cs)| &cs[*i])
            .collect();
        let candidate_fn = apply_annotations(f, &chosen);

        if let Ok(t) = check_function(&candidate_fn) {
            let report = verify(&t.function, &opts.verify);
            if matches!(report.verdict, Verdict::Proved) {
                let annotations = chosen
                    .iter()
                    .map(|c| (pretty_selector(&c.selector), pretty_expr(&c.align)))
                    .collect();
                return SynthResult {
                    annotations: Some(annotations),
                    function: Some(candidate_fn),
                    attempts,
                    elapsed: start.elapsed(),
                };
            }
        }

        // Advance the odometer.
        let mut k = 0;
        loop {
            if k == indices.len() {
                return SynthResult {
                    annotations: None,
                    function: None,
                    attempts,
                    elapsed: start.elapsed(),
                };
            }
            indices[k] += 1;
            if indices[k] < site_candidates[k].len() {
                break;
            }
            indices[k] = 0;
            k += 1;
        }
    }
    SynthResult {
        annotations: None,
        function: None,
        attempts,
        elapsed: start.elapsed(),
    }
}

/// A sampling site: the variable sampled and the branch condition (if any)
/// that syntactically follows it.
#[derive(Clone, Debug)]
struct Site {
    var: Name,
    /// The `Ω` of §6.4: the nearest `if` condition after the sample in the
    /// same block.
    omega: Option<Expr>,
}

fn sample_sites(cmds: &[Cmd]) -> Vec<Site> {
    let mut out = Vec::new();
    fn walk(cmds: &[Cmd], out: &mut Vec<Site>) {
        for (i, c) in cmds.iter().enumerate() {
            match &c.kind {
                CmdKind::Sample { var, .. } => {
                    let omega = cmds[i + 1..].iter().find_map(|n| match &n.kind {
                        CmdKind::If(cond, _, _) => Some(cond.clone()),
                        _ => None,
                    });
                    out.push(Site {
                        var: var.clone(),
                        omega,
                    });
                }
                CmdKind::If(_, a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                CmdKind::While { body, .. } => walk(body, out),
                _ => {}
            }
        }
    }
    walk(cmds, &mut out);
    out
}

/// The heuristic candidate pool for one site.
fn candidates_for(f: &Function, site: &Site) -> Vec<Candidate> {
    // Alignment building blocks.
    let mut aligns: Vec<Expr> = vec![Expr::int(0), Expr::int(1), Expr::int(2), Expr::int(-1)];
    // Exact query differences: −^q[i], 1 − ^q[i] for indexed list reads in
    // the function; negated tracked scalars −^x for annotation-style sums.
    for (list, idx) in indexed_lists(&f.body) {
        let hat = Expr::Index(
            Box::new(Expr::Var(Name {
                base: list.clone(),
                kind: NameKind::HatAligned,
            })),
            Box::new(idx.clone()),
        );
        aligns.push(Expr::int(0).sub(hat.clone()));
        aligns.push(Expr::int(1).sub(hat.clone()));
        // −^sum − ^q[i] (the Smart Sum shape) for every tracked scalar.
        for scalar in summed_scalars(&f.body) {
            let hs = Expr::Var(Name {
                base: scalar.clone(),
                kind: NameKind::HatAligned,
            });
            aligns.push(Expr::int(0).sub(hs).sub(hat.clone()));
        }
    }
    for scalar in summed_scalars(&f.body) {
        aligns.push(Expr::int(0).sub(Expr::Var(Name {
            base: scalar,
            kind: NameKind::HatAligned,
        })));
    }

    // Branch-conditioned forms Ω ? d : 0 (d non-zero).
    if let Some(omega) = &site.omega {
        let conditioned: Vec<Expr> = aligns
            .iter()
            .filter(|d| !d.is_zero_lit())
            .map(|d| {
                Expr::Ternary(
                    Box::new(omega.clone()),
                    Box::new(d.clone()),
                    Box::new(Expr::int(0)),
                )
            })
            .collect();
        aligns.extend(conditioned);
    }

    // Selector pool.
    let mut selectors = vec![Selector::Aligned];
    if let Some(omega) = &site.omega {
        selectors.push(Selector::Cond(
            omega.clone(),
            Box::new(Selector::Shadow),
            Box::new(Selector::Aligned),
        ));
        selectors.push(Selector::Cond(
            omega.clone(),
            Box::new(Selector::Aligned),
            Box::new(Selector::Shadow),
        ));
    }
    selectors.push(Selector::Shadow);

    let _ = &site.var;
    let mut out = Vec::new();
    for s in &selectors {
        for a in &aligns {
            out.push(Candidate {
                selector: s.clone(),
                align: a.clone(),
            });
        }
    }
    out
}

/// Lists indexed in the body, with the index expression (deduplicated).
fn indexed_lists(cmds: &[Cmd]) -> Vec<(String, Expr)> {
    let mut out: Vec<(String, Expr)> = Vec::new();
    fn scan_expr(e: &Expr, out: &mut Vec<(String, Expr)>) {
        match e {
            Expr::Index(base, idx) => {
                if let Expr::Var(n) = &**base {
                    if n.kind == NameKind::Plain
                        && !out
                            .iter()
                            .any(|(l, i)| *l == n.base && pretty_expr(i) == pretty_expr(idx))
                    {
                        out.push((n.base.clone(), (**idx).clone()));
                    }
                }
                scan_expr(idx, out);
            }
            Expr::Unary(_, a) => scan_expr(a, out),
            Expr::Binary(_, a, b) | Expr::Cons(a, b) => {
                scan_expr(a, out);
                scan_expr(b, out);
            }
            Expr::Ternary(a, b, c) => {
                scan_expr(a, out);
                scan_expr(b, out);
                scan_expr(c, out);
            }
            _ => {}
        }
    }
    for c in preorder(cmds) {
        if let CmdKind::Assign(_, e)
        | CmdKind::Return(e)
        | CmdKind::If(e, ..)
        | CmdKind::While { cond: e, .. } = &c.kind
        {
            scan_expr(e, &mut out);
        }
    }
    out
}

/// Scalars accumulated with `x := x + <something indexed>` — candidates for
/// tracked-sum alignments.
fn summed_scalars(cmds: &[Cmd]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for c in preorder(cmds) {
        if let CmdKind::Assign(n, Expr::Binary(shadowdp_syntax::BinOp::Add, a, _)) = &c.kind {
            if n.kind == NameKind::Plain
                && matches!(&**a, Expr::Var(v) if v == n)
                && !out.contains(&n.base)
            {
                out.push(n.base.clone());
            }
        }
    }
    out
}

/// Rewrites the function with the chosen annotations (site order matches
/// [`sample_sites`]).
fn apply_annotations(f: &Function, chosen: &[&Candidate]) -> Function {
    let mut next = 0usize;
    fn rewrite(cmds: &[Cmd], chosen: &[&Candidate], next: &mut usize) -> Vec<Cmd> {
        cmds.iter()
            .map(|c| {
                let kind = match &c.kind {
                    CmdKind::Sample { var, dist, .. } => {
                        let cand = chosen[*next];
                        *next += 1;
                        CmdKind::Sample {
                            var: var.clone(),
                            dist: dist.clone(),
                            selector: cand.selector.clone(),
                            align: cand.align.clone(),
                        }
                    }
                    CmdKind::If(g, a, b) => CmdKind::If(
                        g.clone(),
                        rewrite(a, chosen, next),
                        rewrite(b, chosen, next),
                    ),
                    CmdKind::While {
                        cond,
                        invariants,
                        body,
                    } => CmdKind::While {
                        cond: cond.clone(),
                        invariants: invariants.clone(),
                        body: rewrite(body, chosen, next),
                    },
                    other => other.clone(),
                };
                Cmd { kind, span: c.span }
            })
            .collect()
    }
    let body = rewrite(&f.body, chosen, &mut next);
    Function { body, ..f.clone() }
}

fn pretty_selector(s: &Selector) -> String {
    match s {
        Selector::Aligned => "aligned".into(),
        Selector::Shadow => "shadow".into(),
        Selector::Cond(c, a, b) => format!(
            "{} ? {} : {}",
            pretty_expr(c),
            pretty_selector(a),
            pretty_selector(b)
        ),
    }
}

/// Convenience: whether the function's declared parameter list contains a
/// list (used by harnesses to decide on BMC assumptions).
pub fn has_list_param(f: &Function) -> bool {
    f.params.iter().any(|p| matches!(p.ty, Ty::List(_)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowdp_syntax::parse_function;

    #[test]
    fn laplace_mechanism_annotation_is_found() {
        let f = parse_function(
            "function AddNoise(eps: num(0,0), x: num(1,1)) returns out: num(0,0)
             precondition eps > 0
             {
                 eta := lap(1 / eps) { select: aligned, align: 0 };
                 out := x + eta;
             }",
        )
        .unwrap();
        let r = synthesize(&f, &SynthOptions::default());
        let anns = r.annotations.expect("should find an annotation");
        assert_eq!(anns.len(), 1);
        assert_eq!(anns[0].0, "aligned");
        assert_eq!(anns[0].1, "-1");
        assert!(r.attempts > 1, "search should not guess first try");
    }

    #[test]
    fn unverifiable_program_exhausts_the_space() {
        // x is used twice with fresh noise on each use: the alignments must
        // sum to -2, which costs 2ε against an ε budget, and switching to
        // the shadow execution zeroes e1's alignment so the return distance
        // breaks. No candidate can win.
        let f = parse_function(
            "function Two(eps: num(0,0), x: num(1,1)) returns out: num(0,0)
             precondition eps > 0
             {
                 e1 := lap(1 / eps) { select: aligned, align: 0 };
                 e2 := lap(1 / eps) { select: aligned, align: 0 };
                 out := x + e1 + x + e2;
             }",
        )
        .unwrap();
        let r = synthesize(&f, &SynthOptions::default());
        assert!(
            r.annotations.is_none(),
            "found a bogus annotation: {:?}",
            r.annotations
        );
        assert!(r.attempts > 10, "space too small: {}", r.attempts);
    }

    #[test]
    fn site_discovery_finds_omega() {
        let f = parse_function(
            "function F(eps, size: num(0,0), q: list num(*,*))
             returns out: num(0,0)
             precondition eps > 0
             {
                 i := 0; out := 0;
                 while (i < size) {
                     eta := lap(2 / eps) { select: aligned, align: 0 };
                     if (q[i] + eta > out) { out := 0; }
                     i := i + 1;
                 }
             }",
        )
        .unwrap();
        let sites = sample_sites(&f.body);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].omega.is_some());
        let cands = candidates_for(&f, &sites[0]);
        // Selector pool includes the conditional selectors.
        assert!(cands.len() > 20);
    }

    #[test]
    fn summed_scalars_detected() {
        let f = parse_function(
            "function F(size: num(0,0), q: list num(*,*)) returns out: num(0,0)
             {
                 sum := 0; i := 0;
                 while (i < size) { sum := sum + q[i]; i := i + 1; }
                 out := 0;
             }",
        )
        .unwrap();
        let s = summed_scalars(&f.body);
        assert!(s.contains(&"sum".to_string()));
        // `i := i + 1` also matches the x := x + _ shape — acceptable noise
        // in a heuristic candidate generator.
    }
}
