//! Dead hat-variable elimination.
//!
//! The paper presents transformed programs "slightly simplified for
//! readability": bookkeeping assignments to distance variables nothing ever
//! reads (e.g. `~max` in Figure 1 — `max`'s shadow value is never consulted)
//! are omitted. This pass makes that simplification principled: a
//! flow-insensitive liveness fixed point over hat variables, keeping every
//! hat read by a *root* (assert, guard, sampling annotation, non-hat
//! assignment, return) and transitively by live hat assignments.

use std::collections::BTreeSet;

use shadowdp_syntax::{preorder, Cmd, CmdKind, Expr, Name, NameKind};

fn hat_reads(e: &Expr, out: &mut BTreeSet<Name>) {
    for v in e.vars() {
        if v.kind != NameKind::Plain {
            out.insert(v);
        }
    }
}

/// Collects (root reads, hat-assignment dependency edges).
fn collect(cmds: &[Cmd], roots: &mut BTreeSet<Name>, edges: &mut Vec<(Name, BTreeSet<Name>)>) {
    for c in preorder(cmds) {
        match &c.kind {
            CmdKind::Skip | CmdKind::Havoc(_) => {}
            CmdKind::Assign(lhs, rhs) => {
                if lhs.is_hat() {
                    let mut reads = BTreeSet::new();
                    hat_reads(rhs, &mut reads);
                    edges.push((lhs.clone(), reads));
                } else {
                    hat_reads(rhs, roots);
                }
            }
            CmdKind::Sample {
                dist,
                selector,
                align,
                ..
            } => {
                // Annotations flow into the verifier's cost updates.
                hat_reads(dist.scale(), roots);
                hat_reads(align, roots);
                for g in selector.guards() {
                    hat_reads(g, roots);
                }
            }
            CmdKind::If(cond, ..) => hat_reads(cond, roots),
            CmdKind::While {
                cond, invariants, ..
            } => {
                hat_reads(cond, roots);
                for inv in invariants {
                    hat_reads(inv, roots);
                }
            }
            CmdKind::Return(e) | CmdKind::Assert(e) | CmdKind::Assume(e) => hat_reads(e, roots),
        }
    }
}

fn remove_dead(cmds: &mut Vec<Cmd>, live: &BTreeSet<Name>) {
    cmds.retain_mut(|c| match &mut c.kind {
        CmdKind::Assign(lhs, _) if lhs.is_hat() => live.contains(lhs),
        CmdKind::If(_, a, b) => {
            remove_dead(a, live);
            remove_dead(b, live);
            true
        }
        CmdKind::While { body, .. } => {
            remove_dead(body, live);
            true
        }
        _ => true,
    });
}

/// Removes assignments to hat variables that are never (transitively) read
/// by anything that matters.
///
/// Input hat lists (`^q`, `~q`) are never assigned, so they are unaffected.
pub fn eliminate_dead_hats(cmds: &mut Vec<Cmd>) {
    let mut roots = BTreeSet::new();
    let mut edges = Vec::new();
    collect(cmds, &mut roots, &mut edges);

    // Fixed point: a hat assigned with live target keeps its reads alive.
    let mut live = roots;
    loop {
        let mut changed = false;
        for (lhs, reads) in &edges {
            if live.contains(lhs) {
                for r in reads {
                    if live.insert(r.clone()) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    remove_dead(cmds, &live);
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowdp_syntax::{parse_expr, Selector};

    fn assign(lhs: Name, rhs: &str) -> Cmd {
        Cmd::synth(CmdKind::Assign(lhs, parse_expr(rhs).unwrap()))
    }

    #[test]
    fn unread_hat_is_removed() {
        let max = Name::plain("max");
        let mut cmds = vec![assign(max.shadow_hat(), "0"), assign(max.clone(), "1")];
        eliminate_dead_hats(&mut cmds);
        assert_eq!(cmds.len(), 1);
        assert!(matches!(&cmds[0].kind, CmdKind::Assign(n, _) if !n.is_hat()));
    }

    #[test]
    fn hat_read_by_assert_is_kept() {
        let bq = Name::plain("bq");
        let mut cmds = vec![
            assign(bq.shadow_hat(), "0"),
            Cmd::synth(CmdKind::Assert(parse_expr("bq + ~bq > 0").unwrap())),
        ];
        eliminate_dead_hats(&mut cmds);
        assert_eq!(cmds.len(), 2);
    }

    #[test]
    fn transitive_liveness() {
        // ^a := 1; ^b := ^a; assert(^b > 0): both hats live.
        let a = Name::plain("a");
        let b = Name::plain("b");
        let mut cmds = vec![
            assign(a.aligned_hat(), "1"),
            assign(b.aligned_hat(), "^a"),
            Cmd::synth(CmdKind::Assert(parse_expr("^b > 0").unwrap())),
        ];
        eliminate_dead_hats(&mut cmds);
        assert_eq!(cmds.len(), 3);
    }

    #[test]
    fn self_referential_dead_chain_removed() {
        // ~m := 0; ~m := m + ~m - 1 with nothing reading ~m: both removed.
        let m = Name::plain("m");
        let mut cmds = vec![
            assign(m.shadow_hat(), "0"),
            assign(m.shadow_hat(), "m + ~m - 1"),
            assign(m.clone(), "1"),
        ];
        eliminate_dead_hats(&mut cmds);
        assert_eq!(cmds.len(), 1);
    }

    #[test]
    fn sampling_annotations_are_roots() {
        let eta = Name::plain("eta");
        let q = Name::plain("q");
        let mut cmds = vec![
            assign(q.aligned_hat(), "2"),
            Cmd::synth(CmdKind::Sample {
                var: eta,
                dist: shadowdp_syntax::RandExpr::Lap(parse_expr("2 / eps").unwrap()),
                selector: Selector::Aligned,
                align: parse_expr("^q").unwrap(),
            }),
        ];
        eliminate_dead_hats(&mut cmds);
        assert_eq!(cmds.len(), 2, "hat read by align annotation must stay");
    }

    #[test]
    fn nested_structures() {
        let bq = Name::plain("bq");
        let dead = Name::plain("dead");
        let mut cmds = vec![
            Cmd::synth(CmdKind::If(
                parse_expr("x > 0").unwrap(),
                vec![
                    assign(bq.aligned_hat(), "1"),
                    assign(dead.aligned_hat(), "2"),
                ],
                vec![],
            )),
            Cmd::synth(CmdKind::Return(parse_expr("^bq").unwrap())),
        ];
        eliminate_dead_hats(&mut cmds);
        match &cmds[0].kind {
            CmdKind::If(_, t, _) => assert_eq!(t.len(), 1),
            other => panic!("{other:?}"),
        }
    }
}
