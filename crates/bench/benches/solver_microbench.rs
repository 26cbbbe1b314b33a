//! Microbenchmarks pinning the hash-consed solver data layer:
//!
//! - `construction/*` — smart-constructor throughput against the interning
//!   arena (all-hit after the first build: no tree allocation, no deep
//!   hashing);
//! - `normalize/*` — normalization alone: the query's `hyps ∧ ¬goal`
//!   into negation normal form with linear atoms, no search (the whole
//!   uncached query is `repeated-query/uncached`);
//! - `repeated-query/*` — the same `prove` asked again and again, with the
//!   memo table off vs. on. The memoized path must be ≥ 2× the uncached
//!   throughput (it is orders of magnitude in practice — a `u32`-keyed hash
//!   lookup vs. a full solve). `memoized` proves its goal, so its entry
//!   carries no model; `memoized-refuted` asks a refutable variant whose
//!   countermodel binds six variables, so each hit hands out a
//!   model — shared with the memo entry, not copied (reported, not
//!   gated); `uncached-sat-verdict` asks that refutable variant through
//!   `entails` with the memo off, so each solve answers `Sat` from its
//!   live saturation and builds no model (reported, not gated);
//! - `trail/*` — the incremental search core: a fresh solve over a
//!   64-level disjunction chain (pure decision-level open/conflict/flip
//!   mechanics) and the Houdini-shaped push/query/pop assumption-frame
//!   workload; plus the machine-independent **saturation reuse rate**
//!   published into the `CRITERION_JSON` dump (a percentage in the
//!   `mean_ns` field) and asserted ≥ 50 % both here and in
//!   `bench_compare`'s invariant gate;
//! - `houdini/*` — end-to-end inductive verification of a counter loop
//!   with a per-round-replaying Houdini fixed point, memoized vs. not;
//! - `houdini-rekey/*` — the per-candidate assumption keying on a
//!   drop-inducing Table 1 loop (Partial Sum): a cold verification timing,
//!   plus the machine-independent **post-drop consecution hit rate**
//!   published into the `CRITERION_JSON` dump (as a percentage in the
//!   `mean_ns` field) and asserted ≥ 50 % both here and in
//!   `bench_compare`'s invariant gate.

use std::sync::{Arc, Mutex};

use criterion::{criterion_group, criterion_main, Criterion};
use shadowdp_solver::normalize::Normalizer;
use shadowdp_solver::{with_shard, Solver, Term};
use shadowdp_syntax::parse_function;
use shadowdp_typing::check_function;
use shadowdp_verify::{inductive, lower_to_target, InductiveOptions, RoundProfileSink, VerifyMode};

/// A NoisyMax-shaped verification condition: Ψ bounds, branch guard, and
/// the (T-ODot) stability goal.
fn noisy_max_vc() -> (Vec<Term>, Term) {
    let q = Term::real_var("q");
    let hq = Term::real_var("hq");
    let eta = Term::real_var("eta");
    let bq = Term::real_var("bq");
    let sbq = Term::real_var("sbq");
    let veps = Term::real_var("v_eps");
    let n = Term::real_var("NN");
    let i = Term::real_var("i");
    let hyps = vec![
        hq.ge(Term::int(-1)),
        hq.le(Term::int(1)),
        sbq.le(Term::int(1)),
        sbq.ge(Term::int(-1)),
        q.add(eta).gt(bq),
        veps.ge(Term::int(0)),
        veps.le(Term::int(2).mul(n)),
        i.ge(Term::int(0)),
        i.le(n),
    ];
    let goal = q.add(hq).add(eta).add(Term::int(2)).gt(bq.add(sbq));
    (hyps, goal)
}

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_micro/construction");
    // Build the whole VC from leaves each iteration; after the first pass
    // every intern call is a dedup hit, so this measures the allocation-free
    // steady state the Houdini engine sees.
    group.bench_function("noisy-max-vc", |b| {
        b.iter(|| {
            let (hyps, goal) = noisy_max_vc();
            std::hint::black_box((hyps, goal))
        });
    });
    group.bench_function("conj-64-atoms", |b| {
        b.iter(|| {
            let atoms = (0..64).map(|k| Term::real_var(format!("x{k}")).le(Term::int(k)));
            std::hint::black_box(Term::conj(atoms))
        });
    });
    group.finish();
}

fn bench_normalize(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_micro/normalize");
    let (hyps, goal) = noisy_max_vc();
    let query = Term::conj(hyps.into_iter().chain([goal.not()]));
    group.bench_function("noisy-max-vc-uncached", |b| {
        b.iter(|| {
            with_shard(|arena| {
                std::hint::black_box(Normalizer::new().normalize(arena, query, true))
            })
        });
    });
    group.finish();
}

fn bench_repeated_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_micro/repeated-query");
    let (hyps, goal) = noisy_max_vc();

    group.bench_function("uncached", |b| {
        let solver = Solver::without_memo();
        b.iter(|| assert!(solver.prove(&hyps, &goal).is_proved()));
    });

    // The hypotheses entail `goal`, so they refute its negation; its
    // countermodel binds six of the eight variables.
    let refutable = goal.not();
    // Solved afresh each time for its verdict alone: no final
    // elimination, no model.
    group.bench_function("uncached-sat-verdict", |b| {
        let solver = Solver::without_memo();
        b.iter(|| assert!(!solver.entails(&hyps, &refutable)));
        assert_eq!(solver.stats().resaturations, 0);
    });

    group.bench_function("memoized", |b| {
        let solver = Solver::new();
        // Warm the single entry, then measure steady-state hits.
        assert!(solver.prove(&hyps, &goal).is_proved());
        b.iter(|| assert!(solver.prove(&hyps, &goal).is_proved()));
    });

    // Each hit hands out the memo entry's countermodel.
    group.bench_function("memoized-refuted", |b| {
        let solver = Solver::new();
        let refuted = solver.prove(&hyps, &refutable);
        assert_eq!(refuted.counterexample().map(|m| m.reals().len()), Some(6));
        b.iter(|| assert!(!solver.prove(&hyps, &refutable).is_proved()));
    });

    group.finish();
}

/// A 64-level disjunction chain in the stack-soak shape: every level's
/// first disjunct contradicts one shared top-level bound, so a fresh
/// solve opens a decision level, conflicts, flips, and commits — 64
/// times. This is the trail engine's bread and butter (open/undo/flip),
/// with the single shared variable keeping theory cost O(1) so the
/// timing is pure search mechanics.
fn disjunction_chain(levels: usize) -> Term {
    let x = Term::real_var("chain_x");
    let mut parts: Vec<Term> = Vec::with_capacity(levels + 1);
    for i in 0..levels {
        let dead_end = x.le(Term::int(0));
        let escape = Term::bool_var(format!("chain_q{i}"));
        parts.push(dead_end.or(escape));
    }
    // The bound goes last: `pending` is a LIFO, so it saturates before
    // any decision level opens and each conflict flips locally.
    parts.push(Term::int(1).le(x));
    Term::conj(parts)
}

/// Runs the Houdini-shaped incremental workload once on `solver`: the
/// base frame (Ψ bounds and guards) pushed once, then each candidate
/// pushed, queried, and popped as a narrow delta on top of it.
fn push_pop_houdini_pass(solver: &Solver, hyps: &[Term], candidates: &[Term], goal: &Term) {
    solver.push_assumptions(hyps);
    for cand in candidates {
        solver.push_assumptions(std::slice::from_ref(cand));
        assert!(solver.prove_pushed(goal).is_proved());
        solver.pop_assumptions();
    }
    solver.pop_assumptions();
}

fn bench_trail(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_micro/trail");

    // A fresh solve dominated by decision levels: the cost of opening,
    // conflicting, and flipping 64 levels on the trail.
    let chain = disjunction_chain(64);
    group.bench_function("fresh-solve", |b| {
        let solver = Solver::without_memo();
        b.iter(|| assert!(solver.check(std::slice::from_ref(&chain)).is_sat()));
    });

    // The Houdini consecution shape: base assumptions pushed once per
    // round, each candidate a push/query/pop delta. Memo off, so every
    // iteration pays the real incremental search rather than a lookup.
    let (hyps, goal) = noisy_max_vc();
    let hq = Term::real_var("hq");
    let sbq = Term::real_var("sbq");
    let veps = Term::real_var("v_eps");
    let candidates = vec![
        hq.ge(Term::int(-1)),
        sbq.le(Term::int(1)),
        veps.ge(Term::int(0)),
        hq.add(sbq).le(Term::int(2)),
    ];
    group.bench_function("push-pop-houdini", |b| {
        let solver = Solver::without_memo();
        b.iter(|| push_pop_houdini_pass(&solver, &hyps, &candidates, &goal));
    });
    group.finish();

    // The machine-independent half, published the same way as the
    // houdini-rekey hit rate: the fraction of constraint pushes answered
    // by extending live saturation state instead of recomputing it from
    // scratch, over one pass of the incremental workload above. Under
    // the trail core almost every atom lands on a non-empty tableau, so
    // this sits near 90 %; a regression back to clone-and-resaturate
    // per disjunct collapses it toward 0 on any hardware.
    const RATE_ID: &str = "solver_micro/trail/saturation-reuse-pct";
    if !c.selects(RATE_ID) {
        return;
    }
    let solver = Solver::without_memo();
    push_pop_houdini_pass(&solver, &hyps, &candidates, &goal);
    assert!(solver.check(std::slice::from_ref(&chain)).is_sat());
    let stats = solver.stats();
    let total = stats.saturation_reuses + stats.resaturations;
    assert!(total > 0, "the trail workload must saturate something");
    let rate_pct = 100.0 * stats.saturation_reuses as f64 / total as f64;
    println!(
        "{RATE_ID}    {rate_pct:.1} % \
         ({}/{total} constraint pushes extended live saturation state)",
        stats.saturation_reuses
    );
    assert!(
        rate_pct >= 50.0,
        "saturation reuse rate {rate_pct:.1}% fell below 50% \
         ({}/{total}): the incremental tableau stopped paying off",
        stats.saturation_reuses
    );
    criterion::append_json_row(RATE_ID, rate_pct, 0.0, 1);
}

const COUNTER_LOOP: &str = "function Loop(eps, NN, size: num(0,0), q: list num(*,*))
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

fn bench_houdini(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_micro/houdini");
    group.sample_size(10);
    let f = parse_function(COUNTER_LOOP).unwrap();
    let t = check_function(&f).expect("type checks");
    let info = lower_to_target(&t.function, VerifyMode::Scaled).expect("lowers");
    let opts = InductiveOptions::default();

    group.bench_function("counter-loop-uncached", |b| {
        b.iter(|| {
            let solver = Solver::without_memo();
            let out = inductive::prove(&info, &opts, &solver);
            assert!(matches!(
                out,
                shadowdp_verify::InductiveOutcome::Proved { .. }
            ));
        });
    });

    group.bench_function("counter-loop-memoized", |b| {
        b.iter(|| {
            // Fresh solver per proof: all hits are *intra-run* — the
            // consecution rounds reusing each other's queries.
            let solver = Solver::new();
            let out = inductive::prove(&info, &opts, &solver);
            assert!(matches!(
                out,
                shadowdp_verify::InductiveOutcome::Proved { .. }
            ));
        });
    });

    group.finish();
}

fn bench_houdini_rekey(c: &mut Criterion) {
    // Partial Sum's Houdini run drops candidates before stabilizing, so it
    // exercises exactly the path the per-candidate assumption keying
    // exists for: the rounds *after* a drop re-ask every surviving
    // candidate's consecution obligation, and the narrow
    // (sibling-independent) keys answer most of them from the memo.
    let alg = shadowdp::corpus::partial_sum();
    let f = parse_function(alg.source).unwrap();
    let t = check_function(&f).expect("type checks");
    let info = lower_to_target(&t.function, VerifyMode::Scaled).expect("lowers");

    let mut group = c.benchmark_group("solver_micro/houdini-rekey");
    group.sample_size(10);
    // Cold end-to-end proof, fresh solver and memo per iteration: all
    // reuse is intra-run (later rounds hitting earlier rounds' entries).
    group.bench_function("partial-sum-cold", |b| {
        b.iter(|| {
            let solver = Solver::new();
            let out = inductive::prove(&info, &InductiveOptions::default(), &solver);
            assert!(matches!(
                out,
                shadowdp_verify::InductiveOutcome::Proved { .. }
            ));
        });
    });
    group.finish();

    // The machine-independent half: measure the post-drop consecution hit
    // rate once with the profiling sink and publish it into the
    // CRITERION_JSON dump — as a *percentage* carried in the `mean_ns`
    // field — so `bench_compare` can gate it on any hardware. Asserted
    // here too, so a plain `cargo bench` (or smoke run) fails loudly if
    // the keying stops paying off.
    const RATE_ID: &str = "solver_micro/houdini-rekey/post-drop-hit-rate-pct";
    if !c.selects(RATE_ID) {
        return;
    }
    let sink: RoundProfileSink = Arc::new(Mutex::new(Vec::new()));
    let solver = Solver::new();
    let out = inductive::prove(
        &info,
        &InductiveOptions {
            profile: Some(sink.clone()),
            ..InductiveOptions::default()
        },
        &solver,
    );
    assert!(matches!(
        out,
        shadowdp_verify::InductiveOutcome::Proved { .. }
    ));
    let rounds = sink.lock().unwrap();
    let (queries, hits) = rounds
        .iter()
        .filter(|r| r.after_drop)
        .fold((0u64, 0u64), |(q, h), r| (q + r.queries, h + r.hits));
    assert!(
        queries > 0,
        "Partial Sum stopped dropping candidates; houdini-rekey needs a \
         drop-inducing benchmark"
    );
    let rate_pct = 100.0 * hits as f64 / queries as f64;
    println!(
        "{RATE_ID}    {rate_pct:.1} % \
         ({hits}/{queries} post-drop consecution queries from the memo)"
    );
    assert!(
        rate_pct >= 50.0,
        "post-drop consecution hit rate {rate_pct:.1}% fell below 50% \
         ({hits}/{queries}): per-candidate assumption keying stopped hitting"
    );
    criterion::append_json_row(RATE_ID, rate_pct, 0.0, 1);
}

criterion_group!(
    benches,
    bench_construction,
    bench_normalize,
    bench_repeated_query,
    bench_trail,
    bench_houdini,
    bench_houdini_rekey
);
criterion_main!(benches);
