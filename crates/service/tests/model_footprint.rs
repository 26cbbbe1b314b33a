//! What one solver model costs on the heap, pinned in requested bytes:
//! the `Layout` sizes the program asks the allocator for, which are the
//! same on every machine of one pointer width, unlike RSS.
//!
//! A model of k reals and no booleans costs exactly two allocations —
//! its name-sorted slice and its `Arc` — and at most 64 + 48·k bytes,
//! whether `Model::new` builds it or the store decoder reads it back.
//! Names are pointers into the solver's interner, so a model that copied
//! each name into its own allocation would fail both bounds. A `Sat`
//! entry with no model, which is what a verdict-only query leaves in the
//! memo, costs no model allocation at all.
//!
//! A counting global allocator wraps the system one. Only the thread
//! inside [`live`] counts, so the harness's own threads cannot skew a
//! reading.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;

use shadowdp_num::Rat;
use shadowdp_service::VerdictStore;
use shadowdp_solver::{Fingerprint, MemoEntry, Model, QueryMemo, Solver, Symbol, Term};

struct Counting;

thread_local! {
    /// Net live allocations and requested bytes since this thread
    /// started counting; `None` while it is not counting.
    static LIVE: Cell<Option<(i64, i64)>> = const { Cell::new(None) };
}

/// Adds `allocs` allocations and `bytes` bytes to this thread's count,
/// if it is counting.
fn tally(allocs: i64, bytes: i64) {
    LIVE.with(|live| {
        if let Some((a, b)) = live.get() {
            live.set(Some((a + allocs, b + bytes)));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(-1, -(layout.size() as i64));
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(0, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns what it made together with the allocations and
/// bytes still live from it: what holding that result costs.
fn live<T>(f: impl FnOnce() -> T) -> (T, i64, i64) {
    LIVE.with(|live| live.set(Some((0, 0))));
    let out = f();
    let (allocs, bytes) = LIVE.with(Cell::take).expect("counting");
    (out, allocs, bytes)
}

/// `k` reals over the interned names `v0`…, with values that differ per
/// `seed`.
fn reals(k: usize, seed: usize) -> Vec<(&'static str, Rat)> {
    (0..k)
        .map(|i| {
            let name = Symbol::interned(&format!("v{i}"));
            (name, Rat::new((seed * 31 + i) as i128 - 50, 7))
        })
        .collect()
}

/// A store file of `test`'s holding `MODELS` solver entries,
/// `entry(seed)` each. Every `tag` is five characters, so one test's files
/// have paths of one length and the loaded stores differ in their entries
/// only.
fn store_file(test: &str, tag: &str, entry: impl Fn(usize) -> MemoEntry) -> PathBuf {
    assert_eq!(tag.len(), 5);
    let path = std::env::temp_dir().join(format!(
        "shadowdp-footprint-{}-{test}-{tag}.bin",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let mut store = VerdictStore::load(&path);
    for seed in 0..MODELS {
        store.solver_put(Fingerprint(seed as u128 + 1), entry(seed));
    }
    store.flush().expect("store written");
    path
}

const MODELS: usize = 100;

#[test]
fn a_model_costs_its_slice_and_its_arc() {
    for k in [1usize, 3, 8] {
        let bound = 64 + 48 * k as i64;

        // Built by the constructor, from names interned beforehand.
        let input = reals(k, 0);
        let (model, allocs, bytes) =
            live(|| Arc::new(Model::new(input.to_vec(), Vec::new(), false)));
        assert_eq!(model.reals().len(), k);
        assert_eq!(allocs, 2, "k={k}: {allocs} allocations");
        assert!(bytes <= bound, "k={k}: {bytes} B > {bound} B");
        drop(model);

        // Decoded, averaged over a store of MODELS models: the load's
        // live heap minus that of a store of as many `Unsat` entries.
        let sat = store_file("model", &format!("sat{k:02}"), |seed| {
            MemoEntry::Model(Arc::new(Model::new(reals(k, seed), Vec::new(), false)))
        });
        let unsat = store_file("model", "unsat", |_| MemoEntry::Unsat);
        drop(VerdictStore::load(&sat)); // interns the names, warms statics
        let (with_models, sat_allocs, sat_bytes) = live(|| VerdictStore::load(&sat));
        let (without, unsat_allocs, unsat_bytes) = live(|| VerdictStore::load(&unsat));
        assert_eq!(with_models.solver_len(), MODELS);
        assert_eq!(without.solver_len(), MODELS);
        let n = MODELS as i64;
        let (allocs, bytes) = (sat_allocs - unsat_allocs, sat_bytes - unsat_bytes);
        assert_eq!(allocs, 2 * n, "k={k}: {allocs} allocations for {n} models");
        assert!(
            bytes <= bound * n,
            "k={k}: {} B per decoded model > {bound} B",
            bytes / n
        );
        let _ = std::fs::remove_file(&sat);
        let _ = std::fs::remove_file(&unsat);
    }
}

#[test]
fn a_sat_entry_without_a_model_costs_no_model_allocation() {
    // Through `entails`: the same satisfiable queries asked by `entails`
    // and by `prove`, each into a memo of its own, leave the same map and
    // dependency list; `prove`'s holds one model (two allocations) per
    // query more, so `entails`' holds none.
    let x = Term::real_var("x");
    let queries: Vec<([Term; 1], Term)> = (0..MODELS as i128)
        .map(|k| ([x.ge(Term::int(k))], x.le(Term::int(k))))
        .collect();
    let ask = |prove: bool| {
        let solver = Solver::with_memo(Arc::new(QueryMemo::default()));
        for (hyps, goal) in &queries {
            if prove {
                assert!(solver.prove(hyps, goal).counterexample().is_some());
            } else {
                assert!(!solver.entails(hyps, goal));
            }
        }
        solver
    };
    drop((ask(false), ask(true))); // interns every term and name first
    let (verdicts, verdict_allocs, _) = live(|| ask(false));
    let (models, model_allocs, _) = live(|| ask(true));
    for (solver, model) in [(&verdicts, false), (&models, true)] {
        let entries = solver.memo().snapshot();
        assert_eq!(entries.len(), MODELS);
        assert!(entries.iter().all(|(_, e)| e.model().is_some() == model));
    }
    let n = MODELS as i64;
    assert_eq!(
        model_allocs - verdict_allocs,
        2 * n,
        "{verdict_allocs} allocations for {n} verdicts, {model_allocs} for {n} models"
    );

    // Through the store decoder and warm-up: a bare `Sat` costs exactly
    // what an `Unsat` costs.
    let bare = store_file("bare", "sat--", |_| MemoEntry::Sat);
    let unsat = store_file("bare", "unsat", |_| MemoEntry::Unsat);
    let warm = |path: &PathBuf| {
        let store = VerdictStore::load(path);
        let memo = QueryMemo::default();
        store.warm_memo(&memo);
        assert_eq!(memo.len(), MODELS);
        (store, memo)
    };
    drop((warm(&bare), warm(&unsat)));
    let (_, bare_allocs, bare_bytes) = live(|| warm(&bare));
    let (_, unsat_allocs, unsat_bytes) = live(|| warm(&unsat));
    assert_eq!((bare_allocs, bare_bytes), (unsat_allocs, unsat_bytes));
    let _ = std::fs::remove_file(&bare);
    let _ = std::fs::remove_file(&unsat);
}
