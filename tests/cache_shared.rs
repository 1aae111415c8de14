//! Acceptance tests for the shared cross-run index cache (run directly
//! with `cargo test --test cache_shared`).
//!
//! The claims pinned down here:
//!
//! 1. **Build-once across concurrent runs**: N = 4 concurrent
//!    `PreparedProgram::run_shared` evaluations over *one* `Database`
//!    build each frozen EDB join index exactly once — verified through
//!    the `cache_hits` / `cache_misses` stats probe (misses sum to 1,
//!    hits to N − 1), not timing.
//! 2. **Spill-aware eviction**: under memory pressure the engine spills
//!    the shared tier (coldest-first) instead of reporting OOM, and a
//!    later run that needs the evicted index recovers by rebuilding —
//!    a cache miss is the rebuild signal, never a panic.
//! 3. **Ablation**: `--no-shared-index-cache` preserves the per-run
//!    behavior (every run builds, nothing is published), and results are
//!    identical with the cache on and off, fused and unfused.

use std::collections::BTreeSet;

use recstep::{Config, Database, Engine, PbmeMode, Value};

/// An anti-join whose build side is deterministically the EDB `arc` (the
/// negated relation is always the build side), so every run must index it.
const NONADJ: &str = "nonadj(x, y) :- node(x), node(y), !arc(x, y).";

fn db_nodes_arcs(n: Value, arcs: &[(Value, Value)]) -> Database {
    let mut db = Database::new().unwrap();
    let mut tx = db.transaction();
    tx.load_rows(
        "node",
        1,
        (0..n)
            .map(|i| vec![i])
            .collect::<Vec<_>>()
            .iter()
            .map(Vec::as_slice),
    )
    .unwrap();
    tx.load_edges("arc", arcs).unwrap();
    tx.commit().unwrap();
    db
}

fn sorted_pairs(rows: Vec<(Value, Value)>) -> BTreeSet<(Value, Value)> {
    rows.into_iter().collect()
}

fn nonadj_oracle(n: Value, arcs: &[(Value, Value)]) -> BTreeSet<(Value, Value)> {
    let arcs: BTreeSet<(Value, Value)> = arcs.iter().copied().collect();
    let mut out = BTreeSet::new();
    for x in 0..n {
        for y in 0..n {
            if !arcs.contains(&(x, y)) {
                out.insert((x, y));
            }
        }
    }
    out
}

#[test]
fn four_concurrent_shared_runs_build_each_edb_index_exactly_once() {
    const N: usize = 4;
    let engine = Engine::builder().threads(2).build().unwrap();
    let prog = engine.prepare(NONADJ).unwrap();
    let arcs: Vec<(Value, Value)> = (0..30).map(|i| (i, (i + 1) % 30)).collect();
    let db = db_nodes_arcs(30, &arcs);

    let outputs: Vec<recstep::RunOutput> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| scope.spawn(|| prog.run_shared(&db).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let oracle = nonadj_oracle(30, &arcs);
    let mut misses = 0;
    let mut hits = 0;
    for out in &outputs {
        assert_eq!(
            sorted_pairs(out.relation("nonadj").unwrap().as_pairs().unwrap()),
            oracle,
            "every concurrent run computes the same complement"
        );
        misses += out.stats().index.cache_misses;
        hits += out.stats().index.cache_hits;
    }
    // The build-once probe: across all N runs, the arc index was built by
    // exactly one of them; every other run reused the published snapshot.
    assert_eq!(misses, 1, "exactly one run builds the EDB join index");
    assert_eq!(hits, N - 1, "every other run hits the shared cache");
    // The database itself is untouched by shared runs.
    assert_eq!(db.row_count("nonadj"), 0);
    assert!(
        db.index_cache().resident_bytes() > 0,
        "index stays published"
    );
}

#[test]
fn sequential_exclusive_runs_share_the_cache_too() {
    let engine = Engine::builder().threads(2).build().unwrap();
    let prog = engine.prepare(NONADJ).unwrap();
    let arcs: Vec<(Value, Value)> = (0..20).map(|i| (i, (i + 3) % 20)).collect();
    let mut db = db_nodes_arcs(20, &arcs);

    let first = prog.run(&mut db).unwrap();
    assert_eq!(first.index.cache_misses, 1, "first run builds");
    assert_eq!(first.index.cache_hits, 0);
    // IDB resets bump only the IDB's version; `arc` stays frozen, so the
    // second run probes the published snapshot instead of rebuilding.
    let second = prog.run(&mut db).unwrap();
    assert_eq!(second.index.cache_misses, 0, "second run reuses");
    assert_eq!(second.index.cache_hits, 1);
    // Mutating the EDB bumps its version: the cached snapshot goes stale
    // and the next run rebuilds against fresh data (no stale serving).
    db.load_edges("arc", &[(0, 5)]).unwrap();
    let third = prog.run(&mut db).unwrap();
    assert_eq!(third.index.cache_misses, 1, "stale version misses");
    let arcs_now: Vec<(Value, Value)> = {
        let mut a = arcs.clone();
        a.push((0, 5));
        a
    };
    assert_eq!(
        sorted_pairs(db.relation("nonadj").unwrap().as_pairs().unwrap()),
        nonadj_oracle(20, &arcs_now)
    );
}

#[test]
fn no_shared_index_cache_preserves_per_run_behavior() {
    let engine =
        Engine::from_config(Config::default().threads(2).shared_index_cache(false)).unwrap();
    let prog = engine.prepare(NONADJ).unwrap();
    let arcs: Vec<(Value, Value)> = (0..20).map(|i| (i, (i + 1) % 20)).collect();
    let mut db = db_nodes_arcs(20, &arcs);
    for _ in 0..2 {
        let stats = prog.run(&mut db).unwrap();
        assert_eq!(stats.index.cache_misses, 0, "no shared-tier traffic");
        assert_eq!(stats.index.cache_hits, 0);
        assert_eq!(stats.index.cache_bytes, 0);
        assert_eq!(stats.index.join_builds, 1, "every run builds locally");
    }
    assert_eq!(db.index_cache().resident_bytes(), 0, "nothing published");
    assert_eq!(
        sorted_pairs(db.relation("nonadj").unwrap().as_pairs().unwrap()),
        nonadj_oracle(20, &arcs)
    );
}

/// Memory pressure mid-run spills the shared tier before reporting OOM:
/// the run that trips the budget check completes after eviction, and a
/// later run needing the evicted index rebuilds it (miss = rebuild
/// signal).
#[test]
fn pressure_spills_cache_and_later_runs_rebuild() {
    // A big unary EDB makes the published anti-join index dominate memory.
    let big_n: Value = 100_000;
    let mut db = Database::new().unwrap();
    {
        let rows: Vec<Vec<Value>> = (0..big_n).map(|i| vec![i]).collect();
        let mut tx = db.transaction();
        tx.load_rows("blocked", 1, rows.iter().map(Vec::as_slice))
            .unwrap();
        tx.load_rows("probe", 1, [vec![big_n + 1]].iter().map(Vec::as_slice))
            .unwrap();
        tx.commit().unwrap();
    }
    db.load_edges("tedge", &[(0, 1), (1, 2), (2, 3)]).unwrap();
    let miss_prog_src = "miss(x) :- probe(x), !blocked(x).";
    let tc_src = "t(x, y) :- tedge(x, y).\nt(x, y) :- t(x, z), tedge(z, y).";

    // Run 1 (ample budget) publishes the `blocked` index into the cache.
    let roomy = Engine::builder().threads(2).build().unwrap();
    let stats1 = roomy.prepare(miss_prog_src).unwrap().run(&mut db).unwrap();
    assert_eq!(stats1.index.cache_misses, 1);
    let cache_bytes = db.index_cache().resident_bytes();
    assert!(cache_bytes > 1 << 20, "index is MB-scale: {cache_bytes}");
    let heap = db.heap_bytes();

    // Run 2: a tiny TC whose budget fits the catalog but *not* catalog +
    // resident cache. The pressure path must evict the (cold, unpinned)
    // snapshot instead of failing with OOM.
    let tight = Engine::from_config(
        Config::default()
            .threads(2)
            .pbme(PbmeMode::Off)
            .mem_budget(heap + cache_bytes / 2 + (256 << 10)),
    )
    .unwrap();
    let stats2 = tight.prepare(tc_src).unwrap().run(&mut db).unwrap();
    assert!(
        stats2.index.cache_evictions >= 1,
        "pressure evicted the cache: {:?}",
        stats2.index
    );
    assert_eq!(db.row_count("t"), 6);
    assert_eq!(db.index_cache().resident_bytes(), 0, "snapshot spilled");

    // Run 3: the evicted index is wanted again — the miss is the rebuild
    // signal; the engine rebuilds and answers correctly, no panic.
    let stats3 = roomy.prepare(miss_prog_src).unwrap().run(&mut db).unwrap();
    assert_eq!(stats3.index.cache_misses, 1, "rebuilt after eviction");
    assert_eq!(db.row_count("miss"), 1);
}

/// Explicitly dropping every cache entry between runs (the operator-driven
/// spill) is also just a rebuild signal — regression for callers assuming
/// a published index stays resident.
#[test]
fn explicit_eviction_between_runs_is_survivable() {
    let engine = Engine::builder().threads(2).build().unwrap();
    let prog = engine.prepare(NONADJ).unwrap();
    let arcs: Vec<(Value, Value)> = (0..16).map(|i| (i, (i + 1) % 16)).collect();
    let mut db = db_nodes_arcs(16, &arcs);
    prog.run(&mut db).unwrap();
    assert!(db.index_cache().resident_bytes() > 0);
    let (evicted, freed) = db.index_cache().evict_all();
    assert!(evicted >= 1 && freed > 0);
    let stats = prog.run(&mut db).unwrap();
    assert_eq!(stats.index.cache_misses, 1, "rebuild, not panic");
    assert_eq!(
        sorted_pairs(db.relation("nonadj").unwrap().as_pairs().unwrap()),
        nonadj_oracle(16, &arcs)
    );
}

/// A deliberately tight `--index-cache-budget`: publishing under it evicts
/// colder entries, every run still completes, and the cache never grows
/// past "the most recent build".
#[test]
fn tight_index_cache_budget_thrashes_but_never_fails() {
    let engine = Engine::from_config(Config::default().threads(2).index_cache_budget(1)).unwrap();
    let nonadj = engine.prepare(NONADJ).unwrap();
    let complement = engine
        .prepare("far(x, y) :- node(x), node(y), !near(x, y).")
        .unwrap();
    let arcs: Vec<(Value, Value)> = (0..12).map(|i| (i, (i + 1) % 12)).collect();
    let mut db = db_nodes_arcs(12, &arcs);
    db.load_edges("near", &arcs).unwrap();

    // Alternate programs so each publish finds the other's (cold) entry.
    let mut evictions = 0;
    for _ in 0..3 {
        evictions += nonadj.run(&mut db).unwrap().index.cache_evictions;
        evictions += complement.run(&mut db).unwrap().index.cache_evictions;
    }
    assert!(evictions >= 5, "1-byte budget keeps evicting: {evictions}");
    assert_eq!(
        sorted_pairs(db.relation("nonadj").unwrap().as_pairs().unwrap()),
        nonadj_oracle(12, &arcs)
    );
}

/// A probe whose values escape any packed key layout must not publish (or
/// repeatedly "hit") a snapshot it can never use: the shared tier is
/// skipped up front and the run falls back to a local hashed build —
/// regression for phantom cache hits + budget squatting.
#[test]
fn escaping_probe_values_skip_the_shared_tier() {
    let mut db = Database::new().unwrap();
    {
        let blocked: Vec<Vec<Value>> = vec![vec![1], vec![2], vec![3]];
        let probe: Vec<Vec<Value>> = vec![vec![Value::MAX], vec![2]];
        let mut tx = db.transaction();
        tx.load_rows("blocked", 1, blocked.iter().map(Vec::as_slice))
            .unwrap();
        tx.load_rows("probe", 1, probe.iter().map(Vec::as_slice))
            .unwrap();
        tx.commit().unwrap();
    }
    let engine = Engine::builder().threads(2).build().unwrap();
    let prog = engine.prepare("miss(x) :- probe(x), !blocked(x).").unwrap();
    for run in 0..2 {
        let stats = prog.run(&mut db).unwrap();
        assert_eq!(
            stats.index.cache_misses, 0,
            "run {run}: no unusable snapshot published"
        );
        assert_eq!(stats.index.cache_hits, 0, "run {run}: no phantom hits");
        assert_eq!(stats.index.join_builds, 2, "local build + hashed rebuild");
        assert_eq!(db.index_cache().resident_bytes(), 0, "no budget squatting");
        let got: Vec<Value> = db
            .relation("miss")
            .unwrap()
            .iter_rows()
            .map(|r| r.get(0))
            .collect();
        assert_eq!(got, vec![Value::MAX], "run {run}: anti-join correct");
    }
}

/// A pinned packed snapshot must never be served to a *later* probe that
/// escapes its layout: with two key columns, an escaping low-column value
/// spills into the high column's bits and can alias a legitimate build
/// key exactly — and packed (exact) mode skips tuple re-verification, so
/// a stale pin means wrong join results, not just wasted work. Regression
/// for the admitted-then-escaping sequence across fixpoint iterations.
#[test]
fn pinned_snapshot_is_dropped_when_a_later_probe_escapes() {
    // blocked's layout: col0 in 0..=127 (7 bits), col1 in 0..=1 (1 bit,
    // shift 7). Probe row (128, 0) escapes col0 and packs to
    // 0 + (128 << 0) = 128 — exactly key(0, 1), a real blocked tuple.
    let src = "\
        r(x, y) :- seed(x, y).\n\
        r(x, y) :- keep(a, b), step(a, b, x, y).\n\
        keep(x, y) :- r(x, y), !blocked(x, y).";
    let engine = Engine::builder().threads(2).build().unwrap();
    let prog = engine.prepare(src).unwrap();
    let mut db = Database::new().unwrap();
    {
        let mut tx = db.transaction();
        tx.load_edges("seed", &[(1, 0)]).unwrap();
        tx.load_edges("blocked", &[(0, 1), (127, 0)]).unwrap();
        let step = [vec![1, 0, 128, 0]];
        tx.load_rows("step", 4, step.iter().map(Vec::as_slice))
            .unwrap();
        tx.commit().unwrap();
    }
    prog.run(&mut db).unwrap();
    // Iteration k probes (1, 0) in-bounds (snapshot pinned); a later
    // iteration probes (128, 0). Serving the stale pin would alias
    // (128, 0) to blocked (0, 1) and silently drop it from `keep`.
    assert_eq!(
        sorted_pairs(db.relation("keep").unwrap().as_pairs().unwrap()),
        [(1, 0), (128, 0)].into_iter().collect(),
        "escaping probe must fall back to a hashed index, not a stale pin"
    );
}

/// A monotonic-aggregate stratum clears and refills its IDB at stratum
/// end (row ids reassigned); later strata joining that relation must see
/// the refilled rows, not a stale cached index — regression for the
/// per-run JoinCache lifetime.
#[test]
fn agg_refilled_relation_joins_correctly_in_later_strata() {
    // lab: label propagation (recursive MIN) over a 2-cycle plus a tail;
    // odd: anti-joins the *final* lab relation in a later stratum.
    let src = "\
        lab(x, MIN(x)) :- arc(x, _).\n\
        lab(y, MIN(z)) :- lab(x, z), arc(x, y).\n\
        odd(x, y) :- cand(x, y), !lab(x, y).";
    let engine = Engine::builder().threads(2).build().unwrap();
    let prog = engine.prepare(src).unwrap();
    let mut db = Database::new().unwrap();
    db.load_edges("arc", &[(2, 1), (1, 2), (2, 3)]).unwrap();
    // lab fixpoint: lab(1,1), lab(2,1), lab(3,1).
    db.load_edges("cand", &[(1, 1), (2, 1), (2, 2), (3, 1), (3, 3)])
        .unwrap();
    prog.run(&mut db).unwrap();
    assert_eq!(
        sorted_pairs(db.relation("lab").unwrap().as_pairs().unwrap()),
        [(1, 1), (2, 1), (3, 1)].into_iter().collect()
    );
    assert_eq!(
        sorted_pairs(db.relation("odd").unwrap().as_pairs().unwrap()),
        [(2, 2), (3, 3)].into_iter().collect(),
        "anti-join must probe the refilled lab, never a stale index"
    );
    // Shared mode composes the same way.
    let out = prog.run_shared(&db).unwrap();
    assert_eq!(
        sorted_pairs(out.relation("odd").unwrap().as_pairs().unwrap()),
        [(2, 2), (3, 3)].into_iter().collect()
    );
}

/// Differential: cache on/off × fused/unfused agree on TC and SG over a
/// random-ish graph, in both exclusive and shared modes.
#[test]
fn cache_modes_are_result_equivalent() {
    let edges: Vec<(Value, Value)> = (0..40)
        .flat_map(|i| [(i, (i * 7 + 3) % 40), (i, (i + 1) % 40)])
        .collect();
    let programs = [recstep::programs::TC, recstep::programs::SG];
    let idbs = ["tc", "sg"];
    for (src, idb) in programs.iter().zip(idbs) {
        let mut reference: Option<BTreeSet<(Value, Value)>> = None;
        for cache_on in [true, false] {
            for fused in [true, false] {
                let cfg = Config::default()
                    .threads(2)
                    .pbme(PbmeMode::Off)
                    .shared_index_cache(cache_on)
                    .fused_pipeline(fused);
                let engine = Engine::from_config(cfg).unwrap();
                let prog = engine.prepare(src).unwrap();
                // Exclusive mode.
                let mut db = Database::new().unwrap();
                db.load_edges("arc", &edges).unwrap();
                prog.run(&mut db).unwrap();
                let got = sorted_pairs(db.relation(idb).unwrap().as_pairs().unwrap());
                // Shared mode over the same database.
                let out = prog.run_shared(&db).unwrap();
                let got_shared = sorted_pairs(out.relation(idb).unwrap().as_pairs().unwrap());
                assert_eq!(got, got_shared, "{idb}: shared ≡ exclusive");
                match &reference {
                    None => reference = Some(got),
                    Some(want) => {
                        assert_eq!(
                            &got, want,
                            "{idb}: cache_on={cache_on} fused={fused} differs"
                        );
                    }
                }
            }
        }
    }
}
