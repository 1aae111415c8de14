//! Worst-case optimal join acceptance tests and the serial wcoj bench
//! gate (run directly with `cargo test --test wcoj_ablation`).
//!
//! Pinned claims:
//!
//! 1. **Dispatch**: cyclic rule bodies (triangle enumeration) evaluate
//!    through the generic join under the default config
//!    (`EvalStats::wcoj_runs > 0`) and through the binary join chain
//!    under `--no-wcoj` (`wcoj_runs == 0`), with row-for-row identical
//!    results either way — also composed with `--no-fused-pipeline` and
//!    with residual predicates on the cyclic body.
//! 2. **Inertness**: acyclic bodies (non-linear TC) never dispatch to
//!    the generic join; the flag is a no-op there, proven differentially.
//! 3. **Distinct elimination**: a single cyclic rule whose head keeps
//!    every variable materializes its rows without the sink
//!    (`EvalStats::wcoj_rows_direct`); a head dropping a variable, a
//!    second rule into a filled IDB, an OOF-FA sampler, recursion and a
//!    standing view's maintenance all keep the sink — and every shape
//!    agrees with `--no-wcoj`, `Config::no_op()` and the naive evaluator.
//! 4. **Throughput**: triangle enumeration through the generic join
//!    clears the `wcoj` row's gate over the binary chain *serially* on a
//!    workload whose 2-path intermediate dwarfs both the input and the
//!    output (the row `BENCH_pipeline.json` records).

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard};

use recstep::{Config, Database, Engine, EvalStats, MaterializedView, OofMode, PbmeMode, Value};
use recstep_baselines::naive::NaiveEngine;
use recstep_bench::{assert_gate, wcoj_ablation};
use recstep_graphgen::gnp::gnp;

/// Serialize all tests in this binary: the bench gate below is a
/// wall-clock measurement and must not compete with the differential
/// tests for cores (cargo already runs test *binaries* sequentially).
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

type Rows = BTreeSet<Vec<Value>>;

/// Non-linear transitive closure: recursive, but every body is a 2-atom
/// (α-acyclic) join — the planner must never attach a WCOJ plan.
const TC_NONLINEAR: &str = "\
p(x, y) :- arc(x, y).\n\
p(x, y) :- p(x, z), p(z, y).";

/// Triangle enumeration with a residual predicate over the cyclic body
/// (plans WCOJ; `x != z` filters bindings at the leaf).
const TRIANGLE_NE: &str = "t(x, y, z) :- arc(x, y), arc(y, z), arc(x, z), x != z.";

/// The triangle rule twice, atoms permuted. Each non-recursive rule is a
/// stratum of its own: the first fills the empty IDB directly, the second
/// streams through the sink and every row it offers is already in `R`.
const TRIANGLE_TWICE: &str = "\
t(x, y, z) :- arc(x, y), arc(y, z), arc(x, z).\n\
t(x, y, z) :- arc(x, z), arc(x, y), arc(y, z).";

/// The triangle's head without `y`: two triangles on one `(x, z)` edge
/// project to one row, so the sink has duplicates to drop.
const TRIANGLE_XZ: &str = "t(x, z) :- arc(x, y), arc(y, z), arc(x, z).";

/// A recursive cyclic body: transitively closed pairs whose endpoints
/// are also joined by an arc.
const CYCLIC_RECURSIVE: &str = "\
t(x, y) :- arc(x, y).\n\
t(x, z) :- t(x, y), t(y, z), arc(x, z).";

/// A cyclic body over a recursive IDB: `t` starts empty in the recursive
/// stratum and its three ∆ rewritings all feed it in the first pass, so
/// the same triangle arrives from several subqueries.
const CYCLIC_MUTUAL: &str = "\
s(x, y) :- arc(x, y).\n\
s(x, y) :- t(y, x, z).\n\
t(x, y, z) :- s(x, y), s(y, z), s(x, z).";

fn run(program: &str, out_rel: &str, edges: &[(Value, Value)], cfg: Config) -> (Rows, EvalStats) {
    let engine = Engine::from_config(cfg.threads(2).pbme(PbmeMode::Off)).unwrap();
    let mut db = Database::new().unwrap();
    db.load_edges("arc", edges).unwrap();
    let stats = engine.prepare(program).unwrap().run(&mut db).unwrap();
    let stored = db.relation(out_rel).unwrap().to_vec();
    let rows: Rows = stored.iter().cloned().collect();
    assert_eq!(rows.len(), stored.len(), "{out_rel} holds duplicate rows");
    (rows, stats)
}

#[test]
fn triangle_wcoj_matches_binary_chain_across_graphs() {
    let _serial = serial();
    for seed in 0..4u64 {
        let n = 40 + (seed as u32) * 20;
        let edges: Vec<(Value, Value)> = gnp(n, 0.08, seed)
            .into_iter()
            .map(|(a, b)| (a as Value, b as Value))
            .collect();
        let (on, on_stats) = run(
            recstep::programs::TRIANGLE,
            "triangle",
            &edges,
            Config::default(),
        );
        let (off, off_stats) = run(
            recstep::programs::TRIANGLE,
            "triangle",
            &edges,
            Config::default().wcoj(false),
        );
        assert_eq!(on, off, "triangle sets diverge on seed {seed}");
        assert!(
            on_stats.wcoj_runs > 0,
            "the cyclic body must dispatch to the generic join"
        );
        assert!(
            !on.is_empty() || on_stats.wcoj_rows_emitted == 0,
            "emitted rows without results on seed {seed}"
        );
        assert_eq!(
            off_stats.wcoj_runs, 0,
            "--no-wcoj must keep the binary join chain"
        );
        assert_eq!(off_stats.wcoj_rows_emitted, 0);
        // The toggles compose: the generic join sinks into the
        // materializing path exactly as it sinks into the fused one.
        let (mixed, mixed_stats) = run(
            recstep::programs::TRIANGLE,
            "triangle",
            &edges,
            Config::default().fused_pipeline(false),
        );
        assert_eq!(on, mixed, "diverges with --no-fused-pipeline");
        assert!(mixed_stats.wcoj_runs > 0);
    }
}

#[test]
fn triangle_output_far_past_the_sink_capacity_grows_the_table_in_flight() {
    let _serial = serial();
    // A sink cannot count triangles before it sees them, so its scratch
    // table starts at its floor capacity (64 rows) and has to double
    // under the walk. A complete digraph on 18 nodes closes
    // 18 * 17 * 16 = 4896 triangles — over 75x that capacity.
    let edges: Vec<(Value, Value)> = (0..18)
        .flat_map(|a| (0..18).filter(move |&b| b != a).map(move |b| (a, b)))
        .collect();
    let triangles = 18 * 17 * 16;
    // The single rule keeps every variable in its head and is the only
    // producer into an empty IDB: its rows are already a set, so they
    // materialize directly and no sink table grows.
    let (single, single_stats) = run(
        recstep::programs::TRIANGLE,
        "triangle",
        &edges,
        Config::default(),
    );
    assert_eq!(single.len(), triangles);
    assert!(single_stats.wcoj_runs > 0);
    assert_eq!(single_stats.wcoj_rows_direct, triangles);
    assert_eq!(single_stats.tuples_considered, triangles);
    assert_eq!(single_stats.sink_table_doublings, 0);
    // An OOF-FA sampler watches every offer, so the same triangles still
    // stream through the sink, all fresh against the empty IDB.
    let (on, on_stats) = run(
        recstep::programs::TRIANGLE,
        "triangle",
        &edges,
        Config::default().oof(OofMode::Full),
    );
    assert_eq!(on, single);
    assert!(on_stats.wcoj_runs > 0);
    assert_eq!(on_stats.wcoj_rows_direct, 0);
    assert_eq!(on_stats.wcoj_rows_emitted, on.len());
    assert!(on.len() >= 50 * 64);
    assert!(
        on_stats.sink_table_doublings >= 5,
        "4896 fresh rows from 64 buckets at load factor 2: {} doublings",
        on_stats.sink_table_doublings
    );
    let (binary, binary_stats) = run(
        recstep::programs::TRIANGLE,
        "triangle",
        &edges,
        Config::default().wcoj(false),
    );
    assert_eq!(on, binary, "diverges from --no-wcoj");
    assert!(
        binary_stats.sink_table_doublings > 0,
        "the binary chain streams the same rows into a sink"
    );
    let (materialized, materialized_stats) = run(
        recstep::programs::TRIANGLE,
        "triangle",
        &edges,
        Config::default().fused_pipeline(false),
    );
    assert_eq!(on, materialized, "diverges from --no-fused-pipeline");
    assert_eq!(
        materialized_stats.sink_table_doublings, 0,
        "the materializing path has no sink table"
    );
}

/// A G(n, p) graph plus a hub with spokes in and out, duplicate arcs
/// and self-loops: skewed degrees and repeated rows.
fn skewed(seed: u64) -> Vec<(Value, Value)> {
    let mut edges: Vec<(Value, Value)> = gnp(40, 0.12, seed)
        .into_iter()
        .map(|(a, b)| (a as Value, b as Value))
        .collect();
    for v in 1..40 {
        if v % 3 != 0 {
            edges.push((0, v));
        }
        if v % 4 != 1 {
            edges.push((v, 0));
        }
    }
    let dups: Vec<_> = edges.iter().step_by(5).copied().collect();
    edges.extend(dups);
    edges.extend([(5, 5), (0, 0)]);
    edges
}

/// `out_rel` under the default config, after asserting it equals
/// `--no-wcoj`, `Config::no_op()` and the naive evaluator.
fn differential(program: &str, out_rel: &str, edges: &[(Value, Value)]) -> (Rows, EvalStats) {
    let (on, stats) = run(program, out_rel, edges, Config::default());
    let (binary, _) = run(program, out_rel, edges, Config::default().wcoj(false));
    assert_eq!(on, binary, "diverges from --no-wcoj");
    let (no_op, _) = run(program, out_rel, edges, Config::no_op());
    assert_eq!(on, no_op, "diverges from Config::no_op()");
    let mut naive = NaiveEngine::new();
    naive.load_edges("arc", edges);
    naive.run_source(program).unwrap();
    assert_eq!(&on, naive.rows(out_rel).unwrap(), "diverges from naive");
    assert!(stats.wcoj_runs > 0, "the cyclic body dispatches to WCOJ");
    (on, stats)
}

#[test]
fn distinct_heads_of_a_sole_rule_skip_the_sink() {
    let _serial = serial();
    for seed in 0..3 {
        let edges = skewed(seed);
        for (program, rel) in [
            (recstep::programs::TRIANGLE, "triangle"),
            (TRIANGLE_NE, "t"),
        ] {
            let (rows, stats) = differential(program, rel, &edges);
            assert!(!rows.is_empty());
            assert_eq!(stats.wcoj_rows_direct, rows.len(), "{program}");
            assert_eq!(stats.wcoj_rows_emitted, rows.len());
            assert_eq!(stats.tuples_considered, rows.len());
            assert_eq!(stats.rt_rows_skipped_at_source, 0);
        }
    }
}

#[test]
fn a_head_dropping_a_variable_keeps_the_sink() {
    let _serial = serial();
    for seed in 0..3 {
        let (rows, stats) = differential(TRIANGLE_XZ, "t", &skewed(seed));
        assert_eq!(stats.wcoj_rows_direct, 0);
        assert!(
            stats.wcoj_rows_emitted > rows.len(),
            "triangles sharing an (x, z) arc project to one row"
        );
        assert_eq!(stats.tuples_considered, stats.wcoj_rows_emitted);
    }
}

#[test]
fn a_second_rule_into_a_filled_idb_keeps_the_sink() {
    let _serial = serial();
    for seed in 0..3 {
        let (rows, stats) = differential(TRIANGLE_TWICE, "t", &skewed(seed));
        assert_eq!(stats.wcoj_runs, 2);
        assert_eq!(stats.wcoj_rows_direct, rows.len(), "the first rule only");
        assert_eq!(stats.wcoj_rows_emitted, 2 * rows.len());
        assert_eq!(stats.tuples_considered, 2 * rows.len());
        assert_eq!(stats.rt_rows_skipped_at_source, rows.len());
    }
}

#[test]
fn an_oof_fa_sampler_keeps_the_sink() {
    let _serial = serial();
    let edges = skewed(4);
    let (rows, _) = differential(recstep::programs::TRIANGLE, "triangle", &edges);
    let (sampled, stats) = run(
        recstep::programs::TRIANGLE,
        "triangle",
        &edges,
        Config::default().oof(OofMode::Full),
    );
    assert_eq!(sampled, rows, "diverges under --oof-fa");
    assert!(stats.wcoj_runs > 0);
    assert_eq!(stats.wcoj_rows_direct, 0);
    assert!(stats.sink_stat_samples > 0, "the sampler saw every offer");
}

#[test]
fn recursive_cyclic_bodies_keep_the_sink() {
    let _serial = serial();
    for seed in 0..3 {
        let edges: Vec<(Value, Value)> = gnp(24, 0.12, seed)
            .into_iter()
            .map(|(a, b)| (a as Value, b as Value))
            .collect();
        let (rows, stats) = differential(CYCLIC_RECURSIVE, "t", &edges);
        assert!(rows.len() > edges.len() / 2);
        assert_eq!(stats.wcoj_rows_direct, 0, "several subqueries feed t");
        let (rows, stats) = differential(CYCLIC_MUTUAL, "t", &edges);
        assert!(!rows.is_empty());
        assert_eq!(stats.wcoj_rows_direct, 0, "three ∆ subqueries feed t");
        assert!(stats.rt_rows_skipped_at_source > 0);
    }
}

#[test]
fn a_standing_view_over_triangles_maintains_through_the_sink() {
    let _serial = serial();
    let engine = Engine::from_config(Config::default().threads(2)).unwrap();
    let prog = Arc::new(engine.prepare(recstep::programs::TRIANGLE).unwrap());
    let mut db = Database::new().unwrap();
    let edges = skewed(5);
    db.load_edges("arc", &edges).unwrap();
    let mut view = MaterializedView::create(Arc::clone(&prog), &db).unwrap();
    assert!(view.incremental());
    assert!(
        view.stats().wcoj_rows_direct > 0,
        "the creating run is a scratch run"
    );
    let mut current = edges.clone();
    type Arcs = &'static [(Value, Value)];
    let commits: [(Arcs, Arcs); 3] = [
        (&[(1, 2), (2, 3), (1, 3), (3, 0)], &[]),
        (&[], &[(0, 1), (0, 2)]),
        (&[(0, 1), (7, 8), (8, 9), (7, 9)], &[(1, 3)]),
    ];
    for (ins, del) in commits {
        let widen = |b: &[(Value, Value)]| -> Vec<Vec<Value>> {
            b.iter().map(|&(x, y)| vec![x, y]).collect()
        };
        let (ins_rows, del_rows) = (widen(ins), widen(del));
        let mut tx = db.transaction();
        tx.load_rows("arc", 2, ins_rows.iter().map(Vec::as_slice))
            .unwrap();
        tx.delete_rows("arc", 2, del_rows.iter().map(Vec::as_slice))
            .unwrap();
        tx.commit().unwrap();
        current.extend_from_slice(ins);
        current.retain(|e| !del.contains(e));
        let batch = |rows: Vec<Vec<Value>>| {
            if rows.is_empty() {
                vec![]
            } else {
                vec![("arc".to_string(), rows)]
            }
        };
        view.refresh(&db, &batch(ins_rows), &batch(del_rows))
            .unwrap();
        assert_eq!(view.view_stats().view_fallbacks, 0);
        assert_eq!(
            view.stats().wcoj_rows_direct,
            0,
            "maintenance never skips the sink"
        );
        let maintained: Rows = view
            .output()
            .relation("triangle")
            .unwrap()
            .to_vec()
            .into_iter()
            .collect();
        let (scratch, _) = differential(recstep::programs::TRIANGLE, "triangle", &current);
        assert_eq!(maintained, scratch, "maintained view diverges from scratch");
    }
}

#[test]
fn residual_predicates_filter_wcoj_bindings() {
    let _serial = serial();
    let edges: Vec<(Value, Value)> = gnp(60, 0.08, 7)
        .into_iter()
        .map(|(a, b)| (a as Value, b as Value))
        .collect();
    let (on, on_stats) = run(TRIANGLE_NE, "t", &edges, Config::default());
    let (off, _) = run(TRIANGLE_NE, "t", &edges, Config::default().wcoj(false));
    assert_eq!(on, off, "residual-filtered triangles diverge");
    assert!(
        on_stats.wcoj_runs > 0,
        "x != z is a residual, not a scan filter"
    );
    assert!(on.iter().all(|row| row[0] != row[2]));
}

#[test]
fn nonlinear_tc_keeps_binary_plans_and_the_flag_is_inert() {
    let _serial = serial();
    for seed in 0..4u64 {
        let edges: Vec<(Value, Value)> = gnp(30 + (seed as u32) * 10, 0.09, seed)
            .into_iter()
            .map(|(a, b)| (a as Value, b as Value))
            .collect();
        let (on, on_stats) = run(TC_NONLINEAR, "p", &edges, Config::default());
        let (off, off_stats) = run(TC_NONLINEAR, "p", &edges, Config::default().wcoj(false));
        assert_eq!(on, off, "non-linear TC diverges on seed {seed}");
        // 2-atom bodies are α-acyclic: no plan, no dispatch, either way.
        assert_eq!(on_stats.wcoj_runs, 0, "acyclic bodies must stay binary");
        assert_eq!(off_stats.wcoj_runs, 0);
    }
}

#[test]
fn bench_wcoj_json_records_a_speedup_of_at_least_2x() {
    let _serial = serial();
    // The `wcoj` row of BENCH_pipeline.json: serial triangle enumeration on
    // a degree-skew workload (workload, threads, repeats and gate live in
    // `recstep_bench::wcoj_ablation`).
    assert_gate(&wcoj_ablation());
}
