//! Group-at-source streaming aggregation acceptance tests and the serial
//! agg bench gate (run directly with `cargo test --test agg_ablation`).
//!
//! Pinned claims:
//!
//! 1. **Fold at source**: on a CC workload with ≥ 20 fixpoint iterations
//!    and the default config, `EvalStats` shows *zero* pre-aggregation
//!    `Rt` merge bytes and a positive `agg_rows_folded_at_source` — every
//!    candidate row of the aggregated heads was absorbed into concurrent
//!    aggregate state at the probe site, never buffered.
//! 2. **Equivalence**: fused-agg and `--no-fused-agg` compute identical
//!    relations on CC (recursive `MIN`), SSSP (recursive `MIN` over
//!    weighted arcs) and GTC (`COUNT` group-by), across random graphs and
//!    in combination with the `fused_pipeline` toggle — and OOF-FA runs
//!    stream too, with their statistics sampled at the sink.
//! 3. **Throughput**: group-at-source clears the `agg` row's gate over
//!    the materializing aggregation path on a high-duplication CC
//!    workload (the row `BENCH_pipeline.json` records).

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

use recstep::{Config, Database, Engine, EvalStats, OofMode, PbmeMode, Value};
use recstep_baselines::naive::NaiveEngine;
use recstep_bench::{agg_ablation, assert_gate, pipeline_workload};
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

fn engine(cfg: Config) -> Engine {
    Engine::from_config(cfg.threads(2).pbme(PbmeMode::Off)).unwrap()
}

/// Run `program` over unweighted edges, returning every listed output
/// relation's row set plus the run statistics.
fn run_edges(
    program: &str,
    out_rels: &[&str],
    edges: &[(Value, Value)],
    cfg: Config,
) -> (Vec<Rows>, EvalStats) {
    let mut db = Database::new().unwrap();
    db.load_edges("arc", edges).unwrap();
    let stats = engine(cfg).prepare(program).unwrap().run(&mut db).unwrap();
    let rows = out_rels
        .iter()
        .map(|r| db.relation(r).unwrap().to_vec().into_iter().collect())
        .collect();
    (rows, stats)
}

/// Run SSSP over deterministically weighted edges from source 0.
fn run_sssp(edges: &[(Value, Value)], cfg: Config) -> (Rows, EvalStats) {
    let weighted: Vec<(Value, Value, Value)> = edges
        .iter()
        .map(|&(a, b)| (a, b, (a * 7 + b * 13) % 20 + 1))
        .collect();
    let mut db = Database::new().unwrap();
    db.load_weighted_edges("arc", &weighted).unwrap();
    db.load_relation("id", 1, &[vec![0]]).unwrap();
    let stats = engine(cfg)
        .prepare(recstep::programs::SSSP)
        .unwrap()
        .run(&mut db)
        .unwrap();
    let rows = db.relation("sssp").unwrap().to_vec().into_iter().collect();
    (rows, stats)
}

/// The ≥ 20-iteration acceptance workload (same shape as the pipeline
/// acceptance: dense cluster for duplication, long path for iterations).
fn acceptance_workload() -> Vec<(Value, Value)> {
    pipeline_workload(150, 0.16, 40, 11)
}

#[test]
fn fused_cc_folds_at_source_and_matches_unfused() {
    let _serial = serial();
    let edges = acceptance_workload();
    let rels = ["cc3", "cc2", "cc"];
    let (rows_on, on) = run_edges(recstep::programs::CC, &rels, &edges, Config::default());
    let (rows_off, off) = run_edges(
        recstep::programs::CC,
        &rels,
        &edges,
        Config::default().fused_agg(false),
    );
    assert!(
        on.iterations >= 20,
        "need ≥ 20 iterations, got {}",
        on.iterations
    );
    assert_eq!(rows_on, rows_off, "fused-agg must not change results");

    // Acceptance: nothing materialized a pre-aggregation Rt — every
    // candidate row of the aggregated heads folded at the probe site.
    assert_eq!(on.rt_merge_bytes, 0, "fused run merged pre-agg Rt bytes");
    assert!(on.agg_sink_runs > 0, "aggregated heads must stream");
    assert!(on.agg_rows_folded_at_source > 0);
    assert!(on.agg_groups_improved > 0);
    assert!(
        on.agg_groups_improved < on.agg_rows_folded_at_source,
        "folding at source must compress rows into groups"
    );
    // Both modes evaluate the identical candidate stream.
    assert_eq!(on.tuples_considered, off.tuples_considered);
    // The ablation path really is the materializing one.
    assert_eq!(off.agg_sink_runs, 0);
    assert_eq!(off.agg_rows_folded_at_source, 0);
    assert!(
        off.rt_merge_bytes > 0,
        "--no-fused-agg must materialize the pre-aggregation Rt"
    );
}

#[test]
fn differential_cc_sssp_gtc_agree_across_agg_modes() {
    let _serial = serial();
    for seed in 0..4u64 {
        let n = 24 + (seed as u32) * 8;
        let edges: Vec<(Value, Value)> = gnp(n, 0.09, seed)
            .into_iter()
            .map(|(a, b)| (a as Value, b as Value))
            .collect();
        // CC and GTC: fused, unfused, and fused-agg with the tuple
        // pipeline ablated (the toggles must compose).
        for (program, rels) in [
            (recstep::programs::CC, vec!["cc3", "cc2", "cc"]),
            (recstep::programs::GTC, vec!["gtc", "tc"]),
        ] {
            let (fused, fstats) = run_edges(program, &rels, &edges, Config::default());
            let (unfused, _) =
                run_edges(program, &rels, &edges, Config::default().fused_agg(false));
            let (mixed, _) = run_edges(
                program,
                &rels,
                &edges,
                Config::default().fused_pipeline(false),
            );
            assert_eq!(fused, unfused, "{rels:?} diverge on seed {seed}");
            assert_eq!(
                fused, mixed,
                "{rels:?} diverge with --no-fused-pipeline on seed {seed}"
            );
            assert_eq!(fstats.rt_merge_bytes, 0, "{rels:?} materialized Rt");
            assert!(fstats.agg_sink_runs > 0);
        }
        // SSSP: recursive MIN over a ternary EDB with arithmetic in the
        // aggregate argument.
        let (fused, fstats) = run_sssp(&edges, Config::default());
        let (unfused, _) = run_sssp(&edges, Config::default().fused_agg(false));
        assert_eq!(fused, unfused, "sssp diverges on seed {seed}");
        if !fused.is_empty() {
            assert!(fstats.agg_sink_runs > 0);
        }
    }
}

/// Relations to load: `(name, arity, rows)`.
type Loads = Vec<(&'static str, usize, Vec<Vec<Value>>)>;

fn run_loads(src: &str, loads: &Loads, rels: &[&str], cfg: Config) -> (Vec<Rows>, EvalStats) {
    let mut db = Database::new().unwrap();
    for (name, arity, rows) in loads {
        db.load_relation(name, *arity, rows).unwrap();
    }
    let stats = engine(cfg).prepare(src).unwrap().run(&mut db).unwrap();
    let rows = rels
        .iter()
        .map(|r| db.relation(r).unwrap().to_vec().into_iter().collect())
        .collect();
    (rows, stats)
}

fn naive_loads(src: &str, loads: &Loads, rels: &[&str]) -> Vec<Rows> {
    let mut naive = NaiveEngine::new();
    for (name, _, rows) in loads {
        naive.load(name, rows.iter().cloned());
    }
    naive.run_source(src).unwrap();
    rels.iter()
        .map(|r| naive.rows(r).unwrap().iter().cloned().collect())
        .collect()
}

#[test]
fn dense_windows_match_naive_across_id_layouts_streamed_or_materialized() {
    let _serial = serial();
    // The MIN/MAX maps' direct-addressed window is chosen from the group
    // sources' bounds; it must never change a result, only the path a key
    // takes. Each program runs over the same graph under five namings of
    // its nodes, streamed at source and under `--no-fused-agg` (recursive
    // heads fold the grouped `Rt` into the same windowed map; the plain
    // head takes the group-by pass), both against naive. "dense + far"
    // adds one inline fact `far(s)` and a recursive rule deriving group
    // `s + 2^40` from group `s`: no bounds cover a computed key, so the
    // window is built from the graph and that group escapes it into the
    // hashed table.
    let graph: Vec<(Value, Value)> = gnp(40, 0.08, 3)
        .into_iter()
        .map(|(a, b)| (a as Value, b as Value))
        .collect();
    type Naming = fn(Value) -> Value;
    let namings: [(&str, Naming, bool); 5] = [
        ("dense", |v| v, false),
        ("offset 2^40", |v| v + (1 << 40), false),
        ("sparse", |v| v << 24, false),
        ("negative", |v| -3 * v - 7, false),
        ("dense + far", |v| v, true),
    ];
    let s = graph[0].0;
    let cc: (&str, &[&str], String) = (
        recstep::programs::CC,
        &["cc3", "cc2", "cc"],
        format!("cc3(x + 1099511627776, MIN(z)) :- cc3(x, z), far(x).\nfar({s})."),
    );
    let sssp: (&str, &[&str], String) = (
        recstep::programs::SSSP,
        &["sssp2", "sssp"],
        "sssp2(x + 1099511627776, MIN(d)) :- sssp2(x, d), far(x).\nfar(0).".to_string(),
    );
    let plain: (&str, &[&str], String) = (
        "m(x, MIN(y)) :- e(x, y).",
        &["m"],
        format!("m(x + 1099511627776, MIN(y)) :- m(x, y), far(x).\nfar({s})."),
    );
    for (layout, name, far) in namings {
        let edges = |rel: &'static str| -> Loads {
            let rows = graph.iter().map(|&(a, b)| vec![name(a), name(b)]).collect();
            vec![(rel, 2, rows)]
        };
        let weighted: Loads = vec![
            (
                "arc",
                3,
                graph
                    .iter()
                    .map(|&(a, b)| vec![name(a), name(b), (a * 7 + b * 13) % 20 + 1])
                    .collect(),
            ),
            // Two sources at the ends of the id range: SSSP's exit rule is
            // a stratum of its own, and its keys are as sparse as the graph.
            ("id", 1, vec![vec![name(0)], vec![name(39)]]),
        ];
        for ((base, rels, far_rules), loads) in
            [(&cc, edges("arc")), (&sssp, weighted), (&plain, edges("e"))]
        {
            let src = if far {
                format!("{base}\n{far_rules}\n")
            } else {
                base.to_string()
            };
            let (dense, stats) = run_loads(&src, &loads, rels, Config::default());
            let (unfused, _) = run_loads(&src, &loads, rels, Config::default().fused_agg(false));
            let oracle = naive_loads(&src, &loads, rels);
            assert_eq!(dense, oracle, "{rels:?} over {layout} ids vs naive");
            assert_eq!(
                unfused, oracle,
                "{rels:?} over {layout} ids, --no-fused-agg"
            );
            assert!(dense[0].len() > 1, "{rels:?} over {layout}: empty result");
            if far {
                assert!(dense[0].iter().any(|row| row[0] >= 1 << 40), "{rels:?}");
            }
            let windowed = layout != "sparse";
            assert_eq!(
                stats.agg_dense_sinks > 0,
                windowed,
                "{rels:?} over {layout} ids: {} dense sinks",
                stats.agg_dense_sinks
            );
        }
    }
}

#[test]
fn ungrouped_recursive_min_matches_naive_streamed_or_materialized() {
    let _serial = serial();
    // `m(MIN(z))` has no group columns: its one group lives in a one-cell
    // window, fed at source or from the grouped `Rt`. The recursive rule
    // offers a candidate (4) that does not improve the group.
    let src = "m(MIN(y)) :- arc(x, y).\nm(MIN(z)) :- m(y), arc(y, z).";
    let arcs = [[5, 3], [3, 1], [1, 0], [0, -7], [-7, 4]];
    let loads: Loads = vec![("arc", 2, arcs.iter().map(|a| a.to_vec()).collect())];
    let oracle = naive_loads(src, &loads, &["m"]);
    assert_eq!(oracle[0], BTreeSet::from([vec![-7]]));
    for cfg in [Config::default(), Config::default().fused_agg(false)] {
        let (rows, _) = run_loads(src, &loads, &["m"], cfg);
        assert_eq!(rows, oracle);
    }
}

#[test]
fn oof_fa_streams_aggregated_heads_with_sink_sampled_stats() {
    let _serial = serial();
    let edges = acceptance_workload();
    let rels = ["cc3", "cc2", "cc"];
    let (rows_fa, fa) = run_edges(
        recstep::programs::CC,
        &rels,
        &edges,
        Config::default().oof(OofMode::Full),
    );
    let (rows_default, _) = run_edges(recstep::programs::CC, &rels, &edges, Config::default());
    assert_eq!(rows_fa, rows_default, "OOF-FA changes results");
    // OOF-FA no longer forces the materializing pipeline onto aggregated
    // heads: they stream, and the statistics pass consumed the sink's
    // reservoir instead of a materialized Rt.
    assert!(
        fa.agg_sink_runs > 0,
        "aggregated heads must stream under FA"
    );
    assert!(fa.agg_rows_folded_at_source > 0);
    assert!(
        fa.sink_stat_samples > 0,
        "OOF-FA must sample statistics from the sink"
    );
}

#[test]
fn count_group_by_streams_without_materializing() {
    let _serial = serial();
    let edges = acceptance_workload();
    let (rows_on, on) = run_edges(recstep::programs::GTC, &["gtc"], &edges, Config::default());
    let (rows_off, off) = run_edges(
        recstep::programs::GTC,
        &["gtc"],
        &edges,
        Config::default().fused_agg(false),
    );
    assert_eq!(rows_on, rows_off, "COUNT group-by diverges");
    assert_eq!(on.rt_merge_bytes, 0);
    assert!(on.agg_sink_runs > 0, "the group-by head must stream");
    // One-shot group-by: every result group is emitted as ∆ once.
    assert_eq!(
        on.agg_groups_improved,
        rows_on[0].len(),
        "group count must match the result"
    );
    assert_eq!(off.agg_sink_runs, 0);
}

#[test]
fn engine_level_sum_saturates_instead_of_wrapping() {
    let _serial = serial();
    // Two near-MAX contributions to one group: a wrapping SUM would go
    // negative; the engine must clamp at the i64 boundary (and agree
    // with the materializing path about it).
    let program = "s(x, SUM(y)) :- e(x, y).";
    let big = Value::MAX - 10;
    let rows = vec![vec![1, big], vec![1, big], vec![2, 5]];
    let run = |cfg: Config| -> Rows {
        let mut db = Database::new().unwrap();
        db.load_relation("e", 2, &rows).unwrap();
        engine(cfg).prepare(program).unwrap().run(&mut db).unwrap();
        db.relation("s").unwrap().to_vec().into_iter().collect()
    };
    let expect: Rows = [vec![1, Value::MAX], vec![2, 5]].into_iter().collect();
    assert_eq!(run(Config::default()), expect, "fused SUM must saturate");
    assert_eq!(
        run(Config::default().fused_agg(false)),
        expect,
        "materializing SUM must saturate"
    );
}

#[test]
fn bench_agg_gate_records_at_least_1_1x() {
    let _serial = serial();
    // The `agg` row of BENCH_pipeline.json (workload, threads, repeats and
    // gate live in `recstep_bench::agg_ablation`).
    assert_gate(&agg_ablation());
}
