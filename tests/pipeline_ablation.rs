//! Fused streaming delta pipeline acceptance tests and the bench smoke
//! target (run directly with `cargo test --test pipeline_ablation`).
//!
//! Pinned claims:
//!
//! 1. **No Rt materialization**: over a ≥ 20-iteration transitive closure
//!    with the fused pipeline on, `EvalStats` shows *zero* `Rt`
//!    column-merge bytes — duplicates die at the probe site — while the
//!    result is row-for-row identical to the `--no-fused-pipeline` run.
//! 2. **Equivalence**: fused, unfused, and the sort-dedup baseline compute
//!    identical relations on random G(n,p) TC / SG / non-linear-TC
//!    programs (plus negation and recursive aggregation sanity).
//! 3. **Throughput**: the fused pipeline clears the `pipeline` row's gate
//!    over the unfused one on the same workload (the row
//!    `BENCH_pipeline.json` records).

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

use recstep::{Config, Database, DedupImpl, Engine, EvalStats, PbmeMode, Value};
use recstep_baselines::naive::NaiveEngine;
use recstep_bench::{assert_gate, pipeline_ablation, pipeline_workload};
use recstep_graphgen::gnp::gnp;

/// Every test in this binary takes this lock: the speedup gate below is a
/// wall-clock measurement, and cargo runs test *binaries* sequentially —
/// so serializing within the binary is what gives the timed runs a quiet
/// machine instead of competing with the differential tests for cores.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Non-linear transitive closure: both recursive atoms read the IDB.
const TC_NONLINEAR: &str = "\
p(x, y) :- arc(x, y).\n\
p(x, y) :- p(x, z), p(z, y).";

fn run(
    program: &str,
    out_rel: &str,
    edges: &[(Value, Value)],
    cfg: Config,
) -> (BTreeSet<Vec<Value>>, EvalStats) {
    let engine = Engine::from_config(cfg.threads(2).pbme(PbmeMode::Off)).unwrap();
    let mut db = Database::new().unwrap();
    db.load_edges("arc", edges).unwrap();
    let stats = engine.prepare(program).unwrap().run(&mut db).unwrap();
    let rows = db.relation(out_rel).unwrap().to_vec().into_iter().collect();
    (rows, stats)
}

/// The ≥ 20-iteration acceptance workload: dense 150-node cluster (high
/// `Rt` duplication — every closure pair is re-derived once per incident
/// edge) plus a 40-edge path (forces ≥ 40 iterations).
fn acceptance_workload() -> Vec<(Value, Value)> {
    pipeline_workload(150, 0.16, 40, 11)
}

#[test]
fn fused_tc_merges_zero_rt_bytes_and_matches_unfused() {
    let _serial = serial();
    let edges = acceptance_workload();
    let (rows_on, on) = run(
        recstep::programs::TC,
        "tc",
        &edges,
        Config::default().fused_pipeline(true),
    );
    let (rows_off, off) = run(
        recstep::programs::TC,
        "tc",
        &edges,
        Config::default().fused_pipeline(false),
    );
    assert!(
        on.iterations >= 20,
        "need ≥ 20 iterations, got {}",
        on.iterations
    );
    assert_eq!(rows_on, rows_off, "fusing must not change results");

    // Acceptance: zero Rt column-merge bytes — the UNION-ALL intermediate
    // never materialized; duplicates were dropped at the probe site.
    assert_eq!(on.rt_merge_bytes, 0, "fused run merged Rt bytes");
    assert!(on.pipeline_runs > 0, "streaming pipeline must have run");
    assert!(
        on.rt_rows_skipped_at_source > 0,
        "a TC fixpoint must drop duplicates at source"
    );
    assert_eq!(
        on.rt_bytes_never_materialized,
        on.rt_rows_skipped_at_source * 2 * 8,
        "byte accounting follows the arity-2 row size"
    );
    // Both modes consider the identical candidate stream.
    assert_eq!(on.tuples_considered, off.tuples_considered);
    // The unfused run materialized what the fused run skipped (Rt =
    // fresh + skipped rows, 16 bytes per arity-2 row).
    assert!(off.rt_merge_bytes > 0, "unfused run must materialize Rt");
    assert_eq!(off.pipeline_runs, 0);
    assert_eq!(
        off.rt_merge_bytes,
        off.tuples_considered * 2 * 8,
        "unfused merge bytes cover every candidate row"
    );
    // The full-R index is still built exactly once (PR 2's invariant
    // survives the fusion).
    assert_eq!(on.index.full_builds, 1);
    assert!(on.index.full_appends > 0);
}

#[test]
fn differential_random_graphs_agree_across_pipeline_modes() {
    let _serial = serial();
    let programs: [(&str, &str); 3] = [
        (recstep::programs::TC, "tc"),
        (recstep::programs::SG, "sg"),
        (TC_NONLINEAR, "p"),
    ];
    for seed in 0..4u64 {
        let n = 22 + (seed as u32) * 9;
        let edges: Vec<(Value, Value)> = gnp(n, 0.07, seed)
            .into_iter()
            .map(|(a, b)| (a as Value, b as Value))
            .collect();
        for (program, out_rel) in programs {
            let (fused, fstats) = run(
                program,
                out_rel,
                &edges,
                Config::default().fused_pipeline(true),
            );
            let (unfused, _) = run(
                program,
                out_rel,
                &edges,
                Config::default().fused_pipeline(false),
            );
            let (sorted, _) = run(
                program,
                out_rel,
                &edges,
                Config::default()
                    .fused_pipeline(false)
                    .index_reuse(false)
                    .dedup(DedupImpl::Sort),
            );
            assert_eq!(
                fused,
                unfused,
                "fused vs unfused diverge on {out_rel}, seed {seed}, {} edges",
                edges.len()
            );
            assert_eq!(
                fused, sorted,
                "fused vs sort-dedup diverge on {out_rel}, seed {seed}"
            );
            assert_eq!(fstats.rt_merge_bytes, 0, "{out_rel} fused merged Rt");
        }
    }
}

#[test]
fn negation_and_aggregation_unaffected_by_fusing() {
    let _serial = serial();
    let edges: Vec<(Value, Value)> = gnp(18, 0.12, 5)
        .into_iter()
        .map(|(a, b)| (a as Value, b as Value))
        .collect();
    let ntc = "\
        node(x, x) :- arc(x, y).\n\
        node(y, y) :- arc(x, y).\n\
        tc(x, y) :- arc(x, y).\n\
        tc(x, y) :- tc(x, z), arc(z, y).\n\
        ntc(x, y) :- node(x, x), node(y, y), !tc(x, y).";
    let (on, _) = run(ntc, "ntc", &edges, Config::default().fused_pipeline(true));
    let (off, _) = run(ntc, "ntc", &edges, Config::default().fused_pipeline(false));
    assert_eq!(on, off, "negation results diverge under the fused pipeline");

    // Aggregated IDBs stream through their own group-at-source sink
    // (PR 5): under the default config nothing materializes a
    // pre-aggregation Rt, and the results are identical whichever
    // pipeline toggles are off.
    let (cc_on, cc_stats) = run(recstep::programs::CC, "cc3", &edges, Config::default());
    let (cc_off, off_stats) = run(
        recstep::programs::CC,
        "cc3",
        &edges,
        Config::default().fused_pipeline(false),
    );
    assert_eq!(cc_on, cc_off, "recursive aggregation diverges");
    assert_eq!(
        cc_stats.rt_merge_bytes, 0,
        "aggregated heads must fold at source under the default config"
    );
    assert!(cc_stats.agg_sink_runs > 0);
    assert!(cc_stats.agg_rows_folded_at_source > 0);
    assert_eq!(off_stats.pipeline_runs, 0);
    // The ablation flag restores the materializing aggregation path.
    let (cc_unfused_agg, unfused_agg_stats) = run(
        recstep::programs::CC,
        "cc3",
        &edges,
        Config::default().fused_agg(false),
    );
    assert_eq!(cc_on, cc_unfused_agg, "--no-fused-agg diverges");
    assert_eq!(unfused_agg_stats.agg_sink_runs, 0);
    assert!(
        unfused_agg_stats.rt_merge_bytes > 0,
        "the ablation path must materialize the pre-aggregation Rt"
    );
}

#[test]
fn wide_values_overflow_the_packed_sink_without_losing_rows() {
    let _serial = serial();
    // Keys escaping the packed layout exercise the overflow path and the
    // one-time hashed index rebuild mid-fixpoint. Wide ids in `arc` alone
    // would not: `tc`'s bounds cover every arc value after the first
    // iteration, so the layout is sized for them. The shifted rule
    // computes keys ≥ 2^40 after the full-R index packed the small ones.
    let wide: Value = 1 << 40;
    let edges: Vec<(Value, Value)> = vec![
        (0, 1),
        (1, 2),
        (2, wide),
        (wide, wide + 1),
        (wide + 1, 3),
        (3, 4),
    ];
    let program = format!(
        "{}\ntc(x + {wide}, y) :- tc(x, y), far(x).\nfar(1).\n",
        recstep::programs::TC
    );
    let small = [(0, 1), (1, 2), (2, 3)];
    // Full-R builds of `tc`: over wide arcs the first build is hashed for
    // good; over small ones it packs, and the escapes force one rebuild.
    for (edges, builds) in [(&edges[..], 1), (&small[..], 2)] {
        let (on, stats) = run(&program, "tc", edges, Config::default());
        let (off, off_stats) = run(
            &program,
            "tc",
            edges,
            Config::default().fused_pipeline(false),
        );
        // Independent oracle: the unfused arm drains `Rt` through the same
        // sink, so it cannot vouch for the overflow path on its own.
        let mut naive = NaiveEngine::new();
        naive.load("arc", edges.iter().map(|&(a, b)| vec![a, b]));
        naive.run_source(&program).unwrap();
        let oracle: BTreeSet<Vec<Value>> = naive.rows("tc").unwrap().iter().cloned().collect();
        assert!(
            oracle.contains(&vec![wide + 1, 2]),
            "the shifted rule fires"
        );
        assert_eq!(on, oracle, "fused overflow handling diverges from naive");
        assert_eq!(off, oracle, "drained overflow handling diverges from naive");
        assert_eq!(stats.rt_merge_bytes, 0);
        assert_eq!(off_stats.rt_rows_skipped_at_source, 0);
        assert_eq!(
            stats.index.full_builds,
            builds,
            "fused, {} arcs",
            edges.len()
        );
        assert_eq!(
            off_stats.index.full_builds,
            builds,
            "drained, {} arcs",
            edges.len()
        );
    }
}

#[test]
fn bench_pipeline_json_records_a_speedup_of_at_least_1_3x() {
    let _serial = serial();
    // The `pipeline` row of BENCH_pipeline.json, asserted here and written
    // by the `pipeline_smoke` bench (workload, threads, repeats and gate
    // live in `recstep_bench::pipeline_ablation`).
    assert_gate(&pipeline_ablation());
}
