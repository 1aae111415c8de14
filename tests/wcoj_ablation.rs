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
//! 3. **Throughput**: triangle enumeration through the generic join is
//!    ≥ 2× the binary chain *serially* on a G(n,p) workload whose 2-path
//!    intermediate dwarfs both the input and the output (the `"wcoj"`
//!    block of `BENCH_pipeline.json` records the trajectory, and a
//!    re-measured `"agg"` block rides along through the gated splicer).

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

use recstep::{Config, Database, Engine, EvalStats, PbmeMode, Value};
use recstep_bench::{
    pipeline_workload, run_agg_bench, run_wcoj_bench, skewed_triangle_workload, splice_json_block,
};
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

fn run(program: &str, out_rel: &str, edges: &[(Value, Value)], cfg: Config) -> (Rows, EvalStats) {
    let engine = Engine::from_config(cfg.threads(2).pbme(PbmeMode::Off)).unwrap();
    let mut db = Database::new().unwrap();
    db.load_edges("arc", edges).unwrap();
    let stats = engine.prepare(program).unwrap().run(&mut db).unwrap();
    let rows = db.relation(out_rel).unwrap().to_vec().into_iter().collect();
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
    // The sink cannot count triangles before it sees them, so its scratch
    // table starts at its floor capacity (64 rows) and has to double
    // under the walk. A complete digraph on 18 nodes closes
    // 18 * 17 * 16 = 4896 triangles — over 75x that capacity.
    let edges: Vec<(Value, Value)> = (0..18)
        .flat_map(|a| (0..18).filter(move |&b| b != a).map(move |b| (a, b)))
        .collect();
    let (on, on_stats) = run(
        recstep::programs::TRIANGLE,
        "triangle",
        &edges,
        Config::default(),
    );
    assert_eq!(on.len(), 18 * 17 * 16);
    assert!(on.len() >= 50 * 64);
    assert!(on_stats.wcoj_runs > 0);
    assert_eq!(on_stats.wcoj_rows_emitted, on.len());
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
        "same sink, same growth"
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
    // The CI bench smoke: triangle enumeration on the degree-skew
    // workload — a G(500, 0.03) background (real triangles) plus a hub
    // whose 1000 in×out spoke pairs are 2-paths that never close, so the
    // binary plan materializes and discards a ~500k-row intermediate the
    // generic join never touches. Measured best-of-3 per mode *serially*
    // (threads = 1 — the gate is about the operator, not morsel
    // scaling). Wall-clock gates are noise-prone, so a miss re-measures
    // once with best-of-5 before failing; `RECSTEP_SKIP_SPEEDUP_GATE=1`
    // keeps the JSON record but skips the ratio assertion (for heavily
    // loaded machines — CI enforces it).
    let edges = skewed_triangle_workload(500, 0.03, 1000, 3);
    let mut result = run_wcoj_bench("triangle-skew-gnp500-hub1000", &edges, 1, 3);
    if result.speedup() < 2.0 {
        result = run_wcoj_bench("triangle-skew-gnp500-hub1000", &edges, 1, 5);
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_pipeline.json");
    // The agg block is re-measured (best-of-5, over the same
    // high-duplication workload its own ≥ 1.1× gate in
    // tests/agg_ablation.rs asserts) and re-spliced alongside: recording
    // both through the gated splicer is what keeps a stale or regressed
    // block from surviving in the committed record.
    let agg = run_agg_bench(
        "cc-cluster100-path400",
        &pipeline_workload(100, 0.25, 400, 11),
        2,
        5,
    );
    splice_json_block(&path, "agg", &agg.to_json());
    splice_json_block(&path, "wcoj", &result.to_json());
    let json = std::fs::read_to_string(&path).unwrap();
    for key in [
        "\"wcoj\"",
        "\"triangles\"",
        "\"wcoj_rows_emitted\"",
        "\"wcoj_secs\"",
        "\"binary_secs\"",
        "\"agg\"",
        "\"rows_folded_at_source\"",
    ] {
        assert!(json.contains(key), "BENCH_pipeline.json missing {key}");
    }
    if std::env::var_os("RECSTEP_SKIP_SPEEDUP_GATE").is_some() {
        eprintln!(
            "RECSTEP_SKIP_SPEEDUP_GATE set: recorded {:.2}x without asserting",
            result.speedup()
        );
        return;
    }
    assert!(
        result.speedup() >= 2.0,
        "generic join {:.3}s vs binary chain {:.3}s: {:.2}x < 2x on {} edges",
        result.wcoj_secs,
        result.binary_secs,
        result.speedup(),
        result.edges,
    );
}

#[test]
fn gated_splicer_refuses_regressed_blocks() {
    let _serial = serial();
    // A below-gate "wcoj" block must be refused (panic), not recorded.
    let dir = std::env::temp_dir().join(format!("wcoj-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_gate_probe.json");
    let refused = std::panic::catch_unwind(|| {
        splice_json_block(&path, "wcoj", "{\"speedup\": 1.250}");
    });
    assert!(refused.is_err(), "sub-gate wcoj block must be refused");
    assert!(!path.exists(), "refused block must not be written");
    // Ungated keys and above-gate blocks pass through unchanged.
    splice_json_block(&path, "wcoj", "{\"speedup\": 2.750}");
    splice_json_block(&path, "probe", "{\"speedup\": 0.100}");
    let doc = std::fs::read_to_string(&path).unwrap();
    assert!(doc.contains("\"wcoj\": {\"speedup\": 2.750}"));
    assert!(doc.contains("\"probe\": {\"speedup\": 0.100}"));
    std::fs::remove_dir_all(&dir).ok();
}
