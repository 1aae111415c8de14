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
//! 3. **Throughput**: triangle enumeration through the generic join
//!    clears the `wcoj` row's gate over the binary chain *serially* on a
//!    workload whose 2-path intermediate dwarfs both the input and the
//!    output (the row `BENCH_pipeline.json` records).

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

use recstep::{Config, Database, Engine, EvalStats, PbmeMode, Value};
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
    // The `wcoj` row of BENCH_pipeline.json: serial triangle enumeration on
    // a degree-skew workload (workload, threads, repeats and gate live in
    // `recstep_bench::wcoj_ablation`).
    assert_gate(&wcoj_ablation());
}
