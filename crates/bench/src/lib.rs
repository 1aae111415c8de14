//! The on/off record `BENCH_pipeline.json`: one [`Ablation`] row per
//! technique or paper claim, each measured by one on/off loop with its
//! workload, threads, repeats and gate defined once
//! ([`pipeline_ablation`], [`agg_ablation`], [`wcoj_ablation`],
//! [`ivm_ablations`], and the paper-figure rows [`pbme_ablation`],
//! [`no_op_ablation`], [`setbased_ablation`]). The gate tests call
//! [`assert_gate`] on them; the `pipeline_smoke` bench is the record's only
//! writer ([`render`]).

use std::sync::Arc;
use std::time::Instant;

use recstep::{
    programs, Config, Database, Engine, EvalStats, MaterializedView, PbmeMode, PreparedProgram,
    RelHandle, Value,
};
use recstep_baselines::setbased::SetEngine;

/// Threads used by "full parallelism" runs.
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

/// Named binary input relations.
type Inputs<'a> = [(&'a str, &'a [(Value, Value)])];

/// Compile `src` once (the prepared program keeps its engine alive, so the
/// caller only holds one value).
fn prepared(cfg: Config, src: &str) -> PreparedProgram {
    Engine::from_config(cfg)
        .expect("engine construction")
        .prepare(src)
        .expect("program compiles")
}

/// Fresh database preloaded with binary input relations (one transaction).
fn db_with(inputs: &Inputs<'_>) -> Database {
    let mut db = Database::new().expect("database");
    let mut tx = db.transaction();
    for (name, data) in inputs {
        tx.load_edges(name, data).expect("stage edges");
    }
    tx.commit().expect("commit edges");
    db
}

/// One row of the on/off record `BENCH_pipeline.json`: a workload measured
/// with one technique on and off, best wall time per arm.
#[derive(Clone, Debug)]
pub struct Ablation {
    /// Row name (`pipeline`, `agg`, `wcoj`, `ivm.tc_insert`, ...).
    pub name: &'static str,
    /// Workload label.
    pub workload: String,
    /// Input rows, summed over the input relations.
    pub edges: usize,
    /// Output rows — the same set in every run of both arms, by assertion.
    pub rows: usize,
    /// Best wall seconds with the technique on.
    pub on_secs: f64,
    /// Best wall seconds with the technique off.
    pub off_secs: f64,
    /// The least [`Ablation::speedup`] the row must show, if gated.
    pub gate: Option<f64>,
    /// Named integer counters read from the measured runs.
    pub counters: Vec<(&'static str, usize)>,
}

impl Ablation {
    /// Off over on (wall-clock ratio).
    pub fn speedup(&self) -> f64 {
        self.off_secs / self.on_secs.max(1e-9)
    }

    /// Whether the row clears its gate (an ungated row always does).
    pub fn passed(&self) -> bool {
        self.gate.is_none_or(|g| self.speedup() >= g)
    }

    fn to_json(&self) -> String {
        let mut json = format!(
            "{{\"name\": \"{}\", \"workload\": \"{}\", \"edges\": {}, \"rows\": {}, \
             \"on_secs\": {:.6}, \"off_secs\": {:.6}, \"speedup\": {:.3}, \"gate\": {}, \
             \"passed\": {}",
            self.name,
            self.workload,
            self.edges,
            self.rows,
            self.on_secs,
            self.off_secs,
            self.speedup(),
            self.gate.map_or("null".into(), |g| g.to_string()),
            self.passed(),
        );
        if let Some(&(_, tuples)) = self.counters.iter().find(|(k, _)| *k == "tuples") {
            for (arm, secs) in [("on", self.on_secs), ("off", self.off_secs)] {
                let rate = tuples as f64 / secs.max(1e-9);
                json += &format!(", \"{arm}_tuples_per_sec\": {rate:.1}");
            }
        }
        for (key, n) in &self.counters {
            json += &format!(", \"{key}\": {n}");
        }
        json + "}"
    }
}

/// Panic when `row` misses its gate, unless `RECSTEP_SKIP_SPEEDUP_GATE` is
/// set (for heavily loaded machines — CI leaves every gate enforced).
pub fn assert_gate(row: &Ablation) {
    if row.passed() {
        return;
    }
    let msg = format!(
        "{} on {}: the technique must be ≥ {}× faster on than off, measured {:.2}× \
         ({:.4}s on vs {:.4}s off)",
        row.name,
        row.workload,
        row.gate.expect("only a gated row can miss"),
        row.speedup(),
        row.on_secs,
        row.off_secs,
    );
    if std::env::var_os("RECSTEP_SKIP_SPEEDUP_GATE").is_some() {
        eprintln!("RECSTEP_SKIP_SPEEDUP_GATE set, not asserting: {msg}");
    } else {
        panic!("{msg}");
    }
}

/// Render the whole record: the ablation rows plus the service smoke's
/// counters.
pub fn render(rows: &[Ablation], serve: &[(&str, i64)]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| format!("    {}", r.to_json()))
        .collect();
    let serve: Vec<String> = serve.iter().map(|(k, n)| format!("\"{k}\": {n}")).collect();
    format!(
        "{{\n  \"rows\": [\n{}\n  ],\n  \"serve\": {{{}}}\n}}\n",
        rows.join(",\n"),
        serve.join(", ")
    )
}

/// Where the record goes: `RECSTEP_BENCH_OUT`, else `BENCH_pipeline.json`
/// at the workspace root (cargo runs benches from the package directory,
/// two levels below it).
pub fn record_path() -> std::path::PathBuf {
    std::env::var_os("RECSTEP_BENCH_OUT").map_or_else(
        || {
            let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .ancestors()
                .nth(2);
            root.expect("crates/bench sits two levels below the workspace root")
                .join("BENCH_pipeline.json")
        },
        Into::into,
    )
}

/// Best wall time and that run's statistics per arm, as [`run_ablation`]
/// measured them.
#[derive(Debug, Default)]
struct OnOff {
    edges: usize,
    rows: usize,
    on_secs: f64,
    off_secs: f64,
    on: EvalStats,
    off: EvalStats,
}

impl OnOff {
    fn row(
        &self,
        name: &'static str,
        workload: &str,
        gate: Option<f64>,
        counters: Vec<(&'static str, usize)>,
    ) -> Ablation {
        Ablation {
            name,
            workload: workload.to_string(),
            edges: self.edges,
            rows: self.rows,
            on_secs: self.on_secs,
            off_secs: self.off_secs,
            gate,
            counters,
        }
    }
}

/// A relation's rows, sorted (an absent relation has none).
fn row_set(rel: Option<RelHandle<'_>>) -> Vec<Vec<Value>> {
    let mut rows = rel.map_or_else(Vec::new, |r| r.to_vec());
    rows.sort_unstable();
    rows
}

/// The tuple path: the default configuration with PBME off, which the
/// technique ablations measure in both arms.
fn tuple_path() -> Config {
    Config::default().pbme(PbmeMode::Off)
}

/// One arm of an ablation: the engine under a configuration, or the
/// single-threaded set-based baseline (the Soufflé stand-in), which
/// reports default [`EvalStats`].
enum Arm {
    Engine(Config),
    SetBased,
}

impl Arm {
    /// Evaluate `program` over `inputs` once: wall seconds, the engine's
    /// statistics and `out_rel`'s rows, sorted.
    fn run(
        &self,
        program: &str,
        out_rel: &str,
        inputs: &Inputs<'_>,
        threads: usize,
    ) -> (f64, EvalStats, Vec<Vec<Value>>) {
        match self {
            Arm::Engine(cfg) => {
                let prog = prepared(cfg.clone().threads(threads), program);
                let mut db = db_with(inputs);
                let t0 = Instant::now();
                let stats = prog.run(&mut db).expect("ablation run completes");
                let secs = t0.elapsed().as_secs_f64();
                (secs, stats, row_set(db.relation(out_rel)))
            }
            Arm::SetBased => {
                let mut engine = SetEngine::new();
                for (name, data) in inputs {
                    engine.load_edges(name, data);
                }
                let t0 = Instant::now();
                engine.run_source(program).expect("set-based run completes");
                let secs = t0.elapsed().as_secs_f64();
                let mut rows = engine.rows(out_rel).unwrap_or_default().to_vec();
                rows.sort_unstable();
                (secs, EvalStats::default(), rows)
            }
        }
    }
}

/// Run `program` over `inputs` under `arms` (on, then off), best-of-`repeats`
/// wall time per arm (interleaved to even out machine noise), and assert
/// every run computes the same set of `out_rel` rows.
fn run_ablation(
    program: &str,
    out_rel: &str,
    inputs: &Inputs<'_>,
    arms: [Arm; 2],
    threads: usize,
    repeats: usize,
) -> OnOff {
    let mut best: [Option<(f64, EvalStats)>; 2] = [None, None];
    let mut want: Option<Vec<Vec<Value>>> = None;
    for _ in 0..repeats.max(1) {
        for (slot, arm) in arms.iter().enumerate() {
            let (secs, stats, rows) = arm.run(program, out_rel, inputs, threads);
            match &want {
                None => want = Some(rows),
                Some(want) => assert!(
                    *want == rows,
                    "both arms must compute the same '{out_rel}' rows ({} vs {})",
                    want.len(),
                    rows.len()
                ),
            }
            if best[slot].as_ref().is_none_or(|(b, _)| secs < *b) {
                best[slot] = Some((secs, stats));
            }
        }
    }
    let [(on_secs, on), (off_secs, off)] = best.map(|b| b.expect("ran"));
    OnOff {
        edges: inputs.iter().map(|(_, data)| data.len()).sum(),
        rows: want.map_or(0, |rows| rows.len()),
        on_secs,
        off_secs,
        on,
        off,
    }
}

/// The gate protocol: measure best-of-`repeats`, and on a miss re-measure
/// once best-of-5 (wall-clock ratios are noise-prone) and keep that.
fn gated(repeats: usize, measure: impl Fn(usize) -> Ablation) -> Ablation {
    let row = measure(repeats);
    if row.passed() {
        row
    } else {
        measure(5)
    }
}

/// A fig10-style TC workload with both acceptance properties: a dense
/// G(n,p) cluster gives the UNION-ALL intermediate a large duplication
/// factor (where the fused pipeline wins), and a disjoint path of
/// `path_len` edges forces `path_len` fixpoint iterations.
pub fn pipeline_workload(
    cluster_n: u32,
    cluster_p: f64,
    path_len: u32,
    seed: u64,
) -> Vec<(Value, Value)> {
    let mut edges = gnp_edges(cluster_n, cluster_p, seed);
    let base = cluster_n as Value;
    for i in 0..path_len as Value {
        edges.push((base + i, base + i + 1));
    }
    edges
}

fn gnp_edges(n: u32, p: f64, seed: u64) -> Vec<(Value, Value)> {
    recstep_graphgen::gnp::gnp(n, p, seed)
        .into_iter()
        .map(|(a, b)| (a as Value, b as Value))
        .collect()
}

/// Fused streaming delta pipeline vs `--no-fused-pipeline`: TC over a
/// 150-node cluster plus a 40-edge path (≥ 40 iterations), two threads.
/// Two further untimed fused runs over one database record the shared
/// index cache: the second run's hits are the cross-run reuse it exists
/// for.
pub fn pipeline_ablation() -> Ablation {
    let edges = pipeline_workload(150, 0.16, 40, 11);
    let cache = {
        let prog = prepared(tuple_path().threads(2), programs::TC);
        let mut db = db_with(&[("arc", &edges)]);
        [(); 2].map(|()| prog.run(&mut db).expect("TC completes"))
    };
    gated(3, |repeats| {
        let m = run_ablation(
            programs::TC,
            "tc",
            &[("arc", &edges)],
            [
                Arm::Engine(tuple_path()),
                Arm::Engine(tuple_path().fused_pipeline(false)),
            ],
            2,
            repeats,
        );
        assert_eq!(
            m.on.tuples_considered, m.off.tuples_considered,
            "both modes evaluate the same candidate stream"
        );
        assert_eq!(m.on.rt_merge_bytes, 0, "fused run must not merge Rt");
        pipeline_row(&m, &cache)
    })
}

fn pipeline_row(m: &OnOff, cache: &[EvalStats; 2]) -> Ablation {
    let [first, second] = [&cache[0].index, &cache[1].index];
    m.row(
        "pipeline",
        "tc-cluster150-path40",
        Some(1.3),
        vec![
            ("iterations", m.on.iterations),
            ("tuples", m.on.tuples_considered),
            ("on_peak_bytes", m.on.peak_bytes),
            ("off_peak_bytes", m.off.peak_bytes),
            ("rt_rows_skipped_at_source", m.on.rt_rows_skipped_at_source),
            (
                "rt_bytes_never_materialized",
                m.on.rt_bytes_never_materialized,
            ),
            ("off_rt_merge_bytes", m.off.rt_merge_bytes),
            ("cache_misses", first.cache_misses),
            ("cache_hits", second.cache_hits),
            (
                "cache_evictions",
                first.cache_evictions + second.cache_evictions,
            ),
            ("cache_resident_bytes", second.cache_bytes),
        ],
    )
}

/// Group-at-source streaming aggregation vs `--no-fused-agg`: connected
/// components (recursive `MIN` plus a group-by tail) over a 100-node
/// cluster plus a 400-edge path — the per-iteration group-by setup the
/// sink eliminates is what the long path amplifies — two threads.
pub fn agg_ablation() -> Ablation {
    let edges = pipeline_workload(100, 0.25, 400, 11);
    gated(3, |repeats| {
        let m = run_ablation(
            programs::CC,
            "cc3",
            &[("arc", &edges)],
            [
                Arm::Engine(tuple_path()),
                Arm::Engine(tuple_path().fused_agg(false)),
            ],
            2,
            repeats,
        );
        assert_eq!(
            m.on.rt_merge_bytes, 0,
            "fused aggregation must not materialize the pre-aggregation Rt"
        );
        assert!(
            m.on.agg_rows_folded_at_source > 0,
            "CC must fold candidate rows at source"
        );
        assert_eq!(
            m.off.agg_sink_runs, 0,
            "--no-fused-agg must keep the materializing aggregation path"
        );
        agg_row(&m)
    })
}

fn agg_row(m: &OnOff) -> Ablation {
    m.row(
        "agg",
        "cc-cluster100-path400",
        Some(1.1),
        vec![
            ("iterations", m.on.iterations),
            ("rows_folded_at_source", m.on.agg_rows_folded_at_source),
            ("groups_improved", m.on.agg_groups_improved),
        ],
    )
}

/// Worst-case optimal join vs `--no-wcoj`: triangle enumeration, serially
/// (the gate is about the operator, not morsel scaling), over a
/// G(500, 0.03) background that contributes the triangles plus one hub
/// with 1000 in-spokes and 1000 out-spokes. Every in×out spoke pair is a
/// 2-path through the hub that never closes, so the binary plan
/// materializes and discards a ~500k-row intermediate the generic join
/// never touches — the degree-skew regime where worst-case optimal joins
/// beat any binary plan.
pub fn wcoj_ablation() -> Ablation {
    let (n, k) = (500, 1000);
    let mut edges = gnp_edges(n, 0.03, 3);
    let hub = n as Value;
    // In-spokes stay distinct (capped at the background's vertex count):
    // duplicate input rows would inflate the binary chain's intermediate
    // beyond what the graph shape justifies.
    edges.extend((0..k.min(n)).map(|i| (i as Value, hub)));
    edges.extend((0..k).map(|i| (hub, (n + 1 + i) as Value)));
    gated(3, |repeats| {
        let m = run_ablation(
            programs::TRIANGLE,
            "triangle",
            &[("arc", &edges)],
            [
                Arm::Engine(tuple_path()),
                Arm::Engine(tuple_path().wcoj(false)),
            ],
            1,
            repeats,
        );
        assert!(
            m.on.wcoj_runs > 0,
            "the cyclic body must dispatch to the generic join"
        );
        assert_eq!(
            m.off.wcoj_runs, 0,
            "--no-wcoj must keep the binary join chain"
        );
        wcoj_row(&m)
    })
}

fn wcoj_row(m: &OnOff) -> Ablation {
    m.row(
        "wcoj",
        "triangle-skew-gnp500-hub1000",
        Some(2.0),
        vec![("wcoj_rows_emitted", m.on.wcoj_rows_emitted)],
    )
}

/// Paper Fig. 6: bit-matrix evaluation (PBME `Auto`) vs the tuple path
/// on TC over G(200, 0.05), two threads. The claim is about memory as much
/// as time, so the engine-estimated peak must fall too.
pub fn pbme_ablation() -> Ablation {
    let edges = gnp_edges(200, 0.05, 7);
    gated(3, |repeats| {
        let m = run_ablation(
            programs::TC,
            "tc",
            &[("arc", &edges)],
            [Arm::Engine(Config::default()), Arm::Engine(tuple_path())],
            2,
            repeats,
        );
        assert!(
            m.on.pbme_matrix_bytes > 0,
            "TC over G(200, 0.05) must take PBME"
        );
        assert_eq!(
            m.off.pbme_matrix_bytes, 0,
            "PBME off must keep the tuple path"
        );
        assert_peak_falls(&m, "pbme");
        pbme_row(&m)
    })
}

fn pbme_row(m: &OnOff) -> Ablation {
    m.row(
        "pbme",
        "tc-gnp200-p0.05",
        Some(2.0),
        vec![
            ("on_peak_bytes", m.on.peak_bytes),
            ("off_peak_bytes", m.off.peak_bytes),
            ("pbme_matrix_bytes", m.on.pbme_matrix_bytes),
        ],
    )
}

/// CSPA over `program_analysis::cspa(6, 12, 42)`, the mutually recursive
/// program-analysis workload of the paper's Figs. 2/3 and 15: the default
/// engine (the on arm) vs `off`, two threads.
fn run_cspa(off: Arm, repeats: usize) -> OnOff {
    let input = recstep_graphgen::program_analysis::cspa(6, 12, 42);
    run_ablation(
        programs::CSPA,
        "valueFlow",
        &[
            ("assign", &input.assign),
            ("dereference", &input.dereference),
        ],
        [Arm::Engine(Config::default()), off],
        2,
        repeats,
    )
}

/// Paper Figs. 2/3: RecStep with every §5 technique vs RecStep-NO-OP
/// (`Config::no_op()`, also the BigDatalog stand-in) on CSPA; faster and
/// with a smaller engine-estimated peak.
pub fn no_op_ablation() -> Ablation {
    gated(3, |repeats| {
        let m = run_cspa(Arm::Engine(Config::no_op()), repeats);
        assert_peak_falls(&m, "no_op");
        no_op_row(&m)
    })
}

fn no_op_row(m: &OnOff) -> Ablation {
    m.row(
        "no_op",
        "cspa-6x12",
        Some(1.3),
        vec![
            ("iterations", m.on.iterations),
            ("on_peak_bytes", m.on.peak_bytes),
            ("off_peak_bytes", m.off.peak_bytes),
        ],
    )
}

/// Paper Fig. 15: RecStep (two threads) vs the single-threaded set-based
/// engine, the Soufflé stand-in, on CSPA.
pub fn setbased_ablation() -> Ablation {
    gated(3, |repeats| setbased_row(&run_cspa(Arm::SetBased, repeats)))
}

fn setbased_row(m: &OnOff) -> Ablation {
    m.row(
        "setbased",
        "cspa-6x12",
        Some(2.0),
        vec![("iterations", m.on.iterations)],
    )
}

/// Assert the on arm's engine-estimated peak is below the off arm's.
fn assert_peak_falls(m: &OnOff, name: &str) {
    assert!(
        m.on.peak_bytes < m.off.peak_bytes,
        "{name}: peak bytes must fall with the technique on ({} on vs {} off)",
        m.on.peak_bytes,
        m.off.peak_bytes
    );
}

/// An incremental view maintenance row: name, workload label, whether the
/// commit deletes the delta (Backward/Forward) rather than inserting it
/// (∆-seeded re-entry), and gate.
type IvmSpec = (&'static str, &'static str, bool, Option<f64>);

const IVM: [IvmSpec; 3] = [
    (
        "ivm.tc_insert",
        "tc-cluster150-path40-ins1pct",
        false,
        Some(10.0),
    ),
    (
        "ivm.tc_delete",
        "tc-cluster150-path40-del1pct",
        true,
        Some(1.0),
    ),
    ("ivm.sg_insert", "sg-gnp40-ins", false, None),
];

/// Incremental view maintenance vs the scratch rerun it replaces, two
/// threads: TC over the pipeline workload with every 100th edge held out
/// and then committed (inserted, or deleted from the full graph), and SG
/// over G(40, 0.10) with every 40th edge held out and inserted.
pub fn ivm_ablations() -> [Ablation; 3] {
    let hold_out = |edges: Vec<(Value, Value)>, every: usize| {
        let delta: Vec<(Value, Value)> = edges.iter().copied().step_by(every).collect();
        let held: std::collections::BTreeSet<_> = delta.iter().copied().collect();
        let base: Vec<_> = edges.into_iter().filter(|e| !held.contains(e)).collect();
        (base, delta)
    };
    let (tc_base, tc_delta) = hold_out(pipeline_workload(150, 0.16, 40, 11), 100);
    let (sg_base, sg_delta) = hold_out(gnp_edges(40, 0.10, 3), 40);
    [
        gated(5, |r| {
            run_ivm_bench(IVM[0], programs::TC, "tc", &tc_base, &tc_delta, r)
        }),
        gated(3, |r| {
            run_ivm_bench(IVM[1], programs::TC, "tc", &tc_base, &tc_delta, r)
        }),
        gated(3, |r| {
            run_ivm_bench(IVM[2], programs::SG, "sg", &sg_base, &sg_delta, r)
        }),
    ]
}

/// Stand a view over `base` (plus `delta` when the spec deletes it), commit
/// `delta`, and time [`MaterializedView::refresh`] (the "on" arm) vs a
/// shared run over a fresh database already holding the post-commit facts
/// (the "off" arm: what the service paid per version bump before standing
/// views). Best-of-`repeats` per arm, interleaved; asserts the maintained
/// result matches scratch every repeat.
fn run_ivm_bench(
    (name, workload, delete, gate): IvmSpec,
    src: &str,
    out_rel: &str,
    base: &[(Value, Value)],
    delta: &[(Value, Value)],
    repeats: usize,
) -> Ablation {
    let prog = Arc::new(prepared(tuple_path().threads(2), src));
    assert!(
        MaterializedView::eligible(&prog),
        "IVM bench program must be maintainable"
    );
    let mut with_delta: Vec<(Value, Value)> = base.to_vec();
    with_delta.extend_from_slice(delta);
    // The view starts pre-commit and the commit moves it to post-commit.
    let (initial, finale) = if delete {
        (with_delta.as_slice(), base)
    } else {
        (base, with_delta.as_slice())
    };
    let rows: Vec<Vec<Value>> = delta.iter().map(|&(a, b)| vec![a, b]).collect();
    let commit: Vec<(String, Vec<Vec<Value>>)> = vec![("arc".to_string(), rows)];
    let empty: Vec<(String, Vec<Vec<Value>>)> = Vec::new();
    let (ins, del) = if delete {
        (&empty, &commit)
    } else {
        (&commit, &empty)
    };

    let mut m = OnOff {
        edges: initial.len(),
        on_secs: f64::MAX,
        off_secs: f64::MAX,
        ..OnOff::default()
    };
    for _ in 0..repeats.max(1) {
        let mut db = db_with(&[("arc", initial)]);
        let mut view =
            MaterializedView::create(Arc::clone(&prog), &db).expect("view creation completes");
        assert!(view.incremental(), "bench view must maintain incrementally");
        let mut tx = db.transaction();
        for (name, rows) in ins {
            tx.load_rows(name, 2, rows.iter().map(Vec::as_slice))
                .expect("stage delta inserts");
        }
        for (name, rows) in del {
            tx.delete_rows(name, 2, rows.iter().map(Vec::as_slice))
                .expect("stage delta deletes");
        }
        tx.commit().expect("commit delta");
        let t0 = Instant::now();
        view.refresh(&db, ins, del).expect("refresh completes");
        m.on_secs = m.on_secs.min(t0.elapsed().as_secs_f64());
        let output = view.output();
        let maintained = row_set(output.relation(out_rel));

        let scratch_db = db_with(&[("arc", finale)]);
        let t0 = Instant::now();
        let out = prog.run_shared(&scratch_db).expect("scratch run completes");
        m.off_secs = m.off_secs.min(t0.elapsed().as_secs_f64());
        let scratch = row_set(out.relation(out_rel));
        assert!(
            maintained == scratch,
            "maintained '{out_rel}' diverged from scratch on {workload} ({} vs {} rows)",
            maintained.len(),
            scratch.len()
        );
        m.rows = scratch.len();
    }
    m.row(name, workload, gate, vec![("delta_rows", delta.len())])
}

/// Print a section header.
pub fn header(id: &str, caption: &str) {
    println!();
    println!("## {id}: {caption}");
}

/// Print one aligned data row.
pub fn row(cols: &[String]) {
    let line: Vec<String> = cols.iter().map(|c| format!("{c:>14}")).collect();
    println!("  {}", line.join(" "));
}

/// Convenience: stringify column headers.
pub fn cells(strs: &[&str]) -> Vec<String> {
    strs.iter().map(|s| s.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sub_gate_row_renders_failed_and_fails_the_record() {
        let row = wcoj_row(&OnOff {
            on_secs: 0.1,
            off_secs: 0.125,
            ..OnOff::default()
        });
        assert!(!row.passed(), "1.25x is below the wcoj gate");
        assert!(render(std::slice::from_ref(&row), &[]).contains("\"passed\": false"));
        if std::env::var_os("RECSTEP_SKIP_SPEEDUP_GATE").is_none() {
            let failed = std::panic::catch_unwind(|| assert_gate(&row));
            assert!(failed.is_err(), "a sub-gate row must fail the record");
        }
    }

    #[test]
    fn an_ungated_row_never_fails_the_record() {
        let (name, workload, _, gate) = IVM[2];
        assert_eq!(name, "ivm.sg_insert");
        let row = OnOff {
            on_secs: 0.5,
            off_secs: 0.1,
            ..OnOff::default()
        }
        .row(name, workload, gate, vec![]);
        assert!(row.passed(), "an ungated row passes at 0.2x");
        assert!(render(std::slice::from_ref(&row), &[]).contains("\"passed\": true"));
        assert_gate(&row);
    }

    #[test]
    fn a_set_based_arm_agrees_row_for_row_with_the_engine() {
        let input = recstep_graphgen::program_analysis::cspa(2, 6, 1);
        let m = run_ablation(
            programs::CSPA,
            "valueFlow",
            &[
                ("assign", &input.assign),
                ("dereference", &input.dereference),
            ],
            [Arm::Engine(Config::default()), Arm::SetBased],
            2,
            1,
        );
        assert!(m.rows > 0, "CSPA derives valueFlow rows");
        assert_eq!(m.edges, input.assign.len() + input.dereference.len());
        assert!(m.on.iterations > 0);
        assert_eq!(m.off.iterations, 0, "the set-based arm reports no stats");
    }

    #[test]
    fn the_rendered_record_names_every_documented_key_and_gate() {
        const DOC: &str = include_str!("../../../docs/benchmarks.md");
        const WRITER: &str = include_str!("../benches/pipeline_smoke.rs");
        let m = OnOff::default();
        let mut rows = vec![
            pipeline_row(&m, &Default::default()),
            agg_row(&m),
            wcoj_row(&m),
            pbme_row(&m),
            no_op_row(&m),
            setbased_row(&m),
        ];
        // The IVM rows come out of the measuring function itself, over a
        // three-edge chain.
        rows.extend(
            IVM.map(|spec| {
                run_ivm_bench(spec, programs::TC, "tc", &[(0, 1), (1, 2)], &[(2, 3)], 1)
            }),
        );
        assert_eq!(rows.len(), 9, "one row per documented gate");
        let rendered = render(&rows, &[]);
        // Key tables: `| `key` | ...` rows; the serve smoke's keys are
        // checked against the writer's source, as it needs a live server.
        let mut section = "";
        let mut keys = 0;
        for line in DOC.lines() {
            if let Some(heading) = line.strip_prefix("## ") {
                section = heading;
            }
            let Some(key) = line
                .strip_prefix("| `")
                .and_then(|rest| rest.split('`').next())
            else {
                continue;
            };
            let quoted = format!("\"{key}\"");
            let source = if section.contains("`serve`") {
                WRITER
            } else {
                rendered.as_str()
            };
            assert!(
                source.contains(&quoted),
                "documented key {quoted} is not written"
            );
            keys += 1;
        }
        assert!(keys >= 40, "parsed only {keys} documented keys");
        // The gate table quotes every row's gate from the code.
        for row in &rows {
            let line = DOC
                .lines()
                .find(|l| l.starts_with(&format!("| `{}` |", row.name)) && l.contains(" vs. "))
                .unwrap_or_else(|| panic!("row {} missing from the gate table", row.name));
            let gate = row.gate.map_or("—".into(), |g| format!("≥ {g}×"));
            assert!(line.ends_with(&format!("| {gate} |")), "{line} vs {gate}");
        }
    }
}
