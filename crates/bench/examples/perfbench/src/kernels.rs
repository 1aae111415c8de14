//! The replay step of a traced run: layer kernels timed on the workload's
//! own data, through the layers' public functions. A kernel runs only
//! where the engine run used its layer (read from the run's statistics,
//! never from the workload's name); elsewhere its metric stays 0.

use std::hint::black_box;
use std::time::Instant;

use recstep::{
    analyze, parser, plan, Database, Engine, EvalStats, PreparedProgram, Relation, Value,
};
use recstep_bitmatrix::tc::tc_closure;
use recstep_common::lang::AggFunc;
use recstep_exec::agg::ConcurrentMonoMap;
use recstep_exec::index::PersistentIndex;
use recstep_exec::sink::DeltaSink;
use recstep_exec::wcoj::ScanTrie;
use recstep_exec::ExecCtx;

use crate::metrics::Metrics;
use crate::util::{ctx, median, Res};

/// Rows sampled by the per-row kernels (probe, offer, absorb).
const SAMPLE_ROWS: usize = 1 << 20;

/// Median of `reps` timings of `f`, in seconds.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times).expect("reps > 0")
}

/// `datalog`: the three front-end passes on one program, each timed alone.
pub fn datalog(m: &mut Metrics, src: &str) -> Res<()> {
    const REPS: usize = 200;
    let (mut parse, mut analyse, mut compile) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t0 = Instant::now();
        let ast = ctx("parse", parser::parse(black_box(src)))?;
        let t1 = Instant::now();
        let analysis = ctx("analyze", analyze::analyze(ast))?;
        let t2 = Instant::now();
        black_box(ctx("plan", plan::compile(&analysis))?);
        let t3 = Instant::now();
        parse.push((t1 - t0).as_secs_f64() * 1e6);
        analyse.push((t2 - t1).as_secs_f64() * 1e6);
        compile.push((t3 - t2).as_secs_f64() * 1e6);
    }
    m.put("datalog.parse_us", median(&parse).expect("REPS > 0"), "us");
    m.put(
        "datalog.analyze_us",
        median(&analyse).expect("REPS > 0"),
        "us",
    );
    m.put("datalog.plan_us", median(&compile).expect("REPS > 0"), "us");
    Ok(())
}

/// The largest binary relation of the program in `db`: among the inputs
/// only, or among the derived relations too.
fn largest_binary<'a>(
    db: &'a Database,
    prog: &PreparedProgram,
    inputs_only: bool,
) -> Option<&'a Relation> {
    prog.compiled()
        .relations
        .iter()
        .filter(|r| r.arity == 2 && !(inputs_only && r.is_idb))
        .filter_map(|r| db.catalog().lookup(&r.name))
        .map(|id| db.catalog().rel(id))
        .max_by_key(|r| r.len())
}

pub fn batch(
    m: &mut Metrics,
    src: &str,
    engine: &Engine,
    db: &Database,
    prog: &PreparedProgram,
    stats: &EvalStats,
) -> Res<()> {
    datalog(m, src)?;
    let Some(edb) = largest_binary(db, prog, true) else {
        return Err("program has no binary input relation".into());
    };
    let (src_col, dst_col) = (edb.col(0), edb.col(1));
    let n = edb.len();
    let step = n.div_ceil(SAMPLE_ROWS).max(1);
    let sample = || (0..n).step_by(step);
    let sampled = sample().count() as f64;
    let mut exec_ctx = ExecCtx::new(engine.pool_handle());
    exec_ctx.grain = engine.config().grain.max(1);

    let hash_path = stats.pipeline_runs > 0 || stats.index.join_builds > 0;
    if hash_path {
        m.put(
            "exec.index_build_s",
            time_median(3, || PersistentIndex::build(&exec_ctx, edb.view(), vec![0])),
            "s",
        );

        // The fused sink probes a whole-tuple index of the relation being
        // derived, so the probe and offer kernels run on the largest
        // relation the run left behind (a prefix of it, if it is huge),
        // in as many passes as make a million operations. A stored row is
        // a hit; the reversed row is (almost always) a miss.
        let rel = largest_binary(db, prog, false).expect("the inputs are candidates");
        let view = rel.prefix_view(rel.len().min(SAMPLE_ROWS));
        let (a, b) = (view.col(0), view.col(1));
        let rows = view.len();
        let passes = (SAMPLE_ROWS / rows.max(1)).max(1);
        let full = PersistentIndex::build(&exec_ctx, view, vec![0, 1]);
        let exact = full.mode().exact();
        let probe = |row: [Value; 2]| -> bool {
            full.mode().try_key_of_row(&row).is_some_and(|key| {
                full.table().contains(key, |node| {
                    let node = node as usize;
                    exact || (view.get(node, 0), view.get(node, 1)) == (row[0], row[1])
                })
            })
        };
        let per_row_ns = |f: &dyn Fn(usize) -> bool| {
            let t = Instant::now();
            for _ in 0..passes {
                black_box((0..rows).filter(|&r| f(r)).count());
            }
            t.elapsed().as_secs_f64() * 1e9 / (passes * rows) as f64
        };
        m.put(
            "exec.probe_hit_ns",
            per_row_ns(&|r| probe([a[r], b[r]])),
            "ns",
        );
        m.put(
            "exec.probe_miss_ns",
            per_row_ns(&|r| probe([b[r], a[r]])),
            "ns",
        );
        let dup_sink = DeltaSink::new(&full, view, 64);
        m.put(
            "exec.sink_offer_dup_ns",
            per_row_ns(&|r| dup_sink.offer(&[a[r], b[r]])),
            "ns",
        );
        // A fresh row is fresh once: every pass gets its own sink, built
        // outside the timed loop.
        let mut fresh_secs = 0.0;
        for _ in 0..passes {
            let sink = DeltaSink::new(&full, view, rows);
            let t = Instant::now();
            black_box((0..rows).filter(|&r| sink.offer(&[b[r], a[r]])).count());
            fresh_secs += t.elapsed().as_secs_f64();
        }
        m.put(
            "exec.sink_offer_fresh_ns",
            fresh_secs * 1e9 / (passes * rows) as f64,
            "ns",
        );
    }

    if stats.agg_sink_runs > 0 {
        // Label propagation's shape: MIN(source) per destination. The
        // first pass creates the groups, the second mostly fails to improve.
        let map = ctx(
            "monomap",
            ConcurrentMonoMap::new(AggFunc::Min, 1, sampled as usize),
        )?;
        let t = Instant::now();
        for _ in 0..2 {
            for r in sample() {
                black_box(map.absorb(&[dst_col[r]], src_col[r]));
            }
        }
        m.put(
            "exec.monomap_absorb_ns",
            t.elapsed().as_secs_f64() * 1e9 / (2.0 * sampled),
            "ns",
        );
    }

    if stats.wcoj_runs > 0 {
        // One trie per scan of every worst-case optimal plan, in the
        // plan's own column orders — what `wcoj_sink` sorts on each call.
        let plans = prog
            .compiled()
            .strata
            .iter()
            .flat_map(|s| &s.idbs)
            .flat_map(|i| &i.subqueries)
            .filter_map(|q| q.wcoj.as_ref().map(|w| (q, w)));
        let mut total = 0.0;
        for (query, wcoj) in plans {
            for (scan, cols) in query.scans.iter().zip(&wcoj.scan_cols) {
                let Some(rel) = db.relation(&scan.rel) else {
                    continue;
                };
                total += time_median(3, || ScanTrie::build(rel.view(), cols).len());
            }
        }
        m.put("exec.trie_build_s", total, "s");
    }

    if stats.pbme_matrix_bytes > 0 {
        let edges: Vec<(u32, u32)> = src_col
            .iter()
            .zip(dst_col)
            .map(|(&a, &b)| (a as u32, b as u32))
            .collect();
        let vertices = edges
            .iter()
            .map(|&(a, b)| a.max(b))
            .max()
            .map_or(0, |v| v as usize + 1);
        let t = Instant::now();
        let closure = tc_closure(engine.pool(), vertices, &edges);
        m.put("bitmatrix.tc_closure_s", t.elapsed().as_secs_f64(), "s");
        let t = Instant::now();
        black_box(closure.to_pairs().len());
        m.put("bitmatrix.to_pairs_s", t.elapsed().as_secs_f64(), "s");
    }
    Ok(())
}
