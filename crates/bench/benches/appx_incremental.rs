//! Design-choice ablation (beyond the paper): per-iteration set difference
//! (the paper's architecture — dedup + ∆ = Rδ − R as queries) vs. two
//! incremental designs kept across iterations — the sequential
//! Soufflé-style hash set, and the engine's parallel persistent CCK-GSCHT
//! index (`index_reuse`, the production path) probed by a `DeltaSink`, as
//! the ∆ stream and the `--no-fused-pipeline` drain do. Run on a TC-like
//! delta stream.

use recstep_bench::*;
use recstep_exec::dedup::IncrementalSet;
use recstep_exec::expr::Expr;
use recstep_exec::index::PersistentIndex;
use recstep_exec::join::project_filter_sink;
use recstep_exec::setdiff::{set_difference, DsdState, SetDiffStrategy};
use recstep_exec::sink::{DeltaSink, SinkMode};
use recstep_exec::ExecCtx;
use recstep_storage::{Relation, Schema};
use std::time::Instant;

fn main() {
    header(
        "Ablation",
        "per-iteration set difference vs incremental dedup index",
    );
    let ctx = ExecCtx::with_threads(max_threads());
    let iters = 40usize;
    let batch = (50_000u32 / scale().max(1)).max(1_000) as usize;
    // Delta stream with 50% overlap into the accumulated relation.
    let mk_batch = |i: usize| -> Relation {
        let mut r = Relation::new(Schema::with_arity("d", 2));
        let base = (i * batch / 2) as i64;
        for j in 0..batch as i64 {
            r.push_row(&[base + j, (base + j) % 977]);
        }
        r
    };

    // Paper architecture: R accumulates; ∆ = batch − R per iteration.
    let t0 = Instant::now();
    let mut full = Relation::new(Schema::with_arity("r", 2));
    let mut st = DsdState::default();
    let mut total_delta = 0usize;
    for i in 0..iters {
        let b = mk_batch(i);
        let (delta, _) = set_difference(
            &ctx,
            b.view(),
            full.view(),
            SetDiffStrategy::Dynamic,
            &mut st,
        );
        total_delta += delta.first().map_or(0, Vec::len);
        full.append_columns(delta);
    }
    let per_iter = t0.elapsed();

    // Incremental index: one persistent set, absorb each batch.
    let t0 = Instant::now();
    let mut inc = IncrementalSet::new();
    let mut inc_total = 0usize;
    for i in 0..iters {
        let b = mk_batch(i);
        let fresh = inc.absorb(b.view());
        inc_total += fresh.first().map_or(0, Vec::len);
    }
    let incremental = t0.elapsed();

    // Persistent CCK-GSCHT index: the engine's sink drain + append.
    let t0 = Instant::now();
    let identity = [Expr::Col(0), Expr::Col(1)];
    let mut pfull = Relation::new(Schema::with_arity("r", 2));
    let mut pidx = PersistentIndex::build(&ctx, pfull.view(), vec![0, 1]);
    let mut pidx_total = 0usize;
    for i in 0..iters {
        let b = mk_batch(i);
        let sink = DeltaSink::new(&pidx, pfull.view(), b.len());
        let mut fresh =
            project_filter_sink(&ctx, b.view(), &identity, &[], &SinkMode::Delta(&sink));
        // Compact-key escapes: new, and distinct within a batch.
        for row in sink.take_overflow() {
            for (col, v) in fresh.iter_mut().zip(row) {
                col.push(v);
            }
        }
        drop(sink);
        pidx_total += fresh.first().map_or(0, Vec::len);
        pfull.append_columns(fresh);
        pidx.append(&ctx, pfull.view());
    }
    let persistent = t0.elapsed();

    assert_eq!(
        total_delta, inc_total,
        "both designs must find the same new tuples"
    );
    assert_eq!(
        total_delta, pidx_total,
        "the persistent index must find the same new tuples"
    );
    row(&cells(&["design", "time", "new tuples"]));
    row(&[
        "per-iteration DSD".into(),
        format!("{:.3}s", per_iter.as_secs_f64()),
        total_delta.to_string(),
    ]);
    row(&[
        "incremental set (seq)".into(),
        format!("{:.3}s", incremental.as_secs_f64()),
        inc_total.to_string(),
    ]);
    row(&[
        "persistent GSCHT".into(),
        format!("{:.3}s", persistent.as_secs_f64()),
        pidx_total.to_string(),
    ]);
}
