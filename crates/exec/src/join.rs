//! Parallel hash joins, anti joins (stratified negation), cross joins and
//! standalone projection/selection.
//!
//! All variants share the flattened-row convention of [`crate::expr`]: the
//! output expressions and residual predicates see `[left row ‖ right row]`
//! regardless of which physical side the hash table was built on — the
//! build-side choice (the knob OOF re-optimizes every iteration) is purely
//! physical.
//!
//! Two build-side layouts serve the equi- and anti joins:
//!
//! * a key-ordered [`OrderedIndex`] — every build side that is never
//!   appended to: [`hash_join_sink`] and [`anti_join_sink`] build one per
//!   call, and [`index_join_sink`] / [`index_anti_join_sink`] probe one
//!   the caller keeps (a frozen relation's, cached across iterations and
//!   runs). One key's matches are one contiguous run of gathered rows,
//!   and a probe value outside the build side's bounds matches nothing;
//! * a chained [`PersistentIndex`](crate::index::PersistentIndex) table —
//!   build sides over relations that grow during the run, synced before
//!   each probe: [`hash_join_prebuilt_sink`] and
//!   [`anti_join_prebuilt_sink`] probe it.
//!
//! Which input is the build side is the caller's choice (`build_left`):
//! by size, or — in the engine — a frozen input whenever the stratum is
//! recursive or that input's index is already resident (see
//! `recstep-core`'s evaluation loop).
//!
//! Every producing operator additionally comes in a `*_sink` form taking a
//! [`SinkMode`]: in `Delta` mode the worker offers each output row to a
//! [`crate::sink::DeltaSink`] right at the probe site and buffers only
//! fresh tuples — the fused streaming pipeline that stops materializing
//! the UNION-ALL intermediate `Rt`. The plain forms are thin
//! `Materialize` wrappers, so existing callers and the ablation path are
//! untouched.

use recstep_common::Value;
use recstep_storage::RelView;

use crate::chain::ChainTable;
use crate::expr::{eval_all, Expr, Predicate};
use crate::index::OrderedIndex;
use crate::key::KeyMode;
use crate::sink::SinkMode;
use crate::util::{parallel_produce, CapGate};
use crate::ExecCtx;

/// Specification of a binary equi-join.
pub struct JoinSpec<'a> {
    /// Join key columns on the left input.
    pub left_keys: &'a [usize],
    /// Join key columns on the right input (pairwise equal to `left_keys`).
    pub right_keys: &'a [usize],
    /// Build the hash table on the left input (otherwise on the right).
    pub build_left: bool,
    /// Output expressions over the flattened `[left ‖ right]` row.
    pub output: &'a [Expr],
    /// Residual predicates over the flattened row (non-equi conditions).
    pub residual: &'a [Predicate],
}

/// Hash equi-join of two views.
///
/// Returns the projected output column-major. Duplicates are *not* removed —
/// Algorithm 1 separates `uieval` from `dedup` (UNION ALL semantics).
pub fn hash_join(
    ctx: &ExecCtx,
    left: RelView<'_>,
    right: RelView<'_>,
    spec: &JoinSpec<'_>,
) -> Vec<Vec<Value>> {
    hash_join_sink(ctx, left, right, spec, &SinkMode::Materialize)
}

/// [`hash_join`] with an output sink (the fused-pipeline entry point).
pub fn hash_join_sink(
    ctx: &ExecCtx,
    left: RelView<'_>,
    right: RelView<'_>,
    spec: &JoinSpec<'_>,
    sink: &SinkMode<'_>,
) -> Vec<Vec<Value>> {
    assert_eq!(spec.left_keys.len(), spec.right_keys.len());
    if left.is_empty() || right.is_empty() {
        return vec![Vec::new(); spec.output.len()];
    }
    let (build, build_cols, probe) = if spec.build_left {
        (left, spec.left_keys, right)
    } else {
        (right, spec.right_keys, left)
    };
    let index = OrderedIndex::build(ctx, build, build_cols.to_vec());
    index_join_sink(ctx, probe, &index, spec, sink)
}

/// Equi-join probing a key-ordered index over the build side with
/// `probe`, the other input: `spec.build_left` says which side `index`
/// holds, and its key columns must be that side's join keys. The build
/// rows are read from the index's gathered copy, so the base relation is
/// not needed.
pub fn index_join_sink(
    ctx: &ExecCtx,
    probe: RelView<'_>,
    index: &OrderedIndex,
    spec: &JoinSpec<'_>,
    sink: &SinkMode<'_>,
) -> Vec<Vec<Value>> {
    assert_eq!(spec.left_keys.len(), spec.right_keys.len());
    let out_arity = spec.output.len();
    if probe.is_empty() || index.is_empty() {
        return vec![Vec::new(); out_arity];
    }
    let build = index.view();
    let (left, right, probe_cols) = if spec.build_left {
        debug_assert_eq!(index.key_cols(), spec.left_keys);
        (build, probe, spec.right_keys)
    } else {
        debug_assert_eq!(index.key_cols(), spec.right_keys);
        (probe, build, spec.left_keys)
    };
    let la = left.arity();
    let width = la + right.arity();
    let gate = CapGate::new(ctx.row_cap);
    parallel_produce(
        &ctx.pool,
        probe.len(),
        ctx.grain,
        out_arity,
        |range, buf| {
            let Some(mut snapshot) = gate.start() else {
                return;
            };
            let mut local = 0usize;
            let mut considered = 0usize;
            let mut scratch = Vec::new();
            let mut out_row = Vec::new();
            let mut row = vec![0 as Value; width];
            for pr in range {
                if gate.reached(&mut snapshot, &mut local) {
                    break;
                }
                for br in index.matches(probe, pr, probe_cols, &mut scratch) {
                    let (lr, rr) = if spec.build_left { (br, pr) } else { (pr, br) };
                    #[allow(clippy::needless_range_loop)]
                    for c in 0..la {
                        row[c] = left.get(lr, c);
                    }
                    for c in 0..right.arity() {
                        row[la + c] = right.get(rr, c);
                    }
                    if eval_all(spec.residual, &row)
                        && sink.emit(spec.output, &row, buf, &mut out_row, &mut considered)
                    {
                        local += 1;
                    }
                }
            }
            sink.note_considered(considered);
            gate.commit(local);
        },
    )
}

/// Hash equi-join probing an already-built chain table over the build side
/// (chosen by `spec.build_left`) — the reuse path for the persistent join
/// indexes of growing relations, appended across fixpoint iterations —
/// with an output sink: in
/// `Delta` mode each probe match immediately probes the full-`R` index and
/// races into the scratch table, so duplicate join outputs are never
/// buffered.
///
/// `table` must map node `i` to build-side row `i` for every build-side
/// row, with keys produced by `mode` over the build-side key columns, and
/// `mode` must be able to represent the probe side's key values (packed
/// layouts are verified with `KeyLayout::covers` before reuse).
pub fn hash_join_prebuilt_sink(
    ctx: &ExecCtx,
    left: RelView<'_>,
    right: RelView<'_>,
    spec: &JoinSpec<'_>,
    table: &ChainTable,
    mode: &KeyMode,
    sink: &SinkMode<'_>,
) -> Vec<Vec<Value>> {
    assert_eq!(spec.left_keys.len(), spec.right_keys.len());
    let out_arity = spec.output.len();
    if left.is_empty() || right.is_empty() {
        return vec![Vec::new(); out_arity];
    }
    let (build, probe, build_cols, probe_cols) = if spec.build_left {
        (left, right, spec.left_keys, spec.right_keys)
    } else {
        (right, left, spec.right_keys, spec.left_keys)
    };
    debug_assert!(table.capacity() >= build.len());
    let exact = mode.exact();
    let la = left.arity();
    let width = la + right.arity();
    // Producers stop once `cap` rows are out; the caller reports outputs
    // reaching the cap as out-of-memory (see `CapGate`). In `Delta` mode
    // only fresh rows count — duplicates occupy no memory.
    let gate = CapGate::new(ctx.row_cap);

    parallel_produce(
        &ctx.pool,
        probe.len(),
        ctx.grain,
        out_arity,
        |range, buf| {
            let Some(mut snapshot) = gate.start() else {
                return;
            };
            let mut local = 0usize;
            let mut considered = 0usize;
            let mut scratch = Vec::new();
            let mut out_row = Vec::new();
            let mut row = vec![0 as Value; width];
            for pr in range {
                if gate.reached(&mut snapshot, &mut local) {
                    break;
                }
                let key = mode.key_of(probe, pr, probe_cols, &mut scratch);
                for node in table.iter_key(key) {
                    let br = node as usize;
                    if !exact && !keys_match(build, br, build_cols, probe, pr, probe_cols) {
                        continue;
                    }
                    // Flatten into logical [left ‖ right] order.
                    let (lr, rr) = if spec.build_left { (br, pr) } else { (pr, br) };
                    #[allow(clippy::needless_range_loop)]
                    for c in 0..la {
                        row[c] = left.get(lr, c);
                    }
                    for c in 0..right.arity() {
                        row[la + c] = right.get(rr, c);
                    }
                    if eval_all(spec.residual, &row)
                        && sink.emit(spec.output, &row, buf, &mut out_row, &mut considered)
                    {
                        local += 1;
                    }
                }
            }
            sink.note_considered(considered);
            gate.commit(local);
        },
    )
}

/// Anti join: rows of `left` with **no** key match in `right`, projected
/// through `output` (expressions over the left row only). This implements
/// negated body atoms under stratified negation.
pub fn anti_join(
    ctx: &ExecCtx,
    left: RelView<'_>,
    right: RelView<'_>,
    left_keys: &[usize],
    right_keys: &[usize],
    output: &[Expr],
) -> Vec<Vec<Value>> {
    anti_join_sink(
        ctx,
        left,
        right,
        left_keys,
        right_keys,
        output,
        &SinkMode::Materialize,
    )
}

/// [`anti_join`] with an output sink (the fused-pipeline entry point).
#[allow(clippy::too_many_arguments)]
pub fn anti_join_sink(
    ctx: &ExecCtx,
    left: RelView<'_>,
    right: RelView<'_>,
    left_keys: &[usize],
    right_keys: &[usize],
    output: &[Expr],
    sink: &SinkMode<'_>,
) -> Vec<Vec<Value>> {
    let out_arity = output.len();
    if left.is_empty() {
        return vec![Vec::new(); out_arity];
    }
    if right.is_empty() {
        // Nothing to reject: pure projection.
        return project_filter_sink(ctx, left, output, &[], sink);
    }
    let index = OrderedIndex::build(ctx, right, right_keys.to_vec());
    index_anti_join_sink(ctx, left, left_keys, &index, output, sink)
}

/// Anti join probing a key-ordered index over the negated relation
/// (its key columns are the right-hand keys) — the reuse path for frozen
/// negated relations — with an output sink.
pub fn index_anti_join_sink(
    ctx: &ExecCtx,
    left: RelView<'_>,
    left_keys: &[usize],
    index: &OrderedIndex,
    output: &[Expr],
    sink: &SinkMode<'_>,
) -> Vec<Vec<Value>> {
    let out_arity = output.len();
    if left.is_empty() {
        return vec![Vec::new(); out_arity];
    }
    if index.is_empty() {
        return project_filter_sink(ctx, left, output, &[], sink);
    }
    parallel_produce(&ctx.pool, left.len(), ctx.grain, out_arity, |range, buf| {
        let mut scratch = Vec::new();
        let mut out_row = Vec::new();
        let mut considered = 0usize;
        let mut row = Vec::new();
        for lr in range {
            if !index.contains(left, lr, left_keys, &mut scratch) {
                left.copy_row(lr, &mut row);
                sink.emit(output, &row, buf, &mut out_row, &mut considered);
            }
        }
        sink.note_considered(considered);
    })
}

/// Anti join probing an already-built chain table over `right` (node `i` =
/// right row `i`, keys by `mode` over `right_keys`) — the reuse path for
/// negated relations that grow during the run — with an output sink. Same prerequisites
/// as [`hash_join_prebuilt_sink`].
#[allow(clippy::too_many_arguments)]
pub fn anti_join_prebuilt_sink(
    ctx: &ExecCtx,
    left: RelView<'_>,
    right: RelView<'_>,
    left_keys: &[usize],
    right_keys: &[usize],
    output: &[Expr],
    table: &ChainTable,
    mode: &KeyMode,
    sink: &SinkMode<'_>,
) -> Vec<Vec<Value>> {
    let out_arity = output.len();
    if left.is_empty() {
        return vec![Vec::new(); out_arity];
    }
    if right.is_empty() {
        return project_filter_sink(ctx, left, output, &[], sink);
    }
    debug_assert!(table.capacity() >= right.len());
    let exact = mode.exact();
    parallel_produce(&ctx.pool, left.len(), ctx.grain, out_arity, |range, buf| {
        let mut scratch = Vec::new();
        let mut out_row = Vec::new();
        let mut considered = 0usize;
        let mut row = Vec::new();
        for lr in range {
            let key = mode.key_of(left, lr, left_keys, &mut scratch);
            let hit = table.iter_key(key).any(|node| {
                exact || keys_match(right, node as usize, right_keys, left, lr, left_keys)
            });
            if !hit {
                left.copy_row(lr, &mut row);
                sink.emit(output, &row, buf, &mut out_row, &mut considered);
            }
        }
        sink.note_considered(considered);
    })
}

/// Cartesian product with residual predicates (for key-less body pairs such
/// as `node(x), node(y)` in the complement-of-TC program).
pub fn cross_join(
    ctx: &ExecCtx,
    left: RelView<'_>,
    right: RelView<'_>,
    output: &[Expr],
    residual: &[Predicate],
) -> Vec<Vec<Value>> {
    cross_join_sink(ctx, left, right, output, residual, &SinkMode::Materialize)
}

/// [`cross_join`] with an output sink.
pub fn cross_join_sink(
    ctx: &ExecCtx,
    left: RelView<'_>,
    right: RelView<'_>,
    output: &[Expr],
    residual: &[Predicate],
    sink: &SinkMode<'_>,
) -> Vec<Vec<Value>> {
    let out_arity = output.len();
    if left.is_empty() || right.is_empty() {
        return vec![Vec::new(); out_arity];
    }
    let la = left.arity();
    let width = la + right.arity();
    let gate = CapGate::new(ctx.row_cap);
    parallel_produce(
        &ctx.pool,
        left.len(),
        1.max(ctx.grain / right.len().max(1)),
        out_arity,
        |range, buf| {
            let Some(mut snapshot) = gate.start() else {
                return;
            };
            let mut local = 0usize;
            let mut considered = 0usize;
            let mut out_row = Vec::new();
            let mut row = vec![0 as Value; width];
            for lr in range {
                if gate.reached(&mut snapshot, &mut local) {
                    break;
                }
                #[allow(clippy::needless_range_loop)]
                for c in 0..la {
                    row[c] = left.get(lr, c);
                }
                for rr in 0..right.len() {
                    for c in 0..right.arity() {
                        row[la + c] = right.get(rr, c);
                    }
                    if eval_all(residual, &row)
                        && sink.emit(output, &row, buf, &mut out_row, &mut considered)
                    {
                        local += 1;
                    }
                }
            }
            sink.note_considered(considered);
            gate.commit(local);
        },
    )
}

/// Projection + selection over a single view (single-atom rule bodies).
pub fn project_filter(
    ctx: &ExecCtx,
    view: RelView<'_>,
    output: &[Expr],
    residual: &[Predicate],
) -> Vec<Vec<Value>> {
    project_filter_sink(ctx, view, output, residual, &SinkMode::Materialize)
}

/// [`project_filter`] with an output sink.
pub fn project_filter_sink(
    ctx: &ExecCtx,
    view: RelView<'_>,
    output: &[Expr],
    residual: &[Predicate],
    sink: &SinkMode<'_>,
) -> Vec<Vec<Value>> {
    let out_arity = output.len();
    parallel_produce(&ctx.pool, view.len(), ctx.grain, out_arity, |range, buf| {
        let mut row = Vec::new();
        let mut out_row = Vec::new();
        let mut considered = 0usize;
        for r in range {
            view.copy_row(r, &mut row);
            if eval_all(residual, &row) {
                sink.emit(output, &row, buf, &mut out_row, &mut considered);
            }
        }
        sink.note_considered(considered);
    })
}

#[inline]
fn keys_match(
    a: RelView<'_>,
    ar: usize,
    a_cols: &[usize],
    b: RelView<'_>,
    br: usize,
    b_cols: &[usize],
) -> bool {
    a_cols
        .iter()
        .zip(b_cols)
        .all(|(&ca, &cb)| a.get(ar, ca) == b.get(br, cb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use recstep_storage::{Relation, Schema};
    use std::collections::HashSet;

    fn ctx() -> ExecCtx {
        ExecCtx::with_threads(4)
    }

    fn rows_of(cols: &[Vec<Value>]) -> HashSet<Vec<Value>> {
        (0..cols.first().map_or(0, Vec::len))
            .map(|r| cols.iter().map(|c| c[r]).collect())
            .collect()
    }

    fn arc() -> Relation {
        Relation::from_rows(
            Schema::new("arc", &["x", "y"]),
            &[vec![1, 2], vec![2, 3], vec![3, 4], vec![2, 4]],
        )
    }

    #[test]
    fn tc_step_join() {
        // tc(x,y) :- tc(x,z), arc(z,y): join tc.y = arc.x, project (tc.x, arc.y).
        let tc = arc();
        let a = arc();
        let spec = JoinSpec {
            left_keys: &[1],
            right_keys: &[0],
            build_left: false,
            output: &[Expr::Col(0), Expr::Col(3)],
            residual: &[],
        };
        let out = hash_join(&ctx(), tc.view(), a.view(), &spec);
        let expect: HashSet<Vec<Value>> = [vec![1, 3], vec![1, 4], vec![2, 4], vec![2, 4]]
            .into_iter()
            .collect();
        // 2-hop paths from the 4 edges (1-2-3, 1-2-4, 2-3-4).
        assert_eq!(rows_of(&out), expect);
        // Duplicates are preserved (UNION ALL semantics): 1→2→3, 1→2→4, 2→3→4.
        assert_eq!(out[0].len(), 3);
    }

    #[test]
    fn build_side_choice_does_not_change_results() {
        let l = arc();
        let r = arc();
        let mk = |build_left| JoinSpec {
            left_keys: &[1],
            right_keys: &[0],
            build_left,
            output: &[Expr::Col(0), Expr::Col(3)],
            residual: &[],
        };
        let a = hash_join(&ctx(), l.view(), r.view(), &mk(true));
        let b = hash_join(&ctx(), l.view(), r.view(), &mk(false));
        assert_eq!(rows_of(&a), rows_of(&b));
        assert_eq!(a[0].len(), b[0].len());
    }

    #[test]
    fn residual_predicates_filter_matches() {
        // Same-generation seed: sg(x,y) :- arc(p,x), arc(p,y), x != y.
        let a = arc();
        let spec = JoinSpec {
            left_keys: &[0],
            right_keys: &[0],
            build_left: true,
            output: &[Expr::Col(1), Expr::Col(3)],
            residual: &[Predicate {
                lhs: Expr::Col(1),
                op: CmpOp::Ne,
                rhs: Expr::Col(3),
            }],
        };
        let out = hash_join(&ctx(), a.view(), a.view(), &spec);
        let expect: HashSet<Vec<Value>> = [vec![3, 4], vec![4, 3]].into_iter().collect();
        assert_eq!(rows_of(&out), expect);
    }

    #[test]
    fn multi_column_keys() {
        let l = Relation::from_rows(
            Schema::with_arity("l", 3),
            &[vec![1, 2, 10], vec![1, 3, 20], vec![2, 2, 30]],
        );
        let r = Relation::from_rows(
            Schema::with_arity("r", 3),
            &[vec![1, 2, 100], vec![2, 2, 200], vec![9, 9, 300]],
        );
        let spec = JoinSpec {
            left_keys: &[0, 1],
            right_keys: &[0, 1],
            build_left: false,
            output: &[Expr::Col(2), Expr::Col(5)],
            residual: &[],
        };
        let out = hash_join(&ctx(), l.view(), r.view(), &spec);
        let expect: HashSet<Vec<Value>> = [vec![10, 100], vec![30, 200]].into_iter().collect();
        assert_eq!(rows_of(&out), expect);
    }

    #[test]
    fn wide_keys_fall_back_to_hash_verify() {
        let l = Relation::from_rows(
            Schema::with_arity("l", 2),
            &[vec![Value::MIN, 1], vec![Value::MAX, 2]],
        );
        let r = Relation::from_rows(
            Schema::with_arity("r", 2),
            &[vec![Value::MIN, 10], vec![Value::MAX, 20], vec![0, 30]],
        );
        let spec = JoinSpec {
            left_keys: &[0],
            right_keys: &[0],
            build_left: false,
            output: &[Expr::Col(1), Expr::Col(3)],
            residual: &[],
        };
        let out = hash_join(&ctx(), l.view(), r.view(), &spec);
        let expect: HashSet<Vec<Value>> = [vec![1, 10], vec![2, 20]].into_iter().collect();
        assert_eq!(rows_of(&out), expect);
    }

    #[test]
    fn empty_inputs_produce_empty_output() {
        let e = Relation::new(Schema::with_arity("e", 2));
        let a = arc();
        let spec = JoinSpec {
            left_keys: &[1],
            right_keys: &[0],
            build_left: true,
            output: &[Expr::Col(0)],
            residual: &[],
        };
        let out = hash_join(&ctx(), e.view(), a.view(), &spec);
        assert!(out[0].is_empty());
        let out = hash_join(&ctx(), a.view(), e.view(), &spec);
        assert!(out[0].is_empty());
    }

    #[test]
    fn anti_join_keeps_unmatched_rows() {
        let l = Relation::from_rows(
            Schema::with_arity("l", 2),
            &[vec![1, 10], vec![2, 20], vec![3, 30]],
        );
        let r = Relation::from_rows(Schema::with_arity("r", 1), &[vec![2]]);
        let out = anti_join(
            &ctx(),
            l.view(),
            r.view(),
            &[0],
            &[0],
            &[Expr::Col(0), Expr::Col(1)],
        );
        let expect: HashSet<Vec<Value>> = [vec![1, 10], vec![3, 30]].into_iter().collect();
        assert_eq!(rows_of(&out), expect);
    }

    #[test]
    fn anti_join_against_empty_right_is_projection() {
        let l = arc();
        let e = Relation::new(Schema::with_arity("e", 2));
        let out = anti_join(
            &ctx(),
            l.view(),
            e.view(),
            &[0, 1],
            &[0, 1],
            &[Expr::Col(0)],
        );
        assert_eq!(out[0].len(), 4);
    }

    #[test]
    fn cross_join_with_residual() {
        let n = Relation::from_rows(Schema::with_arity("n", 1), &[vec![1], vec![2], vec![3]]);
        let out = cross_join(
            &ctx(),
            n.view(),
            n.view(),
            &[Expr::Col(0), Expr::Col(1)],
            &[Predicate {
                lhs: Expr::Col(0),
                op: CmpOp::Lt,
                rhs: Expr::Col(1),
            }],
        );
        let expect: HashSet<Vec<Value>> =
            [vec![1, 2], vec![1, 3], vec![2, 3]].into_iter().collect();
        assert_eq!(rows_of(&out), expect);
    }

    #[test]
    fn project_filter_applies_exprs() {
        let a = arc();
        let out = project_filter(
            &ctx(),
            a.view(),
            &[Expr::add(Expr::Col(0), Expr::Col(1))],
            &[Predicate {
                lhs: Expr::Col(0),
                op: CmpOp::Gt,
                rhs: Expr::Const(1),
            }],
        );
        let mut sums = out[0].clone();
        sums.sort_unstable();
        assert_eq!(sums, vec![5, 6, 7]); // rows (2,3),(3,4),(2,4)
    }

    #[test]
    fn delta_sink_join_emits_exactly_the_fresh_distinct_rows() {
        use crate::index::PersistentIndex;
        use crate::sink::{DeltaSink, SinkMode};
        // tc ⋈ arc with a sink over base R: output must equal
        // dedup(join) − R, computed here via the materializing join.
        let ctx = ctx();
        let tc = arc();
        let a = arc();
        let base = Relation::from_rows(
            Schema::with_arity("r", 2),
            &[vec![1, 3], vec![7, 7]], // (1,3) is a join output, (7,7) is not
        );
        let spec = JoinSpec {
            left_keys: &[1],
            right_keys: &[0],
            build_left: false,
            output: &[Expr::Col(0), Expr::Col(3)],
            residual: &[],
        };
        let materialized = hash_join(&ctx, tc.view(), a.view(), &spec);
        let mut oracle = rows_of(&materialized);
        oracle.retain(|r| r != &vec![1, 3]);

        let index = PersistentIndex::build(&ctx, base.view(), vec![0, 1]);
        let sink = DeltaSink::new(&index, base.view(), 16);
        let fused = hash_join_sink(&ctx, tc.view(), a.view(), &spec, &SinkMode::Delta(&sink));
        assert_eq!(rows_of(&fused), oracle);
        // No duplicates buffered: row count equals the distinct count.
        assert_eq!(fused[0].len(), oracle.len());
        // Every produced tuple was considered, duplicates included.
        assert_eq!(sink.considered(), materialized[0].len());
    }

    #[test]
    fn distinct_sink_keeps_one_row_per_live_value_in_the_full_layout() {
        use crate::sink::{DistinctSink, SinkMode};
        // The first join of a(x,z), b(z,w), c(w,y) read only at x and w:
        // many z per (x, w), one kept row each.
        let ctx = ctx();
        let mut l = Relation::new(Schema::with_arity("l", 2));
        let mut r = Relation::new(Schema::with_arity("r", 2));
        for i in 0..400i64 {
            l.push_row(&[i % 7, i % 31]);
            r.push_row(&[i % 31, i % 5]);
        }
        let spec = JoinSpec {
            left_keys: &[1],
            right_keys: &[0],
            build_left: false,
            output: &[Expr::Col(0), Expr::Col(1), Expr::Col(2), Expr::Col(3)],
            residual: &[],
        };
        let all = hash_join(&ctx, l.view(), r.view(), &spec);
        let live = [0, 3];
        let sink = DistinctSink::new(&live);
        let kept = hash_join_sink(&ctx, l.view(), r.view(), &spec, &SinkMode::Distinct(&sink));
        let project = |cols: &[Vec<Value>]| -> HashSet<Vec<Value>> {
            rows_of(cols)
                .into_iter()
                .map(|r| vec![r[0], r[3]])
                .collect()
        };
        assert_eq!(project(&kept), project(&all));
        assert_eq!(kept[0].len(), project(&all).len(), "one row per (x, w)");
        assert!(kept[0].len() < all[0].len());
        // Kept rows are real join rows, every column intact.
        assert!(rows_of(&kept).is_subset(&rows_of(&all)));
        assert_eq!(sink.considered(), all[0].len());
    }

    #[test]
    fn delta_sink_threads_through_anti_join_and_projection() {
        use crate::index::PersistentIndex;
        use crate::sink::{DeltaSink, SinkMode};
        let ctx = ctx();
        let l = Relation::from_rows(
            Schema::with_arity("l", 2),
            &[vec![1, 10], vec![2, 20], vec![3, 30], vec![3, 30]],
        );
        let r = Relation::from_rows(Schema::with_arity("r", 1), &[vec![2]]);
        // Two base rows so the packed layout's bounds cover (3, 30).
        let base = Relation::from_rows(Schema::with_arity("b", 2), &[vec![1, 10], vec![5, 50]]);
        let index = PersistentIndex::build(&ctx, base.view(), vec![0, 1]);
        let sink = DeltaSink::new(&index, base.view(), 8);
        let out = anti_join_sink(
            &ctx,
            l.view(),
            r.view(),
            &[0],
            &[0],
            &[Expr::Col(0), Expr::Col(1)],
            &SinkMode::Delta(&sink),
        );
        // (2,20) rejected by the anti join, (1,10) already in base,
        // (3,30) deduplicated to one row.
        assert_eq!(rows_of(&out), [vec![3, 30]].into_iter().collect());
        assert_eq!(out[0].len(), 1);
    }

    #[test]
    fn large_join_matches_nested_loop_oracle() {
        let mut l = Relation::new(Schema::with_arity("l", 2));
        let mut r = Relation::new(Schema::with_arity("r", 2));
        for i in 0..2000i64 {
            l.push_row(&[i % 97, i]);
            r.push_row(&[i % 89, i]);
        }
        let spec = JoinSpec {
            left_keys: &[0],
            right_keys: &[0],
            build_left: true,
            output: &[Expr::Col(1), Expr::Col(3)],
            residual: &[],
        };
        let out = hash_join(&ctx(), l.view(), r.view(), &spec);
        let mut oracle = 0usize;
        for i in 0..2000i64 {
            for j in 0..2000i64 {
                if i % 97 == j % 89 {
                    oracle += 1;
                }
            }
        }
        assert_eq!(out[0].len(), oracle);
    }
}
