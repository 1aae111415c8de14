//! Parallel hash joins, anti joins (stratified negation), cross joins and
//! standalone projection/selection.
//!
//! All variants share the flattened-row convention of [`crate::expr`]: the
//! output expressions and residual predicates see `[left row ‖ right row]`
//! regardless of which physical side the hash table was built on — the
//! build-side choice (the knob OOF re-optimizes every iteration) is purely
//! physical.
//!
//! A join's build side comes in one of two layouts, picked by whether its
//! rows can still grow while it is probed:
//!
//! * a key-ordered [`OrderedIndex`] — every build side frozen while it is
//!   probed: [`hash_join_sink`] and [`anti_join_sink`] build one per call,
//!   and [`index_join_sink`] / [`index_anti_join_sink`] probe one the
//!   caller keeps (an EDB's or a finished lower stratum's, cached across
//!   iterations and runs). One key's matches are one contiguous run of
//!   gathered rows, and a probe value outside the build side's bounds
//!   matches nothing;
//! * a chained [`PersistentIndex`] table — a build side over one of the
//!   running stratum's own IDBs, synced before each probe:
//!   [`chained_join_sink`] probes it. A negated atom always reads a lower
//!   stratum, so anti joins only ever probe the key-ordered layout.
//!
//! Both join layouts run one probe loop, generic over the build side.
//!
//! Which input is the build side is the caller's choice (`build_left`):
//! by size, or — in the engine — a frozen input whenever the stratum is
//! recursive or that input's index is already resident (see
//! `recstep-core`'s evaluation loop).
//!
//! Every producing operator takes a [`SinkMode`]: in `Delta` mode the
//! worker offers each output row to a [`crate::sink::DeltaSink`] right at
//! the probe site and buffers only fresh tuples — the fused streaming
//! pipeline that stops materializing the UNION-ALL intermediate `Rt`;
//! `Materialize` buffers every row.

use recstep_common::Value;
use recstep_storage::RelView;

use crate::expr::{eval_all, Expr, Predicate};
use crate::index::{OrderedIndex, PersistentIndex};
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

/// Hash equi-join of two views into `sink`, over a key-ordered index
/// built on the `spec.build_left` side for this call.
///
/// Returns the projected output column-major. Duplicates are *not* removed
/// under `Materialize` — Algorithm 1 separates `uieval` from `dedup`
/// (UNION ALL semantics).
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
    probe_join(ctx, probe, index, spec, sink)
}

/// Equi-join probing a chained index over `build`, the build side
/// (chosen by `spec.build_left`) — the reuse path for a stratum's own
/// IDBs, whose join indexes are appended across fixpoint iterations.
///
/// `index` must cover every row of `build` (node `i` is row `i`), keyed
/// on that side's join keys, and its key mode must represent the probe
/// side's key values (the engine syncs it with
/// [`PersistentIndex::sync_for_probe`] first). Under a hashed mode the
/// build rows' keys are verified against the probe row.
pub fn chained_join_sink(
    ctx: &ExecCtx,
    probe: RelView<'_>,
    index: &PersistentIndex,
    build: RelView<'_>,
    spec: &JoinSpec<'_>,
    sink: &SinkMode<'_>,
) -> Vec<Vec<Value>> {
    debug_assert_eq!(index.rows(), build.len());
    probe_join(ctx, probe, &Chained { index, build }, spec, sink)
}

/// How a build side lists the rows matching a probe row: the one thing
/// the two index layouts do differently. [`probe_join`] is generic over
/// it, so each layout gets its own statically dispatched probe loop.
trait BuildSide: Sync {
    /// The build rows; a match is a row position in this view.
    fn rows(&self) -> RelView<'_>;

    /// Call `each` with every build row whose key equals row `r`'s
    /// `probe_cols` in `probe`.
    fn for_each_match(
        &self,
        probe: RelView<'_>,
        r: usize,
        probe_cols: &[usize],
        each: impl FnMut(usize),
    );
}

impl BuildSide for OrderedIndex {
    fn rows(&self) -> RelView<'_> {
        self.view()
    }

    #[inline]
    fn for_each_match(
        &self,
        probe: RelView<'_>,
        r: usize,
        probe_cols: &[usize],
        each: impl FnMut(usize),
    ) {
        self.matches(probe, r, probe_cols).for_each(each);
    }
}

/// A chained index with the rows its nodes number.
struct Chained<'a> {
    index: &'a PersistentIndex,
    build: RelView<'a>,
}

impl BuildSide for Chained<'_> {
    fn rows(&self) -> RelView<'_> {
        self.build
    }

    #[inline]
    fn for_each_match(
        &self,
        probe: RelView<'_>,
        r: usize,
        probe_cols: &[usize],
        mut each: impl FnMut(usize),
    ) {
        let (mode, cols) = (self.index.mode(), self.index.key_cols());
        let exact = mode.exact();
        let key = mode.key_of(probe, r, probe_cols);
        for node in self.index.table().iter_key(key) {
            let br = node as usize;
            if exact || keys_match(self.build, br, cols, probe, r, probe_cols) {
                each(br);
            }
        }
    }
}

/// The equi-join probe loop: every `probe` row lists its matches in
/// `build` and assembles, filters and emits each flattened pair.
fn probe_join(
    ctx: &ExecCtx,
    probe: RelView<'_>,
    build: &impl BuildSide,
    spec: &JoinSpec<'_>,
    sink: &SinkMode<'_>,
) -> Vec<Vec<Value>> {
    assert_eq!(spec.left_keys.len(), spec.right_keys.len());
    let out_arity = spec.output.len();
    let rows = build.rows();
    if probe.is_empty() || rows.is_empty() {
        return vec![Vec::new(); out_arity];
    }
    let (left, right, probe_cols) = if spec.build_left {
        (rows, probe, spec.right_keys)
    } else {
        (probe, rows, spec.left_keys)
    };
    let (la, ra) = (left.arity(), right.arity());
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
            let mut out_row = Vec::new();
            let mut row = vec![0 as Value; la + ra];
            for pr in range {
                if gate.reached(&mut snapshot, &mut local) {
                    break;
                }
                build.for_each_match(probe, pr, probe_cols, |br| {
                    // Flatten into logical [left ‖ right] order.
                    let (lr, rr) = if spec.build_left { (br, pr) } else { (pr, br) };
                    for (c, slot) in row[..la].iter_mut().enumerate() {
                        *slot = left.get(lr, c);
                    }
                    for (c, slot) in row[la..].iter_mut().enumerate() {
                        *slot = right.get(rr, c);
                    }
                    if eval_all(spec.residual, &row)
                        && sink.emit(spec.output, &row, buf, &mut out_row, &mut considered)
                    {
                        local += 1;
                    }
                });
            }
            sink.note_considered(considered);
            gate.commit(local);
        },
    )
}

/// Anti join: rows of `left` with **no** key match in `right`, projected
/// through `output` (expressions over the left row only) into `sink`.
/// This implements negated body atoms under stratified negation.
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
        let mut out_row = Vec::new();
        let mut considered = 0usize;
        let mut row = Vec::new();
        for lr in range {
            if !index.contains(left, lr, left_keys) {
                left.copy_row(lr, &mut row);
                sink.emit(output, &row, buf, &mut out_row, &mut considered);
            }
        }
        sink.note_considered(considered);
    })
}

/// Cartesian product with residual predicates (for key-less body pairs such
/// as `node(x), node(y)` in the complement-of-TC program), into `sink`.
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

/// Projection + selection over a single view (single-atom rule bodies,
/// filtered scans) into `sink`.
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

    /// [`hash_join_sink`] into a materializing sink.
    fn join(l: &Relation, r: &Relation, spec: &JoinSpec<'_>) -> Vec<Vec<Value>> {
        hash_join_sink(&ctx(), l.view(), r.view(), spec, &SinkMode::Materialize)
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
        let out = join(&tc, &a, &spec);
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
        let a = join(&l, &r, &mk(true));
        let b = join(&l, &r, &mk(false));
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
        let out = join(&a, &a, &spec);
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
        let out = join(&l, &r, &spec);
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
        let out = join(&l, &r, &spec);
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
        let out = join(&e, &a, &spec);
        assert!(out[0].is_empty());
        let out = join(&a, &e, &spec);
        assert!(out[0].is_empty());
    }

    #[test]
    fn anti_join_keeps_unmatched_rows() {
        let l = Relation::from_rows(
            Schema::with_arity("l", 2),
            &[vec![1, 10], vec![2, 20], vec![3, 30]],
        );
        let r = Relation::from_rows(Schema::with_arity("r", 1), &[vec![2]]);
        let out = anti_join_sink(
            &ctx(),
            l.view(),
            r.view(),
            &[0],
            &[0],
            &[Expr::Col(0), Expr::Col(1)],
            &SinkMode::Materialize,
        );
        let expect: HashSet<Vec<Value>> = [vec![1, 10], vec![3, 30]].into_iter().collect();
        assert_eq!(rows_of(&out), expect);
    }

    #[test]
    fn anti_join_against_empty_right_is_projection() {
        let l = arc();
        let e = Relation::new(Schema::with_arity("e", 2));
        let out = anti_join_sink(
            &ctx(),
            l.view(),
            e.view(),
            &[0, 1],
            &[0, 1],
            &[Expr::Col(0)],
            &SinkMode::Materialize,
        );
        assert_eq!(out[0].len(), 4);
    }

    #[test]
    fn cross_join_with_residual() {
        let n = Relation::from_rows(Schema::with_arity("n", 1), &[vec![1], vec![2], vec![3]]);
        let out = cross_join_sink(
            &ctx(),
            n.view(),
            n.view(),
            &[Expr::Col(0), Expr::Col(1)],
            &[Predicate {
                lhs: Expr::Col(0),
                op: CmpOp::Lt,
                rhs: Expr::Col(1),
            }],
            &SinkMode::Materialize,
        );
        let expect: HashSet<Vec<Value>> =
            [vec![1, 2], vec![1, 3], vec![2, 3]].into_iter().collect();
        assert_eq!(rows_of(&out), expect);
    }

    #[test]
    fn project_filter_applies_exprs() {
        let a = arc();
        let out = project_filter_sink(
            &ctx(),
            a.view(),
            &[Expr::add(Expr::Col(0), Expr::Col(1))],
            &[Predicate {
                lhs: Expr::Col(0),
                op: CmpOp::Gt,
                rhs: Expr::Const(1),
            }],
            &SinkMode::Materialize,
        );
        let mut sums = out[0].clone();
        sums.sort_unstable();
        assert_eq!(sums, vec![5, 6, 7]); // rows (2,3),(3,4),(2,4)
    }

    #[test]
    fn delta_sink_join_emits_exactly_the_fresh_distinct_rows() {
        use crate::sink::DeltaSink;
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
        let materialized = join(&tc, &a, &spec);
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
        use crate::sink::{DistinctSink, SinkScratch};
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
        let all = join(&l, &r, &spec);
        let live = [0, 3];
        let mut scratch = SinkScratch::default();
        let sink = DistinctSink::new(&live, None, 0, &mut scratch);
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
        use crate::sink::DeltaSink;
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
        let out = join(&l, &r, &spec);
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
