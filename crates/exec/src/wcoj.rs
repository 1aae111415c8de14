//! Worst-case optimal multiway join (generic join) over sorted compact-key
//! tries.
//!
//! Binary join chains lose an asymptotic factor on cyclic rule bodies: the
//! triangle query `t(x,y,z) :- arc(x,y), arc(y,z), arc(x,z)` materializes
//! every 2-path before the closing edge filters them, `Θ(n·d²)` work for an
//! output the AGM bound caps at `O(m^{3/2})`. The generic join evaluates
//! one *variable* at a time instead of one *atom* at a time: for each
//! variable in a global elimination order, intersect the candidate values
//! of every atom containing it, bind, and recurse. Intersections are
//! seek-driven — enumerate the smallest participant's distinct values and
//! binary-search the others — so the work per level is bounded by the
//! smallest participating relation, which is what makes the algorithm
//! worst-case optimal.
//!
//! The access structure is a [`ScanTrie`] per body atom: the scan's row
//! ids sorted by its columns in global variable order. Sorting and seeking
//! ride the CCK machinery of [`crate::key`]: when the scan's key columns
//! fit a packed [`KeyLayout`], each row packs to one `u64` laid out so the
//! *first* sort column occupies the *highest* bits — plain `u64` order is
//! then exactly lexicographic tuple order, the sort is a flat integer
//! sort, and a level-`d` seek extracts one bit-field per comparison
//! without touching the columns. Values escaping the packed layout fall
//! back to comparator order over the raw columns (the ordered analogue of
//! the hashed fallback that [`crate::index::PersistentIndex`] uses for
//! escaping keys).
//!
//! The operator is sink-fused like every other producer in this crate
//! ([`SinkMode`]): each satisfying binding is offered at the leaf to the
//! [`DeltaSink`](crate::sink::DeltaSink) / `AggSink` of the fused
//! pipeline, so WCOJ-produced rows dedup and subtract `R` at the probe
//! site and never materialize an `Rt`. One row is emitted per *distinct
//! variable binding* — a duplicate-free refinement of the UNION-ALL
//! contract that the downstream dedup (fused or materializing) makes
//! indistinguishable from the binary plan's output.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use recstep_common::Value;
use recstep_storage::RelView;

use crate::expr::{eval_all, Expr, Predicate};
use crate::key::{bounds_of, KeyLayout};
use crate::sink::SinkMode;
use crate::util::{parallel_produce, CapGate, ColBuf};
use crate::ExecCtx;

/// Sort-order backing of a [`ScanTrie`].
enum TrieOrd {
    /// Rows packed to `u64` compact keys in lexicographic layout (first
    /// sort column in the highest bits); `keys` is parallel to the sorted
    /// row ids, and per-depth `(shift, mask, min)` extract one column.
    Packed {
        keys: Vec<u64>,
        shifts: Vec<u32>,
        masks: Vec<u64>,
        mins: Vec<Value>,
    },
    /// Values escape 64 packed bits: comparisons read the raw columns
    /// through the view.
    Raw,
}

/// One body atom's rows sorted by its columns in global variable order —
/// the leapfrog-style access structure of the generic join.
pub struct ScanTrie<'a> {
    view: RelView<'a>,
    cols: Vec<usize>,
    rows: Vec<u32>,
    ord: TrieOrd,
}

impl<'a> ScanTrie<'a> {
    /// Sort `view`'s rows by `cols` (scan-local column indices, ordered by
    /// the global variable order). Packs to compact keys when the columns'
    /// bounds fit 64 bits, otherwise sorts by raw value comparison.
    pub fn build(view: RelView<'a>, cols: &[usize]) -> ScanTrie<'a> {
        let n = view.len();
        let cols = cols.to_vec();
        // Reverse the columns for packing so the first sort column lands at
        // the highest shift: u64 order of the packed keys is then the
        // lexicographic order of the column tuple.
        let rev_cols: Vec<usize> = cols.iter().rev().copied().collect();
        let layout = bounds_of(view, &rev_cols).and_then(|b| KeyLayout::from_bounds(&b));
        match layout {
            Some(layout) => {
                let mut pairs: Vec<(u64, u32)> = (0..n)
                    .map(|r| (layout.pack_row(view, r, &rev_cols), r as u32))
                    .collect();
                pairs.sort_unstable();
                let d = cols.len();
                let mut shifts = vec![0u32; d];
                let mut masks = vec![0u64; d];
                let mut mins = vec![0 as Value; d];
                for (k, slot) in layout.slots().iter().enumerate() {
                    // Slot k packs rev_cols[k] = sort column d-1-k.
                    let depth = d - 1 - k;
                    shifts[depth] = slot.shift;
                    masks[depth] = if slot.bits >= 64 {
                        u64::MAX
                    } else {
                        (1u64 << slot.bits) - 1
                    };
                    mins[depth] = slot.min;
                }
                let (keys, rows) = pairs.into_iter().unzip();
                ScanTrie {
                    view,
                    cols,
                    rows,
                    ord: TrieOrd::Packed {
                        keys,
                        shifts,
                        masks,
                        mins,
                    },
                }
            }
            None => {
                let mut rows: Vec<u32> = (0..n as u32).collect();
                rows.sort_unstable_by(|&a, &b| {
                    cols.iter()
                        .map(|&c| view.get(a as usize, c).cmp(&view.get(b as usize, c)))
                        .find(|o| o.is_ne())
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                ScanTrie {
                    view,
                    cols,
                    rows,
                    ord: TrieOrd::Raw,
                }
            }
        }
    }

    /// Number of (sorted) rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the trie holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Value of sort column `depth` at sorted position `pos`.
    #[inline]
    fn value_at(&self, pos: usize, depth: usize) -> Value {
        match &self.ord {
            TrieOrd::Packed {
                keys,
                shifts,
                masks,
                mins,
            } => {
                // `min + off` is a value the layout was built from, so the
                // sum is exact modulo 2^64 even when `off` exceeds
                // `i64::MAX` — no need to widen on every search step.
                let off = (keys[pos] >> shifts[depth]) & masks[depth];
                mins[depth].wrapping_add(off as Value)
            }
            TrieOrd::Raw => self.view.get(self.rows[pos] as usize, self.cols[depth]),
        }
    }

    /// Seek: the sub-range of `range` whose sort column `depth` equals `v`.
    /// `range` must hold the first `depth` sort columns fixed (the
    /// recursion's invariant), so comparing column `depth` alone is a
    /// total order within it.
    #[inline]
    fn equal_range(&self, range: Range<usize>, depth: usize, v: Value) -> Range<usize> {
        let lo = lower_bound(range.clone(), |i| self.value_at(i, depth) < v);
        let hi = lower_bound(lo..range.end, |i| self.value_at(i, depth) <= v);
        lo..hi
    }
}

/// First index in `range` where `below` turns false (`below` must be
/// monotonically true-then-false over the range).
#[inline]
fn lower_bound(range: Range<usize>, below: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (range.start, range.end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Positional spec of one generic-join evaluation (the execution half of
/// the planner's `WcojPlan`; see `recstep_datalog::plan`).
pub struct WcojSpec<'a> {
    /// Number of join variables (= trie levels), in elimination order.
    pub levels: usize,
    /// Per scan: its column indices ordered by the global variable order.
    pub scan_cols: &'a [Vec<usize>],
    /// Per level: `(scan, depth)` participants — the scans binding this
    /// level's variable, with the variable's depth in that scan's sort
    /// order.
    pub level_scans: &'a [Vec<(usize, usize)>],
    /// Per level: flattened-row positions the bound value is written to
    /// (every occurrence of the variable across the body).
    pub level_slots: &'a [Vec<usize>],
    /// Width of the flattened body row the projection reads.
    pub width: usize,
    /// Projection to the head layout.
    pub output: &'a [Expr],
    /// Residual predicates over the flattened row.
    pub residual: &'a [Predicate],
}

/// Per-worker state of one generic-join enumeration.
struct Walk<'a, 'b> {
    tries: &'a [ScanTrie<'a>],
    spec: &'a WcojSpec<'a>,
    sink: &'a SinkMode<'a>,
    gate: &'a CapGate,
    buf: &'b mut ColBuf,
    /// Current sorted sub-range per scan (narrowed as levels bind).
    ranges: Vec<Range<usize>>,
    /// Saved ranges for restore on backtrack (one segment per live level).
    saved: Vec<(usize, Range<usize>)>,
    /// The flattened body row being built, one variable at a time.
    row: Vec<Value>,
    out_row: Vec<Value>,
    snapshot: usize,
    local: usize,
    considered: usize,
    emitted: usize,
}

impl Walk<'_, '_> {
    /// Enumerate all bindings of `level..`. Returns `false` when the row
    /// cap was reached and enumeration must stop.
    fn descend(&mut self, level: usize) -> bool {
        if level == self.spec.levels {
            return self.leaf();
        }
        let parts = &self.spec.level_scans[level];
        let (lead, lead_depth) = parts
            .iter()
            .copied()
            .min_by_key(|&(s, _)| self.ranges[s].len())
            .expect("every level has a participating scan");
        let end = self.ranges[lead].end;
        let mut pos = self.ranges[lead].start;
        while pos < end {
            let v = self.tries[lead].value_at(pos, lead_depth);
            let run = self.tries[lead].equal_range(pos..end, lead_depth, v);
            if !self.try_value(level, lead, run.clone(), v) {
                return false;
            }
            pos = run.end;
        }
        true
    }

    /// Intersect: seek every participant of `level` to `v` (the lead is
    /// already narrowed to `lead_run`); on success bind and recurse.
    /// Restores all narrowed ranges before returning.
    fn try_value(&mut self, level: usize, lead: usize, lead_run: Range<usize>, v: Value) -> bool {
        let base = self.saved.len();
        let mut ok = true;
        for &(s, d) in &self.spec.level_scans[level] {
            let narrowed = if s == lead {
                lead_run.clone()
            } else {
                self.tries[s].equal_range(self.ranges[s].clone(), d, v)
            };
            if narrowed.is_empty() {
                ok = false;
                break;
            }
            self.saved.push((s, self.ranges[s].clone()));
            self.ranges[s] = narrowed;
        }
        let keep_going = if ok {
            for &slot in &self.spec.level_slots[level] {
                self.row[slot] = v;
            }
            self.descend(level + 1)
        } else {
            true
        };
        while self.saved.len() > base {
            let (s, r) = self.saved.pop().expect("pushed above");
            self.ranges[s] = r;
        }
        keep_going
    }

    /// A full binding: evaluate the residual and emit through the sink
    /// (the same probe-site fusion as `join.rs`). Returns `false` on cap.
    #[inline]
    fn leaf(&mut self) -> bool {
        if self.gate.reached(&mut self.snapshot, &mut self.local) {
            return false;
        }
        if !eval_all(self.spec.residual, &self.row) {
            return true;
        }
        self.emitted += 1;
        if self.sink.emit(
            self.spec.output,
            &self.row,
            self.buf,
            &mut self.out_row,
            &mut self.considered,
        ) {
            self.local += 1;
        }
        true
    }
}

/// Evaluate one cyclic subquery with the generic worst-case optimal join,
/// streaming each satisfying binding through `sink`. Returns the
/// materialized columns (fresh rows under a `Delta` sink, everything under
/// `Materialize`, nothing under `Agg`) and the number of bindings emitted
/// into the sink (pre-dedup).
///
/// Parallelism follows the crate's morsel idiom: workers split the
/// level-0 lead trie's sorted rows, each owning the distinct-value runs
/// that *start* inside its range, and produce into worker-local
/// [`ColBuf`]s. `ctx.row_cap` bounds total materialization through a
/// shared [`CapGate`], exactly as the binary joins do.
pub fn wcoj_sink(
    ctx: &ExecCtx,
    views: &[RelView<'_>],
    spec: &WcojSpec<'_>,
    sink: &SinkMode<'_>,
) -> (Vec<Vec<Value>>, usize) {
    let out_arity = spec.output.len();
    debug_assert_eq!(views.len(), spec.scan_cols.len());
    if spec.levels == 0 || views.iter().any(|v| v.is_empty()) {
        return (vec![Vec::new(); out_arity], 0);
    }
    let tries: Vec<ScanTrie<'_>> = views
        .iter()
        .zip(spec.scan_cols)
        .map(|(v, cols)| ScanTrie::build(*v, cols))
        .collect();
    // Level-0 participants seek at depth 0 by construction (a scan whose
    // first sort column were a later level would first participate there).
    let (lead0, _) = spec.level_scans[0]
        .iter()
        .copied()
        .min_by_key(|&(s, _)| tries[s].len())
        .expect("level 0 has a participating scan");
    let n = tries[lead0].len();
    let emitted = AtomicUsize::new(0);
    let gate = CapGate::new(ctx.row_cap);
    let cols = parallel_produce(&ctx.pool, n, ctx.grain, out_arity, |range, buf| {
        let Some(snapshot) = gate.start() else { return };
        let mut walk = Walk {
            tries: &tries,
            spec,
            sink,
            gate: &gate,
            buf,
            ranges: tries.iter().map(|t| 0..t.len()).collect(),
            saved: Vec::with_capacity(spec.levels * 2),
            row: vec![0; spec.width],
            out_row: Vec::with_capacity(out_arity),
            snapshot,
            local: 0,
            considered: 0,
            emitted: 0,
        };
        // Own the level-0 value runs that start inside `range`: skip past
        // a run another worker started, stop at the first run starting at
        // or beyond `range.end`, but follow an owned run to its real end.
        let mut pos = range.start;
        if pos > 0 && walk.tries[lead0].value_at(pos, 0) == walk.tries[lead0].value_at(pos - 1, 0) {
            let v = walk.tries[lead0].value_at(pos, 0);
            pos = walk.tries[lead0].equal_range(pos..n, 0, v).end;
        }
        while pos < range.end {
            let v = walk.tries[lead0].value_at(pos, 0);
            let run = walk.tries[lead0].equal_range(pos..n, 0, v);
            if !walk.try_value(0, lead0, run.clone(), v) {
                break;
            }
            pos = run.end;
        }
        sink.note_considered(walk.considered);
        emitted.fetch_add(walk.emitted, Ordering::Relaxed);
        gate.commit(walk.local);
    });
    (cols, emitted.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::PersistentIndex;
    use crate::sink::DeltaSink;
    use recstep_storage::{Relation, Schema};

    fn ctx() -> ExecCtx {
        ExecCtx::with_threads(4)
    }

    type TriangleParts = ([Vec<usize>; 3], [Vec<(usize, usize)>; 3], [Vec<usize>; 3]);

    /// Triangle layout over three binary scans of one edge relation:
    /// `t(x,y,z) :- e(x,y), e(y,z), e(x,z)` with variable order x, y, z.
    fn triangle_parts() -> TriangleParts {
        // Variable order x(0), y(1), z(2); scans e(x,y), e(y,z), e(x,z).
        let scan_cols = [vec![0, 1], vec![0, 1], vec![0, 1]];
        let level_scans = [
            vec![(0, 0), (2, 0)],
            vec![(0, 1), (1, 0)],
            vec![(1, 1), (2, 1)],
        ];
        let level_slots = [vec![0, 4], vec![1, 2], vec![3, 5]];
        (scan_cols, level_scans, level_slots)
    }

    fn triangles_of(edges: &[(Value, Value)], sink_fused: bool) -> Vec<Vec<Value>> {
        let ctx = ctx();
        let rows: Vec<Vec<Value>> = edges.iter().map(|&(a, b)| vec![a, b]).collect();
        let rel = Relation::from_rows(Schema::with_arity("e", 2), &rows);
        let output = vec![Expr::Col(0), Expr::Col(1), Expr::Col(3)];
        let (scan_cols, level_scans, level_slots) = triangle_parts();
        let spec = WcojSpec {
            levels: 3,
            scan_cols: &scan_cols,
            level_scans: &level_scans,
            level_slots: &level_slots,
            width: 6,
            output: &output,
            residual: &[],
        };
        let views = [rel.view(), rel.view(), rel.view()];
        let cols = if sink_fused {
            let base = Relation::new(Schema::with_arity("t", 3));
            let idx = PersistentIndex::build(&ctx, base.view(), vec![0, 1, 2]);
            let sink = DeltaSink::new(&idx, base.view(), 16);
            let (cols, emitted) = wcoj_sink(&ctx, &views, &spec, &SinkMode::Delta(&sink));
            assert_eq!(
                emitted,
                cols.first().map_or(0, Vec::len),
                "distinct bindings into an empty-base sink are all fresh"
            );
            cols
        } else {
            wcoj_sink(&ctx, &views, &spec, &SinkMode::Materialize).0
        };
        let n = cols.first().map_or(0, Vec::len);
        let mut out: Vec<Vec<Value>> = (0..n)
            .map(|r| cols.iter().map(|c| c[r]).collect())
            .collect();
        out.sort();
        out
    }

    fn brute_triangles(edges: &[(Value, Value)]) -> Vec<Vec<Value>> {
        let set: std::collections::HashSet<(Value, Value)> = edges.iter().copied().collect();
        let mut out = Vec::new();
        for &(x, y) in &set {
            for &(y2, z) in &set {
                if y2 == y && set.contains(&(x, z)) {
                    out.push(vec![x, y, z]);
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn triangle_enumeration_matches_brute_force() {
        let edges = [
            (1, 2),
            (2, 3),
            (1, 3),
            (3, 4),
            (2, 4),
            (1, 4),
            (4, 1),
            (5, 5),
        ];
        let expect = brute_triangles(&edges);
        assert!(!expect.is_empty());
        assert_eq!(triangles_of(&edges, false), expect);
        assert_eq!(triangles_of(&edges, true), expect);
    }

    #[test]
    fn raw_fallback_agrees_with_packed_order() {
        // Values spanning the full i64 range escape any packed layout.
        let edges = [
            (Value::MIN, 0),
            (0, Value::MAX),
            (Value::MIN, Value::MAX),
            (1, 2),
            (2, 3),
            (1, 3),
        ];
        let expect = brute_triangles(&edges);
        assert_eq!(triangles_of(&edges, false), expect);
    }

    #[test]
    fn duplicate_input_rows_emit_one_binding() {
        let edges = [(1, 2), (1, 2), (2, 3), (2, 3), (1, 3)];
        assert_eq!(triangles_of(&edges, false), vec![vec![1, 2, 3]]);
    }

    #[test]
    fn empty_scan_yields_nothing() {
        assert!(triangles_of(&[], false).is_empty());
        assert!(triangles_of(&[(1, 2), (2, 3)], true).is_empty());
    }

    #[test]
    fn trie_orders_and_seeks_consistently() {
        let rel = Relation::from_rows(
            Schema::with_arity("e", 2),
            &[vec![3, 1], vec![1, 2], vec![1, 1], vec![2, 9], vec![1, 2]],
        );
        let t = ScanTrie::build(rel.view(), &[0, 1]);
        assert!(matches!(t.ord, TrieOrd::Packed { .. }));
        let sorted: Vec<(Value, Value)> = (0..t.len())
            .map(|p| (t.value_at(p, 0), t.value_at(p, 1)))
            .collect();
        let mut expect = vec![(1, 1), (1, 2), (1, 2), (2, 9), (3, 1)];
        expect.sort();
        assert_eq!(sorted, expect);
        let ones = t.equal_range(0..t.len(), 0, 1);
        assert_eq!(ones, 0..3);
        assert_eq!(t.equal_range(ones.clone(), 1, 2), 1..3);
        assert!(t.equal_range(ones, 1, 7).is_empty());
        assert!(t.equal_range(0..t.len(), 0, 0).is_empty());
    }

    #[test]
    fn packed_values_are_exact_when_offsets_pass_i64_max() {
        // One full-range column packs into exactly 64 bits; offsets from
        // the minimum then exceed i64::MAX and must still decode exactly.
        let vals = [Value::MAX, -1, Value::MIN, 0, Value::MAX - 1];
        let rows: Vec<Vec<Value>> = vals.iter().map(|&v| vec![v]).collect();
        let rel = Relation::from_rows(Schema::with_arity("u", 1), &rows);
        let t = ScanTrie::build(rel.view(), &[0]);
        assert!(matches!(t.ord, TrieOrd::Packed { .. }));
        let mut expect = vals.to_vec();
        expect.sort_unstable();
        let got: Vec<Value> = (0..t.len()).map(|p| t.value_at(p, 0)).collect();
        assert_eq!(got, expect);
        assert_eq!(t.equal_range(0..t.len(), 0, Value::MAX), 4..5);
    }

    #[test]
    fn row_cap_truncates_materialization() {
        let mut edges = Vec::new();
        // A clique of 12 nodes: 12·11·10 = 1320 directed triangles.
        for a in 0..12 {
            for b in 0..12 {
                if a != b {
                    edges.push((a, b));
                }
            }
        }
        let ctx2 = ExecCtx {
            row_cap: 10,
            ..ctx()
        };
        let rows: Vec<Vec<Value>> = edges.iter().map(|&(a, b)| vec![a, b]).collect();
        let rel = Relation::from_rows(Schema::with_arity("e", 2), &rows);
        let output = vec![Expr::Col(0), Expr::Col(1), Expr::Col(3)];
        let (scan_cols, level_scans, level_slots) = triangle_parts();
        let spec = WcojSpec {
            levels: 3,
            scan_cols: &scan_cols,
            level_scans: &level_scans,
            level_slots: &level_slots,
            width: 6,
            output: &output,
            residual: &[],
        };
        let views = [rel.view(), rel.view(), rel.view()];
        let (cols, _) = wcoj_sink(&ctx2, &views, &spec, &SinkMode::Materialize);
        let n = cols.first().map_or(0, Vec::len);
        assert!(n >= 10, "workers emit up to the cap");
        assert!(n < 1320, "the gate stopped enumeration early");
    }

    #[test]
    fn residual_filters_bindings() {
        let edges = [(1, 2), (2, 3), (1, 3), (2, 1), (3, 1), (3, 2)];
        let ctx = ctx();
        let rows: Vec<Vec<Value>> = edges.iter().map(|&(a, b)| vec![a, b]).collect();
        let rel = Relation::from_rows(Schema::with_arity("e", 2), &rows);
        let output = vec![Expr::Col(0), Expr::Col(1), Expr::Col(3)];
        let residual = vec![Predicate {
            lhs: Expr::Col(0),
            op: crate::expr::CmpOp::Lt,
            rhs: Expr::Col(1),
        }];
        let (scan_cols, level_scans, level_slots) = triangle_parts();
        let spec = WcojSpec {
            levels: 3,
            scan_cols: &scan_cols,
            level_scans: &level_scans,
            level_slots: &level_slots,
            width: 6,
            output: &output,
            residual: &residual,
        };
        let views = [rel.view(), rel.view(), rel.view()];
        let (cols, emitted) = wcoj_sink(&ctx, &views, &spec, &SinkMode::Materialize);
        let n = cols.first().map_or(0, Vec::len);
        assert_eq!(n, emitted);
        for (x, y) in cols[0].iter().zip(&cols[1]) {
            assert!(x < y);
        }
        assert!(n > 0);
    }
}
