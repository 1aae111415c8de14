//! Worst-case optimal multiway join (generic join) as a leapfrog over
//! sorted, decoded tries.
//!
//! Binary join chains lose an asymptotic factor on cyclic rule bodies: the
//! triangle query `t(x,y,z) :- arc(x,y), arc(y,z), arc(x,z)` materializes
//! every 2-path before the closing edge filters them, `Θ(n·d²)` work for an
//! output the AGM bound caps at `O(m^{3/2})`. The generic join evaluates
//! one *variable* at a time instead of one *atom* at a time: for each
//! variable in a global elimination order, intersect the candidate values
//! of every atom containing it, bind, and recurse.
//!
//! Each level's intersection is a leapfrog, as in a merge of sorted lists:
//! every participant keeps a cursor that only moves forward, and the
//! participants take turns seeking to the largest value any of them holds
//! until all agree. A seek gallops (probe 1, 2, 4, … positions ahead, then
//! binary-search the last gap), so skipping `k` values costs `O(log k)`
//! and a participant is never searched from the start of its range again.
//! The work per level is then bounded by the smallest participant, which
//! is what makes the algorithm worst-case optimal.
//!
//! The access structure is a [`ScanTrie`] per distinct body scan: the
//! scan's values sorted by its columns in global variable order and kept
//! decoded, one `Vec<Value>` per sort column, so reading a trie position is
//! one slice read. Sorting rides the CCK machinery of [`crate::key`]: when
//! the scan's key columns fit a packed [`KeyLayout`], each row packs to one
//! `u64` laid out so the *first* sort column occupies the *highest* bits —
//! plain `u64` order is then exactly lexicographic tuple order, the sort is
//! a flat integer sort, and the sorted keys decode column by column.
//! Values escaping the packed layout fall back to comparator order over the
//! raw columns (the ordered analogue of the hashed fallback that
//! [`crate::index::PersistentIndex`] uses for escaping keys). Scans that
//! read the same rows in the same column order — TRIANGLE's three `arc`
//! atoms — share one trie.
//!
//! The operator is sink-fused like every other producer in this crate
//! ([`SinkMode`]): each satisfying binding is offered at the leaf to the
//! [`DeltaSink`](crate::sink::DeltaSink) / `AggSink` of the fused
//! pipeline, so WCOJ-produced rows dedup and subtract `R` at the probe
//! site and never materialize an `Rt`. One row is emitted per *distinct
//! variable binding* — a duplicate-free refinement of the UNION-ALL
//! contract that the downstream dedup (fused or materializing) makes
//! indistinguishable from the binary plan's output. A head that keeps
//! every variable therefore projects to distinct rows, which is what lets
//! the caller skip the sink's table altogether when nothing else feeds it.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use recstep_common::Value;
use recstep_storage::RelView;

use crate::expr::{eval_all, Expr, Predicate};
use crate::key::{bounds_of, KeyLayout};
use crate::sink::SinkMode;
use crate::util::{parallel_produce, CapGate, ColBuf};
use crate::ExecCtx;

/// One body scan's rows sorted by its columns in global variable order,
/// stored decoded: `cols[depth]` holds sort column `depth` in sorted row
/// order — the leapfrog's access structure.
pub struct ScanTrie {
    cols: Vec<Vec<Value>>,
    /// The rows sorted as packed `u64` keys (else by comparator).
    packed: bool,
}

impl ScanTrie {
    /// Sort `view`'s rows by `cols` (scan-local column indices, ordered by
    /// the global variable order). Packs to compact keys when the columns'
    /// bounds fit 64 bits, otherwise sorts by raw value comparison.
    pub fn build(view: RelView<'_>, cols: &[usize]) -> ScanTrie {
        let n = view.len();
        let d = cols.len();
        // Reverse the columns for packing so the first sort column lands at
        // the highest shift: u64 order of the packed keys is then the
        // lexicographic order of the column tuple.
        let rev_cols: Vec<usize> = cols.iter().rev().copied().collect();
        let layout = bounds_of(view, &rev_cols).and_then(|b| KeyLayout::from_bounds(&b));
        let Some(layout) = layout else {
            let mut rows: Vec<u32> = (0..n as u32).collect();
            rows.sort_unstable_by(|&a, &b| {
                cols.iter()
                    .map(|&c| view.get(a as usize, c).cmp(&view.get(b as usize, c)))
                    .find(|o| o.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let cols = cols
                .iter()
                .map(|&c| rows.iter().map(|&r| view.get(r as usize, c)).collect())
                .collect();
            return ScanTrie {
                cols,
                packed: false,
            };
        };
        let mut keys: Vec<u64> = (0..n)
            .map(|r| layout.pack_row(view, r, &rev_cols))
            .collect();
        keys.sort_unstable();
        let mut decoded = vec![Vec::new(); d];
        for (k, slot) in layout.slots().iter().enumerate() {
            let mask = if slot.bits >= 64 {
                u64::MAX
            } else {
                (1u64 << slot.bits) - 1
            };
            // Slot k packs rev_cols[k] = sort column d-1-k. `min + off` is
            // a value the layout was built from, so the sum is exact modulo
            // 2^64 even when `off` exceeds `i64::MAX`.
            decoded[d - 1 - k] = keys
                .iter()
                .map(|&key| slot.min.wrapping_add(((key >> slot.shift) & mask) as Value))
                .collect();
        }
        ScanTrie {
            cols: decoded,
            packed: true,
        }
    }

    /// Number of (sorted) rows.
    pub fn len(&self) -> usize {
        self.cols.first().map_or(0, Vec::len)
    }

    /// True when the trie holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the rows sorted as packed `u64` keys, false when their
    /// values escaped 64 bits and sorted by comparator.
    pub fn is_packed(&self) -> bool {
        self.packed
    }
}

/// First position in `lo..hi` whose value is not below `v` (`col[lo..hi]`
/// sorted). Gallops from `lo`, so the cost is logarithmic in the distance
/// moved, not in the range.
#[inline]
fn seek(col: &[Value], lo: usize, hi: usize, v: Value) -> usize {
    gallop(col, lo, hi, |x| x < v)
}

/// End of the run of `v` starting at `lo` (`col[lo] == v`): the first
/// position in `lo..hi` whose value exceeds `v`.
#[inline]
fn run_end(col: &[Value], lo: usize, hi: usize, v: Value) -> usize {
    gallop(col, lo, hi, |x| x <= v)
}

/// First position in `lo..hi` where `below` turns false (`below` must be
/// true-then-false over the range): probe `lo`, `lo + 1`, `lo + 3`,
/// `lo + 7`, … until a probe is not below, then binary-search the last gap.
#[inline]
fn gallop(col: &[Value], lo: usize, hi: usize, below: impl Fn(Value) -> bool) -> usize {
    if lo >= hi || !below(col[lo]) {
        return lo;
    }
    // `prev` is the last position known to be below.
    let (mut prev, mut step) = (lo, 1);
    let bound = loop {
        let probe = prev + step;
        if probe >= hi {
            break hi;
        }
        if !below(col[probe]) {
            break probe;
        }
        prev = probe;
        step *= 2;
    };
    prev + 1 + col[prev + 1..bound].partition_point(|&x| below(x))
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

/// The participants of every level, flattened: level `l` owns positions
/// `first[l]..first[l + 1]` of `scan` and `col`.
struct Parts<'a> {
    first: Vec<usize>,
    /// The participant's scan (whose range it reads and narrows).
    scan: Vec<usize>,
    /// The participant's sort column, decoded, over the whole trie.
    col: Vec<&'a [Value]>,
}

/// Per-worker state of one generic-join enumeration.
struct Walk<'a, 'b> {
    parts: &'a Parts<'a>,
    spec: &'a WcojSpec<'a>,
    sink: &'a SinkMode<'a>,
    gate: &'a CapGate,
    buf: &'b mut ColBuf,
    /// Current sorted sub-range per scan (narrowed as levels bind): the
    /// first `depth` sort columns are fixed inside it, so column `depth`
    /// is sorted there.
    ranges: Vec<Range<usize>>,
    /// Per participant: its leapfrog cursor, and its scan's range on entry
    /// to the participant's level (restored on exit).
    cursor: Vec<usize>,
    entry: Vec<Range<usize>>,
    /// The flattened body row being built, one variable at a time.
    row: Vec<Value>,
    out_row: Vec<Value>,
    snapshot: usize,
    local: usize,
    considered: usize,
    emitted: usize,
}

impl Walk<'_, '_> {
    /// Enumerate all bindings of `level..`: leapfrog-intersect the level's
    /// participants, bind each common value and recurse. Returns `false`
    /// when the row cap was reached and enumeration must stop.
    fn descend(&mut self, level: usize) -> bool {
        if level == self.spec.levels {
            return self.leaf();
        }
        let parts = self.parts;
        let (p0, pend) = (parts.first[level], parts.first[level + 1]);
        for p in p0..pend {
            let range = self.ranges[parts.scan[p]].clone();
            if range.is_empty() {
                return true;
            }
            self.cursor[p] = range.start;
            self.entry[p] = range;
        }
        let k = pend - p0;
        let mut keep_going = true;
        'values: loop {
            // Leapfrog: seek each participant in turn to the largest value
            // seen so far until `k` consecutive ones agree on it.
            let mut v = parts.col[p0][self.cursor[p0]];
            let (mut agree, mut p) = (1, p0);
            while agree < k {
                p = if p + 1 == pend { p0 } else { p + 1 };
                let end = self.entry[p].end;
                let c = seek(parts.col[p], self.cursor[p], end, v);
                if c == end {
                    break 'values;
                }
                self.cursor[p] = c;
                let w = parts.col[p][c];
                if w == v {
                    agree += 1;
                } else {
                    (v, agree) = (w, 1);
                }
            }
            // Every participant sits on `v`: narrow each to its run of
            // `v`, and move its cursor past the run.
            let mut exhausted = false;
            for p in p0..pend {
                let end = run_end(parts.col[p], self.cursor[p], self.entry[p].end, v);
                self.ranges[parts.scan[p]] = self.cursor[p]..end;
                self.cursor[p] = end;
                exhausted |= end == self.entry[p].end;
            }
            for &slot in &self.spec.level_slots[level] {
                self.row[slot] = v;
            }
            if !self.descend(level + 1) {
                keep_going = false;
                break;
            }
            if exhausted {
                break;
            }
        }
        for p in p0..pend {
            self.ranges[parts.scan[p]] = self.entry[p].clone();
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

/// True when `a` and `b` view the very same rows (same column storage,
/// same window) — their tries in one column order are identical.
fn same_rows(a: RelView<'_>, b: RelView<'_>) -> bool {
    a.arity() == b.arity() && (0..a.arity()).all(|c| std::ptr::eq(a.col(c), b.col(c)))
}

/// Evaluate one cyclic subquery with the generic worst-case optimal join,
/// streaming each satisfying binding through `sink`. Returns the
/// materialized columns (fresh rows under a `Delta` sink, everything under
/// `Materialize`, nothing under `Agg`) and the number of bindings emitted
/// into the sink (pre-dedup).
///
/// One trie is built per distinct (view, column order) pair. Parallelism
/// follows the crate's morsel idiom: workers split the level-0 lead
/// trie's sorted rows, each owning the distinct-value runs that *start*
/// inside its range, and produce into worker-local [`ColBuf`]s.
/// `ctx.row_cap` bounds total materialization through a shared
/// [`CapGate`], exactly as the binary joins do.
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
    let mut tries: Vec<ScanTrie> = Vec::with_capacity(views.len());
    let mut trie_of: Vec<usize> = Vec::with_capacity(views.len());
    for (i, (&view, cols)) in views.iter().zip(spec.scan_cols).enumerate() {
        let shared = (0..i).find(|&j| same_rows(views[j], view) && spec.scan_cols[j] == *cols);
        trie_of.push(match shared {
            Some(j) => trie_of[j],
            None => {
                tries.push(ScanTrie::build(view, cols));
                tries.len() - 1
            }
        });
    }
    let mut parts = Parts {
        first: vec![0],
        scan: Vec::new(),
        col: Vec::new(),
    };
    for level in spec.level_scans {
        for &(s, d) in level {
            parts.scan.push(s);
            parts.col.push(&tries[trie_of[s]].cols[d]);
        }
        parts.first.push(parts.scan.len());
    }
    // Level-0 participants seek at depth 0 by construction (a scan whose
    // first sort column were a later level would first participate there).
    let (lead0, _) = spec.level_scans[0]
        .iter()
        .copied()
        .min_by_key(|&(s, _)| tries[trie_of[s]].len())
        .expect("level 0 has a participating scan");
    let lead_col: &[Value] = &tries[trie_of[lead0]].cols[0];
    let n = lead_col.len();
    let emitted = AtomicUsize::new(0);
    let gate = CapGate::new(ctx.row_cap);
    let cols = parallel_produce(&ctx.pool, n, ctx.grain, out_arity, |range, buf| {
        // Own the level-0 value runs that start inside `range`: skip past
        // a run another worker started, and follow the last owned run to
        // its real end.
        let mut start = range.start;
        if start > 0 && lead_col[start] == lead_col[start - 1] {
            start = run_end(lead_col, start, n, lead_col[start]);
        }
        let mut end = range.end;
        if end < n && lead_col[end] == lead_col[end - 1] {
            end = run_end(lead_col, end, n, lead_col[end]);
        }
        if start >= end {
            return;
        }
        let Some(snapshot) = gate.start() else { return };
        let mut ranges: Vec<Range<usize>> = trie_of.iter().map(|&t| 0..tries[t].len()).collect();
        ranges[lead0] = start..end;
        let mut walk = Walk {
            parts: &parts,
            spec,
            sink,
            gate: &gate,
            buf,
            ranges,
            cursor: vec![0; parts.scan.len()],
            entry: vec![0..0; parts.scan.len()],
            row: vec![0; spec.width],
            out_row: Vec::with_capacity(out_arity),
            snapshot,
            local: 0,
            considered: 0,
            emitted: 0,
        };
        walk.descend(0);
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

    /// The run of `v` in sort column `depth` within `range`, by the
    /// walk's own galloping seek and run end.
    fn equal_range(t: &ScanTrie, range: Range<usize>, depth: usize, v: Value) -> Range<usize> {
        let col = &t.cols[depth];
        let lo = seek(col, range.start, range.end, v);
        if lo == range.end || col[lo] != v {
            return lo..lo;
        }
        lo..run_end(col, lo, range.end, v)
    }

    #[test]
    fn trie_orders_and_seeks_consistently() {
        let rel = Relation::from_rows(
            Schema::with_arity("e", 2),
            &[vec![3, 1], vec![1, 2], vec![1, 1], vec![2, 9], vec![1, 2]],
        );
        let t = ScanTrie::build(rel.view(), &[0, 1]);
        assert!(t.is_packed());
        let sorted: Vec<(Value, Value)> =
            (0..t.len()).map(|p| (t.cols[0][p], t.cols[1][p])).collect();
        let mut expect = vec![(1, 1), (1, 2), (1, 2), (2, 9), (3, 1)];
        expect.sort();
        assert_eq!(sorted, expect);
        let ones = equal_range(&t, 0..t.len(), 0, 1);
        assert_eq!(ones, 0..3);
        assert_eq!(equal_range(&t, ones.clone(), 1, 2), 1..3);
        assert!(equal_range(&t, ones, 1, 7).is_empty());
        assert!(equal_range(&t, 0..t.len(), 0, 0).is_empty());
    }

    #[test]
    fn packed_values_are_exact_when_offsets_pass_i64_max() {
        // One full-range column packs into exactly 64 bits; offsets from
        // the minimum then exceed i64::MAX and must still decode exactly.
        let vals = [Value::MAX, -1, Value::MIN, 0, Value::MAX - 1];
        let rows: Vec<Vec<Value>> = vals.iter().map(|&v| vec![v]).collect();
        let rel = Relation::from_rows(Schema::with_arity("u", 1), &rows);
        let t = ScanTrie::build(rel.view(), &[0]);
        assert!(t.is_packed());
        let mut expect = vals.to_vec();
        expect.sort_unstable();
        assert_eq!(t.cols[0], expect);
        assert_eq!(equal_range(&t, 0..t.len(), 0, Value::MAX), 4..5);
    }

    #[test]
    fn comparator_fallback_sorts_escaping_columns() {
        let rows = vec![
            vec![Value::MAX, 1],
            vec![Value::MIN, 2],
            vec![0, 0],
            vec![Value::MIN, 1],
        ];
        let rel = Relation::from_rows(Schema::with_arity("e", 2), &rows);
        // Sort by column 1 first, then column 0.
        let t = ScanTrie::build(rel.view(), &[1, 0]);
        assert!(!t.is_packed(), "two full-range columns escape 64 bits");
        assert_eq!(t.cols[0], vec![0, 1, 1, 2]);
        assert_eq!(t.cols[1], vec![0, Value::MIN, Value::MAX, Value::MIN]);
    }

    #[test]
    fn gallop_finds_every_bound() {
        let col: Vec<Value> = vec![1, 1, 2, 4, 4, 4, 4, 7, 9, 9];
        for lo in 0..col.len() {
            for v in 0..11 {
                let want_seek = lo + col[lo..].iter().take_while(|&&x| x < v).count();
                assert_eq!(
                    seek(&col, lo, col.len(), v),
                    want_seek,
                    "seek {v} from {lo}"
                );
                if col[lo] == v {
                    let want_end = lo + col[lo..].iter().take_while(|&&x| x <= v).count();
                    assert_eq!(run_end(&col, lo, col.len(), v), want_end);
                }
            }
        }
        assert_eq!(seek(&col, 3, 5, 9), 5, "a seek never passes its range end");
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

    /// splitmix64: a reproducible stream for the randomized tests.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// Edges over `n` nodes skewed toward hub node 0 (about a third of the
    /// edges touch it), with about one edge in eight repeated; `label`
    /// maps a node to its stored value.
    fn hub_edges(rng: &mut Rng, n: u64, m: usize, label: impl Fn(u64) -> Value) -> Vec<Vec<Value>> {
        let mut out = Vec::with_capacity(m + m / 8);
        for _ in 0..m {
            let (a, b) = match rng.below(3) {
                0 => (0, rng.below(n)),
                1 => (rng.below(n), 0),
                _ => (rng.below(n), rng.below(n)),
            };
            out.push(vec![label(a), label(b)]);
            if rng.below(8) == 0 {
                out.push(vec![label(a), label(b)]);
            }
        }
        out
    }

    /// A generic-join spec for a body of binary atoms over variables
    /// `0..nvars`, eliminated in id order: `atoms[i] = (relation, [u, v])`.
    struct Body {
        scan_cols: Vec<Vec<usize>>,
        level_scans: Vec<Vec<(usize, usize)>>,
        level_slots: Vec<Vec<usize>>,
    }

    fn body(atoms: &[[usize; 2]], nvars: usize) -> Body {
        let mut b = Body {
            scan_cols: Vec::new(),
            level_scans: vec![Vec::new(); nvars],
            level_slots: vec![Vec::new(); nvars],
        };
        for (i, vars) in atoms.iter().enumerate() {
            let mut by_level: Vec<(usize, usize)> =
                vars.iter().enumerate().map(|(c, &v)| (v, c)).collect();
            by_level.sort_unstable();
            for (depth, &(level, col)) in by_level.iter().enumerate() {
                b.level_scans[level].push((i, depth));
                b.level_slots[level].push(2 * i + col);
            }
            b.scan_cols
                .push(by_level.into_iter().map(|(_, c)| c).collect());
        }
        b
    }

    /// Every output row of the body, one per satisfying variable binding,
    /// by enumerating all assignments over the values the relations hold.
    fn brute(
        rels: &[&Relation],
        atoms: &[(usize, [usize; 2])],
        nvars: usize,
        output: &[Expr],
        residual: &[Predicate],
    ) -> Vec<Vec<Value>> {
        let sets: Vec<std::collections::HashSet<Vec<Value>>> = rels
            .iter()
            .map(|r| r.to_rows().into_iter().collect())
            .collect();
        let mut domain: Vec<Value> = sets.iter().flatten().flatten().copied().collect();
        domain.sort_unstable();
        domain.dedup();
        let mut out = Vec::new();
        let mut assign = vec![0usize; nvars];
        let mut row = vec![0; 2 * atoms.len()];
        'assignments: loop {
            let vals: Vec<Value> = assign.iter().map(|&i| domain[i]).collect();
            if atoms
                .iter()
                .all(|&(r, [u, v])| sets[r].contains(&vec![vals[u], vals[v]]))
            {
                for (i, &(_, [u, v])) in atoms.iter().enumerate() {
                    row[2 * i] = vals[u];
                    row[2 * i + 1] = vals[v];
                }
                if eval_all(residual, &row) {
                    out.push(output.iter().map(|e| e.eval(&row)).collect());
                }
            }
            for a in assign.iter_mut() {
                *a += 1;
                if *a < domain.len() {
                    continue 'assignments;
                }
                *a = 0;
            }
            break;
        }
        out.sort();
        out
    }

    /// The leapfrog's rows for the body, materialized and through an
    /// empty-base delta sink, sorted; both must equal brute force.
    fn leapfrog_vs_brute(
        rels: &[&Relation],
        atoms: &[(usize, [usize; 2])],
        nvars: usize,
        output: &[Expr],
        residual: &[Predicate],
    ) -> usize {
        // A small grain splits the hub's level-0 run across morsels.
        let ctx = ExecCtx {
            grain: 5,
            ..ExecCtx::with_threads(2)
        };
        let vars: Vec<[usize; 2]> = atoms.iter().map(|a| a.1).collect();
        let b = body(&vars, nvars);
        let spec = WcojSpec {
            levels: nvars,
            scan_cols: &b.scan_cols,
            level_scans: &b.level_scans,
            level_slots: &b.level_slots,
            width: 2 * atoms.len(),
            output,
            residual,
        };
        let views: Vec<RelView<'_>> = atoms.iter().map(|a| rels[a.0].view()).collect();
        let rows_of = |cols: Vec<Vec<Value>>| {
            let n = cols.first().map_or(0, Vec::len);
            let mut out: Vec<Vec<Value>> = (0..n)
                .map(|r| cols.iter().map(|c| c[r]).collect())
                .collect();
            out.sort();
            out
        };
        let expect = brute(rels, atoms, nvars, output, residual);
        let (cols, emitted) = wcoj_sink(&ctx, &views, &spec, &SinkMode::Materialize);
        assert_eq!(emitted, expect.len());
        assert_eq!(rows_of(cols), expect);
        let base = Relation::new(Schema::with_arity("t", output.len()));
        let idx = PersistentIndex::build(&ctx, base.view(), (0..output.len()).collect());
        let sink = DeltaSink::new(&idx, base.view(), 0);
        let (cols, _) = wcoj_sink(&ctx, &views, &spec, &SinkMode::Delta(&sink));
        let mut distinct = expect.clone();
        distinct.dedup();
        assert_eq!(rows_of(cols), distinct);
        expect.len()
    }

    #[test]
    fn leapfrog_matches_brute_force_on_random_bodies() {
        let cols = |c: &[usize]| -> Vec<Expr> { c.iter().map(|&i| Expr::Col(i)).collect() };
        let ne = |a, b| Predicate {
            lhs: Expr::Col(a),
            op: crate::expr::CmpOp::Ne,
            rhs: Expr::Col(b),
        };
        // Node labels: small ids (packed tries) and ids spread over the
        // whole i64 range (two columns escape 64 bits: comparator sort).
        let narrow = |v: u64| v as Value;
        let wide =
            |v: u64| Value::MIN.wrapping_add((v as Value).wrapping_mul(0x0400_0000_0000_0001));
        let (mut triangles, mut cycles) = (0, 0);
        for seed in 0..12u64 {
            let mut rng = Rng(seed);
            let n = 6 + rng.below(10);
            let wide_ids = seed % 3 == 2;
            let label = |v| if wide_ids { wide(v) } else { narrow(v) };
            let a = Relation::from_rows(
                Schema::with_arity("a", 2),
                &hub_edges(&mut rng, n, 40, label),
            );
            let b = Relation::from_rows(
                Schema::with_arity("b", 2),
                &hub_edges(&mut rng, n, 30, label),
            );
            assert_eq!(ScanTrie::build(a.view(), &[0, 1]).is_packed(), !wide_ids);
            let rels = [&a, &b];
            // Triangle over one relation (one shared trie), all variables
            // kept, and with the middle variable dropped from the head.
            let tri = [(0, [0, 1]), (0, [1, 2]), (0, [0, 2])];
            triangles += leapfrog_vs_brute(&rels, &tri, 3, &cols(&[0, 1, 3]), &[]);
            leapfrog_vs_brute(&rels, &tri, 3, &cols(&[0, 3]), &[]);
            // Triangle over two relations, reversed atom, residual x != z.
            let tri2 = [(0, [0, 1]), (1, [2, 1]), (0, [0, 2])];
            leapfrog_vs_brute(&rels, &tri2, 3, &cols(&[0, 1, 2]), &[ne(0, 2)]);
            // A 4-cycle: a(x,y), b(y,z), a(z,w), b(w,x).
            let four = [(0, [0, 1]), (1, [1, 2]), (0, [2, 3]), (1, [3, 0])];
            cycles += leapfrog_vs_brute(&rels, &four, 4, &cols(&[0, 1, 3, 5]), &[]);
            leapfrog_vs_brute(&rels, &four, 4, &cols(&[0, 3]), &[ne(0, 3)]);
        }
        assert!(triangles > 100 && cycles > 100, "{triangles} / {cycles}");
    }
}
