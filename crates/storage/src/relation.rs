//! Append-only columnar relations and their views.

use recstep_common::Value;

/// Relation schema: a name plus named integer columns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    /// Relation name as it appears in Datalog programs.
    pub name: String,
    /// Column names (arity = `cols.len()`).
    pub cols: Vec<String>,
}

impl Schema {
    /// Build a schema from a name and column names.
    pub fn new(name: impl Into<String>, cols: &[&str]) -> Self {
        Schema {
            name: name.into(),
            cols: cols.iter().map(|c| (*c).to_string()).collect(),
        }
    }

    /// Build a schema with auto-named columns `c0..c{arity-1}`.
    pub fn with_arity(name: impl Into<String>, arity: usize) -> Self {
        Schema {
            name: name.into(),
            cols: (0..arity).map(|i| format!("c{i}")).collect(),
        }
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.cols.len()
    }
}

/// Incrementally maintained per-column aggregates.
///
/// Because relations are strictly append-only between `clear`s, min/max
/// are monotone and the sum is a running total: every append folds the new
/// values in, so reading them is O(1) at any point. Only meaningful while
/// the relation is non-empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColAgg {
    /// Minimum value seen.
    pub min: Value,
    /// Maximum value seen.
    pub max: Value,
    /// Wrapping sum of all values.
    pub sum: Value,
}

impl ColAgg {
    /// Aggregates of `col` by a full scan, or `None` when it is empty.
    pub fn of(col: &[Value]) -> Option<ColAgg> {
        let (&first, rest) = col.split_first()?;
        let mut agg = ColAgg::seed(first);
        for &v in rest {
            agg.absorb(v);
        }
        Some(agg)
    }

    fn absorb(&mut self, v: Value) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum = self.sum.wrapping_add(v);
    }

    /// Fold in the aggregates of another non-empty set of values.
    pub fn merge(&mut self, other: &ColAgg) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum = self.sum.wrapping_add(other.sum);
    }

    fn seed(v: Value) -> ColAgg {
        ColAgg {
            min: v,
            max: v,
            sum: v,
        }
    }
}

/// An in-memory columnar relation.
///
/// Storage is column-major (`cols[c][r]`), and strictly append-only
/// during evaluation: engines mutate stored relations through appends and
/// `clear` only (the former `set_cell`/`truncate` interior-mutation
/// helpers were unused and are gone), and result consumers read through
/// zero-copy views and [`crate::RelHandle`]s.
///
/// Per-column min/max/sum are maintained incrementally on every append
/// (see [`ColAgg`]), so statistics collection and compact-key layout
/// derivation never re-scan stored columns.
#[derive(Clone, Debug)]
pub struct Relation {
    schema: Schema,
    cols: Vec<Vec<Value>>,
    aggs: Vec<ColAgg>,
}

impl Relation {
    /// Empty relation with the given schema.
    pub fn new(schema: Schema) -> Self {
        let arity = schema.arity();
        Relation {
            schema,
            cols: vec![Vec::new(); arity],
            aggs: Vec::new(),
        }
    }

    /// Relation pre-populated from row-major data.
    pub fn from_rows(schema: Schema, rows: &[Vec<Value>]) -> Self {
        let mut rel = Relation::new(schema);
        for row in rows {
            rel.push_row(row);
        }
        rel
    }

    /// Schema accessor.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.cols.first().map_or(0, Vec::len)
    }

    /// True when the relation holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one row. Panics if the row arity mismatches the schema.
    #[inline]
    pub fn push_row(&mut self, row: &[Value]) {
        assert_eq!(
            row.len(),
            self.arity(),
            "row arity mismatch for {}",
            self.schema.name
        );
        for (col, &v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
        if self.aggs.is_empty() {
            self.aggs = row.iter().map(|&v| ColAgg::seed(v)).collect();
        } else {
            for (agg, &v) in self.aggs.iter_mut().zip(row) {
                agg.absorb(v);
            }
        }
    }

    /// Bulk-append column-major data produced by an operator.
    ///
    /// Panics if `data` has the wrong arity or ragged column lengths.
    pub fn append_columns(&mut self, data: Vec<Vec<Value>>) {
        // One pass over only the *new* values keeps the aggregates
        // incremental: cost is proportional to what is appended, never to
        // what is stored.
        let aggs: Vec<ColAgg> = data.iter().filter_map(|c| ColAgg::of(c)).collect();
        self.append_with_aggs(data, &aggs);
    }

    /// [`Relation::append_columns`] for a producer that already knows the
    /// new values' aggregates: `aggs[c]` must equal `ColAgg::of(&data[c])`
    /// (checked in debug builds), and is ignored when `data` holds no rows.
    /// Skips the scan `append_columns` makes.
    ///
    /// Panics if `data` has the wrong arity or ragged column lengths, or if
    /// it holds rows and `aggs` is not one entry per column.
    pub fn append_columns_with_aggs(&mut self, data: Vec<Vec<Value>>, aggs: &[ColAgg]) {
        debug_assert!(
            data.iter()
                .zip(aggs)
                .all(|(c, a)| c.is_empty() || ColAgg::of(c) == Some(*a)),
            "stale aggregates handed to {}",
            self.schema.name
        );
        self.append_with_aggs(data, aggs);
    }

    fn append_with_aggs(&mut self, data: Vec<Vec<Value>>, aggs: &[ColAgg]) {
        assert_eq!(
            data.len(),
            self.arity(),
            "column-count mismatch for {}",
            self.schema.name
        );
        let n = data.first().map_or(0, Vec::len);
        assert!(
            data.iter().all(|c| c.len() == n),
            "ragged columns for {}",
            self.schema.name
        );
        if n > 0 {
            assert_eq!(aggs.len(), data.len(), "one ColAgg per column");
            self.fold_aggs(aggs);
        }
        for (col, mut new) in self.cols.iter_mut().zip(data) {
            if col.is_empty() {
                *col = new; // move, no copy
            } else {
                col.append(&mut new);
            }
        }
    }

    /// Fold the aggregates of newly appended, non-empty columns in.
    fn fold_aggs(&mut self, new: &[ColAgg]) {
        if self.aggs.is_empty() {
            self.aggs = new.to_vec();
        } else {
            for (agg, n) in self.aggs.iter_mut().zip(new) {
                agg.merge(n);
            }
        }
    }

    /// Append all rows of another relation (must have equal arity).
    pub fn append_relation(&mut self, other: &Relation) {
        assert_eq!(other.arity(), self.arity());
        if !other.is_empty() {
            self.fold_aggs(&other.aggs);
        }
        for (col, new) in self.cols.iter_mut().zip(&other.cols) {
            col.extend_from_slice(new);
        }
    }

    /// Full column slice.
    #[inline]
    pub fn col(&self, c: usize) -> &[Value] {
        &self.cols[c]
    }

    /// Delete every stored row equal to one of `rows` (whole-tuple match,
    /// all occurrences). Returns the number of rows removed. Column
    /// aggregates are recomputed from the survivors — deletion is the one
    /// mutation incremental min/max/sum cannot absorb.
    pub fn delete_rows(&mut self, rows: &[Vec<Value>]) -> usize {
        if rows.is_empty() || self.is_empty() {
            return 0;
        }
        let doomed: std::collections::HashSet<&[Value]> = rows.iter().map(Vec::as_slice).collect();
        let n = self.len();
        let mut row = Vec::with_capacity(self.arity());
        let keep: Vec<bool> = (0..n)
            .map(|r| {
                row.clear();
                for c in &self.cols {
                    row.push(c[r]);
                }
                !doomed.contains(row.as_slice())
            })
            .collect();
        let removed = keep.iter().filter(|&&k| !k).count();
        if removed == 0 {
            return 0;
        }
        for col in &mut self.cols {
            let mut w = 0;
            for r in 0..n {
                if keep[r] {
                    col[w] = col[r];
                    w += 1;
                }
            }
            col.truncate(w);
        }
        self.aggs = self.cols.iter().filter_map(|c| ColAgg::of(c)).collect();
        removed
    }

    /// Drop all rows, keeping capacity.
    pub fn clear(&mut self) {
        for c in &mut self.cols {
            c.clear();
        }
        self.aggs.clear();
    }

    /// Incrementally maintained aggregates of column `c`, or `None` while
    /// the relation is empty.
    #[inline]
    pub fn col_agg(&self, c: usize) -> Option<&ColAgg> {
        self.aggs.get(c)
    }

    /// Incrementally maintained `(min, max)` bounds of column `c`, or
    /// `None` while the relation is empty.
    #[inline]
    pub fn col_bounds(&self, c: usize) -> Option<(Value, Value)> {
        self.aggs.get(c).map(|a| (a.min, a.max))
    }

    fn agg_slice(&self) -> Option<&[ColAgg]> {
        if self.aggs.is_empty() {
            None
        } else {
            Some(&self.aggs)
        }
    }

    /// View over all rows.
    #[inline]
    pub fn view(&self) -> RelView<'_> {
        RelView {
            cols: &self.cols,
            start: 0,
            end: self.len(),
            aggs: self.agg_slice(),
        }
    }

    /// Zero-copy view over the first `len` rows (the *Old* view of
    /// semi-naïve evaluation: facts through iteration `t-1`).
    ///
    /// The view inherits the whole relation's cached bounds: they are a
    /// superset of any row range's true bounds, which is exactly what
    /// compact-key layout derivation needs (a covering range).
    #[inline]
    pub fn prefix_view(&self, len: usize) -> RelView<'_> {
        assert!(len <= self.len());
        RelView {
            cols: &self.cols,
            start: 0,
            end: len,
            aggs: if len == 0 { None } else { self.agg_slice() },
        }
    }

    /// Zero-copy view over rows `start..end` (bounds inherited as for
    /// [`Relation::prefix_view`]).
    #[inline]
    pub fn range_view(&self, start: usize, end: usize) -> RelView<'_> {
        assert!(start <= end && end <= self.len());
        RelView {
            cols: &self.cols,
            start,
            end,
            aggs: if start == end { None } else { self.agg_slice() },
        }
    }

    /// Copy row `r` into `out` (cleared first).
    pub fn copy_row(&self, r: usize, out: &mut Vec<Value>) {
        out.clear();
        out.extend(self.cols.iter().map(|c| c[r]));
    }

    /// Materialize all rows (row-major); intended for tests and result export.
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.len())
            .map(|r| self.cols.iter().map(|c| c[r]).collect())
            .collect()
    }

    /// Materialize rows in sorted order; handy for order-insensitive
    /// comparisons in tests.
    pub fn to_sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows = self.to_rows();
        rows.sort_unstable();
        rows
    }

    /// Approximate heap footprint in bytes (column data only).
    pub fn heap_bytes(&self) -> usize {
        self.cols
            .iter()
            .map(|c| c.capacity() * std::mem::size_of::<Value>())
            .sum()
    }
}

/// A borrowed, contiguous row range of a relation.
///
/// All operators consume `RelView`s, which makes the *Full*/*Old*/*Delta*
/// distinction of semi-naïve evaluation free of copies.
#[derive(Clone, Copy, Debug)]
pub struct RelView<'a> {
    cols: &'a [Vec<Value>],
    start: usize,
    end: usize,
    /// Cached per-column aggregates of the *backing relation*, when it
    /// maintains them. Bounds cover every viewed row (possibly loosely for
    /// partial views); operators use them to skip whole-column scans.
    aggs: Option<&'a [ColAgg]>,
}

impl<'a> RelView<'a> {
    /// View over explicit column storage (for operator intermediates).
    pub fn over(cols: &'a [Vec<Value>]) -> Self {
        let len = cols.first().map_or(0, Vec::len);
        debug_assert!(cols.iter().all(|c| c.len() == len));
        RelView {
            cols,
            start: 0,
            end: len,
            aggs: None,
        }
    }

    /// Cached covering `(min, max)` bounds of column `c`, if the backing
    /// relation maintains them. `None` means "unknown" (intermediates and
    /// empty relations), not "empty".
    #[inline]
    pub fn cached_bounds(&self, c: usize) -> Option<(Value, Value)> {
        self.aggs.and_then(|a| a.get(c)).map(|a| (a.min, a.max))
    }

    /// Cached aggregates of column `c`. Returned only when the view spans
    /// the whole backing relation, so min/max/sum are exact (partial views
    /// would inherit merely covering values; use
    /// [`RelView::cached_bounds`] for those).
    #[inline]
    pub fn cached_agg(&self, c: usize) -> Option<&'a ColAgg> {
        if self.start == 0 && self.end == self.cols.first().map_or(0, Vec::len) {
            self.aggs.and_then(|a| a.get(c))
        } else {
            None
        }
    }

    /// Number of rows in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the view holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Column `c` restricted to the viewed rows.
    #[inline]
    pub fn col(&self, c: usize) -> &'a [Value] {
        &self.cols[c][self.start..self.end]
    }

    /// Value at (row, col), row relative to the view.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Value {
        self.cols[col][self.start + row]
    }

    /// Copy row `r` (view-relative) into `out` (cleared first).
    pub fn copy_row(&self, r: usize, out: &mut Vec<Value>) {
        out.clear();
        out.extend(self.cols.iter().map(|c| c[self.start + r]));
    }

    /// Materialize the viewed rows (row-major).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.len())
            .map(|r| self.cols.iter().map(|c| c[self.start + r]).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_ab() -> Relation {
        let mut r = Relation::new(Schema::new("t", &["a", "b"]));
        r.push_row(&[1, 10]);
        r.push_row(&[2, 20]);
        r.push_row(&[3, 30]);
        r
    }

    #[test]
    fn push_and_read_back() {
        let r = rel_ab();
        assert_eq!(r.len(), 3);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.col(0), &[1, 2, 3]);
        assert_eq!(r.col(1), &[10, 20, 30]);
        assert_eq!(r.to_rows(), vec![vec![1, 10], vec![2, 20], vec![3, 30]]);
    }

    #[test]
    fn prefix_view_is_old_snapshot() {
        let mut r = rel_ab();
        let before = r.len();
        r.push_row(&[4, 40]); // the "delta merge"
        let old = r.prefix_view(before);
        assert_eq!(old.len(), 3);
        assert_eq!(old.col(0), &[1, 2, 3]);
        let full = r.view();
        assert_eq!(full.len(), 4);
        let delta = r.range_view(before, r.len());
        assert_eq!(delta.to_rows(), vec![vec![4, 40]]);
    }

    #[test]
    fn append_columns_moves_into_empty() {
        let mut r = Relation::new(Schema::with_arity("t", 2));
        r.append_columns(vec![vec![1, 2], vec![3, 4]]);
        assert_eq!(r.len(), 2);
        r.append_columns(vec![vec![5], vec![6]]);
        assert_eq!(r.to_rows(), vec![vec![1, 3], vec![2, 4], vec![5, 6]]);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut r = rel_ab();
        r.push_row(&[1]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_append_panics() {
        let mut r = Relation::new(Schema::with_arity("t", 2));
        r.append_columns(vec![vec![1, 2], vec![3]]);
    }

    #[test]
    fn copy_row_and_views() {
        let r = rel_ab();
        let mut buf = Vec::new();
        r.copy_row(2, &mut buf);
        assert_eq!(buf, vec![3, 30]);
        let v = r.range_view(1, 3);
        assert_eq!(v.get(0, 0), 2);
        v.copy_row(1, &mut buf);
        assert_eq!(buf, vec![3, 30]);
    }

    #[test]
    fn sorted_rows_for_set_compare() {
        let mut r = Relation::new(Schema::with_arity("t", 1));
        r.push_row(&[3]);
        r.push_row(&[1]);
        r.push_row(&[2]);
        assert_eq!(r.to_sorted_rows(), vec![vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn heap_bytes_grows_with_data() {
        let mut r = Relation::new(Schema::with_arity("t", 2));
        let b0 = r.heap_bytes();
        for i in 0..1000 {
            r.push_row(&[i, i]);
        }
        assert!(r.heap_bytes() > b0);
        assert!(r.heap_bytes() >= 2 * 1000 * 8);
    }

    #[test]
    fn view_over_raw_columns() {
        let cols = vec![vec![1, 2, 3], vec![4, 5, 6]];
        let v = RelView::over(&cols);
        assert_eq!(v.len(), 3);
        assert_eq!(v.col(1), &[4, 5, 6]);
    }

    #[test]
    fn incremental_aggs_track_all_append_paths() {
        let mut r = Relation::new(Schema::with_arity("t", 2));
        assert_eq!(r.col_bounds(0), None);
        r.push_row(&[5, -1]);
        r.push_row(&[1, 7]);
        assert_eq!(r.col_bounds(0), Some((1, 5)));
        assert_eq!(r.col_bounds(1), Some((-1, 7)));
        r.append_columns(vec![vec![9, -4], vec![0, 0]]);
        assert_eq!(r.col_bounds(0), Some((-4, 9)));
        assert_eq!(r.col_agg(0).unwrap().sum, 11);
        assert_eq!(r.col_agg(1).unwrap().sum, 6);
        // Seeding from empty via append_columns must not double-count the
        // first value into the sum.
        let mut fresh = Relation::new(Schema::with_arity("f", 1));
        fresh.append_columns(vec![vec![3, 4]]);
        assert_eq!(fresh.col_agg(0).unwrap().sum, 7);
        assert_eq!(fresh.col_bounds(0), Some((3, 4)));
        let other = Relation::from_rows(Schema::with_arity("o", 2), &[vec![100, -100]]);
        r.append_relation(&other);
        assert_eq!(r.col_bounds(0), Some((-4, 100)));
        assert_eq!(r.col_bounds(1), Some((-100, 7)));
        r.clear();
        assert_eq!(r.col_bounds(0), None);
        // Re-seeding after clear starts fresh (no stale bounds).
        r.push_row(&[2, 2]);
        assert_eq!(r.col_bounds(0), Some((2, 2)));
    }

    #[test]
    fn handed_over_aggs_equal_a_rescan() {
        let a = vec![4, -9, Value::MAX, 0];
        let b = vec![Value::MIN, 2, 2, 7];
        let aggs = [ColAgg::of(&a).unwrap(), ColAgg::of(&b).unwrap()];
        assert_eq!(
            aggs[0],
            ColAgg {
                min: -9,
                max: Value::MAX,
                sum: Value::MAX.wrapping_sub(5),
            }
        );
        let mut scanned = Relation::new(Schema::with_arity("s", 2));
        let mut handed = Relation::new(Schema::with_arity("h", 2));
        for r in [&mut scanned, &mut handed] {
            r.push_row(&[1, 1]);
        }
        scanned.append_columns(vec![a.clone(), b.clone()]);
        handed.append_columns_with_aggs(vec![a, b], &aggs);
        assert_eq!(handed.to_rows(), scanned.to_rows());
        for c in 0..2 {
            assert_eq!(handed.col_agg(c), scanned.col_agg(c));
            assert_eq!(handed.col_agg(c).copied(), ColAgg::of(handed.col(c)));
        }
        // Into an empty relation, and an empty append that ignores `aggs`.
        let mut fresh = Relation::new(Schema::with_arity("f", 1));
        fresh.append_columns_with_aggs(vec![vec![]], &[]);
        assert_eq!(fresh.col_agg(0), None);
        let col = vec![3, 4];
        fresh.append_columns_with_aggs(vec![col.clone()], &[ColAgg::of(&col).unwrap()]);
        assert_eq!(fresh.col_agg(0).copied(), ColAgg::of(&col));
    }

    #[test]
    fn view_bounds_are_covering_and_aggs_exact_only_when_full() {
        let mut r = Relation::new(Schema::with_arity("t", 1));
        r.push_row(&[10]);
        r.push_row(&[20]);
        let full = r.view();
        assert_eq!(full.cached_bounds(0), Some((10, 20)));
        assert_eq!(full.cached_agg(0).unwrap().sum, 30);
        let prefix = r.prefix_view(1);
        // Covering bounds are inherited; exact aggregates are not.
        assert_eq!(prefix.cached_bounds(0), Some((10, 20)));
        assert!(prefix.cached_agg(0).is_none());
        let empty = r.prefix_view(0);
        assert_eq!(empty.cached_bounds(0), None);
        // Raw operator intermediates carry no cache.
        let cols = vec![vec![1, 2]];
        assert_eq!(RelView::over(&cols).cached_bounds(0), None);
    }

    #[test]
    fn clear_drops_all_rows() {
        let mut r = rel_ab();
        r.clear();
        assert!(r.is_empty());
        r.push_row(&[4, 40]);
        assert_eq!(r.to_rows(), vec![vec![4, 40]]);
    }

    #[test]
    fn delete_rows_removes_all_occurrences_and_recomputes_aggs() {
        let mut r = Relation::new(Schema::new("t", &["a", "b"]));
        r.push_row(&[1, 10]);
        r.push_row(&[2, 20]);
        r.push_row(&[1, 10]);
        r.push_row(&[3, 30]);
        assert_eq!(r.delete_rows(&[vec![1, 10], vec![9, 9]]), 2);
        assert_eq!(r.to_rows(), vec![vec![2, 20], vec![3, 30]]);
        // Aggregates reflect the survivors, not the original extremes.
        assert_eq!(r.col_bounds(0), Some((2, 3)));
        assert_eq!(r.col_bounds(1), Some((20, 30)));
        // Deleting nothing and deleting everything both behave.
        assert_eq!(r.delete_rows(&[]), 0);
        assert_eq!(r.delete_rows(&[vec![2, 20], vec![3, 30]]), 2);
        assert!(r.is_empty());
        assert_eq!(r.col_bounds(0), None);
    }
}
