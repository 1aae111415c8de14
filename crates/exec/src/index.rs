//! Persistent, incrementally maintained CCK-GSCHT indexes.
//!
//! Algorithm 1 rebuilds a fresh hash table for every dedup, set-difference
//! and join build, at every IDB, at every iteration — even though stored
//! relations are **strictly append-only with stable row ids** during a
//! stratum's fixpoint: the table needed at iteration `t+1` is always a
//! strict superset of the one built at iteration `t`, over the same node
//! numbering (node `i` is row `i`). A [`PersistentIndex`] exploits exactly
//! that invariant: it binds a growable [`ChainTable`] plus a [`KeyMode`] to
//! a relation's row ids and absorbs appended rows instead of rebuilding.
//!
//! ## The append-only row-id invariant
//!
//! Everything here relies on one storage contract: between `clear`s, a
//! `Relation` only ever *appends* rows, so row `i`'s tuple never changes
//! and new rows occupy ids `n..m`. The engine upholds this during stratum
//! evaluation (`R ← R ⊎ ∆R` appends; IDB resets happen before any stratum
//! runs). An index is synchronized by comparing its covered row count with
//! the relation's current length — equal prefixes are guaranteed, so only
//! the tail `rows()..rel.len()` needs inserting.
//!
//! ## Compact-key invalidation
//!
//! Packed CCK layouts are derived from the bounds seen so far. A later
//! append may produce a value outside those bounds, which the packed key
//! cannot represent. When that happens the index **falls back to hashed
//! mode and rebuilds once** ([`SyncAction::Rebuilt`]); hashed keys cover
//! all of `Value`, so at most one such rebuild ever happens per index.
//!
//! ## Fused dedup + set-difference
//!
//! The full-`R` index is what a [`crate::sink::DeltaSink`] probes: every
//! candidate row computes its key once, probes this index (set membership
//! in `R`), and — when absent — races an insert into the sink's transient
//! scratch table (dedup *within* the candidates). The scratch table stays
//! transient by design: winners' final row ids in `R` are only known after
//! the merge, so staging them here would leave dead node slots behind;
//! instead the caller appends `∆R` to `R` and then calls
//! [`PersistentIndex::append`], which inserts the new rows under their
//! stable ids. Per-iteration work is `O(|Rt|)` — never `O(|R|)` — and the
//! full-R table is built exactly once per stratum.

use std::time::{Duration, Instant};

use recstep_common::Value;
use recstep_storage::RelView;

use crate::chain::ChainTable;
use crate::key::{bounds_of, KeyMode};
use crate::util::parallel_fill;
use crate::ExecCtx;

/// What a synchronization step ([`PersistentIndex::append`] /
/// [`PersistentIndex::sync_for_probe`]) had to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncAction {
    /// Index already covered the relation; nothing inserted.
    Reused,
    /// The given number of appended rows were inserted incrementally.
    Appended(usize),
    /// The index was rebuilt from scratch (first build, compact-key
    /// invalidation, or a shrunk relation).
    Rebuilt,
}

/// A growable hash index pinned to a relation's stable row ids.
///
/// Node `i` of the chain table is row `i` of the indexed relation (the
/// rows the index *covers*: `0..self.rows()`). Key columns are fixed at
/// construction; for the fused dedup/set-difference use they span the
/// whole tuple, for join build sides they are the join keys (multimap).
pub struct PersistentIndex {
    table: ChainTable,
    mode: KeyMode,
    cols: Vec<usize>,
    rows: usize,
}

impl PersistentIndex {
    /// Build an index over all current rows of `base`.
    ///
    /// The key mode is chosen from `base`'s (cached) bounds: packed CCK
    /// when the key columns fit 64 bits, hashed otherwise. An index built
    /// over an empty relation defers the choice to the first batch of
    /// rows it sees.
    pub fn build(ctx: &ExecCtx, base: RelView<'_>, cols: Vec<usize>) -> Self {
        let mode = KeyMode::for_view(base, &cols);
        let n = base.len();
        let mut idx = PersistentIndex {
            table: ChainTable::with_capacity(n, n * 2),
            mode,
            cols,
            rows: 0,
        };
        idx.insert_range(ctx, base, 0, n);
        idx
    }

    /// Rows of the base relation this index covers (node `i` ⇔ row `i`
    /// for `i < rows()`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Key columns the index is built on.
    pub fn key_cols(&self) -> &[usize] {
        &self.cols
    }

    /// The key mode in effect (packed CCK or hashed).
    pub fn mode(&self) -> &KeyMode {
        &self.mode
    }

    /// The underlying chain table (for prebuilt-table probes).
    pub fn table(&self) -> &ChainTable {
        &self.table
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.table.heap_bytes()
    }

    /// Insert rows `from..to` of `base` under their row ids (multimap
    /// semantics), growing node storage and doubling buckets as needed.
    fn insert_range(&mut self, ctx: &ExecCtx, base: RelView<'_>, from: usize, to: usize) {
        debug_assert_eq!(from, self.rows);
        if to > from {
            self.table.grow_nodes(to);
            // Keep the load factor at ≤ 0.5 nodes per bucket, the same
            // pre-allocation ratio scratch builds use; doubling amortizes
            // the relink cost over the rows that triggered it.
            if to * 2 > self.table.buckets() {
                self.table.rehash(to * 2);
            }
            let mode = &self.mode;
            let cols = &self.cols;
            let keys = parallel_fill(&ctx.pool, to - from, ctx.grain, 0u64, |i| {
                let mut scratch = Vec::new();
                mode.key_of(base, from + i, cols, &mut scratch)
            });
            let table = &self.table;
            ctx.pool.parallel_for(to - from, ctx.grain, |range, _| {
                for i in range {
                    table.insert_multi((from + i) as u32, keys[i]);
                }
            });
        }
        self.rows = to;
    }

    /// Discard the table and rebuild over all of `base` in hashed mode
    /// (the one-time compact-key invalidation path).
    fn rebuild_hashed(&mut self, ctx: &ExecCtx, base: RelView<'_>) {
        let n = base.len();
        self.mode = KeyMode::Hashed;
        self.table = ChainTable::with_capacity(n, n * 2);
        self.rows = 0;
        self.insert_range(ctx, base, 0, n);
    }

    /// True when rows whose key columns span `new_bounds` can be inserted
    /// without invalidating the current key mode.
    fn mode_admits(&self, new_bounds: &[(Value, Value)]) -> bool {
        match &self.mode {
            KeyMode::Packed(layout) => layout.covers(new_bounds),
            KeyMode::Hashed => true,
        }
    }

    /// Synchronize with `base` after rows were appended to it. Incremental
    /// whenever possible; rebuilds (hashed) when an appended value escapes
    /// a packed layout, and rebuilds defensively if the relation shrank
    /// (a cleared-and-refilled relation invalidates row ids).
    pub fn append(&mut self, ctx: &ExecCtx, base: RelView<'_>) -> SyncAction {
        let n = base.len();
        if n < self.rows {
            let mode = KeyMode::for_view(base, &self.cols);
            self.table = ChainTable::with_capacity(n, n * 2);
            self.mode = mode;
            self.rows = 0;
            self.insert_range(ctx, base, 0, n);
            return SyncAction::Rebuilt;
        }
        if n == self.rows {
            return SyncAction::Reused;
        }
        if self.rows == 0 {
            // Deferred mode choice: the index was created over an empty
            // relation; pick the mode from the first real rows.
            self.mode = KeyMode::for_view(base, &self.cols);
        } else if let Some(b) = bounds_of(base, &self.cols) {
            // Whole-relation bounds decide invalidation exactly: already
            // indexed rows fit the layout, so the combined bounds escape
            // iff some appended value escapes. For stored relations this
            // reads the O(1) incremental cache.
            if !self.mode_admits(&b) {
                self.rebuild_hashed(ctx, base);
                return SyncAction::Rebuilt;
            }
        }
        let added = n - self.rows;
        self.insert_range(ctx, base, self.rows, n);
        SyncAction::Appended(added)
    }

    /// Prepare the index for probing with keys drawn from `probe`'s key
    /// columns: synchronize with `base`, then verify the probe values are
    /// representable under the current key mode — packed layouts that do
    /// not cover the probe bounds fall back to hashed and rebuild once.
    ///
    /// Returns the most intrusive action taken.
    pub fn sync_for_probe(
        &mut self,
        ctx: &ExecCtx,
        base: RelView<'_>,
        probe: RelView<'_>,
        probe_cols: &[usize],
    ) -> SyncAction {
        let action = self.append(ctx, base);
        if let Some(b) = bounds_of(probe, probe_cols) {
            if !self.mode_admits(&b) {
                self.rebuild_hashed(ctx, base);
                return SyncAction::Rebuilt;
            }
        }
        action
    }
}

/// An immutable, `Arc`-shareable snapshot of a [`PersistentIndex`].
///
/// A shared index is the read-only tier of index caching: it is built once
/// over a *frozen* relation snapshot (EDBs, or IDB relations of already
/// completed strata), published into a [`crate::cache::IndexCache`], and
/// probed concurrently by any number of evaluations. It is never
/// synchronized — staleness is handled by the cache key (relation version),
/// not by mutation — which is what makes `&SharedIndex` safe to hand to
/// many threads at once.
///
/// Probe compatibility still matters: a packed CCK layout derived from the
/// base relation's bounds may not cover a particular probe's values.
/// Callers check [`SharedIndex::admits_probe`] and fall back to a run-local
/// hashed [`PersistentIndex`] when it fails (the immutable snapshot cannot
/// rebuild itself).
pub struct SharedIndex {
    table: ChainTable,
    mode: KeyMode,
    cols: Vec<usize>,
    rows: usize,
    bytes: usize,
    build_cost: Duration,
}

// Backing stores are atomics + plain data; sharing across threads is the
// whole point.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SharedIndex>();
};

impl SharedIndex {
    /// Build an immutable index over all current rows of `base`, recording
    /// the build cost so cache eviction can weigh bytes against the price
    /// of rebuilding.
    pub fn build(ctx: &ExecCtx, base: RelView<'_>, cols: Vec<usize>) -> Self {
        let t0 = Instant::now();
        PersistentIndex::build(ctx, base, cols).freeze(t0.elapsed())
    }

    /// The underlying chain table (for prebuilt-table probes).
    pub fn table(&self) -> &ChainTable {
        &self.table
    }

    /// The key mode the snapshot was built with.
    pub fn mode(&self) -> &KeyMode {
        &self.mode
    }

    /// Rows of the frozen base relation the snapshot covers.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Key columns the index is built on.
    pub fn key_cols(&self) -> &[usize] {
        &self.cols
    }

    /// Approximate heap footprint in bytes (frozen at build time).
    pub fn heap_bytes(&self) -> usize {
        self.bytes
    }

    /// Wall-clock cost of the original build — the denominator of the
    /// cache's `bytes / rebuild_cost` eviction score.
    pub fn build_cost(&self) -> Duration {
        self.build_cost
    }

    /// Whether keys drawn from `probe`'s key columns are representable
    /// under this snapshot's key mode. Hashed mode admits everything;
    /// packed layouts admit probes whose bounds they cover. A `false`
    /// answer means the caller needs a run-local hashed index instead.
    pub fn admits_probe(&self, probe: RelView<'_>, probe_cols: &[usize]) -> bool {
        match &self.mode {
            KeyMode::Hashed => true,
            KeyMode::Packed(layout) => match bounds_of(probe, probe_cols) {
                Some(b) => layout.covers(&b),
                None => true,
            },
        }
    }
}

impl PersistentIndex {
    /// Freeze this index into an immutable, shareable [`SharedIndex`],
    /// recording `build_cost` for eviction scoring.
    pub fn freeze(self, build_cost: Duration) -> SharedIndex {
        let bytes = self.heap_bytes();
        SharedIndex {
            table: self.table,
            mode: self.mode,
            cols: self.cols,
            rows: self.rows,
            bytes,
            build_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::DeltaSink;
    use recstep_storage::{Relation, Schema};
    use std::collections::HashSet;

    fn ctx() -> ExecCtx {
        ExecCtx::with_threads(4)
    }

    fn rows_of(rel: &Relation) -> HashSet<Vec<Value>> {
        rel.to_rows().into_iter().collect()
    }

    /// One fused dedup + set-difference pass the way the engine runs it:
    /// offer `cand` to a [`DeltaSink`] probing `idx` over `base`, then fold
    /// in the compact-key escapes, deduplicated among themselves. Returns
    /// `∆R`, ready to merge into `base`.
    fn drain(idx: &PersistentIndex, base: &Relation, cand: &[Vec<Value>]) -> Relation {
        let sink = DeltaSink::new(idx, base.view(), cand.len());
        let mut fresh: Vec<Vec<Value>> = cand.iter().filter(|r| sink.offer(r)).cloned().collect();
        for row in sink.take_overflow() {
            if !fresh.contains(&row) {
                fresh.push(row);
            }
        }
        Relation::from_rows(Schema::with_arity("d", base.arity()), &fresh)
    }

    #[test]
    fn delta_sink_filters_base_members_and_candidate_duplicates() {
        let ctx = ctx();
        let mut base = Relation::from_rows(Schema::with_arity("r", 2), &[vec![0, 0], vec![9, 90]]);
        let mut idx = PersistentIndex::build(&ctx, base.view(), vec![0, 1]);
        assert!(idx.mode().exact());
        // In-bounds candidates: one already in R, one duplicated, two new.
        let cand = [vec![9, 90], vec![3, 30], vec![3, 30], vec![4, 40]];
        let delta = drain(&idx, &base, &cand);
        assert_eq!(
            rows_of(&delta),
            [vec![3, 30], vec![4, 40]].into_iter().collect()
        );
        // Merge + append keeps the index usable next iteration.
        base.append_relation(&delta);
        assert_eq!(idx.append(&ctx, base.view()), SyncAction::Appended(2));
        assert!(
            drain(&idx, &base, &cand).is_empty(),
            "everything is in R now"
        );
    }

    #[test]
    fn fixpoint_loop_builds_once_and_appends() {
        // A 6-node path graph TC by hand: the full-R index must serve
        // every iteration's sink without ever rebuilding.
        let ctx = ctx();
        let edges: Vec<(Value, Value)> = (0..5).map(|i| (i, i + 1)).collect();
        let mut r = Relation::new(Schema::with_arity("tc", 2));
        let mut idx = PersistentIndex::build(&ctx, r.view(), vec![0, 1]);
        let mut delta: Vec<(Value, Value)> = edges.clone();
        let mut iterations = 0;
        while !delta.is_empty() {
            iterations += 1;
            // Rt = delta ⋈ edges plus (first iteration) the edges.
            let mut cand = Vec::new();
            if iterations == 1 {
                cand.extend(edges.iter().map(|&(a, b)| vec![a, b]));
            }
            for &(a, b) in &delta {
                for &(c, d) in &edges {
                    if b == c {
                        cand.push(vec![a, d]);
                    }
                }
            }
            let fresh = drain(&idx, &r, &cand);
            delta = fresh.to_rows().iter().map(|row| (row[0], row[1])).collect();
            r.append_relation(&fresh);
            match idx.append(&ctx, r.view()) {
                SyncAction::Appended(n) => assert_eq!(n, delta.len()),
                SyncAction::Reused => assert!(delta.is_empty()),
                SyncAction::Rebuilt => panic!("path-graph bounds never escape"),
            }
        }
        assert_eq!(iterations, 5); // last productive pass empties ∆R's successor
        assert_eq!(r.len(), 5 + 4 + 3 + 2 + 1); // closure of a 6-node path
    }

    #[test]
    fn escaping_values_fall_back_to_hashed_once() {
        let ctx = ctx();
        let mut base = Relation::from_rows(Schema::with_arity("r", 2), &[vec![1, 2]]);
        let mut idx = PersistentIndex::build(&ctx, base.view(), vec![0, 1]);
        assert!(idx.mode().exact(), "small values pack");
        // A candidate outside any packed layout escapes the sink; merging
        // it forces the one hashed rebuild.
        let wide = vec![Value::MIN, Value::MAX];
        let delta = drain(&idx, &base, &[wide.clone(), vec![1, 2], wide.clone()]);
        assert_eq!(rows_of(&delta), [wide].into_iter().collect());
        base.append_relation(&delta);
        assert_eq!(idx.append(&ctx, base.view()), SyncAction::Rebuilt);
        assert!(!idx.mode().exact());
        // Hashed mode is sticky: no second rebuild.
        let delta = drain(&idx, &base, &[vec![Value::MAX, 0], vec![1, 2]]);
        assert_eq!(delta.len(), 1);
        base.append_relation(&delta);
        assert_eq!(idx.append(&ctx, base.view()), SyncAction::Appended(1));
    }

    #[test]
    fn sync_for_probe_guards_probe_bounds() {
        let ctx = ctx();
        let base = Relation::from_rows(
            Schema::with_arity("edb", 2),
            &[vec![1, 2], vec![3, 4], vec![5, 6]],
        );
        let mut idx = PersistentIndex::build(&ctx, base.view(), vec![0]);
        assert!(idx.mode().exact());
        // In-bounds probe: reused as-is.
        let probe = Relation::from_rows(Schema::with_arity("p", 1), &[vec![3]]);
        assert_eq!(
            idx.sync_for_probe(&ctx, base.view(), probe.view(), &[0]),
            SyncAction::Reused
        );
        assert!(idx.mode().exact());
        // Out-of-bounds probe values force the hashed rebuild.
        let wide = Relation::from_rows(Schema::with_arity("p", 1), &[vec![Value::MAX]]);
        assert_eq!(
            idx.sync_for_probe(&ctx, base.view(), wide.view(), &[0]),
            SyncAction::Rebuilt
        );
        assert!(!idx.mode().exact());
        // Probing still finds the right nodes afterwards.
        let mut scratch = Vec::new();
        let key = idx.mode().key_of(base.view(), 1, &[0], &mut scratch);
        assert!(idx.table().contains(key, |n| n == 1));
    }

    #[test]
    fn shrunk_relation_triggers_defensive_rebuild() {
        let ctx = ctx();
        let mut base = Relation::from_rows(Schema::with_arity("r", 1), &[vec![1], vec![2]]);
        let mut idx = PersistentIndex::build(&ctx, base.view(), vec![0]);
        base.clear();
        base.push_row(&[7]);
        assert_eq!(idx.append(&ctx, base.view()), SyncAction::Rebuilt);
        assert_eq!(idx.rows(), 1);
        let mut scratch = Vec::new();
        let key = idx.mode().key_of(base.view(), 0, &[0], &mut scratch);
        assert!(idx.table().contains(key, |n| n == 0));
    }
}
