//! The fused streaming delta pipeline: dedup + set difference pushed into
//! the producing operator's probe loop.
//!
//! Algorithm 1 materializes the full UNION-ALL intermediate `Rt` before a
//! second pass deduplicates it and subtracts `R` — on transitive closure
//! the duplication factor of `Rt` is enormous, so most of what gets
//! copied, merged and re-scanned is thrown away. A [`DeltaSink`] removes
//! the intermediate entirely: every morsel worker of the *final* operator
//! of a subquery offers each produced row to the sink, which
//!
//! 1. packs/hashes the whole tuple once ([`crate::key::KeyMode`]),
//! 2. probes the per-stratum full-`R` [`PersistentIndex`] (set membership
//!    in `R`), and
//! 3. races an `insert_unique_row` into a shared iteration-scratch
//!    [`GrowChainTable`] (dedup *within* the candidates, across all rules
//!    of the IDB — UNION ALL dedups at source).
//!
//! Only CAS winners — exactly `∆R` — are buffered; duplicates are never
//! pushed into a column buffer, never merged, never re-scanned. Join
//! output cardinality is unknown up front, so the scratch table grows —
//! nodes and bucket directory both — while the offers are in flight (see
//! [`GrowChainTable`]).
//!
//! ## Compact-key escapes
//!
//! A packed key layout derived from `R`'s bounds may not represent a
//! candidate value. Such a row provably equals *no* packed-fitting tuple
//! (a tuple fits iff each of its values fits, so equal tuples fit or
//! escape together) — it is neither in `R` nor equal to any sink winner.
//! Escaped rows are parked in an overflow list and only need dedup among
//! themselves; the caller folds the survivors into `∆R` and the
//! subsequent index `append` performs the one-time hashed rebuild.
//!
//! ## Deduplicated chain stages
//!
//! A [`DeltaSink`] sees only the final operator of a subquery. The
//! non-final joins of a chain of three or more atoms feed the next join,
//! and only the columns a later stage reads matter there (the planner's
//! `JoinStep::live`). When the subquery streams into a `DeltaSink` — set
//! semantics all the way — each such stage offers its rows to a
//! [`DistinctSink`] keyed on those columns, a [`GrowChainTable`] over no
//! base index racing the same `insert_unique_row`, and only its winners
//! materialize. A chain intermediate under a materializing sink stays
//! Algorithm 1's UNION ALL, as the ablation arms that keep `Rt` expect.
//! View maintenance needs no multiplicities: both of its strategies
//! stream through a `DeltaSink`.
//!
//! [`SinkMode`] is the switch operators consume: `Materialize` preserves
//! the UNION-ALL contract (every row is buffered), `Delta` streams rows
//! through a sink, `Distinct` dedups a chain stage, `Agg` folds rows into
//! aggregate state. The materializing mode serves the ablation arms that
//! keep `Rt` (`--no-fused-pipeline`, `--no-fused-agg`, `--no-uie`,
//! `--no-eost`, `--no-index-reuse`). The two fusion arms then hand the buffered `Rt` to
//! the default path's own table — a [`DeltaSink`] presized to `|Rt|`, or
//! the head's [`ConcurrentMonoMap`] after a group-by pass — so they differ
//! from the default only in the buffering. OOF-FA statistics no longer
//! force materializing — an attached [`SinkSampler`]
//! ([`DeltaSink::with_sampler`]) mirrors every offered row into a
//! reservoir the statistics pass consumes in place of an `Rt` re-scan.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;
use recstep_common::hash::{hash_row, mix64};
use recstep_common::Value;
use recstep_storage::RelView;

use crate::agg::{ConcurrentMonoMap, GroupSink};
use crate::chain::GrowChainTable;
use crate::expr::Expr;
use crate::index::PersistentIndex;
use crate::key::KeyMode;
use crate::util::ColBuf;

/// How a producing operator disposes of its output rows.
pub enum SinkMode<'a> {
    /// Buffer every row (UNION ALL semantics; Algorithm 1's `uieval`).
    Materialize,
    /// Stream rows through a fused dedup + set-difference sink; only
    /// fresh rows are buffered.
    Delta(&'a DeltaSink<'a>),
    /// Deduplicate a chain stage's rows on the columns later stages read;
    /// only the first row per distinct value is buffered.
    Distinct(&'a DistinctSink<'a>),
    /// Stream rows into a concurrent aggregation state at the probe site
    /// (group-at-source): nothing is ever buffered — the sink's flush
    /// yields the aggregated result or ∆ directly.
    Agg(&'a AggSink<'a>),
}

impl SinkMode<'_> {
    /// Emit one flattened `row` projected through `output`. Returns `true`
    /// when a row was materialized into `buf` (what counts against a
    /// producer's row cap); the streaming modes drop duplicates here, at
    /// the probe site, and count every offer in `considered`. `out_row` is
    /// the worker's scratch row.
    #[inline]
    pub fn emit(
        &self,
        output: &[Expr],
        row: &[Value],
        buf: &mut ColBuf,
        out_row: &mut Vec<Value>,
        considered: &mut usize,
    ) -> bool {
        match self {
            SinkMode::Materialize => {
                for (c, e) in output.iter().enumerate() {
                    buf.push_at(c, e.eval(row));
                }
                true
            }
            SinkMode::Delta(s) => {
                out_row.clear();
                out_row.extend(output.iter().map(|e| e.eval(row)));
                *considered += 1;
                if s.offer(out_row) {
                    buf.push_row(out_row);
                    true
                } else {
                    false
                }
            }
            SinkMode::Distinct(s) => {
                out_row.clear();
                out_row.extend(s.live.iter().map(|&c| output[c].eval(row)));
                *considered += 1;
                if s.offer(out_row) {
                    for (c, e) in output.iter().enumerate() {
                        buf.push_at(c, e.eval(row));
                    }
                    true
                } else {
                    false
                }
            }
            SinkMode::Agg(s) => {
                out_row.clear();
                out_row.extend(output.iter().map(|e| e.eval(row)));
                *considered += 1;
                // Folded into the aggregation state at source; never buffered.
                s.offer(out_row);
                false
            }
        }
    }

    /// Publish a worker's per-morsel offered-row count (no-op when
    /// materializing).
    #[inline]
    pub fn note_considered(&self, n: usize) {
        let total = match self {
            SinkMode::Materialize => return,
            SinkMode::Delta(s) => &s.considered,
            SinkMode::Distinct(s) => &s.considered,
            SinkMode::Agg(s) => &s.considered,
        };
        if n > 0 {
            total.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Shared per-iteration state of one fused streaming pass: the full-`R`
/// index to probe, the scratch table deduplicating candidates, and the
/// overflow list for compact-key escapes.
pub struct DeltaSink<'a> {
    index: &'a PersistentIndex,
    base: RelView<'a>,
    mode: KeyMode,
    exact: bool,
    arity: usize,
    scratch: GrowChainTable,
    /// Rows escaping a packed key layout, flattened row-major (rare; at
    /// most one iteration per stratum sees any, right before the index's
    /// one-time hashed rebuild).
    overflow: Mutex<Vec<Value>>,
    considered: AtomicUsize,
    sampler: Option<&'a SinkSampler>,
}

impl<'a> DeltaSink<'a> {
    /// Sink probing `index` (whole-tuple keys over `base`, which must be
    /// the relation the index covers). `capacity` is the scratch table's
    /// initial capacity in rows — an allocation hint, not a cap and not a
    /// tuning knob: the table grows in flight and its chain length does
    /// not depend on it, so callers with no estimate of `|∆R|` pass 0.
    pub fn new(index: &'a PersistentIndex, base: RelView<'a>, capacity: usize) -> Self {
        assert_eq!(
            index.rows(),
            base.len(),
            "index out of sync with its base relation"
        );
        let arity = base.arity();
        assert!(
            index.key_cols().iter().copied().eq(0..arity),
            "fused sink requires whole-tuple index keys"
        );
        // An index over an empty relation has no key mode yet (deferred
        // choice); hash for this iteration — nothing is probed anyway,
        // and the merge's `append` picks the real mode from `R`'s bounds.
        let mode = if base.is_empty() {
            KeyMode::Hashed
        } else {
            index.mode().clone()
        };
        let exact = mode.exact();
        DeltaSink {
            index,
            base,
            mode,
            exact,
            arity,
            scratch: GrowChainTable::new(arity, capacity, capacity.saturating_mul(2)),
            overflow: Mutex::new(Vec::new()),
            considered: AtomicUsize::new(0),
            sampler: None,
        }
    }

    /// Attach a statistics sampler: every offered row (the would-be `Rt`)
    /// is mirrored into it, which is what lets the OOF-FA path run fused —
    /// `analyze(Rt)` reads the reservoir instead of a materialized `Rt`.
    pub fn with_sampler(mut self, sampler: &'a SinkSampler) -> Self {
        self.sampler = Some(sampler);
        self
    }

    /// Offer one produced row (head layout). Returns `true` when the row
    /// is fresh — not in `R`, not yet offered this iteration — and should
    /// be buffered as part of `∆R`. Duplicates and escapes return `false`
    /// and must not be buffered. Callable from any worker concurrently.
    #[inline]
    pub fn offer(&self, row: &[Value]) -> bool {
        debug_assert_eq!(row.len(), self.arity);
        // Sample before any filtering: the reservoir stands in for `Rt`,
        // which would have contained every produced row.
        if let Some(s) = self.sampler {
            s.offer(row);
        }
        let Some(key) = self.mode.try_key_of_row(row) else {
            self.overflow.lock().extend_from_slice(row);
            return false;
        };
        if !self.base.is_empty() {
            let in_base = self.index.table().iter_key(key).any(|node| {
                self.exact || (0..self.arity).all(|c| self.base.get(node as usize, c) == row[c])
            });
            if in_base {
                return false;
            }
        }
        self.scratch.insert_unique_row(key, row)
    }

    /// Rows offered across all workers — `|Rt|` of the materializing
    /// path, without `Rt` ever existing.
    pub fn considered(&self) -> usize {
        self.considered.load(Ordering::Relaxed)
    }

    /// True when the sink's only effect is dropping duplicates among its
    /// offers: `R` is empty, so there is nothing to subtract, and no
    /// sampler watches the offers. A producer that provably emits
    /// distinct rows and is the sink's only producer may then materialize
    /// them directly and book them with [`SinkMode::note_considered`].
    pub fn filters_only_duplicates(&self) -> bool {
        self.base.is_empty() && self.sampler.is_none()
    }

    /// Approximate scratch-table heap footprint: node chunks plus the
    /// bucket directory (sentinels included).
    pub fn scratch_bytes(&self) -> usize {
        self.scratch.heap_bytes()
    }

    /// Times the scratch table's bucket directory doubled during this
    /// pass — how far `|∆R|` outran the initial capacity.
    pub fn table_doublings(&self) -> usize {
        self.scratch.doublings()
    }

    /// Drain the compact-key escapes (row-major). May contain duplicates
    /// of each other, never of `R` or of sink winners.
    pub fn take_overflow(&self) -> Vec<Vec<Value>> {
        let flat = std::mem::take(&mut *self.overflow.lock());
        flat.chunks(self.arity).map(<[Value]>::to_vec).collect()
    }
}

/// Shared state of one deduplicated chain stage: a [`GrowChainTable`]
/// over the stage's live columns, raced by every morsel worker with the
/// same `insert_unique_row` a [`DeltaSink`] uses, but over no base index —
/// the intermediate is new by construction, only its duplicates die.
pub struct DistinctSink<'a> {
    live: &'a [usize],
    table: GrowChainTable,
    considered: AtomicUsize,
}

impl<'a> DistinctSink<'a> {
    /// Sink keeping one row per distinct value of the flattened columns
    /// `live` (non-empty).
    pub fn new(live: &'a [usize]) -> Self {
        DistinctSink {
            live,
            table: GrowChainTable::new(live.len(), 0, 0),
            considered: AtomicUsize::new(0),
        }
    }

    /// Offer one row's live values (in `live` order). Returns `true` when
    /// no equal one was offered before. Callable from any worker
    /// concurrently.
    #[inline]
    pub fn offer(&self, key_row: &[Value]) -> bool {
        self.table.insert_unique_row(hash_row(key_row), key_row)
    }

    /// Rows offered across all workers, duplicates included.
    pub fn considered(&self) -> usize {
        self.considered.load(Ordering::Relaxed)
    }
}

/// A concurrent reservoir sample over rows streamed through a sink.
///
/// OOF-FA wants `analyze(Rt)` over the pre-aggregation intermediate —
/// which the streaming pipeline never materializes. The sampler keeps a
/// fixed-capacity uniform-ish reservoir (replacement index drawn from a
/// deterministic splitmix of the arrival counter, so runs are
/// reproducible given an arrival order) plus the exact row count, which
/// together are what the statistics pass consumes instead of a full
/// `Rt` scan.
pub struct SinkSampler {
    arity: usize,
    cap: usize,
    seen: AtomicUsize,
    /// Reservoir rows, flattened row-major (≤ `cap · arity` values).
    rows: Mutex<Vec<Value>>,
}

impl SinkSampler {
    /// Sampler for rows of `arity` values keeping at most `cap` of them.
    pub fn new(arity: usize, cap: usize) -> Self {
        let cap = cap.max(1);
        SinkSampler {
            arity,
            cap,
            seen: AtomicUsize::new(0),
            rows: Mutex::new(Vec::with_capacity(cap.min(1024) * arity)),
        }
    }

    /// Offer one row; callable from any worker concurrently.
    pub fn offer(&self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.arity);
        let i = self.seen.fetch_add(1, Ordering::Relaxed);
        if i < self.cap {
            let mut r = self.rows.lock();
            let end = (i + 1) * self.arity;
            if r.len() < end {
                r.resize(end, 0);
            }
            r[i * self.arity..end].copy_from_slice(row);
        } else {
            // Classic reservoir replacement with a deterministic draw.
            let j = (mix64(i as u64) % (i as u64 + 1)) as usize;
            if j < self.cap {
                let mut r = self.rows.lock();
                // Slot j's under-cap owner may not have resized yet (its
                // `fetch_add` and its lock acquisition are not atomic
                // together): grow to full capacity before writing past
                // the filled prefix. The owner's late write then merely
                // replaces this sample with another valid row.
                if r.len() < self.cap * self.arity {
                    r.resize(self.cap * self.arity, 0);
                }
                r[j * self.arity..(j + 1) * self.arity].copy_from_slice(row);
            }
        }
    }

    /// Exact number of rows offered.
    pub fn seen(&self) -> usize {
        self.seen.load(Ordering::Relaxed)
    }

    /// Rows currently held by the reservoir.
    pub fn sampled(&self) -> usize {
        self.seen().min(self.cap)
    }

    /// Materialize the reservoir column-major (for `analyze_view`).
    pub fn columns(&self) -> Vec<Vec<Value>> {
        let r = self.rows.lock();
        let n = r.len() / self.arity.max(1);
        let mut cols = vec![Vec::with_capacity(n); self.arity];
        for row in r.chunks(self.arity) {
            for (c, &v) in row.iter().enumerate() {
                cols[c].push(v);
            }
        }
        cols
    }
}

/// The aggregation state a streaming [`AggSink`] folds rows into.
pub enum AggTarget<'a> {
    /// Recursive monotonic aggregation: CAS-on-best concurrent map whose
    /// dirty list is the iteration's ∆.
    Mono(&'a ConcurrentMonoMap),
    /// Non-recursive group-by: sharded partial states merged at flush.
    Group(&'a GroupSink),
}

/// Shared state of one group-at-source streaming pass: every produced row
/// of an aggregated head is absorbed into a concurrent aggregation state
/// right at the probe site — the pre-aggregation `Rt` is never
/// materialized, merged or re-scanned — optionally sampling the
/// statistics OOF-FA would otherwise re-scan `Rt` for.
pub struct AggSink<'a> {
    target: AggTarget<'a>,
    sampler: Option<&'a SinkSampler>,
    considered: AtomicUsize,
}

impl<'a> AggSink<'a> {
    /// Sink folding rows into `target`, sampling for statistics when
    /// `sampler` is given (the OOF-FA path).
    pub fn new(target: AggTarget<'a>, sampler: Option<&'a SinkSampler>) -> Self {
        AggSink {
            target,
            sampler,
            considered: AtomicUsize::new(0),
        }
    }

    /// Offer one produced row in pre-aggregation layout
    /// (`[group ‖ aggregate arguments]`). Never buffers: the row is folded
    /// into the aggregation state and dropped. Callable from any worker
    /// concurrently.
    #[inline]
    pub fn offer(&self, row: &[Value]) {
        match self.target {
            AggTarget::Mono(m) => {
                m.absorb_row(row);
            }
            AggTarget::Group(g) => g.absorb_row(row),
        }
        if let Some(s) = self.sampler {
            s.offer(row);
        }
    }

    /// Rows offered across all workers — `|Rt|` of the materializing
    /// path, folded at source instead of being buffered.
    pub fn considered(&self) -> usize {
        self.considered.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecCtx;
    use recstep_storage::{Relation, Schema};

    fn ctx() -> ExecCtx {
        ExecCtx::with_threads(4)
    }

    #[test]
    fn offer_filters_base_members_and_duplicates() {
        let ctx = ctx();
        let base = Relation::from_rows(Schema::with_arity("r", 2), &[vec![0, 0], vec![9, 90]]);
        let idx = PersistentIndex::build(&ctx, base.view(), vec![0, 1]);
        let sink = DeltaSink::new(&idx, base.view(), 8);
        assert!(!sink.offer(&[9, 90]), "already in R");
        assert!(sink.offer(&[3, 30]), "fresh");
        assert!(!sink.offer(&[3, 30]), "duplicate candidate");
        assert!(sink.offer(&[4, 40]));
        SinkMode::Delta(&sink).note_considered(4);
        assert_eq!(sink.considered(), 4);
        assert!(sink.take_overflow().is_empty());
        // Node chunk 0 (64 rows of 2 values) plus the 64-entry directory.
        assert!(sink.scratch_bytes() >= 64 * (4 + 8 + 16) + 64 * 4);
        assert_eq!(sink.table_doublings(), 0);
    }

    #[test]
    fn attached_sampler_mirrors_every_offered_row() {
        let ctx = ctx();
        let base = Relation::from_rows(Schema::with_arity("r", 2), &[vec![0, 0], vec![9, 90]]);
        let idx = PersistentIndex::build(&ctx, base.view(), vec![0, 1]);
        let sampler = SinkSampler::new(2, 16);
        let sink = DeltaSink::new(&idx, base.view(), 8).with_sampler(&sampler);
        assert!(!sink.offer(&[9, 90]), "base member still filtered");
        assert!(sink.offer(&[3, 30]));
        assert!(!sink.offer(&[3, 30]), "duplicate still filtered");
        // The reservoir saw all three offers — base members and duplicates
        // included, exactly what a materialized Rt would have held.
        assert_eq!(sampler.seen(), 3);
        assert_eq!(sampler.sampled(), 3);
    }

    #[test]
    fn packed_escapes_land_in_overflow() {
        let ctx = ctx();
        let base = Relation::from_rows(Schema::with_arity("r", 2), &[vec![1, 2], vec![100, 200]]);
        let idx = PersistentIndex::build(&ctx, base.view(), vec![0, 1]);
        assert!(idx.mode().exact(), "small values pack");
        let sink = DeltaSink::new(&idx, base.view(), 8);
        assert!(!sink.offer(&[Value::MIN, Value::MAX]), "escape is parked");
        assert!(!sink.offer(&[Value::MIN, Value::MAX]), "parked again");
        assert!(sink.offer(&[3, 4]), "fitting rows still stream");
        let overflow = sink.take_overflow();
        assert_eq!(
            overflow,
            vec![vec![Value::MIN, Value::MAX], vec![Value::MIN, Value::MAX]]
        );
        assert!(sink.take_overflow().is_empty(), "drained");
    }

    #[test]
    fn empty_base_defers_to_hashed_and_accepts_everything_once() {
        let ctx = ctx();
        let base = Relation::new(Schema::with_arity("r", 2));
        let idx = PersistentIndex::build(&ctx, base.view(), vec![0, 1]);
        let sink = DeltaSink::new(&idx, base.view(), 4);
        // No escapes possible in hashed mode, even for extreme values.
        assert!(sink.offer(&[Value::MIN, Value::MAX]));
        assert!(!sink.offer(&[Value::MIN, Value::MAX]));
        assert!(sink.offer(&[0, 0]));
        assert!(sink.take_overflow().is_empty());
    }

    #[test]
    fn sampler_keeps_exact_counts_and_a_bounded_reservoir() {
        let s = SinkSampler::new(2, 8);
        for i in 0..100i64 {
            s.offer(&[i, i * 2]);
        }
        assert_eq!(s.seen(), 100);
        assert_eq!(s.sampled(), 8);
        let cols = s.columns();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].len(), 8);
        // Every sampled row is a real input row.
        for (a, b) in cols[0].iter().zip(&cols[1]) {
            assert_eq!(*b, a * 2);
        }
    }

    #[test]
    fn sampler_survives_concurrent_offers_across_the_cap_boundary() {
        // Regression: an overflow-branch replacement must not index past
        // a reservoir an in-flight under-cap filler has not grown yet.
        let ctx = ctx();
        let s = SinkSampler::new(2, 64);
        ctx.pool.parallel_for(64 * 50, 8, |range, _| {
            for i in range {
                let v = i as Value;
                s.offer(&[v, v + 1]);
            }
        });
        assert_eq!(s.seen(), 64 * 50);
        assert_eq!(s.sampled(), 64);
        let cols = s.columns();
        assert_eq!(cols[0].len(), 64);
        for (a, b) in cols[0].iter().zip(&cols[1]) {
            assert_eq!(*b, a + 1, "sampled rows must be real input rows");
        }
    }

    #[test]
    fn sampler_underfull_holds_every_row() {
        let s = SinkSampler::new(1, 16);
        for i in 0..5i64 {
            s.offer(&[i]);
        }
        assert_eq!(s.sampled(), 5);
        let mut col = s.columns().remove(0);
        col.sort_unstable();
        assert_eq!(col, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn agg_sink_folds_rows_without_buffering() {
        use crate::agg::ConcurrentMonoMap;
        use crate::expr::AggFunc;
        let mut map = ConcurrentMonoMap::new(AggFunc::Min, 1, 8).unwrap();
        let sampler = SinkSampler::new(2, 4);
        {
            let sink = AggSink::new(AggTarget::Mono(&map), Some(&sampler));
            sink.offer(&[1, 10]);
            sink.offer(&[1, 7]);
            sink.offer(&[2, 3]);
            SinkMode::Agg(&sink).note_considered(3);
            assert_eq!(sink.considered(), 3);
            assert_eq!(sampler.seen(), 3);
        }
        assert_eq!(map.get(&[1]), Some(7));
        assert_eq!(map.take_improved(crate::agg::Bucket::Lowest).len(), 2 * 2);
    }

    #[test]
    fn agg_sink_group_target_reaches_the_sharded_partials() {
        use crate::agg::GroupSink;
        use crate::expr::AggFunc;
        let group = GroupSink::new(vec![AggFunc::Count], 1);
        let sink = AggSink::new(AggTarget::Group(&group), None);
        sink.offer(&[5, 0]);
        sink.offer(&[5, 0]);
        sink.offer(&[6, 0]);
        assert_eq!(group.groups(), 2);
    }

    #[test]
    fn concurrent_offers_produce_each_fresh_row_once() {
        let ctx = ctx();
        // Wide bounds so every offered row fits the packed layout.
        let base = Relation::from_rows(Schema::with_arity("r", 2), &[vec![0, 1], vec![40, 41]]);
        let idx = PersistentIndex::build(&ctx, base.view(), vec![0, 1]);
        let sink = DeltaSink::new(&idx, base.view(), 4);
        let winners = AtomicUsize::new(0);
        // 32 distinct rows (one equals a base row), offered 64× each.
        ctx.pool.parallel_for(32 * 64, 16, |range, _| {
            for i in range {
                let r = (i % 32) as Value;
                if sink.offer(&[r, r + 1]) {
                    winners.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        assert_eq!(winners.load(Ordering::Relaxed), 31);
    }
}
