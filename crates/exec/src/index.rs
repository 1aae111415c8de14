//! Join and membership indexes in two layouts: chained where rows are
//! appended, key-ordered where they never are.
//!
//! * [`PersistentIndex`] — a CCK-GSCHT chain table pinned to a growing
//!   relation's row ids and appended to across fixpoint iterations: the
//!   full-`R` table a [`crate::sink::DeltaSink`] probes, and join build
//!   sides over the running stratum's own IDBs
//!   ([`crate::join::chained_join_sink`]).
//! * [`OrderedIndex`] — the build rows counting-sorted by bucket and
//!   gathered column-wise behind an offset array, so one key's matches
//!   are one contiguous run. Every build side that is never appended to
//!   uses it: the per-call builds of [`crate::join::hash_join_sink`] and
//!   [`crate::join::anti_join_sink`], and every index over a relation
//!   frozen for its stratum (an EDB, or a lower stratum's finished IDB) —
//!   [`SharedIndex`] wraps it for the cross-run
//!   [`crate::cache::IndexCache`], and a run without that cache keeps the
//!   same layout to itself. Probe values outside the build side's bounds
//!   match nothing, so a frozen index never rebuilds.
//!
//! The rest of this page is about the chained, persistent kind.
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
//!
//! A whole-tuple index under a narrow packed layout also keeps a
//! membership [`BitWindow`] of `R` ([`PersistentIndex::window`]; the rule
//! is [`BitWindow::worth`]): one bit per packed key, set by `build` and
//! `append` for the rows they insert, created once when `R` grows dense
//! enough, and dropped with the packed layout by the hashed rebuild (a
//! shrink rebuild chooses it afresh). Membership in `R` is then one bit,
//! and the sink keeps its winners in a bit window of its own, so neither a
//! chain nor a scratch table is touched. Sinks only read this window: a
//! pass that is dropped or fails leaves it as it was.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use recstep_common::hash::hash_values;
use recstep_common::Value;
use recstep_storage::RelView;

use crate::chain::ChainTable;
use crate::key::{bounds_of, KeyLayout, KeyMode};
use crate::sink::BitWindow;
use crate::util::next_pow2_at_least;
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
    /// Membership bits of the covered rows' packed keys: only for a
    /// whole-tuple key under a packed layout [`BitWindow::worth`] accepts.
    window: Option<BitWindow>,
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
            window: None,
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

    /// The underlying chain table (probed by
    /// [`crate::join::chained_join_sink`] and the fused sinks).
    pub fn table(&self) -> &ChainTable {
        &self.table
    }

    /// The membership bit window of `R`, when the index keeps one: bit
    /// `k` is set iff a covered row packs to `k` under
    /// [`PersistentIndex::mode`]'s layout.
    pub fn window(&self) -> Option<&BitWindow> {
        self.window.as_ref()
    }

    /// Approximate heap footprint in bytes: the chain table and the bit
    /// window.
    pub fn heap_bytes(&self) -> usize {
        self.table.heap_bytes() + self.window.as_ref().map_or(0, BitWindow::heap_bytes)
    }

    /// Insert rows `from..to` of `base` under their row ids (multimap
    /// semantics), growing node storage and doubling buckets as needed,
    /// and set their window bits. The window a whole-tuple packed index
    /// first finds worth keeping at `to` rows is created here and takes
    /// rows `0..from` too — once per index.
    fn insert_range(&mut self, ctx: &ExecCtx, base: RelView<'_>, from: usize, to: usize) {
        debug_assert_eq!(from, self.rows);
        let mut start = from;
        if let (None, KeyMode::Packed(layout)) = (&self.window, &self.mode) {
            if self.cols.iter().copied().eq(0..base.arity()) && BitWindow::worth(layout, to) {
                self.window = Some(BitWindow::new(layout.clone()));
                start = 0;
            }
        }
        if to > from {
            self.table.grow_nodes(to);
            // Keep the load factor at ≤ 0.5 nodes per bucket, the same
            // pre-allocation ratio scratch builds use; doubling amortizes
            // the relink cost over the rows that triggered it.
            if to * 2 > self.table.buckets() {
                self.table.rehash(to * 2);
            }
        }
        if to > start {
            let (mode, cols) = (&self.mode, &self.cols);
            let (table, window) = (&self.table, self.window.as_ref());
            ctx.pool.parallel_for(to - start, ctx.grain, |range, _| {
                for r in start + range.start..start + range.end {
                    let key = mode.key_of(base, r, cols);
                    if r >= from {
                        table.insert_multi(r as u32, key);
                    }
                    if let Some(w) = window {
                        w.insert(key);
                    }
                }
            });
        }
        self.rows = to;
    }

    /// Discard the table and the window and rebuild over all of `base`
    /// under `mode` (hashed after a compact-key invalidation, chosen
    /// afresh after a shrink).
    fn rebuild(&mut self, ctx: &ExecCtx, base: RelView<'_>, mode: KeyMode) {
        let n = base.len();
        self.mode = mode;
        self.table = ChainTable::with_capacity(n, n * 2);
        self.window = None;
        self.rows = 0;
        self.insert_range(ctx, base, 0, n);
    }

    /// True when the values of `view`'s columns `cols` can be keyed
    /// without invalidating the current key mode.
    fn mode_admits(&self, view: RelView<'_>, cols: &[usize]) -> bool {
        match &self.mode {
            KeyMode::Packed(layout) => layout.covers_view(view, cols),
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
            self.rebuild(ctx, base, KeyMode::for_view(base, &self.cols));
            return SyncAction::Rebuilt;
        }
        if n == self.rows {
            return SyncAction::Reused;
        }
        if self.rows == 0 {
            // Deferred mode choice: the index was created over an empty
            // relation; pick the mode from the first real rows.
            self.mode = KeyMode::for_view(base, &self.cols);
        } else if !self.mode_admits(base, &self.cols) {
            // Whole-relation bounds decide invalidation exactly: already
            // indexed rows fit the layout, so the combined bounds escape
            // iff some appended value escapes. For stored relations this
            // reads the O(1) incremental cache.
            self.rebuild(ctx, base, KeyMode::Hashed);
            return SyncAction::Rebuilt;
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
        if !self.mode_admits(probe, probe_cols) {
            self.rebuild(ctx, base, KeyMode::Hashed);
            return SyncAction::Rebuilt;
        }
        action
    }
}

/// Most buckets a dense [`OrderedIndex`] spends per build row: a packed
/// key span up to this multiple of the row count is addressed directly,
/// one bucket per key; a wider span hashes. (The build also holds one
/// histogram of that many buckets per worker.)
const DENSE_BUCKETS_PER_ROW: u64 = 2;

/// Widest packed key a dense [`OrderedIndex`] considers (2^40 buckets is
/// already past any row count a `u32` offset can index).
const DENSE_MAX_BITS: u32 = 40;

/// How an [`OrderedIndex`] maps a key to its bucket.
#[derive(Clone, Debug)]
enum Buckets {
    /// The packed key is the bucket: each key column's offset from the
    /// build side's minimum sits at the given shift, so the all-minimum
    /// key is bucket 0 and a bucket holds exactly one key — probes verify
    /// nothing.
    Dense(Vec<u32>),
    /// `hash_row(key) & mask`: buckets mix keys, probes verify them.
    Hashed(usize),
}

impl Buckets {
    /// The dense layout when the packed span of `bounds` is within
    /// [`DENSE_BUCKETS_PER_ROW`] buckets per row, else a power-of-two
    /// hashed directory of at least `rows` buckets. Returns the bucket
    /// count too.
    fn choose(bounds: &[(Value, Value)], rows: usize) -> (Buckets, usize) {
        if let Some(layout) = KeyLayout::from_bounds(bounds) {
            if layout.total_bits() <= DENSE_MAX_BITS {
                // The all-maximum key is the largest packed key: every
                // slot is monotone in its value.
                let top = layout
                    .slots()
                    .iter()
                    .zip(bounds)
                    .fold(0u64, |k, (s, &(lo, hi))| k | (hi.abs_diff(lo) << s.shift));
                let span = top + 1;
                if span <= DENSE_BUCKETS_PER_ROW * rows.max(16) as u64 {
                    let shifts = layout.slots().iter().map(|s| s.shift).collect();
                    return (Buckets::Dense(shifts), span as usize);
                }
            }
        }
        let count = next_pow2_at_least(rows, 1);
        (Buckets::Hashed(count - 1), count)
    }

    /// Bucket of row `r`'s key columns `cols` in `view`, or `None` when a
    /// value lies outside `bounds` (such a key matches no build row).
    #[inline]
    fn of(
        &self,
        bounds: &[(Value, Value)],
        view: RelView<'_>,
        r: usize,
        cols: &[usize],
    ) -> Option<usize> {
        match self {
            Buckets::Dense(shifts) => {
                let mut key = 0u64;
                for ((&c, &(lo, hi)), &shift) in cols.iter().zip(bounds).zip(shifts) {
                    let v = view.get(r, c);
                    if v < lo || v > hi {
                        return None;
                    }
                    key |= v.abs_diff(lo) << shift;
                }
                Some(key as usize)
            }
            Buckets::Hashed(mask) => {
                let values = cols.iter().map(|&c| view.get(r, c));
                let within = values
                    .clone()
                    .zip(bounds)
                    .all(|(v, &(lo, hi))| lo <= v && v <= hi);
                within.then(|| hash_values(values) as usize & mask)
            }
        }
    }
}

/// A column buffer the build's chunks write at slots they own exclusively.
struct SlotWriter(*mut Value);

// SAFETY: writers only ever touch disjoint slots (see `OrderedIndex::build`).
unsafe impl Send for SlotWriter {}
unsafe impl Sync for SlotWriter {}

impl SlotWriter {
    /// # Safety
    /// `slot` is in bounds and written by no other thread.
    #[inline]
    unsafe fn write(&self, slot: usize, v: Value) {
        *self.0.add(slot) = v;
    }
}

/// A key-ordered index over a build side that is never appended to.
///
/// The build rows are counting-sorted by bucket in parallel and stored
/// column-wise in that order behind an offset array, so one key's matches
/// form one contiguous run of [`OrderedIndex::view`] (the HISA layout of
/// *Optimizing Datalog for the GPU*): a probe computes one bucket and
/// reads a run of adjacent rows instead of walking a pointer chain into
/// the base relation. The bucket is the packed key itself when the key
/// columns' packed span is within a small multiple of the row count, and
/// `hash & mask` otherwise (then probes verify keys).
///
/// The index keeps the build side's per-key-column bounds, and a probe
/// value outside them matches nothing — so unlike a packed
/// [`PersistentIndex`], no probe can invalidate the layout, and nothing
/// ever rebuilds it.
pub struct OrderedIndex {
    cols: Vec<usize>,
    /// Per key column `(min, max)` over the build rows.
    bounds: Vec<(Value, Value)>,
    buckets: Buckets,
    /// Bucket `b`'s rows are `offsets[b]..offsets[b + 1]` of `data`.
    offsets: Vec<u32>,
    /// Every column of the build rows, gathered in bucket order.
    data: Vec<Vec<Value>>,
    /// One row per distinct key ([`OrderedIndex::first_rows`]), gathered
    /// on first use.
    firsts: OnceLock<Vec<Vec<Value>>>,
}

impl OrderedIndex {
    /// Index all rows of `base` on key columns `cols`.
    ///
    /// A stable parallel counting sort over `T` static row chunks (`T` =
    /// the pool's workers, or 1 for inputs within one morsel): each chunk
    /// computes its rows' buckets and a private histogram, one prefix pass
    /// turns the histograms into per-(bucket, chunk) write cursors, and
    /// each chunk scatters its rows' columns straight to their slots. No
    /// atomics — skewed keys cost no contention — and the order within a
    /// bucket is row order, whatever the schedule.
    pub fn build(ctx: &ExecCtx, base: RelView<'_>, cols: Vec<usize>) -> Self {
        let n = base.len();
        let arity = base.arity();
        let Some(bounds) = bounds_of(base, &cols) else {
            return OrderedIndex {
                cols,
                bounds: Vec::new(),
                buckets: Buckets::Hashed(0),
                offsets: vec![0, 0],
                data: vec![Vec::new(); arity],
                firsts: OnceLock::new(),
            };
        };
        assert!(n <= u32::MAX as usize, "an index addresses rows by u32");
        let (buckets, count) = Buckets::choose(&bounds, n);
        let chunks = if n <= ctx.grain {
            1
        } else {
            ctx.pool.threads()
        };
        let chunk = |t: usize| t * n / chunks..(t + 1) * n / chunks;
        let on_chunks = |f: &(dyn Fn(usize) + Sync)| {
            if chunks == 1 {
                f(0);
            } else {
                ctx.pool.run(|w| f(w.worker));
            }
        };
        // Pass 1: each chunk's row buckets and bucket sizes.
        let parts: Vec<Mutex<(Vec<u32>, Vec<u32>)>> =
            (0..chunks).map(|_| Mutex::default()).collect();
        on_chunks(&|t| {
            let mut row_bucket = Vec::with_capacity(chunk(t).len());
            let mut sizes = vec![0u32; count];
            for r in chunk(t) {
                let b = buckets
                    .of(&bounds, base, r, &cols)
                    .expect("build rows lie within their own bounds");
                row_bucket.push(b as u32);
                sizes[b] += 1;
            }
            *parts[t].lock() = (row_bucket, sizes);
        });
        let mut parts: Vec<(Vec<u32>, Vec<u32>)> =
            parts.into_iter().map(Mutex::into_inner).collect();
        // Bucket starts, and each chunk's sizes turned into its cursors:
        // within a bucket, chunk t writes after chunks 0..t.
        let mut offsets = Vec::with_capacity(count + 1);
        let mut start = 0u32;
        for b in 0..count {
            offsets.push(start);
            for (_, sizes) in &mut parts {
                let size = sizes[b];
                sizes[b] = start;
                start += size;
            }
        }
        offsets.push(start);
        // Pass 2: every chunk scatters its rows' columns to their slots.
        let mut data: Vec<Vec<Value>> = vec![vec![0 as Value; n]; arity];
        let dst: Vec<SlotWriter> = data
            .iter_mut()
            .map(|c| SlotWriter(c.as_mut_ptr()))
            .collect();
        let parts: Vec<Mutex<(Vec<u32>, Vec<u32>)>> = parts.into_iter().map(Mutex::new).collect();
        on_chunks(&|t| {
            let (row_bucket, mut cursor) = std::mem::take(&mut *parts[t].lock());
            for (r, &b) in chunk(t).zip(&row_bucket) {
                let slot = cursor[b as usize] as usize;
                cursor[b as usize] += 1;
                for (c, out) in dst.iter().enumerate() {
                    // SAFETY: the cursors hand every slot in `0..n` to
                    // exactly one row, so no two writes alias, and `data`
                    // outlives both passes.
                    unsafe { out.write(slot, base.get(r, c)) };
                }
            }
        });
        OrderedIndex {
            cols,
            bounds,
            buckets,
            offsets,
            data,
            firsts: OnceLock::new(),
        }
    }

    /// Rows indexed.
    pub fn rows(&self) -> usize {
        *self.offsets.last().expect("offsets end with the row count") as usize
    }

    /// True when the index holds no row.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// Key columns the index is built on.
    pub fn key_cols(&self) -> &[usize] {
        &self.cols
    }

    /// True when buckets are the packed keys themselves (no probe-side
    /// verification); false for hashed buckets.
    pub fn dense(&self) -> bool {
        matches!(self.buckets, Buckets::Dense(_))
    }

    /// The build rows in bucket order: [`OrderedIndex::matches`] yields
    /// row positions of this view.
    pub fn view(&self) -> RelView<'_> {
        RelView::over(&self.data)
    }

    /// Positions in [`OrderedIndex::view`] of the rows whose key equals
    /// row `r`'s `probe_cols` in `probe` — one contiguous run, filtered
    /// by key comparison only under hashed buckets.
    #[inline]
    pub fn matches<'s>(
        &'s self,
        probe: RelView<'s>,
        r: usize,
        probe_cols: &'s [usize],
    ) -> impl Iterator<Item = usize> + 's {
        debug_assert_eq!(probe_cols.len(), self.cols.len());
        let run = match self.buckets.of(&self.bounds, probe, r, probe_cols) {
            Some(b) => self.offsets[b] as usize..self.offsets[b + 1] as usize,
            None => 0..0,
        };
        let verify = !self.dense();
        run.filter(move |&pos| {
            !verify
                || self
                    .cols
                    .iter()
                    .zip(probe_cols)
                    .all(|(&bc, &pc)| self.data[bc][pos] == probe.get(r, pc))
        })
    }

    /// Whether any build row's key equals row `r`'s `probe_cols` in
    /// `probe`.
    #[inline]
    pub fn contains(&self, probe: RelView<'_>, r: usize, probe_cols: &[usize]) -> bool {
        self.matches(probe, r, probe_cols).next().is_some()
    }

    /// One row per distinct key, column-wise: the first row of each key's
    /// run in [`OrderedIndex::view`] order, so the build side's first row
    /// with that key. Under dense buckets these are the first rows of the
    /// non-empty buckets; under hashed ones each bucket's rows are
    /// deduplicated on the key. Gathered on the first call and kept.
    pub fn first_rows(&self) -> RelView<'_> {
        RelView::over(self.firsts.get_or_init(|| self.gather_first_rows()))
    }

    /// Whether [`OrderedIndex::first_rows`] has been gathered.
    pub fn has_first_rows(&self) -> bool {
        self.firsts.get().is_some()
    }

    fn gather_first_rows(&self) -> Vec<Vec<Value>> {
        let same_key = |a: usize, b: usize| {
            self.cols
                .iter()
                .all(|&c| self.data[c][a] == self.data[c][b])
        };
        let mut firsts: Vec<usize> = Vec::new();
        for run in self.offsets.windows(2) {
            let run = run[0] as usize..run[1] as usize;
            match self.buckets {
                Buckets::Dense(_) => firsts.extend(run.take(1)),
                Buckets::Hashed(_) => {
                    let bucket = firsts.len();
                    for pos in run {
                        if !firsts[bucket..].iter().any(|&f| same_key(f, pos)) {
                            firsts.push(pos);
                        }
                    }
                }
            }
        }
        let gather = |col: &Vec<Value>| firsts.iter().map(|&p| col[p]).collect();
        self.data.iter().map(gather).collect()
    }

    /// Heap footprint in bytes: the offsets, the gathered rows and the
    /// first row of each key once gathered.
    pub fn heap_bytes(&self) -> usize {
        let firsts = self
            .firsts
            .get()
            .map_or(0, |cols| cols.iter().map(|c| c.len() * 8).sum::<usize>());
        self.offsets.len() * 4 + self.data.iter().map(|c| c.len() * 8).sum::<usize>() + firsts
    }
}

/// An immutable, `Arc`-shareable [`OrderedIndex`] over a frozen relation
/// snapshot, with the build cost cache eviction weighs.
///
/// A shared index is the read-only tier of index caching: it is built once
/// over a *frozen* relation snapshot (EDBs, or IDB relations of already
/// completed strata), published into a [`crate::cache::IndexCache`], and
/// probed concurrently by any number of evaluations. It is never
/// synchronized — staleness is handled by the cache key (relation version),
/// not by mutation — which is what makes `&SharedIndex` safe to hand to
/// many threads at once. Any probe may use it: values outside the
/// snapshot's bounds simply match nothing.
pub struct SharedIndex {
    index: OrderedIndex,
    build_cost: Duration,
}

// Backing stores are plain data; sharing across threads is the whole
// point.
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
        let index = OrderedIndex::build(ctx, base, cols);
        SharedIndex {
            index,
            build_cost: t0.elapsed(),
        }
    }

    /// The key-ordered index itself.
    pub fn index(&self) -> &OrderedIndex {
        &self.index
    }

    /// Rows of the frozen base relation the snapshot covers.
    pub fn rows(&self) -> usize {
        self.index.rows()
    }

    /// Key columns the index is built on.
    pub fn key_cols(&self) -> &[usize] {
        self.index.key_cols()
    }

    /// Heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.index.heap_bytes()
    }

    /// Wall-clock cost of the original build — the denominator of the
    /// cache's `bytes / rebuild_cost` eviction score.
    pub fn build_cost(&self) -> Duration {
        self.build_cost
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

    /// The rows of [`OrderedIndex::first_rows`], sorted.
    fn first_rows_of(ix: &OrderedIndex) -> Vec<Vec<Value>> {
        let v = ix.first_rows();
        let mut rows: Vec<Vec<Value>> = (0..v.len())
            .map(|r| (0..v.arity()).map(|c| v.get(r, c)).collect())
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn first_rows_hold_one_row_per_key_in_either_layout() {
        let ctx = ctx();
        // Dense: keys 0..=2 on column 0, two of them with duplicates.
        let rows = [[2, 7], [0, 1], [2, 8], [0, 3], [1, 5], [2, 9]].map(Vec::from);
        let rel = Relation::from_rows(Schema::with_arity("r", 2), &rows);
        let ix = OrderedIndex::build(&ctx, rel.view(), vec![0]);
        assert!(ix.dense());
        assert!(!ix.has_first_rows());
        let bytes = ix.heap_bytes();
        assert_eq!(first_rows_of(&ix), [[0, 1], [1, 5], [2, 7]].map(Vec::from));
        assert!(ix.has_first_rows());
        assert_eq!(ix.heap_bytes(), bytes + 3 * 2 * 8, "the list counts");

        // Hashed: ids 2^50 apart, and a second key `k` found to share the
        // first key's bucket, each key twice.
        let wide = 1 << 50;
        let mut k = wide;
        let (ix, rows) = loop {
            k += 1;
            let rows = [[0, 1], [k, 2], [0, 3], [k, 4], [wide, 5], [wide, 6]].map(Vec::from);
            let rel = Relation::from_rows(Schema::with_arity("r", 2), &rows);
            let ix = OrderedIndex::build(&ctx, rel.view(), vec![0]);
            let Buckets::Hashed(mask) = ix.buckets else {
                panic!("a 2^50 span hashes");
            };
            let bucket = |v: Value| hash_values([v]) as usize & mask;
            if bucket(k) == bucket(0) {
                break (ix, rows);
            }
        };
        assert_eq!(
            first_rows_of(&ix),
            [&rows[0], &rows[4], &rows[1]].map(Vec::clone)
        );
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
        let key = idx.mode().key_of(base.view(), 1, &[0]);
        assert!(idx.table().contains(key, |n| n == 1));
    }

    #[test]
    fn a_window_is_created_once_r_grows_dense_enough() {
        // 10 + 10 bits: past the window floor, so two rows keep no window;
        // 2 000 rows make a 128 KiB window worth it, and the append that
        // crosses the line sets the bits of every row, old and new.
        let ctx = ctx();
        let mut base =
            Relation::from_rows(Schema::with_arity("r", 2), &[vec![0, 0], vec![1023, 1023]]);
        let mut idx = PersistentIndex::build(&ctx, base.view(), vec![0, 1]);
        assert!(idx.mode().exact() && idx.window().is_none());
        for i in 0..2000 {
            base.push_row(&[i % 1000, i / 2]);
        }
        assert_eq!(idx.append(&ctx, base.view()), SyncAction::Appended(2000));
        let KeyMode::Packed(layout) = idx.mode() else {
            panic!("still packed")
        };
        let w = idx.window().expect("dense enough now");
        let keys: HashSet<u64> = base.to_rows().iter().map(|r| layout.pack(r)).collect();
        assert!((0..1u64 << 20).all(|k| w.contains(k) == keys.contains(&k)));
        // A join index (not the whole tuple) never keeps one.
        let join = PersistentIndex::build(&ctx, base.view(), vec![0]);
        assert!(join.window().is_none());
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
        let key = idx.mode().key_of(base.view(), 0, &[0]);
        assert!(idx.table().contains(key, |n| n == 0));
    }
}
