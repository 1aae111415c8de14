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
//! [`DistinctSink`] keyed on those columns, over no base index, and only
//! its winners materialize. A chain intermediate under a materializing
//! sink stays Algorithm 1's UNION ALL, as the ablation arms that keep `Rt`
//! expect. View maintenance needs no multiplicities: both of its
//! strategies stream through a `DeltaSink`.
//!
//! ## Bit windows
//!
//! When a packed key is narrow, the packed key *is* the tuple and a set of
//! tuples is a set of small integers — the dense case PBME makes a bit
//! matrix of. Both set sinks then trade their hash table for a
//! direct-addressed [`BitWindow`], one bit per packed key:
//!
//! * a [`DeltaSink`] over a full-`R` index that keeps a membership window
//!   of `R` ([`PersistentIndex::window`]) asks that window whether the row
//!   is in `R`, then `test_and_set`s the bit in a window of its own — the
//!   pass's winners. No chain is walked, no row is stored, no
//!   [`GrowChainTable`] is allocated;
//! * a [`DistinctSink`] whose live columns pack narrowly — their layout
//!   comes from the covering bounds of the stage's source scan columns —
//!   does the same over its one window; keys its layout cannot pack fall
//!   to a hashed table, and since a row packs or escapes as a whole, the
//!   two never hold the same row.
//!
//! A sink never writes into the index's window, so a dropped or failed
//! pass leaves no trace and many sinks may share one index. The pass's own
//! window is allocated in 4 KiB pages on first touch, so a pass costs the
//! pages its winners touch plus a directory of at most
//! 2^([`BIT_WINDOW_MAX_BITS`] − 15) entries — never `O(|R|)` and never
//! `O(2^bits)`. A caller running pass after pass keeps the window or
//! table in a [`SinkScratch`], which the next pass empties instead of
//! allocating anew (a table restarts at a directory sized for the
//! caller's estimate, such as the previous ∆). [`BitWindow::worth`] is the one rule for window vs. table:
//! up to [`BIT_WINDOW_MAX_BITS`] bits, and the whole window (at least one
//! page) no larger than twice the bytes a hashed table would spend on the
//! expected rows — `|R|` for `R`'s window, the stage's input rows for a
//! chain stage.
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

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;
use recstep_common::hash::{hash_row, mix64};
use recstep_common::Value;
use recstep_storage::RelView;

use crate::agg::{ConcurrentMonoMap, GroupSink};
use crate::chain::GrowChainTable;
use crate::expr::Expr;
use crate::index::PersistentIndex;
use crate::key::{KeyLayout, KeyMode};
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

/// Widest packed key a [`BitWindow`] addresses: 2^26 bits, 8 MiB once
/// every page is touched, behind a directory of 2^11 pages.
pub const BIT_WINDOW_MAX_BITS: u32 = 26;

/// `log₂` of the bits per [`BitWindow`] page (4 KiB pages).
const PAGE_BITS: u32 = 15;

/// Words per [`BitWindow`] page.
const PAGE_WORDS: usize = 1 << (PAGE_BITS - 6);

type Page = [AtomicU64; PAGE_WORDS];

/// A concurrent set of the packed keys of one [`KeyLayout`], one bit per
/// key: the direct-addressed form of a set sink's table (see the module
/// docs). Pages are allocated on first touch, so an empty or sparse
/// window costs its directory and the pages in use, not `2^bits` bits.
pub struct BitWindow {
    layout: KeyLayout,
    pages: Box<[OnceLock<Box<Page>>]>,
    /// Zeroed pages [`BitWindow::clear`] took out of the directory, handed
    /// out again before a new one is allocated.
    spare: Mutex<Vec<Box<Page>>>,
    /// Pages allocated so far, in the directory or spare.
    touched: AtomicUsize,
}

impl BitWindow {
    /// An empty window over every packed key of `layout`. Panics when the
    /// layout packs more than [`BIT_WINDOW_MAX_BITS`] bits —
    /// [`BitWindow::worth`] never accepts such a layout.
    pub fn new(layout: KeyLayout) -> Self {
        let bits = layout.total_bits();
        assert!(bits <= BIT_WINDOW_MAX_BITS, "bit window too wide");
        let pages = (0..1usize << bits.saturating_sub(PAGE_BITS))
            .map(|_| OnceLock::new())
            .collect();
        BitWindow {
            layout,
            pages,
            spare: Mutex::new(Vec::new()),
            touched: AtomicUsize::new(0),
        }
    }

    /// Whether a window over `layout` is worth keeping for about `rows`
    /// keys — the one rule for bit window vs. hashed table: at most
    /// [`BIT_WINDOW_MAX_BITS`] bits, and the full window, in whole pages,
    /// at most twice the bytes a hashed table would spend on `rows` rows
    /// of the layout's width. So a window is never taken for fewer rows
    /// than fill a page's worth of table (57 pairs).
    pub fn worth(layout: &KeyLayout, rows: usize) -> bool {
        let bits = layout.total_bits();
        // A hashed row: its link, key and values, and two directory cells.
        let hashed_bytes = rows.saturating_mul(4 + 8 + 8 * layout.width() + 2 * 4);
        bits <= BIT_WINDOW_MAX_BITS
            && (1usize << bits.max(PAGE_BITS)) / 8 <= hashed_bytes.saturating_mul(2)
    }

    /// The layout whose packed keys the window holds.
    pub fn layout(&self) -> &KeyLayout {
        &self.layout
    }

    /// The page cell holding `key`'s bit, and the bit's word in the page.
    #[inline]
    fn locate(&self, key: u64) -> (&OnceLock<Box<Page>>, usize) {
        let key = key as usize;
        (&self.pages[key >> PAGE_BITS], (key >> 6) & (PAGE_WORDS - 1))
    }

    #[cold]
    #[inline(never)]
    fn allocate<'w>(&self, cell: &'w OnceLock<Box<Page>>) -> &'w Page {
        cell.get_or_init(|| {
            self.spare.lock().pop().unwrap_or_else(|| {
                self.touched.fetch_add(1, Ordering::Relaxed);
                Box::new([const { AtomicU64::new(0) }; PAGE_WORDS])
            })
        })
    }

    /// Whether `key` (a packed key of the layout) is in the set.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        let (cell, word) = self.locate(key);
        cell.get()
            .is_some_and(|page| page[word].load(Ordering::Relaxed) & (1 << (key & 63)) != 0)
    }

    /// Add `key` (a packed key of the layout); `true` when it was absent.
    /// Of concurrent inserts of one key exactly one returns `true`. A key
    /// already present is answered by a plain load, so duplicates never
    /// contend for the cache line. Bits are `Relaxed`: a bit publishes no
    /// other data (a page is published by its `OnceLock`), and readers of
    /// an index's window run after the pool join that ended its writes.
    #[inline]
    pub fn insert(&self, key: u64) -> bool {
        let (cell, word) = self.locate(key);
        let page = cell
            .get()
            .map(Box::as_ref)
            .unwrap_or_else(|| self.allocate(cell));
        let word = &page[word];
        let bit = 1 << (key & 63);
        word.load(Ordering::Relaxed) & bit == 0 && word.fetch_or(bit, Ordering::Relaxed) & bit == 0
    }

    /// Empty the window for reuse, keeping its pages as spares: costs the
    /// directory plus the pages in use, not every page ever allocated.
    pub fn clear(&mut self) {
        let spare = self.spare.get_mut();
        for mut page in self.pages.iter_mut().filter_map(OnceLock::take) {
            for word in page.iter_mut() {
                *word.get_mut() = 0;
            }
            spare.push(page);
        }
    }

    /// Heap footprint in bytes: the directory and the pages held, spare
    /// ones included.
    pub fn heap_bytes(&self) -> usize {
        self.pages.len() * std::mem::size_of::<OnceLock<Box<Page>>>()
            + self.touched.load(Ordering::Relaxed) * std::mem::size_of::<Page>()
    }
}

/// A set sink's pass-local storage — its bit window and hashed table —
/// kept between passes: each pass empties what the previous one left, so
/// once it has grown to what a pass holds a pass allocates nothing.
#[derive(Default)]
pub struct SinkScratch {
    window: Option<BitWindow>,
    /// Filled eagerly by a [`DeltaSink`], on first use by a
    /// [`DistinctSink`].
    table: OnceLock<GrowChainTable>,
}

impl SinkScratch {
    /// Heap bytes held between passes: the bit window's directory and
    /// pages, and the table's node chunks and directory.
    pub fn heap_bytes(&self) -> usize {
        self.window.as_ref().map_or(0, BitWindow::heap_bytes)
            + self.table.get().map_or(0, GrowChainTable::heap_bytes)
    }

    /// An empty bit window over `layout`.
    fn window(&mut self, layout: &KeyLayout) -> &BitWindow {
        match &mut self.window {
            Some(w) if w.layout() == layout => w.clear(),
            slot => *slot = Some(BitWindow::new(layout.clone())),
        }
        self.window.as_ref().expect("just filled")
    }

    /// An empty hashed table of `width`-value rows, its directory sized
    /// for `capacity` rows.
    fn table(&mut self, width: usize, capacity: usize) -> &GrowChainTable {
        let buckets = capacity.saturating_mul(2);
        match self.table.get_mut() {
            Some(t) if t.width() == width => t.reset(buckets),
            _ => self.table = OnceLock::from(GrowChainTable::new(width, capacity, buckets)),
        }
        self.table.get().expect("just filled")
    }

    /// The hashed table of `width`-value rows, emptied, or an empty cell
    /// for the first user to fill.
    fn lazy_table(&mut self, width: usize) -> &OnceLock<GrowChainTable> {
        match self.table.get_mut() {
            Some(t) if t.width() == width => t.reset(0),
            _ => self.table = OnceLock::new(),
        }
        &self.table
    }
}

/// A [`DeltaSink`]'s winners store: its own, or lent by a [`SinkScratch`].
enum Store<'a, T> {
    Own(T),
    Lent(&'a T),
}

impl<T> std::ops::Deref for Store<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        match self {
            Store::Own(t) => t,
            Store::Lent(t) => t,
        }
    }
}

/// Where a [`DeltaSink`] records the pass's winners.
enum Winners<'a> {
    /// Bit windows: `R`'s (owned by the index, only read here) and the
    /// pass's own.
    Window {
        base: &'a BitWindow,
        fresh: Store<'a, BitWindow>,
    },
    /// The hashed scratch table, probing the index's chains for `R`.
    Table(Store<'a, GrowChainTable>),
}

/// Shared per-iteration state of one fused streaming pass: the full-`R`
/// index to probe, the winners of the pass (a bit window, or a scratch
/// table deduplicating candidates), and the overflow list for compact-key
/// escapes.
pub struct DeltaSink<'a> {
    index: &'a PersistentIndex,
    base: RelView<'a>,
    mode: KeyMode,
    exact: bool,
    arity: usize,
    winners: Winners<'a>,
    /// Rows escaping a packed key layout, flattened row-major (rare; at
    /// most one iteration per stratum sees any, right before the index's
    /// one-time hashed rebuild).
    overflow: Mutex<Vec<Value>>,
    considered: AtomicUsize,
    sampler: Option<&'a SinkSampler>,
}

impl<'a> DeltaSink<'a> {
    /// Sink probing `index` (whole-tuple keys over `base`, which must be
    /// the relation the index covers). When the index keeps a bit window
    /// of `R`, the pass records its winners in a bit window too; otherwise
    /// in a scratch table, whose initial capacity in rows is `capacity` —
    /// an allocation hint, not a cap and not a tuning knob: the table
    /// grows in flight and its chain length does not depend on it, so
    /// callers with no estimate of `|∆R|` pass 0.
    pub fn new(index: &'a PersistentIndex, base: RelView<'a>, capacity: usize) -> Self {
        let winners = match index.window() {
            Some(w) => Winners::Window {
                base: w,
                fresh: Store::Own(BitWindow::new(w.layout().clone())),
            },
            None => Winners::Table(Store::Own(GrowChainTable::new(
                base.arity(),
                capacity,
                capacity.saturating_mul(2),
            ))),
        };
        Self::over(index, base, winners)
    }

    /// [`DeltaSink::new`], keeping the pass's winners in `scratch`,
    /// emptied first, instead of in storage of its own: a caller running
    /// pass after pass reuses one window or table, which then costs what
    /// the pass touches, not a fresh allocation.
    pub fn with_scratch(
        index: &'a PersistentIndex,
        base: RelView<'a>,
        scratch: &'a mut SinkScratch,
        capacity: usize,
    ) -> Self {
        let winners = match index.window() {
            Some(w) => Winners::Window {
                base: w,
                fresh: Store::Lent(scratch.window(w.layout())),
            },
            None => Winners::Table(Store::Lent(scratch.table(base.arity(), capacity))),
        };
        Self::over(index, base, winners)
    }

    fn over(index: &'a PersistentIndex, base: RelView<'a>, winners: Winners<'a>) -> Self {
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
            winners,
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
        match &self.winners {
            Winners::Window { base, fresh } => !base.contains(key) && fresh.insert(key),
            Winners::Table(scratch) => {
                if !self.base.is_empty() {
                    let in_base = self.index.table().iter_key(key).any(|node| {
                        self.exact
                            || (0..self.arity).all(|c| self.base.get(node as usize, c) == row[c])
                    });
                    if in_base {
                        return false;
                    }
                }
                scratch.insert_unique_row(key, row)
            }
        }
    }

    /// True when this pass records its winners in a bit window (no scratch
    /// table exists).
    pub fn windowed(&self) -> bool {
        matches!(self.winners, Winners::Window { .. })
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

    /// Approximate heap footprint of the pass's winners: the scratch
    /// table's node chunks plus its bucket directory (sentinels
    /// included), or the pass's bit window.
    pub fn scratch_bytes(&self) -> usize {
        match &self.winners {
            Winners::Window { fresh, .. } => fresh.heap_bytes(),
            Winners::Table(scratch) => scratch.heap_bytes(),
        }
    }

    /// Times the scratch table's bucket directory doubled during this
    /// pass — how far `|∆R|` outran the initial capacity (0 for a bit
    /// window, which never grows).
    pub fn table_doublings(&self) -> usize {
        match &self.winners {
            Winners::Window { .. } => 0,
            Winners::Table(scratch) => scratch.doublings(),
        }
    }

    /// Drain the compact-key escapes (row-major). May contain duplicates
    /// of each other, never of `R` or of sink winners.
    pub fn take_overflow(&self) -> Vec<Vec<Value>> {
        let flat = std::mem::take(&mut *self.overflow.lock());
        flat.chunks(self.arity).map(<[Value]>::to_vec).collect()
    }
}

/// Shared state of one deduplicated chain stage: the distinct values of
/// the stage's live columns, raced by every morsel worker over no base
/// index — the intermediate is new by construction, only its duplicates
/// die. Values are kept in a [`BitWindow`] when their layout is narrow,
/// and in a [`GrowChainTable`] (the same `insert_unique_row` a
/// [`DeltaSink`] uses) when it is wide or a value escapes it.
pub struct DistinctSink<'a> {
    live: &'a [usize],
    window: Option<&'a BitWindow>,
    /// Hashed values: all of them without a window, else the escapes
    /// (allocated on the first).
    table: &'a OnceLock<GrowChainTable>,
    considered: AtomicUsize,
}

impl<'a> DistinctSink<'a> {
    /// Sink keeping one row per distinct value of the flattened columns
    /// `live` (non-empty), in `scratch`, emptied first (a caller running
    /// pass after pass reuses one window or table). `bounds`, when known,
    /// covers each live column's values (per `live` entry) and `rows`
    /// estimates the distinct values; [`BitWindow::worth`] decides from
    /// them whether a bit window holds the values. Bounds that miss a
    /// value cost speed, never results: such a value escapes to the
    /// hashed table.
    pub fn new(
        live: &'a [usize],
        bounds: Option<&[(Value, Value)]>,
        rows: usize,
        scratch: &'a mut SinkScratch,
    ) -> Self {
        let layout = bounds
            .and_then(KeyLayout::from_bounds)
            .filter(|layout| BitWindow::worth(layout, rows));
        if let Some(layout) = &layout {
            scratch.window(layout);
        }
        scratch.lazy_table(live.len());
        let scratch = &*scratch;
        DistinctSink {
            live,
            window: layout.and(scratch.window.as_ref()),
            table: &scratch.table,
            considered: AtomicUsize::new(0),
        }
    }

    /// Offer one row's live values (in `live` order). Returns `true` when
    /// no equal one was offered before. Callable from any worker
    /// concurrently.
    #[inline]
    pub fn offer(&self, key_row: &[Value]) -> bool {
        if let Some(w) = &self.window {
            if let Some(key) = w.layout().try_pack(key_row) {
                return w.insert(key);
            }
        }
        self.table
            .get_or_init(|| GrowChainTable::new(self.live.len(), 0, 0))
            .insert_unique_row(hash_row(key_row), key_row)
    }

    /// True when the stage's values are kept in a bit window.
    pub fn windowed(&self) -> bool {
        self.window.is_some()
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
        // A 41-bit first column: the tuple packs (exact keys) but is far
        // too wide for a bit window, so the pass takes the scratch table.
        let base = Relation::from_rows(
            Schema::with_arity("r", 2),
            &[vec![0, 0], vec![9, 90], vec![1 << 40, 1 << 20]],
        );
        let idx = PersistentIndex::build(&ctx, base.view(), vec![0, 1]);
        assert!(idx.mode().exact() && idx.window().is_none());
        let mut scratch = SinkScratch::default();
        let sink = DeltaSink::with_scratch(&idx, base.view(), &mut scratch, 8);
        assert!(!sink.windowed());
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
        // The next pass reuses the emptied table: last pass's winners are
        // fresh again, and R's members still are not.
        drop(sink);
        let again = DeltaSink::with_scratch(&idx, base.view(), &mut scratch, 8);
        assert!(again.offer(&[3, 30]));
        assert!(!again.offer(&[3, 30]));
        assert!(!again.offer(&[9, 90]), "already in R");
    }

    #[test]
    fn offer_filters_base_members_and_duplicates_in_a_bit_window() {
        let ctx = ctx();
        // 7 + 7 bits over 62 rows: the index keeps R's membership bits,
        // and the pass keeps its winners in a window of its own.
        let mut rows = vec![vec![0, 0], vec![9, 90]];
        rows.extend((20..80).map(|i| vec![i, i]));
        let base = Relation::from_rows(Schema::with_arity("r", 2), &rows);
        let idx = PersistentIndex::build(&ctx, base.view(), vec![0, 1]);
        assert!(idx.window().is_some());
        let mut scratch = SinkScratch::default();
        let sink = DeltaSink::with_scratch(&idx, base.view(), &mut scratch, 8);
        assert!(sink.windowed());
        assert!(!sink.offer(&[9, 90]), "already in R");
        assert!(sink.offer(&[3, 30]), "fresh");
        assert!(!sink.offer(&[3, 30]), "duplicate candidate");
        assert!(sink.offer(&[4, 40]));
        SinkMode::Delta(&sink).note_considered(4);
        assert_eq!(sink.considered(), 4);
        assert!(sink.take_overflow().is_empty());
        // One touched page behind a one-entry directory; no table at all.
        assert_eq!(
            sink.scratch_bytes(),
            PAGE_WORDS * 8 + std::mem::size_of::<OnceLock<Box<Page>>>()
        );
        assert_eq!(sink.table_doublings(), 0);
        // The sink only read R's window, and a second pass over the same
        // scratch starts from an empty window of its own.
        drop(sink);
        let again = DeltaSink::with_scratch(&idx, base.view(), &mut scratch, 8);
        assert!(again.offer(&[3, 30]));
        assert!(!again.offer(&[9, 90]), "still in R");
    }

    #[test]
    fn bit_window_rule_weighs_the_window_against_the_table() {
        let layout = |bounds: &[(Value, Value)]| KeyLayout::from_bounds(bounds).unwrap();
        // A window is at least one 4 KiB page: a pair table spends 36
        // bytes a row, so 57 rows are the least a window serves.
        let narrow = layout(&[(0, 99), (0, 99)]);
        assert!(!BitWindow::worth(&narrow, 56));
        assert!(BitWindow::worth(&narrow, 57));
        // Offsets do not matter, only spans.
        assert!(BitWindow::worth(
            &layout(&[(1 << 40, (1 << 40) + 511)]),
            100
        ));
        // 24 bits (2 MiB): taken once the table would spend over 1 MiB.
        let wide = layout(&[(0, 4095), (0, 4095)]);
        assert!(!BitWindow::worth(&wide, 29_000));
        assert!(BitWindow::worth(&wide, 30_000));
        // Past the cap: never, however many rows.
        assert!(!BitWindow::worth(
            &layout(&[(0, 1 << 14), (0, 1 << 14)]),
            usize::MAX
        ));
        assert!(!BitWindow::worth(
            &layout(&[(Value::MIN, Value::MAX)]),
            usize::MAX
        ));
    }

    #[test]
    fn bit_window_pages_are_allocated_on_first_touch() {
        let w = BitWindow::new(KeyLayout::from_bounds(&[(0, (1 << 20) - 1)]).unwrap());
        let directory = 32 * std::mem::size_of::<OnceLock<Box<Page>>>();
        assert_eq!(w.heap_bytes(), directory, "no page before an insert");
        assert!(!w.contains(5));
        assert!(w.insert(5));
        assert!(!w.insert(5));
        assert!(w.contains(5) && !w.contains(6));
        assert!(w.insert((1 << 20) - 1));
        assert_eq!(w.heap_bytes(), directory + 2 * PAGE_WORDS * 8);
    }

    #[test]
    fn a_cleared_window_is_empty_and_hands_its_pages_out_again() {
        let mut w = BitWindow::new(KeyLayout::from_bounds(&[(0, (1 << 20) - 1)]).unwrap());
        for page in 0..4 {
            assert!(w.insert((page << PAGE_BITS) + 5));
        }
        let held = w.heap_bytes();
        let in_use = |w: &BitWindow| w.pages.iter().filter(|p| p.get().is_some()).count();
        w.clear();
        assert_eq!(in_use(&w), 0, "a clear empties the directory");
        assert!((0..4).all(|page| !w.contains((page << PAGE_BITS) + 5)));
        // A later pass touching one page takes a zeroed spare, so the next
        // clear costs that page alone.
        assert!(w.insert(7));
        assert!(!w.contains(5) && w.contains(7));
        assert_eq!(in_use(&w), 1);
        assert_eq!(w.heap_bytes(), held, "no page allocated past the spares");
        w.clear();
        assert!(!w.contains(7) && w.insert(5));
    }

    #[test]
    fn distinct_sink_windows_narrow_values_and_hashes_escapes() {
        let live = [0, 1];
        let mut scratch = SinkScratch::default();
        let sink = DistinctSink::new(&live, Some(&[(0, 9), (0, 9)]), 100, &mut scratch);
        assert!(sink.windowed());
        assert!(sink.offer(&[3, 4]));
        assert!(!sink.offer(&[3, 4]));
        // Outside the bounds: kept in the hashed table, deduplicated there.
        assert!(sink.offer(&[3, 400]));
        assert!(!sink.offer(&[3, 400]));
        assert!(sink.offer(&[4, 3]));
        let mut scratch = SinkScratch::default();
        let unbounded = DistinctSink::new(&live, None, 0, &mut scratch);
        assert!(!unbounded.windowed());
        assert!(unbounded.offer(&[3, 4]) && !unbounded.offer(&[3, 4]));
        // Pass after pass over one scratch: each starts empty, window and
        // escape table alike, and a pass without a window hashes into the
        // same table.
        let mut scratch = SinkScratch::default();
        for pass in 0..3 {
            let bounds: &[(Value, Value)] = &[(0, 9), (0, 9)];
            let sink = DistinctSink::new(&live, (pass != 1).then_some(bounds), 100, &mut scratch);
            assert_eq!(sink.windowed(), pass != 1, "pass {pass}");
            for row in [[3, 4], [3, 400]] {
                assert!(sink.offer(&row), "pass {pass}: {row:?} is new");
                assert!(!sink.offer(&row), "pass {pass}: {row:?} again");
            }
        }
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
        // Two groups improved: a value-ordered drain takes ⌈2 / 8⌉ = 1,
        // the lowest, and leaves the other for the next drain.
        use crate::agg::Bucket;
        assert_eq!(map.take_improved(Bucket::Lowest), [2, 3]);
        assert_eq!(map.take_improved(Bucket::Lowest), [1, 7]);
        assert!(map.take_improved(Bucket::Lowest).is_empty());
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
