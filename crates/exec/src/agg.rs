//! Hash group-by aggregation and monotonic recursive aggregates.
//!
//! Non-recursive aggregation (the `gtc(x, COUNT(y))` example of §3.3) maps
//! to a parallel hash group-by: per-worker partial states merged once at the
//! end. Recursive aggregation (CC's and SSSP's `MIN`) follows the monotonic
//! semantics the paper inherits from the recursive-aggregate literature
//! [Lefebvre 92]: the IDB keeps one tuple per group holding the current best
//! value, and the ∆ of an iteration is drawn from the *strictly improved*
//! groups — which is what [`ConcurrentMonoMap::take_improved`] drains.
//! Under [`Bucket::Lowest`] a drain hands back only the lowest-valued bucket
//! of the improved groups (for `MAX`, the highest) and keeps the rest
//! pending for a later round, so a long path is relaxed in value order
//! (∆-stepping) instead of once per synchronous round (Bellman–Ford);
//! [`Bucket::Unbounded`] hands back every improved group.
//!
//! [`ConcurrentMonoMap`] is a latch-free CAS-on-best map — a per-group
//! payload on the growable [`GrowChainTable`], fronted by a
//! direct-addressed window when the group keys pack compactly — and the
//! one table behind every recursive `MIN`/`MAX` head: operator workers
//! fold rows into it at the probe site (group-at-source), or the
//! `--no-fused-agg` arm absorbs the groups of a materialized `Rt` into it
//! after a [`group_aggregate`] pass. It also serves non-recursive
//! single-`MIN`/`MAX` heads under the streaming sink, and [`GroupSink`]
//! holds sharded group-by partials for every other streamed group-by,
//! merged once at flush. Streamed, the pre-aggregation `Rt` is never
//! materialized.
//!
//! ## Overflow
//!
//! Accumulators widen through `i128`, so the running sum itself cannot
//! wrap on any realistic input; the hazard is the final narrowing back to
//! the engine's `i64` value domain. `SUM`/`COUNT`/`AVG` **saturate**: an
//! accumulated value outside `i64` range clamps to `i64::MIN`/`i64::MAX`
//! instead of wrapping silently (and the `i128` accumulator saturates at
//! its own bounds as belt-and-braces).

use std::sync::atomic::{AtomicI64, AtomicU32, AtomicUsize, Ordering};

use parking_lot::Mutex;
use recstep_common::hash::{hash_row, FxHashMap};
use recstep_common::Value;
use recstep_storage::RelView;

use crate::chain::{GrowChainTable, Slot, SlotChunks};
use crate::expr::{AggFunc, Expr};
use crate::key::KeyLayout;
use crate::ExecCtx;

/// Saturating narrowing from the `i128` accumulator domain back to the
/// engine's `i64` value domain (see the module docs on overflow).
#[inline]
fn saturate_value(acc: i128) -> Value {
    if acc > Value::MAX as i128 {
        Value::MAX
    } else if acc < Value::MIN as i128 {
        Value::MIN
    } else {
        acc as Value
    }
}

#[derive(Clone, Copy)]
struct AggState {
    acc: i128,
    cnt: u64,
}

impl AggState {
    fn new(func: AggFunc, v: Value) -> Self {
        match func {
            AggFunc::Min | AggFunc::Max => AggState {
                acc: v as i128,
                cnt: 1,
            },
            AggFunc::Sum | AggFunc::Avg => AggState {
                acc: v as i128,
                cnt: 1,
            },
            AggFunc::Count => AggState { acc: 1, cnt: 1 },
        }
    }

    fn update(&mut self, func: AggFunc, v: Value) {
        match func {
            AggFunc::Min => self.acc = self.acc.min(v as i128),
            AggFunc::Max => self.acc = self.acc.max(v as i128),
            AggFunc::Sum | AggFunc::Avg => {
                self.acc = self.acc.saturating_add(v as i128);
                self.cnt = self.cnt.saturating_add(1);
            }
            AggFunc::Count => {
                self.acc = self.acc.saturating_add(1);
                self.cnt = self.cnt.saturating_add(1);
            }
        }
    }

    fn merge(&mut self, func: AggFunc, other: &AggState) {
        match func {
            AggFunc::Min => self.acc = self.acc.min(other.acc),
            AggFunc::Max => self.acc = self.acc.max(other.acc),
            AggFunc::Sum | AggFunc::Avg | AggFunc::Count => {
                self.acc = self.acc.saturating_add(other.acc);
                self.cnt = self.cnt.saturating_add(other.cnt);
            }
        }
    }

    fn finish(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Avg => saturate_value(self.acc / self.cnt.max(1) as i128),
            _ => saturate_value(self.acc),
        }
    }
}

/// One `AGG(expr)` column in an aggregation.
#[derive(Clone, Debug)]
pub struct AggCol {
    /// The aggregation operator.
    pub func: AggFunc,
    /// Its argument expression over the flattened input row.
    pub expr: Expr,
}

/// Parallel hash group-by.
///
/// `group_exprs` produce the key columns; the output is
/// `[group columns ‖ aggregate columns]` with one row per distinct group.
pub fn group_aggregate(
    ctx: &ExecCtx,
    input: RelView<'_>,
    group_exprs: &[Expr],
    aggs: &[AggCol],
) -> Vec<Vec<Value>> {
    let out_arity = group_exprs.len() + aggs.len();
    if input.is_empty() {
        return vec![Vec::new(); out_arity];
    }
    // Phase 1: per-worker partial maps.
    let partials = parking_lot::Mutex::new(Vec::<FxHashMap<Box<[Value]>, Vec<AggState>>>::new());
    let n = input.len();
    let grain = ctx.grain.max(1);
    let next = std::sync::atomic::AtomicUsize::new(0);
    ctx.pool.run(|_| {
        let mut map: FxHashMap<Box<[Value]>, Vec<AggState>> = FxHashMap::default();
        let mut row = Vec::new();
        let mut key = Vec::new();
        loop {
            let start = next.fetch_add(grain, std::sync::atomic::Ordering::Relaxed);
            if start >= n {
                break;
            }
            for r in start..(start + grain).min(n) {
                input.copy_row(r, &mut row);
                key.clear();
                key.extend(group_exprs.iter().map(|e| e.eval(&row)));
                match map.get_mut(key.as_slice()) {
                    Some(states) => {
                        for (st, a) in states.iter_mut().zip(aggs) {
                            st.update(a.func, a.expr.eval(&row));
                        }
                    }
                    None => {
                        let states: Vec<AggState> = aggs
                            .iter()
                            .map(|a| AggState::new(a.func, a.expr.eval(&row)))
                            .collect();
                        map.insert(key.clone().into_boxed_slice(), states);
                    }
                }
            }
        }
        if !map.is_empty() {
            partials.lock().push(map);
        }
    });
    // Phase 2: merge partials.
    let mut parts = partials.into_inner().into_iter();
    let mut global = parts.next().unwrap_or_default();
    for part in parts {
        for (key, states) in part {
            match global.get_mut(&key) {
                Some(g) => {
                    for ((gs, ps), a) in g.iter_mut().zip(&states).zip(aggs) {
                        gs.merge(a.func, ps);
                    }
                }
                None => {
                    global.insert(key, states);
                }
            }
        }
    }
    // Phase 3: materialize.
    let mut cols: Vec<Vec<Value>> = (0..out_arity)
        .map(|_| Vec::with_capacity(global.len()))
        .collect();
    for (key, states) in &global {
        for (c, &v) in key.iter().enumerate() {
            cols[c].push(v);
        }
        for (i, (st, a)) in states.iter().zip(aggs).enumerate() {
            cols[group_exprs.len() + i].push(st.finish(a.func));
        }
    }
    cols
}

/// Dirty-stack link of a clean group (existing, not queued for the next
/// ∆) — the default of a fresh payload cell.
const NOT_DIRTY: u32 = 0;
/// Dirty-stack terminator (stack entries are `id + 1`).
const DIRTY_END: u32 = u32::MAX;
/// Link of a window cell no candidate has reached: its group does not
/// exist. Never a stack entry (table slots stay below 2^30, window ids
/// below `IN_WINDOW + 2^WINDOW_MAX_BITS`).
const ABSENT: u32 = u32::MAX - 1;
/// Link of a group a drain left pending (in [`Pending`]) for a later
/// round. Never a stack entry, like [`ABSENT`].
const DEFERRED: u32 = u32::MAX - 2;
/// Dirty-stack id tag: the low bits name a window cell, not a table slot.
const IN_WINDOW: u32 = 1 << 31;
/// Dirty-stack entry tag: the group was [`DEFERRED`] when it improved, so
/// its pending entry went stale. Free in every entry (`id + 1` stays
/// below 2^30 for slots and below 2^22 past [`IN_WINDOW`] for cells).
const REQUEUED: u32 = 1 << 30;

/// A [`Bucket::Lowest`] drain takes one in this many of the groups
/// improved since the previous drain, and at least its adaptive width.
const BUCKET_DIVISOR: usize = 8;
/// A [`Bucket::Lowest`] drain's width doubles after a drain of which at
/// most one in this many handed-back groups improved again, and halves
/// otherwise.
const REWORK_DIVISOR: usize = 8;
/// A chunk cut for a bucket of `need` is split exactly (one selection)
/// up to `2 * need + CUT_SLACK` entries; a larger one is halved around a
/// sampled median first, so the part a later round cuts again stays small.
const CUT_SLACK: usize = 64;

/// How much of the pending groups one [`ConcurrentMonoMap::take_improved`]
/// hands back as ∆.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bucket {
    /// Every pending group: synchronous rounds (Bellman–Ford).
    Unbounded,
    /// The lowest-valued (for `MAX`, highest-valued) pending groups: with
    /// `n` groups improved since the previous drain, the first
    /// `T = max(w, ⌈n / BUCKET_DIVISOR⌉)` in value order plus every group
    /// tied with the `T`-th. The width `w` starts at 1 and adapts to the
    /// rework the drains cause: it doubles after a drain whose handed-back
    /// groups stayed final — at most one in [`REWORK_DIVISOR`] improved
    /// again — and halves after one that handed back more non-final
    /// values. So a path whose lowest group is the only final one is
    /// relaxed about one vertex an iteration, while a sparse graph with
    /// untied weights, where the lowest few hundred groups are final,
    /// drains them together (∆-stepping with a width found by the drains
    /// rather than set). Which groups a drain takes depends only on the
    /// pending `(group, value)` pairs and on earlier drains, never on the
    /// thread count.
    Lowest,
}

impl Bucket {
    /// Groups to take when `improved` groups improved since the previous
    /// drain, at adaptive width `width` (ties with the last one come on
    /// top).
    fn size(self, improved: usize, width: usize) -> usize {
        match self {
            Bucket::Unbounded => usize::MAX,
            Bucket::Lowest => improved.div_ceil(BUCKET_DIVISOR).max(width),
        }
    }
}

/// A pending entry of one group.
#[derive(Clone, Copy)]
struct Entry {
    /// The group's value as an order key (bit-inverted for `MAX`, so
    /// that lower always comes first).
    key: Value,
    /// The group's id (a table slot, or a window cell tagged
    /// [`IN_WINDOW`]).
    id: u32,
    /// The drain that filed it.
    drain: u32,
}

/// The pending entries whose keys lie in `[lo, lo of the chunk above)`,
/// unordered.
struct Chunk {
    lo: Value,
    entries: Vec<Entry>,
}

/// The groups drains have left for a later round, bucketed by value: a
/// stack of key ranges, lowest range last, each an unordered [`Chunk`].
/// An entry goes stale when its group improves again (the group re-enters
/// at its new value) and is dropped when a drain next scans its chunk.
/// A drain takes whole chunks from the bottom and cuts at most one, so a
/// round costs O(∆ + bucket) plus the halvings of an oversized cut chunk
/// (incremental quickselect), never a walk of the whole pending set.
///
/// Every vector a drain uses is kept for the next one — emptied chunks'
/// entry lists in `spare`, the drain's `batch` and `taken` lists and its
/// output rows — so a drain in steady state allocates nothing.
#[derive(Default)]
struct Pending {
    /// Key ranges, `lo` strictly descending.
    chunks: Vec<Chunk>,
    /// Emptied entry lists, kept for the next chunk.
    spare: Vec<Vec<Entry>>,
    /// The groups the current drain popped off the dirty stack.
    batch: Vec<Entry>,
    /// The groups the current drain hands back.
    taken: Vec<Entry>,
    /// The last drain's rows, `[group ‖ value]` flattened.
    drained: Vec<Value>,
    /// A window cell's group key, unpacked while draining.
    unpacked: Vec<Value>,
    /// Entries whose group still holds the entry's value.
    live: usize,
    /// Entries, stale ones included.
    stored: usize,
    /// Drains so far.
    drains: u32,
    /// Groups the previous drain popped and left pending.
    deferred: usize,
    /// Groups the previous drain handed back.
    handed: usize,
    /// Groups the map held at the previous drain.
    groups: usize,
    /// A [`Bucket::Lowest`] drain's adaptive width (see there); 0 before
    /// the first drain, read as 1.
    width: usize,
}

impl Pending {
    /// An empty entry list, recycled when one is spare.
    fn fresh(&mut self) -> Vec<Entry> {
        self.spare.pop().unwrap_or_default()
    }

    /// Keep `entries`' allocation for a later chunk.
    fn recycle(&mut self, mut entries: Vec<Entry>) {
        entries.clear();
        self.spare.push(entries);
    }

    /// Drop every chunk (their entries are all stale), keeping the lists.
    fn clear(&mut self) {
        for chunk in self.chunks.drain(..) {
            let mut entries = chunk.entries;
            entries.clear();
            self.spare.push(entries);
        }
        self.stored = 0;
    }

    /// File the fresh entries of `batch` (each live, one per group) into
    /// their chunks.
    fn insert(&mut self, batch: &[Entry]) {
        self.live += batch.len();
        self.stored += batch.len();
        for &e in batch {
            let at = self.chunks.partition_point(|c| c.lo > e.key);
            if at == self.chunks.len() {
                let entries = self.fresh();
                self.chunks.push(Chunk {
                    lo: Value::MIN,
                    entries,
                });
            }
            self.chunks[at].entries.push(e);
        }
    }

    /// Move the `need` lowest live entries plus every live entry tied with
    /// the last of them (all of them when fewer are live) to `out`.
    /// `live(e)` tells a live entry from a stale one.
    fn take(&mut self, mut need: usize, live: impl Fn(&Entry) -> bool, out: &mut Vec<Entry>) {
        if need >= self.live {
            for chunk in self.chunks.drain(..) {
                let mut entries = chunk.entries;
                out.extend(entries.iter().copied().filter(&live));
                entries.clear();
                self.spare.push(entries);
            }
            (self.live, self.stored) = (0, 0);
            return;
        }
        while need > 0 {
            let Chunk { lo, mut entries } = self.chunks.pop().expect("live entries remain");
            let scanned = entries.len();
            entries.retain(&live);
            self.stored -= scanned - entries.len();
            if entries.len() <= need {
                need -= entries.len();
                self.take_all(out, entries);
                continue;
            }
            // The cut falls inside this chunk: split it three ways around
            // a pivot — the exact `need`-th key when the chunk is small,
            // else a sampled median.
            let pivot = if entries.len() <= 2 * need + CUT_SLACK {
                entries
                    .select_nth_unstable_by_key(need - 1, |e| e.key)
                    .1
                    .key
            } else {
                sampled_median(&entries)
            };
            let (lt, gt) = partition3(&mut entries, pivot);
            if lt >= need {
                // Everything wanted lies below the pivot: keep the rest as
                // a chunk of its own and cut the lower part next.
                let mut rest = self.fresh();
                rest.extend(entries.drain(lt..));
                self.push_chunk(pivot, rest);
                self.chunks.push(Chunk { lo, entries });
                continue;
            }
            let mut high = self.fresh();
            high.extend(entries.drain(gt..));
            need = need.saturating_sub(entries.len());
            self.take_all(out, entries);
            // Non-empty only when `pivot < MAX`: something lies above it.
            self.push_chunk(pivot.saturating_add(1), high);
        }
    }

    /// Move `entries` (all live) to `out`.
    fn take_all(&mut self, out: &mut Vec<Entry>, entries: Vec<Entry>) {
        self.live -= entries.len();
        self.stored -= entries.len();
        out.extend_from_slice(&entries);
        self.recycle(entries);
    }

    /// Put back a chunk of live entries at the bottom (recycling an empty
    /// one).
    fn push_chunk(&mut self, lo: Value, entries: Vec<Entry>) {
        if entries.is_empty() {
            self.recycle(entries);
        } else {
            self.chunks.push(Chunk { lo, entries });
        }
    }

    /// Drop every stale entry once they outnumber the live ones, so the
    /// chunks far above the cut hold O(live) entries.
    fn compact(&mut self, live: impl Fn(&Entry) -> bool) {
        if self.stored <= 2 * self.live + 1024 {
            return;
        }
        for chunk in &mut self.chunks {
            chunk.entries.retain(&live);
        }
        self.chunks.retain(|c| !c.entries.is_empty());
        self.stored = self.live;
    }

    fn heap_bytes(&self) -> usize {
        let lists = self.chunks.iter().map(|c| &c.entries).chain(&self.spare);
        let entries =
            lists.map(Vec::capacity).sum::<usize>() + self.batch.capacity() + self.taken.capacity();
        let values = self.drained.capacity() + self.unpacked.capacity();
        entries * std::mem::size_of::<Entry>() + values * std::mem::size_of::<Value>()
    }
}

/// Median key of up to nine entries spread evenly over `entries`.
fn sampled_median(entries: &[Entry]) -> Value {
    let step = (entries.len() / 9).max(1);
    let mut sample = [0; 9];
    let mut n = 0;
    for (slot, e) in sample.iter_mut().zip(entries.iter().step_by(step)) {
        *slot = e.key;
        n += 1;
    }
    let sample = &mut sample[..n];
    let mid = sample.len() / 2;
    *sample.select_nth_unstable(mid).1
}

/// Dutch-flag partition of `entries` by key around `pivot`: returns
/// `(lt, gt)` with keys below the pivot in `..lt`, equal in `lt..gt` and
/// above in `gt..`.
fn partition3(entries: &mut [Entry], pivot: Value) -> (usize, usize) {
    let (mut lt, mut i, mut gt) = (0, 0, entries.len());
    while i < gt {
        match entries[i].key.cmp(&pivot) {
            std::cmp::Ordering::Less => {
                entries.swap(lt, i);
                lt += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                gt -= 1;
                entries.swap(i, gt);
            }
            std::cmp::Ordering::Equal => i += 1,
        }
    }
    (lt, gt)
}

/// Widest direct-addressed window, in packed key bits (2^22 cells of 16
/// bytes: 64 MiB).
pub const WINDOW_MAX_BITS: u32 = 22;
/// Windows up to this many bits are taken whatever the expected group
/// count (a few pages).
const WINDOW_FLOOR_BITS: u32 = 12;

/// Bytes the hashed table spends per group of `group_arity` values: the
/// node (link, order key, the values), the best value, the dirty link,
/// and two directory cells at the table's load factor.
fn hashed_group_bytes(group_arity: usize) -> usize {
    4 + 8 + 8 * group_arity + 8 + 4 + 2 * 4
}

/// One direct-addressed group: its best value and its dirty-stack link
/// ([`ABSENT`] until the group's first candidate arrives).
struct WindowCell {
    best: AtomicI64,
    link: AtomicU32,
}

/// The direct-addressed part of a [`ConcurrentMonoMap`]: one cell per
/// packed key of `layout`.
struct Window {
    layout: KeyLayout,
    cells: Box<[WindowCell]>,
}

impl Window {
    /// One absent cell per packed key of `layout`, its best at `func`'s
    /// identity.
    fn new(func: AggFunc, layout: KeyLayout) -> Self {
        let identity = match func {
            AggFunc::Min => Value::MAX,
            _ => Value::MIN,
        };
        let cells = (0..1usize << layout.total_bits())
            .map(|_| WindowCell {
                best: AtomicI64::new(identity),
                link: AtomicU32::new(ABSENT),
            })
            .collect();
        Window { layout, cells }
    }
}

/// A concurrent monotonic-aggregate map for recursive aggregation: one
/// current best value per group, with strict-improvement deltas.
///
/// Group keys are the rows of a [`GrowChainTable`] — the one growable
/// latch-free table both fused sinks and the view support counts sit on —
/// so the map inherits its properties wholesale: inserts, chunk growth and
/// bucket-directory doubling all proceed concurrently, no group is ever
/// moved, and chain walks stay O(1) however many groups an iteration
/// creates (there is no rehash step, quiescent or otherwise). The map adds
/// only two slot-indexed payloads ([`SlotChunks`]) per group:
///
/// * one **CAS-on-best** `AtomicI64` — initialised by the creating insert
///   *before* the group is published, after which an existing group
///   absorbs a candidate with a compare-exchange loop that only ever
///   installs strict improvements, so concurrent candidates for one group
///   resolve to the true MIN/MAX without a latch;
/// * one link of the latch-free **dirty stack** — improved or newly
///   created groups self-register on a Treiber stack threaded through the
///   payload cells, claimed by a `NOT_DIRTY → queued` (or `DEFERRED →
///   queued`) CAS so each group appears at most once.
///   [`ConcurrentMonoMap::take_improved`] drains that stack at the
///   quiescent end of an iteration into the map's pending set and hands
///   back a bucket of it as ∆R, each group at its final (best) value, no
///   pre-aggregation `Rt` ever materialized. The rest stays pending
///   (`DEFERRED`) for a later drain.
///
/// ## The direct-addressed window
///
/// Built with [`ConcurrentMonoMap::with_window`], the map also owns a flat
/// array of cells indexed by a compact key ([`KeyLayout::try_pack`], the
/// §5 CCK) — the same `(best, link)` pair per group, found without a hash,
/// a chain walk or a stored key. Keys the layout cannot pack *escape* to
/// the table above, so the window is purely an access path: which keys it
/// covers changes speed, never results. A cell's best starts at the
/// function's identity and its link at "absent"; the candidate whose
/// `absent → queued` CAS wins creates the group, so "absent" is never
/// encoded as a value (`i64::MAX` is a legal `MIN`). Window cells and
/// table slots share the one dirty stack (window ids carry a tag bit), so
/// a drain stays O(∆) whatever the window's size.
pub struct ConcurrentMonoMap {
    func: AggFunc,
    group_arity: usize,
    groups: GrowChainTable,
    /// Current best value per group slot (CAS-on-best).
    best: SlotChunks<AtomicI64>,
    /// Dirty-stack link per group slot, or [`NOT_DIRTY`].
    dirty: SlotChunks<AtomicU32>,
    /// Direct-addressed cells for keys the window's layout packs.
    window: Option<Window>,
    /// Head of the dirty Treiber stack (`id + 1`, [`DIRTY_END`] = empty).
    dirty_head: AtomicU32,
    /// Published (reachable) groups.
    live: AtomicUsize,
    /// Improved groups no drain has handed back yet, and the drain's
    /// buffers (boxed, so that the maps the engine keeps inline stay
    /// small).
    pending: Box<Pending>,
}

impl ConcurrentMonoMap {
    /// New concurrent monotonic map with room for `capacity` groups
    /// before its first growth step — an allocation hint only: the
    /// backing table grows in flight and lookup cost does not depend on
    /// it. Only `MIN` and `MAX` converge under recursion (the paper assumes
    /// programs are given convergent — §3.3); other functions are rejected.
    /// An ungrouped head (`group_arity == 0`) has one group, kept in a
    /// one-cell window.
    pub fn new(func: AggFunc, group_arity: usize, capacity: usize) -> recstep_common::Result<Self> {
        match func {
            AggFunc::Min | AggFunc::Max => {}
            other => {
                return Err(recstep_common::Error::analysis(format!(
                    "recursive aggregation requires MIN or MAX, got {}",
                    other.sql()
                )))
            }
        }
        let width = group_arity.max(1);
        let window = (group_arity == 0).then(|| {
            let layout = KeyLayout::from_bounds(&[]).expect("a zero-width layout packs");
            Window::new(func, layout)
        });
        Ok(ConcurrentMonoMap {
            func,
            group_arity,
            groups: GrowChainTable::new(width, capacity, capacity.saturating_mul(2)),
            best: SlotChunks::new(capacity),
            dirty: SlotChunks::new(capacity),
            window,
            dirty_head: AtomicU32::new(DIRTY_END),
            live: AtomicUsize::new(0),
            pending: Box::default(),
        })
    }

    /// [`ConcurrentMonoMap::new`] plus a direct-addressed window over the
    /// keys `layout` packs (one cell per packed value; see the type docs);
    /// the escape table starts at its minimum size. Panics when the
    /// layout's width differs from `group_arity` or it packs more than
    /// [`WINDOW_MAX_BITS`] bits — [`ConcurrentMonoMap::window_for`] never
    /// proposes such a layout.
    pub fn with_window(
        func: AggFunc,
        group_arity: usize,
        layout: KeyLayout,
    ) -> recstep_common::Result<Self> {
        let mut map = Self::new(func, group_arity, 0)?;
        assert_eq!(layout.width(), group_arity, "window layout width");
        assert!(layout.total_bits() <= WINDOW_MAX_BITS, "window too wide");
        map.window = Some(Window::new(func, layout));
        Ok(map)
    }

    /// The window layout worth building for group keys within `bounds`
    /// (per key column) when about `expected_groups` groups will exist:
    /// `None` when the packed key needs more than [`WINDOW_MAX_BITS`]
    /// bits, or when the window would be sparse — its cells taking more
    /// than twice the bytes the hashed table would spend on the expected
    /// groups, past a floor of `2^12` cells.
    pub fn window_for(bounds: &[(Value, Value)], expected_groups: usize) -> Option<KeyLayout> {
        let layout = KeyLayout::from_bounds(bounds)?;
        let bits = layout.total_bits();
        if bits > WINDOW_MAX_BITS {
            return None;
        }
        let window_bytes = (1usize << bits) * std::mem::size_of::<WindowCell>();
        let hashed_bytes = expected_groups.saturating_mul(hashed_group_bytes(bounds.len()));
        let dense = bits <= WINDOW_FLOOR_BITS || window_bytes <= hashed_bytes.saturating_mul(2);
        dense.then_some(layout)
    }

    /// True when the map has a direct-addressed window.
    pub fn has_window(&self) -> bool {
        self.window.is_some()
    }

    /// Aggregate function in effect.
    pub fn func(&self) -> AggFunc {
        self.func
    }

    /// Values per group key.
    pub fn group_arity(&self) -> usize {
        self.group_arity
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// True when no group has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Times the backing table's bucket directory has doubled.
    pub fn table_doublings(&self) -> usize {
        self.groups.doublings()
    }

    /// Queue group `id` (a table slot, or a window cell tagged
    /// [`IN_WINDOW`]) whose dirty-stack link is `link`, claiming it by a
    /// `from → queued` CAS. Returns `false` — queueing nothing — when the
    /// link is not `from` (already queued, or for a window cell absent),
    /// so each group is queued at most once per drain. A group queued
    /// from [`DEFERRED`] is tagged [`REQUEUED`]: its pending entry is
    /// stale.
    fn queue(&self, id: u32, link: &AtomicU32, from: u32) -> bool {
        if link
            .compare_exchange(from, DIRTY_END, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        let entry = (id + 1) | if from == DEFERRED { REQUEUED } else { 0 };
        let mut head = self.dirty_head.load(Ordering::Acquire);
        loop {
            link.store(head, Ordering::Relaxed);
            match self.dirty_head.compare_exchange_weak(
                head,
                entry,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(actual) => head = actual,
            }
        }
    }

    /// Queue an existing group that just improved: clean, or pending from
    /// an earlier drain (it re-enters at its new value).
    #[inline]
    fn requeue(&self, id: u32, link: &AtomicU32) {
        let _ = self.queue(id, link, NOT_DIRTY) || self.queue(id, link, DEFERRED);
    }

    /// CAS-on-best: install `v` iff it strictly improves `cell`. Returns
    /// `true` when this call improved it.
    #[inline]
    fn cas_best(&self, cell: &AtomicI64, v: Value) -> bool {
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let better = match self.func {
                AggFunc::Min => v < cur,
                AggFunc::Max => v > cur,
                _ => unreachable!("constructor admits only MIN/MAX"),
            };
            if !better {
                return false;
            }
            match cell.compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Absorb a candidate `(group, value)` from any worker concurrently;
    /// returns `true` iff this call created the group or strictly improved
    /// its best value. Improved groups are queued for the next
    /// [`Self::take_improved`] regardless of which caller wins a race.
    pub fn absorb(&self, group: &[Value], v: Value) -> bool {
        debug_assert_eq!(group.len(), self.group_arity);
        if let Some(w) = &self.window {
            if let Some(key) = w.layout.try_pack(group) {
                return self.absorb_cell(w, key as u32, v);
            }
        }
        let created = |slot| self.best.get(slot).store(v, Ordering::Relaxed);
        match self
            .groups
            .insert_or_find_slot(hash_row(group), group, created)
        {
            Slot::Found(slot) => {
                let improved = self.cas_best(self.best.get(slot), v);
                if improved {
                    self.requeue(slot, self.dirty.get(slot));
                }
                improved
            }
            Slot::Inserted(slot) => {
                self.live.fetch_add(1, Ordering::Relaxed);
                self.queue(slot, self.dirty.get(slot), NOT_DIRTY);
                true
            }
        }
    }

    /// [`Self::absorb`] into window cell `key`: fold `v` into the cell's
    /// best first, then create the group if nobody has — the best starts
    /// at the function's identity, so the folded value is right whichever
    /// candidate wins the `ABSENT → queued` claim. That claim's release
    /// pairs with the `Acquire` link load in [`Self::get`], so a reader
    /// that sees the group also sees its creator's value.
    #[inline]
    fn absorb_cell(&self, w: &Window, key: u32, v: Value) -> bool {
        let cell = &w.cells[key as usize];
        let id = IN_WINDOW | key;
        let improved = self.cas_best(&cell.best, v);
        if cell.link.load(Ordering::Acquire) == ABSENT && self.queue(id, &cell.link, ABSENT) {
            self.live.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        if improved {
            self.requeue(id, &cell.link);
        }
        improved
    }

    /// Absorb one pre-aggregation row laid out `[group ‖ value]` (the
    /// sink-facing entry point).
    #[inline]
    pub fn absorb_row(&self, row: &[Value]) -> bool {
        debug_assert_eq!(row.len(), self.group_arity + 1);
        self.absorb(&row[..self.group_arity], row[self.group_arity])
    }

    /// Current best value of a group.
    pub fn get(&self, group: &[Value]) -> Option<Value> {
        if let Some(w) = &self.window {
            if let Some(key) = w.layout.try_pack(group) {
                let cell = &w.cells[key as usize];
                return (cell.link.load(Ordering::Acquire) != ABSENT)
                    .then(|| cell.best.load(Ordering::Relaxed));
            }
        }
        self.groups
            .find_row(hash_row(group), group)
            .map(|slot| self.best.get(slot).load(Ordering::Relaxed))
    }

    /// Best-value cell and dirty-stack link of group `id`.
    fn cells(&self, id: u32) -> (&AtomicI64, &AtomicU32) {
        match &self.window {
            Some(w) if id & IN_WINDOW != 0 => {
                let cell = &w.cells[(id & !IN_WINDOW) as usize];
                (&cell.best, &cell.link)
            }
            _ => (self.best.get(id), self.dirty.get(id)),
        }
    }

    /// Order key of value `v`: lower is drained first.
    #[inline]
    fn order_key(&self, v: Value) -> Value {
        match self.func {
            AggFunc::Max => !v,
            _ => v,
        }
    }

    /// Drain the dirty stack — the groups created or strictly improved
    /// since the previous drain — into the pending set, and hand back
    /// `bucket` of it as ∆R, each group at its current (final) best value,
    /// flattened row-major as `[group ‖ value]` rows. Under
    /// [`Bucket::Unbounded`] that is every improved group; under
    /// [`Bucket::Lowest`] the lowest-valued ones, the rest staying pending
    /// ([`Self::deferred`]) until a later drain takes them. A pending
    /// group that improves again re-enters at its new value. Requires
    /// quiescence (`&mut`): call between parallel absorb phases. Costs
    /// O(∆ + bucket), window or not, and reuses the previous drain's
    /// buffers: the rows are valid until the next drain.
    pub fn take_improved(&mut self, bucket: Bucket) -> &[Value] {
        let mut pending = std::mem::take(&mut *self.pending);
        pending.drains = pending.drains.wrapping_add(1);
        let mut batch = std::mem::take(&mut pending.batch);
        let mut requeued = 0;
        let mut cur = self.dirty_head.swap(DIRTY_END, Ordering::Relaxed);
        while cur != DIRTY_END {
            if cur & REQUEUED != 0 {
                pending.live -= 1;
                requeued += 1;
            }
            let id = (cur & !REQUEUED) - 1;
            let (best, link) = self.cells(id);
            batch.push(Entry {
                key: self.order_key(best.load(Ordering::Relaxed)),
                id,
                drain: pending.drains,
            });
            cur = link.load(Ordering::Relaxed);
            link.store(DEFERRED, Ordering::Relaxed);
        }
        // The batch holds the groups created since the previous drain, the
        // pending ones that improved again (requeued) and the rest: groups
        // an earlier drain handed back at a value that was not final.
        let groups = self.len();
        let created = groups - pending.groups;
        let reworked = batch.len().saturating_sub(requeued + created);
        pending.groups = groups;
        pending.width = match pending.handed {
            0 => pending.width.max(1),
            handed if reworked * REWORK_DIVISOR <= handed => pending.width.saturating_mul(2),
            _ => (pending.width / 2).max(1),
        };
        let need = bucket.size(batch.len(), pending.width);
        if pending.live == 0 {
            // Only stale entries (if any) are left.
            pending.clear();
        }
        let mut taken = std::mem::take(&mut pending.taken);
        if pending.live == 0 && batch.len() <= need {
            pending.deferred = 0;
            std::mem::swap(&mut taken, &mut batch);
        } else {
            // A pending entry is live while its group still holds its value.
            let live =
                |e: &Entry| self.order_key(self.cells(e.id).0.load(Ordering::Relaxed)) == e.key;
            pending.insert(&batch);
            pending.take(need, live, &mut taken);
            let fresh = taken.iter().filter(|e| e.drain == pending.drains).count();
            pending.deferred = batch.len() - fresh;
            pending.compact(live);
        }
        pending.handed = taken.len();
        let out = &mut pending.drained;
        out.clear();
        out.reserve(taken.len() * (self.group_arity + 1));
        for &Entry { id, .. } in &taken {
            match &self.window {
                Some(w) if id & IN_WINDOW != 0 => {
                    w.layout
                        .unpack(u64::from(id & !IN_WINDOW), &mut pending.unpacked);
                    out.extend_from_slice(&pending.unpacked);
                }
                _ => out.extend((0..self.group_arity).map(|c| self.groups.value(id, c))),
            }
            let (best, link) = self.cells(id);
            out.push(best.load(Ordering::Relaxed));
            link.store(NOT_DIRTY, Ordering::Relaxed);
        }
        batch.clear();
        taken.clear();
        (pending.batch, pending.taken) = (batch, taken);
        *self.pending = pending;
        &self.pending.drained
    }

    /// Groups that improved before the last [`Self::take_improved`] and
    /// that it left pending for a later drain.
    pub fn deferred(&self) -> usize {
        self.pending.deferred
    }

    /// Materialize as `[group columns ‖ value]` (live groups only — slots
    /// lost to insert races are unreachable and skipped).
    pub fn to_columns(&self, group_arity: usize) -> Vec<Vec<Value>> {
        debug_assert_eq!(group_arity, self.group_arity);
        let mut cols: Vec<Vec<Value>> = (0..=group_arity)
            .map(|_| Vec::with_capacity(self.len()))
            .collect();
        if let Some(w) = &self.window {
            let mut key = Vec::with_capacity(group_arity);
            for (k, cell) in w.cells.iter().enumerate() {
                if cell.link.load(Ordering::Relaxed) == ABSENT {
                    continue;
                }
                w.layout.unpack(k as u64, &mut key);
                for (col, &v) in cols.iter_mut().zip(&key) {
                    col.push(v);
                }
                cols[group_arity].push(cell.best.load(Ordering::Relaxed));
            }
        }
        self.groups.for_each_slot(|slot| {
            for (c, col) in cols.iter_mut().enumerate().take(group_arity) {
                col.push(self.groups.value(slot, c));
            }
            cols[group_arity].push(self.best.get(slot).load(Ordering::Relaxed));
        });
        cols
    }

    /// Approximate heap footprint in bytes (allocated chunks and the
    /// window).
    pub fn heap_bytes(&self) -> usize {
        let window = self
            .window
            .as_ref()
            .map_or(0, |w| w.cells.len() * std::mem::size_of::<WindowCell>());
        self.groups.heap_bytes()
            + self.best.heap_bytes()
            + self.dirty.heap_bytes()
            + window
            + self.pending.heap_bytes()
    }
}

/// Number of partial-state shards a [`GroupSink`] spreads workers over.
const GROUP_SHARDS: usize = 64;

/// One [`GroupSink`] shard: partial aggregation states keyed by group.
type GroupShard = Mutex<FxHashMap<Box<[Value]>, Vec<AggState>>>;

/// Sink-side state for *non-recursive* group-by heads: sharded partial
/// aggregation maps that operator workers fold produced rows into at the
/// probe site (rows laid out `[group ‖ aggregate arguments]`, the
/// pre-aggregation layout), merged once at sink flush.
///
/// A group's shard is a pure function of its key hash, so every row of a
/// group lands in the same shard — the flush needs no cross-shard merge,
/// just concatenation, and contention distributes across 64 shard locks
/// instead of one.
pub struct GroupSink {
    funcs: Vec<AggFunc>,
    group_arity: usize,
    shards: Vec<GroupShard>,
}

impl GroupSink {
    /// Sink for `funcs` aggregates over `group_arity` leading group
    /// columns.
    pub fn new(funcs: Vec<AggFunc>, group_arity: usize) -> Self {
        let mut shards = Vec::with_capacity(GROUP_SHARDS);
        shards.resize_with(GROUP_SHARDS, || Mutex::new(FxHashMap::default()));
        GroupSink {
            funcs,
            group_arity,
            shards,
        }
    }

    /// Fold one pre-aggregation row (`[group ‖ args]`) into its shard's
    /// partial state. Callable from any worker concurrently.
    pub fn absorb_row(&self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.group_arity + self.funcs.len());
        let (group, args) = row.split_at(self.group_arity);
        let h = hash_row(group);
        let mut shard = self.shards[(h as usize) & (GROUP_SHARDS - 1)].lock();
        match shard.get_mut(group) {
            Some(states) => {
                for ((st, &f), &v) in states.iter_mut().zip(&self.funcs).zip(args) {
                    st.update(f, v);
                }
            }
            None => {
                let states: Vec<AggState> = self
                    .funcs
                    .iter()
                    .zip(args)
                    .map(|(&f, &v)| AggState::new(f, v))
                    .collect();
                shard.insert(group.to_vec().into_boxed_slice(), states);
            }
        }
    }

    /// Number of distinct groups folded so far.
    pub fn groups(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Flush: finish every partial state and materialize the result as
    /// `[group columns ‖ aggregate columns]`, one row per group.
    pub fn into_columns(self) -> Vec<Vec<Value>> {
        let out_arity = self.group_arity + self.funcs.len();
        let mut cols = vec![Vec::new(); out_arity];
        for shard in self.shards {
            for (key, states) in shard.into_inner() {
                for (c, &v) in key.iter().enumerate() {
                    cols[c].push(v);
                }
                for (i, (st, &f)) in states.iter().zip(&self.funcs).enumerate() {
                    cols[self.group_arity + i].push(st.finish(f));
                }
            }
        }
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recstep_storage::{Relation, Schema};
    use std::collections::HashMap;

    fn ctx() -> ExecCtx {
        ExecCtx::with_threads(4)
    }

    fn input() -> Relation {
        // (group, value)
        Relation::from_rows(
            Schema::with_arity("t", 2),
            &[
                vec![1, 10],
                vec![1, 4],
                vec![2, 7],
                vec![2, 7],
                vec![3, -5],
                vec![1, 6],
            ],
        )
    }

    fn result_map(cols: &[Vec<Value>]) -> HashMap<Value, Value> {
        (0..cols[0].len())
            .map(|r| (cols[0][r], cols[1][r]))
            .collect()
    }

    #[test]
    fn min_max_sum_count_avg() {
        let rel = input();
        let ctx = ctx();
        let group = [Expr::Col(0)];
        let run = |f: AggFunc| {
            result_map(&group_aggregate(
                &ctx,
                rel.view(),
                &group,
                &[AggCol {
                    func: f,
                    expr: Expr::Col(1),
                }],
            ))
        };
        assert_eq!(run(AggFunc::Min), HashMap::from([(1, 4), (2, 7), (3, -5)]));
        assert_eq!(run(AggFunc::Max), HashMap::from([(1, 10), (2, 7), (3, -5)]));
        assert_eq!(
            run(AggFunc::Sum),
            HashMap::from([(1, 20), (2, 14), (3, -5)])
        );
        assert_eq!(run(AggFunc::Count), HashMap::from([(1, 3), (2, 2), (3, 1)]));
        assert_eq!(run(AggFunc::Avg), HashMap::from([(1, 6), (2, 7), (3, -5)]));
    }

    #[test]
    fn aggregate_over_expression_argument() {
        let rel = input();
        let out = group_aggregate(
            &ctx(),
            rel.view(),
            &[Expr::Col(0)],
            &[AggCol {
                func: AggFunc::Min,
                expr: Expr::add(Expr::Col(1), Expr::Const(100)),
            }],
        );
        assert_eq!(
            result_map(&out),
            HashMap::from([(1, 104), (2, 107), (3, 95)])
        );
    }

    #[test]
    fn global_aggregate_no_groups() {
        let rel = input();
        let out = group_aggregate(
            &ctx(),
            rel.view(),
            &[],
            &[AggCol {
                func: AggFunc::Count,
                expr: Expr::Col(0),
            }],
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], vec![6]);
    }

    #[test]
    fn multiple_aggregates_in_one_pass() {
        let rel = input();
        let out = group_aggregate(
            &ctx(),
            rel.view(),
            &[Expr::Col(0)],
            &[
                AggCol {
                    func: AggFunc::Min,
                    expr: Expr::Col(1),
                },
                AggCol {
                    func: AggFunc::Count,
                    expr: Expr::Col(1),
                },
            ],
        );
        let m: HashMap<Value, (Value, Value)> = (0..out[0].len())
            .map(|r| (out[0][r], (out[1][r], out[2][r])))
            .collect();
        assert_eq!(m, HashMap::from([(1, (4, 3)), (2, (7, 2)), (3, (-5, 1))]));
    }

    #[test]
    fn empty_input_empty_output() {
        let rel = Relation::new(Schema::with_arity("e", 2));
        let out = group_aggregate(
            &ctx(),
            rel.view(),
            &[Expr::Col(0)],
            &[AggCol {
                func: AggFunc::Sum,
                expr: Expr::Col(1),
            }],
        );
        assert_eq!(out.len(), 2);
        assert!(out[0].is_empty());
    }

    #[test]
    fn parallel_grouping_matches_sequential_oracle() {
        let mut rel = Relation::new(Schema::with_arity("big", 2));
        for i in 0..30_000i64 {
            rel.push_row(&[i % 257, i]);
        }
        let out = group_aggregate(
            &ctx(),
            rel.view(),
            &[Expr::Col(0)],
            &[AggCol {
                func: AggFunc::Sum,
                expr: Expr::Col(1),
            }],
        );
        let mut oracle: HashMap<Value, Value> = HashMap::new();
        for i in 0..30_000i64 {
            *oracle.entry(i % 257).or_insert(0) += i;
        }
        assert_eq!(result_map(&out), oracle);
    }

    #[test]
    fn monotonic_max() {
        let m = ConcurrentMonoMap::new(AggFunc::Max, 1, 8).unwrap();
        assert!(m.absorb(&[7], 1));
        assert!(m.absorb(&[7], 5));
        assert!(!m.absorb(&[7], 5), "equal is no improvement");
        assert!(!m.absorb(&[7], 2));
        assert_eq!(m.get(&[7]), Some(5));
    }

    #[test]
    fn monotonic_to_columns() {
        let m = ConcurrentMonoMap::new(AggFunc::Min, 2, 8).unwrap();
        m.absorb(&[1, 2], 9);
        m.absorb(&[3, 4], 8);
        m.absorb(&[1, 2], 10);
        let cols = m.to_columns(2);
        assert_eq!(cols.len(), 3);
        let mut rows: Vec<Vec<Value>> = (0..cols[0].len())
            .map(|r| cols.iter().map(|c| c[r]).collect())
            .collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![vec![1, 2, 9], vec![3, 4, 8]]);
        assert!(m.heap_bytes() > 0);
    }

    #[test]
    fn ungrouped_mono_keeps_its_one_group_in_a_window() {
        // `best(MIN(d))`: no group columns, so rows are `[value]`.
        let mut m = ConcurrentMonoMap::new(AggFunc::Min, 0, 0).unwrap();
        assert!(m.has_window());
        assert_eq!(m.get(&[]), None);
        assert!(m.absorb_row(&[7]));
        assert!(!m.absorb_row(&[9]));
        assert!(m.absorb_row(&[3]));
        assert_eq!((m.len(), m.get(&[])), (1, Some(3)));
        assert_eq!(m.take_improved(Bucket::Unbounded), vec![3]);
        assert!(m.take_improved(Bucket::Unbounded).is_empty());
        assert_eq!(m.to_columns(0), vec![vec![3]]);
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        // Two i64::MAX contributions overflow the value domain: the result
        // must clamp to i64::MAX, not wrap negative.
        let rel = Relation::from_rows(
            Schema::with_arity("t", 2),
            &[
                vec![1, Value::MAX],
                vec![1, Value::MAX],
                vec![2, Value::MIN],
            ],
        );
        let out = group_aggregate(
            &ctx(),
            rel.view(),
            &[Expr::Col(0)],
            &[AggCol {
                func: AggFunc::Sum,
                expr: Expr::Col(1),
            }],
        );
        assert_eq!(
            result_map(&out),
            HashMap::from([(1, Value::MAX), (2, Value::MIN)])
        );
    }

    #[test]
    fn sum_saturates_at_the_negative_bound_too() {
        let rel = Relation::from_rows(
            Schema::with_arity("t", 2),
            &[vec![1, Value::MIN], vec![1, Value::MIN], vec![1, -7]],
        );
        let out = group_aggregate(
            &ctx(),
            rel.view(),
            &[Expr::Col(0)],
            &[AggCol {
                func: AggFunc::Sum,
                expr: Expr::Col(1),
            }],
        );
        assert_eq!(result_map(&out), HashMap::from([(1, Value::MIN)]));
    }

    #[test]
    fn group_sink_saturates_like_group_aggregate() {
        let sink = GroupSink::new(vec![AggFunc::Sum], 1);
        sink.absorb_row(&[1, Value::MAX]);
        sink.absorb_row(&[1, Value::MAX]);
        let cols = sink.into_columns();
        assert_eq!(result_map(&cols), HashMap::from([(1, Value::MAX)]));
    }

    #[test]
    fn concurrent_mono_absorbs_and_reports_improvements() {
        let mut m = ConcurrentMonoMap::new(AggFunc::Min, 1, 8).unwrap();
        assert!(m.absorb(&[1], 10)); // new
        assert!(!m.absorb(&[1], 10)); // equal → not improved
        assert!(!m.absorb(&[1], 12)); // worse
        assert!(m.absorb(&[1], 3)); // better
        assert!(m.absorb(&[2], 5));
        assert_eq!(m.get(&[1]), Some(3));
        assert_eq!(m.get(&[9]), None);
        assert_eq!(m.len(), 2);
        // One ∆ row per group, final values only.
        let mut improved: Vec<Vec<Value>> = m
            .take_improved(Bucket::Unbounded)
            .chunks(2)
            .map(<[_]>::to_vec)
            .collect();
        improved.sort_unstable();
        assert_eq!(improved, vec![vec![1, 3], vec![2, 5]]);
        // Drained: nothing reported until the next improvement.
        assert!(m.take_improved(Bucket::Unbounded).is_empty());
        assert!(!m.absorb(&[1], 4));
        assert!(m.take_improved(Bucket::Unbounded).is_empty());
        assert!(m.absorb(&[1], 2));
        assert_eq!(m.take_improved(Bucket::Unbounded), vec![1, 2]);
    }

    #[test]
    fn concurrent_mono_rejects_non_extremal_functions() {
        assert!(ConcurrentMonoMap::new(AggFunc::Sum, 1, 8).is_err());
        assert!(ConcurrentMonoMap::new(AggFunc::Count, 1, 8).is_err());
        assert!(ConcurrentMonoMap::new(AggFunc::Avg, 1, 8).is_err());
    }

    #[test]
    fn concurrent_mono_to_columns_matches_sequential() {
        use std::collections::BTreeMap;
        let mut seq: BTreeMap<Vec<Value>, Value> = BTreeMap::new();
        let conc = ConcurrentMonoMap::new(AggFunc::Max, 2, 4).unwrap();
        for i in 0..500i64 {
            let group = [i % 17, i % 5];
            let best = seq.entry(group.to_vec()).or_insert(Value::MIN);
            *best = (*best).max(i * 3 % 101);
            conc.absorb(&group, i * 3 % 101);
        }
        assert_eq!(seq.len(), conc.len());
        let cols = conc.to_columns(2);
        let mut rows: Vec<Vec<Value>> = (0..cols[0].len())
            .map(|r| cols.iter().map(|c| c[r]).collect())
            .collect();
        rows.sort_unstable();
        let expect: Vec<Vec<Value>> = seq
            .into_iter()
            .map(|(mut group, best)| {
                group.push(best);
                group
            })
            .collect();
        assert_eq!(rows, expect);
        assert!(conc.heap_bytes() > 0);
    }

    #[test]
    fn concurrent_mono_parallel_absorbs_resolve_to_the_true_min() {
        use recstep_common::sched::ThreadPool;
        let pool = ThreadPool::new(8);
        // Tiny hints force chunk growth; 64 groups raced by 8 workers.
        let mut m = ConcurrentMonoMap::new(AggFunc::Min, 1, 4).unwrap();
        pool.parallel_for(64 * 128, 16, |range, _| {
            for i in range {
                let g = (i % 64) as Value;
                let v = ((i * 37) % 1000) as Value;
                m.absorb(&[g], v);
            }
        });
        assert_eq!(m.len(), 64);
        let mut oracle: HashMap<Value, Value> = HashMap::new();
        for i in 0..64 * 128i64 {
            let e = oracle.entry(i % 64).or_insert(Value::MAX);
            *e = (*e).min((i * 37) % 1000);
        }
        for (g, best) in oracle {
            assert_eq!(m.get(&[g]), Some(best), "group {g}");
        }
        // Every group improved at least once → exactly 64 ∆ rows.
        let improved = m.take_improved(Bucket::Unbounded);
        assert_eq!(improved.len(), 64 * 2);
    }

    #[test]
    fn windowed_mono_shares_one_dirty_stack_with_its_escapes() {
        // Window over keys 10..=25; 5 and 1000 escape to the table.
        let layout = KeyLayout::from_bounds(&[(10, 25)]).unwrap();
        let mut m = ConcurrentMonoMap::with_window(AggFunc::Min, 1, layout).unwrap();
        assert!(m.has_window());
        assert_eq!(m.get(&[12]), None);
        // `i64::MAX` is a real MIN value, not "absent".
        assert!(m.absorb(&[12], Value::MAX));
        assert!(!m.absorb(&[12], Value::MAX));
        assert_eq!(m.get(&[12]), Some(Value::MAX));
        assert!(m.absorb(&[12], 7));
        assert!(m.absorb(&[5], 3));
        assert!(m.absorb(&[1000], Value::MIN));
        assert!(!m.absorb(&[5], 4));
        assert_eq!(m.len(), 3);
        let rows = |flat: &[Value]| -> Vec<Vec<Value>> {
            let mut rows: Vec<Vec<Value>> = flat.chunks(2).map(<[_]>::to_vec).collect();
            rows.sort_unstable();
            rows
        };
        assert_eq!(
            rows(m.take_improved(Bucket::Unbounded)),
            vec![vec![5, 3], vec![12, 7], vec![1000, Value::MIN]]
        );
        assert!(m.take_improved(Bucket::Unbounded).is_empty());
        assert!(!m.absorb(&[12], 9));
        assert!(m.absorb(&[25], 0));
        assert_eq!(rows(m.take_improved(Bucket::Unbounded)), vec![vec![25, 0]]);
        let cols = m.to_columns(1);
        let flat: Vec<Value> = (0..cols[0].len())
            .flat_map(|r| [cols[0][r], cols[1][r]])
            .collect();
        assert_eq!(
            rows(&flat),
            vec![vec![5, 3], vec![12, 7], vec![25, 0], vec![1000, Value::MIN]]
        );
        assert!(m.heap_bytes() >= 16 * 16);
    }

    #[test]
    fn windowed_max_starts_below_every_value() {
        let layout = KeyLayout::from_bounds(&[(0, 3), (-2, 2)]).unwrap();
        let m = ConcurrentMonoMap::with_window(AggFunc::Max, 2, layout).unwrap();
        assert!(m.absorb(&[1, -2], Value::MIN));
        assert_eq!(m.get(&[1, -2]), Some(Value::MIN));
        assert!(m.absorb(&[1, -2], -5));
        assert_eq!(m.get(&[1, -2]), Some(-5));
        assert_eq!(m.get(&[1, 2]), None);
    }

    #[test]
    fn window_policy_judges_density_by_bytes() {
        // CC over RMAT 200k/2M, `cc2`: 2^18 cells of 16 bytes (4 MiB) for
        // 127 515 groups, ≈ 5 MiB hashed — taken, though the cells
        // outnumber twice the groups by 3 %.
        assert!(ConcurrentMonoMap::window_for(&[(0, 199_999)], 127_515).is_some());
        // 2^20 cells (16 MiB) against 100 000 groups (≈ 4 MiB hashed):
        // more than twice the hashed bytes, refused.
        assert!(ConcurrentMonoMap::window_for(&[(0, (1 << 20) - 1)], 100_000).is_none());
        // Wider group keys cost the hashed table more per group: the
        // same 2^19 cells pay off for 90 000 two-column groups, not for
        // 90 000 one-column groups.
        assert!(ConcurrentMonoMap::window_for(&[(0, 511), (0, 1023)], 90_000).is_some());
        assert!(ConcurrentMonoMap::window_for(&[(0, (1 << 19) - 1)], 90_000).is_none());
    }

    #[test]
    fn window_policy_rejects_wide_and_sparse_keys() {
        // 2^18 cells for 200k groups: taken.
        assert!(ConcurrentMonoMap::window_for(&[(0, 199_999)], 2_000_000).is_some());
        // Small windows are always taken; offsets do not matter.
        assert!(ConcurrentMonoMap::window_for(&[(1 << 40, (1 << 40) + 100)], 1).is_some());
        // Sparse: 2^20 cells for 50 groups.
        assert!(ConcurrentMonoMap::window_for(&[(0, 1 << 20)], 50).is_none());
        // Too wide whatever the group count.
        assert!(ConcurrentMonoMap::window_for(&[(0, 1 << 30)], usize::MAX).is_none());
        assert!(ConcurrentMonoMap::window_for(&[(Value::MIN, Value::MAX)], usize::MAX).is_none());
    }

    /// `(group, value)` rows of a drain, sorted.
    fn drained_rows(flat: &[Value]) -> Vec<(Value, Value)> {
        let mut rows: Vec<(Value, Value)> = flat.chunks(2).map(|r| (r[0], r[1])).collect();
        rows.sort_unstable();
        rows
    }

    /// A one-column `func` map over groups `0..groups`, windowed or not.
    fn bucket_map(func: AggFunc, windowed: bool, groups: Value) -> ConcurrentMonoMap {
        if windowed {
            let layout = KeyLayout::from_bounds(&[(0, groups / 2)]).unwrap();
            ConcurrentMonoMap::with_window(func, 1, layout).unwrap()
        } else {
            ConcurrentMonoMap::new(func, 1, 4).unwrap()
        }
    }

    /// Absorb `cands` into `m` from `threads` workers.
    fn absorb_all(m: &ConcurrentMonoMap, cands: &[(Value, Value)], threads: usize) {
        let pool = recstep_common::sched::ThreadPool::new(threads);
        pool.parallel_for(cands.len(), 7, |range, _| {
            for &(g, v) in &cands[range] {
                m.absorb(&[g], v);
            }
        });
    }

    /// Deterministic pseudo-random candidates over `groups` groups, values
    /// in `0..range` (many ties).
    fn candidates(n: usize, groups: Value, range: Value, seed: u64) -> Vec<(Value, Value)> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (
                    (x % groups as u64) as Value,
                    ((x >> 20) % range as u64) as Value,
                )
            })
            .collect()
    }

    #[test]
    fn bucketed_drains_return_every_improved_group_at_its_final_value() {
        for func in [AggFunc::Min, AggFunc::Max] {
            for windowed in [false, true] {
                let mut m = bucket_map(func, windowed, 3000);
                let mut oracle: HashMap<Value, Value> = HashMap::new();
                let mut last: HashMap<Value, Value> = HashMap::new();
                for (round, seed) in [11u64, 12, 13].into_iter().enumerate() {
                    let cands = candidates(20_000, 3000, 500, seed);
                    absorb_all(&m, &cands, 8);
                    for &(g, v) in &cands {
                        let best = oracle.entry(g).or_insert(v);
                        *best = if func == AggFunc::Min {
                            v.min(*best)
                        } else {
                            v.max(*best)
                        };
                    }
                    // One bucketed drain per round; pending groups improve
                    // again in the next round.
                    let rows = drained_rows(m.take_improved(Bucket::Lowest));
                    assert!(!rows.is_empty() && m.deferred() > 0, "round {round}");
                    for (g, v) in rows {
                        last.insert(g, v);
                    }
                }
                let mut drains = 0;
                loop {
                    let rows = drained_rows(m.take_improved(Bucket::Lowest));
                    if rows.is_empty() {
                        break;
                    }
                    drains += 1;
                    assert_eq!(m.deferred(), 0, "nothing improved since");
                    for (g, v) in rows {
                        assert_eq!(v, oracle[&g], "group {g} drained at a stale value");
                        assert!(last.insert(g, v) != Some(v), "group {g} drained twice");
                    }
                }
                assert!(drains > 1, "{func:?}: one drain took everything");
                assert_eq!(last, oracle, "{func:?} windowed {windowed}");
            }
        }
    }

    #[test]
    fn a_bucket_is_the_lowest_values_with_their_ties() {
        for func in [AggFunc::Min, AggFunc::Max] {
            for windowed in [false, true] {
                let mut m = bucket_map(func, windowed, 1000);
                // 1000 groups over 100 values: ten groups per value.
                let cands: Vec<(Value, Value)> = (0..1000).map(|g| (g, (g * 37) % 100)).collect();
                absorb_all(&m, &cands, 8);
                let mut pending: Vec<(Value, Value)> = cands.clone();
                let order = |&(_, v): &(Value, Value)| if func == AggFunc::Min { v } else { -v };
                pending.sort_by_key(order);
                // T = max(1, ⌈1000 / 8⌉) = 125: the 125th value's ten
                // ties come along, so 130 groups. Later drains see no new
                // improvement, so no group they hand back improves again:
                // the width doubles from 1 (T = 2, 4, 8, …), each drain
                // taking the ties of its T-th value.
                let (mut improved, mut width): (usize, usize) = (1000, 1);
                while !pending.is_empty() {
                    let rows = drained_rows(m.take_improved(Bucket::Lowest));
                    let t = improved.div_ceil(BUCKET_DIVISOR).max(width);
                    let cut = order(&pending[t.min(pending.len()) - 1]);
                    let split = pending.partition_point(|p| order(p) <= cut);
                    let mut expect: Vec<(Value, Value)> = pending.drain(..split).collect();
                    expect.sort_unstable();
                    assert_eq!(rows, expect, "{func:?} windowed {windowed}");
                    assert_eq!(m.deferred(), if improved == 0 { 0 } else { pending.len() });
                    (improved, width) = (0, if improved == 0 { width * 2 } else { 2 });
                }
                assert!(m.take_improved(Bucket::Lowest).is_empty());
            }
        }
        // The first drain of a 1000-group MIN map: 130 groups, values 0..=12.
        let mut m = bucket_map(AggFunc::Min, false, 1000);
        absorb_all(
            &m,
            &(0..1000).map(|g| (g, (g * 37) % 100)).collect::<Vec<_>>(),
            1,
        );
        let rows = drained_rows(m.take_improved(Bucket::Lowest));
        assert_eq!(rows.len(), 130);
        assert!(rows.iter().all(|&(_, v)| v <= 12));
        assert_eq!(m.deferred(), 870);
    }

    #[test]
    fn the_width_halves_when_handed_back_groups_improve_again() {
        let mut m = bucket_map(AggFunc::Min, false, 64);
        absorb_all(&m, &(0..64).map(|g| (g, g)).collect::<Vec<_>>(), 1);
        let drain = |m: &mut ConcurrentMonoMap| drained_rows(m.take_improved(Bucket::Lowest));
        // ⌈64 / 8⌉ = 8 groups; then, nothing having improved, width 2.
        assert_eq!(drain(&mut m), (0..8).map(|g| (g, g)).collect::<Vec<_>>());
        assert_eq!(drain(&mut m), [(8, 8), (9, 9)]);
        // Both groups that drain handed back improve: the width halves
        // to 1, and the lower of the two goes first.
        absorb_all(&m, &[(8, -1), (9, -2)], 1);
        assert_eq!(drain(&mut m), [(9, -2)]);
        assert_eq!(m.deferred(), 1);
        // No rework since: width 2 again.
        assert_eq!(drain(&mut m), [(8, -1), (10, 10)]);
    }

    #[test]
    fn buckets_do_not_depend_on_the_thread_count() {
        let drains = |threads: usize| -> Vec<Vec<(Value, Value)>> {
            let mut m = bucket_map(AggFunc::Min, true, 4000);
            let mut out = Vec::new();
            for seed in [5u64, 6] {
                absorb_all(&m, &candidates(30_000, 4000, 3000, seed), threads);
                out.push(drained_rows(m.take_improved(Bucket::Lowest)));
            }
            loop {
                let rows = drained_rows(m.take_improved(Bucket::Lowest));
                if rows.is_empty() {
                    return out;
                }
                out.push(rows);
            }
        };
        let one = drains(1);
        assert!(one.len() > 2);
        assert_eq!(one, drains(8));
    }

    #[test]
    fn unbounded_drain_takes_every_improved_group() {
        let mut m = bucket_map(AggFunc::Min, false, 1000);
        absorb_all(&m, &(0..1000).map(|g| (g, g % 7)).collect::<Vec<_>>(), 8);
        assert_eq!(m.take_improved(Bucket::Unbounded).len(), 2 * 1000);
        assert_eq!(m.deferred(), 0);
    }

    #[test]
    fn group_sink_matches_group_aggregate() {
        let rel = input();
        let sink = GroupSink::new(vec![AggFunc::Min, AggFunc::Count], 1);
        let mut row = Vec::new();
        for r in 0..rel.len() {
            rel.view().copy_row(r, &mut row);
            // Pre-agg layout [group ‖ arg, arg]: duplicate the value column
            // as the argument of both aggregates.
            sink.absorb_row(&[row[0], row[1], row[1]]);
        }
        assert_eq!(sink.groups(), 3);
        let cols = sink.into_columns();
        let m: HashMap<Value, (Value, Value)> = (0..cols[0].len())
            .map(|r| (cols[0][r], (cols[1][r], cols[2][r])))
            .collect();
        assert_eq!(m, HashMap::from([(1, (4, 3)), (2, (7, 2)), (3, (-5, 1))]));
    }
}
