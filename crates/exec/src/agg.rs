//! Hash group-by aggregation and monotonic recursive aggregates.
//!
//! Non-recursive aggregation (the `gtc(x, COUNT(y))` example of §3.3) maps
//! to a parallel hash group-by: per-worker partial states merged once at the
//! end. Recursive aggregation (CC's and SSSP's `MIN`) follows the monotonic
//! semantics the paper inherits from the recursive-aggregate literature
//! [Lefebvre 92]: the IDB keeps one tuple per group holding the current best
//! value, and the ∆ of an iteration is the set of *strictly improved*
//! groups — which is exactly what [`ConcurrentMonoMap::take_improved`]
//! drains.
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
    let mut cols = vec![Vec::with_capacity(global.len()); out_arity];
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
/// Dirty-stack id tag: the low bits name a window cell, not a table slot.
const IN_WINDOW: u32 = 1 << 31;

/// Widest direct-addressed window, in packed key bits (2^22 cells of 16
/// bytes: 64 MiB).
pub const WINDOW_MAX_BITS: u32 = 22;
/// Windows up to this many bits are taken whatever the expected group
/// count (a few pages).
const WINDOW_FLOOR_BITS: u32 = 12;

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
///   payload cells, claimed by a `NOT_DIRTY → queued` CAS so each group
///   appears at most once. [`ConcurrentMonoMap::take_improved`] drains
///   that stack at the quiescent end of an iteration — it *is* ∆R, with
///   each group's final (best) value, no pre-aggregation `Rt` ever
///   materialized.
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
    /// bits, or when the window would be sparse — more than twice the
    /// expected groups, past a floor of `2^12` cells.
    pub fn window_for(bounds: &[(Value, Value)], expected_groups: usize) -> Option<KeyLayout> {
        let layout = KeyLayout::from_bounds(bounds)?;
        let bits = layout.total_bits();
        if bits > WINDOW_MAX_BITS {
            return None;
        }
        let dense =
            bits <= WINDOW_FLOOR_BITS || 1usize << bits <= expected_groups.saturating_mul(2);
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
    /// so each group is queued at most once per drain.
    fn queue(&self, id: u32, link: &AtomicU32, from: u32) -> bool {
        if link
            .compare_exchange(from, DIRTY_END, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        let mut head = self.dirty_head.load(Ordering::Acquire);
        loop {
            link.store(head, Ordering::Relaxed);
            match self.dirty_head.compare_exchange_weak(
                head,
                id + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(actual) => head = actual,
            }
        }
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
                    self.queue(slot, self.dirty.get(slot), NOT_DIRTY);
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
            self.queue(id, &cell.link, NOT_DIRTY);
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

    /// Drain the dirty stack: the groups created or strictly improved since
    /// the previous drain, each with its current (final) best value —
    /// exactly ∆R of the iteration, flattened row-major as
    /// `[group ‖ value]` rows. Requires quiescence (`&mut`): call between
    /// parallel absorb phases. Costs O(∆), window or not.
    pub fn take_improved(&mut self) -> Vec<Value> {
        let mut out = Vec::new();
        let mut key = Vec::with_capacity(self.group_arity);
        let mut cur = self.dirty_head.swap(DIRTY_END, Ordering::Relaxed);
        while cur != DIRTY_END {
            let id = cur - 1;
            let (best, link) = match &self.window {
                Some(w) if id & IN_WINDOW != 0 => {
                    let cell = &w.cells[(id & !IN_WINDOW) as usize];
                    w.layout.unpack(u64::from(id & !IN_WINDOW), &mut key);
                    out.extend_from_slice(&key);
                    (&cell.best, &cell.link)
                }
                _ => {
                    out.extend((0..self.group_arity).map(|c| self.groups.value(id, c)));
                    (self.best.get(id), self.dirty.get(id))
                }
            };
            out.push(best.load(Ordering::Relaxed));
            cur = link.swap(NOT_DIRTY, Ordering::Relaxed);
        }
        out
    }

    /// Materialize as `[group columns ‖ value]` (live groups only — slots
    /// lost to insert races are unreachable and skipped).
    pub fn to_columns(&self, group_arity: usize) -> Vec<Vec<Value>> {
        debug_assert_eq!(group_arity, self.group_arity);
        let mut cols = vec![Vec::with_capacity(self.len()); group_arity + 1];
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
        self.groups.heap_bytes() + self.best.heap_bytes() + self.dirty.heap_bytes() + window
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
        assert_eq!(m.take_improved(), vec![3]);
        assert!(m.take_improved().is_empty());
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
        let mut improved: Vec<Vec<Value>> =
            m.take_improved().chunks(2).map(<[_]>::to_vec).collect();
        improved.sort_unstable();
        assert_eq!(improved, vec![vec![1, 3], vec![2, 5]]);
        // Drained: nothing reported until the next improvement.
        assert!(m.take_improved().is_empty());
        assert!(!m.absorb(&[1], 4));
        assert!(m.take_improved().is_empty());
        assert!(m.absorb(&[1], 2));
        assert_eq!(m.take_improved(), vec![1, 2]);
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
        let improved = m.take_improved();
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
        let rows = |flat: Vec<Value>| -> Vec<Vec<Value>> {
            let mut rows: Vec<Vec<Value>> = flat.chunks(2).map(<[_]>::to_vec).collect();
            rows.sort_unstable();
            rows
        };
        assert_eq!(
            rows(m.take_improved()),
            vec![vec![5, 3], vec![12, 7], vec![1000, Value::MIN]]
        );
        assert!(m.take_improved().is_empty());
        assert!(!m.absorb(&[12], 9));
        assert!(m.absorb(&[25], 0));
        assert_eq!(rows(m.take_improved()), vec![vec![25, 0]]);
        let cols = m.to_columns(1);
        let flat: Vec<Value> = (0..cols[0].len())
            .flat_map(|r| [cols[0][r], cols[1][r]])
            .collect();
        assert_eq!(
            rows(flat),
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
