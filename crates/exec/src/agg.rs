//! Hash group-by aggregation and monotonic recursive aggregates.
//!
//! Non-recursive aggregation (the `gtc(x, COUNT(y))` example of §3.3) maps
//! to a parallel hash group-by: per-worker partial states merged once at the
//! end. Recursive aggregation (CC's and SSSP's `MIN`) follows the monotonic
//! semantics the paper inherits from the recursive-aggregate literature
//! [Lefebvre 92]: the IDB keeps one tuple per group holding the current best
//! value, and the ∆ of an iteration is the set of *strictly improved*
//! groups — which is exactly what [`MonotonicAgg::absorb`] reports.
//!
//! Both shapes also exist as *sink-side* concurrent states for the fused
//! streaming pipeline (group-at-source): [`ConcurrentMonoMap`] is a
//! latch-free CAS-on-best map — a per-group payload on the growable
//! [`GrowChainTable`] — whose dirty list yields the iteration's ∆
//! directly, and [`GroupSink`] holds sharded group-by partials that
//! operator workers fold rows into at the probe site, merged once at
//! flush. With either, the pre-aggregation `Rt` is never materialized.
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

/// A monotonic aggregate relation for recursive aggregation: one current
/// best value per group, with strict-improvement deltas.
#[derive(Clone, Debug)]
pub struct MonotonicAgg {
    func: AggFunc,
    map: FxHashMap<Box<[Value]>, Value>,
}

impl MonotonicAgg {
    /// New monotonic relation. Only `MIN` and `MAX` converge under
    /// recursion (the paper assumes programs are given convergent — §3.3);
    /// other functions are rejected.
    pub fn new(func: AggFunc) -> recstep_common::Result<Self> {
        match func {
            AggFunc::Min | AggFunc::Max => Ok(MonotonicAgg {
                func,
                map: FxHashMap::default(),
            }),
            other => Err(recstep_common::Error::analysis(format!(
                "recursive aggregation requires MIN or MAX, got {}",
                other.sql()
            ))),
        }
    }

    /// Aggregate function in effect.
    pub fn func(&self) -> AggFunc {
        self.func
    }

    /// Absorb a candidate `(group, value)`; returns `true` iff the group is
    /// new or strictly improved (i.e. the tuple belongs in ∆).
    pub fn absorb(&mut self, group: &[Value], v: Value) -> bool {
        match self.map.get_mut(group) {
            Some(cur) => {
                let better = match self.func {
                    AggFunc::Min => v < *cur,
                    AggFunc::Max => v > *cur,
                    _ => unreachable!(),
                };
                if better {
                    *cur = v;
                }
                better
            }
            None => {
                self.map.insert(group.to_vec().into_boxed_slice(), v);
                true
            }
        }
    }

    /// Current best value of a group.
    pub fn get(&self, group: &[Value]) -> Option<Value> {
        self.map.get(group).copied()
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no group has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Materialize as `[group columns ‖ value]` (group arity inferred from
    /// the first entry; empty map → `arity` columns of nothing).
    pub fn to_columns(&self, group_arity: usize) -> Vec<Vec<Value>> {
        let mut cols = vec![Vec::with_capacity(self.map.len()); group_arity + 1];
        for (key, &v) in &self.map {
            debug_assert_eq!(key.len(), group_arity);
            for (c, &k) in key.iter().enumerate() {
                cols[c].push(k);
            }
            cols[group_arity].push(v);
        }
        cols
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        // Entry overhead ≈ key box + value + hashmap slot.
        self.map.len() * (std::mem::size_of::<Value>() * 2 + 32)
            + self.map.capacity() * std::mem::size_of::<usize>()
    }
}

/// Dirty-stack link of a clean group (not queued for the next ∆) — the
/// default of a fresh payload cell.
const NOT_DIRTY: u32 = 0;
/// Dirty-stack terminator (links to groups are `slot + 1`).
const DIRTY_END: u32 = u32::MAX;

/// A concurrent monotonic-aggregate map: the sink-side twin of
/// [`MonotonicAgg`] for the fused streaming pipeline (group-at-source).
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
pub struct ConcurrentMonoMap {
    func: AggFunc,
    group_arity: usize,
    groups: GrowChainTable,
    /// Current best value per group slot (CAS-on-best).
    best: SlotChunks<AtomicI64>,
    /// Dirty-stack link per group slot, or [`NOT_DIRTY`].
    dirty: SlotChunks<AtomicU32>,
    /// Head of the dirty Treiber stack (`slot + 1`, [`DIRTY_END`] = empty).
    dirty_head: AtomicU32,
    /// Published (reachable) groups.
    live: AtomicUsize,
}

impl ConcurrentMonoMap {
    /// New concurrent monotonic map with room for `capacity` groups
    /// before its first growth step — an allocation hint only: the
    /// backing table grows in flight and lookup cost does not depend on
    /// it. Like [`MonotonicAgg::new`], only `MIN` and `MAX` converge under
    /// recursion; other functions are rejected.
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
        let group_arity = group_arity.max(1);
        Ok(ConcurrentMonoMap {
            func,
            group_arity,
            groups: GrowChainTable::new(group_arity, capacity, capacity.saturating_mul(2)),
            best: SlotChunks::new(capacity),
            dirty: SlotChunks::new(capacity),
            dirty_head: AtomicU32::new(DIRTY_END),
            live: AtomicUsize::new(0),
        })
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

    /// Queue `slot` for the next [`Self::take_improved`] drain. Idempotent:
    /// the `NOT_DIRTY → queued` claim admits each group at most once.
    fn mark_dirty(&self, slot: u32) {
        let link = self.dirty.get(slot);
        if link
            .compare_exchange(NOT_DIRTY, DIRTY_END, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return; // already queued
        }
        let mut head = self.dirty_head.load(Ordering::Acquire);
        loop {
            link.store(head, Ordering::Relaxed);
            match self.dirty_head.compare_exchange_weak(
                head,
                slot + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(actual) => head = actual,
            }
        }
    }

    /// CAS-on-best: install `v` iff it strictly improves group `slot`.
    /// Returns `true` when this call improved the group.
    fn cas_best(&self, slot: u32, v: Value) -> bool {
        let cell = self.best.get(slot);
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
                Ok(_) => {
                    self.mark_dirty(slot);
                    return true;
                }
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
        let created = |slot| self.best.get(slot).store(v, Ordering::Relaxed);
        match self
            .groups
            .insert_or_find_slot(hash_row(group), group, created)
        {
            Slot::Found(slot) => self.cas_best(slot, v),
            Slot::Inserted(slot) => {
                self.live.fetch_add(1, Ordering::Relaxed);
                self.mark_dirty(slot);
                true
            }
        }
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
        self.groups
            .find_row(hash_row(group), group)
            .map(|slot| self.best.get(slot).load(Ordering::Relaxed))
    }

    /// Drain the dirty stack: the groups created or strictly improved since
    /// the previous drain, each with its current (final) best value —
    /// exactly ∆R of the iteration, flattened row-major as
    /// `[group ‖ value]` rows. Requires quiescence (`&mut`): call between
    /// parallel absorb phases.
    pub fn take_improved(&mut self) -> Vec<Value> {
        let mut out = Vec::new();
        let mut cur = self.dirty_head.swap(DIRTY_END, Ordering::Relaxed);
        while cur != DIRTY_END {
            let slot = cur - 1;
            out.extend((0..self.group_arity).map(|c| self.groups.value(slot, c)));
            out.push(self.best.get(slot).load(Ordering::Relaxed));
            cur = self.dirty.get(slot).swap(NOT_DIRTY, Ordering::Relaxed);
        }
        out
    }

    /// Materialize as `[group columns ‖ value]` (live groups only — slots
    /// lost to insert races are unreachable and skipped).
    pub fn to_columns(&self, group_arity: usize) -> Vec<Vec<Value>> {
        debug_assert_eq!(group_arity, self.group_arity);
        let mut cols = vec![Vec::with_capacity(self.len()); group_arity + 1];
        self.groups.for_each_slot(|slot| {
            for (c, col) in cols.iter_mut().enumerate().take(group_arity) {
                col.push(self.groups.value(slot, c));
            }
            cols[group_arity].push(self.best.get(slot).load(Ordering::Relaxed));
        });
        cols
    }

    /// Approximate heap footprint in bytes (allocated chunks only).
    pub fn heap_bytes(&self) -> usize {
        self.groups.heap_bytes() + self.best.heap_bytes() + self.dirty.heap_bytes()
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
    fn monotonic_min_absorbs_improvements_only() {
        let mut m = MonotonicAgg::new(AggFunc::Min).unwrap();
        assert!(m.absorb(&[1], 10)); // new
        assert!(!m.absorb(&[1], 10)); // equal → not improved
        assert!(!m.absorb(&[1], 12)); // worse
        assert!(m.absorb(&[1], 3)); // better
        assert_eq!(m.get(&[1]), Some(3));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn monotonic_max() {
        let mut m = MonotonicAgg::new(AggFunc::Max).unwrap();
        assert!(m.absorb(&[7], 1));
        assert!(m.absorb(&[7], 5));
        assert!(!m.absorb(&[7], 2));
        assert_eq!(m.get(&[7]), Some(5));
    }

    #[test]
    fn monotonic_rejects_non_extremal_functions() {
        assert!(MonotonicAgg::new(AggFunc::Sum).is_err());
        assert!(MonotonicAgg::new(AggFunc::Count).is_err());
        assert!(MonotonicAgg::new(AggFunc::Avg).is_err());
    }

    #[test]
    fn monotonic_to_columns() {
        let mut m = MonotonicAgg::new(AggFunc::Min).unwrap();
        m.absorb(&[1, 2], 9);
        m.absorb(&[3, 4], 8);
        let cols = m.to_columns(2);
        assert_eq!(cols.len(), 3);
        let mut rows: Vec<Vec<Value>> = (0..2)
            .map(|r| cols.iter().map(|c| c[r]).collect())
            .collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![vec![1, 2, 9], vec![3, 4, 8]]);
        assert!(m.heap_bytes() > 0);
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
        let mut seq = MonotonicAgg::new(AggFunc::Max).unwrap();
        let conc = ConcurrentMonoMap::new(AggFunc::Max, 2, 4).unwrap();
        for i in 0..500i64 {
            let group = [i % 17, i % 5];
            seq.absorb(&group, i * 3 % 101);
            conc.absorb(&group, i * 3 % 101);
        }
        assert_eq!(seq.len(), conc.len());
        let rows = |cols: &[Vec<Value>]| -> Vec<Vec<Value>> {
            let mut rows: Vec<Vec<Value>> = (0..cols[0].len())
                .map(|r| cols.iter().map(|c| c[r]).collect())
                .collect();
            rows.sort_unstable();
            rows
        };
        assert_eq!(rows(&seq.to_columns(2)), rows(&conc.to_columns(2)));
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
