//! The evaluation loop: Algorithm 1 over the relational substrate.
//!
//! The interpreter mirrors the paper's execution strategy:
//!
//! ```text
//! for each stratum s (topological order):
//!   repeat
//!     for each IDB R in s:
//!       Rt ← uieval(rules(R, s))      // UNION ALL of subqueries
//!       analyze(Rt)                   // per the OOF policy
//!       Rδ ← dedup(Rt)                // CCK-GSCHT
//!       analyze(Rδ, R)
//!       ∆R ← Rδ − R                   // OPSD / TPSD / DSD
//!       R  ← R ⊎ ∆R
//!   until ∀R: ∆R = ∅  (once for non-recursive strata)
//! ```
//!
//! Under the default **fused streaming pipeline** (`fused_pipeline`), the
//! four middle lines collapse into the first: the final operator of every
//! subquery streams each produced row through a [`DeltaSink`] that probes
//! the persistent full-`R` index and races into a shared scratch table, so
//! `Rt` never materializes and `uieval` directly yields `∆R`:
//!
//! ```text
//!     for each IDB R in s:
//!       ∆R ← uieval(rules(R, s)) ─▷ probe(full-R index) ─▷ scratch CAS
//!       R  ← R ⊎ ∆R               // one shard append; ∆R is a row range
//! ```
//!
//! One step function ([`EvalRun::step_idb`]) runs that line for every
//! IDB: it picks one of three sinks, evaluates every subquery into it
//! once, books the statistics the sinks share (queries, WCOJ tallies,
//! considered tuples, OOF-NA plan freezing, OOF-FA `analyze(Rt)`), and
//! only the ∆R tail depends on the sink:
//!
//! * **Delta** — non-aggregated heads under `fused_pipeline`,
//!   `index_reuse`, `uie` and `eost`: the ∆ stream above. The view
//!   maintenance seed pass runs the same stream
//!   ([`EvalRun::stream_delta`]).
//! * **Agg** — aggregated heads under `fused_agg`, `uie` and `eost`: rows
//!   fold into aggregate state at the probe site (a monotonic MIN/MAX map
//!   whose dirty list is ∆R, or group-by partials).
//! * **Materialize** — everything else: `Rt` is buffered, then handed to
//!   the table the streaming path would have fed — grouped and absorbed
//!   into the head's monotonic map (`--no-fused-agg`), or drained through
//!   a [`DeltaSink`] against the persistent full-R index
//!   (`--no-fused-pipeline`) — or grouped by a plain group-by pass, or
//!   deduplicated and set-differenced against `R` (`--no-index-reuse`).
//!   `--no-uie` stages per-subquery temporaries and `--no-eost` prices
//!   per-query flushes of the temporaries, so both keep `Rt`
//!   materialized.
//!
//! OOF-FA streams: the Delta and Agg sinks sample the would-be `Rt` into a
//! reservoir that stands in for it. TC/SG-shaped strata can instead be
//! handed to PBME (§5.3).
//!
//! The loop is deliberately free of engine-object state: one [`EvalRun`]
//! borrows the engine's immutable configuration and execution context
//! plus one database's catalog — exclusively, or as a frozen base under a
//! run-local overlay ([`RunCatalog`]) — which is what lets a single
//! [`crate::PreparedProgram`] run concurrently over distinct
//! [`crate::Database`]s *and* concurrently over one shared database.
//! Frozen-relation join indexes are served from the database's shared
//! cross-run [`IndexCache`] (built once across runs, evicted under
//! memory pressure); everything mutable stays run-local.

use std::cell::{Cell, OnceCell, RefCell};
use std::sync::Arc;
use std::time::{Duration, Instant};

use recstep_common::hash::{FxHashMap, FxHashSet};
use recstep_common::lang::{AggFunc, Expr};
use recstep_common::sched::CancelToken;
use recstep_common::{Error, Result, Value};
use recstep_datalog::plan::{
    AtomVersion, CompiledIdb, CompiledProgram, CompiledStratum, ScanSpec, SubQuery,
};
use recstep_exec::agg::{AggCol, Bucket, ConcurrentMonoMap, GroupSink};
use recstep_exec::cache::{CacheKey, IndexCache};
use recstep_exec::dedup::deduplicate;
use recstep_exec::index::{OrderedIndex, PersistentIndex, SharedIndex, SyncAction};
use recstep_exec::join::{
    anti_join_sink, chained_join_sink, cross_join_sink, hash_join_sink, index_anti_join_sink,
    index_join_sink, project_filter_sink, JoinSpec,
};
use recstep_exec::key::KeyLayout;
use recstep_exec::setdiff::{set_difference, DsdState};
use recstep_exec::sink::{
    AggSink, AggTarget, DeltaSink, DistinctSink, SinkMode, SinkSampler, SinkScratch,
};
use recstep_exec::wcoj::{wcoj_sink, WcojSpec};
use recstep_exec::ExecCtx;
use recstep_storage::{RelId, RelView, Relation, RunCatalog, Schema};

use crate::config::{Config, OofMode, PbmeMode};
use crate::pbme::{self, detect, matrix_columns, Guard, PbmePlan};
use crate::stats::{EvalStats, StratumStats};

mod bf;

/// ∆R of one iteration.
///
/// Merging appends `∆R` to the stored relation anyway, and stored
/// relations are strictly append-only until fixpoint — so for the common
/// paths `∆R` is just the appended *row range* of `R`, staged and read
/// back as a zero-copy view (no second materialized relation, no extra
/// row copy). Only monotonic-aggregate deltas own their rows: improved
/// groups are not appended to `R` in head layout.
enum DeltaBuf {
    /// Rows `start..end` of the IDB's stored relation.
    Range(usize, usize),
    /// Separately materialized rows (recursive aggregation), column-major;
    /// the columns are reused by a later iteration's ∆.
    Owned(Vec<Vec<Value>>),
}

impl DeltaBuf {
    fn len(&self) -> usize {
        match self {
            DeltaBuf::Range(a, b) => b - a,
            DeltaBuf::Owned(cols) => cols.first().map_or(0, Vec::len),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes owned by the delta itself (ranges alias the stored
    /// relation, which the catalog already accounts for).
    fn heap_bytes(&self) -> usize {
        match self {
            DeltaBuf::Range(..) => 0,
            DeltaBuf::Owned(cols) => cols.iter().map(|c| c.capacity() * 8).sum(),
        }
    }

    fn view<'a>(&'a self, rel: &'a Relation) -> RelView<'a> {
        match self {
            DeltaBuf::Range(a, b) => rel.range_view(*a, *b),
            DeltaBuf::Owned(cols) => RelView::over(cols),
        }
    }
}

/// How a stratum's fixpoint is entered.
///
/// A scratch entry is Algorithm 1's: ∆⁰R is everything already in `R`
/// (its inline facts), and its first pass — the *exit pass* — is the only
/// one that evaluates the subqueries without a ∆ scan (the exit rules).
/// A seeded entry re-enters a *completed* fixpoint after new tuples were
/// appended (incremental view maintenance): ∆⁰R covers only the rows from
/// the recorded start, the prefix is the Old frontier, and delta-less
/// subqueries are skipped — the maintenance seed pass already evaluated
/// every rule against the changed inputs, so only ∆-propagation remains.
pub(crate) enum StratumEntry {
    /// Fixpoint from scratch (∆⁰R = all of R).
    Scratch,
    /// Re-entry with ∆⁰R = rows from the recorded start per relation.
    Seeded(FxHashMap<RelId, usize>),
}

/// What one pass of a stratum's fixpoint does beyond its ∆ subqueries.
#[derive(Clone, Copy)]
struct Pass {
    /// The exit pass ([`StratumEntry`]): the subqueries without a ∆ scan
    /// run. A MIN/MAX head drains the groups they improved like any
    /// other: in value order when its head allows it.
    exit: bool,
    /// OOF-NA: freeze the build sides this pass picks. Every pass under
    /// `OofMode::None` but an exit pass over an empty ∆⁰, whose ∆
    /// subqueries see none of their recursive inputs.
    freeze: bool,
}

/// Per-IDB mutable state across the iterations of one stratum.
struct IdbState {
    rel_id: RelId,
    /// ∆R of the previous iteration (head-order layout).
    delta: DeltaBuf,
    /// Row count of R through iteration `t-1` (the Old prefix).
    old_len: usize,
    /// DSD cost-model state.
    dsd: DsdState,
    /// Aggregation handling for aggregated heads.
    agg: Option<AggKind>,
    /// The IDB's subqueries, bound for the stratum.
    bound: Vec<SqBinding>,
    /// Persistent full-R membership index (whole-tuple keys): built once
    /// for the stratum and synced with R before each probe by the fused
    /// dedup + set-difference pass ([`EvalRun::full_index`]), so it may
    /// trail R by the last merge. `None` until the first iteration, or
    /// always under `index_reuse = false`.
    full_index: Option<PersistentIndex>,
    /// The ∆ stream's pass-local winners, kept from pass to pass.
    scratch: SinkScratch,
    /// The columns of an owned ∆ no peer reads any more, for the next one.
    spare: Vec<Vec<Value>>,
    /// Schema of each subquery's temp table (`uie = false`), built once.
    tmp_schemas: Vec<Schema>,
}

impl IdbState {
    /// Heap bytes the state holds from one iteration to the next: its ∆,
    /// full-R index and monotonic map, and the storage kept for the next
    /// pass — the ∆ stream's scratch, the spare ∆ columns and each bound
    /// join's distinct stage.
    fn heap_bytes(&self) -> usize {
        let distinct = self.bound.iter().flat_map(|sq| &sq.joins);
        self.delta.heap_bytes()
            + self
                .full_index
                .as_ref()
                .map_or(0, PersistentIndex::heap_bytes)
            + match &self.agg {
                Some(AggKind::Mono(m)) => m.map.heap_bytes(),
                _ => 0,
            }
            + self.scratch.heap_bytes()
            + self.spare.iter().map(|c| c.capacity() * 8).sum::<usize>()
            + distinct
                .map(|j| j.distinct.borrow().heap_bytes())
                .sum::<usize>()
    }
}

/// The shared (read-only) tier of the join cache: a borrow of the
/// database-owned [`IndexCache`] plus this run's hit/miss accounting.
struct SharedTier<'c> {
    cache: &'c IndexCache,
    budget: usize,
    hits: usize,
    misses: usize,
    evictions: usize,
}

/// A frozen relation's key-ordered index as one run holds it.
struct FrozenIndex {
    index: Arc<SharedIndex>,
    /// A pin of the shared cache's entry (its bytes are the cache's), not
    /// this run's own build.
    shared: bool,
}

/// One join-cache entry: a build side's relation and key columns, and its
/// index once a probe has asked for it.
struct CacheSlot<I> {
    rel: RelId,
    cols: Vec<usize>,
    index: Option<I>,
}

/// Where a bound join's build side is cached ([`JoinCache::slot`]).
#[derive(Clone, Copy)]
enum Slot {
    /// A key-ordered index over a frozen relation.
    Frozen(usize),
    /// A chained index over one of the running stratum's own IDBs.
    Growing(usize),
}

/// Per-run cache of join/anti-join build sides, in two layouts.
///
/// Keyed on `(relation, key columns)`; only unfiltered `Base`/`Full` scans
/// of catalog relations are cacheable. Binding a stratum
/// ([`SqBinding::new`]) reserves each cacheable build side's slot once,
/// so a probe finds its index by slot number — no key is built or hashed
/// per iteration. The scan's version picks the layout ([`frozen_scan`]):
///
/// * **`Base`** — an EDB or a lower stratum's finished IDB, frozen for the
///   stratum (every rule deriving it ran before any rule reading it) —
///   gets a key-ordered [`SharedIndex`]. With the database-owned
///   [`IndexCache`] and a relation version that names durable contents it
///   is served from there: built at most once across all runs over the
///   database (first builder wins, concurrent racers block on the publish
///   and reuse), pinned by this run while probing, subject to spill-aware
///   eviction (a dropped entry surfaces as a miss, i.e. a rebuild signal —
///   never a dangling reference). Otherwise (`--no-shared-index-cache`, or
///   a relation with no durable version) the run builds the same index
///   and keeps it to itself. Any probe may use it: values outside its
///   bounds match nothing.
/// * **`Full`** — one of the running stratum's own IDBs — gets a chained
///   [`PersistentIndex`], built once and appended the rows each merge adds
///   (rebuilt hashed, once, when probe values escape its packed layout).
///   It is dropped when its stratum ends ([`JoinCache::end_stratum`]): no
///   later stratum reads the relation as anything but `Base`.
///
/// So the cache needs no invalidation: a relation is cleared and refilled
/// (a PBME refill, a monotonic-aggregate rebuild, a refresh's retraction)
/// only by its own stratum and outside its fixpoint loop — when no chained
/// index over it is held, and before any stratum that reads it frozen.
/// Counters fold into [`EvalStats`] at run end.
struct JoinCache<'c> {
    enabled: bool,
    shared: Option<SharedTier<'c>>,
    /// Slots of frozen build sides; they outlive their stratum.
    frozen: Vec<CacheSlot<FrozenIndex>>,
    /// Slots of growing build sides; cleared when their stratum ends.
    growing: Vec<CacheSlot<PersistentIndex>>,
    builds: usize,
    appends: usize,
    reuses: usize,
    build_rows: usize,
    append_rows: usize,
    /// Joins that probed a frozen index with their other input.
    frozen_probes: usize,
    maintain: std::time::Duration,
}

impl<'c> JoinCache<'c> {
    fn new(enabled: bool, shared: Option<(&'c IndexCache, usize)>) -> Self {
        JoinCache {
            enabled,
            shared: shared.map(|(cache, budget)| SharedTier {
                cache,
                budget,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            frozen: Vec::new(),
            growing: Vec::new(),
            builds: 0,
            appends: 0,
            reuses: 0,
            build_rows: 0,
            append_rows: 0,
            frozen_probes: 0,
            maintain: std::time::Duration::ZERO,
        }
    }

    /// The slot serving `scan`'s rows as a build side keyed on `cols`, if
    /// the scan is cacheable: an unfiltered `Base`/`Full` scan of a catalog
    /// relation, with the cache enabled.
    fn slot(&mut self, catalog: &RunCatalog<'_>, scan: &ScanSpec, cols: &[usize]) -> Option<Slot> {
        if !self.enabled
            || !scan.filters.is_empty()
            || !matches!(scan.version, AtomVersion::Base | AtomVersion::Full)
        {
            return None;
        }
        let rel = catalog.lookup(&scan.rel)?;
        Some(if frozen_scan(scan) {
            Slot::Frozen(reserve(&mut self.frozen, rel, cols))
        } else {
            Slot::Growing(reserve(&mut self.growing, rel, cols))
        })
    }

    /// Whether frozen slot `slot`'s index exists already — held by this
    /// run over all of its relation, or resident in the shared cache — so
    /// building on that side costs nothing.
    fn resident(&self, catalog: &RunCatalog<'_>, slot: usize) -> bool {
        let CacheSlot { rel, cols, index } = &self.frozen[slot];
        let rows = catalog.rel(*rel).len();
        if index.as_ref().is_some_and(|f| f.index.rows() == rows) {
            return true;
        }
        match (&self.shared, catalog.shared_version(*rel)) {
            (Some(tier), Some(version)) => tier.cache.contains(&CacheKey {
                rel: *rel,
                version,
                cols: cols.clone(),
            }),
            _ => false,
        }
    }

    /// The key-ordered index of frozen slot `slot`: held from an earlier
    /// probe, fetched (or built once) through the shared cache, or built
    /// for this run alone without one.
    fn frozen_index(
        &mut self,
        ctx: &ExecCtx,
        catalog: &RunCatalog<'_>,
        slot: usize,
    ) -> &OrderedIndex {
        let CacheSlot { rel, cols, index } = &mut self.frozen[slot];
        let base = catalog.rel(*rel).view();
        if index.as_ref().is_some_and(|f| f.index.rows() == base.len()) {
            // A held index costs nothing to reuse: not worth a clock read.
            self.reuses += 1;
        } else {
            let t0 = Instant::now();
            let held = match (self.shared.as_mut(), catalog.shared_version(*rel)) {
                (Some(tier), Some(version)) => {
                    let ckey = CacheKey {
                        rel: *rel,
                        version,
                        cols: cols.clone(),
                    };
                    let out = tier.cache.get_or_build(&ckey, tier.budget, || {
                        SharedIndex::build(ctx, base, cols.clone())
                    });
                    if out.built {
                        tier.misses += 1;
                        self.builds += 1;
                        self.build_rows += base.len();
                    } else {
                        tier.hits += 1;
                    }
                    tier.evictions += out.evicted;
                    FrozenIndex {
                        index: out.index,
                        shared: true,
                    }
                }
                _ => {
                    self.builds += 1;
                    self.build_rows += base.len();
                    FrozenIndex {
                        index: Arc::new(SharedIndex::build(ctx, base, cols.clone())),
                        shared: false,
                    }
                }
            };
            *index = Some(held);
            self.maintain += t0.elapsed();
        }
        index.as_ref().expect("just filled").index.index()
    }

    /// Frozen slot `slot`'s index ([`Self::frozen_index`]) with its one
    /// row per key ([`OrderedIndex::first_rows`]) gathered, which a shared
    /// entry's resident bytes then count: what a distinct exit scan reads.
    fn first_rows(
        &mut self,
        ctx: &ExecCtx,
        catalog: &RunCatalog<'_>,
        slot: usize,
    ) -> Arc<SharedIndex> {
        self.frozen_index(ctx, catalog, slot);
        let CacheSlot { rel, cols, index } = &self.frozen[slot];
        let held = index.as_ref().expect("just held");
        let index = Arc::clone(&held.index);
        if !index.index().has_first_rows() {
            let t0 = Instant::now();
            index.index().first_rows();
            if let (true, Some(tier), Some(version)) =
                (held.shared, &self.shared, catalog.shared_version(*rel))
            {
                let key = CacheKey {
                    rel: *rel,
                    version,
                    cols: cols.clone(),
                };
                tier.cache.recharge(&key, &index);
            }
            self.maintain += t0.elapsed();
        }
        index
    }

    /// A probe-ready chained index over growing slot `slot`'s relation:
    /// built on first use and synchronized incrementally, with the
    /// compact-key layout invalidated (hashed rebuild, once) when probe
    /// values escape it.
    fn growing_index(
        &mut self,
        ctx: &ExecCtx,
        catalog: &RunCatalog<'_>,
        slot: usize,
        probe: RelView<'_>,
        probe_cols: &[usize],
    ) -> &PersistentIndex {
        let t0 = Instant::now();
        let CacheSlot { rel, cols, index } = &mut self.growing[slot];
        let base = catalog.rel(*rel).view();
        let fresh = index.is_none();
        if fresh {
            self.builds += 1;
            self.build_rows += base.len();
        }
        let index = index.get_or_insert_with(|| PersistentIndex::build(ctx, base, cols.clone()));
        match index.sync_for_probe(ctx, base, probe, probe_cols) {
            SyncAction::Reused if !fresh => self.reuses += 1,
            SyncAction::Reused => {}
            SyncAction::Appended(n) => {
                self.appends += 1;
                self.append_rows += n;
            }
            SyncAction::Rebuilt => {
                self.builds += 1;
                self.build_rows += base.len();
            }
        }
        self.maintain += t0.elapsed();
        index
    }

    /// Heap bytes of the run's own indexes (shared snapshots are
    /// accounted by the database cache's resident total).
    fn heap_bytes(&self) -> usize {
        let growing = self.growing.iter().filter_map(|s| s.index.as_ref());
        let own_frozen = self.frozen.iter().filter_map(|s| s.index.as_ref());
        growing.map(PersistentIndex::heap_bytes).sum::<usize>()
            + own_frozen
                .filter(|f| !f.shared)
                .map(|f| f.index.heap_bytes())
                .sum::<usize>()
    }

    /// Resident bytes of the shared tier's backing cache (0 without one).
    fn shared_resident_bytes(&self) -> usize {
        self.shared.as_ref().map_or(0, |t| t.cache.resident_bytes())
    }

    /// Drop the stratum's chained indexes: their relations are read as
    /// `Base` from now on, through key-ordered indexes.
    fn end_stratum(&mut self) {
        self.growing.clear();
    }

    /// Memory-pressure spill: release this run's pins (mid-stratum drop —
    /// the next probe re-fetches or rebuilds) and evict the shared tier
    /// down to `target` resident bytes. Returns the bytes actually freed.
    fn spill_for_pressure(&mut self, target: usize) -> usize {
        match self.shared.as_mut() {
            Some(tier) => {
                for slot in &mut self.frozen {
                    if slot.index.as_ref().is_some_and(|f| f.shared) {
                        slot.index = None;
                    }
                }
                let (evicted, freed) = tier.cache.evict_to_fit(target);
                tier.evictions += evicted;
                freed
            }
            None => 0,
        }
    }

    /// Fold the run's cache activity into the run statistics.
    fn fold_into(&self, stats: &mut EvalStats) {
        stats.index.join_builds += self.builds;
        stats.index.join_appends += self.appends;
        stats.index.join_reuses += self.reuses;
        stats.index.build_rows += self.build_rows;
        stats.index.append_rows += self.append_rows;
        stats.index.bytes_peak = stats.index.bytes_peak.max(self.heap_bytes());
        stats.delta_probe_joins += self.frozen_probes;
        stats.phase.index += self.maintain;
        if let Some(tier) = &self.shared {
            stats.index.cache_hits += tier.hits;
            stats.index.cache_misses += tier.misses;
            stats.index.cache_evictions += tier.evictions;
            stats.index.cache_bytes = tier.cache.resident_bytes();
        }
    }
}

/// The slot of `slots` keyed `(rel, cols)`, reserved empty if new.
fn reserve<I>(slots: &mut Vec<CacheSlot<I>>, rel: RelId, cols: &[usize]) -> usize {
    match slots.iter().position(|s| s.rel == rel && s.cols == cols) {
        Some(at) => at,
        None => {
            slots.push(CacheSlot {
                rel,
                cols: cols.to_vec(),
                index: None,
            });
            slots.len() - 1
        }
    }
}

/// Where one scan of a bound subquery reads its rows.
#[derive(Clone, Copy)]
enum Source {
    /// A catalog relation, whole: a `Base` or `Full` scan, or any
    /// position of a maintenance pass.
    Rel(RelId),
    /// Peer IDB `i`'s ∆ of the previous iteration.
    Delta(usize),
    /// Peer IDB `i`'s Old prefix.
    Old(usize),
    /// A maintenance pass's override for this position.
    Pinned,
}

/// One join of a bound subquery.
struct JoinBinding {
    /// The cache slot of the left input as a build side: at the first
    /// join only, when that scan is cacheable.
    left: Option<Slot>,
    /// The cache slot of the right input as a build side, when cacheable.
    right: Option<Slot>,
    /// The direction rule's build side ([`frozen_build_side`]), decided
    /// on first use.
    rule: OnceCell<Option<bool>>,
    /// OOF-NA: the build side frozen after the first iteration.
    frozen: Cell<Option<bool>>,
    /// A deduplicated chain stage's values, kept from pass to pass.
    distinct: RefCell<SinkScratch>,
}

/// A subquery bound to one run's catalog and one stratum: each scan's
/// source, each join's cache slots and each negation's relation resolved
/// once, so evaluating it looks up no name and builds no cache key.
struct SqBinding {
    scans: Vec<Source>,
    joins: Vec<JoinBinding>,
    /// Per negation: the negated relation, and its cache slot when
    /// cacheable.
    negs: Vec<(RelId, Option<usize>)>,
    /// A distinct exit scan ([`bind_distinct_scans`]): the frozen slot
    /// keyed on the scan's live columns, and whether a ∆ subquery of the
    /// stratum builds that index anyway.
    distinct: Option<(usize, bool)>,
}

impl SqBinding {
    /// Bind `sq` of `stratum`: its scans by version (`Delta`/`Old` read
    /// the peer IDB's state) or, for a maintenance pass (`overrides`), as
    /// the catalog's full relations except the overridden positions.
    fn new(
        catalog: &RunCatalog<'_>,
        stratum: &CompiledStratum,
        sq: &SubQuery,
        jcache: &mut JoinCache<'_>,
        overrides: Option<&ScanOverrides<'_>>,
    ) -> Result<Self> {
        let peer = |rel: &str, what: &str| {
            stratum
                .idbs
                .iter()
                .position(|i| i.rel == rel)
                .ok_or_else(|| Error::exec(format!("no {what} state for '{rel}'")))
        };
        let scans = sq
            .scans
            .iter()
            .enumerate()
            .map(|(i, scan)| match overrides {
                Some(ovr) if ovr.contains_key(&i) => Ok(Source::Pinned),
                Some(_) => Ok(Source::Rel(rel_id(catalog, &scan.rel)?)),
                None => Ok(match scan.version {
                    AtomVersion::Base | AtomVersion::Full => {
                        Source::Rel(rel_id(catalog, &scan.rel)?)
                    }
                    AtomVersion::Delta => Source::Delta(peer(&scan.rel, "delta")?),
                    AtomVersion::Old => Source::Old(peer(&scan.rel, "old")?),
                }),
            })
            .collect::<Result<_>>()?;
        let joins = sq
            .joins
            .iter()
            .enumerate()
            .map(|(ji, join)| JoinBinding {
                left: (ji == 0)
                    .then(|| jcache.slot(catalog, &sq.scans[0], &join.left_keys))
                    .flatten(),
                right: jcache.slot(catalog, &sq.scans[ji + 1], &join.right_keys),
                rule: OnceCell::new(),
                frozen: Cell::new(None),
                distinct: RefCell::default(),
            })
            .collect();
        let negs = sq
            .negations
            .iter()
            .map(|neg| {
                let rel = rel_id(catalog, &neg.rel)?;
                let cached = jcache.enabled && neg.filters.is_empty();
                Ok((
                    rel,
                    cached.then(|| reserve(&mut jcache.frozen, rel, &neg.right_keys)),
                ))
            })
            .collect::<Result<_>>()?;
        Ok(SqBinding {
            scans,
            joins,
            negs,
            distinct: None,
        })
    }

    /// Whether `sq`, bound here, runs in a pass: without a ∆ scan on the
    /// exit pass only, with one only while that ∆ holds rows (an empty ∆
    /// derives nothing).
    fn runs(
        &self,
        sq: &SubQuery,
        catalog: &RunCatalog<'_>,
        states: &[IdbState],
        exit: bool,
    ) -> bool {
        match sq.delta_scan {
            None => exit,
            Some(d) => self.rows(d, catalog, states) > 0,
        }
    }

    /// The rows scan `i` reads (a maintenance override for a pinned one).
    fn view<'a>(
        &self,
        i: usize,
        catalog: &'a RunCatalog<'_>,
        states: &'a [IdbState],
        overrides: Option<&ScanOverrides<'a>>,
    ) -> RelView<'a> {
        match self.scans[i] {
            Source::Rel(id) => catalog.rel(id).view(),
            Source::Delta(p) => states[p].delta.view(catalog.rel(states[p].rel_id)),
            Source::Old(p) => catalog.rel(states[p].rel_id).prefix_view(states[p].old_len),
            Source::Pinned => overrides.expect("a pinned scan has an override")[&i],
        }
    }

    /// Rows scan `i` reads.
    fn rows(&self, i: usize, catalog: &RunCatalog<'_>, states: &[IdbState]) -> usize {
        match self.scans[i] {
            Source::Rel(id) => catalog.rel(id).len(),
            Source::Delta(p) => states[p].delta.len(),
            Source::Old(p) => states[p].old_len,
            Source::Pinned => 0,
        }
    }
}

/// How an aggregated IDB is evaluated.
enum AggKind {
    /// Recursive aggregation: monotonic MIN/MAX map with improvement deltas
    /// (boxed: the map is large beside the plain variant).
    Mono(Box<MonoState>),
    /// Non-recursive aggregation: one parallel group-by pass.
    Plain {
        group_positions: Vec<usize>,
        agg_positions: Vec<usize>,
        funcs: Vec<recstep_common::lang::AggFunc>,
    },
}

/// A recursive MIN/MAX head's state: one concurrent CAS-on-best map
/// (windowed when its keys pack compactly), fed at the probe site by the
/// aggregation sink or by the groups of a materialized `Rt`; its
/// dirty-list drain, cut to `bucket`, is the iteration's ∆.
struct MonoState {
    map: ConcurrentMonoMap,
    group_positions: Vec<usize>,
    agg_position: usize,
    /// [`Bucket::Lowest`] when the planner found the head safe to evaluate
    /// in value order ([`recstep_datalog::plan::IdbAgg::value_order`]).
    bucket: Bucket,
}

/// The state one pass of a plain (non-recursive) group-by head folds
/// into under the aggregation sink.
enum PlainAgg {
    /// A single MIN/MAX: the CAS-on-best map.
    Best(ConcurrentMonoMap),
    /// Any other aggregate list: sharded partials.
    Group(GroupSink),
}

impl PlainAgg {
    /// The flushed groups, `[group ‖ aggregates]` column-major.
    fn into_columns(self) -> Vec<Vec<Value>> {
        match self {
            PlainAgg::Best(map) => map.to_columns(map.group_arity()),
            PlainAgg::Group(groups) => groups.into_columns(),
        }
    }
}

/// What one ∆-stream pass ([`EvalRun::stream_delta`]) yields.
struct Streamed {
    /// The evaluation's output; its columns are the fresh rows (∆R).
    out: EvalOut,
    /// Rows offered to the sink (`|Rt|` without `Rt` ever existing).
    considered: usize,
    /// The sink's scratch-table footprint.
    scratch_bytes: usize,
}

/// Reservoir size for sink-sampled OOF-FA statistics (rows held, not rows
/// counted — exact cardinalities come from the sink's counters).
const SINK_SAMPLE_CAP: usize = 1024;

/// The DSD cost model's build/probe cost ratio α (Appendix A Eq. 7): a
/// build costs roughly twice a probe on chained tables.
const DSD_ALPHA: f64 = 2.0;

/// One evaluation of a compiled program over one database.
///
/// Borrows the engine side (`cfg`, `ctx`) immutably and the
/// database side through a [`RunCatalog`]: exclusively (`&mut Catalog`)
/// for classic runs, or as a frozen base plus
/// run-local overlay for shared-mode runs — which is what lets N
/// evaluations proceed concurrently over one database. `cache` is the
/// database's shared cross-run index cache (`None` under
/// `--no-shared-index-cache`).
pub(crate) struct EvalRun<'e, 'd> {
    pub(crate) cfg: &'e Config,
    pub(crate) ctx: &'e ExecCtx,
    pub(crate) catalog: RunCatalog<'d>,
    pub(crate) cache: Option<&'d IndexCache>,
    /// Cooperative cancellation, polled at iteration boundaries (the only
    /// points where aborting leaves no partial state). `None` for
    /// uncancellable runs.
    pub(crate) cancel: Option<&'e CancelToken>,
    /// The run's §5.2 write-back, counted (start from the default).
    pub(crate) io: IoLedger,
}

/// The I/O a QuickStep-style store would do for one run (paper §5.2),
/// counted instead of written: evaluation is in-memory and persists
/// nothing, but `io_bytes` / `io_flushes` still price the EOST ablation.
///
/// Without EOST every temporary is flushed as it is produced, and every
/// state-changing query flushes the rows it appended past the table's
/// high-water mark in this run. Under EOST every table the run wrote is
/// flushed once, whole, at fixpoint. A flush costs 8 bytes per value;
/// empty tables are never flushed.
#[derive(Default)]
pub(crate) struct IoLedger {
    /// Rows of each written table flushed so far in this run; its keys
    /// are the tables EOST commits.
    high_water: FxHashMap<RelId, usize>,
    /// Per-query totals.
    bytes: u64,
    flushes: u64,
}

impl IoLedger {
    fn flush(&mut self, rows: usize, arity: usize) {
        if rows > 0 {
            self.bytes += (rows * arity * 8) as u64;
            self.flushes += 1;
        }
    }

    /// A temporary (`Rt`, `Rδ`, `∆R`) was produced.
    fn temp(&mut self, view: RelView<'_>) {
        self.flush(view.len(), view.arity());
    }

    /// A state-changing query wrote `rel` (relation `id`).
    fn dirty(&mut self, id: RelId, rel: &Relation) {
        let high_water = self.high_water.entry(id).or_default();
        let from = *high_water;
        *high_water = from.max(rel.len());
        self.flush(rel.len().saturating_sub(from), rel.arity());
    }

    /// `(bytes, flushes)` of the run at fixpoint.
    fn totals(&self, eost: bool, catalog: &RunCatalog<'_>) -> (u64, u64) {
        if !eost {
            return (self.bytes, self.flushes);
        }
        let mut commit = IoLedger::default();
        for &id in self.high_water.keys() {
            let rel = catalog.rel(id);
            commit.flush(rel.len(), rel.arity());
        }
        (commit.bytes, commit.flushes)
    }
}

impl<'d> EvalRun<'_, 'd> {
    /// Evaluate a compiled program to fixpoint (Algorithm 1).
    pub(crate) fn run(&mut self, prog: &CompiledProgram) -> Result<EvalStats> {
        self.run_impl(prog, None)
    }

    /// [`EvalRun::run`], but hand the run's final full-R indexes back to
    /// the caller (keyed by relation name) instead of publishing them to
    /// the shared cache — the entry point for a materialized view that
    /// keeps the indexes alive for later incremental refreshes.
    pub(crate) fn run_carry(
        &mut self,
        prog: &CompiledProgram,
        carry: &mut FxHashMap<String, PersistentIndex>,
    ) -> Result<EvalStats> {
        self.run_impl(prog, Some(carry))
    }

    fn run_impl(
        &mut self,
        prog: &CompiledProgram,
        carry_out: Option<&mut FxHashMap<String, PersistentIndex>>,
    ) -> Result<EvalStats> {
        let t0 = Instant::now();
        let busy0 = self.ctx.pool.busy_ns_total();
        let mut stats = EvalStats::default();

        // Create relations; reset IDBs (Algorithm 1 line 2).
        for decl in &prog.relations {
            match self.catalog.lookup(&decl.name) {
                Some(id) => {
                    if self.catalog.rel(id).arity() != decl.arity {
                        return Err(Error::exec(format!(
                            "relation '{}' has arity {}, program expects {}",
                            decl.name,
                            self.catalog.rel(id).arity(),
                            decl.arity
                        )));
                    }
                    if decl.is_idb {
                        self.catalog.reset_for_run(id);
                    }
                }
                None => {
                    self.catalog
                        .create(Schema::with_arity(&decl.name, decl.arity))?;
                }
            }
        }
        // Inline facts load set-wise: a fact already present in its
        // relation is not pushed again, so running the same prepared
        // program repeatedly over one database is idempotent (EDB
        // relations are not reset between runs and would otherwise
        // accumulate one copy of every fact per run). Presence is checked
        // by scanning the stored columns directly — programs hold at most
        // a handful of inline facts, and a scan allocates nothing, unlike
        // materializing a row set of a possibly bulk-loaded relation.
        for (name, vals) in &prog.facts {
            let id = rel_id(&self.catalog, name)?;
            let rel = self.catalog.rel(id);
            let present =
                (0..rel.len()).any(|r| (0..rel.arity()).all(|c| rel.col(c)[r] == vals[c]));
            if !present {
                self.catalog.rel_mut(id).push_row(vals);
            }
        }

        let mut jcache = self.join_cache();

        // Full-R indexes outlive their stratum only to leave the run: each
        // IDB is derived by one stratum, which builds its index on first
        // probe and hands it back here as its last probe left it, for a
        // hand-off below (which syncs it) or none.
        let mut index_carry: FxHashMap<RelId, PersistentIndex> = FxHashMap::default();
        for stratum in &prog.strata {
            let pbme_plan = match self.cfg.pbme {
                PbmeMode::Off => None,
                PbmeMode::Auto | PbmeMode::Force => detect(stratum),
            };
            let mut handled = false;
            if let Some(plan) = pbme_plan {
                handled = self.try_run_pbme(stratum, &plan, &mut stats)?;
            }
            if !handled {
                self.run_stratum(
                    stratum,
                    &mut index_carry,
                    &mut jcache,
                    &mut stats,
                    StratumEntry::Scratch,
                )?;
            }
        }
        // A carrying caller (a materialized view) keeps the indexes alive
        // itself; hand them over instead of publishing.
        if let Some(out) = carry_out {
            self.sync_indexes(&mut index_carry, &mut stats);
            for (rel_id, index) in index_carry.drain() {
                out.insert(self.catalog.rel(rel_id).schema().name.clone(), index);
            }
        }
        // Publish the final full-R indexes of this run's IDB results into
        // the shared cross-run cache (PR 4 follow-up — only worth it once
        // runs are long-lived). Under a query service the results of one
        // program are frequently the frozen inputs of the next (anti-joins
        // and set differences probe them whole-tuple), so the table this
        // run already built keeps amortizing instead of dying with the
        // run. Exclusive runs only: shared-mode results live in a
        // run-local overlay, so their versions name nothing durable.
        if self.cfg.publish_idb_indexes && self.catalog.as_exclusive().is_some() {
            if let Some(cache) = self.cache {
                for (rel_id, index) in index_carry.drain() {
                    let Some(version) = self.catalog.shared_version(rel_id) else {
                        continue;
                    };
                    let key = CacheKey {
                        rel: rel_id,
                        version,
                        cols: index.key_cols().to_vec(),
                    };
                    // Consumers probe the frozen result with a key-ordered
                    // index built from the relation itself. The chained
                    // one only names the key columns, so it is not synced
                    // (it may trail the last merge) and dies with the run.
                    let base = self.catalog.rel(rel_id).view();
                    let out = cache.get_or_build(&key, self.cfg.index_cache_budget_bytes, || {
                        SharedIndex::build(self.ctx, base, key.cols.clone())
                    });
                    stats.index.cache_evictions += out.evicted;
                    if out.built {
                        stats.index.published += 1;
                    }
                }
            }
        }
        drop(index_carry);
        jcache.fold_into(&mut stats);
        drop(jcache);

        // EOST: commit everything once at fixpoint. Only exclusive runs
        // report it: shared-mode results live in the run's overlay and
        // would never have reached the store.
        if self.catalog.as_exclusive().is_some() {
            (stats.io_bytes, stats.io_flushes) = self.io.totals(self.cfg.eost, &self.catalog);
        }
        Ok(self.close(stats, t0, busy0))
    }

    /// The run's join cache, backed by the database's shared cross-run
    /// cache when there is one.
    fn join_cache(&self) -> JoinCache<'d> {
        let shared = self.cache.map(|c| (c, self.cfg.index_cache_budget_bytes));
        JoinCache::new(self.cfg.index_reuse, shared)
    }

    /// Close a run's statistics: wall time since `t0`, pool busy time
    /// since `busy0`, and the catalog's peak footprint.
    fn close(&self, mut stats: EvalStats, t0: Instant, busy0: u64) -> EvalStats {
        stats.total = t0.elapsed();
        stats.busy = Duration::from_nanos(self.ctx.pool.busy_ns_total().saturating_sub(busy0));
        stats.peak_bytes = stats.peak_bytes.max(self.catalog.heap_bytes());
        stats
    }

    /// Attempt PBME on TC/SG-shaped `stratum`: close the IDB's exit rows
    /// ([`Self::pbme_seeds`]) over the edge relation ([`pbme::close`]) and
    /// materialise the matrix into the IDB. Returns false (fall back to
    /// tuples, which evaluate the exit rules again) when the id-domain
    /// check or [`Self::pbme_guard`] refuses it.
    fn try_run_pbme(
        &mut self,
        stratum: &CompiledStratum,
        plan: &PbmePlan,
        stats: &mut EvalStats,
    ) -> Result<bool> {
        let t = Instant::now();
        let Some(edge_id) = self.catalog.lookup(plan.edges()) else {
            return Ok(false);
        };
        let idb_id = rel_id(&self.catalog, plan.idb())?;
        let entry = self.catalog.rel(idb_id);
        let seeds = self.pbme_seeds(stratum, vec![entry.col(0).to_vec(), entry.col(1).to_vec()])?;
        let closure = pbme::close(
            &self.ctx.pool,
            plan,
            pair_cols(self.catalog.rel(edge_id)),
            [&seeds[0], &seeds[1]],
            self.pbme_guard(None),
            stats,
        );
        let Some(closure) = closure else {
            // A refusal's domain scan and sampled walks are PBME's time too.
            stats.phase.pbme += t.elapsed();
            return Ok(false);
        };
        // The closure is the stratum's one iteration, and its boundary.
        recstep_common::fail_point!("eval::fixpoint");
        // Materialize the closure back into the stored relation.
        let (cols, aggs) = matrix_columns(&self.ctx.pool, &closure.matrix, closure.transposed);
        let rel = self.catalog.rel_mut(idb_id);
        rel.clear();
        rel.append_columns_with_aggs(cols, &aggs);
        self.io.dirty(idb_id, self.catalog.rel(idb_id));
        stats.phase.pbme += t.elapsed();
        stats.iterations += 1;
        stats.strata.push(StratumStats {
            idbs: vec![plan.idb().to_string()],
            iterations: 1,
            pbme: true,
        });
        stats.peak_bytes = stats
            .peak_bytes
            .max(self.catalog.heap_bytes() + stats.pbme_matrix_bytes);
        Ok(true)
    }

    /// The rows PBME closes for `stratum` (a [`detect`]ed TC/SG stratum):
    /// `entry`, its IDB's rows at entry, plus its exit subqueries — those
    /// without a ∆ scan — evaluated over the catalog.
    fn pbme_seeds(
        &self,
        stratum: &CompiledStratum,
        mut entry: Vec<Vec<Value>>,
    ) -> Result<Vec<Vec<Value>>> {
        let exits = stratum.idbs[0].subqueries.iter();
        for sq in exits.filter(|sq| sq.delta_scan.is_none()) {
            let overrides = ScanOverrides::default();
            let rows = self.eval_pinned(stratum, sq, &overrides, &SinkMode::Materialize)?;
            append_cols(&mut entry, rows);
        }
        Ok(entry)
    }

    /// The rules [`pbme::close`] checks under the engine's PBME mode:
    /// none under `Force`; under `Auto` the memory-fit rule and the cost
    /// rule against `rows` (`None`: the plan's own estimate). `Off` never
    /// reaches `close`: it matches no plan.
    fn pbme_guard(&self, rows: Option<usize>) -> Guard {
        match self.cfg.pbme {
            PbmeMode::Auto => Guard::Auto {
                budget: self.cfg.mem_budget_bytes,
                rows,
            },
            PbmeMode::Off | PbmeMode::Force => Guard::Force,
        }
    }

    /// Tuple-based evaluation of one stratum (the Algorithm 1 inner loop).
    fn run_stratum(
        &mut self,
        stratum: &CompiledStratum,
        index_carry: &mut FxHashMap<RelId, PersistentIndex>,
        jcache: &mut JoinCache<'_>,
        stats: &mut EvalStats,
        entry: StratumEntry,
    ) -> Result<()> {
        let scratch = matches!(entry, StratumEntry::Scratch);
        // Initialize per-IDB state.
        let mut states: Vec<IdbState> = Vec::with_capacity(stratum.idbs.len());
        for idb in &stratum.idbs {
            let rel_id = self.catalog.lookup(&idb.rel).expect("idb relation exists");
            let rel = self.catalog.rel(rel_id);
            // ∆R of iteration 0: from scratch, everything already in R
            // (its inline facts); re-entering a completed
            // fixpoint, only the rows appended since its recorded start —
            // everything before is the already-converged Old frontier.
            let start = match &entry {
                StratumEntry::Scratch => 0,
                StratumEntry::Seeded(starts) => starts.get(&rel_id).copied().unwrap_or(rel.len()),
            };
            let delta = DeltaBuf::Range(start, rel.len());
            let agg = match &idb.agg {
                None => None,
                Some(shape) if stratum.recursive => {
                    if shape.funcs.len() != 1 {
                        return Err(Error::analysis(format!(
                            "IDB '{}' aggregates {} columns; recursive aggregation supports \
                             exactly one aggregate term per head",
                            idb.rel,
                            shape.funcs.len()
                        )));
                    }
                    let (func, g) = (shape.funcs[0], shape.group_positions.len());
                    let mut map = match self.agg_window(idb, &shape.group_positions, rel) {
                        Some(layout) => ConcurrentMonoMap::with_window(func, g, layout)?,
                        None => ConcurrentMonoMap::new(func, g, rel.len())?,
                    };
                    // Seed from the facts already in R.
                    let mut group = Vec::with_capacity(g);
                    for r in 0..rel.len() {
                        group.clear();
                        group.extend(shape.group_positions.iter().map(|&p| rel.col(p)[r]));
                        map.absorb(&group, rel.col(shape.agg_positions[0])[r]);
                    }
                    // Seeds are pre-existing facts, not this run's ∆.
                    let _ = map.take_improved(Bucket::Unbounded);
                    Some(AggKind::Mono(Box::new(MonoState {
                        map,
                        group_positions: shape.group_positions.clone(),
                        agg_position: shape.agg_positions[0],
                        bucket: if shape.value_order {
                            Bucket::Lowest
                        } else {
                            Bucket::Unbounded
                        },
                    })))
                }
                Some(shape) => {
                    if !rel.is_empty() {
                        return Err(Error::analysis(format!(
                            "aggregated IDB '{}' is defined across strata with non-extremal \
                             aggregation; this engine evaluates such heads in a single stratum",
                            idb.rel
                        )));
                    }
                    Some(AggKind::Plain {
                        group_positions: shape.group_positions.clone(),
                        agg_positions: shape.agg_positions.clone(),
                        funcs: shape.funcs.clone(),
                    })
                }
            };
            let bound = idb
                .subqueries
                .iter()
                .map(|sq| SqBinding::new(&self.catalog, stratum, sq, jcache, None))
                .collect::<Result<_>>()?;
            states.push(IdbState {
                rel_id,
                delta,
                old_len: start,
                dsd: DsdState::new(DSD_ALPHA),
                agg,
                bound,
                full_index: index_carry.remove(&rel_id),
                scratch: SinkScratch::default(),
                spare: Vec::new(),
                tmp_schemas: idb
                    .tmp_names
                    .iter()
                    .map(|name| Schema::with_arity(name.clone(), idb.arity))
                    .collect(),
            });
        }
        bind_distinct_scans(&self.catalog, stratum, &mut states, jcache);

        // The memory budget's live bytes (how OOM is reported honestly):
        // the catalog, the run's own join indexes, the shared cache's
        // resident snapshots, the carried full-R indexes, and what each
        // IDB's state holds across iterations ([`IdbState::heap_bytes`]).
        // Within the loop only the
        // stratum's own IDB relations change in the catalog and nothing
        // touches the carried indexes, so the rest is summed once here and
        // each boundary adds what can move.
        let idb_bytes = |catalog: &RunCatalog<'_>, states: &[IdbState]| {
            states
                .iter()
                .map(|s| catalog.rel(s.rel_id).heap_bytes())
                .sum::<usize>()
        };
        let fixed_bytes = self.catalog.heap_bytes() - idb_bytes(&self.catalog, &states)
            + index_carry
                .values()
                .map(PersistentIndex::heap_bytes)
                .sum::<usize>();

        let mut iterations = 0usize;
        // The paper keeps ∆R of the previous iteration alive while the
        // current iteration's ∆R is being produced ("two temporary tables
        // are created for each idb R", §4): every IDB of the stratum must
        // read the *previous* deltas, so the new ones are staged and
        // swapped in only after the full pass. Row-range deltas make this
        // free — R is append-only until fixpoint, so a previously staged
        // range stays valid while R grows.
        let mut staged: Vec<DeltaBuf> = Vec::with_capacity(stratum.idbs.len());
        let freeze = self.cfg.oof == OofMode::None;
        let mut pass = Pass {
            exit: scratch,
            freeze: freeze && !(scratch && states.iter().all(|s| s.delta.is_empty())),
        };
        loop {
            if self.cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(Error::Cancelled);
            }
            // Fault-injection site for the service's panic-isolation and
            // error-path tests: one boundary per fixpoint iteration.
            recstep_common::fail_point!("eval::fixpoint");
            iterations += 1;
            for (i, idb) in stratum.idbs.iter().enumerate() {
                let delta = self.step_idb(stratum, idb, i, &mut states, jcache, stats, pass)?;
                staged.push(delta);
            }
            pass = Pass {
                exit: false,
                freeze,
            };
            let all_empty = staged.iter().all(DeltaBuf::is_empty);
            // Old moves with ∆ (a row-range ∆ starts where Old ends): a
            // peer stepped later in the pass must not see an earlier IDB's
            // Old grown over the ∆ it also reads as Delta, or every ∆×∆
            // pair would be derived twice. An owned ∆ no peer reads any
            // more lends its columns to the next.
            for (state, new_delta) in states.iter_mut().zip(staged.drain(..)) {
                if let DeltaBuf::Range(start, _) = new_delta {
                    state.old_len = start;
                }
                if let DeltaBuf::Owned(cols) = std::mem::replace(&mut state.delta, new_delta) {
                    state.spare = cols;
                }
            }
            // Memory budget check. Persistent indexes — including the
            // shared cache's resident snapshots — are live state and count
            // against the budget.
            let cache_resident = jcache.shared_resident_bytes();
            let mut live = fixed_bytes
                + idb_bytes(&self.catalog, &states)
                + jcache.heap_bytes()
                + cache_resident
                + states.iter().map(IdbState::heap_bytes).sum::<usize>();
            debug_assert_eq!(
                fixed_bytes + idb_bytes(&self.catalog, &states),
                self.catalog.heap_bytes()
                    + index_carry
                        .values()
                        .map(PersistentIndex::heap_bytes)
                        .sum::<usize>(),
                "only the stratum's own relations change within its fixpoint"
            );
            stats.peak_bytes = stats.peak_bytes.max(live);
            // Running high-water mark: entries dropped later by the
            // stratum's end or a pressure spill must still count toward
            // the run's index peak (fold_into only sees what survived).
            stats.index.bytes_peak = stats
                .index
                .bytes_peak
                .max(jcache.heap_bytes() + cache_resident);
            if live > self.cfg.mem_budget_bytes {
                // Spill the shared index tier before reporting OOM: drop
                // this run's pins (a mid-stratum drop — the next probe
                // misses and rebuilds) and evict cold entries. Shared
                // snapshots are pure caches, so this only trades rebuild
                // time for memory.
                let overrun = live - self.cfg.mem_budget_bytes;
                let target = cache_resident.saturating_sub(overrun);
                live -= jcache.spill_for_pressure(target);
            }
            if live > self.cfg.mem_budget_bytes {
                return Err(Error::exec(format!(
                    "out of memory: {} live > {} budget",
                    live, self.cfg.mem_budget_bytes
                )));
            }
            if !stratum.recursive || all_empty {
                break;
            }
        }
        stats.iterations += iterations;
        jcache.end_stratum();

        // Monotonic aggregated IDBs: rebuild stored relation from the map.
        for (i, idb) in stratum.idbs.iter().enumerate() {
            let state = &mut states[i];
            if let Some(AggKind::Mono(ms)) = &state.agg {
                let cols = head_columns(
                    idb.arity,
                    &ms.group_positions,
                    &[ms.agg_position],
                    ms.map.to_columns(ms.group_positions.len()),
                );
                let rel = self.catalog.rel_mut(state.rel_id);
                rel.clear();
                rel.append_columns(cols);
                // The clear-and-refill reassigned row ids: the full-R
                // index is stale even at equal length.
                state.full_index = None;
                self.io.dirty(state.rel_id, self.catalog.rel(state.rel_id));
            }
        }

        // Hand the full-R indexes back, possibly trailing the last merge,
        // for a hand-off out of the run or the next refresh.
        for state in states {
            if let Some(index) = state.full_index {
                index_carry.insert(state.rel_id, index);
            }
        }

        stats.strata.push(StratumStats {
            idbs: stratum.idbs.iter().map(|i| i.rel.clone()).collect(),
            iterations,
            pbme: false,
        });
        Ok(())
    }

    /// Whether the ∆ stream (the Delta sink) evaluates this IDB. Excluded
    /// are the ablation arms that keep `Rt` materialized: `--no-uie` stages
    /// per-subquery temporaries, `--no-eost` prices a flush of every
    /// temporary, and `--no-index-reuse` has no full-R index to probe.
    /// OOF-FA is *not* excluded: a [`SinkSampler`] attached to the sink
    /// mirrors every offered row, and the statistics pass reads the
    /// reservoir in place of an `Rt` re-scan. Non-recursive strata stream
    /// too: every rule of an IDB runs in its one stratum, so their single
    /// pass dedups across rules at source the same way, as does a
    /// recursive stratum's exit pass. Aggregated heads take the Agg sink instead (see
    /// [`Self::fused_agg_applies`]).
    fn fused_applies(&self, state: &IdbState) -> bool {
        self.cfg.fused_pipeline
            && self.cfg.index_reuse
            && self.cfg.uie
            && self.cfg.eost
            && state.agg.is_none()
    }

    /// Whether group-at-source streaming (the Agg sink) evaluates
    /// aggregated IDBs: every produced row is folded into a concurrent
    /// aggregate state at the probe site, so neither a materialized
    /// pre-aggregation `Rt` nor a full-R probe index is involved. Requires
    /// UIE (per-subquery temp staging would re-materialize the stream) and
    /// EOST (`--no-eost` prices a flush of the temporaries the sink no
    /// longer produces). OOF-FA is *not* excluded: the sink samples the
    /// statistics `analyze(Rt)` needs (reservoir + exact counts) while
    /// rows stream through.
    fn fused_agg_applies(&self) -> bool {
        self.cfg.fused_agg && self.cfg.uie && self.cfg.eost
    }

    /// Direct-addressed window for the group key of aggregated IDB `idb`
    /// stored in `rel` (see [`ConcurrentMonoMap::with_window`]): the union
    /// of the cached min/max bounds of every subquery's group-column
    /// sources — scan columns of the flattened `[scan0 ‖ scan1 ‖ …]`
    /// layout, skipping scans that are not [`frozen_scan`], whose bounds are
    /// still moving — and of the rows already in R. Keys from skipped or
    /// computed sources that land outside it escape to the hashed table,
    /// so the window decides speed, never results.
    fn agg_window(
        &self,
        idb: &CompiledIdb,
        group_positions: &[usize],
        rel: &Relation,
    ) -> Option<KeyLayout> {
        if group_positions.is_empty() {
            return None;
        }
        let mut bounds: Vec<Option<(Value, Value)>> =
            group_positions.iter().map(|&p| rel.col_bounds(p)).collect();
        let mut expected_groups = rel.len();
        for sq in &idb.subqueries {
            for (b, expr) in bounds.iter_mut().zip(&sq.head_exprs) {
                let source = match *expr {
                    Expr::Const(k) => Some((k, k)),
                    Expr::Col(c) => {
                        let (scan, col) = scan_of_column(sq, c);
                        let spec = &sq.scans[scan];
                        let id = self.catalog.lookup(&spec.rel).filter(|_| frozen_scan(spec));
                        id.map(|id| self.catalog.rel(id)).and_then(|src| {
                            expected_groups += src.len();
                            src.col_bounds(col)
                        })
                    }
                    _ => None,
                };
                if let Some((lo, hi)) = source {
                    *b = Some(b.map_or((lo, hi), |(a, z)| (a.min(lo), z.max(hi))));
                }
            }
        }
        let bounds: Vec<(Value, Value)> = bounds.into_iter().collect::<Option<_>>()?;
        ConcurrentMonoMap::window_for(&bounds, expected_groups)
    }

    /// OOF-FA: full statistics of the would-be `Rt` — a streaming sink's
    /// reservoir when there is one, else the materialized `rt` — and of
    /// the updated relation, booked under `phase.analyze`.
    fn analyze_rt(
        &mut self,
        rel_id: RelId,
        sampler: Option<&SinkSampler>,
        rt: &[Vec<Value>],
        stats: &mut EvalStats,
    ) {
        let t_an = Instant::now();
        let sample;
        let rt = match sampler {
            Some(s) => {
                stats.sink_stat_samples += s.sampled();
                sample = s.columns();
                &sample
            }
            None => rt,
        };
        let _ = recstep_storage::stats::analyze_view(
            RelView::over(rt),
            recstep_storage::StatsLevel::Full,
        );
        self.catalog.analyze_full(rel_id);
        stats.phase.analyze += t_an.elapsed();
    }

    /// Append the rows relation `rel_id` gained to its full-R `index`,
    /// booked under `phase.index`.
    fn sync_index(&self, rel_id: RelId, index: &mut PersistentIndex, stats: &mut EvalStats) {
        let t_index = Instant::now();
        let rel = self.catalog.rel(rel_id);
        note_sync(index.append(self.ctx, rel.view()), rel.len(), stats);
        stats.phase.index += t_index.elapsed();
    }

    /// Sync every full-R index in `indexes` with its relation before they
    /// leave the run (a view carries them into its next refresh).
    fn sync_indexes(&self, indexes: &mut FxHashMap<RelId, PersistentIndex>, stats: &mut EvalStats) {
        for (&rel_id, index) in indexes.iter_mut() {
            self.sync_index(rel_id, index, stats);
        }
    }

    /// Relation `rel_id`'s whole-tuple full-R index, built on first use or
    /// synced with the relation, booked under `phase.index`, and the
    /// instant it was ready (where a ∆ stream's pipeline time starts).
    /// Every probe goes through here, and a merge leaves the index
    /// trailing, so this and the hand-offs out of a run
    /// ([`Self::sync_indexes`]) are the only places a full-R index is
    /// built or grown.
    fn full_index<'i>(
        &self,
        rel_id: RelId,
        index: &'i mut Option<PersistentIndex>,
        stats: &mut EvalStats,
    ) -> (&'i mut PersistentIndex, Instant) {
        let t_index = Instant::now();
        let rel = self.catalog.rel(rel_id);
        let index = match index {
            Some(index) => {
                note_sync(index.append(self.ctx, rel.view()), rel.len(), stats);
                index
            }
            None => {
                note_sync(SyncAction::Rebuilt, rel.len(), stats);
                let cols = (0..rel.arity()).collect();
                index.insert(PersistentIndex::build(self.ctx, rel.view(), cols))
            }
        };
        let ready = Instant::now();
        stats.phase.index += ready - t_index;
        (index, ready)
    }

    /// One ∆-stream pass over relation `rel_id`, shared by the Delta sink
    /// of [`Self::step_idb`] and the view seed pass: [`Self::sink_pass`]
    /// into `scratch`, sized for `capacity` rows, against the full-R
    /// `index` (built or synced first), booked under
    /// `phase.pipeline`; every considered row not kept is booked as
    /// skipped at source. On error `index` is left in place. The caller
    /// books `tuples_considered` and merges the fresh rows
    /// ([`Self::merge_delta`]); the next sync's index `append` performs
    /// any one-time hashed rebuild the escapes call for.
    #[allow(clippy::too_many_arguments)]
    fn stream_delta(
        &self,
        rel_id: RelId,
        index: &mut Option<PersistentIndex>,
        scratch: &mut SinkScratch,
        capacity: usize,
        sampler: Option<&SinkSampler>,
        stats: &mut EvalStats,
        eval: impl FnOnce(&Self, &SinkMode<'_>) -> Result<EvalOut>,
    ) -> Result<Streamed> {
        let (index, t_pipe) = self.full_index(rel_id, index, stats);
        let streamed = self.sink_pass(rel_id, index, scratch, capacity, sampler, stats, eval)?;
        let skipped = streamed.considered - streamed.out.cols.first().map_or(0, Vec::len);
        stats.rt_rows_skipped_at_source += skipped;
        stats.rt_bytes_never_materialized += skipped * self.catalog.rel(rel_id).arity() * 8;
        stats.phase.pipeline += t_pipe.elapsed();
        Ok(streamed)
    }

    /// `eval` streams every produced row through a [`DeltaSink`] probing
    /// relation `rel_id`'s synced full-R `index` and keeping its winners in
    /// `scratch` (a table presized for `capacity` rows, or a bit window),
    /// so only rows new w.r.t. `R` and each other come out. The sink's
    /// compact-key escapes are new w.r.t. `R` and the sink's winners (a
    /// tuple fits the packed layout iff each value fits) and are
    /// deduplicated among themselves here.
    #[allow(clippy::too_many_arguments)]
    fn sink_pass(
        &self,
        rel_id: RelId,
        index: &PersistentIndex,
        scratch: &mut SinkScratch,
        capacity: usize,
        sampler: Option<&SinkSampler>,
        stats: &mut EvalStats,
        eval: impl FnOnce(&Self, &SinkMode<'_>) -> Result<EvalOut>,
    ) -> Result<Streamed> {
        let base = self.catalog.rel(rel_id).view();
        let mut sink = DeltaSink::with_scratch(index, base, scratch, capacity);
        if let Some(s) = sampler {
            sink = sink.with_sampler(s);
        }
        let out = eval(self, &SinkMode::Delta(&sink));
        stats.sink_table_doublings += sink.table_doublings();
        stats.sink_windows += usize::from(sink.windowed());
        let mut out = out?;
        let overflow = sink.take_overflow();
        if !overflow.is_empty() {
            let mut seen: FxHashSet<&[Value]> = FxHashSet::default();
            for row in overflow.iter().filter(|row| seen.insert(row.as_slice())) {
                for (col, &v) in out.cols.iter_mut().zip(row) {
                    col.push(v);
                }
            }
        }
        stats.index.scratch_builds += 1;
        Ok(Streamed {
            out,
            considered: sink.considered(),
            scratch_bytes: sink.scratch_bytes(),
        })
    }

    /// `R ← R ⊎ ∆R` for relation `rel_id` (`phase.merge`). A full-R index
    /// over `R` is left trailing: the next probe syncs it
    /// ([`Self::full_index`]), and a non-recursive output that nothing
    /// probes is never indexed. Returns ∆R as the appended row range of
    /// `R`.
    fn merge_delta(
        &mut self,
        rel_id: RelId,
        fresh: Vec<Vec<Value>>,
        stats: &mut EvalStats,
    ) -> (usize, usize) {
        let t_merge = Instant::now();
        let rel = self.catalog.rel_mut(rel_id);
        let start = rel.len();
        rel.append_columns(fresh);
        let end = rel.len();
        stats.phase.merge += t_merge.elapsed();
        self.io.dirty(rel_id, self.catalog.rel(rel_id));
        (start, end)
    }

    /// Group a materialized `Rt` (`[group ‖ aggregate arguments]` layout)
    /// by its first `g` columns, one aggregate per function.
    fn group_rt(&self, rt: &[Vec<Value>], g: usize, funcs: &[AggFunc]) -> Vec<Vec<Value>> {
        let group_exprs: Vec<Expr> = (0..g).map(Expr::Col).collect();
        let aggs: Vec<AggCol> = funcs
            .iter()
            .enumerate()
            .map(|(j, &func)| AggCol {
                func,
                expr: Expr::Col(g + j),
            })
            .collect();
        recstep_exec::agg::group_aggregate(self.ctx, RelView::over(rt), &group_exprs, &aggs)
    }

    /// ∆R of the MIN/MAX head of `state`: the bucket of its dirty list
    /// its value order allows, the rest staying pending, booked under
    /// `phase.aggregate` from `t_agg` (its groups count as improved at
    /// source under the Agg sink, `counted`).
    fn drain_mono(
        &mut self,
        state: &mut IdbState,
        counted: bool,
        t_agg: Instant,
        stats: &mut EvalStats,
    ) -> DeltaBuf {
        let IdbState { agg, spare, .. } = state;
        let Some(AggKind::Mono(ms)) = agg else {
            unreachable!("a MIN/MAX head's state");
        };
        let improved = ms.map.take_improved(ms.bucket);
        let delta = mono_delta(
            std::mem::take(spare),
            &ms.group_positions,
            ms.agg_position,
            improved,
        );
        if counted {
            stats.agg_groups_improved += delta.first().map_or(0, Vec::len);
        }
        stats.agg_groups_deferred += ms.map.deferred();
        stats.phase.aggregate += t_agg.elapsed();
        self.io.temp(RelView::over(&delta));
        DeltaBuf::Owned(delta)
    }

    /// One Algorithm 1 step (lines 8–13) for one IDB: `Rt ← uieval` into
    /// the sink the gates pick, the statistics every sink shares, then that
    /// sink's ∆R tail.
    ///
    /// * `Delta` ([`Self::fused_applies`]): ∆R streams straight out of the
    ///   operators ([`Self::stream_delta`]) and is merged as one append.
    /// * `Agg` ([`Self::fused_agg_applies`]): every row folds into
    ///   aggregate state at the probe site; ∆R is the flush — the strictly
    ///   improved groups of a monotonic head, or every group of a plain
    ///   group-by head.
    /// * `Materialize`: `Rt` is buffered, then handed to the table the
    ///   streaming sink would have fed — grouped and absorbed into the
    ///   monotonic map, or drained through a [`DeltaSink`] against the
    ///   persistent full-R index, sharing that sink's ∆R tail — or grouped
    ///   by a plain group-by pass, or deduplicated and set-differenced
    ///   against `R`.
    ///
    /// Returns the freshly computed ∆R (staged by the caller so peers keep
    /// reading the previous iteration's delta until the pass completes).
    #[allow(clippy::too_many_arguments)]
    fn step_idb(
        &mut self,
        stratum: &CompiledStratum,
        idb: &CompiledIdb,
        idx: usize,
        states: &mut [IdbState],
        jcache: &mut JoinCache<'_>,
        stats: &mut EvalStats,
        pass: Pass,
    ) -> Result<DeltaBuf> {
        let rel_id = states[idx].rel_id;
        let delta_sink = self.fused_applies(&states[idx]);
        let agg_sink = states[idx].agg.is_some() && self.fused_agg_applies();
        let mut bound = idb.subqueries.iter().zip(&states[idx].bound);
        if !bound.any(|(sq, b)| b.runs(sq, &self.catalog, states, pass.exit)) {
            // Nothing to evaluate: no sink, index sync or query. A MIN/MAX
            // head still hands on its next pending bucket.
            let t_agg = Instant::now();
            return Ok(match states[idx].agg {
                Some(AggKind::Mono(_)) => self.drain_mono(&mut states[idx], agg_sink, t_agg, stats),
                _ => {
                    let len = self.catalog.rel(rel_id).len();
                    DeltaBuf::Range(len, len)
                }
            });
        }
        // OOF-FA: a streaming sink samples the would-be `Rt` for the
        // statistics pass.
        let sampler = (self.cfg.oof == OofMode::Full && (delta_sink || agg_sink))
            .then(|| SinkSampler::new(idb.arity, SINK_SAMPLE_CAP));
        // The ∆ stream times itself ([`Self::stream_delta`]).
        let t_eval = (!delta_sink).then(Instant::now);
        // A plain group-by head folds one pass into fresh state: a single
        // MIN/MAX into the CAS-on-best map (windowed when its keys pack
        // compactly), any other aggregate list into sharded partials.
        let plain = match &states[idx].agg {
            Some(AggKind::Plain {
                group_positions,
                funcs,
                ..
            }) if agg_sink => {
                let g = group_positions.len();
                Some(match funcs[..] {
                    [func @ (AggFunc::Min | AggFunc::Max)] if g > 0 => {
                        let rel = self.catalog.rel(rel_id);
                        PlainAgg::Best(match self.agg_window(idb, group_positions, rel) {
                            Some(layout) => ConcurrentMonoMap::with_window(func, g, layout)?,
                            None => ConcurrentMonoMap::new(func, g, 0)?,
                        })
                    }
                    _ => PlainAgg::Group(GroupSink::new(funcs.clone(), g)),
                })
            }
            _ => None,
        };
        let mut full_index = if delta_sink {
            states[idx].full_index.take()
        } else {
            None
        };
        // The ∆ stream's table starts sized for the previous ∆.
        let capacity = states[idx].delta.len();
        let mut scratch = if delta_sink {
            std::mem::take(&mut states[idx].scratch)
        } else {
            SinkScratch::default()
        };

        // --- Rt ← uieval(rules(R, s)), into the chosen sink. ---
        let mut eval = |this: &Self, sink: &SinkMode<'_>| {
            eval_idb(
                this.ctx,
                this.cfg,
                &this.catalog,
                idb,
                states,
                idx,
                jcache,
                sink,
                pass.exit,
            )
        };
        let mut scratch_bytes = 0;
        // The Agg sink's pipeline ends where its aggregation tail starts:
        // one clock read serves both.
        let (out, considered, mut t_agg) = if delta_sink {
            let streamed = self.stream_delta(
                rel_id,
                &mut full_index,
                &mut scratch,
                capacity,
                sampler.as_ref(),
                stats,
                eval,
            );
            states[idx].full_index = full_index;
            states[idx].scratch = scratch;
            let streamed = streamed?;
            scratch_bytes = streamed.scratch_bytes;
            (streamed.out, streamed.considered, None)
        } else if agg_sink {
            let mono = match &states[idx].agg {
                Some(AggKind::Mono(ms)) => Some(&ms.map),
                _ => None,
            };
            let target = match (&plain, mono) {
                (Some(PlainAgg::Best(map)), _) | (None, Some(map)) => AggTarget::Mono(map),
                (Some(PlainAgg::Group(groups)), _) => AggTarget::Group(groups),
                (None, None) => unreachable!("the fused-agg gate admits aggregated heads only"),
            };
            if let AggTarget::Mono(map) = &target {
                stats.agg_dense_sinks += usize::from(map.has_window());
            }
            let doublings = mono.map_or(0, ConcurrentMonoMap::table_doublings);
            let sink = AggSink::new(target, sampler.as_ref());
            let out = eval(self, &SinkMode::Agg(&sink))?;
            let evaluated = Instant::now();
            stats.phase.pipeline += evaluated - t_eval.expect("timed");
            if let Some(map) = mono {
                stats.sink_table_doublings += map.table_doublings() - doublings;
            }
            (out, sink.considered(), Some(evaluated))
        } else {
            let out = eval(self, &SinkMode::Materialize)?;
            stats.phase.eval += t_eval.expect("timed").elapsed();
            let produced = out.cols.first().map_or(0, Vec::len);
            (out, produced, None)
        };

        // --- Statistics every sink shares. ---
        stats.queries_issued += out.queries + 1;
        stats.wcoj_runs += out.tally.wcoj_runs;
        stats.wcoj_rows_emitted += out.tally.wcoj_rows;
        stats.wcoj_rows_direct += out.tally.wcoj_direct;
        stats.intermediate_rows_offered += out.tally.stage_offered;
        stats.intermediate_rows_kept += out.tally.stage_kept;
        stats.sink_windows += out.tally.stage_windows;
        stats.tuples_considered += considered;
        if pass.freeze {
            freeze_choices(&self.catalog, jcache, idb, states, idx);
        }
        if self.cfg.oof == OofMode::Full {
            self.analyze_rt(rel_id, sampler.as_ref(), &out.cols, stats);
            // The analysis books its own time: aggregation starts after it.
            t_agg = None;
        }

        // --- The sink's ∆R tail. ---
        let state = &mut states[idx];
        let materialized = !delta_sink && !agg_sink;
        // ∆R under the Delta sink, `Rt` when materialized, empty under Agg.
        let mut rows = out.cols;
        if materialized {
            // The whole UNION-ALL intermediate was buffered and merged —
            // the cost the streaming sinks eliminate.
            stats.rt_merge_bytes += considered * idb.arity * 8;
            self.io.temp(RelView::over(&rows));
        }
        if agg_sink {
            stats.agg_sink_runs += 1;
            stats.agg_rows_folded_at_source += considered;
        }
        let t_agg = t_agg.unwrap_or_else(Instant::now);
        let (start, end) = match &mut state.agg {
            Some(AggKind::Mono(ms)) => {
                if materialized {
                    // `--no-fused-agg`: group `Rt` in a second pass, then
                    // fold the groups into the map the sink would have fed.
                    let g = ms.group_positions.len();
                    let grouped = self.group_rt(&rows, g, &[ms.map.func()]);
                    let mut group = Vec::with_capacity(g);
                    for r in 0..grouped[g].len() {
                        group.clear();
                        group.extend(grouped[..g].iter().map(|col| col[r]));
                        ms.map.absorb(&group, grouped[g][r]);
                    }
                }
                return Ok(self.drain_mono(state, agg_sink, t_agg, stats));
            }
            Some(AggKind::Plain {
                group_positions,
                agg_positions,
                funcs,
            }) => {
                // The sink's groups, or one group-by pass over `Rt`.
                let grouped = match plain {
                    Some(plain) => plain.into_columns(),
                    None => self.group_rt(&rows, group_positions.len(), funcs),
                };
                let cols = head_columns(idb.arity, group_positions, agg_positions, grouped);
                if agg_sink {
                    stats.agg_groups_improved += cols.first().map_or(0, Vec::len);
                }
                stats.phase.aggregate += t_agg.elapsed();
                self.merge_delta(rel_id, cols, stats)
            }
            None if delta_sink || self.cfg.index_reuse && stratum.recursive => {
                if delta_sink {
                    stats.pipeline_runs += 1;
                } else {
                    // --- `--no-fused-pipeline`: Rδ ← dedup(Rt) and
                    // ∆R ← Rδ − R in one pass, draining `Rt` through the
                    // ∆ stream's sink against the persistent full-R index
                    // (built once for the stratum, synced here with the
                    // previous merge). One query replaces the dedup INSERT
                    // and the difference query of the rebuild path. ---
                    let (index, _) = self.full_index(rel_id, &mut state.full_index, stats);
                    let t_dedup = Instant::now();
                    let identity: Vec<Expr> = (0..idb.arity).map(Expr::Col).collect();
                    let rt = RelView::over(&rows);
                    let drained = self.sink_pass(
                        rel_id,
                        index,
                        &mut state.scratch,
                        considered,
                        None,
                        stats,
                        |this, sink| {
                            Ok(EvalOut {
                                cols: project_filter_sink(this.ctx, rt, &identity, &[], sink),
                                queries: 0,
                                tally: Tally::default(),
                            })
                        },
                    )?;
                    stats.phase.dedup += t_dedup.elapsed();
                    rows = drained.out.cols;
                    scratch_bytes = drained.scratch_bytes;
                }
                // R ← R ⊎ ∆R: one shard append; the next probe syncs the
                // index with it.
                stats.fused_runs += 1;
                let index = state.full_index.as_ref().expect("the sink pass built it");
                let bytes = index.heap_bytes() + scratch_bytes;
                let range = self.merge_delta(rel_id, rows, stats);
                stats.index.bytes_peak = stats.index.bytes_peak.max(bytes);
                stats.peak_bytes = stats.peak_bytes.max(self.catalog.heap_bytes() + bytes);
                range
            }
            None => {
                // --- Rδ ← dedup(Rt) ---
                let t_dedup = Instant::now();
                let budget_rows = self.cfg.mem_budget_bytes / (idb.arity.max(1) * 16);
                // Conservative distinct approximation for table sizing,
                // every OOF mode: min(memory, |Rt|) (paper §5.1).
                let distinct_hint = considered.min(budget_rows);
                let dedup_out = deduplicate(
                    self.ctx,
                    RelView::over(&rows),
                    self.cfg.dedup,
                    distinct_hint,
                );
                drop(rows);
                stats.phase.dedup += t_dedup.elapsed();
                stats.queries_issued += 1;
                stats.index.scratch_builds += dedup_out.tables_built;
                stats.peak_bytes = stats
                    .peak_bytes
                    .max(self.catalog.heap_bytes() + dedup_out.table_bytes);
                let rdelta = dedup_out.cols;
                self.io.temp(RelView::over(&rdelta));

                // --- ∆R ← Rδ − R ---
                let t_diff = Instant::now();
                let full = self.catalog.rel(rel_id).view();
                let builds_before = state.dsd.tables_built;
                let (diff, algo) = set_difference(
                    self.ctx,
                    RelView::over(&rdelta),
                    full,
                    self.cfg.setdiff,
                    &mut state.dsd,
                );
                stats.phase.setdiff += t_diff.elapsed();
                stats.note_setdiff(algo);
                // Every set-difference table is rebuilt from scratch on
                // this path; that per-iteration rebuild is what
                // `index_reuse` eliminates.
                stats.index.full_builds += state.dsd.tables_built - builds_before;
                self.merge_delta(rel_id, diff, stats)
            }
        };
        self.io
            .temp(self.catalog.rel(rel_id).range_view(start, end));
        Ok(DeltaBuf::Range(start, end))
    }
}

/// The inserted and deleted rows an incremental refresh maintains, keyed by
/// relation name.
///
/// Seeded from the commit's *effective* base-relation deltas (set
/// semantics: an insert of an already-present row or a delete of an
/// absent one is no delta at all) and grown with each stratum's net IDB
/// changes as the refresh walks the program top-down — which is what
/// makes downstream strata incremental too.
#[derive(Default)]
pub(crate) struct RefreshDeltas {
    pub(crate) plus: FxHashMap<String, Vec<Vec<Value>>>,
    pub(crate) minus: FxHashMap<String, Vec<Vec<Value>>>,
}

impl RefreshDeltas {
    /// Publish relation `rel`'s net changes to the strata downstream.
    fn publish(&mut self, rel: &str, plus: Vec<Vec<Value>>, minus: Vec<Vec<Value>>) {
        for (side, rows) in [(&mut self.plus, plus), (&mut self.minus, minus)] {
            if !rows.is_empty() {
                side.entry(rel.to_string()).or_default().extend(rows);
            }
        }
    }
}

/// Column-major ∆ batches by relation name.
type Batches = FxHashMap<String, Vec<Vec<Value>>>;

/// How a changed stratum is maintained.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Strategy {
    /// Its inputs only gained tuples.
    Seeded,
    /// Its inputs lost tuples: retract the rows left without a
    /// derivation ([`EvalRun::refresh_deletes`]), then seed from the
    /// inserts.
    Deletion,
}

/// What the passes maintaining one stratum read, built by
/// [`EvalRun::maintenance_inputs`]: the effective ∆ of its inputs (the
/// body relations outside its own IDBs). Every position not pinned to a
/// ∆ batch reads the catalog.
struct Inputs {
    strategy: Strategy,
    /// The changed inputs' inserted and deleted rows.
    plus: Batches,
    minus: Batches,
}

/// What a refresh carries across the strata it maintains.
struct Refresh<'c> {
    /// Full-R indexes by relation, carried between refreshes.
    indexes: FxHashMap<RelId, PersistentIndex>,
    jcache: JoinCache<'c>,
    stats: EvalStats,
}

/// Column-major copy of `rows` (each of `arity` values).
fn cols_from_rows<'r>(
    arity: usize,
    rows: impl IntoIterator<Item = &'r Vec<Value>>,
) -> Vec<Vec<Value>> {
    let rows = rows.into_iter();
    let n = rows.size_hint().0;
    let mut cols: Vec<Vec<Value>> = (0..arity).map(|_| Vec::with_capacity(n)).collect();
    for row in rows {
        for (c, &v) in row.iter().enumerate() {
            cols[c].push(v);
        }
    }
    cols
}

/// Incremental view maintenance: the refresh driver behind
/// [`crate::view::MaterializedView`]. A refresh walks the strata in
/// order, maintaining each changed one — every rule deriving its IDBs —
/// against the deltas accumulated so far with one of two strategies, the
/// same for recursive and non-recursive strata:
///
/// * **∆-seeding** for insert-only changes — every rule runs once per
///   changed scan position through the fused [`DeltaSink`], then a
///   recursive stratum's fixpoint re-enters with ∆ = the fresh rows only
///   ([`StratumEntry::Seeded`]);
/// * **deletion** when an input lost tuples ([`Self::refresh_deletes`])
///   — the stratum's dead set is retracted, and the stratum is then
///   ∆-seeded from the commit's inserts alone. A TC/SG-shaped stratum
///   whose matrix is small beside the view reads its dead set off the
///   PBME closure of its post-commit exit rows ([`Self::matrix_dead`]);
///   any other runs Backward/Forward ([`bf`]), which checks each deletion
///   candidate for a surviving proof (one level deep for a non-recursive
///   stratum).
///
/// Each builds its ∆ batches once ([`Self::maintenance_inputs`],
/// `phase.dedup`); B/F's proof search is booked under `phase.eval`, the
/// closure matrix under `phase.pbme`. Both
/// end in [`Self::refixpoint`]: the pinned pass ([`Self::pinned_pass`])
/// inside a ∆ stream (`phase.pipeline`), the fixpoint re-entry, and the
/// shared tails [`Self::retract`], [`Self::merge_delta`] and
/// [`RefreshDeltas::publish`] (`phase.merge`).
impl EvalRun<'_, '_> {
    /// Evaluate one subquery over the catalog's full relations, overridden
    /// positions reading the given views, with the join cache disabled
    /// (see [`eval_subquery`]): a maintenance pass, or PBME's exit rows.
    fn eval_pinned(
        &self,
        stratum: &CompiledStratum,
        sq: &SubQuery,
        overrides: &ScanOverrides<'_>,
        sink: &SinkMode<'_>,
    ) -> Result<Vec<Vec<Value>>> {
        let mut jcache = JoinCache::new(false, None);
        let bind = SqBinding::new(&self.catalog, stratum, sq, &mut jcache, Some(overrides))?;
        // Maintenance passes are driven per changed scan position and not
        // per evaluation run, so their operator accounting is dropped.
        let mut tally = Tally::default();
        eval_subquery(
            self.ctx,
            self.cfg,
            &self.catalog,
            sq,
            &bind,
            &[],
            &mut jcache,
            Some(overrides),
            sink,
            false,
            &mut tally,
        )
    }

    /// Build the ∆ batches of the inputs of `stratum` that changed, in one
    /// walk over its rule bodies, and the strategy they call for. Returns
    /// `None` when no input changed. Booked under `phase.dedup`.
    fn maintenance_inputs(
        &self,
        stratum: &CompiledStratum,
        deltas: &RefreshDeltas,
        stats: &mut EvalStats,
    ) -> Option<Inputs> {
        let t_dedup = Instant::now();
        let own: FxHashSet<&str> = stratum.idbs.iter().map(|i| i.rel.as_str()).collect();
        let mut scanned: Vec<(&str, usize)> = Vec::new();
        let rules = stratum.idbs.iter().flat_map(|i| &i.subqueries);
        for scan in rules.flat_map(|sq| &sq.scans) {
            let rel = scan.rel.as_str();
            if !own.contains(rel) && !scanned.iter().any(|&(r, _)| r == rel) {
                scanned.push((rel, scan.arity));
            }
        }
        let (mut plus, mut minus) = (Batches::default(), Batches::default());
        for &(rel, arity) in &scanned {
            for (side, batches) in [(&deltas.plus, &mut plus), (&deltas.minus, &mut minus)] {
                if let Some(rows) = side.get(rel).filter(|rows| !rows.is_empty()) {
                    batches.insert(rel.to_string(), cols_from_rows(arity, rows));
                }
            }
        }
        stats.phase.dedup += t_dedup.elapsed();
        if plus.is_empty() && minus.is_empty() {
            return None;
        }
        let strategy = if minus.is_empty() {
            Strategy::Seeded
        } else {
            Strategy::Deletion
        };
        Some(Inputs {
            strategy,
            plus,
            minus,
        })
    }

    /// The one rule-evaluation pass of maintenance: each rule deriving
    /// `idb` of `stratum` (deduplicated by rule — maintenance reads full
    /// views, so a recursive rule's ∆ rewritings are one rule here; an
    /// exit rule has one subquery) is evaluated into `sink` once per body
    /// position whose relation has a batch in `pins`, pinned to it, every
    /// other position reading the catalog. Returns the rows of every
    /// evaluation, appended.
    fn pinned_pass(
        &self,
        stratum: &CompiledStratum,
        idb: &CompiledIdb,
        pins: &Batches,
        sink: &SinkMode<'_>,
    ) -> Result<Vec<Vec<Value>>> {
        let mut out = vec![Vec::new(); idb.arity];
        let mut seen_rules = FxHashSet::default();
        let rules = idb.subqueries.iter();
        for sq in rules.filter(|sq| seen_rules.insert(sq.rule_idx)) {
            for (p, scan) in sq.scans.iter().enumerate() {
                let Some(batch) = pins.get(&scan.rel) else {
                    continue;
                };
                let mut ovr = ScanOverrides::default();
                ovr.insert(p, RelView::over(batch));
                append_cols(&mut out, self.eval_pinned(stratum, sq, &ovr, sink)?);
            }
        }
        Ok(out)
    }

    /// Retract `rows` (possibly none) from relation `rel_id`, whose
    /// contents change this refresh: row ids move, and an equal-sized
    /// delete + append would fool a length-based sync, so its carried
    /// full-R index is dropped. Booked under `phase.merge`.
    fn retract(&mut self, rel_id: RelId, rows: &[Vec<Value>], rs: &mut Refresh<'_>) {
        let t_merge = Instant::now();
        self.catalog.rel_mut(rel_id).delete_rows(rows);
        rs.indexes.remove(&rel_id);
        rs.stats.view.view_tuples_retracted += rows.len() as u64;
        rs.stats.phase.merge += t_merge.elapsed();
    }

    /// Incrementally refresh a completed run's IDB relations after the
    /// given effective base deltas (the IVM tentpole). The catalog must
    /// carry the previous run's results (an overlay pre-seeded via
    /// [`RunCatalog::shared_with`], or the exclusively owned database);
    /// `carry` holds the previous run's full-R indexes by relation name
    /// and is updated in place.
    pub(crate) fn run_refresh(
        &mut self,
        prog: &CompiledProgram,
        deltas: &mut RefreshDeltas,
        carry: &mut FxHashMap<String, PersistentIndex>,
    ) -> Result<EvalStats> {
        let t0 = Instant::now();
        let busy0 = self.ctx.pool.busy_ns_total();
        let mut rs = Refresh {
            indexes: carry
                .drain()
                .filter_map(|(name, index)| Some((self.catalog.lookup(&name)?, index)))
                .collect(),
            jcache: self.join_cache(),
            stats: EvalStats::default(),
        };
        rs.stats.view.view_refreshes = 1;

        for stratum in &prog.strata {
            let Some(inputs) = self.maintenance_inputs(stratum, deltas, &mut rs.stats) else {
                continue;
            };
            match inputs.strategy {
                Strategy::Seeded => {
                    self.refixpoint(stratum, &inputs, FxHashMap::default(), deltas, &mut rs)?
                }
                Strategy::Deletion => self.refresh_deletes(stratum, &inputs, deltas, &mut rs)?,
            }
        }

        self.sync_indexes(&mut rs.indexes, &mut rs.stats);
        for (rel_id, index) in rs.indexes.drain() {
            carry.insert(self.catalog.rel(rel_id).schema().name.clone(), index);
        }
        rs.jcache.fold_into(&mut rs.stats);
        Ok(self.close(rs.stats, t0, busy0))
    }

    /// Both strategies' shared tail: stream the commit's inserts' (`plus`)
    /// derivations for every IDB of `stratum`, each
    /// through its own ∆ stream ([`Self::stream_delta`]) against its
    /// carried full-R index, and append the winners (the sink dedups what
    /// positions reading current full views over-approximate); then
    /// re-enter a recursive stratum's fixpoint with ∆ = the fresh rows (a
    /// non-recursive one is complete after the pass) and publish each
    /// IDB's net change: the rows it gained that were not among its
    /// `dead` (retracted) rows, and the `dead` rows not re-derived.
    fn refixpoint(
        &mut self,
        stratum: &CompiledStratum,
        inputs: &Inputs,
        mut dead: FxHashMap<String, FxHashSet<Vec<Value>>>,
        deltas: &mut RefreshDeltas,
        rs: &mut Refresh<'_>,
    ) -> Result<()> {
        let mut starts = FxHashMap::default();
        let mut seeded = 0;
        for idb in &stratum.idbs {
            let rel_id = rel_id(&self.catalog, &idb.rel)?;
            starts.insert(rel_id, self.catalog.rel(rel_id).len());
            let mut index = rs.indexes.remove(&rel_id);
            let mut scratch = SinkScratch::default();
            let streamed = self.stream_delta(
                rel_id,
                &mut index,
                &mut scratch,
                0,
                None,
                &mut rs.stats,
                |this, sink| {
                    Ok(EvalOut {
                        cols: this.pinned_pass(stratum, idb, &inputs.plus, sink)?,
                        queries: 0,
                        tally: Tally::default(),
                    })
                },
            );
            let appended = streamed.map(|streamed| {
                rs.stats.tuples_considered += streamed.considered;
                let merged = self.merge_delta(rel_id, streamed.out.cols, &mut rs.stats);
                merged.1 - merged.0
            });
            if let Some(index) = index {
                rs.indexes.insert(rel_id, index);
            }
            seeded += appended?;
        }
        let view = &mut rs.stats.view;
        view.view_tuples_seeded += seeded as u64;
        if inputs.strategy == Strategy::Seeded {
            view.view_seeded_strata += 1;
        }
        if stratum.recursive {
            let entry = StratumEntry::Seeded(starts.clone());
            self.run_stratum(
                stratum,
                &mut rs.indexes,
                &mut rs.jcache,
                &mut rs.stats,
                entry,
            )?;
        }
        let t_merge = Instant::now();
        for (rel_id, start) in starts {
            let rel = self.catalog.rel(rel_id);
            let name = rel.schema().name.clone();
            let mut dead = dead.remove(&name).unwrap_or_default();
            let added = rel.range_view(start, rel.len()).to_rows();
            let plus = added.into_iter().filter(|r| !dead.remove(r)).collect();
            deltas.publish(&name, plus, dead.into_iter().collect());
        }
        rs.stats.phase.merge += t_merge.elapsed();
        Ok(())
    }

    /// Maintenance of a stratum whose inputs lost tuples: find its dead set
    /// `D` — the stored IDB rows no derivation from the post-commit
    /// inputs supports — retract it, and ∆-seed the stratum from the
    /// commit's inserts only, which re-derives any retracted row a
    /// same-commit insert proves again. `D` comes from one of two routes:
    ///
    /// * **the closure matrix** ([`Self::matrix_dead`]) when the stratum
    ///   is TC- or SG-shaped and its matrix is small beside the view;
    /// * **Backward/Forward** ([`Self::proof_search`]) otherwise.
    ///
    /// Both give the same `D`. The retraction is booked under
    /// `phase.merge`.
    fn refresh_deletes(
        &mut self,
        stratum: &CompiledStratum,
        inputs: &Inputs,
        deltas: &mut RefreshDeltas,
        rs: &mut Refresh<'_>,
    ) -> Result<()> {
        let dead = match self.matrix_dead(stratum, &mut rs.stats)? {
            Some(dead) => {
                rs.stats.view.view_matrix_strata += 1;
                vec![dead]
            }
            None => {
                let dead = self.proof_search(stratum, inputs, rs)?;
                rs.stats.view.view_bf_strata += 1;
                dead
            }
        };
        let mut dead_sets = FxHashMap::default();
        for (idb, rows) in stratum.idbs.iter().zip(dead) {
            if !rows.is_empty() {
                self.retract(rel_id(&self.catalog, &idb.rel)?, &rows, rs);
                dead_sets.insert(idb.rel.clone(), rows.into_iter().collect());
            }
        }
        self.refixpoint(stratum, inputs, dead_sets, deltas, rs)
    }

    /// The dead set of a PBME-shaped stratum ([`detect`]), read off the
    /// closure matrix: its exit rules, evaluated over the post-commit
    /// catalog ([`Self::pbme_seeds`]; a view holds no inline facts), seed
    /// the TC or SG closure over the post-commit edge relation
    /// ([`pbme::close`]), and every stored row of the IDB whose bit is
    /// clear is dead. No proof search runs and no index is built. Booked
    /// under `phase.pbme`.
    ///
    /// Returns `None`, for Backward/Forward to run, under
    /// [`PbmeMode::Off`], for any other stratum, when an id falls outside
    /// `[0, u32::MAX)`, or when [`Self::pbme_guard`] refuses the matrix:
    /// under `Auto`, the paper's memory-fit rule or the cost rule against
    /// the rows Backward/Forward's propagation index holds
    /// ([`pbme::worth`]`(n, |I| + |E|)`), so a sparse view over many
    /// vertices keeps the proof search.
    fn matrix_dead(
        &self,
        stratum: &CompiledStratum,
        stats: &mut EvalStats,
    ) -> Result<Option<Vec<Vec<Value>>>> {
        let plan = match self.cfg.pbme {
            PbmeMode::Off => None,
            PbmeMode::Auto | PbmeMode::Force => detect(stratum),
        };
        let Some(plan) = plan else {
            return Ok(None);
        };
        let Some(edge_id) = self.catalog.lookup(plan.edges()) else {
            return Ok(None);
        };
        let t = Instant::now();
        let (edges, idb) = (
            self.catalog.rel(edge_id),
            self.catalog.rel(rel_id(&self.catalog, plan.idb())?),
        );
        let guard = self.pbme_guard(Some(idb.len() + edges.len()));
        // The edges' bounds alone fix a lower bound on `n`: a view the
        // guard refuses skips its exit rules.
        let n_edges = (0..2)
            .filter_map(|c| edges.col_bounds(c))
            .map(|(_, max)| usize::try_from(max.saturating_add(1)).unwrap_or(0))
            .max()
            .unwrap_or(0);
        if !guard.admits(n_edges, edges.len(), 0) {
            return Ok(None);
        }
        let seeds = self.pbme_seeds(stratum, vec![Vec::new(); 2])?;
        let closure = pbme::close(
            &self.ctx.pool,
            &plan,
            pair_cols(edges),
            [&seeds[0], &seeds[1]],
            guard,
            stats,
        );
        let dead = closure.map(|closure| {
            let (x, y) = (idb.col(0), idb.col(1));
            (0..idb.len())
                .filter(|&r| !closure.contains(x[r], y[r]))
                .map(|r| vec![x[r], y[r]])
                .collect()
        });
        stats.phase.pbme += t.elapsed();
        Ok(dead)
    }

    /// Backward/Forward ([`bf`]): every deletion candidate of `stratum` is
    /// checked for a surviving proof, and the unproved ones, per IDB, are
    /// its dead set. The search is booked under `phase.eval`.
    fn proof_search(
        &mut self,
        stratum: &CompiledStratum,
        inputs: &Inputs,
        rs: &mut Refresh<'_>,
    ) -> Result<Vec<Vec<Vec<Value>>>> {
        let mut full = Vec::with_capacity(stratum.idbs.len());
        for idb in &stratum.idbs {
            let rel_id = rel_id(&self.catalog, &idb.rel)?;
            let mut index = rs.indexes.remove(&rel_id);
            self.full_index(rel_id, &mut index, &mut rs.stats);
            full.push((rel_id, index.expect("full_index fills the slot")));
        }
        let t_eval = Instant::now();
        let matcher = bf::Matcher::new(self.ctx, &self.catalog, stratum, &full, &inputs.minus);
        let dead = matcher.map(|m| {
            let (dead, builds) = bf::BackwardForward::new(m).run();
            rs.stats.index.join_builds += builds;
            dead
        });
        rs.stats.phase.eval += t_eval.elapsed();
        rs.indexes.extend(full);
        dead
    }
}

/// Book one full-R index build, append or rebuild under
/// [`EvalStats::index`] (`rows`: the relation's length, which a build or
/// rebuild inserts).
fn note_sync(action: SyncAction, rows: usize, stats: &mut EvalStats) {
    match action {
        SyncAction::Reused => {}
        SyncAction::Appended(n) => {
            stats.index.full_appends += 1;
            stats.index.append_rows += n;
        }
        SyncAction::Rebuilt => {
            stats.index.full_builds += 1;
            stats.index.build_rows += rows;
        }
    }
}

/// ∆R of a monotonic head in head layout, written into the emptied
/// columns `cols`: one row per improved group of `improved`, flattened as
/// `[group ‖ best]` rows, the group values at `group_positions` and the
/// best at `agg_position`.
fn mono_delta(
    mut cols: Vec<Vec<Value>>,
    group_positions: &[usize],
    agg_position: usize,
    improved: &[Value],
) -> Vec<Vec<Value>> {
    let g = group_positions.len();
    cols.resize_with(g + 1, Vec::new);
    for (i, &pos) in group_positions.iter().chain([&agg_position]).enumerate() {
        cols[pos].clear();
        cols[pos].extend(improved.iter().skip(i).step_by(g + 1));
    }
    cols
}

/// Place grouped columns (`[group ‖ aggregates]`) at their head positions.
fn head_columns(
    arity: usize,
    group_positions: &[usize],
    agg_positions: &[usize],
    grouped: Vec<Vec<Value>>,
) -> Vec<Vec<Value>> {
    let mut cols = vec![Vec::new(); arity];
    for (&pos, col) in group_positions.iter().chain(agg_positions).zip(grouped) {
        cols[pos] = col;
    }
    cols
}

/// Append column-major rows `src` to `dst` (moving the first batch).
fn append_cols(dst: &mut [Vec<Value>], src: Vec<Vec<Value>>) {
    for (dst, mut src) in dst.iter_mut().zip(src) {
        if dst.is_empty() {
            *dst = src;
        } else {
            dst.append(&mut src);
        }
    }
}

/// A binary relation's two columns, as [`pbme::close`] takes them.
fn pair_cols(rel: &Relation) -> [&[Value]; 2] {
    [rel.col(0), rel.col(1)]
}

/// Whether `scan` reads a relation frozen for its stratum: an EDB or a
/// lower stratum's finished IDB (the planner's `Base`), never one of the
/// stratum's own IDBs. The one rule behind a join build side's layout
/// ([`JoinCache`]), the direction rule and [`EvalRun::agg_window`].
fn frozen_scan(scan: &ScanSpec) -> bool {
    scan.version == AtomVersion::Base
}

/// Record first-iteration build-side choices (OOF-NA freezing).
fn freeze_choices(
    catalog: &RunCatalog<'_>,
    jcache: &JoinCache<'_>,
    idb: &CompiledIdb,
    states: &[IdbState],
    idx: usize,
) {
    // The direction rule, else sizes as of this iteration, decide once
    // and are kept.
    for (sq, bind) in idb.subqueries.iter().zip(&states[idx].bound) {
        for (ji, join) in bind.joins.iter().enumerate() {
            if join.frozen.get().is_none() {
                let choice = direction(jcache, catalog, sq, join).unwrap_or_else(|| {
                    let left_rows = (0..=ji)
                        .map(|i| bind.rows(i, catalog, states))
                        .max()
                        .unwrap_or(0);
                    left_rows <= bind.rows(ji + 1, catalog, states)
                });
                join.frozen.set(Some(choice));
            }
        }
    }
}

/// The direction rule for a join of `sq`, decided on its first use
/// ([`frozen_build_side`]).
fn direction(
    jcache: &JoinCache<'_>,
    catalog: &RunCatalog<'_>,
    sq: &SubQuery,
    join: &JoinBinding,
) -> Option<bool> {
    *join
        .rule
        .get_or_init(|| frozen_build_side(jcache, catalog, sq, join))
}

/// The direction rule: the build side of `join`, a join of `sq`, when
/// exactly one input is a cacheable frozen relation and building on it is
/// free over the stratum — `sq` has a ∆ scan (the index then serves every
/// pass, probed by each ∆) or the index is already resident. An exit
/// subquery runs once. `None` leaves the choice to sizes.
fn frozen_build_side(
    jcache: &JoinCache<'_>,
    catalog: &RunCatalog<'_>,
    sq: &SubQuery,
    join: &JoinBinding,
) -> Option<bool> {
    let (build_left, slot) = frozen_side(join)?;
    (sq.delta_scan.is_some() || jcache.resident(catalog, slot)).then_some(build_left)
}

/// The input of `join` that is a cacheable frozen relation, when exactly
/// one is: whether it is the left one, and its frozen slot.
fn frozen_side(join: &JoinBinding) -> Option<(bool, usize)> {
    let frozen = |slot| match slot {
        Some(Slot::Frozen(s)) => Some(s),
        _ => None,
    };
    match (frozen(join.left), frozen(join.right)) {
        (Some(s), None) => Some((true, s)),
        (None, Some(s)) => Some((false, s)),
        _ => None,
    }
}

/// Bind the distinct exit scans of `stratum`. A subquery without a ∆ scan
/// whose one scan reads a strict subset of its columns
/// ([`SubQuery::scan_live`]) derives the same head rows from one row per
/// distinct value of them, which the key-ordered index on those columns
/// lists ([`OrderedIndex::first_rows`]). It reads that list when the
/// index costs it nothing: a ∆ subquery of the stratum builds it by the
/// direction rule ([`frozen_side`]), or it is resident when the exit
/// subquery runs. A disabled join cache (`--no-index-reuse`, maintenance
/// passes) binds none.
fn bind_distinct_scans(
    catalog: &RunCatalog<'_>,
    stratum: &CompiledStratum,
    states: &mut [IdbState],
    jcache: &mut JoinCache<'_>,
) {
    if !jcache.enabled {
        return;
    }
    let mut built = Vec::new();
    for (idb, state) in stratum.idbs.iter().zip(&*states) {
        for (sq, bind) in idb.subqueries.iter().zip(&state.bound) {
            if sq.delta_scan.is_some() {
                let sides = bind.joins.iter().filter_map(frozen_side);
                built.extend(sides.map(|(_, slot)| slot));
            }
        }
    }
    for (idb, state) in stratum.idbs.iter().zip(states) {
        for (sq, bind) in idb.subqueries.iter().zip(&mut state.bound) {
            let (None, Some(live), [scan]) = (sq.delta_scan, &sq.scan_live, &sq.scans[..]) else {
                continue;
            };
            if let Some(rel) = catalog.lookup(&scan.rel).filter(|_| frozen_scan(scan)) {
                let slot = reserve(&mut jcache.frozen, rel, live);
                bind.distinct = Some((slot, built.contains(&slot)));
            }
        }
    }
}

/// The scan of `sq` holding column `c` of the flattened layout, and the
/// column's position within that scan.
fn scan_of_column(sq: &SubQuery, mut c: usize) -> (usize, usize) {
    for (i, scan) in sq.scans.iter().enumerate() {
        if c < scan.arity {
            return (i, c);
        }
        c -= scan.arity;
    }
    unreachable!("flattened column beyond the subquery's width")
}

/// Operator accounting carried out of subquery evaluation (folded into
/// [`EvalStats`] by [`EvalRun::step_idb`]).
#[derive(Default, Clone, Copy)]
struct Tally {
    /// Subqueries dispatched to the generic join.
    wcoj_runs: usize,
    /// Rows its leaf enumeration emitted into the sink, pre-dedup.
    wcoj_rows: usize,
    /// Of those, rows materialized without the sink because they were
    /// provably distinct and new.
    wcoj_direct: usize,
    /// Rows the deduplicated chain stages were offered.
    stage_offered: usize,
    /// Rows they kept (materialized for the next join).
    stage_kept: usize,
    /// Those stages whose values were kept in a bit window.
    stage_windows: usize,
}

/// Output of [`eval_idb`].
struct EvalOut {
    /// Materializing: the UNION ALL of the subquery outputs (`Rt`,
    /// pre-aggregation layout). With a [`DeltaSink`]: the fresh rows only
    /// — already deduplicated across subqueries and subtracted from `R`.
    /// With an [`AggSink`]: empty — every row was folded into the sink's
    /// aggregate state at the probe site.
    cols: Vec<Vec<Value>>,
    /// Backend queries the evaluation cost (UIE batches them into one).
    queries: usize,
    /// Operator accounting across the IDB's subqueries.
    tally: Tally,
}

/// Evaluate all subqueries of one IDB.
///
/// With a `Delta` sink, every subquery's final operator streams its rows
/// through it, so the union below concatenates *disjoint fresh* row sets
/// (the shared scratch table dedups across rules at source); with an
/// `Agg` sink the rows are folded into concurrent aggregate state and the
/// union stays empty; `Materialize` is Algorithm 1's `uieval`.
#[allow(clippy::too_many_arguments)]
fn eval_idb(
    ctx: &ExecCtx,
    cfg: &Config,
    catalog: &RunCatalog<'_>,
    idb: &CompiledIdb,
    states: &[IdbState],
    idx: usize,
    jcache: &mut JoinCache<'_>,
    sink: &SinkMode<'_>,
    exit_pass: bool,
) -> Result<EvalOut> {
    let out_arity = idb.arity;
    // Filled by the first subquery that runs.
    let mut unioned: Vec<Vec<Value>> = Vec::new();
    let mut queries = 0usize;
    let mut tally = Tally::default();
    // Subqueries with no ∆ scan (exit rules) run on the exit pass only:
    // later passes would re-derive what it derived, and on a seeded
    // re-entry the maintenance seed pass already streamed them — skipping
    // them is what makes a small-delta refresh cost |∆|-ish, not |R|-ish.
    // A ∆ subquery whose ∆ is empty derives nothing and is skipped too.
    let bound = &states[idx].bound;
    let runs = |si: usize| bound[si].runs(&idb.subqueries[si], catalog, states, exit_pass);
    let sole = (0..idb.subqueries.len()).filter(|&si| runs(si)).count() == 1;
    for (si, sq) in idb.subqueries.iter().enumerate() {
        if !runs(si) {
            continue;
        }
        let cols = eval_subquery(
            ctx,
            cfg,
            catalog,
            sq,
            &states[idx].bound[si],
            states,
            jcache,
            None,
            sink,
            sole,
            &mut tally,
        )?;
        if cfg.uie {
            // One unified query: results land in a single output buffer.
            // The first subquery's columns are moved, not copied.
            if unioned.is_empty() {
                unioned = cols;
            } else {
                append_cols(&mut unioned, cols);
            }
        } else {
            // Individual evaluation: materialize a per-subquery temp table,
            // then merge — the extra query + copy of Figure 4 (left).
            let mut tmp = Relation::new(states[idx].tmp_schemas[si].clone());
            tmp.append_columns(cols);
            unioned.resize_with(out_arity, Vec::new);
            for (c, dst) in unioned.iter_mut().enumerate() {
                dst.extend_from_slice(tmp.col(c));
            }
            queries += 2; // the INSERT plus its merge leg
        }
    }
    if cfg.uie {
        queries += 1;
    }
    unioned.resize_with(out_arity, Vec::new);
    Ok(EvalOut {
        cols: unioned,
        queries,
        tally,
    })
}

/// Per-scan-position view replacements for incremental-maintenance passes
/// (see [`eval_subquery`]'s `overrides` parameter).
type ScanOverrides<'v> = FxHashMap<usize, RelView<'v>>;

/// Evaluate one subquery to its head layout.
///
/// `sink` applies only to the subquery's *final* operator — the one
/// projecting to the head layout. Intermediate join results feed the next
/// join, not `Rt`: under a `Delta` sink a step with a planner live set
/// ([`recstep_datalog::plan::JoinStep::live`]) streams through a
/// [`DistinctSink`] on those columns, so only one row per distinct live
/// value materializes; every other intermediate is UNION ALL.
///
/// With `overrides`, the subquery is evaluated as a *maintenance pass*:
/// an overridden scan position reads the given view instead of its
/// compiled source, and every un-overridden position reads the catalog's
/// full relation by name — the Base/Full/Delta/Old version annotation is
/// ignored (maintenance passes carry no per-stratum delta state). The
/// join cache must be disabled for such calls: a cached build side would
/// serve the catalog's rows for an overridden position.
///
/// `sole` says this subquery is the only one feeding `sink` in this pass;
/// maintenance passes never claim it.
#[allow(clippy::too_many_arguments)]
fn eval_subquery<'a>(
    ctx: &ExecCtx,
    cfg: &Config,
    catalog: &'a RunCatalog<'_>,
    sq: &SubQuery,
    bind: &SqBinding,
    states: &'a [IdbState],
    jcache: &mut JoinCache<'_>,
    overrides: Option<&ScanOverrides<'a>>,
    sink: &SinkMode<'_>,
    sole: bool,
    tally: &mut Tally,
) -> Result<Vec<Vec<Value>>> {
    debug_assert!(
        overrides.is_none() || !jcache.enabled,
        "maintenance passes must run with the join cache disabled"
    );
    // A distinct exit scan reads one row per key of its live columns off
    // the frozen index a ∆ subquery builds anyway, or one already resident.
    let distinct_rows = match bind.distinct {
        Some((slot, built)) if built || jcache.resident(catalog, slot) => {
            Some(jcache.first_rows(ctx, catalog, slot))
        }
        _ => None,
    };
    let source_of = |i: usize| match &distinct_rows {
        Some(index) if i == 0 => index.index().first_rows(),
        _ => bind.view(i, catalog, states, overrides),
    };
    let materialize = &SinkMode::Materialize;
    // The flattened row's identity projection, built on first use: its
    // first `w` columns serve any stage or filtered scan of width `w`.
    let identity_cell = OnceCell::new();
    let identity = |w: usize| -> &[Expr] {
        &identity_cell.get_or_init(|| (0..sq.width).map(Expr::Col).collect::<Vec<_>>())[..w]
    };
    // Materialize filtered scans; untouched scans stay zero-copy views
    // (and a body without filters allocates no list).
    let filtered: Vec<Option<Vec<Vec<Value>>>> = if sq.scans.iter().any(|s| !s.filters.is_empty()) {
        let filter = |(i, scan): (usize, &ScanSpec)| {
            (!scan.filters.is_empty()).then(|| {
                let output = identity(scan.arity);
                project_filter_sink(ctx, source_of(i), output, &scan.filters, materialize)
            })
        };
        sq.scans.iter().enumerate().map(filter).collect()
    } else {
        Vec::new()
    };
    let view_of = |i: usize| -> RelView<'_> {
        match filtered.get(i) {
            Some(Some(cols)) => RelView::over(cols),
            _ => source_of(i),
        }
    };

    // Cyclic bodies: walk all scans at once as a variable-ordered generic
    // join (worst-case optimal) instead of a chain of binary joins, so no
    // 2-path-shaped intermediate ever materializes. The planner attaches
    // the plan at compile time; the flag picks at run time, which lets one
    // compiled program serve both ablation arms. Eligibility guarantees
    // empty per-scan filters and no negations, so the plain body path
    // below is fully subsumed.
    if cfg.wcoj {
        if let Some(wp) = &sq.wcoj {
            let mut views = Vec::with_capacity(sq.scans.len());
            for i in 0..sq.scans.len() {
                views.push(view_of(i));
            }
            // Same width-accurate materialization cap as the join chain:
            // the producer stops emitting past it and the post-check turns
            // the truncation into an out-of-memory error.
            let mut capped = ctx.clone();
            capped.row_cap = (cfg.mem_budget_bytes / (sq.head_exprs.len().max(1) * 8)).max(1);
            let spec = WcojSpec {
                levels: wp.levels,
                scan_cols: &wp.scan_cols,
                level_scans: &wp.level_scans,
                level_slots: &wp.level_slots,
                width: sq.width,
                output: &sq.head_exprs,
                residual: &sq.residual,
            };
            // Distinct elimination: a head keeping every variable
            // projects the walk's distinct bindings to distinct rows. When
            // the sink has nothing to subtract, samples nothing and has
            // no other producer, its table could only copy them: the rows
            // materialize directly and are booked as considered.
            let direct = sole
                && wp.distinct_head
                && matches!(sink, SinkMode::Delta(s) if s.filters_only_duplicates());
            let walk_sink = if direct { materialize } else { sink };
            let (cols, emitted) = wcoj_sink(&capped, &views, &spec, walk_sink);
            tally.wcoj_runs += 1;
            tally.wcoj_rows += emitted;
            let rows = cols.first().map_or(0, Vec::len);
            if direct {
                sink.note_considered(rows);
                tally.wcoj_direct += rows;
            }
            let bytes = cols.iter().map(|c| c.len() * 8).sum::<usize>();
            if rows >= capped.row_cap || bytes > cfg.mem_budget_bytes {
                return Err(Error::exec(format!(
                    "out of memory: WCOJ output {rows} rows / {bytes} bytes exceed budget {}",
                    cfg.mem_budget_bytes
                )));
            }
            return Ok(cols);
        }
    }

    let has_neg = !sq.negations.is_empty();

    // Positive join chain.
    let mut acc: Vec<Vec<Value>>;
    if sq.scans.len() == 1 {
        let (output, stage_sink) = if has_neg {
            (identity(sq.width), materialize)
        } else {
            (sq.head_exprs.as_slice(), sink)
        };
        acc = project_filter_sink(ctx, view_of(0), output, &sq.residual, stage_sink);
    } else {
        acc = Vec::new();
        let mut width = sq.scans[0].arity;
        for (ji, join) in sq.joins.iter().enumerate() {
            let right = view_of(ji + 1);
            let left_is_first = ji == 0;
            let last = ji == sq.joins.len() - 1;
            let out_width = width + sq.scans[ji + 1].arity;
            let (output, residual) = if last && !has_neg {
                (sq.head_exprs.as_slice(), sq.residual.as_slice())
            } else if last {
                (identity(out_width), sq.residual.as_slice())
            } else {
                (identity(out_width), &[][..])
            };
            let left_view = if left_is_first {
                view_of(0)
            } else {
                RelView::over(&acc)
            };
            // Width-accurate materialization cap for this join's output:
            // producers stop emitting past it and the post-check below
            // converts the truncation into an out-of-memory error. (With a
            // delta sink only fresh rows materialize, so the cap governs
            // exactly what occupies memory.)
            let mut capped = ctx.clone();
            capped.row_cap = (cfg.mem_budget_bytes / (output.len().max(1) * 8)).max(1);
            let ctx = &capped;
            // Set semantics downstream (a `Delta` sink): keep one row per
            // distinct live value; the cap then counts survivors only. A
            // live column's values come from one scan column, whose
            // source's cached bounds cover them (a filter only narrows).
            // The stage's window or table is the bound join's, kept from
            // pass to pass.
            let bound = &bind.joins[ji];
            let mut stage_scratch = bound.distinct.borrow_mut();
            let distinct = match (&join.live, sink) {
                (Some(live), SinkMode::Delta(_)) if !last => {
                    let bounds: Option<Vec<(Value, Value)>> = live
                        .iter()
                        .map(|&c| {
                            let (scan, col) = scan_of_column(sq, c);
                            source_of(scan).cached_bounds(col)
                        })
                        .collect();
                    let rows = left_view.len() + right.len();
                    let scratch = &mut *stage_scratch;
                    Some(DistinctSink::new(live, bounds.as_deref(), rows, scratch))
                }
                _ => None,
            };
            let distinct_mode = distinct.as_ref().map(SinkMode::Distinct);
            let stage_sink = if last && !has_neg {
                sink
            } else {
                distinct_mode.as_ref().unwrap_or(materialize)
            };
            if join.left_keys.is_empty() {
                acc = cross_join_sink(ctx, left_view, right, output, residual, stage_sink);
            } else {
                // OOF: the direction rule, else the build side from
                // current sizes (Selective / Full), or the frozen
                // first-iteration choice (None).
                let by_cost = || {
                    direction(jcache, catalog, sq, bound).unwrap_or(left_view.len() <= right.len())
                };
                let build_left = match cfg.oof {
                    OofMode::None => bound.frozen.get().unwrap_or_else(by_cost),
                    _ => by_cost(),
                };
                let spec = JoinSpec {
                    left_keys: &join.left_keys,
                    right_keys: &join.right_keys,
                    build_left,
                    output,
                    residual,
                };
                // Serve the build side from the run's cache when it is an
                // unfiltered catalog relation: key-ordered if frozen,
                // chained (built once, appended as it grows) if it is one
                // of the stratum's own IDBs.
                let (build_view, probe_view, probe_cols, slot) = if build_left {
                    (left_view, right, &join.right_keys, bound.left)
                } else {
                    (right, left_view, &join.left_keys, bound.right)
                };
                acc = match slot {
                    Some(Slot::Frozen(slot)) if !left_view.is_empty() && !right.is_empty() => {
                        jcache.frozen_probes += 1;
                        let index = jcache.frozen_index(ctx, catalog, slot);
                        index_join_sink(ctx, probe_view, index, &spec, stage_sink)
                    }
                    Some(Slot::Growing(slot)) if !left_view.is_empty() && !right.is_empty() => {
                        let index =
                            jcache.growing_index(ctx, catalog, slot, probe_view, probe_cols);
                        chained_join_sink(ctx, probe_view, index, build_view, &spec, stage_sink)
                    }
                    _ => hash_join_sink(ctx, left_view, right, &spec, stage_sink),
                };
            }
            // Intermediate materialization must respect the memory budget
            // (the paper's OOM failures on dense graphs come from exactly
            // these join intermediates). Producers stop emitting once they
            // reach ctx.row_cap, so an output at the cap means (possible)
            // truncation: report out-of-memory rather than continuing with
            // partial results.
            let rows = acc.first().map_or(0, Vec::len);
            if let Some(d) = &distinct {
                tally.stage_offered += d.considered();
                tally.stage_kept += rows;
                tally.stage_windows += usize::from(d.windowed());
            }
            let bytes = acc.iter().map(|c| c.len() * 8).sum::<usize>();
            if rows >= ctx.row_cap || bytes > cfg.mem_budget_bytes {
                return Err(Error::exec(format!(
                    "out of memory: intermediate {rows} rows / {bytes} bytes exceed budget {}",
                    cfg.mem_budget_bytes
                )));
            }
            width = out_width;
        }
    }

    // Negations as anti joins; the last one projects to the head.
    for (ni, (neg, &(neg_rel, slot))) in sq.negations.iter().zip(&bind.negs).enumerate() {
        let base = catalog.rel(neg_rel).view();
        let neg_filtered;
        let neg_view = if neg.filters.is_empty() {
            base
        } else {
            let identity: Vec<Expr> = (0..neg.arity).map(Expr::Col).collect();
            neg_filtered = project_filter_sink(ctx, base, &identity, &neg.filters, materialize);
            RelView::over(&neg_filtered)
        };
        let last = ni == sq.negations.len() - 1;
        let (output, stage_sink) = if last {
            (sq.head_exprs.as_slice(), sink)
        } else {
            (identity(sq.width), materialize)
        };
        let acc_view = RelView::over(&acc);
        // Under stratified negation a negated atom reads a lower stratum
        // (`Base`): frozen, so its unfiltered relation is served from a
        // key-ordered index like any frozen join build side.
        acc = match slot {
            Some(slot) if !acc_view.is_empty() && !neg_view.is_empty() => {
                let index = jcache.frozen_index(ctx, catalog, slot);
                index_anti_join_sink(ctx, acc_view, &neg.left_keys, index, output, stage_sink)
            }
            _ => anti_join_sink(
                ctx,
                acc_view,
                neg_view,
                &neg.left_keys,
                &neg.right_keys,
                output,
                stage_sink,
            ),
        };
    }
    Ok(acc)
}

/// Relation `name`'s id in `catalog`.
fn rel_id(catalog: &RunCatalog<'_>, name: &str) -> Result<RelId> {
    catalog
        .lookup(name)
        .ok_or_else(|| Error::exec(format!("unknown relation '{name}'")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, Engine};

    /// A run over `catalog` with `engine`'s config and context.
    fn run_over<'e, 'd>(engine: &'e Engine, catalog: RunCatalog<'d>) -> EvalRun<'e, 'd> {
        let (cfg, ctx) = engine.parts();
        EvalRun {
            cfg,
            ctx,
            catalog,
            cache: None,
            cancel: None,
            io: IoLedger::default(),
        }
    }

    /// A carrying run whose TC stratum PBME refills hands back no full-R
    /// index over the exit rows alone, so an insert refresh over what it
    /// carried appends no duplicate and matches the closure.
    #[test]
    fn a_carrying_pbme_run_hands_back_no_stale_index() {
        let engine =
            Engine::from_config(Config::default().threads(2).pbme(PbmeMode::Force)).unwrap();
        let prog = engine
            .prepare("tc(x, y) :- arc(x, y).\ntc(x, y) :- tc(x, z), arc(z, y).")
            .unwrap();
        let mut db = Database::new().unwrap();
        db.load_edges("arc", &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut carry = FxHashMap::default();
        let mut run = run_over(&engine, RunCatalog::shared(db.catalog()));
        let stats = run.run_carry(prog.compiled(), &mut carry).unwrap();
        assert!(
            stats.strata.iter().any(|s| s.pbme),
            "PBME took the TC stratum"
        );
        for (name, index) in &carry {
            let rel = run.catalog.rel(rel_id(&run.catalog, name).unwrap());
            assert_eq!(index.rows(), rel.len(), "carried '{name}' trails it");
        }
        let overlay = run.catalog.into_overlay().unwrap();

        // The shortcut re-derives tc(0,2) and tc(0,3), which only an index
        // over the whole closure knows are already there.
        db.load_edges("arc", &[(0, 2), (3, 4)]).unwrap();
        let mut deltas = RefreshDeltas::default();
        deltas
            .plus
            .insert("arc".into(), vec![vec![0, 2], vec![3, 4]]);
        let mut run = run_over(&engine, RunCatalog::shared_with(db.catalog(), overlay));
        run.run_refresh(prog.compiled(), &mut deltas, &mut carry)
            .unwrap();
        let mut rows = run
            .catalog
            .rel(rel_id(&run.catalog, "tc").unwrap())
            .to_rows();
        rows.sort();
        let want: Vec<Vec<Value>> = (0..5)
            .flat_map(|a| (a + 1..5).map(move |b| vec![a, b]))
            .collect();
        assert_eq!(rows, want);
    }
}
