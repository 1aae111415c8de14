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

use std::sync::Arc;
use std::time::{Duration, Instant};

use recstep_common::hash::{FxHashMap, FxHashSet};
use recstep_common::lang::{AggFunc, Expr};
use recstep_common::sched::CancelToken;
use recstep_common::{Error, Result, Value};
use recstep_datalog::plan::{
    AtomVersion, CompiledIdb, CompiledProgram, CompiledStratum, ScanSpec, SubQuery,
};
use recstep_exec::agg::{AggCol, ConcurrentMonoMap, GroupSink};
use recstep_exec::cache::{CacheKey, IndexCache};
use recstep_exec::chain::ChainTable;
use recstep_exec::dedup::deduplicate;
use recstep_exec::index::{PersistentIndex, SharedIndex, SyncAction};
use recstep_exec::join::{
    anti_join_prebuilt_sink, anti_join_sink, cross_join_sink, hash_join_prebuilt_sink,
    hash_join_sink, project_filter, project_filter_sink, JoinSpec,
};
use recstep_exec::key::{bounds_of, KeyLayout, KeyMode};
use recstep_exec::setdiff::{set_difference, DsdState};
use recstep_exec::sink::{AggSink, AggTarget, DeltaSink, DistinctSink, SinkMode, SinkSampler};
use recstep_exec::view::SupportTable;
use recstep_exec::wcoj::{wcoj_sink, WcojSpec};
use recstep_exec::ExecCtx;
use recstep_storage::{RelId, RelView, Relation, RunCatalog, Schema};

use crate::config::{Config, OofMode, PbmeMode};
use crate::pbme::{detect, fits_budget, matrix_columns, PbmePlan};
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
    /// Separately materialized rows (recursive aggregation).
    Owned(Relation),
}

impl DeltaBuf {
    fn len(&self) -> usize {
        match self {
            DeltaBuf::Range(a, b) => b - a,
            DeltaBuf::Owned(r) => r.len(),
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
            DeltaBuf::Owned(r) => r.heap_bytes(),
        }
    }

    fn view<'a>(&'a self, rel: &'a Relation) -> RelView<'a> {
        match self {
            DeltaBuf::Range(a, b) => rel.range_view(*a, *b),
            DeltaBuf::Owned(r) => r.view(),
        }
    }
}

/// How a stratum's fixpoint is entered.
///
/// A scratch entry is Algorithm 1's: ∆⁰R is everything already in `R`.
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
    /// Frozen build-side choices per (subquery, join) for OOF-NA.
    frozen: Vec<Vec<Option<bool>>>,
    /// Persistent full-R membership index (whole-tuple keys): built once
    /// for the stratum, appended after every merge, and probed by the
    /// fused dedup + set-difference pass. `None` until the first
    /// iteration, or always under `index_reuse = false`.
    full_index: Option<PersistentIndex>,
}

/// The shared (read-only) tier of the join cache: a borrow of the
/// database-owned [`IndexCache`] plus this run's pinned snapshots and
/// hit/miss accounting.
struct SharedTier<'c> {
    cache: &'c IndexCache,
    budget: usize,
    /// Snapshots this run is actively probing. Holding the `Arc` pins the
    /// entry against eviction (the cache skips entries with live
    /// borrowers) and keeps it valid even if it *is* dropped from the map.
    pins: FxHashMap<(RelId, Vec<usize>), Arc<SharedIndex>>,
    hits: usize,
    misses: usize,
    evictions: usize,
}

/// Per-run, two-tier cache of join/anti-join build-side tables.
///
/// Keyed on `(relation, key columns)`; only unfiltered `Base`/`Full` scans
/// of catalog relations are cacheable — their row ids are stable and
/// append-only for a stratum's whole fixpoint.
///
/// * **Shared tier** — relations *frozen for this run* (EDBs and anything
///   the program never derives) are served from the database-owned
///   [`IndexCache`]: built at most once across all runs over the database
///   (first builder wins, concurrent racers block on the publish and
///   reuse), pinned by this run while probing. Subject to spill-aware
///   eviction; a dropped entry surfaces as a miss, i.e. a rebuild signal —
///   never a dangling reference.
/// * **Local tier** — mutable build sides (growing IDB `Full` views, and
///   shared-tier fallbacks whose probe values escape the published packed
///   layout) keep the PR-2 behavior: a run-private [`PersistentIndex`],
///   built once and appended the rows each merge adds.
///
/// The cache now lives for the whole run (PR 2 dropped it at stratum end):
/// relations are append-only between IDB resets, `sync_for_probe` rebuilds
/// defensively on any shrink, and the two mid-run clear-and-refill sites
/// (monotonic-aggregate rebuilds, PBME materialization) explicitly
/// [`JoinCache::invalidate`] their relation — an equal-length refill
/// reassigns row ids without tripping the length check, so invalidation
/// there is what makes cross-stratum reuse sound. Counters fold into
/// [`EvalStats`] at run end.
struct JoinCache<'c> {
    enabled: bool,
    shared: Option<SharedTier<'c>>,
    /// Relations this run derives (its IDBs): their build sides grow, so
    /// they are never served from the shared tier.
    mutable_ids: FxHashSet<RelId>,
    map: FxHashMap<(RelId, Vec<usize>), PersistentIndex>,
    builds: usize,
    appends: usize,
    reuses: usize,
    build_rows: usize,
    append_rows: usize,
    maintain: std::time::Duration,
}

impl<'c> JoinCache<'c> {
    fn new(
        enabled: bool,
        shared: Option<(&'c IndexCache, usize)>,
        mutable_ids: FxHashSet<RelId>,
    ) -> Self {
        JoinCache {
            enabled,
            shared: shared.map(|(cache, budget)| SharedTier {
                cache,
                budget,
                pins: FxHashMap::default(),
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            mutable_ids,
            map: FxHashMap::default(),
            builds: 0,
            appends: 0,
            reuses: 0,
            build_rows: 0,
            append_rows: 0,
            maintain: std::time::Duration::ZERO,
        }
    }

    /// Whether a scan's build side may be served from the cache.
    fn cacheable(catalog: &RunCatalog<'_>, scan: &ScanSpec) -> Option<RelId> {
        if scan.filters.is_empty() && matches!(scan.version, AtomVersion::Base | AtomVersion::Full)
        {
            catalog.lookup(&scan.rel)
        } else {
            None
        }
    }

    /// A probe-ready `(table, key mode)` over `rel_id`'s current rows,
    /// keyed on `cols`: served from the shared tier when the relation is
    /// frozen for this run, otherwise built on first use and synchronized
    /// incrementally, with the compact-key layout invalidated (hashed
    /// rebuild, once) when probe values escape it.
    fn probe_ready(
        &mut self,
        ctx: &ExecCtx,
        catalog: &RunCatalog<'_>,
        rel_id: RelId,
        cols: &[usize],
        probe: RelView<'_>,
        probe_cols: &[usize],
    ) -> (&ChainTable, &KeyMode) {
        let t0 = Instant::now();
        let base = catalog.rel(rel_id).view();
        let key = (rel_id, cols.to_vec());
        if !self.map.contains_key(&key) {
            if let Some(tier) = self.shared.as_mut() {
                if !self.mutable_ids.contains(&rel_id) && !base.is_empty() {
                    if let Some(version) = catalog.shared_version(rel_id) {
                        let pinned_ok = tier.pins.get(&key).is_some_and(|idx| {
                            idx.rows() == base.len() && idx.admits_probe(probe, probe_cols)
                        });
                        // A snapshot only helps if its key mode admits
                        // this probe, and the mode is knowable *before*
                        // building (it derives from the frozen base's
                        // bounds — exactly what `SharedIndex::build`
                        // uses). An escaping probe therefore skips the
                        // shared tier entirely: no useless snapshot is
                        // published against the cache budget, and no
                        // phantom hit is counted while every run pays a
                        // local rebuild anyway.
                        let admissible = pinned_ok
                            || match KeyMode::for_view(base, cols) {
                                KeyMode::Hashed => true,
                                KeyMode::Packed(layout) => {
                                    bounds_of(probe, probe_cols).is_none_or(|b| layout.covers(&b))
                                }
                            };
                        if pinned_ok {
                            self.reuses += 1;
                        } else {
                            // The pin (if any) is stale or does not admit
                            // this probe: drop it *unconditionally* so the
                            // fallthrough below can never serve a packed
                            // snapshot to an escaping probe (packed keys
                            // wrap out-of-range values, and exact mode
                            // skips tuple re-verification — a stale pin
                            // would mean wrong join results, not just
                            // wasted work).
                            tier.pins.remove(&key);
                        }
                        if !pinned_ok && admissible {
                            let ckey = CacheKey {
                                rel: rel_id,
                                version,
                                cols: cols.to_vec(),
                            };
                            let out = tier.cache.get_or_build(&ckey, tier.budget, || {
                                SharedIndex::build(ctx, base, cols.to_vec())
                            });
                            if out.built {
                                tier.misses += 1;
                                self.builds += 1;
                                self.build_rows += base.len();
                            } else {
                                tier.hits += 1;
                            }
                            tier.evictions += out.evicted;
                            // Belt and braces: the deferred-mode corner
                            // (snapshot built over rows that arrived
                            // after an empty-view mode choice) re-checks
                            // against the actual snapshot.
                            if out.index.rows() == base.len()
                                && out.index.admits_probe(probe, probe_cols)
                            {
                                tier.pins.insert(key.clone(), out.index);
                            }
                        }
                        if let Some(idx) = tier.pins.get(&key) {
                            self.maintain += t0.elapsed();
                            return (idx.table(), idx.mode());
                        }
                    }
                }
            }
            self.builds += 1;
            self.build_rows += base.len();
            self.map.insert(
                key.clone(),
                PersistentIndex::build(ctx, base, cols.to_vec()),
            );
            let index = self.map.get_mut(&key).expect("just inserted");
            if let SyncAction::Rebuilt = index.sync_for_probe(ctx, base, probe, probe_cols) {
                self.builds += 1;
                self.build_rows += base.len();
            }
            self.maintain += t0.elapsed();
            let index = self.map.get(&key).expect("just inserted");
            return (index.table(), index.mode());
        }
        let index = self.map.get_mut(&key).expect("checked above");
        match index.sync_for_probe(ctx, base, probe, probe_cols) {
            SyncAction::Reused => self.reuses += 1,
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
        let index = self.map.get(&key).expect("checked above");
        (index.table(), index.mode())
    }

    /// Heap bytes of the run-local tier (shared snapshots are accounted by
    /// the database cache's resident total).
    fn heap_bytes(&self) -> usize {
        self.map.values().map(PersistentIndex::heap_bytes).sum()
    }

    /// Resident bytes of the shared tier's backing cache (0 without one).
    fn shared_resident_bytes(&self) -> usize {
        self.shared.as_ref().map_or(0, |t| t.cache.resident_bytes())
    }

    /// Drop every cached build side over `rel_id`.
    ///
    /// Required whenever a relation is *cleared and refilled* mid-run
    /// (monotonic-aggregate rebuilds, PBME materialization): refilling
    /// reassigns row ids, and a refill to an equal-or-larger length would
    /// pass the length-based `sync_for_probe` check and serve stale
    /// row-id mappings. The append-only contract the cache relies on
    /// holds *between* these sites, not across them.
    fn invalidate(&mut self, rel_id: RelId) {
        self.map.retain(|(id, _), _| *id != rel_id);
        if let Some(tier) = self.shared.as_mut() {
            tier.pins.retain(|(id, _), _| *id != rel_id);
        }
    }

    /// Memory-pressure spill: release this run's pins (mid-stratum drop —
    /// the next probe re-fetches or rebuilds) and evict the shared tier
    /// down to `target` resident bytes. Returns the bytes actually freed.
    fn spill_for_pressure(&mut self, target: usize) -> usize {
        match self.shared.as_mut() {
            Some(tier) => {
                tier.pins.clear();
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
        stats.phase.index += self.maintain;
        if let Some(tier) = &self.shared {
            stats.index.cache_hits += tier.hits;
            stats.index.cache_misses += tier.misses;
            stats.index.cache_evictions += tier.evictions;
            stats.index.cache_bytes = tier.cache.resident_bytes();
        }
    }
}

/// How an aggregated IDB is evaluated.
enum AggKind {
    /// Recursive aggregation: monotonic MIN/MAX map with improvement deltas.
    Mono(MonoState),
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
/// dirty-list drain is the iteration's ∆.
struct MonoState {
    map: ConcurrentMonoMap,
    group_positions: Vec<usize>,
    agg_position: usize,
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

        let mut jcache = self.join_cache(prog);

        // Full-R indexes survive their stratum: stratification evaluates
        // every IDB in exactly one stratum, so a carried index only ever
        // needs an incremental sync (and the sync is defensive anyway).
        // For TC-shaped programs this makes the whole run build the table
        // exactly once — the base stratum builds, the recursive one grows.
        let mut index_carry: FxHashMap<RelId, PersistentIndex> = FxHashMap::default();
        for stratum in &prog.strata {
            let pbme_plan = match self.cfg.pbme {
                PbmeMode::Off => None,
                PbmeMode::Auto | PbmeMode::Force => detect(stratum),
            };
            let mut handled = false;
            if let Some(plan) = pbme_plan {
                handled = self.try_run_pbme(stratum, &plan, &mut stats)?;
                if handled {
                    // PBME cleared and refilled the IDB: cached build
                    // sides over it (if any) hold reassigned row ids.
                    if let Some(id) = self.catalog.lookup(plan.idb()) {
                        jcache.invalidate(id);
                    }
                }
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
                    if index.rows() != self.catalog.rel(rel_id).len() {
                        continue; // trails the relation (e.g. a mono rebuild)
                    }
                    let key = CacheKey {
                        rel: rel_id,
                        version,
                        cols: index.key_cols().to_vec(),
                    };
                    // Freeze moves the already-built table. The nominal
                    // per-row build cost stands in for the unmeasured
                    // original build so eviction does not treat the entry
                    // as free to rebuild.
                    let cost = std::time::Duration::from_nanos(index.rows() as u64 * 25);
                    let mut moved = Some(index);
                    let out = cache.get_or_build(&key, self.cfg.index_cache_budget_bytes, || {
                        moved.take().expect("first builder wins").freeze(cost)
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

    /// The run's join cache. Build-side tables persist across the whole
    /// run (relations are append-only between IDB resets, and syncs
    /// rebuild defensively on shrink); relations `prog` does not derive
    /// are frozen and served from the database's shared cross-run cache.
    fn join_cache(&self, prog: &CompiledProgram) -> JoinCache<'d> {
        let mutable_ids: FxHashSet<RelId> = prog
            .relations
            .iter()
            .filter(|d| d.is_idb)
            .filter_map(|d| self.catalog.lookup(&d.name))
            .collect();
        let shared = self.cache.map(|c| (c, self.cfg.index_cache_budget_bytes));
        JoinCache::new(self.cfg.index_reuse, shared, mutable_ids)
    }

    /// Close a run's statistics: wall time since `t0`, pool busy time
    /// since `busy0`, and the catalog's peak footprint.
    fn close(&self, mut stats: EvalStats, t0: Instant, busy0: u64) -> EvalStats {
        stats.total = t0.elapsed();
        stats.busy = Duration::from_nanos(self.ctx.pool.busy_ns_total().saturating_sub(busy0));
        stats.peak_bytes = stats.peak_bytes.max(self.catalog.heap_bytes());
        stats
    }

    /// Attempt PBME on a TC/SG-shaped stratum. Returns false (fall back to
    /// tuples) when the Auto-mode budget check or id-domain check fails.
    fn try_run_pbme(
        &mut self,
        _stratum: &CompiledStratum,
        plan: &PbmePlan,
        stats: &mut EvalStats,
    ) -> Result<bool> {
        let t = Instant::now();
        let edge_id = match self.catalog.lookup(plan.edges()) {
            Some(id) => id,
            None => return Ok(false),
        };
        let idb_id = self
            .catalog
            .lookup(plan.idb())
            .expect("idb relation exists");
        let edge_rel = self.catalog.rel(edge_id);
        let idb_rel = self.catalog.rel(idb_id);
        // Dense-integer domain required: every id in [0, u32::MAX).
        let max_id = {
            let mut m: Value = -1;
            for rel in [edge_rel, idb_rel] {
                for c in 0..2 {
                    for &v in rel.col(c) {
                        if v < 0 || v >= u32::MAX as Value {
                            return Ok(false);
                        }
                        m = m.max(v);
                    }
                }
            }
            m
        };
        let n = (max_id + 1).max(1) as usize;
        if self.cfg.pbme == PbmeMode::Auto
            && !fits_budget(n, edge_rel.len(), self.cfg.mem_budget_bytes)
        {
            return Ok(false);
        }
        let pairs = |rel: &Relation, swap: bool| -> Vec<(u32, u32)> {
            let (a, b) = (rel.col(0), rel.col(1));
            (0..rel.len())
                .map(|r| {
                    if swap {
                        (b[r] as u32, a[r] as u32)
                    } else {
                        (a[r] as u32, b[r] as u32)
                    }
                })
                .collect()
        };
        let (matrix, transpose_out) = match plan {
            PbmePlan::Tc { mirrored, .. } => {
                let edges = pairs(edge_rel, *mirrored);
                let seeds = pairs(idb_rel, *mirrored);
                (
                    recstep_bitmatrix::tc_closure_seeded(&self.ctx.pool, n, &seeds, &edges),
                    *mirrored,
                )
            }
            PbmePlan::Sg { .. } => {
                let edges = pairs(edge_rel, false);
                let seeds = pairs(idb_rel, false);
                (
                    recstep_bitmatrix::sg_closure_seeded(&self.ctx.pool, n, &edges, Some(&seeds)),
                    false,
                )
            }
        };
        stats.pbme_matrix_bytes = stats.pbme_matrix_bytes.max(matrix.heap_bytes());
        // Materialize the closure back into the stored relation.
        let (cols, aggs) = matrix_columns(&self.ctx.pool, &matrix, transpose_out);
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

    /// Tuple-based evaluation of one stratum (the Algorithm 1 inner loop).
    fn run_stratum(
        &mut self,
        stratum: &CompiledStratum,
        index_carry: &mut FxHashMap<RelId, PersistentIndex>,
        jcache: &mut JoinCache<'_>,
        stats: &mut EvalStats,
        entry: StratumEntry,
    ) -> Result<()> {
        let seeded = matches!(entry, StratumEntry::Seeded(_));
        // Initialize per-IDB state.
        let mut states: Vec<IdbState> = Vec::with_capacity(stratum.idbs.len());
        for idb in &stratum.idbs {
            let rel_id = self.catalog.lookup(&idb.rel).expect("idb relation exists");
            let rel = self.catalog.rel(rel_id);
            // ∆R of iteration 0: from scratch, everything already in R
            // (facts and earlier-strata results); re-entering a completed
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
                    let mut map = match self.agg_window(stratum, idb, &shape.group_positions, rel) {
                        Some(layout) => ConcurrentMonoMap::with_window(func, g, layout)?,
                        None => ConcurrentMonoMap::new(func, g, rel.len())?,
                    };
                    // Seed from facts already in R (earlier strata).
                    let mut group = Vec::with_capacity(g);
                    for r in 0..rel.len() {
                        group.clear();
                        group.extend(shape.group_positions.iter().map(|&p| rel.col(p)[r]));
                        map.absorb(&group, rel.col(shape.agg_positions[0])[r]);
                    }
                    // Seeds are pre-existing facts, not this run's ∆.
                    let _ = map.take_improved();
                    Some(AggKind::Mono(MonoState {
                        map,
                        group_positions: shape.group_positions.clone(),
                        agg_position: shape.agg_positions[0],
                    }))
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
            states.push(IdbState {
                rel_id,
                delta,
                old_len: start,
                dsd: DsdState::new(DSD_ALPHA),
                agg,
                frozen: idb
                    .subqueries
                    .iter()
                    .map(|sq| vec![None; sq.joins.len()])
                    .collect(),
                full_index: index_carry.remove(&rel_id),
            });
        }

        let mut iterations = 0usize;
        loop {
            if self.cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(Error::Cancelled);
            }
            // Fault-injection site for the service's panic-isolation and
            // error-path tests: one boundary per fixpoint iteration.
            recstep_common::fail_point!("eval::fixpoint");
            iterations += 1;
            let mut all_empty = true;
            // The paper keeps ∆R of the previous iteration alive while the
            // current iteration's ∆R is being produced ("two temporary
            // tables are created for each idb R", §4): every IDB of the
            // stratum must read the *previous* deltas, so the new ones are
            // staged and swapped in only after the full pass. Row-range
            // deltas make this free — R is append-only until fixpoint, so
            // a previously staged range stays valid while R grows.
            // Old moves with ∆ (a row-range ∆ starts where Old ends): a
            // peer stepped later in the pass must not see an earlier IDB's
            // Old grown over the ∆ it also reads as Delta, or every ∆×∆
            // pair would be derived twice.
            let mut staged: Vec<Option<DeltaBuf>> = (0..stratum.idbs.len()).map(|_| None).collect();
            for (i, idb) in stratum.idbs.iter().enumerate() {
                let delta = self.step_idb(stratum, idb, i, &mut states, jcache, stats, seeded)?;
                if !delta.is_empty() {
                    all_empty = false;
                }
                staged[i] = Some(delta);
            }
            for (state, new_delta) in states.iter_mut().zip(staged) {
                let new_delta = new_delta.expect("every idb staged a delta");
                if let DeltaBuf::Range(start, _) = new_delta {
                    state.old_len = start;
                }
                state.delta = new_delta;
            }
            // Memory budget check (how OOM is reported honestly). Persistent
            // indexes — including the shared cache's resident snapshots —
            // are live state and count against the budget.
            let cache_resident = jcache.shared_resident_bytes();
            let mut live = self.catalog.heap_bytes()
                + jcache.heap_bytes()
                + cache_resident
                + index_carry
                    .values()
                    .map(PersistentIndex::heap_bytes)
                    .sum::<usize>()
                + states
                    .iter()
                    .map(|s| {
                        s.delta.heap_bytes()
                            + s.full_index.as_ref().map_or(0, PersistentIndex::heap_bytes)
                            + match &s.agg {
                                Some(AggKind::Mono(m)) => m.map.heap_bytes(),
                                _ => 0,
                            }
                    })
                    .sum::<usize>();
            stats.peak_bytes = stats.peak_bytes.max(live);
            // Running high-water mark: entries dropped later by
            // `invalidate` or a pressure spill must still count toward
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

        // Monotonic aggregated IDBs: rebuild stored relation from the map.
        for (i, idb) in stratum.idbs.iter().enumerate() {
            let state = &states[i];
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
                // The clear-and-refill reassigned row ids: any cached
                // build side over this relation is stale even at equal
                // length, so drop it before later strata can probe it.
                jcache.invalidate(state.rel_id);
                self.io.dirty(state.rel_id, self.catalog.rel(state.rel_id));
            }
        }

        // Hand the full-R indexes back for later strata that re-read these
        // relations (they are frozen from here on, so the indexes stay
        // valid; `append` double-checks defensively on reuse).
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
    /// too — their single pass dedups across rules at source the same
    /// way. Aggregated heads take the Agg sink instead (see
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
    /// layout, skipping IDBs derived in this stratum, whose bounds are
    /// still moving — and of the rows already in R. Keys from skipped or
    /// computed sources that land outside it escape to the hashed table,
    /// so the window decides speed, never results.
    fn agg_window(
        &self,
        stratum: &CompiledStratum,
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
                        let frozen = spec.version == AtomVersion::Base
                            && stratum.idbs.iter().all(|i| i.rel != spec.rel);
                        let id = self.catalog.lookup(&spec.rel).filter(|_| frozen);
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

    /// Relation `rel_id`'s whole-tuple full-R index, built on first use or
    /// synced with the relation (a carried index may trail it), booked
    /// under `phase.index`.
    fn full_index<'i>(
        &self,
        rel_id: RelId,
        index: &'i mut Option<PersistentIndex>,
        stats: &mut EvalStats,
    ) -> &'i mut PersistentIndex {
        match index {
            Some(index) => {
                self.sync_index(rel_id, index, stats);
                index
            }
            None => {
                let t_index = Instant::now();
                let rel = self.catalog.rel(rel_id);
                note_sync(SyncAction::Rebuilt, rel.len(), stats);
                let cols = (0..rel.arity()).collect();
                let built = index.insert(PersistentIndex::build(self.ctx, rel.view(), cols));
                stats.phase.index += t_index.elapsed();
                built
            }
        }
    }

    /// One ∆-stream pass over relation `rel_id`, shared by the Delta sink
    /// of [`Self::step_idb`] and the view seed pass: [`Self::sink_pass`]
    /// against the full-R `index` (built or synced first), booked under
    /// `phase.pipeline`; every considered row not kept is booked as
    /// skipped at source. On error `index` is left in place. The caller
    /// books `tuples_considered` and merges the fresh rows
    /// ([`Self::merge_delta`]), whose index `append` performs any one-time
    /// hashed rebuild the escapes call for.
    fn stream_delta(
        &self,
        rel_id: RelId,
        index: &mut Option<PersistentIndex>,
        sampler: Option<&SinkSampler>,
        stats: &mut EvalStats,
        eval: impl FnOnce(&Self, &SinkMode<'_>) -> Result<EvalOut>,
    ) -> Result<Streamed> {
        let index = self.full_index(rel_id, index, stats);
        let t_pipe = Instant::now();
        let streamed = self.sink_pass(rel_id, index, 0, sampler, stats, eval)?;
        let skipped = streamed.considered - streamed.out.cols.first().map_or(0, Vec::len);
        stats.rt_rows_skipped_at_source += skipped;
        stats.rt_bytes_never_materialized += skipped * self.catalog.rel(rel_id).arity() * 8;
        stats.phase.pipeline += t_pipe.elapsed();
        Ok(streamed)
    }

    /// `eval` streams every produced row through a [`DeltaSink`] probing
    /// relation `rel_id`'s synced full-R `index` and a shared scratch table
    /// presized for `capacity` rows, so only rows new w.r.t. `R` and each
    /// other come out. The sink's compact-key escapes are new w.r.t. `R`
    /// and the sink's winners (a tuple fits the packed layout iff each
    /// value fits) and are deduplicated among themselves here.
    fn sink_pass(
        &self,
        rel_id: RelId,
        index: &PersistentIndex,
        capacity: usize,
        sampler: Option<&SinkSampler>,
        stats: &mut EvalStats,
        eval: impl FnOnce(&Self, &SinkMode<'_>) -> Result<EvalOut>,
    ) -> Result<Streamed> {
        let mut sink = DeltaSink::new(index, self.catalog.rel(rel_id).view(), capacity);
        if let Some(s) = sampler {
            sink = sink.with_sampler(s);
        }
        let out = eval(self, &SinkMode::Delta(&sink));
        stats.sink_table_doublings += sink.table_doublings();
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

    /// `R ← R ⊎ ∆R` for relation `rel_id` (`phase.merge`); a full-R
    /// `index` then appends the merged rows. Returns ∆R as the appended
    /// row range of `R`.
    fn merge_delta(
        &mut self,
        rel_id: RelId,
        fresh: Vec<Vec<Value>>,
        index: Option<&mut PersistentIndex>,
        stats: &mut EvalStats,
    ) -> (usize, usize) {
        let t_merge = Instant::now();
        let rel = self.catalog.rel_mut(rel_id);
        let start = rel.len();
        rel.append_columns(fresh);
        let end = rel.len();
        stats.phase.merge += t_merge.elapsed();
        if let Some(index) = index {
            self.sync_index(rel_id, index, stats);
        }
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
        seeded: bool,
    ) -> Result<DeltaBuf> {
        let rel_id = states[idx].rel_id;
        let delta_sink = self.fused_applies(&states[idx]);
        let agg_sink = states[idx].agg.is_some() && self.fused_agg_applies();
        // OOF-FA: a streaming sink samples the would-be `Rt` for the
        // statistics pass.
        let sampler = (self.cfg.oof == OofMode::Full && (delta_sink || agg_sink))
            .then(|| SinkSampler::new(idb.arity, SINK_SAMPLE_CAP));
        let t_eval = Instant::now();
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
                        PlainAgg::Best(match self.agg_window(stratum, idb, group_positions, rel) {
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

        // --- Rt ← uieval(rules(R, s)), into the chosen sink. ---
        let mut eval = |this: &Self, sink: &SinkMode<'_>| {
            eval_idb(
                this.ctx,
                this.cfg,
                &this.catalog,
                stratum,
                idb,
                states,
                idx,
                jcache,
                sink,
                seeded,
            )
        };
        let mut scratch_bytes = 0;
        let (out, considered) = if delta_sink {
            let streamed =
                self.stream_delta(rel_id, &mut full_index, sampler.as_ref(), stats, eval);
            states[idx].full_index = full_index;
            let streamed = streamed?;
            scratch_bytes = streamed.scratch_bytes;
            (streamed.out, streamed.considered)
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
            stats.phase.pipeline += t_eval.elapsed();
            if let Some(map) = mono {
                stats.sink_table_doublings += map.table_doublings() - doublings;
            }
            (out, sink.considered())
        } else {
            let out = eval(self, &SinkMode::Materialize)?;
            stats.phase.eval += t_eval.elapsed();
            let produced = out.cols.first().map_or(0, Vec::len);
            (out, produced)
        };

        // --- Statistics every sink shares. ---
        stats.queries_issued += out.queries + 1;
        stats.wcoj_runs += out.tally.wcoj_runs;
        stats.wcoj_rows_emitted += out.tally.wcoj_rows;
        stats.intermediate_rows_offered += out.tally.stage_offered;
        stats.intermediate_rows_kept += out.tally.stage_kept;
        stats.tuples_considered += considered;
        if self.cfg.oof == OofMode::None {
            freeze_choices(&self.catalog, stratum, idb, states, idx);
        }
        if self.cfg.oof == OofMode::Full {
            self.analyze_rt(rel_id, sampler.as_ref(), &out.cols, stats);
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
        let t_agg = Instant::now();
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
                // The dirty list is ∆R.
                let improved = ms.map.take_improved();
                let delta = mono_delta(idb, ms, &improved);
                if agg_sink {
                    stats.agg_groups_improved += delta.len();
                }
                stats.phase.aggregate += t_agg.elapsed();
                self.io.temp(delta.view());
                return Ok(DeltaBuf::Owned(delta));
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
                self.merge_delta(rel_id, cols, None, stats)
            }
            None if delta_sink || self.cfg.index_reuse && stratum.recursive => {
                if delta_sink {
                    stats.pipeline_runs += 1;
                } else {
                    // --- `--no-fused-pipeline`: Rδ ← dedup(Rt) and
                    // ∆R ← Rδ − R in one pass, draining `Rt` through the
                    // ∆ stream's sink against the persistent full-R index
                    // (built once for the stratum, appended after every
                    // merge). One query replaces the dedup INSERT and the
                    // difference query of the rebuild path. ---
                    let index = self.full_index(rel_id, &mut state.full_index, stats);
                    let t_dedup = Instant::now();
                    let identity: Vec<Expr> = (0..idb.arity).map(Expr::Col).collect();
                    let rt = RelView::over(&rows);
                    let drained =
                        self.sink_pass(rel_id, index, considered, None, stats, |this, sink| {
                            Ok(EvalOut {
                                cols: project_filter_sink(this.ctx, rt, &identity, &[], sink),
                                queries: 0,
                                tally: Tally::default(),
                            })
                        })?;
                    stats.phase.dedup += t_dedup.elapsed();
                    rows = drained.out.cols;
                    scratch_bytes = drained.scratch_bytes;
                }
                // R ← R ⊎ ∆R: one shard append; the index appends it too.
                stats.fused_runs += 1;
                let index = state.full_index.as_mut().expect("the sink pass built it");
                let range = self.merge_delta(rel_id, rows, Some(&mut *index), stats);
                let bytes = index.heap_bytes() + scratch_bytes;
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
                self.merge_delta(rel_id, diff, None, stats)
            }
        };
        self.io
            .temp(self.catalog.rel(rel_id).range_view(start, end));
        Ok(DeltaBuf::Range(start, end))
    }
}

/// The signed row deltas an incremental refresh maintains, keyed by
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

/// Column-major row sets by relation name: ∆ batches, or set-semantic
/// copies of maintenance inputs.
type Batches = FxHashMap<String, Vec<Vec<Value>>>;

/// How a changed stratum is maintained.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Strategy {
    /// A non-recursive stratum: exact per-derivation support counts.
    Counting,
    /// A recursive cluster whose inputs only gained tuples.
    Seeded,
    /// A recursive cluster whose inputs lost tuples: Backward/Forward.
    BackwardForward,
}

/// What one maintained stratum's passes read, built by
/// [`EvalRun::maintenance_inputs`]. Inputs are the body relations outside
/// the stratum's own IDBs; OLD/NEW copies are set-semantic (stored base
/// relations may hold duplicate rows, which would inflate counts), and
/// OLD = NEW ∖ plus ∪ minus — the deltas are effective set deltas.
struct Inputs {
    strategy: Strategy,
    /// The changed inputs' inserted and deleted rows.
    plus: Batches,
    minus: Batches,
    /// Counting's pre-refresh copies of base and changed derived inputs.
    old: Batches,
    /// Post-refresh copies of base inputs (counting and support init);
    /// derived inputs are sets already and read the catalog.
    new: Batches,
}

impl Inputs {
    /// The copy body position `q` reads while position `p` is pinned
    /// (`None`: no pin); `None` reads the catalog. Counting's finite
    /// differencing reads NEW before the pin and OLD after it; every other
    /// pass reads NEW.
    fn side(&self, rel: &str, q: usize, p: Option<usize>) -> Option<&Vec<Vec<Value>>> {
        let copies = match (self.strategy, p) {
            (Strategy::Counting, Some(p)) if q > p => &self.old,
            _ => &self.new,
        };
        copies.get(rel)
    }
}

/// One pinned-rule pass ([`EvalRun::pinned_pass`]).
struct Pass<'b> {
    /// Its rules: relation `rel`'s in these strata.
    strata: &'b [&'b CompiledStratum],
    rel: &'b str,
    /// `(batches, sign)`: each body position whose relation has a batch
    /// is pinned to it once per entry, its derivations carrying `sign`.
    /// Empty: every non-recursive rule runs once, unpinned (recursive
    /// ones re-run in the fixpoint that follows).
    pins: &'b [(&'b Batches, i64)],
    /// What every other position reads ([`Inputs::side`]).
    inputs: &'b Inputs,
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
    let mut cols = vec![Vec::with_capacity(rows.size_hint().0); arity];
    for row in rows {
        for (c, &v) in row.iter().enumerate() {
            cols[c].push(v);
        }
    }
    cols
}

/// What a refresh maintains, in evaluation order, each unit ending with
/// its maintained stratum. Strata are rule-level SCCs, so TC's `tc` spans
/// `tc ← arc` and the recursive stratum: a recursive stratum's unit takes
/// in the (earlier) non-recursive strata deriving its IDBs, and every
/// other non-recursive stratum stands alone.
fn maintenance_units(prog: &CompiledProgram) -> Vec<Vec<&CompiledStratum>> {
    let mut units: Vec<Vec<&CompiledStratum>> = Vec::new();
    for stratum in &prog.strata {
        let mut unit = Vec::new();
        if stratum.recursive {
            let shares = |s: &CompiledStratum| {
                s.idbs
                    .iter()
                    .any(|i| stratum.idbs.iter().any(|own| own.rel == i.rel))
            };
            unit.extend(
                units
                    .extract_if(.., |u| !u[0].recursive && shares(u[0]))
                    .flatten(),
            );
        }
        unit.push(stratum);
        units.push(unit);
    }
    units
}

/// Invoke `f` with each row of a column-major materialized result.
fn each_row(cols: &[Vec<Value>], mut f: impl FnMut(&[Value])) {
    let rows = cols.first().map_or(0, Vec::len);
    let mut row = vec![0 as Value; cols.len()];
    for r in 0..rows {
        for (v, col) in row.iter_mut().zip(cols) {
            *v = col[r];
        }
        f(&row);
    }
}

/// Incremental view maintenance: the refresh driver behind
/// [`crate::view::MaterializedView`]. A refresh walks the strata in
/// order, maintaining each changed one against the deltas accumulated so
/// far with one of three strategies — one skeleton, three shapes:
///
/// * **counting** for IDBs derived only in non-recursive strata — exact
///   per-derivation support counts ([`SupportTable`]) decide when a
///   tuple's first derivation appears or its last one disappears;
/// * **∆-seeding** for insert-only changes to recursive clusters — every
///   rule runs once per changed scan position through the fused
///   [`DeltaSink`], then the fixpoint re-enters with ∆ = the fresh rows
///   only ([`StratumEntry::Seeded`]);
/// * **Backward/Forward** ([`bf`]) when a recursive cluster sees
///   deletions — each deletion candidate is checked for a surviving
///   proof, only the unproved ones are retracted, and the fixpoint
///   re-enters ∆-seeded from the commit's inserts alone.
///
/// Each builds its inputs once ([`Self::maintenance_inputs`],
/// `phase.dedup`), evaluates its rules through one pinned-rule pass
/// ([`Self::pinned_pass`], `phase.eval`) — B/F's proof search is booked
/// there too — and ends in the shared tails:
/// [`Self::retract`], [`Self::merge_delta`] and
/// [`RefreshDeltas::publish`] (`phase.merge`).
impl EvalRun<'_, '_> {
    /// Evaluate one subquery as a maintenance pass: overridden positions
    /// read the given views, everything else the catalog's full
    /// relations, with the join cache disabled (see [`eval_subquery`]).
    fn eval_maintenance(
        &self,
        stratum: &CompiledStratum,
        sq: &SubQuery,
        overrides: &ScanOverrides<'_>,
        sink: &SinkMode<'_>,
    ) -> Result<Vec<Vec<Value>>> {
        let frozen = vec![None; sq.joins.len()];
        let mut jcache = JoinCache::new(false, None, FxHashSet::default());
        // Maintenance passes are driven per changed scan position and not
        // per evaluation run, so their operator accounting is dropped.
        let mut tally = Tally::default();
        eval_subquery(
            self.ctx,
            self.cfg,
            &self.catalog,
            stratum,
            sq,
            &[],
            &frozen,
            &mut jcache,
            Some(overrides),
            sink,
            &mut tally,
        )
    }

    /// Relation `rel`'s rows as a set: every set-semantic copy
    /// maintenance reads is built from one.
    fn row_set(&self, rel: &str) -> Result<FxHashSet<Vec<Value>>> {
        let id = rel_id(&self.catalog, rel)?;
        Ok(self.catalog.rel(id).to_rows().into_iter().collect())
    }

    /// Build what the passes maintaining `unit` (see
    /// [`maintenance_units`]) read, in one walk over its rule bodies: the
    /// changed inputs' ∆ batches, the strategy they call for, and the
    /// set-semantic copies that strategy reads. `deltas` is `None` for
    /// support initialization (NEW copies of base inputs). Returns `None`
    /// when no input changed. Booked under `phase.dedup`.
    fn maintenance_inputs(
        &self,
        prog: &CompiledProgram,
        unit: &[&CompiledStratum],
        deltas: Option<&RefreshDeltas>,
        stats: &mut EvalStats,
    ) -> Result<Option<Inputs>> {
        let t_dedup = Instant::now();
        let maintained = unit[unit.len() - 1];
        let own: FxHashSet<&str> = maintained.idbs.iter().map(|i| i.rel.as_str()).collect();
        let mut scanned: Vec<(&str, usize)> = Vec::new();
        let rules = unit
            .iter()
            .flat_map(|s| &s.idbs)
            .flat_map(|i| &i.subqueries);
        for scan in rules.flat_map(|sq| &sq.scans) {
            let rel = scan.rel.as_str();
            if !own.contains(rel) && !scanned.iter().any(|&(r, _)| r == rel) {
                scanned.push((rel, scan.arity));
            }
        }
        let rows_of = |rel: &str| deltas.map(|d| (d.plus.get(rel), d.minus.get(rel)));
        let (mut plus, mut minus) = (Batches::default(), Batches::default());
        for &(rel, arity) in &scanned {
            let (ins, del) = rows_of(rel).unwrap_or_default();
            for (rows, batches) in [(ins, &mut plus), (del, &mut minus)] {
                if let Some(rows) = rows.filter(|rows| !rows.is_empty()) {
                    batches.insert(rel.to_string(), cols_from_rows(arity, rows));
                }
            }
        }
        if deltas.is_some() && plus.is_empty() && minus.is_empty() {
            return Ok(None);
        }
        let strategy = if !maintained.recursive {
            Strategy::Counting
        } else if minus.is_empty() {
            Strategy::Seeded
        } else {
            Strategy::BackwardForward
        };
        let (mut old, mut new) = (Batches::default(), Batches::default());
        for &(rel, arity) in &scanned {
            let base = !prog.relations.iter().any(|d| d.is_idb && d.name == rel);
            let changed = plus.contains_key(rel) || minus.contains_key(rel);
            let (want_old, want_new) = match strategy {
                Strategy::Seeded | Strategy::BackwardForward => (false, false),
                Strategy::Counting => (deltas.is_some() && (base || changed), base),
            };
            if !want_old && !want_new {
                continue;
            }
            let mut set = self.row_set(rel)?;
            if want_new {
                new.insert(rel.to_string(), cols_from_rows(arity, set.iter()));
            }
            if want_old {
                let (ins, del) = rows_of(rel).unwrap_or_default();
                for row in ins.into_iter().flatten() {
                    set.remove(row);
                }
                for row in del.into_iter().flatten() {
                    set.insert(row.clone());
                }
                old.insert(rel.to_string(), cols_from_rows(arity, set.iter()));
            }
        }
        stats.phase.dedup += t_dedup.elapsed();
        Ok(Some(Inputs {
            strategy,
            plus,
            minus,
            old,
            new,
        }))
    }

    /// The one rule-evaluation pass of maintenance: each rule of `pass`
    /// (deduplicated by rule — maintenance reads full views, so a
    /// recursive rule's ∆ rewritings are one rule here; non-recursive
    /// strata have one subquery per rule) is evaluated into `sink` once
    /// per pinned body position `p`, every other position `q` reading
    /// [`Inputs::side`]. `emit` receives each evaluation's rows with the
    /// pin's sign. The interval is booked in `booked`
    /// (`phase.eval`) — `None` inside a ∆ stream, whose
    /// `phase.pipeline` covers it.
    fn pinned_pass(
        &self,
        pass: Pass<'_>,
        sink: &SinkMode<'_>,
        booked: Option<&mut Duration>,
        mut emit: impl FnMut(i64, Vec<Vec<Value>>),
    ) -> Result<()> {
        let t_eval = Instant::now();
        for &stratum in pass.strata {
            if pass.pins.is_empty() && stratum.recursive {
                continue;
            }
            for idb in stratum.idbs.iter().filter(|i| i.rel == pass.rel) {
                let mut seen_rules = FxHashSet::default();
                for sq in idb
                    .subqueries
                    .iter()
                    .filter(|sq| seen_rules.insert(sq.rule_idx))
                {
                    let unpinned = pass.pins.is_empty().then_some((None, 1));
                    let pinned = sq.scans.iter().enumerate().flat_map(|(p, scan)| {
                        pass.pins.iter().filter_map(move |&(batches, sign)| {
                            Some((Some((p, batches.get(&scan.rel)?)), sign))
                        })
                    });
                    for (pin, sign) in unpinned.into_iter().chain(pinned) {
                        let p = pin.map(|(p, _)| p);
                        let mut ovr = ScanOverrides::default();
                        for (q, scan) in sq.scans.iter().enumerate() {
                            let cols = match pin {
                                Some((p, batch)) if p == q => Some(batch),
                                _ => pass.inputs.side(&scan.rel, q, p),
                            };
                            if let Some(cols) = cols {
                                ovr.insert(q, RelView::over(cols));
                            }
                        }
                        emit(sign, self.eval_maintenance(stratum, sq, &ovr, sink)?);
                    }
                }
            }
        }
        if let Some(booked) = booked {
            *booked += t_eval.elapsed();
        }
        Ok(())
    }

    /// Retract `rows` (possibly none) from relation `rel_id`, whose
    /// contents change this refresh: row ids move, and an equal-sized
    /// delete + append would fool a length-based sync, so cached build
    /// sides over it and its carried full-R index are dropped. Booked
    /// under `phase.merge`.
    fn retract(&mut self, rel_id: RelId, rows: &[Vec<Value>], rs: &mut Refresh<'_>) {
        let t_merge = Instant::now();
        self.catalog.rel_mut(rel_id).delete_rows(rows);
        rs.jcache.invalidate(rel_id);
        rs.indexes.remove(&rel_id);
        rs.stats.view.view_tuples_retracted += rows.len() as u64;
        rs.stats.phase.merge += t_merge.elapsed();
    }

    /// Initialize support counts for every counting-maintained IDB of a
    /// freshly evaluated program: each rule runs once, unpinned, over
    /// set-semantic NEW copies of its base inputs, contributing one
    /// support per derivation row.
    pub(crate) fn init_supports(
        &mut self,
        prog: &CompiledProgram,
        supports: &mut FxHashMap<String, SupportTable>,
    ) -> Result<()> {
        // Part of building a view, not of any run's statistics.
        let mut stats = EvalStats::default();
        for unit in maintenance_units(prog) {
            let stratum = unit[unit.len() - 1];
            if stratum.recursive {
                continue;
            }
            let Some(inputs) = self.maintenance_inputs(prog, &unit, None, &mut stats)? else {
                continue;
            };
            for idb in &stratum.idbs {
                let rel_len = self.catalog.rel(rel_id(&self.catalog, &idb.rel)?).len();
                let support = supports
                    .entry(idb.rel.clone())
                    .or_insert_with(|| SupportTable::new(idb.arity, rel_len));
                let pass = Pass {
                    strata: &unit,
                    rel: &idb.rel,
                    pins: &[],
                    inputs: &inputs,
                };
                let booked = Some(&mut stats.phase.eval);
                self.pinned_pass(pass, &SinkMode::Materialize, booked, |_, out| {
                    each_row(&out, |row| {
                        support.add(row, 1);
                    })
                })?;
            }
        }
        Ok(())
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
        supports: &mut FxHashMap<String, SupportTable>,
        carry: &mut FxHashMap<String, PersistentIndex>,
    ) -> Result<EvalStats> {
        let t0 = Instant::now();
        let busy0 = self.ctx.pool.busy_ns_total();
        let mut rs = Refresh {
            indexes: carry
                .drain()
                .filter_map(|(name, index)| Some((self.catalog.lookup(&name)?, index)))
                .collect(),
            jcache: self.join_cache(prog),
            stats: EvalStats::default(),
        };
        rs.stats.view.view_refreshes = 1;

        for unit in maintenance_units(prog) {
            let Some(inputs) = self.maintenance_inputs(prog, &unit, Some(deltas), &mut rs.stats)?
            else {
                continue;
            };
            match inputs.strategy {
                // Insert-only: ∆-seed every rule against the new tuples,
                // then re-enter the fixpoint with ∆ = the fresh rows only.
                Strategy::Seeded => {
                    let pins = [(&inputs.plus, 1)];
                    self.refixpoint(&unit, &pins, &inputs, FxHashMap::default(), deltas, &mut rs)?
                }
                Strategy::BackwardForward => self.refresh_bf(&unit, &inputs, deltas, &mut rs)?,
                Strategy::Counting => {
                    self.refresh_counting(&unit, &inputs, deltas, supports, &mut rs)?
                }
            }
        }

        for (rel_id, index) in rs.indexes.drain() {
            carry.insert(self.catalog.rel(rel_id).schema().name.clone(), index);
        }
        rs.jcache.fold_into(&mut rs.stats);
        Ok(self.close(rs.stats, t0, busy0))
    }

    /// The recursive strategies' shared tail: stream `pins`' derivations
    /// for every IDB of the cluster `unit` maintains, each through its
    /// own ∆ stream ([`Self::stream_delta`]) against its carried full-R
    /// index, and append the winners (the sink dedups what positions
    /// reading current full views over-approximate); then re-enter the
    /// cluster's fixpoint with ∆ = the fresh rows and publish each IDB's
    /// net change: the rows it gained that were not among its `dead`
    /// (B/F-retracted) rows, and the `dead` rows not re-derived.
    fn refixpoint(
        &mut self,
        unit: &[&CompiledStratum],
        pins: &[(&Batches, i64)],
        inputs: &Inputs,
        mut dead: FxHashMap<String, FxHashSet<Vec<Value>>>,
        deltas: &mut RefreshDeltas,
        rs: &mut Refresh<'_>,
    ) -> Result<()> {
        let rec = unit[unit.len() - 1];
        let mut starts = FxHashMap::default();
        let mut seeded = 0;
        for idb in &rec.idbs {
            let rel_id = rel_id(&self.catalog, &idb.rel)?;
            starts.insert(rel_id, self.catalog.rel(rel_id).len());
            let pass = Pass {
                strata: unit,
                rel: &idb.rel,
                pins,
                inputs,
            };
            let mut index = rs.indexes.remove(&rel_id);
            let streamed =
                self.stream_delta(rel_id, &mut index, None, &mut rs.stats, |this, sink| {
                    let mut fresh = EvalOut {
                        cols: vec![Vec::new(); idb.arity],
                        queries: 0,
                        tally: Tally::default(),
                    };
                    this.pinned_pass(pass, sink, None, |_, out| append_cols(&mut fresh.cols, out))?;
                    Ok(fresh)
                });
            let appended = streamed.map(|streamed| {
                rs.stats.tuples_considered += streamed.considered;
                let merged =
                    self.merge_delta(rel_id, streamed.out.cols, index.as_mut(), &mut rs.stats);
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
        } else {
            view.view_bf_strata += 1;
        }
        let entry = StratumEntry::Seeded(starts.clone());
        self.run_stratum(rec, &mut rs.indexes, &mut rs.jcache, &mut rs.stats, entry)?;
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

    /// Backward/Forward maintenance of a recursive cluster that saw
    /// deletions ([`bf`]): every deletion candidate is checked for a
    /// surviving proof, and only the unproved ones are retracted. The
    /// fixpoint then re-enters seeded from the commit's inserts only,
    /// which also re-derives any retracted row a same-commit insert
    /// proves again. The search is booked under `phase.eval`, the
    /// retraction under `phase.merge`.
    fn refresh_bf(
        &mut self,
        unit: &[&CompiledStratum],
        inputs: &Inputs,
        deltas: &mut RefreshDeltas,
        rs: &mut Refresh<'_>,
    ) -> Result<()> {
        let rec = unit[unit.len() - 1];
        let mut full = Vec::with_capacity(rec.idbs.len());
        for idb in &rec.idbs {
            let rel_id = rel_id(&self.catalog, &idb.rel)?;
            let mut index = rs.indexes.remove(&rel_id);
            self.full_index(rel_id, &mut index, &mut rs.stats);
            full.push((rel_id, index.expect("full_index fills the slot")));
        }
        let t_eval = Instant::now();
        let matcher = bf::Matcher::new(self.ctx, &self.catalog, unit, &full, &inputs.minus);
        let dead = matcher.map(|m| {
            let (dead, builds) = bf::BackwardForward::new(m).run();
            rs.stats.index.join_builds += builds;
            dead
        });
        rs.stats.phase.eval += t_eval.elapsed();
        let ids: Vec<RelId> = full.iter().map(|&(rel_id, _)| rel_id).collect();
        rs.indexes.extend(full);
        let mut dead_sets = FxHashMap::default();
        for ((rel_id, idb), rows) in ids.into_iter().zip(&rec.idbs).zip(dead?) {
            if !rows.is_empty() {
                self.retract(rel_id, &rows, rs);
                dead_sets.insert(idb.rel.clone(), rows.into_iter().collect());
            }
        }
        self.refixpoint(unit, &[(&inputs.plus, 1)], inputs, dead_sets, deltas, rs)
    }

    /// Counting maintenance of a non-recursive stratum: finite
    /// differencing accumulates signed per-derivation deltas (position
    /// `p` pinned to the change, earlier positions at NEW, later at OLD
    /// views — all set-semantic), and the settled support counts decide
    /// which tuples materialize or retract.
    fn refresh_counting(
        &mut self,
        unit: &[&CompiledStratum],
        inputs: &Inputs,
        deltas: &mut RefreshDeltas,
        supports: &mut FxHashMap<String, SupportTable>,
        rs: &mut Refresh<'_>,
    ) -> Result<()> {
        for idb in &unit[unit.len() - 1].idbs {
            let rel_id = rel_id(&self.catalog, &idb.rel)?;
            let mut dc: FxHashMap<Vec<Value>, i64> = FxHashMap::default();
            let pass = Pass {
                strata: unit,
                rel: &idb.rel,
                pins: &[(&inputs.minus, -1), (&inputs.plus, 1)],
                inputs,
            };
            let booked = Some(&mut rs.stats.phase.eval);
            self.pinned_pass(pass, &SinkMode::Materialize, booked, |sign, out| {
                each_row(&out, |row| *dc.entry(row.to_vec()).or_insert(0) += sign)
            })?;
            let t_merge = Instant::now();
            let support = supports
                .entry(idb.rel.clone())
                .or_insert_with(|| SupportTable::new(idb.arity, 0));
            let mut dels: Vec<Vec<Value>> = Vec::new();
            let mut adds: Vec<Vec<Value>> = Vec::new();
            for (row, d) in dc.into_iter().filter(|&(_, d)| d != 0) {
                let after = support.add(&row, d);
                debug_assert!(after >= 0, "support count went negative for {row:?}");
                match (after - d > 0, after > 0) {
                    (true, false) => dels.push(row),
                    (false, true) => adds.push(row),
                    _ => {}
                }
            }
            rs.stats.phase.merge += t_merge.elapsed();
            if dels.is_empty() && adds.is_empty() {
                continue;
            }
            self.retract(rel_id, &dels, rs);
            if !adds.is_empty() {
                let cols = cols_from_rows(idb.arity, &adds);
                self.merge_delta(rel_id, cols, None, &mut rs.stats);
                rs.stats.view.view_tuples_seeded += adds.len() as u64;
            }
            let t_merge = Instant::now();
            deltas.publish(&idb.rel, adds, dels);
            rs.stats.phase.merge += t_merge.elapsed();
        }
        rs.stats.view.view_counting_strata += 1;
        Ok(())
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

/// ∆R of a monotonic head in head layout: one row per improved group of
/// `improved`, flattened as `[group ‖ best]` rows.
fn mono_delta(idb: &CompiledIdb, ms: &MonoState, improved: &[Value]) -> Relation {
    let g = ms.group_positions.len();
    let mut delta = Relation::new(Schema::with_arity(idb.delta_name.clone(), idb.arity));
    let mut out_row = vec![0 as Value; idb.arity];
    for row in improved.chunks(g + 1) {
        for (&pos, &v) in ms.group_positions.iter().zip(row) {
            out_row[pos] = v;
        }
        out_row[ms.agg_position] = row[g];
        delta.push_row(&out_row);
    }
    delta
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

/// Record first-iteration build-side choices (OOF-NA freezing).
fn freeze_choices(
    catalog: &RunCatalog<'_>,
    stratum: &CompiledStratum,
    idb: &CompiledIdb,
    states: &mut [IdbState],
    idx: usize,
) {
    // Sizes as of this iteration decide once and are kept.
    for (si, sq) in idb.subqueries.iter().enumerate() {
        for (ji, _) in sq.joins.iter().enumerate() {
            if states[idx].frozen[si][ji].is_none() {
                let left_rows = estimate_left_rows(catalog, stratum, states, sq, ji);
                let right_rows = scan_rows(catalog, stratum, states, sq, ji + 1);
                states[idx].frozen[si][ji] = Some(left_rows <= right_rows);
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

fn scan_rows(
    catalog: &RunCatalog<'_>,
    stratum: &CompiledStratum,
    states: &[IdbState],
    sq: &SubQuery,
    scan_idx: usize,
) -> usize {
    let scan = &sq.scans[scan_idx];
    let state = find_state(stratum, states, &scan.rel);
    match scan.version {
        AtomVersion::Base | AtomVersion::Full => catalog
            .lookup(&scan.rel)
            .map_or(0, |id| catalog.rel(id).len()),
        AtomVersion::Delta => state.map_or(0, |s| s.delta.len()),
        AtomVersion::Old => state.map_or(0, |s| s.old_len),
    }
}

fn estimate_left_rows(
    catalog: &RunCatalog<'_>,
    stratum: &CompiledStratum,
    states: &[IdbState],
    sq: &SubQuery,
    join_idx: usize,
) -> usize {
    // Rough estimate: the max scan size among already-joined atoms.
    (0..=join_idx)
        .map(|i| scan_rows(catalog, stratum, states, sq, i))
        .max()
        .unwrap_or(0)
}

/// Operator accounting carried out of subquery evaluation (folded into
/// [`EvalStats`] by [`EvalRun::step_idb`]).
#[derive(Default, Clone, Copy)]
struct Tally {
    /// Subqueries dispatched to the generic join.
    wcoj_runs: usize,
    /// Rows its leaf enumeration emitted into the sink, pre-dedup.
    wcoj_rows: usize,
    /// Rows the deduplicated chain stages were offered.
    stage_offered: usize,
    /// Rows they kept (materialized for the next join).
    stage_kept: usize,
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
    stratum: &CompiledStratum,
    idb: &CompiledIdb,
    states: &[IdbState],
    idx: usize,
    jcache: &mut JoinCache<'_>,
    sink: &SinkMode<'_>,
    seeded: bool,
) -> Result<EvalOut> {
    let out_arity = idb.arity;
    let mut unioned: Vec<Vec<Value>> = vec![Vec::new(); out_arity];
    let mut queries = 0usize;
    let mut tally = Tally::default();
    for (si, sq) in idb.subqueries.iter().enumerate() {
        // Seeded re-entry: subqueries with no ∆ scan re-derive only what
        // the maintenance seed pass already streamed; skipping them is
        // what makes a small-delta refresh cost |∆|-ish, not |R|-ish.
        if seeded && sq.delta_scan.is_none() {
            continue;
        }
        let cols = eval_subquery(
            ctx,
            cfg,
            catalog,
            stratum,
            sq,
            states,
            &states[idx].frozen[si],
            jcache,
            None,
            sink,
            &mut tally,
        )?;
        if cfg.uie {
            // One unified query: results land in a single output buffer.
            // The first subquery's columns are moved, not copied.
            append_cols(&mut unioned, cols);
        } else {
            // Individual evaluation: materialize a per-subquery temp table,
            // then merge — the extra query + copy of Figure 4 (left).
            let mut tmp = Relation::new(Schema::with_arity(idb.tmp_names[si].clone(), out_arity));
            tmp.append_columns(cols);
            for (c, dst) in unioned.iter_mut().enumerate() {
                dst.extend_from_slice(tmp.col(c));
            }
            queries += 2; // the INSERT plus its merge leg
        }
    }
    if cfg.uie {
        queries += 1;
    }
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
#[allow(clippy::too_many_arguments)]
fn eval_subquery<'a>(
    ctx: &ExecCtx,
    cfg: &Config,
    catalog: &'a RunCatalog<'_>,
    stratum: &CompiledStratum,
    sq: &SubQuery,
    states: &'a [IdbState],
    frozen: &[Option<bool>],
    jcache: &mut JoinCache<'_>,
    overrides: Option<&ScanOverrides<'a>>,
    sink: &SinkMode<'_>,
    tally: &mut Tally,
) -> Result<Vec<Vec<Value>>> {
    debug_assert!(
        overrides.is_none() || !jcache.enabled,
        "maintenance passes must run with the join cache disabled"
    );
    let source_of = |i: usize| -> Result<RelView<'a>> {
        let scan = &sq.scans[i];
        match overrides {
            Some(ovr) => match ovr.get(&i) {
                Some(v) => Ok(*v),
                None => Ok(catalog.rel(rel_id(catalog, &scan.rel)?).view()),
            },
            None => resolve_view(catalog, stratum, states, &scan.rel, scan.version),
        }
    };
    // Materialize filtered scans; untouched scans stay zero-copy views.
    let mut filtered: Vec<Option<Vec<Vec<Value>>>> = Vec::with_capacity(sq.scans.len());
    for (i, scan) in sq.scans.iter().enumerate() {
        let view = source_of(i)?;
        if scan.filters.is_empty() {
            filtered.push(None);
        } else {
            let identity: Vec<Expr> = (0..scan.arity).map(Expr::Col).collect();
            filtered.push(Some(project_filter(ctx, view, &identity, &scan.filters)));
        }
    }
    let view_of = |i: usize| -> Result<RelView<'_>> {
        match &filtered[i] {
            Some(cols) => Ok(RelView::over(cols)),
            None => source_of(i),
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
                views.push(view_of(i)?);
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
            let (cols, emitted) = wcoj_sink(&capped, &views, &spec, sink);
            tally.wcoj_runs += 1;
            tally.wcoj_rows += emitted;
            let rows = cols.first().map_or(0, Vec::len);
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
    let identity_of = |w: usize| -> Vec<Expr> { (0..w).map(Expr::Col).collect() };

    // Positive join chain.
    let mut acc: Vec<Vec<Value>>;
    if sq.scans.len() == 1 {
        let (output, residual): (Vec<Expr>, &[_]) = if has_neg {
            (identity_of(sq.width), sq.residual.as_slice())
        } else {
            (sq.head_exprs.clone(), sq.residual.as_slice())
        };
        let stage_sink = if has_neg {
            &SinkMode::Materialize
        } else {
            sink
        };
        acc = project_filter_sink(ctx, view_of(0)?, &output, residual, stage_sink);
    } else {
        acc = Vec::new();
        let mut width = sq.scans[0].arity;
        for (ji, join) in sq.joins.iter().enumerate() {
            let right = view_of(ji + 1)?;
            let left_is_first = ji == 0;
            let last = ji == sq.joins.len() - 1;
            let out_width = width + sq.scans[ji + 1].arity;
            let (output, residual): (Vec<Expr>, &[_]) = if last && !has_neg {
                (sq.head_exprs.clone(), sq.residual.as_slice())
            } else if last {
                (identity_of(out_width), sq.residual.as_slice())
            } else {
                (identity_of(out_width), &[])
            };
            let left_view = if left_is_first {
                view_of(0)?
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
            // distinct live value; the cap then counts survivors only.
            let distinct = match (&join.live, sink) {
                (Some(live), SinkMode::Delta(_)) if !last => Some(DistinctSink::new(live)),
                _ => None,
            };
            let distinct_mode = distinct.as_ref().map(SinkMode::Distinct);
            let stage_sink = if last && !has_neg {
                sink
            } else {
                distinct_mode.as_ref().unwrap_or(&SinkMode::Materialize)
            };
            if join.left_keys.is_empty() {
                acc = cross_join_sink(ctx, left_view, right, &output, residual, stage_sink);
            } else {
                // OOF: choose the build side from current sizes (Selective /
                // Full) or the frozen first-iteration choice (None).
                let build_left = match cfg.oof {
                    OofMode::None => frozen[ji].unwrap_or(left_view.len() <= right.len()),
                    _ => left_view.len() <= right.len(),
                };
                let spec = JoinSpec {
                    left_keys: &join.left_keys,
                    right_keys: &join.right_keys,
                    build_left,
                    output: &output,
                    residual,
                };
                // Serve the build side from the per-stratum cache when it
                // is an unfiltered catalog relation (EDBs and Full views
                // of IDBs): built once, appended thereafter.
                let cached = if !jcache.enabled {
                    None
                } else if build_left && left_is_first {
                    JoinCache::cacheable(catalog, &sq.scans[0])
                } else if !build_left {
                    JoinCache::cacheable(catalog, &sq.scans[ji + 1])
                } else {
                    None
                };
                acc = match cached {
                    Some(rel_id) if !left_view.is_empty() && !right.is_empty() => {
                        let (build_cols, probe_view, probe_cols) = if build_left {
                            (&join.left_keys, right, &join.right_keys)
                        } else {
                            (&join.right_keys, left_view, &join.left_keys)
                        };
                        let (table, mode) = jcache
                            .probe_ready(ctx, catalog, rel_id, build_cols, probe_view, probe_cols);
                        hash_join_prebuilt_sink(
                            ctx, left_view, right, &spec, table, mode, stage_sink,
                        )
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
    for (ni, neg) in sq.negations.iter().enumerate() {
        let base = resolve_view(catalog, stratum, states, &neg.rel, AtomVersion::Base)?;
        let neg_filtered;
        let neg_view = if neg.filters.is_empty() {
            base
        } else {
            let identity: Vec<Expr> = (0..neg.arity).map(Expr::Col).collect();
            neg_filtered = project_filter(ctx, base, &identity, &neg.filters);
            RelView::over(&neg_filtered)
        };
        let last = ni == sq.negations.len() - 1;
        let output: Vec<Expr> = if last {
            sq.head_exprs.clone()
        } else {
            identity_of(sq.width)
        };
        let stage_sink = if last { sink } else { &SinkMode::Materialize };
        let acc_view = RelView::over(&acc);
        // Anti-join build sides are always the negated (Base) relation:
        // cacheable whenever unfiltered, same rules as join builds.
        let cached = if jcache.enabled && neg.filters.is_empty() {
            catalog.lookup(&neg.rel)
        } else {
            None
        };
        acc = match cached {
            Some(rel_id) if !acc_view.is_empty() && !neg_view.is_empty() => {
                let (table, mode) = jcache.probe_ready(
                    ctx,
                    catalog,
                    rel_id,
                    &neg.right_keys,
                    acc_view,
                    &neg.left_keys,
                );
                anti_join_prebuilt_sink(
                    ctx,
                    acc_view,
                    neg_view,
                    &neg.left_keys,
                    &neg.right_keys,
                    &output,
                    table,
                    mode,
                    stage_sink,
                )
            }
            _ => anti_join_sink(
                ctx,
                acc_view,
                neg_view,
                &neg.left_keys,
                &neg.right_keys,
                &output,
                stage_sink,
            ),
        };
    }
    Ok(acc)
}

fn find_state<'a>(
    stratum: &CompiledStratum,
    states: &'a [IdbState],
    rel: &str,
) -> Option<&'a IdbState> {
    stratum
        .idbs
        .iter()
        .position(|i| i.rel == rel)
        .map(|p| &states[p])
}

fn resolve_view<'a>(
    catalog: &'a RunCatalog<'_>,
    stratum: &CompiledStratum,
    states: &'a [IdbState],
    rel: &str,
    version: AtomVersion,
) -> Result<RelView<'a>> {
    match version {
        AtomVersion::Base | AtomVersion::Full => Ok(catalog.rel(rel_id(catalog, rel)?).view()),
        AtomVersion::Delta => {
            let state = find_state(stratum, states, rel)
                .ok_or_else(|| Error::exec(format!("no delta state for '{rel}'")))?;
            Ok(state.delta.view(catalog.rel(state.rel_id)))
        }
        AtomVersion::Old => {
            let state = find_state(stratum, states, rel)
                .ok_or_else(|| Error::exec(format!("no old state for '{rel}'")))?;
            Ok(catalog
                .rel(rel_id(catalog, rel)?)
                .prefix_view(state.old_len))
        }
    }
}

/// Relation `name`'s id in `catalog`.
fn rel_id(catalog: &RunCatalog<'_>, name: &str) -> Result<RelId> {
    catalog
        .lookup(name)
        .ok_or_else(|| Error::exec(format!("unknown relation '{name}'")))
}
