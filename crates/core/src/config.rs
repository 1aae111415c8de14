//! Engine configuration: every optimization of paper §5 is a toggle so the
//! Figure 2/3 ablations can turn each one off individually.

use recstep_exec::dedup::DedupImpl;
use recstep_exec::setdiff::SetDiffStrategy;
use recstep_storage::wal::Durability;

/// Statistics-collection policy driving on-the-fly re-optimization (§5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OofMode {
    /// OOF-NA: plans are frozen after the first iteration (the same query
    /// plan at every iteration).
    None,
    /// RecStep's default: collect exactly the statistics each operator
    /// needs — sizes for join build-side choice, a conservative distinct
    /// estimate for dedup sizing, min/max/sum only where aggregation needs
    /// them.
    Selective,
    /// OOF-FA: collect the full statistics of every updated table at every
    /// iteration.
    Full,
}

/// When to use parallel bit-matrix evaluation (§5.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PbmeMode {
    /// Never.
    Off,
    /// Use it when the stratum matches the TC/SG pattern *and* the matrix
    /// plus index fit the memory budget (the paper's build condition).
    Auto,
    /// Use it whenever the pattern matches, regardless of the budget check.
    Force,
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Unified IDB evaluation: issue all subqueries of an IDB as one query
    /// (§5.1 UIE). Off = one query per subquery with separate temp tables.
    pub uie: bool,
    /// Statistics / re-optimization policy (§5.1 OOF).
    pub oof: OofMode,
    /// Set-difference strategy (§5.1 DSD; `Dynamic` is the paper's choice).
    pub setdiff: SetDiffStrategy,
    /// Evaluation as one single transaction (§5.2 EOST). Off = flush dirty
    /// state after every state-changing query.
    pub eost: bool,
    /// Deduplication implementation (§5.2 FAST-DEDUP = `Fast`).
    pub dedup: DedupImpl,
    /// Keep hash indexes alive across fixpoint iterations: the full-R
    /// dedup/set-difference table is built once per stratum and appended
    /// thereafter (fused into one pass over Rt), and join build sides over
    /// unchanged catalog relations are cached. Off = rebuild every table
    /// at every iteration (the paper's Algorithm 1, kept for ablations).
    pub index_reuse: bool,
    /// Fused streaming delta pipeline: push dedup + set difference into
    /// the final operator of every subquery, so the UNION-ALL intermediate
    /// `Rt` is never materialized — duplicates are dropped at the probe
    /// site. Applies to non-aggregated IDBs when `index_reuse`, `uie` and
    /// `eost` are on; under OOF-FA a reservoir sampler attached to the
    /// sink stands in for the `Rt` the statistics pass would otherwise
    /// re-scan. Off = buffer `Rt` first, then drain it through the same
    /// sink in a second pass (for ablations).
    pub fused_pipeline: bool,
    /// Group-at-source streaming aggregation: aggregated heads (recursive
    /// MIN/MAX and non-recursive group-by) stream every produced row into
    /// a concurrent aggregate state at the probe site — a CAS-on-best
    /// monotonic map whose dirty list *is* ∆R, or sharded group-by
    /// partials merged once at sink flush — so the pre-aggregation `Rt`
    /// is never materialized, and OOF-FA statistics are sampled from the
    /// sink (reservoir + exact counts) instead of re-scanning `Rt`.
    /// Applies when `uie` and `eost` are on. Off = group over a
    /// materialized `Rt` in a second pass (for ablations).
    pub fused_agg: bool,
    /// Shared cross-run index cache: join build-side indexes over frozen
    /// relations (EDBs, relations this program never derives) are
    /// published into the database-owned [`recstep_exec::cache::IndexCache`]
    /// keyed by `(relation, catalog version, key columns)`, so N runs over
    /// one database — sequential or concurrent — build each such index
    /// exactly once. Off = every run rebuilds its own indexes (the
    /// pre-cache per-run behavior, kept for ablations).
    pub shared_index_cache: bool,
    /// Resident-byte budget of the shared index cache. A publish that
    /// would exceed it evicts coldest entries first (scored by
    /// `bytes / rebuild_cost`), and the engine's memory-pressure path
    /// spills the cache before reporting OOM.
    pub index_cache_budget_bytes: usize,
    /// Publish the final full-`R` indexes of a run's IDB *results* into
    /// the shared index cache (exclusive, store-committed runs only), so
    /// a later program that joins or anti-joins against those now-frozen
    /// relations reuses the table this run already built. Off by default:
    /// one-shot CLI runs would only pay the resident bytes — the query
    /// service and its warmup path turn it on.
    pub publish_idb_indexes: bool,
    /// Bit-matrix evaluation policy (§5.3 PBME).
    pub pbme: PbmeMode,
    /// Memory budget in bytes. Evaluations exceeding it abort with an
    /// out-of-memory error (how the harness reports OOM bars honestly).
    pub mem_budget_bytes: usize,
    /// Morsel size for parallel operators.
    pub grain: usize,
    /// Maintain standing materialized views over prepared programs: the
    /// query service keeps a completed run's IDB relations and full-`R`
    /// indexes alive and answers version-bumped queries by incremental
    /// maintenance (∆-seeded semi-naive re-entry for insertions,
    /// counting or Backward/Forward for deletions) instead of recompiling + rerunning
    /// from scratch. `--no-incremental` is the ablation switch.
    pub incremental_views: bool,
    /// Worst-case optimal multiway joins: subqueries whose body is a
    /// *cyclic* join hypergraph (the triangle query, longer cycles) are
    /// evaluated by a variable-ordered generic join over sorted
    /// compact-key tries instead of the binary chain, bounding work by
    /// the AGM output bound rather than the largest binary intermediate.
    /// The planner attaches the WCOJ plan at compile time; this flag picks
    /// it at run time, so `--no-wcoj` ablates without recompiling.
    /// Acyclic bodies always keep their binary plans.
    pub wcoj: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            threads: 0,
            uie: true,
            oof: OofMode::Selective,
            setdiff: SetDiffStrategy::Dynamic,
            eost: true,
            dedup: DedupImpl::Fast,
            index_reuse: true,
            fused_pipeline: true,
            fused_agg: true,
            shared_index_cache: true,
            index_cache_budget_bytes: 2 << 30,
            publish_idb_indexes: false,
            pbme: PbmeMode::Auto,
            mem_budget_bytes: 8 << 30,
            grain: 4096,
            incremental_views: true,
            wcoj: true,
        }
    }
}

impl Config {
    /// All optimizations on (the paper's RecStep configuration).
    pub fn recstep() -> Self {
        Config::default()
    }

    /// Everything off (the paper's RecStep-NO-OP ablation point).
    pub fn no_op() -> Self {
        Config {
            uie: false,
            oof: OofMode::None,
            setdiff: SetDiffStrategy::AlwaysOpsd,
            eost: false,
            dedup: DedupImpl::Generic,
            index_reuse: false,
            fused_pipeline: false,
            fused_agg: false,
            shared_index_cache: false,
            pbme: PbmeMode::Off,
            wcoj: false,
            ..Config::default()
        }
    }

    /// Toggle standing materialized views (incremental maintenance).
    pub fn incremental_views(mut self, on: bool) -> Self {
        self.incremental_views = on;
        self
    }

    /// Toggle worst-case optimal joins on cyclic rule bodies (off = the
    /// binary join chain everywhere).
    pub fn wcoj(mut self, on: bool) -> Self {
        self.wcoj = on;
        self
    }

    /// Set worker threads.
    pub fn threads(mut self, t: usize) -> Self {
        self.threads = t;
        self
    }

    /// Toggle UIE.
    pub fn uie(mut self, on: bool) -> Self {
        self.uie = on;
        self
    }

    /// Set the OOF mode.
    pub fn oof(mut self, mode: OofMode) -> Self {
        self.oof = mode;
        self
    }

    /// Set the set-difference strategy.
    pub fn setdiff(mut self, s: SetDiffStrategy) -> Self {
        self.setdiff = s;
        self
    }

    /// Toggle EOST.
    pub fn eost(mut self, on: bool) -> Self {
        self.eost = on;
        self
    }

    /// Set the dedup implementation.
    pub fn dedup(mut self, d: DedupImpl) -> Self {
        self.dedup = d;
        self
    }

    /// Toggle persistent incremental indexes (off = per-iteration rebuild).
    pub fn index_reuse(mut self, on: bool) -> Self {
        self.index_reuse = on;
        self
    }

    /// Toggle the fused streaming delta pipeline (off = materialize `Rt`
    /// and drain it through the same sink in a second pass).
    pub fn fused_pipeline(mut self, on: bool) -> Self {
        self.fused_pipeline = on;
        self
    }

    /// Toggle group-at-source streaming aggregation (off = group over a
    /// materialized pre-aggregation `Rt` in a second pass).
    pub fn fused_agg(mut self, on: bool) -> Self {
        self.fused_agg = on;
        self
    }

    /// Toggle the shared cross-run index cache (off = per-run indexes).
    pub fn shared_index_cache(mut self, on: bool) -> Self {
        self.shared_index_cache = on;
        self
    }

    /// Set the shared index cache's resident-byte budget.
    pub fn index_cache_budget(mut self, bytes: usize) -> Self {
        self.index_cache_budget_bytes = bytes;
        self
    }

    /// Toggle publishing final IDB result indexes into the shared cache.
    pub fn publish_idb_indexes(mut self, on: bool) -> Self {
        self.publish_idb_indexes = on;
        self
    }

    /// Set the PBME mode.
    pub fn pbme(mut self, mode: PbmeMode) -> Self {
        self.pbme = mode;
        self
    }

    /// Set the memory budget in bytes.
    pub fn mem_budget(mut self, bytes: usize) -> Self {
        self.mem_budget_bytes = bytes;
        self
    }

    /// Resolved thread count.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// Configuration of the long-lived query service (`recstep serve`).
///
/// Admission control is deliberately simple and fully bounded: at most
/// `max_concurrent_runs` evaluations execute at once, at most
/// `queue_depth` requests wait for a permit, and everything beyond that
/// is shed immediately with `429`/`Retry-After`. Each admitted request
/// carries a deadline (`request_timeout_ms`) that doubles as the
/// cooperative cancellation point of its fixpoint.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7171`.
    pub addr: String,
    /// Maximum evaluations in flight at once (`--max-concurrent-runs`,
    /// clamped to ≥ 1). Backpressure, not parallelism: each run already
    /// fans out over the engine's worker pool.
    pub max_concurrent_runs: usize,
    /// Maximum requests allowed to wait for a run permit
    /// (`--queue-depth`); callers beyond it are shed with `429`.
    pub queue_depth: usize,
    /// Per-request wall-clock budget in milliseconds
    /// (`--request-timeout-ms`), covering both queue wait and evaluation;
    /// an over-budget fixpoint is cancelled at its next iteration
    /// boundary.
    pub request_timeout_ms: u64,
    /// Programs evaluated at startup (`--warmup FILE`, repeatable): each
    /// runs exclusively with `publish_idb_indexes` on, so the caches are
    /// hot before the first client connects.
    pub warmup: Vec<String>,
    /// Prepared-program cache capacity (entries); least-recently-used
    /// programs are evicted past it.
    pub prepared_capacity: usize,
    /// Durable-state directory (`--data-dir`). When set (and `durability`
    /// is not [`Durability::Off`]) the server write-ahead-logs every
    /// `/facts` commit there, snapshots the database periodically, and
    /// restores snapshot-then-WAL-tail on startup. `None` = in-memory
    /// only, the pre-durability behaviour.
    pub data_dir: Option<String>,
    /// WAL sync policy (`--durability {off,commit,batch}`): `commit`
    /// fsyncs per `/facts` commit (an acked commit survives `kill -9`),
    /// `batch` defers the fsync to snapshots/shutdown, `off` disables the
    /// WAL entirely even with a data dir.
    pub durability: Durability,
    /// Snapshot + WAL-compaction threshold
    /// (`--snapshot-every-n-commits`): after this many logged commits the
    /// server writes a fresh snapshot and resets the log to a barrier.
    /// 0 = never snapshot (the log grows unboundedly).
    pub snapshot_every_n_commits: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7171".into(),
            max_concurrent_runs: 2,
            queue_depth: 32,
            request_timeout_ms: 30_000,
            warmup: Vec::new(),
            prepared_capacity: 64,
            data_dir: None,
            durability: Durability::Commit,
            snapshot_every_n_commits: 64,
        }
    }
}

impl ServeConfig {
    /// Set the listen address.
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Set the concurrent-run cap.
    pub fn max_concurrent_runs(mut self, n: usize) -> Self {
        self.max_concurrent_runs = n.max(1);
        self
    }

    /// Set the admission queue depth.
    pub fn queue_depth(mut self, n: usize) -> Self {
        self.queue_depth = n;
        self
    }

    /// Set the per-request timeout in milliseconds.
    pub fn request_timeout_ms(mut self, ms: u64) -> Self {
        self.request_timeout_ms = ms;
        self
    }

    /// Add a warmup program file.
    pub fn warmup(mut self, path: impl Into<String>) -> Self {
        self.warmup.push(path.into());
        self
    }

    /// Set the prepared-program cache capacity.
    pub fn prepared_capacity(mut self, n: usize) -> Self {
        self.prepared_capacity = n.max(1);
        self
    }

    /// Set the durable-state directory.
    pub fn data_dir(mut self, dir: impl Into<String>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// Set the WAL sync policy.
    pub fn durability(mut self, d: Durability) -> Self {
        self.durability = d;
        self
    }

    /// Set the snapshot/compaction threshold (0 = never snapshot).
    pub fn snapshot_every_n_commits(mut self, n: u64) -> Self {
        self.snapshot_every_n_commits = n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_optimizations_on() {
        let c = Config::recstep();
        assert!(c.uie);
        assert!(c.eost);
        assert!(c.index_reuse);
        assert!(c.fused_pipeline);
        assert!(c.fused_agg);
        assert!(c.shared_index_cache);
        assert!(c.wcoj);
        assert!(c.index_cache_budget_bytes > 0);
        assert_eq!(c.oof, OofMode::Selective);
        assert_eq!(c.setdiff, SetDiffStrategy::Dynamic);
        assert_eq!(c.dedup, DedupImpl::Fast);
        assert_eq!(c.pbme, PbmeMode::Auto);
    }

    #[test]
    fn no_op_turns_everything_off() {
        let c = Config::no_op();
        assert!(!c.uie);
        assert!(!c.eost);
        assert!(!c.index_reuse);
        assert!(!c.fused_pipeline);
        assert!(!c.fused_agg);
        assert!(!c.shared_index_cache);
        assert!(!c.wcoj);
        assert_eq!(c.oof, OofMode::None);
        assert_eq!(c.setdiff, SetDiffStrategy::AlwaysOpsd);
        assert_eq!(c.dedup, DedupImpl::Generic);
        assert_eq!(c.pbme, PbmeMode::Off);
    }

    #[test]
    fn builder_chains() {
        let c = Config::default()
            .threads(3)
            .uie(false)
            .eost(false)
            .mem_budget(1024);
        assert_eq!(c.effective_threads(), 3);
        assert!(!c.uie);
        assert_eq!(c.mem_budget_bytes, 1024);
    }

    #[test]
    fn zero_threads_resolves_to_cores() {
        assert!(Config::default().effective_threads() >= 1);
    }

    #[test]
    fn serve_config_defaults_and_builders() {
        let s = ServeConfig::default();
        assert!(s.max_concurrent_runs >= 1);
        assert!(s.prepared_capacity >= 1);
        assert!(s.warmup.is_empty());
        let s = ServeConfig::default()
            .addr("0.0.0.0:9000")
            .max_concurrent_runs(0)
            .queue_depth(4)
            .request_timeout_ms(500)
            .warmup("w.datalog")
            .prepared_capacity(0);
        assert_eq!(s.addr, "0.0.0.0:9000");
        assert_eq!(s.max_concurrent_runs, 1, "clamped to ≥ 1");
        assert_eq!(s.queue_depth, 4);
        assert_eq!(s.request_timeout_ms, 500);
        assert_eq!(s.warmup, vec!["w.datalog".to_string()]);
        assert_eq!(s.prepared_capacity, 1, "clamped to ≥ 1");
    }
}
