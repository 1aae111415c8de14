//! Mini-QuickStep execution substrate: parallel relational operators.
//!
//! This crate implements the operators RecStep's interpreter issues against
//! the backend, including the two the paper singles out as the bottlenecks
//! of recursive query processing (§5: "set difference, deduplication"):
//!
//! * [`expr`] — scalar expressions and comparison predicates (the residual
//!   `x != y`, `d1 + d2`, … of rule bodies);
//! * [`key`] — compact concatenated key (CCK) layouts: packing a whole tuple
//!   into one 64-bit word so "the key itself is used as the hash value"
//!   (paper Figure 5);
//! * [`chain`] — the pre-allocated, latch-free separate-chaining hash table
//!   shared by deduplication and join builds (the paper's GSCHT);
//! * [`dedup`] — FAST-DEDUP: parallel insert-if-absent over the chain table,
//!   plus the incremental-index alternative studied as an ablation;
//! * [`index`] — persistent CCK-GSCHT indexes pinned to a relation's stable
//!   row ids: built once, grown incrementally across fixpoint iterations
//!   (the full-`R` side a [`sink::DeltaSink`] probes), plus the immutable
//!   [`index::SharedIndex`] snapshot form used for cross-run sharing;
//! * [`cache`] — the shared cross-run index cache: `Arc`-shared,
//!   version-keyed, build-once (`OnceLock` publish), with spill-aware
//!   coldest-first eviction scored by `bytes / rebuild_cost`;
//! * [`join`] — parallel hash equi-join with residual predicates and
//!   projection, cross join, and anti join (for stratified negation); every
//!   producing operator also has a `*_sink` form feeding a [`sink::SinkMode`];
//! * [`sink`] — the fused streaming delta pipeline: a [`sink::DeltaSink`]
//!   probed at the operators' emit sites fuses dedup + set difference into
//!   the join itself, so the UNION-ALL intermediate `Rt` never materializes
//!   (duplicates are dropped at the probe site, backed by
//!   [`chain::GrowChainTable`], whose nodes and bucket directory both grow
//!   in flight);
//! * [`setdiff`] — one-phase (OPSD) and two-phase (TPSD) set difference and
//!   the dynamic choice (DSD) driven by the Appendix A cost model;
//! * [`agg`] — hash group-by aggregation (MIN/MAX/SUM/COUNT/AVG) and the
//!   concurrent monotonic aggregate map behind recursive aggregation (CC,
//!   SSSP);
//! * [`util`] — morsel-driven production helpers shared by the operators;
//! * [`view`] — the support-count side table ([`view::SupportTable`],
//!   `GrowChainTable`-backed) behind counting-based incremental view
//!   maintenance of non-recursive strata;
//! * [`wcoj`] — the generic worst-case optimal multiway join: a
//!   variable-ordered intersect over per-scan sorted compact-key tries
//!   ([`wcoj::ScanTrie`]), sink-fused like every other producer, used by
//!   the planner for cyclic rule bodies.

#![deny(missing_docs)]

pub mod agg;
pub mod cache;
pub mod chain;
pub mod dedup;
pub mod expr;
pub mod index;
pub mod join;
pub mod key;
pub mod setdiff;
pub mod sink;
pub mod util;
pub mod view;
pub mod wcoj;

use std::sync::Arc;

use recstep_common::sched::ThreadPool;

/// Execution context shared by all operators.
#[derive(Clone)]
pub struct ExecCtx {
    /// Worker pool executing morsels.
    pub pool: Arc<ThreadPool>,
    /// Morsel size in rows.
    pub grain: usize,
    /// Row cap for operator outputs: producers stop emitting once reached
    /// (so a join cannot materialize past the memory budget), and callers
    /// treat outputs exceeding it as out-of-memory.
    pub row_cap: usize,
}

impl ExecCtx {
    /// Context over an existing pool with the default morsel size.
    pub fn new(pool: Arc<ThreadPool>) -> Self {
        ExecCtx {
            pool,
            grain: 4096,
            row_cap: usize::MAX,
        }
    }

    /// Context with a private pool of `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        Self::new(Arc::new(ThreadPool::new(threads)))
    }
}
