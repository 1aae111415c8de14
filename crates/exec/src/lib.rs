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
//!   behind deduplication, set difference and the indexes of growing
//!   relations (the paper's GSCHT);
//! * [`dedup`] — FAST-DEDUP: parallel insert-if-absent over the chain table,
//!   plus the incremental-index alternative studied as an ablation;
//! * [`index`] — the two index layouts. Build sides that grow are
//!   **chained**: a [`index::PersistentIndex`] is a CCK-GSCHT table pinned
//!   to a relation's stable row ids, built once and appended across
//!   fixpoint iterations (the full-`R` side a [`sink::DeltaSink`] probes,
//!   and join build sides over the running stratum's own IDBs). Build
//!   sides frozen while probed are **key-ordered**: an [`index::OrderedIndex`]
//!   counting-sorts the rows by bucket (the packed key when its span is
//!   dense, else `hash & mask`) and gathers them behind an offset array,
//!   so one key's matches are one contiguous run; a probe value outside
//!   its bounds matches nothing. [`index::SharedIndex`] is its cross-run
//!   form;
//! * [`cache`] — the shared cross-run index cache: `Arc`-shared,
//!   version-keyed, build-once (`OnceLock` publish), with spill-aware
//!   coldest-first eviction scored by `bytes / rebuild_cost`;
//! * [`join`] — parallel hash equi-join with residual predicates and
//!   projection, cross join, and anti join (for stratified negation),
//!   each over a key-ordered build side built per call or kept by the
//!   caller; an equi-join may also probe a growing IDB's chained index
//!   through the same probe loop. Every producing operator feeds a
//!   [`sink::SinkMode`];
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
//! * [`wcoj`] — the generic worst-case optimal multiway join: a
//!   variable-ordered leapfrog intersection with galloping cursors over
//!   per-scan sorted, decoded tries ([`wcoj::ScanTrie`]), sink-fused like
//!   every other producer, used by the planner for cyclic rule bodies.
//!
//! Incremental view maintenance has no operator of its own here: its two
//! strategies (∆-seeding and Backward/Forward, in `recstep-core`) run on
//! the [`sink::DeltaSink`] and the [`index::PersistentIndex`] above.

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
