//! Evaluation statistics: the instrumentation behind the paper's figures.
//!
//! Every counter is declared once, in the `counters!` table below: its
//! doc comment, its name, its type and its merge rule. The table
//! generates the four counter structs, each struct's `merge` and each
//! struct's `visit`, which yields one flat `(key, value)` pair per
//! counter. `recstep --stats` prints those pairs one `key: value` line
//! each, and the service's `/stats` reports them as its `lifetime`
//! object. A key is the field's name. A `Duration` is read in whole
//! microseconds under `<name>_us`, `strata` as its length, and a nested
//! group (`phase`, `index`, `view`) inlines its own keys.

use std::time::Duration;

use recstep_exec::setdiff::SetDiffAlgo;

/// Per-stratum observations.
#[derive(Clone, Debug, Default)]
pub struct StratumStats {
    /// Head relations of the stratum.
    pub idbs: Vec<String>,
    /// Iterations run (1 for non-recursive strata).
    pub iterations: usize,
    /// Whether PBME handled this stratum.
    pub pbme: bool,
}

/// Folds `other`'s value of one table entry into `self`'s, by the
/// entry's rule.
macro_rules! merge_by {
    (sum, $a:expr, $b:expr) => {
        $a += $b
    };
    (time, $a:expr, $b:expr) => {
        $a += $b
    };
    (max, $a:expr, $b:expr) => {
        $a = $a.max($b)
    };
    (last, $a:expr, $b:expr) => {
        $a = $b
    };
    (concat, $a:expr, $b:expr) => {
        $a.extend($b.iter().cloned())
    };
    (nested, $a:expr, $b:expr) => {
        $a.merge(&$b)
    };
}

/// Hands one table entry to a `visit` callback as `(key, value)`.
macro_rules! visit_by {
    (time, $f:ident, $key:ident, $v:expr) => {
        $f(concat!(stringify!($key), "_us"), $v.as_micros() as u64)
    };
    (concat, $f:ident, $key:ident, $v:expr) => {
        $f(stringify!($key), $v.len() as u64)
    };
    (nested, $f:ident, $key:ident, $v:expr) => {
        $v.visit($f)
    };
    ($rule:ident, $f:ident, $key:ident, $v:expr) => {
        $f(stringify!($key), $v as u64)
    };
}

/// The counter table. Each entry is `rule name: Type`, under its doc
/// comment. The rules:
///
/// * `sum` — a counter: runs add up;
/// * `time` — a `Duration` that adds up, visited as `<name>_us`;
/// * `max` — a peak: the larger wins;
/// * `last` — a gauge: the later run's snapshot wins;
/// * `concat` — a list: runs append, visited as its length;
/// * `nested` — a group of its own: merged and visited by its own table.
macro_rules! counters {
    ($(
        $(#[$attr:meta])*
        pub struct $name:ident {
            $(
                $(#[$fattr:meta])*
                $rule:ident $field:ident: $ty:ty,
            )*
        }
    )*) => {$(
        $(#[$attr])*
        pub struct $name {
            $(
                $(#[$fattr])*
                pub $field: $ty,
            )*
        }

        impl $name {
            /// Fold another run's statistics into this accumulator, entry
            /// by entry (the service's lifetime aggregate behind `/stats`):
            /// counters and durations sum, peaks take the maximum, the
            /// `cache_bytes` gauge takes the later snapshot, per-stratum
            /// details concatenate. Plain field-wise work, no allocation
            /// beyond the appended strata.
            pub fn merge(&mut self, other: &$name) {
                $(merge_by!($rule, self.$field, other.$field);)*
            }

            /// Hand every counter to `f` as a flat `(key, value)`, in
            /// declaration order, with nested groups inlined.
            pub fn visit(&self, f: &mut impl FnMut(&'static str, u64)) {
                $(visit_by!($rule, f, $field, self.$field);)*
            }
        }
    )*};
}

counters! {
    /// Wall-clock time spent in each engine phase.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct PhaseTimes {
        /// Rule-body evaluation (joins, projections) on the materializing path.
        time eval: Duration,
        /// The fused streaming pipeline: rule-body evaluation with dedup + set
        /// difference pushed into the operators' probe loops (replaces
        /// `eval` + `dedup` + `setdiff` when the pipeline is fused).
        time pipeline: Duration,
        /// Deduplication.
        time dedup: Duration,
        /// Set difference.
        time setdiff: Duration,
        /// Aggregation (group-by and monotonic absorb).
        time aggregate: Duration,
        /// Merging ∆R into R.
        time merge: Duration,
        /// `analyze()` statistics collection.
        time analyze: Duration,
        /// Persistent-index maintenance (incremental appends, rehashes).
        time index: Duration,
        /// Persistent-storage I/O. Always zero: evaluation is in-memory and
        /// writes no file (the I/O the paper's §5.2 store would do is counted
        /// in [`EvalStats::io_bytes`] instead). Kept for report compatibility.
        time io: Duration,
        /// Bit-matrix evaluation, including the checks that refused a matrix.
        time pbme: Duration,
    }

    /// Hash-index build/append accounting: the rebuild-vs-incremental
    /// instrumentation behind the `index_reuse` ablation. With reuse on, the
    /// full-R table of each recursive IDB is built once and appended
    /// thereafter; with reuse off every iteration rebuilds it, and these
    /// counters make the difference directly plottable.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct IndexStats {
        /// Membership tables built from scratch for the dedup/set-difference
        /// stage. With reuse on this counts persistent full-R index builds
        /// (one per recursive IDB per stratum, plus at most one compact-key
        /// invalidation rebuild); with reuse off it counts every table a set
        /// difference rebuilt per iteration — OPSD builds on all of R, TPSD
        /// on the smaller of Rδ/R plus the intersection, so the off-path
        /// count is per-iteration table *builds*, not all of them R-sized.
        sum full_builds: usize,
        /// Incremental appends into persistent full-R indexes.
        sum full_appends: usize,
        /// Transient Rt-sized dedup tables (the fused pass's scratch, or the
        /// rebuild path's per-iteration dedup table).
        sum scratch_builds: usize,
        /// Join/anti-join build sides built into the run's cache: chained
        /// indexes over a stratum's own IDBs, key-ordered ones over relations
        /// frozen for the stratum — EDBs and lower strata's IDBs (the run's
        /// own, or shared-cache publishes it paid for).
        sum join_builds: usize,
        /// Incremental appends into cached join build-side tables.
        sum join_appends: usize,
        /// Joins that probed a cached build-side table without any insert.
        sum join_reuses: usize,
        /// Probes served by the shared cross-run index cache (an index some
        /// earlier — possibly concurrent — run already built).
        sum cache_hits: usize,
        /// Shared-cache misses this run paid for by building (and publishing)
        /// the index. Across N concurrent runs over one database, hits and
        /// misses sum so that each frozen index is built exactly once.
        sum cache_misses: usize,
        /// Entries the shared cache evicted on this run's behalf (budget
        /// pressure at publish time or the engine's pre-OOM spill).
        sum cache_evictions: usize,
        /// Resident bytes of the shared cache when the run finished.
        last cache_bytes: usize,
        /// Final IDB result indexes this run published into the shared cache
        /// (`publish_idb_indexes`): key-ordered whole-tuple indexes over the
        /// results, for later programs that join against them frozen.
        sum published: usize,
        /// Rows inserted by from-scratch builds (persistent indexes only).
        sum build_rows: usize,
        /// Rows inserted by incremental appends (persistent indexes only).
        sum append_rows: usize,
        /// Peak bytes held by persistent indexes plus their scratch tables.
        max bytes_peak: usize,
    }

    /// Incremental view maintenance accounting: how a standing materialized
    /// view absorbed `/facts` commits with its two strategies — ∆-seeded
    /// re-entries for insertions, and under deletions a dead set read off the
    /// closure matrix (TC/SG units) or found by Backward/Forward proof
    /// checks, for recursive and non-recursive strata alike — and full
    /// scratch recomputes when the program shape (aggregation, negation,
    /// inline facts) or a failed refresh forces the fallback.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct ViewStats {
        /// Incremental refreshes applied to a standing view.
        sum view_refreshes: u64,
        /// Strata re-entered from insertion-seeded deltas alone.
        sum view_seeded_strata: u64,
        /// Units maintained under deletions whose Backward/Forward proof
        /// search ran: deletion candidates checked for a surviving proof, the
        /// unproved retracted, the stratum re-entered seeded from the commit's
        /// inserts. Units whose dead set came off the closure matrix are
        /// counted in `view_matrix_strata` instead.
        sum view_bf_strata: u64,
        /// Units maintained under deletions whose dead set was read off the
        /// PBME closure matrix (TC- and SG-shaped units, no proof search):
        /// the IDB rows outside the closure of the post-commit exit rows
        /// retracted, the stratum re-entered seeded from the commit's inserts.
        sum view_matrix_strata: u64,
        /// Refreshes answered by a full from-scratch recompute instead
        /// (ineligible program shape, ineligible commit, or a failed refresh).
        sum view_fallbacks: u64,
        /// Fresh tuples appended by ∆-seeding passes (including the insert
        /// seeds of a Backward/Forward stratum); the fixpoint re-entry's own
        /// ∆ rows are not counted.
        sum view_tuples_seeded: u64,
        /// Tuples retracted under deletions, by either route.
        sum view_tuples_retracted: u64,
    }

    /// Statistics of one `run` of the engine.
    #[derive(Clone, Debug, Default)]
    pub struct EvalStats {
        /// End-to-end wall time.
        time total: Duration,
        /// Phase breakdown.
        nested phase: PhaseTimes,
        /// Per-stratum details.
        concat strata: Vec<StratumStats>,
        /// Total fixpoint iterations across strata.
        sum iterations: usize,
        /// Queries issued to the backend (the per-query overhead UIE batches).
        sum queries_issued: usize,
        /// Tuples produced by rule evaluation before deduplication.
        sum tuples_considered: usize,
        /// Rows the non-final joins of multi-atom chains offered to their
        /// project-then-dedup stage (set-semantic passes only; the planner's
        /// `JoinStep::live`).
        sum intermediate_rows_offered: usize,
        /// Those rows the stages kept, one per distinct live value: what the
        /// next join actually read.
        sum intermediate_rows_kept: usize,
        /// How often each set-difference algorithm ran.
        sum opsd_runs: usize,
        /// How often each set-difference algorithm ran.
        sum tpsd_runs: usize,
        /// Fused dedup+set-difference passes against a persistent index (the
        /// `index_reuse` replacement for an OPSD/TPSD + dedup pair), whether
        /// streaming or over a materialized `Rt`.
        sum fused_runs: usize,
        /// Fused *streaming* pipeline passes: `Rt` never materialized,
        /// duplicates dropped at the operators' probe sites.
        sum pipeline_runs: usize,
        /// Candidate rows the streaming pipeline dropped at the probe site
        /// (rows the materializing path would have buffered, merged, flushed
        /// and re-scanned before discarding them).
        sum rt_rows_skipped_at_source: usize,
        /// Bytes those dropped rows would have occupied in a materialized `Rt`.
        sum rt_bytes_never_materialized: usize,
        /// Bytes of UNION-ALL (`Rt`) candidate columns materialized and merged
        /// by the non-streaming path. Zero under the fused pipeline — the
        /// acceptance signal that duplicates die at the probe site.
        sum rt_merge_bytes: usize,
        /// Joins that probed a frozen relation's key-ordered index with their
        /// other input (a ∆, an intermediate, or a smaller relation) — the
        /// direction rule's cost choice, kept index and all.
        sum delta_probe_joins: usize,
        /// Subquery evaluations dispatched to the generic worst-case optimal
        /// join (cyclic bodies walked as one variable-ordered intersection
        /// instead of a chain of binary joins).
        sum wcoj_runs: usize,
        /// Rows the WCOJ leaf enumeration emitted into its sink, pre-dedup —
        /// one per distinct variable binding, never one per intermediate
        /// row-combination.
        sum wcoj_rows_emitted: usize,
        /// Of those, rows a WCOJ subquery materialized without the sink
        /// because they were provably distinct: a head keeping every variable,
        /// an empty `R`, no sampler and no other subquery feeding the IDB.
        sum wcoj_rows_direct: usize,
        /// Group-at-source streaming aggregation passes: aggregated heads
        /// whose produced rows were folded into concurrent aggregate state at
        /// the probe site instead of materializing a pre-aggregation `Rt`.
        sum agg_sink_runs: usize,
        /// Those aggregation passes whose `MIN`/`MAX` map had a
        /// direct-addressed window over compact group keys (keys outside it
        /// still escape to the hashed table in the same pass).
        sum agg_dense_sinks: usize,
        /// Candidate rows the aggregation sink folded at source (rows the
        /// materializing path would have buffered into `Rt`, merged, and
        /// re-scanned by the group-by pass).
        sum agg_rows_folded_at_source: usize,
        /// Groups the aggregation sink emitted as ∆: strict improvements for
        /// monotonic (recursive MIN/MAX) heads, all result groups for one-shot
        /// group-by heads.
        sum agg_groups_improved: usize,
        /// Improved groups of value-ordered recursive `MIN`/`MAX` heads that
        /// the drain right after their improvement left pending for a later
        /// iteration (the ∆ took only the lowest-valued bucket); 0 when every
        /// drain took all its improved groups.
        sum agg_groups_deferred: usize,
        /// Rows the sink-side reservoir handed to the OOF-FA statistics pass
        /// in place of a full `Rt` re-scan (0 unless `--oof-fa` streams
        /// through an aggregation sink).
        sum sink_stat_samples: usize,
        /// Bucket-directory doublings of the fused sinks' hash tables (the
        /// scratch table of every `DeltaSink` pass plus the monotonic map of
        /// every recursive aggregation pass), summed at flush: how many times
        /// a pass outgrew the capacity its table started with. The tables
        /// double in flight, so this costs allocation, never chain length.
        sum sink_table_doublings: usize,
        /// Set-sink passes served by a bit window instead of a hash table
        /// (see `exec::sink`): `DeltaSink` passes whose full-R index keeps
        /// a membership window of `R`, plus deduplicated chain stages
        /// whose live columns pack narrowly. 0 when every key is wide.
        sum sink_windows: usize,
        /// Hash-index build/append accounting (rebuild vs. incremental).
        nested index: IndexStats,
        /// Peak engine-estimated heap bytes (relations + operator tables).
        max peak_bytes: usize,
        /// Bytes a per-query-commit store (paper §5.2) would have written in
        /// this run — counted, not written. Zero for shared-mode runs.
        sum io_bytes: u64,
        /// Flushes that store would have performed in this run (one per
        /// non-empty derived table under EOST).
        sum io_flushes: u64,
        /// Worker busy-time over the run (for CPU-utilization reporting).
        time busy: Duration,
        /// Bit-matrix bytes allocated, when PBME ran (0 when the memory-fit
        /// or cost rule refused the matrix).
        max pbme_matrix_bytes: usize,
        /// Strongly connected components of `arc` that PBME's TC closure ran
        /// Algorithm 2 over (0 when no TC stratum took PBME: the rules run
        /// before the condensation).
        sum pbme_components: usize,
        /// Incremental view maintenance accounting (all zero outside the
        /// query service's standing materialized views).
        nested view: ViewStats,
    }
}

impl EvalStats {
    /// Record a set-difference algorithm choice.
    pub(crate) fn note_setdiff(&mut self, algo: SetDiffAlgo) {
        match algo {
            SetDiffAlgo::Opsd => self.opsd_runs += 1,
            SetDiffAlgo::Tpsd => self.tpsd_runs += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setdiff_counting() {
        let mut s = EvalStats::default();
        s.note_setdiff(SetDiffAlgo::Opsd);
        s.note_setdiff(SetDiffAlgo::Opsd);
        s.note_setdiff(SetDiffAlgo::Tpsd);
        assert_eq!(s.opsd_runs, 2);
        assert_eq!(s.tpsd_runs, 1);
    }

    #[test]
    fn merge_sums_counters_and_maxes_peaks() {
        let mut acc = EvalStats {
            iterations: 3,
            peak_bytes: 100,
            sink_table_doublings: 2,
            agg_dense_sinks: 1,
            total: Duration::from_secs(1),
            ..Default::default()
        };
        acc.index.cache_hits = 1;
        acc.index.cache_bytes = 10;
        acc.index.bytes_peak = 50;
        let mut other = EvalStats {
            iterations: 4,
            peak_bytes: 80,
            sink_table_doublings: 5,
            total: Duration::from_secs(2),
            ..Default::default()
        };
        other.index.cache_hits = 2;
        other.index.cache_bytes = 7;
        other.index.bytes_peak = 60;
        other.strata.push(StratumStats::default());
        acc.merge(&other);
        assert_eq!(acc.iterations, 7);
        assert_eq!(acc.sink_table_doublings, 7);
        assert_eq!(acc.agg_dense_sinks, 1);
        assert_eq!(acc.total, Duration::from_secs(3));
        assert_eq!(acc.peak_bytes, 100, "peaks take the max");
        assert_eq!(acc.index.cache_hits, 3);
        assert_eq!(acc.index.cache_bytes, 7, "gauge takes the later snapshot");
        assert_eq!(acc.index.bytes_peak, 60);
        assert_eq!(acc.strata.len(), 1);
    }

    #[test]
    fn visit_yields_one_flat_key_per_counter() {
        let mut s = EvalStats {
            total: Duration::from_micros(1500),
            iterations: 4,
            ..Default::default()
        };
        s.phase.pbme = Duration::from_millis(2);
        s.index.cache_hits = 5;
        s.view.view_fallbacks = 6;
        s.strata.push(StratumStats::default());
        let mut seen = Vec::new();
        s.visit(&mut |key, value| seen.push((key, value)));
        let read = |key: &str| seen.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
        assert_eq!(read("total_us"), Some(1500));
        assert_eq!(read("pbme_us"), Some(2000));
        assert_eq!(read("strata"), Some(1));
        assert_eq!(read("iterations"), Some(4));
        assert_eq!(read("cache_hits"), Some(5), "nested groups are inlined");
        assert_eq!(read("view_fallbacks"), Some(6));
        assert_eq!(read("total"), None, "a duration is keyed `<name>_us`");
        let mut keys: Vec<_> = seen.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), seen.len(), "keys are unique");
    }
}
