//! Evaluation statistics: the instrumentation behind the paper's figures.

use std::time::Duration;

use recstep_exec::setdiff::SetDiffAlgo;

/// Wall-clock time spent in each engine phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Rule-body evaluation (joins, projections) on the materializing path.
    pub eval: Duration,
    /// The fused streaming pipeline: rule-body evaluation with dedup + set
    /// difference pushed into the operators' probe loops (replaces
    /// `eval` + `dedup` + `setdiff` when the pipeline is fused).
    pub pipeline: Duration,
    /// Deduplication.
    pub dedup: Duration,
    /// Set difference.
    pub setdiff: Duration,
    /// Aggregation (group-by and monotonic absorb).
    pub aggregate: Duration,
    /// Merging ∆R into R.
    pub merge: Duration,
    /// `analyze()` statistics collection.
    pub analyze: Duration,
    /// Persistent-index maintenance (incremental appends, rehashes).
    pub index: Duration,
    /// Persistent-storage I/O. Always zero: evaluation is in-memory and
    /// writes no file (the I/O the paper's §5.2 store would do is counted
    /// in [`EvalStats::io_bytes`] instead). Kept for report compatibility.
    pub io: Duration,
    /// Bit-matrix evaluation.
    pub pbme: Duration,
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
    pub full_builds: usize,
    /// Incremental appends into persistent full-R indexes.
    pub full_appends: usize,
    /// Transient Rt-sized dedup tables (the fused pass's scratch, or the
    /// rebuild path's per-iteration dedup table).
    pub scratch_builds: usize,
    /// Join/anti-join build-side tables built into the per-stratum cache.
    pub join_builds: usize,
    /// Incremental appends into cached join build-side tables.
    pub join_appends: usize,
    /// Joins that probed a cached build-side table without any insert.
    pub join_reuses: usize,
    /// Probes served by the shared cross-run index cache (an index some
    /// earlier — possibly concurrent — run already built).
    pub cache_hits: usize,
    /// Shared-cache misses this run paid for by building (and publishing)
    /// the index. Across N concurrent runs over one database, hits and
    /// misses sum so that each frozen index is built exactly once.
    pub cache_misses: usize,
    /// Entries the shared cache evicted on this run's behalf (budget
    /// pressure at publish time or the engine's pre-OOM spill).
    pub cache_evictions: usize,
    /// Resident bytes of the shared cache when the run finished.
    pub cache_bytes: usize,
    /// Final IDB result indexes this run published into the shared cache
    /// (`publish_idb_indexes`): full-`R` tables frozen at fixpoint for
    /// later programs that join against the now-frozen results.
    pub published: usize,
    /// Rows inserted by from-scratch builds (persistent indexes only).
    pub build_rows: usize,
    /// Rows inserted by incremental appends (persistent indexes only).
    pub append_rows: usize,
    /// Peak bytes held by persistent indexes plus their scratch tables.
    pub bytes_peak: usize,
}

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

/// Incremental view maintenance accounting: how a standing materialized
/// view absorbed `/facts` commits — ∆-seeded semi-naive re-entries for
/// insertions, support-count (counting) updates for non-recursive strata,
/// Backward/Forward proof checks for recursive strata under deletions, and
/// full scratch recomputes when the program shape (aggregation, negation,
/// inline facts) or a failed refresh forces the fallback.
#[derive(Clone, Copy, Debug, Default)]
pub struct ViewStats {
    /// Incremental refreshes applied to a standing view.
    pub view_refreshes: u64,
    /// Strata re-entered from insertion-seeded deltas.
    pub view_seeded_strata: u64,
    /// Non-recursive strata maintained by support counting.
    pub view_counting_strata: u64,
    /// Recursive strata maintained by Backward/Forward under deletions:
    /// deletion candidates checked for a surviving proof, the unproved
    /// retracted, the fixpoint re-entered from the commit's inserts.
    pub view_bf_strata: u64,
    /// Refreshes answered by a full from-scratch recompute instead
    /// (ineligible program shape, ineligible commit, or a failed refresh).
    pub view_fallbacks: u64,
    /// Fresh tuples appended by ∆-seeding passes (including the insert
    /// seeds of a Backward/Forward stratum) and by counting maintenance;
    /// the fixpoint re-entry's own ∆ rows are not counted.
    pub view_tuples_seeded: u64,
    /// Tuples retracted by counting and Backward/Forward maintenance.
    pub view_tuples_retracted: u64,
}

impl ViewStats {
    /// Accumulate another operation's counters (lifetime aggregation).
    pub fn merge(&mut self, other: &ViewStats) {
        self.view_refreshes += other.view_refreshes;
        self.view_seeded_strata += other.view_seeded_strata;
        self.view_counting_strata += other.view_counting_strata;
        self.view_bf_strata += other.view_bf_strata;
        self.view_fallbacks += other.view_fallbacks;
        self.view_tuples_seeded += other.view_tuples_seeded;
        self.view_tuples_retracted += other.view_tuples_retracted;
    }
}

/// Statistics of one `run` of the engine.
#[derive(Clone, Debug, Default)]
pub struct EvalStats {
    /// End-to-end wall time.
    pub total: Duration,
    /// Phase breakdown.
    pub phase: PhaseTimes,
    /// Per-stratum details.
    pub strata: Vec<StratumStats>,
    /// Total fixpoint iterations across strata.
    pub iterations: usize,
    /// Queries issued to the backend (the per-query overhead UIE batches).
    pub queries_issued: usize,
    /// Tuples produced by rule evaluation before deduplication.
    pub tuples_considered: usize,
    /// Rows the non-final joins of multi-atom chains offered to their
    /// project-then-dedup stage (set-semantic passes only; the planner's
    /// `JoinStep::live`).
    pub intermediate_rows_offered: usize,
    /// Those rows the stages kept, one per distinct live value: what the
    /// next join actually read.
    pub intermediate_rows_kept: usize,
    /// How often each set-difference algorithm ran.
    pub opsd_runs: usize,
    /// How often each set-difference algorithm ran.
    pub tpsd_runs: usize,
    /// Fused dedup+set-difference passes against a persistent index (the
    /// `index_reuse` replacement for an OPSD/TPSD + dedup pair), whether
    /// streaming or over a materialized `Rt`.
    pub fused_runs: usize,
    /// Fused *streaming* pipeline passes: `Rt` never materialized,
    /// duplicates dropped at the operators' probe sites.
    pub pipeline_runs: usize,
    /// Candidate rows the streaming pipeline dropped at the probe site
    /// (rows the materializing path would have buffered, merged, flushed
    /// and re-scanned before discarding them).
    pub rt_rows_skipped_at_source: usize,
    /// Bytes those dropped rows would have occupied in a materialized `Rt`.
    pub rt_bytes_never_materialized: usize,
    /// Bytes of UNION-ALL (`Rt`) candidate columns materialized and merged
    /// by the non-streaming path. Zero under the fused pipeline — the
    /// acceptance signal that duplicates die at the probe site.
    pub rt_merge_bytes: usize,
    /// Subquery evaluations dispatched to the generic worst-case optimal
    /// join (cyclic bodies walked as one variable-ordered intersection
    /// instead of a chain of binary joins).
    pub wcoj_runs: usize,
    /// Rows the WCOJ leaf enumeration emitted into its sink, pre-dedup —
    /// one per distinct variable binding, never one per intermediate
    /// row-combination.
    pub wcoj_rows_emitted: usize,
    /// Of those, rows a WCOJ subquery materialized without the sink
    /// because they were provably distinct: a head keeping every variable,
    /// an empty `R`, no sampler and no other subquery feeding the IDB.
    pub wcoj_rows_direct: usize,
    /// Group-at-source streaming aggregation passes: aggregated heads
    /// whose produced rows were folded into concurrent aggregate state at
    /// the probe site instead of materializing a pre-aggregation `Rt`.
    pub agg_sink_runs: usize,
    /// Those aggregation passes whose `MIN`/`MAX` map had a
    /// direct-addressed window over compact group keys (keys outside it
    /// still escape to the hashed table in the same pass).
    pub agg_dense_sinks: usize,
    /// Candidate rows the aggregation sink folded at source (rows the
    /// materializing path would have buffered into `Rt`, merged, and
    /// re-scanned by the group-by pass).
    pub agg_rows_folded_at_source: usize,
    /// Groups the aggregation sink emitted as ∆: strict improvements for
    /// monotonic (recursive MIN/MAX) heads, all result groups for one-shot
    /// group-by heads.
    pub agg_groups_improved: usize,
    /// Rows the sink-side reservoir handed to the OOF-FA statistics pass
    /// in place of a full `Rt` re-scan (0 unless `--oof-fa` streams
    /// through an aggregation sink).
    pub sink_stat_samples: usize,
    /// Bucket-directory doublings of the fused sinks' hash tables (the
    /// scratch table of every `DeltaSink` pass plus the monotonic map of
    /// every recursive aggregation pass), summed at flush: how many times
    /// a pass outgrew the capacity its table started with. The tables
    /// double in flight, so this costs allocation, never chain length.
    pub sink_table_doublings: usize,
    /// Hash-index build/append accounting (rebuild vs. incremental).
    pub index: IndexStats,
    /// Peak engine-estimated heap bytes (relations + operator tables).
    pub peak_bytes: usize,
    /// Bytes a per-query-commit store (paper §5.2) would have written in
    /// this run — counted, not written. Zero for shared-mode runs.
    pub io_bytes: u64,
    /// Flushes that store would have performed in this run (one per
    /// non-empty derived table under EOST).
    pub io_flushes: u64,
    /// Worker busy-time over the run (for CPU-utilization reporting).
    pub busy: Duration,
    /// Bit-matrix bytes allocated, when PBME ran.
    pub pbme_matrix_bytes: usize,
    /// Incremental view maintenance accounting (all zero outside the
    /// query service's standing materialized views).
    pub view: ViewStats,
}

impl PhaseTimes {
    fn merge(&mut self, other: &PhaseTimes) {
        self.eval += other.eval;
        self.pipeline += other.pipeline;
        self.dedup += other.dedup;
        self.setdiff += other.setdiff;
        self.aggregate += other.aggregate;
        self.merge += other.merge;
        self.analyze += other.analyze;
        self.index += other.index;
        self.io += other.io;
        self.pbme += other.pbme;
    }
}

impl IndexStats {
    fn merge(&mut self, other: &IndexStats) {
        self.full_builds += other.full_builds;
        self.full_appends += other.full_appends;
        self.scratch_builds += other.scratch_builds;
        self.join_builds += other.join_builds;
        self.join_appends += other.join_appends;
        self.join_reuses += other.join_reuses;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        // A gauge, not a counter: the later run's snapshot wins.
        self.cache_bytes = other.cache_bytes;
        self.published += other.published;
        self.build_rows += other.build_rows;
        self.append_rows += other.append_rows;
        self.bytes_peak = self.bytes_peak.max(other.bytes_peak);
    }
}

impl EvalStats {
    /// Fold another run's statistics into this accumulator — the
    /// engine-lifetime aggregate view behind the service's `/stats`
    /// endpoint (per-run reports only ever covered one evaluation).
    /// Counters and durations sum, per-stratum details concatenate,
    /// peaks take the maximum, and gauges (`index.cache_bytes`) take the
    /// later run's snapshot.
    pub fn merge(&mut self, other: &EvalStats) {
        self.total += other.total;
        self.phase.merge(&other.phase);
        self.strata.extend(other.strata.iter().cloned());
        self.iterations += other.iterations;
        self.queries_issued += other.queries_issued;
        self.tuples_considered += other.tuples_considered;
        self.intermediate_rows_offered += other.intermediate_rows_offered;
        self.intermediate_rows_kept += other.intermediate_rows_kept;
        self.opsd_runs += other.opsd_runs;
        self.tpsd_runs += other.tpsd_runs;
        self.fused_runs += other.fused_runs;
        self.pipeline_runs += other.pipeline_runs;
        self.rt_rows_skipped_at_source += other.rt_rows_skipped_at_source;
        self.rt_bytes_never_materialized += other.rt_bytes_never_materialized;
        self.rt_merge_bytes += other.rt_merge_bytes;
        self.wcoj_runs += other.wcoj_runs;
        self.wcoj_rows_emitted += other.wcoj_rows_emitted;
        self.wcoj_rows_direct += other.wcoj_rows_direct;
        self.agg_sink_runs += other.agg_sink_runs;
        self.agg_dense_sinks += other.agg_dense_sinks;
        self.agg_rows_folded_at_source += other.agg_rows_folded_at_source;
        self.agg_groups_improved += other.agg_groups_improved;
        self.sink_stat_samples += other.sink_stat_samples;
        self.sink_table_doublings += other.sink_table_doublings;
        self.index.merge(&other.index);
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
        self.io_bytes += other.io_bytes;
        self.io_flushes += other.io_flushes;
        self.busy += other.busy;
        self.pbme_matrix_bytes = self.pbme_matrix_bytes.max(other.pbme_matrix_bytes);
        self.view.merge(&other.view);
    }

    /// Record a set-difference algorithm choice.
    pub(crate) fn note_setdiff(&mut self, algo: SetDiffAlgo) {
        match algo {
            SetDiffAlgo::Opsd => self.opsd_runs += 1,
            SetDiffAlgo::Tpsd => self.tpsd_runs += 1,
        }
    }

    /// Mean CPU utilization over the run: busy time divided by
    /// `threads × wall`.
    pub fn cpu_utilization(&self, threads: usize) -> f64 {
        let denom = self.total.as_secs_f64() * threads.max(1) as f64;
        if denom <= 0.0 {
            return 0.0;
        }
        (self.busy.as_secs_f64() / denom).min(1.0)
    }

    /// CPU efficiency as defined in Appendix B: `1 / (t · n)` for runtime
    /// `t` seconds on `n` cores.
    pub fn cpu_efficiency(&self, threads: usize) -> f64 {
        let t = self.total.as_secs_f64();
        if t <= 0.0 {
            return f64::INFINITY;
        }
        1.0 / (t * threads.max(1) as f64)
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
    fn utilization_bounded() {
        let s = EvalStats {
            total: Duration::from_secs(2),
            busy: Duration::from_secs(6),
            ..Default::default()
        };
        assert!((s.cpu_utilization(4) - 0.75).abs() < 1e-9);
        // More busy than wall × threads clamps to 1.
        assert_eq!(s.cpu_utilization(1), 1.0);
        let zero = EvalStats::default();
        assert_eq!(zero.cpu_utilization(4), 0.0);
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
    fn efficiency_definition() {
        let s = EvalStats {
            total: Duration::from_secs(10),
            ..Default::default()
        };
        assert!((s.cpu_efficiency(5) - 0.02).abs() < 1e-9);
    }
}
