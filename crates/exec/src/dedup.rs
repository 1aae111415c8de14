//! FAST-DEDUP: parallel deduplication over the CCK-GSCHT (paper §5.2).
//!
//! Deduplication runs at every iteration for every IDB in the stratum
//! (Algorithm 1 line 10), making it one of the two bottleneck operators. The
//! paper's specialized implementation combines:
//!
//! * a **global** separate-chaining table all workers insert into (no
//!   per-worker partials to merge),
//! * **pre-allocated** buckets sized from the optimizer's conservative
//!   distinct estimate,
//! * the **compact concatenated key**: the whole tuple packed into 8 bytes,
//!   doubling as its own hash value, so no ⟨key, value⟩ pair or hash is
//!   stored.
//!
//! [`DedupImpl::Generic`] is the comparison point of the Figure 2 ablation —
//! the same global table but with explicit hashed keys and row verification
//! (what "the original parallel global separate chaining hash table" does),
//! and [`DedupImpl::Sort`] is a sort-based alternative used by tests and the
//! operator micro-benchmarks.

use recstep_common::Value;
use recstep_storage::RelView;

use crate::chain::ChainTable;
use crate::key::KeyMode;
use crate::util::parallel_produce;
use crate::ExecCtx;

/// Which deduplication implementation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DedupImpl {
    /// CCK-GSCHT: packed compact keys when the tuple fits 64 bits,
    /// hashed+verified otherwise (the paper's FAST-DEDUP).
    Fast,
    /// Global chaining table with always-hashed keys and row verification
    /// (the pre-FAST-DEDUP behaviour toggled in the Figure 2 ablation).
    Generic,
    /// Sort + dedup baseline.
    Sort,
}

/// Outcome of a deduplication, including instrumentation the memory figures
/// report.
pub struct DedupOutput {
    /// Distinct rows, column-major.
    pub cols: Vec<Vec<Value>>,
    /// Rows in the input.
    pub input_rows: usize,
    /// Bytes the hash table occupied (0 for the sort path).
    pub table_bytes: usize,
    /// Hash tables built from scratch by this call (0 for the sort path) —
    /// the rebuild-vs-incremental instrumentation.
    pub tables_built: usize,
}

/// Deduplicate `view`, pre-sizing the table from `distinct_hint` (the
/// optimizer's conservative estimate; see `TableStats::distinct_estimate`).
pub fn deduplicate(
    ctx: &ExecCtx,
    view: RelView<'_>,
    imp: DedupImpl,
    distinct_hint: usize,
) -> DedupOutput {
    let n = view.len();
    let arity = view.arity();
    if n == 0 {
        return DedupOutput {
            cols: vec![Vec::new(); arity],
            input_rows: 0,
            table_bytes: 0,
            tables_built: 0,
        };
    }
    match imp {
        DedupImpl::Sort => {
            let mut rows = view.to_rows();
            rows.sort_unstable();
            rows.dedup();
            let mut cols = vec![Vec::with_capacity(rows.len()); arity];
            for row in &rows {
                for (c, &v) in cols.iter_mut().zip(row) {
                    c.push(v);
                }
            }
            DedupOutput {
                cols,
                input_rows: n,
                table_bytes: 0,
                tables_built: 0,
            }
        }
        DedupImpl::Fast | DedupImpl::Generic => {
            let all_cols: Vec<usize> = (0..arity).collect();
            let mode = if imp == DedupImpl::Fast {
                KeyMode::for_view(view, &all_cols)
            } else {
                KeyMode::Hashed
            };
            // Pre-allocate "as large as possible" within reason: 2× the
            // conservative distinct estimate, floored by the input size so
            // racing chains stay short.
            let buckets = (distinct_hint.max(n / 2)).saturating_mul(2);
            let table = ChainTable::with_capacity(n, buckets);
            let exact = mode.exact();
            let rows_eq = |a: u32, b: u32| -> bool {
                (0..arity).all(|c| view.get(a as usize, c) == view.get(b as usize, c))
            };
            let cols = parallel_produce(&ctx.pool, n, ctx.grain, arity, |range, buf| {
                for r in range {
                    let key = mode.key_of(view, r, &all_cols);
                    let won = if exact {
                        table.insert_unique(r as u32, key, |_, _| true)
                    } else {
                        table.insert_unique(r as u32, key, rows_eq)
                    };
                    if won {
                        for c in 0..arity {
                            buf.push_at(c, view.get(r, c));
                        }
                    }
                }
            });
            // Generic mode also pays for stored hash+pointer pairs; the
            // paper's CCK saves exactly that. Model it in the byte count.
            let extra = if imp == DedupImpl::Generic { n * 16 } else { 0 };
            DedupOutput {
                cols,
                input_rows: n,
                table_bytes: table.heap_bytes() + extra,
                tables_built: 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recstep_storage::{Relation, Schema};
    use std::collections::HashSet;

    fn ctx() -> ExecCtx {
        ExecCtx::with_threads(4)
    }

    fn rel_with_dups() -> Relation {
        let mut r = Relation::new(Schema::with_arity("t", 2));
        for i in 0..500i64 {
            r.push_row(&[i % 50, (i * 3) % 20]);
        }
        r
    }

    fn as_set(cols: &[Vec<Value>]) -> HashSet<Vec<Value>> {
        (0..cols[0].len())
            .map(|r| cols.iter().map(|c| c[r]).collect())
            .collect()
    }

    #[test]
    fn all_impls_agree_with_hashset_oracle() {
        let rel = rel_with_dups();
        let oracle: HashSet<Vec<Value>> = rel.to_rows().into_iter().collect();
        let ctx = ctx();
        for imp in [DedupImpl::Fast, DedupImpl::Generic, DedupImpl::Sort] {
            let out = deduplicate(&ctx, rel.view(), imp, rel.len());
            assert_eq!(as_set(&out.cols), oracle, "{imp:?}");
            assert_eq!(
                out.cols[0].len(),
                oracle.len(),
                "{imp:?} emitted duplicates"
            );
            assert_eq!(out.input_rows, rel.len());
        }
    }

    #[test]
    fn fast_handles_wide_values_via_hash_fallback() {
        let mut r = Relation::new(Schema::with_arity("w", 2));
        r.push_row(&[Value::MIN, Value::MAX]);
        r.push_row(&[Value::MIN, Value::MAX]);
        r.push_row(&[Value::MAX, Value::MIN]);
        let out = deduplicate(&ctx(), r.view(), DedupImpl::Fast, 4);
        assert_eq!(out.cols[0].len(), 2);
    }

    #[test]
    fn empty_input() {
        let r = Relation::new(Schema::with_arity("e", 3));
        let out = deduplicate(&ctx(), r.view(), DedupImpl::Fast, 0);
        assert_eq!(out.cols.len(), 3);
        assert!(out.cols[0].is_empty());
        assert_eq!(out.table_bytes, 0);
    }

    #[test]
    fn generic_reports_extra_table_bytes() {
        let rel = rel_with_dups();
        let ctx = ctx();
        let fast = deduplicate(&ctx, rel.view(), DedupImpl::Fast, rel.len());
        let gen = deduplicate(&ctx, rel.view(), DedupImpl::Generic, rel.len());
        assert!(gen.table_bytes > fast.table_bytes);
    }

    #[test]
    fn large_parallel_dedup_is_exact() {
        let mut r = Relation::new(Schema::with_arity("big", 2));
        for i in 0..50_000i64 {
            r.push_row(&[i % 1000, i % 997]);
        }
        let oracle: HashSet<Vec<Value>> = r.to_rows().into_iter().collect();
        let out = deduplicate(&ctx(), r.view(), DedupImpl::Fast, r.len());
        assert_eq!(out.cols[0].len(), oracle.len());
        assert_eq!(as_set(&out.cols), oracle);
    }
}
