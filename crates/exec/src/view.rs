//! Support counting for incremental view maintenance.
//!
//! Counting-based maintenance of a non-recursive Datalog stratum needs,
//! for every derived tuple, the number of distinct rule instantiations
//! currently deriving it: an insertion that adds the first derivation
//! materializes the tuple, a deletion that removes the last one retracts
//! it, and everything in between only moves the count. [`SupportTable`]
//! is that side table: derived tuples are stored (deduplicated) in a
//! [`GrowChainTable`] — the same latch-free chained storage the fused
//! delta sink uses — and each stored row's support count lives in a plain
//! vector indexed by the row's chain slot id.
//!
//! The table is written sequentially (view maintenance runs under the
//! owning service's write lock), which is what makes slot ids dense and
//! the side vector exact. Counts are `i64` so a maintenance pass may
//! apply signed deltas in any order and only the settled value is
//! interpreted.

use recstep_common::hash::mix64;
use recstep_common::Value;

use crate::chain::{GrowChainTable, Slot};

/// Whole-row hash key for the backing chain table.
#[inline]
fn row_key(row: &[Value]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for &v in row {
        h = mix64(h ^ v as u64);
    }
    h | 1 // never 0: some probe paths reserve the zero key
}

/// Per-derived-tuple support counts for one counting-maintained IDB.
pub struct SupportTable {
    rows: GrowChainTable,
    counts: Vec<i64>,
    distinct: usize,
}

impl SupportTable {
    /// Table for derived tuples of `arity` columns with room for
    /// `capacity` distinct tuples before its first growth step. The
    /// backing table grows in flight, so `capacity` is an allocation hint
    /// only — it does not affect lookup cost.
    pub fn new(arity: usize, capacity: usize) -> Self {
        SupportTable {
            rows: GrowChainTable::new(arity, capacity, capacity.saturating_mul(2)),
            counts: Vec::with_capacity(capacity),
            distinct: 0,
        }
    }

    /// Current support count of `row` (0 when never derived).
    pub fn count(&self, row: &[Value]) -> i64 {
        match self.rows.find_row(row_key(row), row) {
            Some(slot) => self.counts[slot as usize],
            None => 0,
        }
    }

    /// Apply a signed delta to `row`'s support count, returning the new
    /// count. Rows are created on first touch (even by a negative delta —
    /// the caller asserts non-negativity at settle time, not here).
    pub fn add(&mut self, row: &[Value], delta: i64) -> i64 {
        let slot = match self.rows.insert_or_find_slot(row_key(row), row, |_| {}) {
            Slot::Found(slot) => slot as usize,
            Slot::Inserted(slot) => {
                // Sequential writer: slot ids are dense insertion indexes.
                self.counts.resize(slot as usize + 1, 0);
                slot as usize
            }
        };
        let before = self.counts[slot];
        let after = before + delta;
        self.counts[slot] = after;
        if before <= 0 && after > 0 {
            self.distinct += 1;
        } else if before > 0 && after <= 0 {
            self.distinct -= 1;
        }
        after
    }

    /// Number of tuples with a positive support count.
    pub fn len(&self) -> usize {
        self.distinct
    }

    /// True when no tuple has a positive support count.
    pub fn is_empty(&self) -> bool {
        self.distinct == 0
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.rows.heap_bytes() + self.counts.capacity() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_settle_independent_of_delta_order() {
        let mut t = SupportTable::new(2, 4);
        assert_eq!(t.count(&[1, 2]), 0);
        assert_eq!(t.add(&[1, 2], 1), 1);
        assert_eq!(t.add(&[1, 2], 2), 3);
        // A transiently negative interleaving settles to the same value.
        assert_eq!(t.add(&[3, 4], -1), -1);
        assert_eq!(t.add(&[3, 4], 2), 1);
        assert_eq!(t.count(&[1, 2]), 3);
        assert_eq!(t.count(&[3, 4]), 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.add(&[1, 2], -3), 0);
        assert_eq!(t.len(), 1);
        assert!(t.heap_bytes() > 0);
    }

    #[test]
    fn grows_past_its_hint() {
        let mut t = SupportTable::new(1, 4);
        for v in 0..10_000 {
            assert_eq!(t.add(&[v], 1), 1);
        }
        assert_eq!(t.len(), 10_000);
        assert_eq!(t.count(&[1234]), 1);
        assert_eq!(t.count(&[10_000]), 0);
    }
}
