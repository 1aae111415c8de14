//! Parallel Bit-Matrix Evaluation (PBME) — paper §5.3.
//!
//! For dense graphs over small active domains, tuple-based evaluation of TC
//! and SG materializes intermediate results orders of magnitude larger than
//! the input; the paper replaces hash-based join + dedup with an `n × n`
//! bit matrix, "naturally merging the join and deduplication into one single
//! stage". This crate implements:
//!
//! * [`matrix::BitMatrix`] — the bit matrix: an atomic test-and-set for
//!   writes that may land in any row (seeding, Algorithm 3), whole-row
//!   load/store for a row's sole owner;
//! * [`tc`] — Algorithm 2: zero-coordination transitive closure. Workers
//!   take rows in morsels; the owner of a row closes it in a private
//!   buffer with plain test-and-set and publishes it once, so the hot loop
//!   runs no atomic instruction;
//! * [`sg`] — Algorithm 3: same-generation with the `Varc` vector index.

pub mod matrix;
pub mod sg;
pub mod tc;

pub use matrix::BitMatrix;
pub use sg::{sg_closure, sg_closure_seeded};
pub use tc::{tc_closure, tc_closure_seeded};

/// Adjacency-list index `Varc[x] = { y | arc(x, y) }` (paper Algorithm 3
/// line 4). Also serves as the `Marc` virtual bit matrix of Algorithm 2 —
/// scanning a row of `Marc` is iterating `Varc[x]`.
#[derive(Clone, Debug)]
pub struct AdjIndex {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl AdjIndex {
    /// Build from an edge list over vertices `0..n` (CSR layout).
    pub fn new(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut degree = vec![0u32; n];
        for &(s, _) in edges {
            degree[s as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        for d in &degree {
            offsets.push(offsets.last().unwrap() + d);
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; edges.len()];
        for &(s, t) in edges {
            targets[cursor[s as usize] as usize] = t;
            cursor[s as usize] += 1;
        }
        AdjIndex { offsets, targets }
    }

    /// Neighbours of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Number of vertices.
    pub fn vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    pub fn edges(&self) -> usize {
        self.targets.len()
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        (self.offsets.capacity() + self.targets.capacity()) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacency_lists_group_by_source() {
        let idx = AdjIndex::new(4, &[(0, 1), (0, 2), (2, 3), (3, 0)]);
        assert_eq!(idx.neighbors(0), &[1, 2]);
        assert!(idx.neighbors(1).is_empty());
        assert_eq!(idx.neighbors(2), &[3]);
        assert_eq!(idx.neighbors(3), &[0]);
        assert_eq!(idx.vertices(), 4);
        assert_eq!(idx.edges(), 4);
        assert!(idx.heap_bytes() >= 4 * 4);
    }
}
