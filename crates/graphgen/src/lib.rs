//! Workload generators for the paper's synthetic dataset families
//! (Table 3).
//!
//! * [`gnp`] — the `Gn-p` GTgraph-style uniform random graphs used for TC
//!   and SG;
//! * [`rmat`] — RMAT graphs (n vertices, 10n edges in the paper) used for
//!   REACH/CC/SSSP;
//! * [`program_analysis`] — synthetic inputs for Andersen's analysis and
//!   the CSPA/CSDA system-program graphs.
//!
//! The paper's real-world crawls (livejournal, orkut, arabic, twitter) have
//! no generator here. All generators are deterministic given a seed.

pub mod gnp;
pub mod program_analysis;
pub mod rmat;

use recstep_common::Value;

/// Convert `u32` edge pairs to engine values.
pub fn as_values(edges: &[(u32, u32)]) -> Vec<(Value, Value)> {
    edges
        .iter()
        .map(|&(a, b)| (a as Value, b as Value))
        .collect()
}

/// Attach deterministic pseudo-random weights in `1..=max_w` to edges
/// (for SSSP).
pub fn with_weights(edges: &[(u32, u32)], max_w: u64, seed: u64) -> Vec<(Value, Value, Value)> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    edges
        .iter()
        .map(|&(a, b)| (a as Value, b as Value, rng.gen_range(1..=max_w) as Value))
        .collect()
}

/// Number of distinct vertices mentioned by an edge list.
pub fn touched_vertices(edges: &[(u32, u32)]) -> usize {
    let mut seen = recstep_common::hash::FxHashSet::default();
    for &(a, b) in edges {
        seen.insert(a);
        seen.insert(b);
    }
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_in_range_and_deterministic() {
        let edges = [(0u32, 1u32), (1, 2), (2, 0)];
        let a = with_weights(&edges, 5, 9);
        let b = with_weights(&edges, 5, 9);
        assert_eq!(a, b);
        assert!(a.iter().all(|&(_, _, w)| (1..=5).contains(&w)));
    }

    #[test]
    fn touched_vertices_counts_endpoints() {
        assert_eq!(touched_vertices(&[(0, 1), (1, 2), (5, 5)]), 4);
        assert_eq!(touched_vertices(&[]), 0);
    }
}
