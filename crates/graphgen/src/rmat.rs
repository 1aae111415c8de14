//! RMAT recursive-matrix graphs.
//!
//! "RMAT-n represents the graph that has n vertices and 10n directed edges"
//! (paper §6.2, following the BigDatalog specification). The generator uses
//! the standard (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) quadrant
//! probabilities, producing the skewed degree distributions that drive the
//! REACH/CC/SSSP costs.

use rand::{Rng, SeedableRng};

/// Standard RMAT quadrant probabilities.
pub const A: f64 = 0.57;
/// Standard RMAT quadrant probabilities.
pub const B: f64 = 0.19;
/// Standard RMAT quadrant probabilities.
pub const C: f64 = 0.19;

/// Generate an RMAT graph over `n` vertices (`n` rounded up to a power of
/// two internally; emitted ids are folded into `0..n`) with `m` edges.
pub fn rmat(n: u32, m: usize, seed: u64) -> Vec<(u32, u32)> {
    assert!(n > 0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let levels = 32 - (n - 1).leading_zeros();
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let mut src = 0u32;
        let mut dst = 0u32;
        for _ in 0..levels {
            src <<= 1;
            dst <<= 1;
            let r: f64 = rng.gen();
            if r < A {
                // top-left
            } else if r < A + B {
                dst |= 1;
            } else if r < A + B + C {
                src |= 1;
            } else {
                src |= 1;
                dst |= 1;
            }
        }
        edges.push((src % n, dst % n));
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_count_and_range() {
        let edges = rmat(1000, 5000, 3);
        assert_eq!(edges.len(), 5000);
        assert!(edges.iter().all(|&(s, t)| s < 1000 && t < 1000));
    }

    #[test]
    fn deterministic() {
        assert_eq!(rmat(512, 1000, 1), rmat(512, 1000, 1));
        assert_ne!(rmat(512, 1000, 1), rmat(512, 1000, 2));
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let n = 1024u32;
        let edges = rmat(n, (n as usize) * 10, 11);
        let mut deg = vec![0usize; n as usize];
        for &(s, _) in &edges {
            deg[s as usize] += 1;
        }
        deg.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: usize = deg[..n as usize / 10].iter().sum();
        let total: usize = deg.iter().sum();
        // RMAT hubs: the top 10% of vertices own far more than 10% of edges.
        assert!(
            top_decile as f64 > 0.3 * total as f64,
            "top decile {top_decile} of {total}"
        );
    }

    #[test]
    fn non_power_of_two_vertex_count() {
        let edges = rmat(1000, 100, 5);
        assert!(edges.iter().all(|&(s, t)| s < 1000 && t < 1000));
    }
}
