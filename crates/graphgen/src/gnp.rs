//! `Gn-p` uniform random digraphs (the paper's GTgraph-generated family).
//!
//! "Gn-p graphs are graphs generated by the GTgraph synthetic graph
//! generator, where n represents the number of total vertices of the graph
//! in which each pair of vertices is connected by probability p. Each pair
//! of vertices in Gn omitting p is connected with probability 0.001."
//! (paper §6.2). All are dense relative to their small vertex counts —
//! exactly the regime PBME targets.

use rand::{Rng, SeedableRng};

/// Generate a `Gn-p` digraph: every ordered pair `(i, j)`, `i != j`, is an
/// edge independently with probability `p`.
///
/// Sampling is done by geometric skips, so the cost is proportional to the
/// number of edges produced, not `n²`.
pub fn gnp(n: u32, p: f64, seed: u64) -> Vec<(u32, u32)> {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    if p <= 0.0 || n == 0 {
        return edges;
    }
    let total = n as u64 * n as u64;
    if p >= 1.0 {
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    edges.push((i, j));
                }
            }
        }
        return edges;
    }
    let log1mp = (1.0 - p).ln();
    let mut idx: u64 = 0;
    loop {
        // Geometric skip to the next selected pair.
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let skip = (u.ln() / log1mp).floor() as u64 + 1;
        idx = match idx.checked_add(skip) {
            Some(v) => v,
            None => break,
        };
        if idx > total {
            break;
        }
        let flat = idx - 1;
        let i = (flat / n as u64) as u32;
        let j = (flat % n as u64) as u32;
        if i != j {
            edges.push((i, j));
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_count_tracks_probability() {
        let n = 400u32;
        let p = 0.01;
        let edges = gnp(n, p, 7);
        let expect = (n as f64 * n as f64) * p;
        let got = edges.len() as f64;
        assert!(
            (got - expect).abs() < expect * 0.25,
            "got {got}, expected ≈ {expect}"
        );
    }

    #[test]
    fn no_self_loops_and_in_range() {
        for &(a, b) in &gnp(100, 0.05, 3) {
            assert!(a != b);
            assert!(a < 100 && b < 100);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(gnp(200, 0.01, 5), gnp(200, 0.01, 5));
        assert_ne!(gnp(200, 0.01, 5), gnp(200, 0.01, 6));
    }

    #[test]
    fn extremes() {
        assert!(gnp(50, 0.0, 1).is_empty());
        assert!(gnp(0, 0.5, 1).is_empty());
        let full = gnp(20, 1.0, 1);
        assert_eq!(full.len(), 20 * 19);
    }
}
