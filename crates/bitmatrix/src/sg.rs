//! Algorithm 3: parallel bit-matrix evaluation of same generation.
//!
//! ```text
//! sg(x, y) :- arc(p, x), arc(p, y), x != y.
//! sg(x, y) :- arc(a, x), sg(a, b), arc(b, y).
//! ```
//!
//! Unlike TC, a pair `(a, b)` in δ produces pairs `(q, p)` in *arbitrary*
//! rows (`q ∈ Varc[a]`, `p ∈ Varc[b]`), so newly produced work is not tied
//! to the thread's row partition — the source of the data skew the paper
//! discusses. [`sg_closure`] runs with zero coordination: each thread
//! keeps everything it generates.

use recstep_common::sched::ThreadPool;

use crate::{AdjIndex, BitMatrix};

/// Seed `Msg` and return the adjacency index.
/// With `seeds = None` the same-parent pairs of Algorithm 3 line 9 are
/// generated; otherwise the provided pairs (e.g. an already-evaluated seed
/// stratum) initialize the matrix.
fn seed(
    pool: &ThreadPool,
    n: usize,
    edges: &[(u32, u32)],
    seeds: Option<&[(u32, u32)]>,
) -> (AdjIndex, BitMatrix) {
    let arc = AdjIndex::new(n, edges);
    let msg = BitMatrix::new(n);
    match seeds {
        Some(pairs) => {
            pool.parallel_for(pairs.len(), 4096, |range, _| {
                for e in range {
                    let (x, y) = pairs[e];
                    msg.set(x as usize, y as usize);
                }
            });
        }
        None => {
            pool.parallel_for(n, 64, |range, _| {
                for p in range {
                    let children = arc.neighbors(p as u32);
                    for &x in children {
                        for &y in children {
                            if x != y {
                                msg.set(x as usize, y as usize);
                            }
                        }
                    }
                }
            });
        }
    }
    (arc, msg)
}

/// Expand one δ pair, pushing newly set pairs onto `out`.
#[inline]
fn expand(arc: &AdjIndex, msg: &BitMatrix, a: u32, b: u32, out: &mut Vec<(u32, u32)>) {
    for &q in arc.neighbors(a) {
        for &p in arc.neighbors(b) {
            if msg.set(q as usize, p as usize) {
                out.push((q, p));
            }
        }
    }
}

/// Same-generation closure, zero-coordination variant (paper Algorithm 3).
pub fn sg_closure(pool: &ThreadPool, n: usize, edges: &[(u32, u32)]) -> BitMatrix {
    sg_closure_seeded(pool, n, edges, None)
}

/// Zero-coordination SG closure from explicit seed pairs (`None` = generate
/// the same-parent seed of Algorithm 3).
pub fn sg_closure_seeded(
    pool: &ThreadPool,
    n: usize,
    edges: &[(u32, u32)],
    seeds: Option<&[(u32, u32)]>,
) -> BitMatrix {
    let (arc, msg) = seed(pool, n, edges, seeds);
    pool.run(|ctx| {
        // Initial δ: the seeded bits of this thread's row partition
        // (round-robin, line 10).
        let mut stack: Vec<(u32, u32)> = Vec::new();
        let mut row = ctx.worker;
        while row < n {
            for col in msg.row_ones(row) {
                stack.push((row as u32, col as u32));
            }
            row += ctx.threads;
        }
        // Work generated lands on the generating thread, wherever its row
        // partition is.
        while let Some((a, b)) = stack.pop() {
            expand(&arc, &msg, a, b, &mut stack);
        }
    });
    msg
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Same-parent seed pairs, as Algorithm 3 line 9 generates them.
    fn same_parent_pairs(n: usize, edges: &[(u32, u32)]) -> Vec<(u32, u32)> {
        let arc = AdjIndex::new(n, edges);
        let mut pairs = Vec::new();
        for p in 0..n as u32 {
            for &x in arc.neighbors(p) {
                for &y in arc.neighbors(p) {
                    if x != y {
                        pairs.push((x, y));
                    }
                }
            }
        }
        pairs
    }

    /// Naïve fixpoint oracle for SG.
    fn oracle_sg(n: usize, edges: &[(u32, u32)]) -> HashSet<(u32, u32)> {
        let arc = AdjIndex::new(n, edges);
        let mut sg: HashSet<(u32, u32)> = same_parent_pairs(n, edges).into_iter().collect();
        loop {
            let mut fresh = Vec::new();
            for &(a, b) in &sg {
                for &x in arc.neighbors(a) {
                    for &y in arc.neighbors(b) {
                        if !sg.contains(&(x, y)) {
                            fresh.push((x, y));
                        }
                    }
                }
            }
            if fresh.is_empty() {
                break;
            }
            sg.extend(fresh);
        }
        sg
    }

    fn rand_edges(n: u32, m: usize, seed: u64) -> Vec<(u32, u32)> {
        let mut state = seed;
        let mut rnd = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        (0..m).map(|_| (rnd() % n, rnd() % n)).collect()
    }

    fn as_set(m: &BitMatrix) -> HashSet<(u32, u32)> {
        m.to_pairs().into_iter().collect()
    }

    #[test]
    fn tree_same_generation() {
        // Binary tree: 0 -> 1,2; 1 -> 3,4; 2 -> 5,6.
        let edges = [(0u32, 1u32), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)];
        let pool = ThreadPool::new(3);
        let msg = sg_closure(&pool, 7, &edges);
        let expect = oracle_sg(7, &edges);
        assert_eq!(as_set(&msg), expect);
        // Siblings and cousins are same-generation.
        assert!(msg.get(1, 2));
        assert!(msg.get(3, 5));
        assert!(!msg.get(1, 3));
    }

    #[test]
    fn random_graphs_match_oracle_both_variants() {
        for seed in [7u64, 42, 99] {
            let n = 40;
            let edges = rand_edges(n, 150, seed);
            let expect = oracle_sg(n as usize, &edges);
            let pool = ThreadPool::new(4);
            let plain = sg_closure(&pool, n as usize, &edges);
            assert_eq!(as_set(&plain), expect, "generated seed, seed {seed}");
            let seeds = same_parent_pairs(n as usize, &edges);
            let seeded = sg_closure_seeded(&pool, n as usize, &edges, Some(&seeds));
            assert_eq!(as_set(&seeded), expect, "explicit seed, seed {seed}");
        }
    }

    #[test]
    fn empty_graph() {
        let pool = ThreadPool::new(2);
        let msg = sg_closure(&pool, 5, &[]);
        assert_eq!(msg.count_ones(), 0);
        let msg = sg_closure_seeded(&pool, 5, &[], Some(&[]));
        assert_eq!(msg.count_ones(), 0);
    }

    #[test]
    fn single_threaded_variants_agree() {
        let edges = rand_edges(25, 80, 5);
        let pool = ThreadPool::new(1);
        let a = sg_closure(&pool, 25, &edges);
        let seeds = same_parent_pairs(25, &edges);
        let b = sg_closure_seeded(&pool, 25, &edges, Some(&seeds));
        assert_eq!(as_set(&a), as_set(&b));
    }
}
