//! Algorithm 2: parallel bit-matrix evaluation of transitive closure.
//!
//! Row `i`'s evaluation only ever updates row `i`, so rows need **zero
//! coordination**: after the seeds are set (atomically, since a seed may
//! land in any row), workers take rows in morsels from the pool and the
//! worker that owns a row closes it alone. It copies the row into a
//! private `u64` buffer, runs the per-row frontier loop (lines 8–21) there
//! with plain test-and-set — no atomic instruction on the hot path — and
//! publishes the finished row with [`BitMatrix::store_row`]. Every row
//! still has exactly one writer; morsels only decide which worker it is.

use recstep_common::sched::ThreadPool;

use crate::{AdjIndex, BitMatrix};

/// Rows a worker claims at a time.
const ROW_MORSEL: usize = 16;

/// Compute the transitive closure of `edges` over vertices `0..n`.
///
/// Returns `Mtc` with `Mtc[i, j] = 1` iff `j` is reachable from `i` by a
/// non-empty path.
pub fn tc_closure(pool: &ThreadPool, n: usize, edges: &[(u32, u32)]) -> BitMatrix {
    tc_closure_seeded(pool, n, edges, edges)
}

/// Generalized Algorithm 2: close `seeds` under right-composition with
/// `edges` — the fixpoint of `R(x, y) :- R(x, z), arc(z, y)` with `R`
/// initialized to `seeds`. With `seeds = edges` this is the paper's TC
/// (`Mtc ← Marc`, line 5).
pub fn tc_closure_seeded(
    pool: &ThreadPool,
    n: usize,
    seeds: &[(u32, u32)],
    edges: &[(u32, u32)],
) -> BitMatrix {
    let arc = AdjIndex::new(n, edges);
    let mtc = BitMatrix::new(n);
    pool.parallel_for(seeds.len(), 4096, |range, _| {
        for e in range {
            let (s, t) = seeds[e];
            mtc.set(s as usize, t as usize);
        }
    });
    pool.parallel_for(n, ROW_MORSEL, |rows, _| {
        let mut row = vec![0u64; mtc.words_per_row()];
        // A frontier never holds more than `n` vertices; the extra slot
        // takes the unconditional write of a branch-free push.
        let mut delta = vec![0u32; n + 1];
        let mut next = vec![0u32; n + 1];
        for i in rows {
            mtc.load_row(i, &mut row);
            close_row(&arc, &mut row, &mut delta, &mut next);
            mtc.store_row(i, &row);
        }
    });
    mtc
}

/// The frontier loop of one row over its private words: δ starts as the
/// row's set bits, and every `j` reached from δ through `arc` that was not
/// yet set joins the next δ.
fn close_row<'a>(
    arc: &AdjIndex,
    row: &mut [u64],
    mut delta: &'a mut [u32],
    mut next: &'a mut [u32],
) {
    // δ ← {u | Mtc[i, u] = 1} (line 9).
    let mut len = 0;
    for (w, &word) in row.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            delta[len] = (w * 64) as u32 + bits.trailing_zeros();
            len += 1;
            bits &= bits - 1;
        }
    }
    while len > 0 {
        let mut fresh = 0;
        for &t in &delta[..len] {
            for &j in arc.neighbors(t) {
                // Lines 14-16: test-and-set fused join/dedup. Always write
                // `j`; keep it only if its bit was clear.
                let (w, m) = (j as usize / 64, 1u64 << (j % 64));
                let old = row[w];
                row[w] = old | m;
                next[fresh] = j;
                fresh += usize::from(old & m == 0);
            }
        }
        std::mem::swap(&mut delta, &mut next);
        len = fresh;
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use recstep_common::sched::ThreadPool;

    /// Floyd–Warshall oracle.
    fn oracle_tc(n: usize, edges: &[(u32, u32)]) -> Vec<Vec<bool>> {
        let mut reach = vec![vec![false; n]; n];
        for &(s, t) in edges {
            reach[s as usize][t as usize] = true;
        }
        for k in 0..n {
            for i in 0..n {
                if reach[i][k] {
                    for j in 0..n {
                        if reach[k][j] {
                            reach[i][j] = true;
                        }
                    }
                }
            }
        }
        reach
    }

    fn check(n: usize, edges: &[(u32, u32)], threads: usize) {
        let pool = ThreadPool::new(threads);
        let mtc = tc_closure(&pool, n, edges);
        let oracle = oracle_tc(n, edges);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(mtc.get(i, j), oracle[i][j], "mismatch at ({i},{j})");
            }
        }
    }

    /// Deterministic LCG stream for the randomized tests.
    fn lcg(mut state: u64) -> impl FnMut() -> u32 {
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        }
    }

    #[test]
    fn chain_and_cycle() {
        check(5, &[(0, 1), (1, 2), (2, 3), (3, 4)], 2);
        check(4, &[(0, 1), (1, 2), (2, 0)], 3);
    }

    #[test]
    fn empty_and_self_loops() {
        check(3, &[], 2);
        check(3, &[(1, 1)], 2);
    }

    #[test]
    fn random_graph_matches_oracle() {
        let n = 60;
        let mut rnd = lcg(123456789);
        let edges: Vec<(u32, u32)> = (0..250)
            .map(|_| (rnd() % n as u32, rnd() % n as u32))
            .collect();
        check(n, &edges, 4);
        check(n, &edges, 1);
    }

    /// `S ∘ E*` by breadth-first search from each seed's target.
    fn oracle_seeded(n: usize, seeds: &[(u32, u32)], edges: &[(u32, u32)]) -> Vec<Vec<bool>> {
        let arc = AdjIndex::new(n, edges);
        let mut reach = vec![vec![false; n]; n];
        for &(s, t) in seeds {
            let row = &mut reach[s as usize];
            let mut stack = vec![t];
            while let Some(u) = stack.pop() {
                if !row[u as usize] {
                    row[u as usize] = true;
                    stack.extend_from_slice(arc.neighbors(u));
                }
            }
        }
        reach
    }

    #[test]
    fn seeded_closure_matches_composition_oracle() {
        let mut rnd = lcg(0x5eed);
        for n in [1usize, 63, 64, 65, 130, 257] {
            for case in 0..4 {
                let nu = n as u32;
                let edge_count = [0, n / 2, n, 3 * n][case];
                let mut edges: Vec<(u32, u32)> =
                    (0..edge_count).map(|_| (rnd() % nu, rnd() % nu)).collect();
                let mut seeds: Vec<(u32, u32)> =
                    (0..n / 3 + 1).map(|_| (rnd() % nu, rnd() % nu)).collect();
                // Duplicate seeds, a seed that is also an edge, self-loops
                // in both, and the last row and column.
                seeds.push(seeds[0]);
                seeds.push((nu - 1, nu - 1));
                if let Some(&e) = edges.first() {
                    seeds.push(e);
                }
                edges.push((nu / 2, nu / 2));
                edges.push((nu - 1, 0));
                let oracle = oracle_seeded(n, &seeds, &edges);
                let expect: usize = oracle.iter().flatten().filter(|&&b| b).count();
                for threads in [1, 2, 3, 8] {
                    let pool = ThreadPool::new(threads);
                    let m = tc_closure_seeded(&pool, n, &seeds, &edges);
                    // Equal counts and no bit missing from the oracle also
                    // rule out a stray bit past column `n`.
                    assert_eq!(m.count_ones(), expect, "n {n} case {case} x{threads}");
                    for i in 0..n {
                        let got: Vec<usize> = m.row_ones(i).collect();
                        let want: Vec<usize> = (0..n).filter(|&j| oracle[i][j]).collect();
                        assert_eq!(got, want, "row {i}, n {n} case {case} x{threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn dense_block_closure() {
        // Complete bipartite-ish structure: 0..5 -> 5..10 -> 0..5.
        let mut edges = Vec::new();
        for a in 0..5u32 {
            for b in 5..10u32 {
                edges.push((a, b));
                edges.push((b, a));
            }
        }
        let pool = ThreadPool::new(4);
        let mtc = tc_closure(&pool, 10, &edges);
        // Everything reaches everything.
        assert_eq!(mtc.count_ones(), 100);
    }
}
