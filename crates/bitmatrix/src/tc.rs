//! Algorithm 2 over the condensation: parallel bit-matrix evaluation of
//! transitive closure.
//!
//! Vertices of one strongly connected component (SCC) of `arc` reach the
//! same vertices, so [`Condensation::new`] first gives every vertex a
//! component id (an iterative Tarjan pass) and collapses `arc` into a
//! deduplicated edge list between components, with a member list per
//! component. The condensed graph is never larger than `arc`, and on a
//! graph with one giant SCC it is a handful of vertices.
//!
//! [`Condensation::close`] then runs Algorithm 2's per-row frontier loop
//! (lines 8–21) over component ids. Rows need **zero coordination**:
//! workers take rows in morsels from the pool, and the worker that owns a
//! row walks the components reachable from its seeds' components with a
//! private visited set, expands every reached component into a private
//! `u64` row (one OR per word of a precomputed member mask for components
//! of at least [`MASK_MIN`] members, one bit per member otherwise) and
//! publishes it with [`BitMatrix::store_row`]. No atomic instruction runs
//! on the hot path; every row has exactly one writer, and morsels only
//! decide which worker it is.

use recstep_common::sched::ThreadPool;

use crate::{AdjIndex, BitMatrix};

/// Rows a worker claims at a time.
const ROW_MORSEL: usize = 16;

/// Components with at least this many members get a member bit-mask, so
/// expanding one into a row costs `words_per_row` ORs instead of one bit
/// per member. At most `n / MASK_MIN` components qualify, so the masks
/// take at most `1 / MASK_MIN` of the matrix's bytes.
pub const MASK_MIN: usize = 64;

/// An absent id: a vertex the Tarjan pass has not reached or not yet
/// assigned a component, a component without a mask, an unmarked slot.
const NONE: u32 = u32::MAX;

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
    Condensation::new(n, edges).close(pool, seeds)
}

/// Upper bound on the bytes [`tc_closure_seeded`] holds besides the
/// matrix, for `n` vertices, `edge_count` edges and `seed_count` seeds:
/// the edge and seed CSRs, the component ids, the condensed CSR, the
/// member lists, the mask offsets and the masks (at most `n / MASK_MIN`
/// of them, `⌈n/64⌉` words each). Each worker's row, visited set and
/// queue (`O(n)` words) and the Tarjan pass's scratch, freed before the
/// matrix is allocated, are not counted.
pub fn index_bytes_for(n: usize, edge_count: usize, seed_count: usize) -> usize {
    let csr = |len: usize| (n + 1 + len) * 4;
    let masks = (n / MASK_MIN) * n.div_ceil(64) * 8;
    csr(edge_count) + csr(seed_count) + n * 4 + csr(edge_count) + csr(n) + n * 4 + masks
}

/// The SCC condensation of a graph over vertices `0..n`.
#[derive(Clone, Debug)]
pub struct Condensation {
    n: usize,
    /// Component id of each vertex. Tarjan emits a component after every
    /// component it reaches, so an edge between two components always
    /// points to the smaller id.
    comp: Vec<u32>,
    /// Condensed edges: per component, the distinct other components an
    /// edge of one of its members enters.
    succ: AdjIndex,
    /// Per component, its member vertices.
    members: AdjIndex,
    /// Per component, the index of its member bit-mask in `masks`, or
    /// [`NONE`] below [`MASK_MIN`] members.
    mask_at: Vec<u32>,
    /// `words_per_row` words per masked component.
    masks: Vec<u64>,
}

impl Condensation {
    /// Condense `edges` over vertices `0..n`.
    pub fn new(n: usize, edges: &[(u32, u32)]) -> Self {
        Self::from_adjacency(AdjIndex::new(n, edges))
    }

    /// Condense the graph `arc` indexes, over its vertices.
    pub fn from_adjacency(arc: AdjIndex) -> Self {
        let n = arc.vertices();
        let (comp, count) = tarjan(&arc);
        let members = AdjIndex::new(
            count,
            &(0..n as u32)
                .map(|v| (comp[v as usize], v))
                .collect::<Vec<_>>(),
        );
        // Walk each component's members' edges; `seen[d] == c` marks `d`
        // already listed for `c`.
        let mut seen = vec![NONE; count];
        let mut offsets = Vec::with_capacity(count + 1);
        let mut targets = Vec::new();
        offsets.push(0u32);
        for c in 0..count as u32 {
            seen[c as usize] = c;
            for &v in members.neighbors(c) {
                for &u in arc.neighbors(v) {
                    let d = comp[u as usize];
                    if seen[d as usize] != c {
                        seen[d as usize] = c;
                        targets.push(d);
                    }
                }
            }
            offsets.push(targets.len() as u32);
        }
        targets.shrink_to_fit();
        let succ = AdjIndex::from_parts(offsets, targets);
        let words = n.div_ceil(64);
        let big = |c: &u32| members.neighbors(*c).len() >= MASK_MIN;
        let mut mask_at = vec![NONE; count];
        let mut masks = vec![0u64; (0..count as u32).filter(big).count() * words];
        for (k, c) in (0..count as u32).filter(big).enumerate() {
            mask_at[c as usize] = k as u32;
            set_bits(&mut masks[k * words..][..words], members.neighbors(c));
        }
        Condensation {
            n,
            comp,
            succ,
            members,
            mask_at,
            masks,
        }
    }

    /// Number of strongly connected components.
    pub fn components(&self) -> usize {
        self.mask_at.len()
    }

    /// Algorithm 2 over the condensation: the matrix whose row `s` holds
    /// every vertex reachable by a path of length ≥ 0 from some `t` with
    /// `(s, t)` in `seeds`.
    pub fn close(&self, pool: &ThreadPool, seeds: &[(u32, u32)]) -> BitMatrix {
        let n = self.n;
        let count = self.components();
        let seeded = AdjIndex::new(n, seeds);
        let mtc = BitMatrix::new(n);
        pool.parallel_for(n, ROW_MORSEL, |rows, _| {
            let mut row = vec![0u64; mtc.words_per_row()];
            let mut visited = vec![0u64; count.div_ceil(64)];
            // The frontier queue never holds more than `count` components;
            // the extra slot takes the unconditional write of a
            // branch-free push.
            let mut queue = vec![0u32; count + 1];
            for i in rows {
                // δ ← the seeds' components (line 9), then lines 10–21:
                // test-and-set fused join/dedup over condensed edges.
                let mut len = 0;
                for &t in seeded.neighbors(i as u32) {
                    len = visit(&mut visited, &mut queue, len, self.comp[t as usize]);
                }
                let mut head = 0;
                while head < len {
                    let c = queue[head];
                    head += 1;
                    for &d in self.succ.neighbors(c) {
                        len = visit(&mut visited, &mut queue, len, d);
                    }
                }
                row.fill(0);
                for &c in &queue[..len] {
                    visited[c as usize / 64] = 0;
                    match self.mask_at[c as usize] {
                        NONE => set_bits(&mut row, self.members.neighbors(c)),
                        k => {
                            let mask = &self.masks[k as usize * row.len()..][..row.len()];
                            for (w, &m) in row.iter_mut().zip(mask) {
                                *w |= m;
                            }
                        }
                    }
                }
                mtc.store_row(i, &row);
            }
        });
        mtc
    }
}

/// Mark component `c` visited; append it to the queue iff it was not.
/// Returns the new queue length.
#[inline]
fn visit(visited: &mut [u64], queue: &mut [u32], len: usize, c: u32) -> usize {
    let (w, m) = (c as usize / 64, 1u64 << (c % 64));
    let old = visited[w];
    visited[w] = old | m;
    queue[len] = c;
    len + usize::from(old & m == 0)
}

/// Set bit `v` of `words` for every `v` in `vertices`.
#[inline]
fn set_bits(words: &mut [u64], vertices: &[u32]) {
    for &v in vertices {
        words[v as usize / 64] |= 1u64 << (v % 64);
    }
}

/// Iterative Tarjan: each vertex's component id and the number of
/// components. Ids come out in reverse topological order of the
/// condensation. No recursion, so a path of any length is safe.
fn tarjan(arc: &AdjIndex) -> (Vec<u32>, usize) {
    let n = arc.vertices();
    let mut index = vec![NONE; n];
    let mut low = vec![0u32; n];
    let mut comp = vec![NONE; n];
    // Vertices visited but not yet assigned a component, in visit order.
    let mut stack: Vec<u32> = Vec::new();
    // The DFS path: a vertex and how many of its edges are explored.
    let mut path: Vec<(u32, usize)> = Vec::new();
    let (mut next, mut count) = (0u32, 0u32);
    for root in 0..n as u32 {
        if index[root as usize] != NONE {
            continue;
        }
        index[root as usize] = next;
        low[root as usize] = next;
        next += 1;
        stack.push(root);
        path.push((root, 0));
        while let Some(&mut (v, ref mut explored)) = path.last_mut() {
            let out = arc.neighbors(v);
            if let Some(&w) = out.get(*explored) {
                *explored += 1;
                let wi = w as usize;
                if index[wi] == NONE {
                    index[wi] = next;
                    low[wi] = next;
                    next += 1;
                    stack.push(w);
                    path.push((w, 0));
                } else if comp[wi] == NONE {
                    // `w` is on the stack: a back or cross edge into the
                    // component being built.
                    low[v as usize] = low[v as usize].min(index[wi]);
                }
                continue;
            }
            path.pop();
            let vi = v as usize;
            if let Some(&(p, _)) = path.last() {
                low[p as usize] = low[p as usize].min(low[vi]);
            }
            if low[vi] == index[vi] {
                loop {
                    let w = stack.pop().expect("v is on the stack");
                    comp[w as usize] = count;
                    if w == v {
                        break;
                    }
                }
                count += 1;
            }
        }
    }
    (comp, count as usize)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use recstep_common::sched::ThreadPool;

    impl Condensation {
        fn masked_components(&self) -> usize {
            self.masks.len() / self.n.div_ceil(64).max(1)
        }

        fn component(&self, v: u32) -> u32 {
            self.comp[v as usize]
        }

        fn condensed_edges(&self) -> usize {
            self.succ.edges()
        }

        fn heap_bytes(&self) -> usize {
            self.comp.capacity() * 4
                + self.succ.heap_bytes()
                + self.members.heap_bytes()
                + self.mask_at.capacity() * 4
                + self.masks.capacity() * 8
        }
    }

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
                for threads in [1, 2, 3, 8] {
                    let pool = ThreadPool::new(threads);
                    let m = tc_closure_seeded(&pool, n, &seeds, &edges);
                    assert_rows(&m, &oracle, &format!("n {n} case {case} x{threads}"));
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

    /// A planted-SCC graph over `n` shuffled vertices: cycles whose sizes
    /// repeat 1, 2, 63, 64, 65 (the last one cut to fit), every second
    /// 1-cycle a self-loop, joined by forward bridges into a DAG with
    /// diamonds (component `k` to `k + 1` and `k + 2`, each at random, and
    /// a long jump). Returns the edges, the vertices of each cycle in
    /// order, and the number of cycles of at least [`MASK_MIN`] vertices.
    fn planted(n: usize, rnd: &mut impl FnMut() -> u32) -> (Vec<(u32, u32)>, Vec<Vec<u32>>, usize) {
        let mut ids: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            ids.swap(i, rnd() as usize % (i + 1));
        }
        let mut cycles: Vec<Vec<u32>> = Vec::new();
        let mut at = 0;
        for size in [1usize, 2, 63, 64, 65].iter().cycle() {
            if at == n {
                break;
            }
            let size = (*size).min(n - at);
            cycles.push(ids[at..at + size].to_vec());
            at += size;
        }
        let mut edges = Vec::new();
        for (k, cyc) in cycles.iter().enumerate() {
            if cyc.len() > 1 || k.is_multiple_of(10) {
                for (i, &v) in cyc.iter().enumerate() {
                    edges.push((v, cyc[(i + 1) % cyc.len()]));
                }
            }
        }
        let pick = |cyc: &Vec<u32>, r: u32| cyc[r as usize % cyc.len()];
        for k in 0..cycles.len() {
            for step in [1, 2] {
                if k + step < cycles.len() && !rnd().is_multiple_of(4) {
                    edges.push((pick(&cycles[k], rnd()), pick(&cycles[k + step], rnd())));
                }
            }
            let far = k + 3 + rnd() as usize % 5;
            if far < cycles.len() && rnd().is_multiple_of(2) {
                edges.push((pick(&cycles[k], rnd()), pick(&cycles[far], rnd())));
            }
        }
        let big = cycles.iter().filter(|c| c.len() >= MASK_MIN).count();
        (edges, cycles, big)
    }

    /// Equal counts and no bit missing from the oracle also rule out a
    /// stray bit past column `n`.
    fn assert_rows(m: &BitMatrix, oracle: &[Vec<bool>], what: &str) {
        let n = oracle.len();
        let expect: usize = oracle.iter().flatten().filter(|&&b| b).count();
        assert_eq!(m.count_ones(), expect, "{what}");
        for i in 0..n {
            let got: Vec<usize> = m.row_ones(i).collect();
            let want: Vec<usize> = (0..n).filter(|&j| oracle[i][j]).collect();
            assert_eq!(got, want, "row {i}, {what}");
        }
    }

    #[test]
    fn planted_components_close_like_the_oracle() {
        let mut rnd = lcg(0xc0de);
        for n in [64usize, 65, 257, 1000] {
            let (edges, cycles, big) = planted(n, &mut rnd);
            let cond = Condensation::new(n, &edges);
            // Every cycle, and every vertex without a self-loop, is one
            // component; the size-64 and size-65 cycles carry masks.
            assert_eq!(cond.components(), cycles.len(), "n {n}");
            assert_eq!(cond.masked_components(), big, "n {n}");
            assert!(n < 257 || big >= 2, "n {n} plants the mask path");
            for cyc in &cycles {
                assert!(cyc
                    .iter()
                    .all(|&v| cond.component(v) == cond.component(cyc[0])));
            }
            assert!(cond.condensed_edges() <= edges.len());
            // Seeds that are not the edges: a sample of the edges, seeds
            // into the middle of the DAG and onto its sinks, self-seeds
            // and duplicates.
            let nu = n as u32;
            let sinks: Vec<u32> = (0..nu)
                .filter(|&v| edges.iter().all(|&(s, _)| s != v))
                .collect();
            let mut seeds: Vec<(u32, u32)> = edges.iter().copied().step_by(3).collect();
            let middle = &cycles[cycles.len() / 2];
            for _ in 0..n / 4 {
                seeds.push((rnd() % nu, middle[rnd() as usize % middle.len()]));
            }
            for &t in sinks.iter().take(8) {
                seeds.push((rnd() % nu, t));
            }
            seeds.push((nu - 1, nu - 1));
            seeds.push(seeds[0]);
            seeds.push(seeds[seeds.len() / 2]);
            let bound = index_bytes_for(n, edges.len(), seeds.len());
            let held = AdjIndex::new(n, &edges).heap_bytes()
                + AdjIndex::new(n, &seeds).heap_bytes()
                + cond.heap_bytes();
            assert!(held <= bound, "n {n}: {held} bytes held, bound {bound}");
            let tc = oracle_seeded(n, &edges, &edges);
            let seeded = oracle_seeded(n, &seeds, &edges);
            for threads in [1, 2, 3, 8] {
                let pool = ThreadPool::new(threads);
                let m = tc_closure(&pool, n, &edges);
                assert_rows(&m, &tc, &format!("tc n {n} x{threads}"));
                let m = tc_closure_seeded(&pool, n, &seeds, &edges);
                assert_rows(&m, &seeded, &format!("seeded n {n} x{threads}"));
            }
        }
    }

    #[test]
    fn scc_pass_is_iterative() {
        // A recursive pass would overflow the test thread's stack at this
        // depth.
        let n = 1_000_000u32;
        let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|v| (v, v + 1)).collect();
        let path = Condensation::new(n as usize, &edges);
        assert_eq!(path.components(), n as usize);
        assert_eq!(path.condensed_edges(), n as usize - 1);
        assert_eq!(path.masked_components(), 0);
        // Reverse topological ids: every edge enters a smaller id.
        assert!((0..n - 1).all(|v| path.component(v) > path.component(v + 1)));
        edges.push((n - 1, 0));
        let cycle = Condensation::new(n as usize, &edges);
        assert_eq!(cycle.components(), 1);
        assert_eq!(cycle.condensed_edges(), 0);
        assert_eq!(cycle.masked_components(), 1);
    }
}
