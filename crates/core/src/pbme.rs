//! PBME pattern detection and dispatch (paper §5.3).
//!
//! The engine swaps tuple-based evaluation of a recursive stratum for
//! parallel bit-matrix evaluation when the stratum *is* transitive closure
//! or same generation over a binary EDB, and (in
//! [`PbmeMode::Auto`](crate::PbmeMode::Auto)) when
//! the matrix plus index fits the memory budget — the paper's rule: "We
//! decide to build the bit-matrix data structure only if the memory
//! available can fit both the bit matrix, as well as any additional index
//! data structures used during evaluation." — *and* the matrix is worth
//! building ([`worth`]): its `n·⌈n/64⌉` words are no more than the rows
//! the tuple path would hold instead. A sparse graph over many vertices
//! fits a large budget, yet its matrix is almost all zero words; the
//! cost rule keeps it on the tuple path. For TC those rows are the edges
//! plus a sampled estimate of the closure (`closure_rows`), taken
//! before the condensation's Tarjan pass, so a refused matrix costs one
//! adjacency index and at most 64 walks. SG has no such estimate yet: a
//! scratch SG run takes the fit rule alone, as its result is usually far
//! larger than its seeds and edges (G(4 000, 0.001): 15.3 M rows against
//! 64 k), and only a maintained view, whose rows are known, weighs it.
//! `Guard` carries the engine's mode to `close`.
//!
//! `close` is the one closure call behind both users of the matrix:
//! scratch evaluation materialises it back into the IDB's two columns
//! (`matrix_columns`: row-parallel, per-row popcounts give every block
//! of rows its offset, and each block fills its own disjoint slice of
//! both columns), and view maintenance tests the IDB's stored rows
//! against it to find the rows a deletion left without a derivation.

use std::sync::Mutex;

use recstep_bitmatrix::{AdjIndex, BitMatrix, Condensation};
use recstep_common::lang::Expr;
use recstep_common::sched::ThreadPool;
use recstep_common::Value;
use recstep_datalog::{AtomVersion, CompiledStratum};
use recstep_storage::ColAgg;

use crate::stats::EvalStats;

/// Matrix rows per block of the parallel matrix → column fill.
const FILL_ROWS: usize = 64;

/// Seed rows [`closure_rows`] walks from.
const SAMPLE_SEEDS: usize = 64;

/// A stratum PBME can take over.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PbmePlan {
    /// `R(x,y) :- R(x,z), E(z,y).` (or the mirrored left-composition form).
    Tc {
        /// The recursive IDB.
        idb: String,
        /// The binary EDB composed with.
        edges: String,
        /// True for `R(x,y) :- E(x,z), R(z,y).` — evaluated on the
        /// transposed graph.
        mirrored: bool,
    },
    /// `R(x,y) :- E(a,x), R(a,b), E(b,y).`
    Sg {
        /// The recursive IDB.
        idb: String,
        /// The binary EDB.
        edges: String,
    },
}

impl PbmePlan {
    /// Name of the IDB the plan evaluates.
    pub fn idb(&self) -> &str {
        match self {
            PbmePlan::Tc { idb, .. } | PbmePlan::Sg { idb, .. } => idb,
        }
    }

    /// Name of the EDB the plan composes with.
    pub fn edges(&self) -> &str {
        match self {
            PbmePlan::Tc { edges, .. } | PbmePlan::Sg { edges, .. } => edges,
        }
    }
}

/// Match a recursive stratum against the TC and SG shapes: one IDB whose
/// one subquery with a ∆ scan is the recursive rule of TC or SG, beside
/// any exit subqueries (without a ∆ scan), whose rows seed the closure.
pub fn detect(stratum: &CompiledStratum) -> Option<PbmePlan> {
    if !stratum.recursive || stratum.idbs.len() != 1 {
        return None;
    }
    let idb = &stratum.idbs[0];
    if idb.agg.is_some() || idb.arity != 2 {
        return None;
    }
    let mut recursive = idb.subqueries.iter().filter(|sq| sq.delta_scan.is_some());
    let (Some(sq), None) = (recursive.next(), recursive.next()) else {
        return None;
    };
    let clean = sq.residual.is_empty()
        && sq.negations.is_empty()
        && sq
            .scans
            .iter()
            .all(|s| s.filters.is_empty() && s.arity == 2);
    if !clean {
        return None;
    }
    match sq.scans.len() {
        2 => {
            let (s0, s1) = (&sq.scans[0], &sq.scans[1]);
            let join = &sq.joins[0];
            let head_ok = sq.head_exprs == vec![Expr::Col(0), Expr::Col(3)];
            let keys_ok = join.left_keys == vec![1] && join.right_keys == vec![0];
            if !(head_ok && keys_ok) {
                return None;
            }
            // R(x,y) :- R(x,z), E(z,y).
            if s0.version == AtomVersion::Delta
                && s0.rel == idb.rel
                && s1.version == AtomVersion::Base
                && s1.rel != idb.rel
            {
                return Some(PbmePlan::Tc {
                    idb: idb.rel.clone(),
                    edges: s1.rel.clone(),
                    mirrored: false,
                });
            }
            // R(x,y) :- E(x,z), R(z,y).
            if s0.version == AtomVersion::Base
                && s0.rel != idb.rel
                && s1.version == AtomVersion::Delta
                && s1.rel == idb.rel
            {
                return Some(PbmePlan::Tc {
                    idb: idb.rel.clone(),
                    edges: s0.rel.clone(),
                    mirrored: true,
                });
            }
            None
        }
        3 => {
            // R(x,y) :- E(a,x), R(a,b), E(b,y).
            let (s0, s1, s2) = (&sq.scans[0], &sq.scans[1], &sq.scans[2]);
            let ok = s0.version == AtomVersion::Base
                && s2.version == AtomVersion::Base
                && s0.rel == s2.rel
                && s0.rel != idb.rel
                && s1.version == AtomVersion::Delta
                && s1.rel == idb.rel
                && sq.joins[0].left_keys == vec![0]
                && sq.joins[0].right_keys == vec![0]
                && sq.joins[1].left_keys == vec![3]
                && sq.joins[1].right_keys == vec![0]
                && sq.head_exprs == vec![Expr::Col(1), Expr::Col(5)];
            if ok {
                Some(PbmePlan::Sg {
                    idb: idb.rel.clone(),
                    edges: s0.rel.clone(),
                })
            } else {
                None
            }
        }
        _ => None,
    }
}

/// The paper's memory-fit condition: matrix bytes plus index bytes within
/// the budget. The index term is the TC closure's bound (edge and seed
/// CSRs, component ids, condensed CSR, member lists, masks), which also
/// covers SG's adjacency index and seed list.
pub fn fits_budget(n: usize, edge_count: usize, seed_count: usize, budget_bytes: usize) -> bool {
    let matrix = recstep_bitmatrix::BitMatrix::bytes_for(n);
    let index = recstep_bitmatrix::tc::index_bytes_for(n, edge_count, seed_count);
    matrix.saturating_add(index) <= budget_bytes
}

/// The `u64` words of an `n`-vertex matrix: `n·⌈n/64⌉`.
fn words(n: usize) -> usize {
    n.saturating_mul(n.div_ceil(64))
}

/// The cost rule: a matrix over `n` vertices is worth building when its
/// `n·⌈n/64⌉` words are no more than `rows`, the rows the tuple path
/// holds instead (its result and the edge relation).
pub fn worth(n: usize, rows: usize) -> bool {
    words(n) <= rows
}

/// The rules [`close`] checks before it builds a matrix.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Guard {
    /// None: the matrix is built whatever its size
    /// ([`PbmeMode::Force`](crate::PbmeMode::Force)).
    Force,
    /// [`PbmeMode::Auto`](crate::PbmeMode::Auto): the paper's memory-fit
    /// rule ([`fits_budget`]) against `budget` bytes, then the cost rule
    /// ([`worth`]) against `rows`, the rows the tuple path holds instead.
    /// `None` has the plan estimate them: for TC, |E| plus
    /// [`closure_rows`]; SG has no estimate and takes the fit rule alone.
    Auto { budget: usize, rows: Option<usize> },
}

impl Guard {
    /// Whether an `n`-vertex matrix over `edge_count` edges and
    /// `seed_count` seeds passes the fit rule and, where the rows are
    /// known, the cost rule. Both are monotone in all three, so a lower
    /// bound on them that fails refuses the matrix.
    pub(crate) fn admits(self, n: usize, edge_count: usize, seed_count: usize) -> bool {
        match self {
            Guard::Force => true,
            Guard::Auto { budget, rows } => {
                fits_budget(n, edge_count, seed_count, budget)
                    && rows.is_none_or(|rows| worth(n, rows))
            }
        }
    }
}

/// An estimate of the rows of the closure of `seeds` over the graph
/// `arc` indexes (row `(s, t)` reaches every vertex a path of length ≥ 0
/// leads to from `t`). Up to [`SAMPLE_SEEDS`] seeds taken at a fixed
/// stride each walk `arc` from their target with a visited set, and the
/// vertices the walks reach scale by `|seeds| / sampled`. Stops as soon
/// as the estimate reaches `enough`, so a dense closure costs a walk or
/// two. Exact when every seed reaches as many vertices as the sampled
/// ones, and an over-estimate where seeds of one source reach the same
/// vertices.
pub(crate) fn closure_rows(arc: &AdjIndex, seeds: &[(u32, u32)], enough: usize) -> usize {
    if seeds.is_empty() {
        return 0;
    }
    let sampled = seeds.len().min(SAMPLE_SEEDS);
    let estimate = |reached: usize| reached.saturating_mul(seeds.len()) / sampled;
    // `seen[v] == k`: walk `k` reached `v`.
    let mut seen = vec![u32::MAX; arc.vertices()];
    let mut queue = Vec::new();
    let mut reached = 0;
    let stride = seeds.len() / sampled;
    for (k, &(_, t)) in seeds.iter().step_by(stride).take(sampled).enumerate() {
        if estimate(reached) >= enough {
            break;
        }
        let k = k as u32;
        seen[t as usize] = k;
        queue.clear();
        queue.push(t);
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            for &u in arc.neighbors(v) {
                if seen[u as usize] != k {
                    seen[u as usize] = k;
                    queue.push(u);
                }
            }
        }
        reached += queue.len();
    }
    estimate(reached)
}

/// A closed PBME matrix over the ids `0..n`.
pub(crate) struct Closure {
    pub(crate) matrix: BitMatrix,
    /// Row `(x, y)` of the IDB is bit `(y, x)`: mirrored TC closes the
    /// transposed graph.
    pub(crate) transposed: bool,
}

impl Closure {
    /// Whether the IDB row `(x, y)` is in the closure.
    pub(crate) fn contains(&self, x: Value, y: Value) -> bool {
        let n = self.matrix.n() as Value;
        let (i, j) = if self.transposed { (y, x) } else { (x, y) };
        (0..n).contains(&i) && (0..n).contains(&j) && self.matrix.get(i as usize, j as usize)
    }
}

/// Close `seeds`, the IDB's exit rows, over `edges` as `plan` says: the
/// fixpoint of its recursive rule from those rows, as a bit-matrix over
/// the ids `0..n`, where `n` is one past the largest id. Both arguments
/// are the relations' two columns. Returns `None`, for the caller to fall
/// back to tuples, when an id falls outside `[0, u32::MAX)` or `guard`
/// refuses the matrix. Books the condensation's components and the
/// matrix's bytes in `stats` when it builds the matrix.
pub(crate) fn close(
    pool: &ThreadPool,
    plan: &PbmePlan,
    edges: [&[Value]; 2],
    seeds: [&[Value]; 2],
    guard: Guard,
    stats: &mut EvalStats,
) -> Option<Closure> {
    let mut max_id: Value = -1;
    for &v in edges.iter().chain(&seeds).copied().flatten() {
        if v < 0 || v >= u32::MAX as Value {
            return None;
        }
        max_id = max_id.max(v);
    }
    let n = (max_id + 1).max(1) as usize;
    if !guard.admits(n, edges[0].len(), seeds[0].len()) {
        return None;
    }
    let pairs = |[a, b]: [&[Value]; 2], swap: bool| -> Vec<(u32, u32)> {
        let pair = |(&a, &b): (&Value, &Value)| (a as u32, b as u32);
        if swap {
            b.iter().zip(a).map(pair).collect()
        } else {
            a.iter().zip(b).map(pair).collect()
        }
    };
    let closure = match plan {
        PbmePlan::Tc { mirrored, .. } => {
            let arc = AdjIndex::new(n, &pairs(edges, *mirrored));
            let seeds = pairs(seeds, *mirrored);
            if let Guard::Auto { rows: None, .. } = guard {
                let e = arc.edges();
                let enough = words(n).saturating_sub(e);
                if !worth(n, e + closure_rows(&arc, &seeds, enough)) {
                    return None;
                }
            }
            let condensed = Condensation::from_adjacency(arc);
            stats.pbme_components += condensed.components();
            Closure {
                matrix: condensed.close(pool, &seeds),
                transposed: *mirrored,
            }
        }
        PbmePlan::Sg { .. } => Closure {
            matrix: recstep_bitmatrix::sg_closure_seeded(
                pool,
                n,
                &pairs(edges, false),
                Some(&pairs(seeds, false)),
            ),
            transposed: false,
        },
    };
    stats.pbme_matrix_bytes = stats.pbme_matrix_bytes.max(closure.matrix.heap_bytes());
    Some(closure)
}

/// One block's share of the output columns.
struct FillBlock<'a> {
    rows: &'a mut [Value],
    cols: &'a mut [Value],
    /// Aggregates of the column indices written, once filled.
    col_agg: Option<ColAgg>,
}

/// The set bits of `m` as two columns in row-major order — `(i, j)`, or
/// `(j, i)` when `transpose` — with each column's aggregates, so the
/// relation they are appended to need not scan them again.
pub(crate) fn matrix_columns(
    pool: &ThreadPool,
    m: &BitMatrix,
    transpose: bool,
) -> (Vec<Vec<Value>>, Vec<ColAgg>) {
    let n = m.n();
    let counts: Vec<usize> = (0..n).map(|i| m.row_count(i)).collect();
    let total: usize = counts.iter().sum();
    // Zeroed lazily by the allocator: the parallel fill, not this thread,
    // touches the pages first.
    let mut row_vals: Vec<Value> = vec![0; total];
    let mut col_vals: Vec<Value> = vec![0; total];
    let mut blocks = Vec::with_capacity(n.div_ceil(FILL_ROWS));
    let (mut rows_left, mut cols_left) = (&mut row_vals[..], &mut col_vals[..]);
    for chunk in counts.chunks(FILL_ROWS) {
        let len = chunk.iter().sum();
        let (rows, rest) = std::mem::take(&mut rows_left).split_at_mut(len);
        rows_left = rest;
        let (cols, rest) = std::mem::take(&mut cols_left).split_at_mut(len);
        cols_left = rest;
        blocks.push(Mutex::new(FillBlock {
            rows,
            cols,
            col_agg: None,
        }));
    }
    pool.parallel_for(blocks.len(), 1, |range, _| {
        let mut words = vec![0u64; m.words_per_row()];
        for b in range {
            let mut guard = blocks[b].lock().expect("fill block lock");
            let block = &mut *guard;
            let mut k = 0;
            let (mut min, mut max, mut sum) = (Value::MAX, Value::MIN, 0 as Value);
            for i in b * FILL_ROWS..((b + 1) * FILL_ROWS).min(n) {
                m.load_row(i, &mut words);
                for (w, &word) in words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let j = (w * 64) as Value + Value::from(bits.trailing_zeros());
                        block.rows[k] = i as Value;
                        block.cols[k] = j;
                        min = min.min(j);
                        max = max.max(j);
                        sum = sum.wrapping_add(j);
                        k += 1;
                        bits &= bits - 1;
                    }
                }
            }
            debug_assert_eq!(k, block.rows.len());
            block.col_agg = (k > 0).then_some(ColAgg { min, max, sum });
        }
    });
    let col_agg = blocks
        .into_iter()
        .filter_map(|b| b.into_inner().expect("fill block lock").col_agg)
        .reduce(|mut acc, a| {
            acc.merge(&a);
            acc
        });
    // No aggregates for an empty matrix: the relation ignores them then.
    let mut aggs = Vec::with_capacity(2);
    if let Some(col_agg) = col_agg {
        let first = counts.iter().position(|&c| c > 0).expect("a set bit");
        let last = counts.iter().rposition(|&c| c > 0).expect("a set bit");
        let row_sum = counts.iter().enumerate().fold(0 as Value, |s, (i, &c)| {
            s.wrapping_add((i as Value).wrapping_mul(c as Value))
        });
        aggs.push(ColAgg {
            min: first as Value,
            max: last as Value,
            sum: row_sum,
        });
        aggs.push(col_agg);
    }
    let mut data = vec![row_vals, col_vals];
    if transpose {
        data.reverse();
        aggs.reverse();
    }
    (data, aggs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recstep_datalog::{analyze::analyze, parser::parse, plan::compile};

    fn strata_of(src: &str) -> Vec<CompiledStratum> {
        compile(&analyze(parse(src).unwrap()).unwrap())
            .unwrap()
            .strata
    }

    #[test]
    fn detects_canonical_tc() {
        let strata = strata_of(recstep_datalog::programs::TC);
        assert_eq!(strata.len(), 1);
        assert_eq!(
            detect(&strata[0]),
            Some(PbmePlan::Tc {
                idb: "tc".into(),
                edges: "arc".into(),
                mirrored: false
            })
        );
    }

    #[test]
    fn detects_mirrored_tc() {
        let strata = strata_of("tc(x, y) :- arc(x, y).\ntc(x, y) :- arc(x, z), tc(z, y).");
        assert_eq!(
            detect(&strata[0]),
            Some(PbmePlan::Tc {
                idb: "tc".into(),
                edges: "arc".into(),
                mirrored: true
            })
        );
    }

    #[test]
    fn detects_tc_beside_several_exit_rules() {
        let strata = strata_of(
            "t(x, y) :- e(x, y).\nt(x, y) :- f(y, x), x != y.\nt(x, y) :- t(x, z), e(z, y).",
        );
        assert_eq!(strata.len(), 1);
        assert_eq!(
            detect(&strata[0]),
            Some(PbmePlan::Tc {
                idb: "t".into(),
                edges: "e".into(),
                mirrored: false
            })
        );
    }

    #[test]
    fn detects_sg() {
        let strata = strata_of(recstep_datalog::programs::SG);
        let rec = strata.iter().find(|s| s.recursive).unwrap();
        assert_eq!(
            detect(rec),
            Some(PbmePlan::Sg {
                idb: "sg".into(),
                edges: "arc".into()
            })
        );
    }

    #[test]
    fn rejects_reach_and_other_shapes() {
        // REACH is monadic — not a bit-matrix candidate.
        let strata = strata_of(recstep_datalog::programs::REACH);
        for s in &strata {
            assert_eq!(detect(s), None);
        }
        // Residual predicates disqualify.
        let strata = strata_of("t(x, y) :- e(x, y).\nt(x, y) :- t(x, z), e(z, y), x != y.");
        let rec = strata.iter().find(|s| s.recursive).unwrap();
        assert_eq!(detect(rec), None);
        // Two recursive rules disqualify, whatever the exit rules.
        let strata = strata_of(
            "t(x, y) :- e(x, y).\nt(x, y) :- f(x, y).\n\
             t(x, y) :- t(x, z), e(z, y).\nt(x, y) :- e(x, z), t(z, y).",
        );
        assert_eq!(detect(&strata[0]), None);
        // Mutual recursion disqualifies.
        let strata = strata_of(recstep_datalog::programs::CSPA);
        for s in &strata {
            assert_eq!(detect(s), None);
        }
    }

    #[test]
    fn matrix_columns_are_row_major_with_exact_aggs() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        // Bits fall in the band `lo..hi` of rows and of columns, so some
        // matrices have empty leading and trailing rows and columns.
        for (n, lo, hi) in [
            (1usize, 0, 1),
            (63, 0, 63),
            (64, 10, 50),
            (65, 1, 64),
            (200, 70, 140),
        ] {
            let m = BitMatrix::new(n);
            for _ in 0..n * 3 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let (i, j) = ((state >> 40) as usize, (state >> 16) as usize);
                m.set(lo + i % (hi - lo), lo + j % (hi - lo));
            }
            let mut want: Vec<(Value, Value)> = Vec::new();
            for i in 0..n {
                want.extend(m.row_ones(i).map(|j| (i as Value, j as Value)));
            }
            for threads in [1, 3] {
                let pool = ThreadPool::new(threads);
                for transpose in [false, true] {
                    let (data, aggs) = matrix_columns(&pool, &m, transpose);
                    let got: Vec<(Value, Value)> = data[0]
                        .iter()
                        .zip(&data[1])
                        .map(|(&a, &b)| if transpose { (b, a) } else { (a, b) })
                        .collect();
                    assert_eq!(got, want, "n {n} x{threads} transpose {transpose}");
                    for c in 0..2 {
                        assert_eq!(Some(aggs[c]), ColAgg::of(&data[c]), "n {n} col {c}");
                    }
                }
            }
        }
        let pool = ThreadPool::new(2);
        let (data, aggs) = matrix_columns(&pool, &BitMatrix::new(70), false);
        assert!(data.iter().all(Vec::is_empty) && aggs.is_empty());
    }

    #[test]
    fn closure_rows_is_exact_on_a_matching_and_stops_at_enough() {
        // A matching 2i → 2i+1: each seed's target reaches only itself.
        let matching: Vec<(u32, u32)> = (0..1000).map(|i| (2 * i, 2 * i + 1)).collect();
        let arc = AdjIndex::new(2000, &matching);
        assert_eq!(closure_rows(&arc, &matching, usize::MAX), 1000);
        assert_eq!(closure_rows(&arc, &matching[..10], usize::MAX), 10);
        assert_eq!(closure_rows(&arc, &[], usize::MAX), 0);
        // A complete graph on 256 vertices: every walk reaches all 256.
        let n = 256u32;
        let dense: Vec<(u32, u32)> = (0..n).flat_map(|a| (0..n).map(move |b| (a, b))).collect();
        let arc = AdjIndex::new(n as usize, &dense);
        let full = closure_rows(&arc, &dense, usize::MAX);
        assert_eq!(full, 256 * dense.len());
        // One walk's share already reaches the matrix's 1 024 words.
        let early = closure_rows(&arc, &dense, words(256));
        assert_eq!(early, full / SAMPLE_SEEDS);
        assert!(early >= words(256));
        assert_eq!(closure_rows(&arc, &dense, 0), 0);
    }

    #[test]
    fn worth_weighs_words_against_rows() {
        assert!(worth(64, 64));
        assert!(!worth(64, 63));
        // 65 vertices take two words a row.
        assert!(worth(65, 130));
        assert!(!worth(65, 129));
        assert!(worth(0, 0));
    }

    #[test]
    fn budget_check() {
        // 1000 vertices → 125 KB matrix; 100 000 vertices → 1.25 GB.
        assert!(fits_budget(1000, 10_000, 10_000, 1 << 20));
        assert!(!fits_budget(100_000, 10_000, 10_000, 1 << 20));
        // At the boundary: 4 000 vertices, 32 000 edges and as many seeds
        // (the `tc_gnp` shape) take a 2 016 000-byte matrix (63 words a
        // row), and the index term counts the edge and seed CSRs
        // (2 × 144 004), component ids (16 000), condensed CSR (144 004),
        // member lists (32 004), mask offsets (16 000) and 62 masks of 63
        // words (31 248).
        let need = 2_016_000 + 3 * 144_004 + 16_000 + 32_004 + 16_000 + 31_248;
        assert!(fits_budget(4000, 32_000, 32_000, need));
        assert!(!fits_budget(4000, 32_000, 32_000, need - 1));
        // Seeds count: one more seed no longer fits.
        assert!(!fits_budget(4000, 32_000, 32_001, need));
    }
}
