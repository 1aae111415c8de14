//! PBME pattern detection and dispatch (paper §5.3).
//!
//! The engine swaps tuple-based evaluation of a recursive stratum for
//! parallel bit-matrix evaluation when the stratum *is* transitive closure
//! or same generation over a binary EDB, and (in
//! [`PbmeMode::Auto`](crate::PbmeMode::Auto)) when
//! the matrix plus index fits the memory budget — the paper's rule: "We
//! decide to build the bit-matrix data structure only if the memory
//! available can fit both the bit matrix, as well as any additional index
//! data structures used during evaluation."
//!
//! `matrix_columns` turns the closed matrix back into the IDB's two
//! columns, row-parallel: per-row popcounts give every block of rows its
//! offset, and each block fills its own disjoint slice of both columns.

use std::sync::Mutex;

use recstep_bitmatrix::BitMatrix;
use recstep_common::lang::Expr;
use recstep_common::sched::ThreadPool;
use recstep_common::Value;
use recstep_datalog::{AtomVersion, CompiledStratum};
use recstep_storage::ColAgg;

/// Matrix rows per block of the parallel matrix → column fill.
const FILL_ROWS: usize = 64;

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

/// Match a recursive stratum against the TC and SG shapes.
pub fn detect(stratum: &CompiledStratum) -> Option<PbmePlan> {
    if !stratum.recursive || stratum.idbs.len() != 1 {
        return None;
    }
    let idb = &stratum.idbs[0];
    if idb.agg.is_some() || idb.arity != 2 || idb.subqueries.len() != 1 {
        return None;
    }
    let sq = &idb.subqueries[0];
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
/// the budget.
pub fn fits_budget(n: usize, edge_count: usize, budget_bytes: usize) -> bool {
    let matrix = recstep_bitmatrix::BitMatrix::bytes_for(n);
    let index = (n + 1) * 4 + edge_count * 4; // CSR adjacency
    matrix.saturating_add(index) <= budget_bytes
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
        assert_eq!(detect(&strata[0]), None);
        assert_eq!(
            detect(&strata[1]),
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
            detect(&strata[1]),
            Some(PbmePlan::Tc {
                idb: "tc".into(),
                edges: "arc".into(),
                mirrored: true
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
    fn budget_check() {
        // 1000 vertices → 125 KB matrix.
        assert!(fits_budget(1000, 10_000, 1 << 20));
        assert!(!fits_budget(100_000, 10_000, 1 << 20)); // 1.25 GB matrix
    }
}
