//! Compiled-loop-style semi-naïve evaluation over hashed tuple sets — the
//! Soufflé stand-in.
//!
//! Soufflé compiles Datalog to native loop nests over indexed relations and
//! parallelizes the outer loops. The strategy-level ingredients this
//! baseline reproduces:
//!
//! * relations as append-only row stores with a membership set, so
//!   *insert-if-new* replaces the RDBMS dedup + set-difference pipeline
//!   (deltas are discovered during insertion, not by a separate query);
//! * semi-naïve deltas as contiguous row ranges (`Old = [0, d0)`,
//!   `∆ = [d0, d1)`, `Full = [0, len)`);
//! * per-join hash indexes built on demand.
//!
//! Soufflé's OpenMP parallelism over the outer loops is not reproduced:
//! the probe loops run on one thread.
//!
//! The engine consumes the same compiled plans as RecStep, so any
//! disagreement between the two is a bug in one of them — they share no
//! evaluation code.

use recstep_common::hash::{FxHashMap, FxHashSet};
use recstep_common::lang::{eval_all, Expr};
use recstep_common::{Error, Result, Value};
use recstep_datalog::analyze::analyze;
use recstep_datalog::parser::parse;
use recstep_datalog::plan::{
    compile, AtomVersion, CompiledIdb, CompiledProgram, CompiledStratum, SubQuery,
};

/// Evaluation statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetStats {
    /// Fixpoint iterations across strata.
    pub iterations: usize,
    /// Tuples inserted (deduplicated).
    pub tuples: usize,
}

/// Minimal monotonic MIN/MAX map (independent of the exec substrate, so
/// this baseline shares no evaluation code with RecStep).
struct MonotonicAgg {
    is_min: bool,
    map: FxHashMap<Vec<Value>, Value>,
}

impl MonotonicAgg {
    fn new(func: recstep_common::lang::AggFunc) -> Result<Self> {
        use recstep_common::lang::AggFunc::*;
        match func {
            Min => Ok(MonotonicAgg {
                is_min: true,
                map: FxHashMap::default(),
            }),
            Max => Ok(MonotonicAgg {
                is_min: false,
                map: FxHashMap::default(),
            }),
            other => Err(Error::analysis(format!(
                "recursive aggregation requires MIN or MAX, got {}",
                other.sql()
            ))),
        }
    }

    fn absorb(&mut self, group: &[Value], v: Value) -> bool {
        match self.map.get_mut(group) {
            Some(cur) => {
                let better = if self.is_min { v < *cur } else { v > *cur };
                if better {
                    *cur = v;
                }
                better
            }
            None => {
                self.map.insert(group.to_vec(), v);
                true
            }
        }
    }

    fn to_columns(&self, group_arity: usize) -> Vec<Vec<Value>> {
        let mut cols = vec![Vec::with_capacity(self.map.len()); group_arity + 1];
        for (key, &v) in &self.map {
            for (c, &k) in key.iter().enumerate() {
                cols[c].push(k);
            }
            cols[group_arity].push(v);
        }
        cols
    }
}

struct RelData {
    rows: Vec<Vec<Value>>,
    set: FxHashSet<Vec<Value>>,
    /// Start of the current ∆ range.
    d0: usize,
    /// End of the current ∆ range.
    d1: usize,
}

impl RelData {
    fn new() -> Self {
        RelData {
            rows: Vec::new(),
            set: FxHashSet::default(),
            d0: 0,
            d1: 0,
        }
    }

    fn insert(&mut self, row: Vec<Value>) -> bool {
        if self.set.contains(&row) {
            return false;
        }
        self.set.insert(row.clone());
        self.rows.push(row);
        true
    }
}

/// The set-based semi-naïve engine.
#[derive(Default)]
pub struct SetEngine {
    rels: FxHashMap<String, RelData>,
    /// Optional tuple budget for honest OOM reporting.
    pub tuple_budget: Option<usize>,
}

impl SetEngine {
    /// An engine with no relations and no tuple budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Load rows into an input relation.
    pub fn load(&mut self, name: &str, rows: impl IntoIterator<Item = Vec<Value>>) {
        let rel = self
            .rels
            .entry(name.to_string())
            .or_insert_with(RelData::new);
        for row in rows {
            rel.insert(row);
        }
    }

    /// Load binary edges.
    pub fn load_edges(&mut self, name: &str, edges: &[(Value, Value)]) {
        self.load(name, edges.iter().map(|&(a, b)| vec![a, b]));
    }

    /// Rows of a relation.
    pub fn rows(&self, name: &str) -> Option<&[Vec<Value>]> {
        self.rels.get(name).map(|r| r.rows.as_slice())
    }

    /// Row count (0 if absent).
    pub fn row_count(&self, name: &str) -> usize {
        self.rels.get(name).map_or(0, |r| r.rows.len())
    }

    /// Parse + analyze + compile + evaluate.
    pub fn run_source(&mut self, src: &str) -> Result<SetStats> {
        let analysis = analyze(parse(src)?)?;
        let compiled = compile(&analysis)?;
        for (name, vals) in &analysis.program.facts {
            self.load(name, [vals.clone()]);
        }
        self.run(&compiled)
    }

    /// Evaluate a compiled program.
    pub fn run(&mut self, prog: &CompiledProgram) -> Result<SetStats> {
        for decl in &prog.relations {
            if decl.is_idb {
                self.rels.insert(decl.name.clone(), RelData::new());
            } else {
                self.rels
                    .entry(decl.name.clone())
                    .or_insert_with(RelData::new);
            }
        }
        let mut stats = SetStats::default();
        for stratum in &prog.strata {
            self.run_stratum(stratum, &mut stats)?;
        }
        stats.tuples = self.rels.values().map(|r| r.rows.len()).sum();
        Ok(stats)
    }

    fn run_stratum(&mut self, stratum: &CompiledStratum, stats: &mut SetStats) -> Result<()> {
        // Stratum entry: ∆ = current contents, Old = ∅.
        let mut monos: Vec<Option<MonotonicAgg>> = Vec::new();
        for idb in &stratum.idbs {
            let rel = self.rels.get_mut(&idb.rel).expect("declared");
            rel.d0 = 0;
            rel.d1 = rel.rows.len();
            match &idb.agg {
                Some(shape) if stratum.recursive => {
                    if shape.funcs.len() != 1 {
                        return Err(Error::analysis(
                            "set engine supports one aggregate term per recursive head",
                        ));
                    }
                    let mut mono = MonotonicAgg::new(shape.funcs[0])?;
                    for row in &rel.rows {
                        let group: Vec<Value> =
                            shape.group_positions.iter().map(|&p| row[p]).collect();
                        mono.absorb(&group, row[shape.agg_positions[0]]);
                    }
                    monos.push(Some(mono));
                }
                _ => monos.push(None),
            }
        }
        loop {
            stats.iterations += 1;
            let mut all_empty = true;
            let mut pending: Vec<(usize, usize)> = Vec::with_capacity(stratum.idbs.len());
            for (i, idb) in stratum.idbs.iter().enumerate() {
                let candidates = self.eval_idb(stratum, idb)?;
                let range = self.absorb(idb, candidates, monos[i].as_mut())?;
                if range.0 != range.1 {
                    all_empty = false;
                }
                pending.push(range);
            }
            // Stage the new ∆ ranges only after the full pass, so peers read
            // the previous iteration's deltas (the double-buffering the
            // paper's two-temp-tables scheme implies).
            for (idb, range) in stratum.idbs.iter().zip(pending) {
                let rel = self.rels.get_mut(&idb.rel).expect("declared");
                rel.d0 = range.0;
                rel.d1 = range.1;
            }
            if let Some(budget) = self.tuple_budget {
                let live: usize = self.rels.values().map(|r| r.rows.len()).sum();
                if live > budget {
                    return Err(Error::exec(format!(
                        "out of memory: {live} tuples > {budget} budget"
                    )));
                }
            }
            if !stratum.recursive || all_empty {
                break;
            }
        }
        // Rebuild aggregated relations from their monotonic maps.
        for (i, idb) in stratum.idbs.iter().enumerate() {
            if let Some(mono) = &monos[i] {
                let shape = idb.agg.as_ref().expect("mono implies agg");
                let g = shape.group_positions.len();
                let flat = mono.to_columns(g);
                let rel = self.rels.get_mut(&idb.rel).expect("declared");
                rel.rows.clear();
                rel.set.clear();
                let rows = flat.first().map_or(0, Vec::len);
                #[allow(clippy::needless_range_loop)]
                for r in 0..rows {
                    let mut row = vec![0; idb.arity];
                    for (gi, &p) in shape.group_positions.iter().enumerate() {
                        row[p] = flat[gi][r];
                    }
                    row[shape.agg_positions[0]] = flat[g][r];
                    rel.insert(row);
                }
                rel.d0 = 0;
                rel.d1 = rel.rows.len();
            }
        }
        Ok(())
    }

    /// Insert candidates; returns the new ∆ row range.
    fn absorb(
        &mut self,
        idb: &CompiledIdb,
        candidates: Vec<Vec<Value>>,
        mono: Option<&mut MonotonicAgg>,
    ) -> Result<(usize, usize)> {
        let rel = self.rels.get_mut(&idb.rel).expect("declared");
        let before = rel.rows.len();
        match (&idb.agg, mono) {
            (Some(shape), Some(mono)) => {
                // Recursive aggregation: candidates are [groups ‖ arg].
                let g = shape.group_positions.len();
                for cand in candidates {
                    let (group, rest) = cand.split_at(g);
                    if mono.absorb(group, rest[0]) {
                        let mut row = vec![0; idb.arity];
                        for (gi, &p) in shape.group_positions.iter().enumerate() {
                            row[p] = group[gi];
                        }
                        row[shape.agg_positions[0]] = rest[0];
                        rel.rows.push(row); // improvements feed the next ∆
                    }
                }
            }
            (Some(shape), None) => {
                // Non-recursive aggregation: plain group-by then insert.
                let g = shape.group_positions.len();
                let mut states: FxHashMap<Vec<Value>, Vec<Value>> = FxHashMap::default();
                for cand in candidates {
                    let (group, args) = cand.split_at(g);
                    match states.get_mut(group) {
                        Some(acc) => {
                            for ((a, &v), &f) in acc.iter_mut().zip(args).zip(&shape.funcs) {
                                use recstep_common::lang::AggFunc::*;
                                match f {
                                    Min => *a = (*a).min(v),
                                    Max => *a = (*a).max(v),
                                    Sum => *a = a.wrapping_add(v),
                                    Count => *a += 1,
                                    Avg => {
                                        return Err(Error::analysis(
                                            "set engine does not support AVG heads",
                                        ))
                                    }
                                }
                            }
                        }
                        None => {
                            let init: Vec<Value> = args
                                .iter()
                                .zip(&shape.funcs)
                                .map(|(&v, f)| {
                                    if matches!(f, recstep_common::lang::AggFunc::Count) {
                                        1
                                    } else {
                                        v
                                    }
                                })
                                .collect();
                            states.insert(group.to_vec(), init);
                        }
                    }
                }
                for (group, vals) in states {
                    let mut row = vec![0; idb.arity];
                    for (gi, &p) in shape.group_positions.iter().enumerate() {
                        row[p] = group[gi];
                    }
                    for (&p, v) in shape.agg_positions.iter().zip(vals) {
                        row[p] = v;
                    }
                    rel.insert(row);
                }
            }
            (None, _) => {
                for cand in candidates {
                    rel.insert(cand);
                }
            }
        }
        Ok((before, rel.rows.len()))
    }

    fn view(&self, stratum_rel: &str, version: AtomVersion) -> &[Vec<Value>] {
        let rel = &self.rels[stratum_rel];
        match version {
            AtomVersion::Base | AtomVersion::Full => &rel.rows,
            AtomVersion::Delta => &rel.rows[rel.d0..rel.d1],
            AtomVersion::Old => &rel.rows[..rel.d0],
        }
    }

    fn check_intermediate(&self, rows: usize) -> Result<()> {
        if let Some(budget) = self.tuple_budget {
            if rows > budget {
                return Err(Error::exec(format!(
                    "out of memory: {rows} intermediate tuples > {budget} budget"
                )));
            }
        }
        Ok(())
    }

    fn eval_idb(&self, _stratum: &CompiledStratum, idb: &CompiledIdb) -> Result<Vec<Vec<Value>>> {
        let mut out = Vec::new();
        for sq in &idb.subqueries {
            out.extend(self.eval_subquery(sq)?);
        }
        Ok(out)
    }

    fn eval_subquery(&self, sq: &SubQuery) -> Result<Vec<Vec<Value>>> {
        // Flattened accumulated rows, built scan by scan.
        let first = self.view(&sq.scans[0].rel, sq.scans[0].version);
        let mut acc: Vec<Vec<Value>> = first
            .iter()
            .filter(|row| eval_all(&sq.scans[0].filters, row))
            .cloned()
            .collect();
        for (ji, join) in sq.joins.iter().enumerate() {
            let scan = &sq.scans[ji + 1];
            let right_all = self.view(&scan.rel, scan.version);
            // Index the right side on its key columns.
            let mut index: FxHashMap<Vec<Value>, Vec<usize>> = FxHashMap::default();
            for (ri, row) in right_all.iter().enumerate() {
                if !eval_all(&scan.filters, row) {
                    continue;
                }
                let key: Vec<Value> = join.right_keys.iter().map(|&c| row[c]).collect();
                index.entry(key).or_default().push(ri);
            }
            // Exact output size from the index, before materializing: the
            // honest OOM check for dense joins.
            if self.tuple_budget.is_some() {
                let mut total = 0usize;
                let mut key = Vec::new();
                for left in &acc {
                    key.clear();
                    key.extend(join.left_keys.iter().map(|&c| left[c]));
                    if let Some(hits) = index.get(&key) {
                        total += hits.len();
                    }
                }
                self.check_intermediate(total)?;
            }
            let probe = |left: &Vec<Value>| -> Vec<Vec<Value>> {
                let key: Vec<Value> = join.left_keys.iter().map(|&c| left[c]).collect();
                match index.get(&key) {
                    None => Vec::new(),
                    Some(hits) => hits
                        .iter()
                        .map(|&ri| {
                            let mut row = left.clone();
                            row.extend_from_slice(&right_all[ri]);
                            row
                        })
                        .collect(),
                }
            };
            acc = acc.iter().flat_map(probe).collect();
            self.check_intermediate(acc.len())?;
        }
        // Residual predicates, negations, head projection.
        let project = |row: &Vec<Value>| -> Option<Vec<Value>> {
            if !eval_all(&sq.residual, row) {
                return None;
            }
            for neg in &sq.negations {
                let rel = &self.rels[&neg.rel];
                // Membership probe: bind the negated atom's columns.
                let mut probe_row = vec![0; neg.arity];
                for (&lk, &rk) in neg.left_keys.iter().zip(&neg.right_keys) {
                    probe_row[rk] = row[lk];
                }
                let hit = if neg.filters.is_empty() && neg.left_keys.len() == neg.arity {
                    rel.set.contains(&probe_row)
                } else {
                    // General case: scan (negated atoms with constants or
                    // partially bound columns are rare in the benchmarks).
                    rel.rows.iter().any(|cand| {
                        eval_all(&neg.filters, cand)
                            && neg
                                .left_keys
                                .iter()
                                .zip(&neg.right_keys)
                                .all(|(&lk, &rk)| cand[rk] == row[lk])
                    })
                };
                if hit {
                    return None;
                }
            }
            Some(sq.head_exprs.iter().map(|e: &Expr| e.eval(row)).collect())
        };
        Ok(acc.iter().filter_map(project).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveEngine;
    use recstep_datalog::programs;
    use std::collections::BTreeSet;

    fn rand_edges(n: u64, m: usize, seed: u64) -> Vec<(Value, Value)> {
        let mut state = seed;
        let mut rnd = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        (0..m)
            .map(|_| ((rnd() % n) as Value, (rnd() % n) as Value))
            .collect()
    }

    fn set_of(rows: &[Vec<Value>]) -> BTreeSet<Vec<Value>> {
        rows.iter().cloned().collect()
    }

    #[test]
    fn tc_matches_naive() {
        let edges = rand_edges(25, 70, 2);
        let mut oracle = NaiveEngine::new();
        oracle.load_edges("arc", &edges);
        oracle.run_source(programs::TC).unwrap();
        let mut e = SetEngine::new();
        e.load_edges("arc", &edges);
        let stats = e.run_source(programs::TC).unwrap();
        assert_eq!(
            set_of(e.rows("tc").unwrap()),
            oracle.rows("tc").unwrap().iter().cloned().collect()
        );
        assert!(stats.iterations > 1);
    }

    #[test]
    fn sg_and_andersen_match_naive() {
        let edges = rand_edges(20, 60, 5);
        let mut oracle = NaiveEngine::new();
        oracle.load_edges("arc", &edges);
        oracle.run_source(programs::SG).unwrap();
        let mut e = SetEngine::new();
        e.load_edges("arc", &edges);
        e.run_source(programs::SG).unwrap();
        assert_eq!(
            set_of(e.rows("sg").unwrap()),
            oracle.rows("sg").unwrap().iter().cloned().collect()
        );

        let addr = rand_edges(15, 12, 7);
        let assign = rand_edges(15, 10, 8);
        let load = rand_edges(15, 6, 9);
        let store = rand_edges(15, 6, 10);
        let mut oracle = NaiveEngine::new();
        let mut e = SetEngine::new();
        for (name, data) in [
            ("addressOf", &addr),
            ("assign", &assign),
            ("load", &load),
            ("store", &store),
        ] {
            oracle.load_edges(name, data);
            e.load_edges(name, data);
        }
        oracle.run_source(programs::ANDERSEN).unwrap();
        e.run_source(programs::ANDERSEN).unwrap();
        assert_eq!(
            set_of(e.rows("pointsTo").unwrap()),
            oracle.rows("pointsTo").unwrap().iter().cloned().collect()
        );
    }

    #[test]
    fn cspa_mutual_recursion_matches_naive() {
        let assign = rand_edges(10, 8, 21);
        let deref = rand_edges(10, 8, 22);
        let mut oracle = NaiveEngine::new();
        let mut e = SetEngine::new();
        for (name, data) in [("assign", &assign), ("dereference", &deref)] {
            oracle.load_edges(name, data);
            e.load_edges(name, data);
        }
        oracle.run_source(programs::CSPA).unwrap();
        e.run_source(programs::CSPA).unwrap();
        for rel in ["valueFlow", "valueAlias", "memoryAlias"] {
            assert_eq!(
                set_of(e.rows(rel).unwrap()),
                oracle.rows(rel).unwrap().iter().cloned().collect(),
                "{rel}"
            );
        }
    }

    #[test]
    fn cc_recursive_min_matches_naive() {
        let edges = rand_edges(18, 40, 31);
        let mut oracle = NaiveEngine::new();
        oracle.load_edges("arc", &edges);
        oracle.run_source(programs::CC).unwrap();
        let mut e = SetEngine::new();
        e.load_edges("arc", &edges);
        e.run_source(programs::CC).unwrap();
        assert_eq!(
            set_of(e.rows("cc3").unwrap()),
            oracle.rows("cc3").unwrap().iter().cloned().collect()
        );
        assert_eq!(
            set_of(e.rows("cc").unwrap()),
            oracle.rows("cc").unwrap().iter().cloned().collect()
        );
    }

    #[test]
    fn negation_matches_naive() {
        let edges = rand_edges(8, 14, 41);
        let mut oracle = NaiveEngine::new();
        oracle.load_edges("arc", &edges);
        oracle.run_source(programs::NTC).unwrap();
        let mut e = SetEngine::new();
        e.load_edges("arc", &edges);
        e.run_source(programs::NTC).unwrap();
        assert_eq!(
            set_of(e.rows("ntc").unwrap()),
            oracle.rows("ntc").unwrap().iter().cloned().collect()
        );
    }

    #[test]
    fn budget_aborts() {
        let mut e = SetEngine::new();
        e.tuple_budget = Some(20);
        let edges: Vec<(Value, Value)> = (0..30).map(|i| (i, (i + 1) % 30)).collect();
        e.load_edges("arc", &edges);
        assert!(e.run_source(programs::TC).is_err());
    }
}
