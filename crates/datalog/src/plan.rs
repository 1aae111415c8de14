//! The query generator: compiling analyzed rules into logical plans.
//!
//! Each stratum compiles to one [`CompiledIdb`] per head relation, holding
//! the *subqueries* of the semi-naïve rewriting: a rule with `k` occurrences
//! of same-stratum (recursive) IDBs yields `k` subqueries, the `i`-th
//! scanning occurrence `i` as `∆` (Delta), occurrences before it as the full
//! relation (Full) and occurrences after it as the previous iteration's
//! snapshot (Old) — the standard non-redundant rewriting for non-linear
//! rules the paper references in §3.2. Plans are purely positional: variable
//! names are resolved to flattened-row column indices here so the backend
//! never sees names.

use recstep_common::hash::FxHashMap;
use recstep_common::lang::{AggFunc, CmpOp, Expr, Predicate};
use recstep_common::{Error, Result};

use crate::analyze::Analysis;
use crate::ast::{AExpr, Atom, BodyTerm, HeadTerm, Literal, Rule};

/// Which version of a relation a scan reads (Algorithm 1's views).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AtomVersion {
    /// An EDB or an IDB of a lower stratum: always the full contents.
    Base,
    /// Full recursive relation (facts through iteration `t`).
    Full,
    /// The delta of the previous iteration.
    Delta,
    /// Facts through iteration `t-1` (the pre-merge prefix).
    Old,
}

/// One positive body atom as a physical scan.
#[derive(Clone, Debug)]
pub struct ScanSpec {
    /// Relation name.
    pub rel: String,
    /// Which view of it.
    pub version: AtomVersion,
    /// Arity of the relation.
    pub arity: usize,
    /// Atom-local selection predicates (constant arguments, repeated
    /// variables within the atom).
    pub filters: Vec<Predicate>,
}

/// One step of the left-deep join chain: joins scan `i+1` onto the
/// accumulated flattened row.
#[derive(Clone, Debug)]
pub struct JoinStep {
    /// Key columns in the accumulated (flattened) layout.
    pub left_keys: Vec<usize>,
    /// Key columns local to the joined scan (pairwise equal).
    pub right_keys: Vec<usize>,
    /// Project-then-dedup set of a non-final step: the flattened columns
    /// of this step's output that any later stage reads (a later join
    /// key, the residual, a negation key or the head), ascending. Rows
    /// equal on them are interchangeable for everything downstream, so a
    /// set-semantic pass may keep one per distinct value. `None` on final
    /// steps, on chains of fewer than three scans, on bodies with a WCOJ
    /// plan, and where every variable bound so far is read later (the
    /// intermediate is then already distinct). The layout stays the full
    /// flattened one; columns outside the set hold some duplicate's values.
    pub live: Option<Vec<usize>>,
}

/// A negated atom, applied as an anti join after the positive joins.
#[derive(Clone, Debug)]
pub struct NegSpec {
    /// Negated relation name (EDB or lower-stratum IDB).
    pub rel: String,
    /// Its arity.
    pub arity: usize,
    /// Atom-local filters (constants, repeated variables).
    pub filters: Vec<Predicate>,
    /// Anti-join key columns in the flattened layout.
    pub left_keys: Vec<usize>,
    /// Corresponding columns of the negated atom.
    pub right_keys: Vec<usize>,
}

/// Plan for evaluating one subquery with the generic worst-case optimal
/// multiway join instead of the binary chain.
///
/// Attached to a [`SubQuery`] when its body qualifies: at least three
/// filter-free positive atoms (every argument a distinct variable), no
/// negation, and a *cyclic* join hypergraph ([`hypergraph_is_cyclic`]) —
/// exactly the shapes where a binary plan materializes an asymptotically
/// larger intermediate than the AGM output bound. Variables are ordered
/// globally (most-shared first); each scan's columns reordered by that
/// order become a sorted-trie access path, and evaluation intersects one
/// variable per *level*. All fields are positional, like the rest of the
/// plan: the backend never sees variable names.
#[derive(Clone, Debug)]
pub struct WcojPlan {
    /// Number of join variables (= intersection levels), in order.
    pub levels: usize,
    /// Per scan: its column indices ordered by the global variable order
    /// (the trie sort order).
    pub scan_cols: Vec<Vec<usize>>,
    /// Per level: `(scan, depth)` participants — the scans containing this
    /// level's variable, with the variable's depth in that scan's
    /// `scan_cols` order.
    pub level_scans: Vec<Vec<(usize, usize)>>,
    /// Per level: flattened-layout positions bound by this level's value
    /// (every occurrence of the variable across the body).
    pub level_slots: Vec<Vec<usize>>,
}

/// One subquery of the semi-naïve rewriting of one rule.
#[derive(Clone, Debug)]
pub struct SubQuery {
    /// Index of the originating rule in the program (provenance).
    pub rule_idx: usize,
    /// Which scan is the ∆ occurrence (`None` in non-recursive strata).
    pub delta_scan: Option<usize>,
    /// Positive atoms in body order.
    pub scans: Vec<ScanSpec>,
    /// Join chain (`scans.len() - 1` entries; empty keys mean cross join).
    pub joins: Vec<JoinStep>,
    /// Residual comparison predicates over the flattened layout.
    pub residual: Vec<Predicate>,
    /// Anti joins for negated atoms.
    pub negations: Vec<NegSpec>,
    /// Projection to the head layout (for aggregated heads: plain terms
    /// first, aggregate arguments after).
    pub head_exprs: Vec<Expr>,
    /// Total width of the flattened layout (sum of scan arities).
    pub width: usize,
    /// Worst-case optimal evaluation plan, attached when the body is
    /// cyclic (the `wcoj` config flag picks between this and `joins` at
    /// run time, so one compiled program serves both ablation arms).
    pub wcoj: Option<WcojPlan>,
}

/// Aggregation metadata of an aggregated IDB.
#[derive(Clone, Debug)]
pub struct IdbAgg {
    /// Head positions holding plain (grouping) terms, in head order.
    pub group_positions: Vec<usize>,
    /// Head positions holding aggregates, in head order.
    pub agg_positions: Vec<usize>,
    /// Aggregate function per entry of `agg_positions`.
    pub funcs: Vec<AggFunc>,
}

/// All subqueries evaluating one IDB within one stratum (the unit the
/// paper's UIE batches into a single query).
#[derive(Clone, Debug)]
pub struct CompiledIdb {
    /// Relation name.
    pub rel: String,
    /// Stored arity (head arity).
    pub arity: usize,
    /// Aggregation shape, if the head aggregates.
    pub agg: Option<IdbAgg>,
    /// The subqueries whose UNION ALL produces the iteration's candidates.
    pub subqueries: Vec<SubQuery>,
    /// Temp-table name of the UNION-ALL intermediate (`{rel}_rt`), built
    /// once here instead of being re-formatted every iteration.
    pub rt_name: String,
    /// Temp-table name of the deduplicated candidates (`{rel}_rdelta`).
    pub rdelta_name: String,
    /// Temp-table / staging name of `∆R` (`{rel}_mDelta`).
    pub delta_name: String,
    /// Per-subquery temp-table names of the individual-evaluation (IIE)
    /// path (`{rel}_tmp_mDelta{i}`), indexed like `subqueries`.
    pub tmp_names: Vec<String>,
}

/// One stratum of the compiled program.
#[derive(Clone, Debug)]
pub struct CompiledStratum {
    /// True when the stratum iterates to fixpoint.
    pub recursive: bool,
    /// The IDBs evaluated in this stratum.
    pub idbs: Vec<CompiledIdb>,
}

/// Declaration of a relation the engine must materialize.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelDecl {
    /// Relation name.
    pub name: String,
    /// Arity.
    pub arity: usize,
    /// True for derived (IDB) relations.
    pub is_idb: bool,
}

/// A fully compiled program, ready for the interpreter.
///
/// This is the reusable compiled-plan handle of the prepare-once /
/// run-many API: everything an evaluation needs — strata, relation
/// declarations, inline facts, I/O directives — is captured here, so a
/// compiled program can be executed any number of times without touching
/// the source text again.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// Strata in evaluation order.
    pub strata: Vec<CompiledStratum>,
    /// Every relation mentioned by the program.
    pub relations: Vec<RelDecl>,
    /// Ground facts stated inline in the source (`arc(1, 2).`), loaded
    /// into their relations at the start of every run.
    pub facts: Vec<(String, Vec<recstep_common::Value>)>,
    /// Relations requested via `.input` (to be loaded before evaluation).
    pub inputs: Vec<String>,
    /// Relations requested via `.output` (empty = all IDBs).
    pub outputs: Vec<String>,
}

impl CompiledProgram {
    /// Declared arity of a relation, if the program mentions it.
    pub fn arity_of(&self, name: &str) -> Option<usize> {
        self.relations
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.arity)
    }

    /// Names of the derived (IDB) relations, in declaration order.
    pub fn idb_names(&self) -> impl Iterator<Item = &str> {
        self.relations
            .iter()
            .filter(|r| r.is_idb)
            .map(|r| r.name.as_str())
    }
}

/// Compile an analyzed program into logical plans.
pub fn compile(analysis: &Analysis) -> Result<CompiledProgram> {
    let arity_of: FxHashMap<&str, usize> = analysis
        .preds
        .iter()
        .map(|p| (p.name.as_str(), p.arity))
        .collect();
    let mut strata = Vec::with_capacity(analysis.strata.len());
    for stratum in &analysis.strata {
        let stratum_idbs: Vec<&str> = stratum.idbs.iter().map(String::as_str).collect();
        // Group rules by head predicate, preserving stratum order.
        let mut idbs: Vec<CompiledIdb> = Vec::new();
        for &ri in &stratum.rules {
            let rule = &analysis.program.rules[ri];
            let idb_pos = idbs.iter().position(|c| c.rel == rule.head.pred);
            let idb = match idb_pos {
                Some(p) => &mut idbs[p],
                None => {
                    let rel = rule.head.pred.clone();
                    idbs.push(CompiledIdb {
                        rt_name: format!("{rel}_rt"),
                        rdelta_name: format!("{rel}_rdelta"),
                        delta_name: format!("{rel}_mDelta"),
                        rel,
                        arity: rule.head.arity(),
                        agg: agg_shape(rule),
                        subqueries: Vec::new(),
                        tmp_names: Vec::new(),
                    });
                    idbs.last_mut().unwrap()
                }
            };
            let recursive_positions: Vec<usize> = rule
                .positive_atoms()
                .enumerate()
                .filter(|(_, a)| stratum.recursive && stratum_idbs.contains(&a.pred.as_str()))
                .map(|(i, _)| i)
                .collect();
            if recursive_positions.is_empty() {
                idb.subqueries
                    .push(compile_subquery(rule, ri, None, &[], &arity_of)?);
            } else {
                for &dp in &recursive_positions {
                    idb.subqueries.push(compile_subquery(
                        rule,
                        ri,
                        Some(dp),
                        &recursive_positions,
                        &arity_of,
                    )?);
                }
            }
        }
        for idb in &mut idbs {
            idb.tmp_names = (0..idb.subqueries.len())
                .map(|i| format!("{}_tmp_mDelta{}", idb.rel, i))
                .collect();
        }
        strata.push(CompiledStratum {
            recursive: stratum.recursive,
            idbs,
        });
    }
    let relations = analysis
        .preds
        .iter()
        .map(|p| RelDecl {
            name: p.name.clone(),
            arity: p.arity,
            is_idb: p.is_idb,
        })
        .collect();
    Ok(CompiledProgram {
        strata,
        relations,
        facts: analysis.program.facts.clone(),
        inputs: analysis.program.inputs.clone(),
        outputs: analysis.program.outputs.clone(),
    })
}

fn agg_shape(rule: &Rule) -> Option<IdbAgg> {
    if !rule.has_aggregation() {
        return None;
    }
    let mut group_positions = Vec::new();
    let mut agg_positions = Vec::new();
    let mut funcs = Vec::new();
    for (i, t) in rule.head.terms.iter().enumerate() {
        match t {
            HeadTerm::Plain(_) => group_positions.push(i),
            HeadTerm::Agg { func, .. } => {
                agg_positions.push(i);
                funcs.push(*func);
            }
        }
    }
    Some(IdbAgg {
        group_positions,
        agg_positions,
        funcs,
    })
}

/// Translate an arithmetic expression with the variable→column binding.
fn translate(e: &AExpr, bind: &FxHashMap<&str, usize>, rule: &Rule) -> Result<Expr> {
    Ok(match e {
        AExpr::Var(v) => Expr::Col(*bind.get(v.as_str()).ok_or_else(|| {
            Error::analysis(format!(
                "unbound variable '{v}' in rule '{}'",
                rule.display()
            ))
        })?),
        AExpr::Const(c) => Expr::Const(*c),
        AExpr::Add(a, b) => Expr::add(translate(a, bind, rule)?, translate(b, bind, rule)?),
        AExpr::Sub(a, b) => Expr::sub(translate(a, bind, rule)?, translate(b, bind, rule)?),
        AExpr::Mul(a, b) => Expr::mul(translate(a, bind, rule)?, translate(b, bind, rule)?),
    })
}

/// Atom-local filters: constant arguments and repeated variables.
fn local_filters(atom: &Atom<BodyTerm>) -> Vec<Predicate> {
    let mut filters = Vec::new();
    let mut first: FxHashMap<&str, usize> = FxHashMap::default();
    for (i, t) in atom.terms.iter().enumerate() {
        match t {
            BodyTerm::Const(c) => filters.push(Predicate {
                lhs: Expr::Col(i),
                op: CmpOp::Eq,
                rhs: Expr::Const(*c),
            }),
            BodyTerm::Var(v) => match first.get(v.as_str()) {
                Some(&j) => filters.push(Predicate {
                    lhs: Expr::Col(i),
                    op: CmpOp::Eq,
                    rhs: Expr::Col(j),
                }),
                None => {
                    first.insert(v.as_str(), i);
                }
            },
        }
    }
    filters
}

fn compile_subquery(
    rule: &Rule,
    rule_idx: usize,
    delta_pos: Option<usize>,
    recursive_positions: &[usize],
    arity_of: &FxHashMap<&str, usize>,
) -> Result<SubQuery> {
    let atoms: Vec<&Atom<BodyTerm>> = rule.positive_atoms().collect();
    debug_assert!(!atoms.is_empty(), "safety guarantees a positive atom");

    let mut scans = Vec::with_capacity(atoms.len());
    let mut joins = Vec::with_capacity(atoms.len().saturating_sub(1));
    let mut bind: FxHashMap<&str, usize> = FxHashMap::default();
    let mut offset = 0usize;

    for (ai, atom) in atoms.iter().enumerate() {
        let version = match delta_pos {
            None => AtomVersion::Base,
            Some(dp) => {
                if !recursive_positions.contains(&ai) {
                    AtomVersion::Base
                } else if ai == dp {
                    AtomVersion::Delta
                } else if ai < dp {
                    AtomVersion::Full
                } else {
                    AtomVersion::Old
                }
            }
        };
        let arity = *arity_of
            .get(atom.pred.as_str())
            .expect("analyzer registered arity");
        scans.push(ScanSpec {
            rel: atom.pred.clone(),
            version,
            arity,
            filters: local_filters(atom),
        });
        if ai > 0 {
            // Join keys: variables of this atom already bound earlier.
            let mut left_keys = Vec::new();
            let mut right_keys = Vec::new();
            let mut seen_local: FxHashMap<&str, ()> = FxHashMap::default();
            for (i, t) in atom.terms.iter().enumerate() {
                if let BodyTerm::Var(v) = t {
                    if seen_local.contains_key(v.as_str()) {
                        continue; // local repeat handled by scan filter
                    }
                    seen_local.insert(v.as_str(), ());
                    if let Some(&flat) = bind.get(v.as_str()) {
                        left_keys.push(flat);
                        right_keys.push(i);
                    }
                }
            }
            joins.push(JoinStep {
                left_keys,
                right_keys,
                live: None,
            });
        }
        // Bind this atom's fresh variables at their flattened positions.
        for (i, t) in atom.terms.iter().enumerate() {
            if let BodyTerm::Var(v) = t {
                bind.entry(v.as_str()).or_insert(offset + i);
            }
        }
        offset += arity;
    }
    let width = offset;

    // Residual comparisons.
    let mut residual = Vec::new();
    for lit in &rule.body {
        if let Literal::Cmp { lhs, op, rhs } = lit {
            residual.push(Predicate {
                lhs: translate(lhs, &bind, rule)?,
                op: *op,
                rhs: translate(rhs, &bind, rule)?,
            });
        }
    }

    // Negated atoms become anti joins.
    let mut negations = Vec::new();
    for atom in rule.negated_atoms() {
        let arity = *arity_of
            .get(atom.pred.as_str())
            .expect("analyzer registered arity");
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        let mut seen_local: FxHashMap<&str, ()> = FxHashMap::default();
        for (i, t) in atom.terms.iter().enumerate() {
            if let BodyTerm::Var(v) = t {
                if seen_local.contains_key(v.as_str()) {
                    continue;
                }
                seen_local.insert(v.as_str(), ());
                // Safety guarantees the variable is bound.
                left_keys.push(bind[v.as_str()]);
                right_keys.push(i);
            }
        }
        negations.push(NegSpec {
            rel: atom.pred.clone(),
            arity,
            filters: local_filters(atom),
            left_keys,
            right_keys,
        });
    }

    // Head projection: plain terms first (group), aggregate arguments after.
    let mut head_exprs = Vec::with_capacity(rule.head.terms.len());
    for t in &rule.head.terms {
        if let HeadTerm::Plain(e) = t {
            head_exprs.push(translate(e, &bind, rule)?);
        }
    }
    for t in &rule.head.terms {
        if let HeadTerm::Agg { expr, .. } = t {
            head_exprs.push(translate(expr, &bind, rule)?);
        }
    }

    let wcoj = if negations.is_empty() {
        wcoj_plan(&atoms, &scans)
    } else {
        None
    };
    if wcoj.is_none() {
        let vars: Vec<usize> = bind.into_values().collect();
        set_live_columns(
            &mut joins,
            &scans,
            &vars,
            &residual,
            &negations,
            &head_exprs,
        );
    }
    Ok(SubQuery {
        rule_idx,
        delta_scan: delta_pos,
        scans,
        joins,
        residual,
        negations,
        head_exprs,
        width,
        wcoj,
    })
}

/// Give every non-final step of a chain of three or more scans its
/// [`JoinStep::live`] set. `vars` holds each body variable's first
/// flattened position, the only position later stages read:
/// join keys, the residual, negation keys and the head all resolve a
/// variable through it.
fn set_live_columns(
    joins: &mut [JoinStep],
    scans: &[ScanSpec],
    vars: &[usize],
    residual: &[Predicate],
    negations: &[NegSpec],
    head_exprs: &[Expr],
) {
    if scans.len() < 3 {
        return;
    }
    let mut width = scans[0].arity;
    for ji in 0..joins.len() - 1 {
        width += scans[ji + 1].arity;
        // Columns of the prefix (scans 0..=ji+1) read past this step.
        let mut read = vec![false; width];
        let mut mark = |c: usize| {
            if c < width {
                read[c] = true;
            }
        };
        joins[ji + 1..]
            .iter()
            .flat_map(|j| &j.left_keys)
            .chain(negations.iter().flat_map(|n| &n.left_keys))
            .for_each(|&c| mark(c));
        residual
            .iter()
            .flat_map(|p| [&p.lhs, &p.rhs])
            .chain(head_exprs)
            .for_each(|e| e.for_each_col(&mut mark));
        let live: Vec<usize> = (0..width).filter(|&c| read[c]).collect();
        let bound = vars.iter().filter(|&&v| v < width).count();
        if !live.is_empty() && live.len() < bound {
            joins[ji].live = Some(live);
        }
    }
}

/// GYO reduction: is the join hypergraph (one hyperedge of variable ids
/// per atom) cyclic?
///
/// Repeatedly (1) drops *ear* vertices — variables appearing in exactly
/// one remaining edge — and (2) drops edges that became empty or a subset
/// of another remaining edge. The hypergraph is α-acyclic iff this
/// reduction consumes every edge; a body on which it gets stuck (the
/// triangle, any odd cycle, …) is cyclic, and those are the shapes where
/// the worst-case optimal plan beats the binary chain asymptotically.
/// Bodies of one or two atoms are always acyclic.
pub fn hypergraph_is_cyclic(edges: &[Vec<usize>]) -> bool {
    let mut edges: Vec<Vec<usize>> = edges.to_vec();
    loop {
        // Drop ear vertices (variables local to one edge).
        let mut count: FxHashMap<usize, usize> = FxHashMap::default();
        for e in &edges {
            for &v in e {
                *count.entry(v).or_insert(0) += 1;
            }
        }
        let before: usize = edges.iter().map(Vec::len).sum();
        for e in &mut edges {
            e.retain(|v| count[v] > 1);
        }
        // Drop empty edges and edges covered by another remaining edge.
        let snapshot = edges.clone();
        let mut kept = Vec::with_capacity(edges.len());
        for (i, e) in snapshot.iter().enumerate() {
            let covered = e.is_empty()
                || snapshot.iter().enumerate().any(|(j, other)| {
                    // Subset of an earlier equal edge or any strict superset
                    // (ties broken by index so equal edges drop all but one).
                    j != i
                        && e.iter().all(|v| other.contains(v))
                        && (other.len() > e.len() || j < i)
                });
            if !covered {
                kept.push(e.clone());
            }
        }
        let after: usize = kept.iter().map(Vec::len).sum();
        let stuck = kept.len() == edges.len() && after == before;
        edges = kept;
        if edges.is_empty() {
            return false;
        }
        if stuck {
            return true;
        }
    }
}

/// Build the worst-case optimal plan for a rule body, or `None` when the
/// body does not qualify (fewer than three atoms, any filtered scan —
/// constants or atom-local repeats — or an acyclic hypergraph, where the
/// binary chain is already optimal).
fn wcoj_plan(atoms: &[&Atom<BodyTerm>], scans: &[ScanSpec]) -> Option<WcojPlan> {
    if atoms.len() < 3 || scans.iter().any(|s| !s.filters.is_empty()) {
        return None;
    }
    // Filter-free scans have all-variable, locally-distinct arguments.
    let mut ids: FxHashMap<&str, usize> = FxHashMap::default();
    let mut edges: Vec<Vec<usize>> = Vec::with_capacity(atoms.len());
    for atom in atoms {
        let mut edge = Vec::with_capacity(atom.terms.len());
        for t in &atom.terms {
            let BodyTerm::Var(v) = t else {
                debug_assert!(false, "constants imply scan filters");
                return None;
            };
            let next = ids.len();
            edge.push(*ids.entry(v.as_str()).or_insert(next));
        }
        edges.push(edge);
    }
    if !hypergraph_is_cyclic(&edges) {
        return None;
    }
    // Global variable order: most-shared first (ties by first occurrence),
    // so the top intersection levels are the most constrained.
    let nvars = ids.len();
    let mut freq = vec![0usize; nvars];
    for edge in &edges {
        for &v in edge {
            freq[v] += 1;
        }
    }
    let mut order: Vec<usize> = (0..nvars).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(freq[v]), v));
    let mut level_of = vec![0usize; nvars];
    for (l, &v) in order.iter().enumerate() {
        level_of[v] = l;
    }
    let mut scan_cols = Vec::with_capacity(atoms.len());
    let mut level_scans = vec![Vec::new(); nvars];
    let mut level_slots = vec![Vec::new(); nvars];
    let mut offset = 0usize;
    for (i, edge) in edges.iter().enumerate() {
        let mut by_level: Vec<(usize, usize)> = edge
            .iter()
            .enumerate()
            .map(|(col, &v)| (level_of[v], col))
            .collect();
        by_level.sort_unstable();
        for (depth, &(level, col)) in by_level.iter().enumerate() {
            level_scans[level].push((i, depth));
            level_slots[level].push(offset + col);
        }
        scan_cols.push(by_level.into_iter().map(|(_, col)| col).collect());
        offset += scans[i].arity;
    }
    Some(WcojPlan {
        levels: nvars,
        scan_cols,
        level_scans,
        level_slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::parser::parse;

    fn compiled(src: &str) -> CompiledProgram {
        compile(&analyze(parse(src).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn tc_plan_shape() {
        let p = compiled(crate::programs::TC);
        assert_eq!(p.strata.len(), 2);
        // Base stratum: single Base scan, projection only.
        let base = &p.strata[0].idbs[0];
        assert_eq!(base.rel, "tc");
        assert_eq!(base.subqueries.len(), 1);
        let sq = &base.subqueries[0];
        assert_eq!(sq.scans.len(), 1);
        assert_eq!(sq.scans[0].version, AtomVersion::Base);
        assert_eq!(sq.head_exprs, vec![Expr::Col(0), Expr::Col(1)]);
        // Recursive stratum: linear rule → one subquery, delta on tc.
        let rec = &p.strata[1].idbs[0];
        assert_eq!(rec.subqueries.len(), 1);
        let sq = &rec.subqueries[0];
        assert_eq!(sq.delta_scan, Some(0));
        assert_eq!(sq.scans[0].version, AtomVersion::Delta);
        assert_eq!(sq.scans[1].version, AtomVersion::Base);
        assert_eq!(sq.joins.len(), 1);
        assert_eq!(sq.joins[0].left_keys, vec![1]); // tc.z (flattened col 1)
        assert_eq!(sq.joins[0].right_keys, vec![0]); // arc.z
        assert_eq!(sq.head_exprs, vec![Expr::Col(0), Expr::Col(3)]);
        assert_eq!(sq.width, 4);
    }

    #[test]
    fn nonlinear_rule_generates_one_subquery_per_delta_position() {
        // CSPA rule: valueFlow(x,y) :- valueFlow(x,z), valueFlow(z,y).
        let p = compiled(crate::programs::CSPA);
        let rec = p.strata.iter().find(|s| s.recursive).unwrap();
        let vf = rec.idbs.iter().find(|i| i.rel == "valueFlow").unwrap();
        // Rules for valueFlow in the SCC: vf(x,y) :- assign(x,z), memoryAlias(z,y)
        // (1 recursive atom) and vf(x,y) :- vf(x,z), vf(z,y) (2 recursive atoms)
        // → 1 + 2 subqueries.
        assert_eq!(vf.subqueries.len(), 3);
        let nonlinear: Vec<&SubQuery> = vf
            .subqueries
            .iter()
            .filter(|s| {
                s.scans.len() == 2 && s.scans[0].rel == "valueFlow" && s.scans[1].rel == "valueFlow"
            })
            .collect();
        assert_eq!(nonlinear.len(), 2);
        let versions: Vec<(AtomVersion, AtomVersion)> = nonlinear
            .iter()
            .map(|s| (s.scans[0].version, s.scans[1].version))
            .collect();
        assert!(versions.contains(&(AtomVersion::Delta, AtomVersion::Old)));
        assert!(versions.contains(&(AtomVersion::Full, AtomVersion::Delta)));
    }

    #[test]
    fn constants_and_repeats_become_scan_filters() {
        let p = compiled("r(x) :- s(x, 5, x).");
        let sq = &p.strata[0].idbs[0].subqueries[0];
        assert_eq!(sq.scans[0].filters.len(), 2);
        assert_eq!(
            sq.scans[0].filters[0],
            Predicate {
                lhs: Expr::Col(1),
                op: CmpOp::Eq,
                rhs: Expr::Const(5)
            }
        );
        assert_eq!(
            sq.scans[0].filters[1],
            Predicate {
                lhs: Expr::Col(2),
                op: CmpOp::Eq,
                rhs: Expr::Col(0)
            }
        );
    }

    #[test]
    fn comparisons_become_residual() {
        let p = compiled(crate::programs::SG);
        let seed = &p.strata[0].idbs[0].subqueries[0];
        assert_eq!(seed.residual.len(), 1);
        assert_eq!(
            seed.residual[0],
            Predicate {
                lhs: Expr::Col(1),
                op: CmpOp::Ne,
                rhs: Expr::Col(3)
            }
        );
    }

    #[test]
    fn negation_becomes_anti_join() {
        let p = compiled(crate::programs::NTC);
        let ntc = p
            .strata
            .iter()
            .flat_map(|s| &s.idbs)
            .find(|i| i.rel == "ntc")
            .unwrap();
        let sq = &ntc.subqueries[0];
        assert_eq!(sq.negations.len(), 1);
        let neg = &sq.negations[0];
        assert_eq!(neg.rel, "tc");
        assert_eq!(neg.left_keys, vec![0, 1]); // node(x) col, node(y) col
        assert_eq!(neg.right_keys, vec![0, 1]);
        // node(x), node(y) share no variables → cross join.
        assert!(sq.joins[0].left_keys.is_empty());
    }

    #[test]
    fn aggregated_idb_shape() {
        let p = compiled(crate::programs::CC);
        let rec = p.strata.iter().find(|s| s.recursive).unwrap();
        let cc3 = &rec.idbs[0];
        assert_eq!(cc3.rel, "cc3");
        let agg = cc3.agg.as_ref().unwrap();
        assert_eq!(agg.group_positions, vec![0]);
        assert_eq!(agg.agg_positions, vec![1]);
        assert_eq!(agg.funcs, vec![AggFunc::Min]);
        // Pre-agg layout: group (y) then agg arg (z).
        let sq = &cc3.subqueries[0];
        assert_eq!(sq.head_exprs.len(), 2);
    }

    #[test]
    fn sssp_arithmetic_in_agg_argument() {
        let p = compiled(crate::programs::SSSP);
        let rec = p.strata.iter().find(|s| s.recursive).unwrap();
        let sq = &rec.idbs[0].subqueries[0];
        // head sssp2(y, MIN(d1+d2)): group y, agg arg d1+d2.
        assert_eq!(sq.head_exprs[0], Expr::Col(3)); // y in arc(x,y,d2)
        assert_eq!(sq.head_exprs[1], Expr::add(Expr::Col(1), Expr::Col(4)));
    }

    #[test]
    fn andersen_ternary_rule_joins() {
        let p = compiled(crate::programs::ANDERSEN);
        let rec = p.strata.iter().find(|s| s.recursive).unwrap();
        let pt = &rec.idbs[0];
        // Rules: assign (1 rec atom) + load (2) + store (2) → 5 subqueries.
        assert_eq!(pt.subqueries.len(), 5);
        for sq in &pt.subqueries {
            assert!(sq.delta_scan.is_some());
            // Each join has at least one key (no cross joins in Andersen).
            for j in &sq.joins {
                assert!(!j.left_keys.is_empty());
            }
        }
    }

    #[test]
    fn gyo_classifies_hypergraphs() {
        // Chains and stars are acyclic.
        assert!(!hypergraph_is_cyclic(&[vec![0, 1], vec![1, 2]]));
        assert!(!hypergraph_is_cyclic(&[vec![0, 1], vec![0, 2], vec![0, 3]]));
        // A path of three atoms is acyclic too.
        assert!(!hypergraph_is_cyclic(&[vec![0, 1], vec![1, 2], vec![2, 3]]));
        // Self-join shape: two atoms over the same variable pair collapse.
        assert!(!hypergraph_is_cyclic(&[vec![0, 1], vec![0, 1]]));
        // One wide atom covering a triangle's variables absorbs it.
        assert!(!hypergraph_is_cyclic(&[
            vec![0, 1],
            vec![1, 2],
            vec![0, 2],
            vec![0, 1, 2]
        ]));
        // The triangle and longer cycles are cyclic.
        assert!(hypergraph_is_cyclic(&[vec![0, 1], vec![1, 2], vec![0, 2]]));
        assert!(hypergraph_is_cyclic(&[
            vec![0, 1],
            vec![1, 2],
            vec![2, 3],
            vec![3, 0]
        ]));
        // Empty and single-edge hypergraphs are trivially acyclic.
        assert!(!hypergraph_is_cyclic(&[]));
        assert!(!hypergraph_is_cyclic(&[vec![0, 1, 2]]));
    }

    #[test]
    fn triangle_body_gets_a_wcoj_plan() {
        let p = compiled(crate::programs::TRIANGLE);
        let sq = &p.strata[0].idbs[0].subqueries[0];
        let wp = sq.wcoj.as_ref().expect("cyclic body plans WCOJ");
        assert_eq!(wp.levels, 3);
        // Each scan sorts by both its columns; every level intersects two
        // of the three scans and binds two flattened slots.
        assert_eq!(wp.scan_cols, vec![vec![0, 1]; 3]);
        for level in 0..3 {
            assert_eq!(wp.level_scans[level].len(), 2);
            assert_eq!(wp.level_slots[level].len(), 2);
        }
        // Every flattened slot is bound exactly once across the levels.
        let mut slots: Vec<usize> = wp.level_slots.iter().flatten().copied().collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..6).collect::<Vec<_>>());
        // The binary chain stays compiled alongside for the ablation arm.
        assert_eq!(sq.joins.len(), 2);
    }

    #[test]
    fn acyclic_and_small_bodies_keep_binary_plans() {
        // Linear TC: two-atom body.
        let p = compiled(crate::programs::TC);
        for s in &p.strata {
            for idb in &s.idbs {
                for sq in &idb.subqueries {
                    assert!(sq.wcoj.is_none(), "acyclic body must not plan WCOJ");
                }
            }
        }
        // Three-atom path r(x,y,w) :- a(x,z), b(z,y), c(y,w): acyclic.
        let p = compiled("r(x, y, w) :- a(x, z), b(z, y), c(y, w).");
        assert!(p.strata[0].idbs[0].subqueries[0].wcoj.is_none());
    }

    #[test]
    fn filtered_and_negated_cyclic_bodies_are_ineligible() {
        // A constant argument forces a scan filter → no WCOJ.
        let p = compiled("r(x, y) :- a(x, y), a(y, z), a(x, 5).");
        assert!(p.strata[0].idbs[0].subqueries[0].wcoj.is_none());
        // A negation after a cyclic positive body → no WCOJ.
        let p = compiled(
            "t(x, y) :- e(x, y).\n\
             r(x, y, z) :- e(x, y), e(y, z), e(x, z), !t(z, x).",
        );
        let r = p
            .strata
            .iter()
            .flat_map(|s| &s.idbs)
            .find(|i| i.rel == "r")
            .unwrap();
        assert!(r.subqueries[0].wcoj.is_none());
        // The same body without the negation qualifies.
        let p = compiled("r(x, y, z) :- e(x, y), e(y, z), e(x, z).");
        assert!(p.strata[0].idbs[0].subqueries[0].wcoj.is_some());
    }

    #[test]
    fn recursive_cyclic_rule_plans_wcoj_per_subquery() {
        // A cyclic recursive body: every ∆ rewriting keeps the same
        // hypergraph, so each subquery carries its own WCOJ plan.
        let p = compiled(
            "t(x, y) :- arc(x, y).\n\
             t(x, z) :- t(x, y), t(y, z), arc(x, z).",
        );
        let rec = p.strata.iter().find(|s| s.recursive).unwrap();
        let t = &rec.idbs[0];
        let cyclic: Vec<&SubQuery> = t.subqueries.iter().filter(|s| s.scans.len() == 3).collect();
        assert_eq!(cyclic.len(), 2, "one subquery per ∆ position");
        for sq in cyclic {
            let wp = sq.wcoj.as_ref().expect("cyclic recursive body");
            assert_eq!(wp.levels, 3);
        }
    }

    #[test]
    fn wcoj_variable_order_puts_most_shared_first() {
        // Triangle x-y-z plus a pendant atom on y: y is the most shared
        // variable (3 atoms), so it leads the order and the first level
        // intersects its three scans.
        let p = compiled("r(x, y, z, w) :- a(x, y), b(y, z), c(z, x), d(y, w).");
        let sq = &p.strata[0].idbs[0].subqueries[0];
        let wp = sq.wcoj.as_ref().expect("triangle core is cyclic");
        assert_eq!(wp.levels, 4);
        assert_eq!(wp.level_scans[0].len(), 3, "y leads the order");
        // The pendant variable w is least shared: last level, one scan.
        assert_eq!(wp.level_scans[3].len(), 1);
    }

    /// Every subquery of `rel`'s IDB with its join chain's live sets.
    fn live_sets(p: &CompiledProgram, rel: &str) -> Vec<Vec<Option<Vec<usize>>>> {
        p.strata
            .iter()
            .flat_map(|s| &s.idbs)
            .filter(|i| i.rel == rel)
            .flat_map(|i| &i.subqueries)
            .map(|sq| sq.joins.iter().map(|j| j.live.clone()).collect())
            .collect()
    }

    #[test]
    fn three_atom_chains_dedup_their_intermediate_on_the_live_columns() {
        let p = compiled(crate::programs::CSPA);
        // valueAlias(x,y) :- valueFlow(z,x), memoryAlias(z,w), valueFlow(w,y):
        // the (z,x,z,w) intermediate is read only at x (head) and w (the
        // second join's key); one subquery per ∆ position, all alike. The
        // two-atom valueAlias rule has one step and no live set.
        let va = live_sets(&p, "valueAlias");
        let three: Vec<_> = va.iter().filter(|j| j.len() == 2).collect();
        assert_eq!(three.len(), 3);
        for joins in three {
            assert_eq!(joins, &vec![Some(vec![1, 3]), None]);
        }
        assert!(va.iter().filter(|j| j.len() == 1).all(|j| j[0].is_none()));
        // memoryAlias(x,w) :- dereference(y,x), valueAlias(y,z), dereference(z,w).
        let ma = live_sets(&p, "memoryAlias");
        assert!(ma.contains(&vec![Some(vec![1, 3]), None]));

        let p = compiled(crate::programs::ANDERSEN);
        let pt = live_sets(&p, "pointsTo");
        // load: pointsTo(y,w) :- load(y,x), pointsTo(x,z), pointsTo(z,w)
        // reads y (head) and z (key); store: pointsTo(z,w) :- store(y,x),
        // pointsTo(y,z), pointsTo(x,w) reads x (key) and z (head).
        let three: Vec<_> = pt.iter().filter(|j| j.len() == 2).collect();
        assert_eq!(
            three,
            vec![
                &vec![Some(vec![0, 3]), None],
                &vec![Some(vec![0, 3]), None],
                &vec![Some(vec![1, 3]), None],
                &vec![Some(vec![1, 3]), None],
            ]
        );
    }

    #[test]
    fn two_atom_and_wcoj_bodies_carry_no_live_sets() {
        for src in [
            crate::programs::TC,
            crate::programs::TRIANGLE,
            crate::programs::CC,
            crate::programs::NTC,
        ] {
            let p = compiled(src);
            for idb in p.strata.iter().flat_map(|s| &s.idbs) {
                for sq in &idb.subqueries {
                    assert!(sq.joins.iter().all(|j| j.live.is_none()), "{src}");
                }
            }
        }
        // SG's base rule has two atoms; its recursive rule is a chain.
        let p = compiled(crate::programs::SG);
        assert_eq!(
            live_sets(&p, "sg"),
            vec![vec![None], vec![Some(vec![1, 3]), None]]
        );
    }

    #[test]
    fn live_sets_cover_every_later_reader_and_skip_distinct_prefixes() {
        // Residual on a middle-only variable, arithmetic head, negation
        // key: each keeps its column live past the first step.
        let p = compiled(
            "n(x) :- a(x, x).\n\
             r(x, y) :- a(x, z), b(z, w), c(w, y), x != w.\n\
             s(x, y) :- a(x, z), b3(z, w, q), c(w, y), !n(q).\n\
             t(x + w, y) :- a(x, z), b(z, w), c(w, y).\n\
             u(x, z, y) :- a(x, z), b(z, w), c(w, y).",
        );
        assert_eq!(live_sets(&p, "r"), vec![vec![Some(vec![0, 3]), None]]);
        assert_eq!(live_sets(&p, "s"), vec![vec![Some(vec![0, 3, 4]), None]]);
        assert_eq!(live_sets(&p, "t"), vec![vec![Some(vec![0, 3]), None]]);
        // Every prefix variable (x, z, w) is read later: already distinct.
        assert_eq!(live_sets(&p, "u"), vec![vec![None, None]]);
        // Four atoms: both non-final steps dedup; constants and repeats in
        // the middle atom are scan filters, not variables.
        let p = compiled("r(x, y) :- a(x, z), b(z, 5, z, w), c(w, v), d(v, y).");
        assert_eq!(
            live_sets(&p, "r"),
            vec![vec![Some(vec![0, 5]), Some(vec![0, 7]), None]]
        );
    }

    #[test]
    fn relations_declared_with_idb_flag() {
        let p = compiled(crate::programs::TC);
        assert!(p
            .relations
            .iter()
            .any(|r| r.name == "arc" && !r.is_idb && r.arity == 2));
        assert!(p.relations.iter().any(|r| r.name == "tc" && r.is_idb));
    }
}
