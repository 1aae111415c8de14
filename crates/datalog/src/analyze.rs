//! The rule analyzer (paper §4): IDB/EDB identification, safety and
//! syntactic checks, dependency graph and stratification.
//!
//! Stratification follows the paper's Algorithm 1, which evaluates all the
//! rules of an IDB in that IDB's stratum as one query: the dependency graph
//! has one vertex per IDB *predicate* and an edge `(p, h)` whenever `p`
//! appears in the body of a rule deriving `h`; strata are its strongly
//! connected components in topological order (§3.1), each holding every
//! rule whose head is in the component, so no IDB is derived by two
//! strata. Stratified negation additionally requires every
//! negated predicate to be fully defined in a strictly lower stratum (§3.3),
//! and recursive aggregation is restricted to the monotonic `MIN`/`MAX`
//! fragment over linear rules (§3.3 assumes convergent programs; this is the
//! checkable subset our engine evaluates, the same envelope BigDatalog's
//! monotonic aggregates support).

use recstep_common::hash::{FxHashMap, FxHashSet};
use recstep_common::lang::AggFunc;
use recstep_common::{Error, Result};

use crate::ast::{AExpr, BodyTerm, HeadTerm, Literal, Program, Rule};

/// Information about one predicate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PredInfo {
    /// Predicate (relation) name.
    pub name: String,
    /// Arity (consistent across all uses; verified).
    pub arity: usize,
    /// True when the predicate appears in some rule head.
    pub is_idb: bool,
    /// Aggregate signature of head terms (None per position if plain);
    /// empty for EDBs.
    pub agg_sig: Vec<Option<AggFunc>>,
}

/// One stratum: a strongly connected component of the predicate dependency
/// graph and every rule deriving one of its predicates.
#[derive(Clone, Debug)]
pub struct Stratum {
    /// Indices into `Analysis::program.rules`, in original program order.
    pub rules: Vec<usize>,
    /// The component's predicates, in first-appearance order as a head.
    pub idbs: Vec<String>,
    /// True when the stratum needs fixpoint iteration: the component has
    /// more than one predicate, or one of its rules reads its own head.
    pub recursive: bool,
}

/// Output of the rule analyzer.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// The analyzed program.
    pub program: Program,
    /// All predicates, in first-appearance order.
    pub preds: Vec<PredInfo>,
    /// Strata in evaluation (topological) order.
    pub strata: Vec<Stratum>,
}

impl Analysis {
    /// Look up predicate info by name.
    pub fn pred(&self, name: &str) -> Option<&PredInfo> {
        self.preds.iter().find(|p| p.name == name)
    }

    /// Names of EDB predicates (inputs).
    pub fn edbs(&self) -> impl Iterator<Item = &PredInfo> {
        self.preds.iter().filter(|p| !p.is_idb)
    }

    /// Names of IDB predicates (derived).
    pub fn idbs(&self) -> impl Iterator<Item = &PredInfo> {
        self.preds.iter().filter(|p| p.is_idb)
    }
}

/// Run the analyzer.
pub fn analyze(program: Program) -> Result<Analysis> {
    let preds = collect_preds(&program)?;
    check_safety(&program)?;
    let strata = stratify(&program)?;
    check_negation_stratified(&program, &strata)?;
    check_aggregation(&program, &preds, &strata)?;
    Ok(Analysis {
        program,
        preds,
        strata,
    })
}

fn head_agg_sig(rule: &Rule) -> Vec<Option<AggFunc>> {
    rule.head
        .terms
        .iter()
        .map(|t| match t {
            HeadTerm::Plain(_) => None,
            HeadTerm::Agg { func, .. } => Some(*func),
        })
        .collect()
}

fn collect_preds(program: &Program) -> Result<Vec<PredInfo>> {
    let mut order: Vec<String> = Vec::new();
    let mut arity: FxHashMap<String, usize> = FxHashMap::default();
    let mut is_idb: FxHashSet<String> = FxHashSet::default();
    let mut agg_sig: FxHashMap<String, Vec<Option<AggFunc>>> = FxHashMap::default();

    let mut note = |name: &str, a: usize| -> Result<()> {
        match arity.get(name) {
            Some(&prev) if prev != a => Err(Error::analysis(format!(
                "predicate '{name}' used with arities {prev} and {a}"
            ))),
            Some(_) => Ok(()),
            None => {
                arity.insert(name.to_string(), a);
                order.push(name.to_string());
                Ok(())
            }
        }
    };

    for rule in &program.rules {
        note(&rule.head.pred, rule.head.arity())?;
        is_idb.insert(rule.head.pred.clone());
        let sig = head_agg_sig(rule);
        match agg_sig.get(&rule.head.pred) {
            Some(prev) if *prev != sig => {
                return Err(Error::analysis(format!(
                    "rules for '{}' disagree on aggregation positions",
                    rule.head.pred
                )))
            }
            Some(_) => {}
            None => {
                agg_sig.insert(rule.head.pred.clone(), sig);
            }
        }
        for lit in &rule.body {
            match lit {
                Literal::Pos(a) | Literal::Neg(a) => note(&a.pred, a.arity())?,
                Literal::Cmp { .. } => {}
            }
        }
    }
    for (name, vals) in &program.facts {
        note(name, vals.len())?;
    }
    for name in program.inputs.iter().chain(&program.outputs) {
        if !arity.contains_key(name) {
            return Err(Error::analysis(format!(
                "directive references unknown relation '{name}'"
            )));
        }
    }

    Ok(order
        .into_iter()
        .map(|name| {
            let a = arity[&name];
            let idb = is_idb.contains(&name);
            let sig = if idb {
                agg_sig[&name].clone()
            } else {
                Vec::new()
            };
            PredInfo {
                arity: a,
                is_idb: idb,
                agg_sig: sig,
                name,
            }
        })
        .collect())
}

fn rule_vars_positive(rule: &Rule) -> FxHashSet<&str> {
    let mut vars = FxHashSet::default();
    for atom in rule.positive_atoms() {
        for t in &atom.terms {
            if let BodyTerm::Var(v) = t {
                vars.insert(v.as_str());
            }
        }
    }
    vars
}

fn check_expr_bound(e: &AExpr, bound: &FxHashSet<&str>, rule: &Rule, what: &str) -> Result<()> {
    let mut vars = Vec::new();
    e.collect_vars(&mut vars);
    for v in vars {
        if !bound.contains(v.as_str()) {
            return Err(Error::analysis(format!(
                "unsafe rule '{}': variable '{v}' in {what} is not bound by a positive body atom",
                rule.display()
            )));
        }
    }
    Ok(())
}

fn check_safety(program: &Program) -> Result<()> {
    for rule in &program.rules {
        if rule.positive_atoms().next().is_none() {
            return Err(Error::analysis(format!(
                "unsafe rule '{}': no positive body atom",
                rule.display()
            )));
        }
        let bound = rule_vars_positive(rule);
        for term in &rule.head.terms {
            let (expr, what) = match term {
                HeadTerm::Plain(e) => (e, "head"),
                HeadTerm::Agg { expr, .. } => (expr, "aggregate argument"),
            };
            check_expr_bound(expr, &bound, rule, what)?;
        }
        for lit in &rule.body {
            match lit {
                Literal::Neg(a) => {
                    for t in &a.terms {
                        if let BodyTerm::Var(v) = t {
                            if !bound.contains(v.as_str()) {
                                return Err(Error::analysis(format!(
                                    "unsafe rule '{}': variable '{v}' of negated atom is not bound",
                                    rule.display()
                                )));
                            }
                        }
                    }
                }
                Literal::Cmp { lhs, rhs, .. } => {
                    check_expr_bound(lhs, &bound, rule, "comparison")?;
                    check_expr_bound(rhs, &bound, rule, "comparison")?;
                }
                Literal::Pos(_) => {}
            }
        }
    }
    Ok(())
}

/// Tarjan SCC over the predicate dependency graph, returning strata in
/// topological (evaluation) order, each holding every rule whose head is
/// in its SCC.
fn stratify(program: &Program) -> Result<Vec<Stratum>> {
    // One vertex per IDB, in first-appearance order as a rule head.
    let mut preds: Vec<&str> = Vec::new();
    let mut vertex: FxHashMap<&str, usize> = FxHashMap::default();
    for rule in &program.rules {
        let head = rule.head.pred.as_str();
        if !vertex.contains_key(head) {
            vertex.insert(head, preds.len());
            preds.push(head);
        }
    }
    let n = preds.len();
    // Edge p -> h if IDB p occurs in the body of a rule of h (positive or
    // negated).
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut has_self_loop = vec![false; n];
    for rule in &program.rules {
        let h = vertex[rule.head.pred.as_str()];
        for lit in &rule.body {
            let pred = match lit {
                Literal::Pos(a) | Literal::Neg(a) => a.pred.as_str(),
                Literal::Cmp { .. } => continue,
            };
            if let Some(&p) = vertex.get(pred) {
                has_self_loop[h] |= p == h;
                if !succ[p].contains(&h) {
                    succ[p].push(h);
                }
            }
        }
    }

    // Iterative Tarjan.
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    enum Frame {
        Enter(usize),
        Resume(usize, usize),
    }
    // Starting from the last predicate, the reversed emission order below
    // keeps independent components in program order.
    for start in (0..n).rev() {
        if index[start] != usize::MAX {
            continue;
        }
        let mut call = vec![Frame::Enter(start)];
        while let Some(frame) = call.pop() {
            match frame {
                Frame::Enter(v) => {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    call.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, mut ei) => {
                    let mut descended = false;
                    while ei < succ[v].len() {
                        let w = succ[v][ei];
                        ei += 1;
                        if index[w] == usize::MAX {
                            call.push(Frame::Resume(v, ei));
                            call.push(Frame::Enter(w));
                            descended = true;
                            break;
                        } else if on_stack[w] {
                            low[v] = low[v].min(index[w]);
                        }
                    }
                    if descended {
                        continue;
                    }
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        sccs.push(comp);
                    } else if let Some(Frame::Resume(parent, _)) = call.last() {
                        low[*parent] = low[*parent].min(low[v]);
                    }
                }
            }
        }
    }

    // Tarjan emits SCCs in reverse topological order of the condensation.
    sccs.reverse();
    Ok(sccs
        .into_iter()
        .map(|comp| {
            let recursive = comp.len() > 1 || has_self_loop[comp[0]];
            let idbs: Vec<String> = comp.iter().map(|&p| preds[p].to_string()).collect();
            let rules = (0..program.rules.len())
                .filter(|&r| comp.contains(&vertex[program.rules[r].head.pred.as_str()]))
                .collect();
            Stratum {
                rules,
                idbs,
                recursive,
            }
        })
        .collect())
}

fn check_negation_stratified(program: &Program, strata: &[Stratum]) -> Result<()> {
    // Stratum index of each rule.
    let mut stratum_of = vec![0usize; program.rules.len()];
    for (s, st) in strata.iter().enumerate() {
        for &r in &st.rules {
            stratum_of[r] = s;
        }
    }
    for (j, rule) in program.rules.iter().enumerate() {
        for neg in rule.negated_atoms() {
            for (i, def) in program.rules.iter().enumerate() {
                if def.head.pred == neg.pred && stratum_of[i] >= stratum_of[j] {
                    return Err(Error::analysis(format!(
                        "negation of '{}' in rule '{}' is not stratified (its definition is not \
                         in a strictly lower stratum)",
                        neg.pred,
                        rule.display()
                    )));
                }
            }
        }
    }
    Ok(())
}

fn check_aggregation(program: &Program, preds: &[PredInfo], strata: &[Stratum]) -> Result<()> {
    let agg_of = |name: &str| -> Option<&Vec<Option<AggFunc>>> {
        preds
            .iter()
            .find(|p| p.name == name && p.agg_sig.iter().any(Option::is_some))
            .map(|p| &p.agg_sig)
    };
    // A non-recursive stratum is one predicate; its aggregate is one
    // group-by pass over one rule.
    for st in strata.iter().filter(|s| !s.recursive && s.rules.len() > 1) {
        let idb = &st.idbs[0];
        if agg_of(idb).is_some() {
            return Err(Error::analysis(format!(
                "aggregated IDB '{idb}' is defined across strata with non-extremal \
                 aggregation; this engine evaluates such heads in a single stratum"
            )));
        }
    }
    for st in strata.iter().filter(|s| s.recursive) {
        let stratum_idbs: FxHashSet<&str> = st.idbs.iter().map(String::as_str).collect();
        for &r in &st.rules {
            let rule = &program.rules[r];
            let head_is_agg = rule.has_aggregation();
            if head_is_agg {
                // Monotonic fragment only.
                for term in &rule.head.terms {
                    if let HeadTerm::Agg { func, .. } = term {
                        if !matches!(func, AggFunc::Min | AggFunc::Max) {
                            return Err(Error::analysis(format!(
                                "recursive aggregation in '{}' must be MIN or MAX",
                                rule.display()
                            )));
                        }
                    }
                }
            }
            // Count recursive atoms; restrict aggregate recursion to linear
            // rules, and same-stratum references to an aggregated IDB to the
            // rules of that IDB itself.
            let mut recursive_atoms = 0usize;
            for atom in rule.positive_atoms() {
                if stratum_idbs.contains(atom.pred.as_str()) {
                    recursive_atoms += 1;
                    if agg_of(&atom.pred).is_some() && atom.pred != rule.head.pred {
                        return Err(Error::analysis(format!(
                            "aggregated IDB '{}' may not be referenced by other relations of \
                             its own recursive stratum (rule '{}')",
                            atom.pred,
                            rule.display()
                        )));
                    }
                }
            }
            if head_is_agg && recursive_atoms > 1 {
                return Err(Error::analysis(format!(
                    "recursive aggregation requires linear recursion; rule '{}' has {} \
                     recursive atoms",
                    rule.display(),
                    recursive_atoms
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn analyzed(src: &str) -> Analysis {
        analyze(parse(src).unwrap()).unwrap()
    }

    #[test]
    fn tc_is_one_recursive_stratum() {
        let a = analyzed("tc(x, y) :- arc(x, y).\ntc(x, y) :- tc(x, z), arc(z, y).");
        assert_eq!(a.strata.len(), 1);
        assert!(a.strata[0].recursive);
        assert_eq!(a.strata[0].rules, vec![0, 1]);
        assert_eq!(a.strata[0].idbs, vec!["tc"]);
        assert!(a.pred("tc").unwrap().is_idb);
        assert!(!a.pred("arc").unwrap().is_idb);
        assert_eq!(a.pred("arc").unwrap().arity, 2);
    }

    #[test]
    fn mutual_recursion_single_stratum() {
        let a = analyzed(
            "p(x, y) :- e(x, y).\n\
             p(x, y) :- q(x, z), e(z, y).\n\
             q(x, y) :- p(x, z), f(z, y).",
        );
        // The p/q cycle and p's exit rule share one stratum.
        assert_eq!(a.strata.len(), 1);
        assert!(a.strata[0].recursive);
        assert_eq!(a.strata[0].rules, vec![0, 1, 2]);
        assert_eq!(a.strata[0].idbs, vec!["p", "q"]);
    }

    #[test]
    fn strata_are_topologically_ordered() {
        let a = analyzed(
            "tc(x, y) :- arc(x, y).\n\
             tc(x, y) :- tc(x, z), arc(z, y).\n\
             node(x) :- arc(x, y).\n\
             node(y) :- arc(x, y).\n\
             ntc(x, y) :- node(x), node(y), !tc(x, y).",
        );
        let pos = |pred: &str| {
            a.strata
                .iter()
                .rposition(|s| s.idbs.iter().any(|i| i == pred))
                .unwrap()
        };
        assert!(pos("tc") < pos("ntc"));
        assert!(pos("node") < pos("ntc"));
    }

    #[test]
    fn cspa_mutual_recursion_is_one_stratum() {
        let a = analyzed(crate::programs::CSPA);
        assert_eq!(
            a.strata.len(),
            1,
            "valueFlow/valueAlias/memoryAlias and their five exit rules share one SCC"
        );
        assert!(a.strata[0].recursive);
        assert_eq!(a.strata[0].rules, (0..10).collect::<Vec<_>>());
        assert_eq!(
            a.strata[0].idbs,
            vec!["valueFlow", "memoryAlias", "valueAlias"]
        );
    }

    #[test]
    fn arity_mismatch_rejected() {
        let err = analyze(parse("r(x) :- s(x).\nr(x, y) :- s(x), s(y).").unwrap()).unwrap_err();
        assert!(err.to_string().contains("arities"));
    }

    #[test]
    fn unsafe_head_var_rejected() {
        let err = analyze(parse("r(x, y) :- s(x).").unwrap()).unwrap_err();
        assert!(err.to_string().contains("unsafe"));
    }

    #[test]
    fn unsafe_negation_only_rule_rejected() {
        let err = analyze(parse("r(x) :- !s(x).").unwrap()).unwrap_err();
        assert!(err.to_string().contains("no positive body atom"));
    }

    #[test]
    fn unsafe_negated_var_rejected() {
        let err = analyze(parse("r(x) :- s(x), !t(y).").unwrap()).unwrap_err();
        assert!(err.to_string().contains("negated"));
    }

    #[test]
    fn unsafe_comparison_var_rejected() {
        let err = analyze(parse("r(x) :- s(x), y < 3.").unwrap()).unwrap_err();
        assert!(err.to_string().contains("comparison"));
    }

    #[test]
    fn unstratified_negation_rejected() {
        let err =
            analyze(parse("p(x) :- s(x), !q(x).\nq(x) :- s(x), !p(x).").unwrap()).unwrap_err();
        assert!(err.to_string().contains("not stratified"));
    }

    #[test]
    fn negation_through_recursion_rejected() {
        let err = analyze(parse("p(x) :- s(x).\np(x) :- e(x, y), !p(y).").unwrap()).unwrap_err();
        assert!(err.to_string().contains("not stratified"));
    }

    #[test]
    fn recursive_sum_rejected() {
        let err = analyze(
            parse("t(x, SUM(d)) :- t(y, d), e(y, x).\nt(x, SUM(d)) :- base(x, d).").unwrap(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("MIN or MAX"));
    }

    #[test]
    fn recursive_min_accepted() {
        let a = analyzed(
            "cc3(x, MIN(x)) :- arc(x, _).\n\
             cc3(y, MIN(z)) :- cc3(x, z), arc(x, y).\n\
             cc2(x, MIN(y)) :- cc3(x, y).\n\
             cc(x) :- cc2(_, x).",
        );
        let cc3 = a.pred("cc3").unwrap();
        assert_eq!(cc3.agg_sig, vec![None, Some(AggFunc::Min)]);
    }

    #[test]
    fn non_recursive_union_is_one_stratum() {
        let a = analyzed(
            "u(x, y) :- arc(x, y).\n\
             u(x, y) :- arc(y, x).\n\
             r(x, y) :- u(x, y).\n\
             r(x, y) :- r(x, z), u(z, y).",
        );
        assert_eq!(a.strata.len(), 2);
        assert!(!a.strata[0].recursive);
        assert_eq!(
            (a.strata[0].rules.clone(), &a.strata[0].idbs[..]),
            (vec![0, 1], &["u".to_string()][..])
        );
        assert!(a.strata[1].recursive);
        assert_eq!(a.strata[1].rules, vec![2, 3]);
    }

    #[test]
    fn non_recursive_multi_rule_aggregate_rejected() {
        let err = analyze(parse("t(x, SUM(d)) :- a(x, d).\nt(x, SUM(d)) :- b(x, d).").unwrap())
            .unwrap_err();
        assert!(err.to_string().contains("single stratum"), "{err}");
        // One rule, or a recursive MIN with an exit rule, is fine.
        analyzed("t(x, SUM(d)) :- a(x, d).");
        analyzed("t(x, MIN(d)) :- a(x, d).\nt(y, MIN(d)) :- t(x, d), e(x, y).");
    }

    #[test]
    fn nonlinear_recursive_aggregation_rejected() {
        let err = analyze(
            parse(
                "t(x, MIN(d)) :- base(x, d).\n\
                 t(x, MIN(a + b)) :- t(y, a), t(z, b), e(y, z, x).",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("linear"));
    }

    #[test]
    fn disagreeing_agg_signatures_rejected() {
        let err = analyze(parse("t(x, MIN(d)) :- base(x, d).\nt(x, d) :- other(x, d).").unwrap())
            .unwrap_err();
        assert!(err.to_string().contains("disagree"));
    }

    #[test]
    fn directive_to_unknown_relation_rejected() {
        let err = analyze(parse(".input nothere\nr(x) :- s(x).").unwrap()).unwrap_err();
        assert!(err.to_string().contains("unknown relation"));
    }

    #[test]
    fn andersen_strata_shape() {
        let a = analyzed(crate::programs::ANDERSEN);
        // pointsTo's three recursive rules and its exit rule: one stratum.
        assert_eq!(a.strata.len(), 1);
        assert!(a.strata[0].recursive);
        assert_eq!(a.strata[0].rules, vec![0, 1, 2, 3]);
        assert_eq!(a.strata[0].idbs, vec!["pointsTo"]);
    }
}
