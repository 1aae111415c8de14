//! SQL rendering of compiled plans — the text RecStep would send to
//! QuickStep, reproducing Figure 4's two translation styles.
//!
//! The engine itself executes logical plans directly over its own columnar
//! substrate in place of QuickStep (see ARCHITECTURE.md's crate map); this
//! module exists because the paper's interface to the backend *is* SQL,
//! and the UIE-vs-IIE contrast (Figure 4) is clearest in that surface form.

use recstep_common::lang::{Expr, Predicate};

use crate::plan::{AtomVersion, CompiledIdb, SubQuery};

/// Render the unified-IDB-evaluation (UIE) query for one IDB: a single
/// `INSERT … SELECT … UNION ALL …` (paper Figure 4, right).
pub fn render_uie(idb: &CompiledIdb) -> String {
    let mut out = String::new();
    out.push_str(&format!("INSERT INTO {}_mDelta\n", idb.rel));
    let selects: Vec<String> = idb
        .subqueries
        .iter()
        .map(|sq| indent(&render_select(sq), 4))
        .collect();
    out.push_str(&selects.join("\n        UNION ALL\n"));
    out.push(';');
    out
}

/// Render the individual-IDB-evaluation queries for one IDB: one `INSERT`
/// per subquery into temporary tables, plus the merging `UNION ALL`
/// (paper Figure 4, left).
pub fn render_iie(idb: &CompiledIdb) -> String {
    let mut out = String::new();
    for (i, sq) in idb.subqueries.iter().enumerate() {
        out.push_str(&format!("INSERT INTO {}_tmp_mDelta{}\n", idb.rel, i));
        out.push_str(&indent(&render_select(sq), 4));
        out.push_str(";\n");
    }
    out.push_str(&format!("INSERT INTO {}_mDelta\n", idb.rel));
    let merges: Vec<String> = (0..idb.subqueries.len())
        .map(|i| format!("    SELECT * FROM {}_tmp_mDelta{}", idb.rel, i))
        .collect();
    out.push_str(&merges.join("\n        UNION ALL\n"));
    out.push(';');
    out
}

/// Render one subquery as a `SELECT`. A join step the planner dedups
/// ([`crate::plan::JoinStep::live`]) closes a derived table: the scans
/// joined so far become `SELECT DISTINCT` of the live columns, which the
/// rest of the query reads as `s{step}.c{column}`.
pub fn render_select(sq: &SubQuery) -> String {
    // Flattened column index -> "tN.cK".
    let mut col_names = Vec::with_capacity(sq.width);
    for (ti, scan) in sq.scans.iter().enumerate() {
        for c in 0..scan.arity {
            col_names.push(format!("t{ti}.c{c}"));
        }
    }
    let scan_item = |ti: usize| {
        let s = &sq.scans[ti];
        format!("{} AS t{ti}", table_name(&s.rel, s.version))
    };
    // The FROM items and conditions since the last deduplicated stage,
    // whose first scan is `first`.
    let mut from_list = vec![scan_item(0)];
    let mut conds: Vec<String> = Vec::new();
    let mut first = 0;
    let filters_of = |scans: std::ops::Range<usize>, conds: &mut Vec<String>| {
        for ti in scans {
            for f in &sq.scans[ti].filters {
                conds.push(render_pred_local(f, ti));
            }
        }
    };
    for (ji, join) in sq.joins.iter().enumerate() {
        let right_scan = ji + 1;
        from_list.push(scan_item(right_scan));
        for (lk, rk) in join.left_keys.iter().zip(&join.right_keys) {
            conds.push(format!("{} = t{right_scan}.c{rk}", col_names[*lk]));
        }
        if let Some(live) = &join.live {
            filters_of(first..right_scan + 1, &mut conds);
            let cols: Vec<String> = live
                .iter()
                .map(|&c| format!("{} AS c{c}", col_names[c]))
                .collect();
            let inner = from_where(
                format!("SELECT DISTINCT {}", cols.join(", ")),
                &from_list,
                &conds,
            );
            from_list = vec![format!("(\n{}\n) AS s{ji}", indent(&inner, 4))];
            conds.clear();
            for &c in live {
                col_names[c] = format!("s{ji}.c{c}");
            }
            first = right_scan + 1;
        }
    }
    filters_of(first..sq.scans.len(), &mut conds);
    for p in &sq.residual {
        conds.push(render_pred(p, &col_names));
    }
    for neg in &sq.negations {
        let mut inner: Vec<String> = neg
            .left_keys
            .iter()
            .zip(&neg.right_keys)
            .map(|(lk, rk)| format!("n.c{rk} = {}", col_names[*lk]))
            .collect();
        for f in &neg.filters {
            inner.push(render_pred_alias(f, "n"));
        }
        conds.push(format!(
            "NOT EXISTS (SELECT 1 FROM {} AS n WHERE {})",
            neg.rel,
            inner.join(" AND ")
        ));
    }

    let select_list: Vec<String> = sq
        .head_exprs
        .iter()
        .enumerate()
        .map(|(i, e)| format!("{} AS c{i}", render_expr(e, &col_names)))
        .collect();
    from_where(
        format!("SELECT {}", select_list.join(", ")),
        &from_list,
        &conds,
    )
}

/// `select` followed by its `FROM` list and, if any, `WHERE` conditions.
fn from_where(select: String, from_list: &[String], conds: &[String]) -> String {
    let mut sql = format!("{select}\nFROM {}", from_list.join(", "));
    if !conds.is_empty() {
        sql.push_str(&format!("\nWHERE {}", conds.join(" AND ")));
    }
    sql
}

fn table_name(rel: &str, version: AtomVersion) -> String {
    match version {
        AtomVersion::Base | AtomVersion::Full => rel.to_string(),
        AtomVersion::Delta => format!("{rel}_mDelta"),
        AtomVersion::Old => format!("{rel}_old"),
    }
}

fn render_expr(e: &Expr, cols: &[String]) -> String {
    match e {
        Expr::Col(i) => cols[*i].clone(),
        Expr::Const(c) => c.to_string(),
        Expr::Add(a, b) => format!("{} + {}", render_expr(a, cols), render_expr(b, cols)),
        Expr::Sub(a, b) => format!("{} - {}", render_expr(a, cols), render_expr(b, cols)),
        Expr::Mul(a, b) => format!("{} * {}", render_expr(a, cols), render_expr(b, cols)),
    }
}

fn render_pred(p: &Predicate, cols: &[String]) -> String {
    format!(
        "{} {} {}",
        render_expr(&p.lhs, cols),
        p.op.sql(),
        render_expr(&p.rhs, cols)
    )
}

/// Render a scan-local predicate with columns addressed as `t{ti}.cN`.
fn render_pred_local(p: &Predicate, ti: usize) -> String {
    render_pred_alias_inner(p, &format!("t{ti}"))
}

fn render_pred_alias(p: &Predicate, alias: &str) -> String {
    render_pred_alias_inner(p, alias)
}

fn render_pred_alias_inner(p: &Predicate, alias: &str) -> String {
    fn rec(e: &Expr, alias: &str) -> String {
        match e {
            Expr::Col(i) => format!("{alias}.c{i}"),
            Expr::Const(c) => c.to_string(),
            Expr::Add(a, b) => format!("{} + {}", rec(a, alias), rec(b, alias)),
            Expr::Sub(a, b) => format!("{} - {}", rec(a, alias), rec(b, alias)),
            Expr::Mul(a, b) => format!("{} * {}", rec(a, alias), rec(b, alias)),
        }
    }
    format!(
        "{} {} {}",
        rec(&p.lhs, alias),
        p.op.sql(),
        rec(&p.rhs, alias)
    )
}

fn indent(s: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    s.lines()
        .map(|l| format!("{pad}{l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::parser::parse;
    use crate::plan::compile;

    fn andersen_recursive_idb() -> CompiledIdb {
        let p = compile(&analyze(parse(crate::programs::ANDERSEN).unwrap()).unwrap()).unwrap();
        p.strata
            .iter()
            .find(|s| s.recursive)
            .unwrap()
            .idbs
            .iter()
            .find(|i| i.rel == "pointsTo")
            .unwrap()
            .clone()
    }

    #[test]
    fn uie_is_one_insert_with_union_all() {
        let idb = andersen_recursive_idb();
        let sql = render_uie(&idb);
        assert_eq!(sql.matches("INSERT INTO").count(), 1);
        assert!(sql.starts_with("INSERT INTO pointsTo_mDelta"));
        // 6 subqueries (the exit rule's among them) → 5 UNION ALLs.
        assert_eq!(sql.matches("UNION ALL").count(), idb.subqueries.len() - 1);
        assert!(sql.contains("pointsTo_mDelta AS"));
        assert!(sql.ends_with(';'));
    }

    #[test]
    fn iie_uses_temp_tables_then_merges() {
        let idb = andersen_recursive_idb();
        let sql = render_iie(&idb);
        // One INSERT per subquery plus the merge.
        assert_eq!(sql.matches("INSERT INTO").count(), idb.subqueries.len() + 1);
        assert!(sql.contains("pointsTo_tmp_mDelta0"));
        assert!(sql.contains("SELECT * FROM pointsTo_tmp_mDelta0"));
    }

    #[test]
    fn select_renders_join_conditions_and_versions() {
        let p = compile(&analyze(parse(crate::programs::TC).unwrap()).unwrap()).unwrap();
        let tc = &p.strata[0].idbs[0];
        let sql = render_select(&tc.subqueries[1]);
        assert!(sql.contains("FROM tc_mDelta AS t0, arc AS t1"), "{sql}");
        assert!(sql.contains("WHERE t0.c1 = t1.c0"), "{sql}");
        assert!(sql.contains("SELECT t0.c0 AS c0, t1.c1 AS c1"), "{sql}");
    }

    #[test]
    fn old_version_and_residual_render() {
        let p = compile(&analyze(parse(crate::programs::SG).unwrap()).unwrap()).unwrap();
        let rec = p.strata.iter().find(|s| s.recursive).unwrap();
        let sql = render_uie(&rec.idbs[0]);
        assert!(sql.contains("sg_mDelta AS"), "{sql}");
        // Seed rule's x != y.
        let seed_sql = render_select(&p.strata[0].idbs[0].subqueries[0]);
        assert!(seed_sql.contains("t0.c1 <> t1.c1"), "{seed_sql}");
    }

    #[test]
    fn negation_renders_not_exists() {
        let p = compile(&analyze(parse(crate::programs::NTC).unwrap()).unwrap()).unwrap();
        let ntc = p
            .strata
            .iter()
            .flat_map(|s| &s.idbs)
            .find(|i| i.rel == "ntc")
            .unwrap();
        let sql = render_select(&ntc.subqueries[0]);
        assert!(
            sql.contains("NOT EXISTS (SELECT 1 FROM tc AS n WHERE"),
            "{sql}"
        );
    }

    #[test]
    fn deduped_stage_renders_as_select_distinct_of_its_live_columns() {
        let p = compile(&analyze(parse(crate::programs::CSPA).unwrap()).unwrap()).unwrap();
        let va = p
            .strata
            .iter()
            .flat_map(|s| &s.idbs)
            .find(|i| i.rel == "valueAlias")
            .unwrap();
        let sq = va.subqueries.iter().find(|s| s.scans.len() == 3).unwrap();
        let sql = render_select(sq);
        assert!(
            sql.contains("SELECT DISTINCT t0.c1 AS c1, t1.c1 AS c3\n"),
            "{sql}"
        );
        assert!(sql.contains("WHERE t0.c0 = t1.c0\n) AS s0, "), "{sql}");
        assert!(sql.contains("WHERE s0.c3 = t2.c0"), "{sql}");
        assert!(
            sql.starts_with("SELECT s0.c1 AS c0, t2.c1 AS c1\n"),
            "{sql}"
        );
    }

    #[test]
    fn constant_filters_render() {
        let p = compile(&analyze(parse("r(x) :- s(x, 5).").unwrap()).unwrap()).unwrap();
        let sql = render_select(&p.strata[0].idbs[0].subqueries[0]);
        assert!(sql.contains("t0.c1 = 5"), "{sql}");
    }
}
