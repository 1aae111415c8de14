//! Recursive `MIN`/`MAX` in value order: each iteration's ∆ is only the
//! lowest-valued bucket of the improved groups (`MAX`: the highest), the
//! rest left pending for a later iteration.
//!
//! Pinned claims:
//!
//! 1. **Same fixpoint.** On long-diameter inputs, where value order defers
//!    groups, the default run, `--no-fused-agg`, `Config::no_op()` and
//!    `baselines::naive` compute the same relations, at 1 and 2 threads:
//!    CC over directed paths with ascending and descending ids (up to
//!    8 000 vertices, where every exit label is already final), a small
//!    cluster feeding a long path (and its 2^40-offset wide-id copy), CC
//!    with a second exit rule, SSSP over weighted G(n, p) with
//!    non-negative weights and over a DAG with some negative weights, and
//!    `MIN` and `MAX` labels over an RMAT graph with hub skew. The exit
//!    pass drains its groups lowest-first too, and an exit rule reading
//!    only `arc`'s source reads one row per source.
//! 2. **Guarded.** A program the planner refuses (a filter or a join on
//!    the aggregated value) is evaluated in synchronous rounds: it defers
//!    nothing, and still agrees with the other modes.
//! 3. **Linear work on a path.** CC over a 2 000-vertex path labels every
//!    vertex 0 while considering O(n · bucket) candidates, not the
//!    Θ(n²) of synchronous rounds.
//! 4. **Wide buckets where they are safe.** SSSP over a sparse grid with
//!    untied weights reaches Dijkstra's distances in far fewer iterations
//!    than one vertex each.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use recstep::{Config, Database, Engine, EvalStats, PbmeMode, Value};
use recstep_baselines::naive::NaiveEngine;
use recstep_bench::pipeline_workload;
use recstep_graphgen::gnp::gnp;
use recstep_graphgen::rmat::rmat;

type Rows = BTreeSet<Vec<Value>>;

/// Relations to load: `(name, arity, rows)`.
type Loads = Vec<(&'static str, usize, Vec<Vec<Value>>)>;

/// Run `src` over `loads` under `cfg`, PBME off.
fn run(src: &str, loads: &Loads, rels: &[&str], cfg: Config) -> (Vec<Rows>, EvalStats) {
    let engine = Engine::from_config(cfg.pbme(PbmeMode::Off)).unwrap();
    let mut db = Database::new().unwrap();
    for (name, arity, rows) in loads {
        db.load_relation(name, *arity, rows).unwrap();
    }
    let stats = engine.prepare(src).unwrap().run(&mut db).unwrap();
    let rows = rels
        .iter()
        .map(|r| db.relation(r).unwrap().to_vec().into_iter().collect())
        .collect();
    (rows, stats)
}

fn naive(src: &str, loads: &Loads, rels: &[&str]) -> Vec<Rows> {
    let mut naive = NaiveEngine::new();
    for (name, _, rows) in loads {
        naive.load(name, rows.iter().cloned());
    }
    naive.run_source(src).unwrap();
    rels.iter()
        .map(|r| naive.rows(r).unwrap().iter().cloned().collect())
        .collect()
}

/// Default ≡ `--no-fused-agg` ≡ `Config::no_op()` ≡ naive, at 1 and 2
/// threads; returns the default run's rows and statistics at 2.
fn agree(what: &str, src: &str, loads: &Loads, rels: &[&str]) -> (Vec<Rows>, EvalStats) {
    let want = naive(src, loads, rels);
    assert!(want[0].len() > 1, "{what}: empty result");
    let mut at: Vec<EvalStats> = Vec::new();
    for threads in [1, 2] {
        let what = format!("{what}, {threads} threads");
        let cfg = Config::default().threads(threads);
        let (rows, stats) = run(src, loads, rels, cfg.clone());
        let (unfused, unfused_stats) = run(src, loads, rels, cfg.fused_agg(false));
        let (no_op, _) = run(src, loads, rels, Config::no_op().threads(threads));
        assert_eq!(rows, want, "{what}: default vs naive");
        assert_eq!(unfused, want, "{what}: --no-fused-agg");
        assert_eq!(no_op, want, "{what}: no_op");
        // Both aggregation arms drain the same buckets.
        assert_eq!(
            stats.tuples_considered, unfused_stats.tuples_considered,
            "{what}"
        );
        assert_eq!(
            stats.agg_groups_deferred, unfused_stats.agg_groups_deferred,
            "{what}"
        );
        at.push(stats);
    }
    // The drains never depend on the thread count.
    let [one, two] = &at[..] else { unreachable!() };
    assert_eq!(one.iterations, two.iterations, "{what}: iterations");
    assert_eq!(one.tuples_considered, two.tuples_considered, "{what}");
    (want, at.pop().expect("two runs"))
}

fn edges(rel: &'static str, arcs: impl IntoIterator<Item = (Value, Value)>) -> Loads {
    vec![(rel, 2, arcs.into_iter().map(|(a, b)| vec![a, b]).collect())]
}

/// The arcs of a directed path over `n + 1` vertices, position `i` named
/// `name(i)`.
fn path(n: Value, name: impl Fn(Value) -> Value) -> Vec<(Value, Value)> {
    (0..n).map(|i| (name(i), name(i + 1))).collect()
}

const CC_RELS: [&str; 3] = ["cc3", "cc2", "cc"];

#[test]
fn cc_over_paths_agrees_in_every_mode() {
    for n in [33, 300] {
        let (rows, stats) = agree(
            &format!("ascending path {n}"),
            recstep::programs::CC,
            &edges("arc", path(n, |i| i)),
            &CC_RELS,
        );
        assert!(rows[0].iter().all(|r| r[1] == 0), "every label is 0");
        if n == 300 {
            assert!(stats.agg_groups_deferred > 0, "a long path defers groups");
        }
        // Descending ids: every vertex already holds its final label, but
        // the last one (id 0, no out-arc) which inherits 1.
        let (rows, _) = agree(
            &format!("descending path {n}"),
            recstep::programs::CC,
            &edges("arc", path(n, |i| n - i)),
            &CC_RELS,
        );
        assert!(rows[0].iter().all(|r| r[1] == r[0].max(1)));
    }
}

#[test]
fn cluster_feeding_a_path_agrees_with_narrow_and_wide_ids() {
    // A 24-vertex cluster whose vertex 0 feeds a 300-arc path, as CI's
    // `lp` run; the wide copy spreads every id by 2^32 past 2^40, so no
    // window covers the keys and every group hashes.
    let mut arcs = pipeline_workload(24, 0.12, 300, 41);
    arcs.push((0, 24));
    type Naming = fn(Value) -> Value;
    let namings: [(&str, Naming); 2] = [("narrow", |v| v), ("wide", |v| (1 << 40) + v * (1 << 32))];
    for (layout, name) in namings {
        let loads = edges("arc", arcs.iter().map(|&(a, b)| (name(a), name(b))));
        let (_, stats) = agree(layout, recstep::programs::CC, &loads, &CC_RELS);
        assert!(stats.agg_groups_deferred > 0, "{layout}: nothing deferred");
        assert!(stats.iterations >= 300, "{layout}: {}", stats.iterations);
    }
}

#[test]
fn cc_over_a_reversed_8000_vertex_path_keeps_its_exit_labels() {
    // Vertex v's ancestors all have larger ids: every exit label is
    // already final, but vertex 0's (it has no out-arc), which inherits 1.
    let n = 8000;
    let (rows, _) = agree(
        "reversed path 8000",
        recstep::programs::CC,
        &edges("arc", path(n, |i| n - i)),
        &CC_RELS,
    );
    assert_eq!(rows[0].len(), n as usize + 1);
    assert!(rows[0].iter().all(|r| r[1] == r[0].max(1)));
}

#[test]
fn cc_with_a_second_exit_rule_agrees() {
    // The second exit reads `arc`'s target, whose index no ∆ subquery
    // builds: it scans every arc, while the first reads one row per source.
    let src = format!("{}cc3(y, MIN(y)) :- arc(_, y).\n", recstep::programs::CC);
    let mut arcs = pipeline_workload(24, 0.12, 300, 41);
    arcs.push((0, 24));
    let (_, stats) = agree("two exits", &src, &edges("arc", arcs), &CC_RELS);
    assert!(stats.agg_groups_deferred > 0);
    let (rows, _) = agree(
        "two exits, reversed path",
        &src,
        &edges("arc", path(300, |i| 300 - i)),
        &CC_RELS,
    );
    assert!(
        rows[0].iter().all(|r| r[1] == r[0]),
        "vertex 0 labels itself"
    );
}

#[test]
fn min_and_max_labels_agree_over_a_skewed_rmat_graph() {
    // RMAT's hubs give a few sources most of the arcs: the exit scan
    // reads one row per source, and the hubs' labels reach most vertices
    // in a few hops.
    let arcs = rmat(1000, 6000, 7)
        .into_iter()
        .map(|(a, b)| (Value::from(a), Value::from(b)));
    let loads = edges("arc", arcs);
    agree("CC over RMAT", recstep::programs::CC, &loads, &CC_RELS);
    let max = "mx(x, MAX(x)) :- arc(x, _).\nmx(y, MAX(z)) :- mx(x, z), arc(x, y).";
    agree("MAX over RMAT", max, &loads, &["mx"]);
}

#[test]
fn sssp_agrees_with_nonnegative_and_negative_weights() {
    for seed in 0..3u64 {
        let graph: Vec<(Value, Value)> = gnp(60, 0.06, seed)
            .into_iter()
            .map(|(a, b)| (a as Value, b as Value))
            .collect();
        // Non-negative weights over the whole graph, cycles included.
        let weighted: Vec<Vec<Value>> = graph
            .iter()
            .map(|&(a, b)| vec![a, b, (a * 7 + b * 13) % 20])
            .collect();
        // Some negative weights, on the DAG of forward arcs only.
        let dag: Vec<Vec<Value>> = graph
            .iter()
            .filter(|&&(a, b)| a < b)
            .map(|&(a, b)| vec![a, b, (a * 7 + b * 13) % 20 - 6])
            .collect();
        let sources = vec![vec![0], vec![1], vec![2]];
        for (what, arcs) in [("non-negative", weighted), ("negative DAG", dag)] {
            let loads: Loads = vec![("arc", 3, arcs), ("id", 1, sources.clone())];
            agree(
                &format!("sssp {what}, seed {seed}"),
                recstep::programs::SSSP,
                &loads,
                &["sssp2", "sssp"],
            );
        }
    }
}

#[test]
fn sssp_over_a_sparse_grid_drains_many_groups_an_iteration() {
    // A 40 × 40 grid, both directions, with untied pseudo-random weights:
    // few groups improve per iteration and no two tie, so a bucket of
    // ⌈n / 8⌉ groups alone would be Dijkstra's one vertex an iteration,
    // about 1 600 iterations. Handed-back groups rarely improve again
    // here, so the bucket's width grows: 92 iterations (a fixed floor of
    // 32 groups read 85).
    let side: Value = 40;
    let weight = |a: Value, b: Value| (a * 7919 + b * 104_729) % 1_000_003 + 1;
    let mut arcs = Vec::new();
    for v in 0..side * side {
        let (r, c) = (v / side, v % side);
        let steps = [
            (c + 1 < side, 1),
            (c > 0, -1),
            (r + 1 < side, side),
            (r > 0, -side),
        ];
        for (ok, step) in steps {
            if ok {
                arcs.push(vec![v, v + step, weight(v, v + step)]);
            }
        }
    }
    // Dijkstra's distances from vertex 0.
    let n = (side * side) as usize;
    let mut dist = vec![Value::MAX; n];
    let mut heap = BinaryHeap::from([Reverse((0, 0))]);
    while let Some(Reverse((d, v))) = heap.pop() {
        if d < dist[v as usize] {
            dist[v as usize] = d;
            for arc in arcs.iter().filter(|a| a[0] == v) {
                heap.push(Reverse((d + arc[2], arc[1])));
            }
        }
    }
    let oracle: Rows = (0..n).map(|v| vec![v as Value, dist[v]]).collect();
    let loads: Loads = vec![("arc", 3, arcs), ("id", 1, vec![vec![0]])];
    let (rows, stats) = run(
        recstep::programs::SSSP,
        &loads,
        &["sssp"],
        Config::default().threads(2),
    );
    assert_eq!(rows[0], oracle);
    assert_eq!(stats.iterations, 92, "iterations");
}

#[test]
fn max_labels_propagate_in_value_order() {
    // The highest id sits at the head of a 300-arc path, so every vertex
    // ends labelled 300 and value order takes the highest labels first.
    let src = "mx(x, MAX(x)) :- arc(x, _).\nmx(y, MAX(z)) :- mx(x, z), arc(x, y).";
    let (rows, stats) = agree(
        "MAX over a path",
        src,
        &edges("arc", path(300, |i| 300 - i)),
        &["mx"],
    );
    assert!(rows[0].iter().all(|r| r[1] == 300));
    assert!(stats.agg_groups_deferred > 0);
}

#[test]
fn guard_refused_programs_run_in_synchronous_rounds() {
    // A filter and a join on the aggregated value, both always true on
    // this input: the planner refuses value order for them, so nothing is
    // deferred, and the results still agree.
    let nodes: Vec<Vec<Value>> = (0..=300).map(|v| vec![v]).collect();
    for rule in [
        "cc3(y, MIN(z)) :- cc3(x, z), arc(x, y), z >= 0.",
        "cc3(y, MIN(z)) :- cc3(x, z), arc(x, y), node(z).",
    ] {
        let src = format!("cc3(x, MIN(x)) :- arc(x, _).\n{rule}");
        let mut loads = edges("arc", path(300, |i| i));
        loads.push(("node", 1, nodes.clone()));
        let (rows, stats) = agree(rule, &src, &loads, &["cc3"]);
        assert!(rows[0].iter().all(|r| r[1] == 0));
        assert_eq!(stats.agg_groups_deferred, 0, "{rule}");
        assert!(stats.iterations >= 300, "{rule}");
    }
}

#[test]
fn cc_over_a_2000_vertex_path_labels_every_vertex_0() {
    // Closed form: arcs i → i + 1, so vertex v's label is min(0..=v) = 0.
    let n = 2000;
    let (rows, stats) = run(
        recstep::programs::CC,
        &edges("arc", path(n, |i| i)),
        &["cc3"],
        Config::default().threads(2),
    );
    assert_eq!(rows[0].len(), n as usize + 1);
    assert!(rows[0].iter().all(|r| r[1] == 0), "a label is not 0");
    assert!(stats.agg_groups_deferred > 0);
    // Synchronous rounds consider Θ(n²) candidates (vertex v improves v
    // times); value order drains an eighth of each iteration's improved
    // groups, at least its width, which stays at 1 or 2 here (a second
    // group handed back is never final), so a vertex improves about six
    // times.
    assert!(
        stats.tuples_considered < 8 * n as usize,
        "{} candidates",
        stats.tuples_considered
    );
}
