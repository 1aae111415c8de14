#![allow(clippy::needless_range_loop, clippy::type_complexity)]
//! End-to-end engine tests: every benchmark program on small inputs,
//! cross-checked against independent oracles, across configuration space.
//! All tests drive the Engine / Database / PreparedProgram API.

use std::collections::{BTreeSet, HashMap, HashSet};

use recstep::{
    Config, Database, DedupImpl, Engine, EvalStats, OofMode, PbmeMode, SetDiffStrategy, Value,
};

fn engine(cfg: Config) -> Engine {
    Engine::from_config(cfg.threads(4)).unwrap()
}

/// One-shot evaluation: fresh database, load `arc`, run `src` once.
fn run_on_edges(cfg: Config, edges: &[(Value, Value)], src: &str) -> (Database, EvalStats) {
    let mut db = Database::new().unwrap();
    db.load_edges("arc", edges).unwrap();
    let stats = engine(cfg).prepare(src).unwrap().run(&mut db).unwrap();
    (db, stats)
}

fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    }
}

fn random_edges(n: u64, m: usize, seed: u64) -> Vec<(Value, Value)> {
    let mut rnd = lcg(seed);
    (0..m)
        .map(|_| ((rnd() % n) as Value, (rnd() % n) as Value))
        .collect()
}

fn tc_oracle(n: usize, edges: &[(Value, Value)]) -> BTreeSet<(Value, Value)> {
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
    let mut out = BTreeSet::new();
    for i in 0..n {
        for j in 0..n {
            if reach[i][j] {
                out.insert((i as Value, j as Value));
            }
        }
    }
    out
}

fn rel_pairs(db: &Database, name: &str) -> BTreeSet<(Value, Value)> {
    db.relation(name)
        .unwrap()
        .as_pairs()
        .unwrap()
        .into_iter()
        .collect()
}

#[test]
fn tc_matches_floyd_warshall() {
    let n = 30;
    let edges = random_edges(n as u64, 80, 42);
    let (db, _) = run_on_edges(
        Config::default().pbme(PbmeMode::Off),
        &edges,
        recstep::programs::TC,
    );
    assert_eq!(rel_pairs(&db, "tc"), tc_oracle(n, &edges));
}

#[test]
fn tc_pbme_agrees_with_tuple_engine() {
    let n = 40;
    let edges = random_edges(n as u64, 120, 7);
    let (tup, _) = run_on_edges(
        Config::default().pbme(PbmeMode::Off),
        &edges,
        recstep::programs::TC,
    );
    let (bit, stats) = run_on_edges(
        Config::default().pbme(PbmeMode::Force),
        &edges,
        recstep::programs::TC,
    );
    assert!(stats.strata.iter().any(|s| s.pbme), "PBME must have run");
    assert_eq!(rel_pairs(&bit, "tc"), rel_pairs(&tup, "tc"));
    assert_eq!(rel_pairs(&bit, "tc"), tc_oracle(n, &edges));
}

#[test]
fn mirrored_tc_rule_is_equivalent() {
    let edges = random_edges(25, 60, 11);
    let mirrored = "tc(x, y) :- arc(x, y).\ntc(x, y) :- arc(x, z), tc(z, y).";
    for pbme in [PbmeMode::Off, PbmeMode::Force] {
        let (db, _) = run_on_edges(Config::default().pbme(pbme), &edges, mirrored);
        assert_eq!(rel_pairs(&db, "tc"), tc_oracle(25, &edges), "pbme={pbme:?}");
    }
}

#[test]
fn sg_all_engines_agree() {
    let edges = random_edges(30, 90, 3);
    // Oracle via fixpoint over sets.
    let mut adj: HashMap<Value, Vec<Value>> = HashMap::new();
    for &(s, t) in &edges {
        adj.entry(s).or_default().push(t);
    }
    let mut oracle: HashSet<(Value, Value)> = HashSet::new();
    for kids in adj.values() {
        for &x in kids {
            for &y in kids {
                if x != y {
                    oracle.insert((x, y));
                }
            }
        }
    }
    loop {
        let mut fresh = Vec::new();
        for &(a, b) in &oracle {
            if let (Some(ka), Some(kb)) = (adj.get(&a), adj.get(&b)) {
                for &x in ka {
                    for &y in kb {
                        if !oracle.contains(&(x, y)) {
                            fresh.push((x, y));
                        }
                    }
                }
            }
        }
        if fresh.is_empty() {
            break;
        }
        oracle.extend(fresh);
    }
    let oracle: BTreeSet<(Value, Value)> = oracle.into_iter().collect();
    for pbme in [PbmeMode::Off, PbmeMode::Force] {
        let (db, _) = run_on_edges(Config::default().pbme(pbme), &edges, recstep::programs::SG);
        assert_eq!(rel_pairs(&db, "sg"), oracle, "pbme={pbme:?}");
    }
}

#[test]
fn reach_matches_bfs() {
    let n = 50u64;
    let edges = random_edges(n, 120, 13);
    let seed = 5 as Value;
    let mut db = Database::new().unwrap();
    db.load_edges("arc", &edges).unwrap();
    db.load_relation("id", 1, &[vec![seed]]).unwrap();
    engine(Config::default())
        .prepare(recstep::programs::REACH)
        .unwrap()
        .run(&mut db)
        .unwrap();
    // BFS oracle (reach includes the seed itself via the base rule).
    let mut adj: HashMap<Value, Vec<Value>> = HashMap::new();
    for &(s, t) in &edges {
        adj.entry(s).or_default().push(t);
    }
    let mut seen: BTreeSet<Value> = BTreeSet::new();
    let mut queue = vec![seed];
    seen.insert(seed);
    while let Some(v) = queue.pop() {
        for &t in adj.get(&v).map(Vec::as_slice).unwrap_or(&[]) {
            if seen.insert(t) {
                queue.push(t);
            }
        }
    }
    let got: BTreeSet<Value> = db
        .relation("reach")
        .unwrap()
        .try_decode::<Value>()
        .unwrap()
        .into_iter()
        .collect();
    assert_eq!(got, seen);
}

/// Union-find oracle for CC over the *directed propagation* semantics of the
/// paper's program: labels flow along directed edges, so the fixpoint label
/// of a vertex is the min vertex that reaches it (not the undirected
/// component min). We therefore oracle with directed reachability.
#[test]
fn cc_labels_match_directed_reachability_min() {
    let n = 25;
    let edges = random_edges(n as u64, 70, 19);
    let (db, _) = run_on_edges(Config::default(), &edges, recstep::programs::CC);
    let reach = tc_oracle(n, &edges);
    // cc3(v) = min over {v's own label if v has outgoing edge} ∪ {u | u → v}.
    let mut expect: HashMap<Value, Value> = HashMap::new();
    let sources: BTreeSet<Value> = edges.iter().map(|&(s, _)| s).collect();
    for &s in &sources {
        expect
            .entry(s)
            .and_modify(|m| *m = (*m).min(s))
            .or_insert(s);
    }
    for &(u, v) in &reach {
        if sources.contains(&u) || sources.contains(&v) {
            // label u propagates along u →* v when u itself got a label
            if sources.contains(&u) {
                expect
                    .entry(v)
                    .and_modify(|m| *m = (*m).min(u))
                    .or_insert(u);
            }
        }
    }
    let got: HashMap<Value, Value> = db
        .relation("cc3")
        .unwrap()
        .as_pairs()
        .unwrap()
        .into_iter()
        .collect();
    assert_eq!(got, expect);
    // cc2 mirrors cc3 after the final grouping; cc is the distinct labels.
    let cc: BTreeSet<Value> = db
        .relation("cc")
        .unwrap()
        .try_decode::<Value>()
        .unwrap()
        .into_iter()
        .collect();
    let labels: BTreeSet<Value> = expect.values().copied().collect();
    assert_eq!(cc, labels);
}

#[test]
fn sssp_matches_dijkstra() {
    let n = 40u64;
    let mut rnd = lcg(77);
    let edges: Vec<(Value, Value, Value)> = (0..150)
        .map(|_| {
            (
                (rnd() % n) as Value,
                (rnd() % n) as Value,
                (rnd() % 9 + 1) as Value,
            )
        })
        .collect();
    let src = 0 as Value;
    let mut db = Database::new().unwrap();
    db.load_weighted_edges("arc", &edges).unwrap();
    db.load_relation("id", 1, &[vec![src]]).unwrap();
    engine(Config::default())
        .prepare(recstep::programs::SSSP)
        .unwrap()
        .run(&mut db)
        .unwrap();
    // Dijkstra oracle.
    let mut adj: HashMap<Value, Vec<(Value, Value)>> = HashMap::new();
    for &(s, t, w) in &edges {
        adj.entry(s).or_default().push((t, w));
    }
    let mut dist: HashMap<Value, Value> = HashMap::from([(src, 0)]);
    let mut heap = std::collections::BinaryHeap::new();
    heap.push(std::cmp::Reverse((0 as Value, src)));
    while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
        if dist.get(&v).is_some_and(|&cur| d > cur) {
            continue;
        }
        for &(t, w) in adj.get(&v).map(Vec::as_slice).unwrap_or(&[]) {
            let nd = d + w;
            if dist.get(&t).is_none_or(|&cur| nd < cur) {
                dist.insert(t, nd);
                heap.push(std::cmp::Reverse((nd, t)));
            }
        }
    }
    let got: HashMap<Value, Value> = db
        .relation("sssp")
        .unwrap()
        .as_pairs()
        .unwrap()
        .into_iter()
        .collect();
    assert_eq!(got, dist);
}

#[test]
fn ntc_is_complement_of_tc_over_nodes() {
    let edges = random_edges(12, 25, 23);
    let (db, _) = run_on_edges(Config::default(), &edges, recstep::programs::NTC);
    let tc = rel_pairs(&db, "tc");
    let nodes: BTreeSet<Value> = edges.iter().flat_map(|&(s, t)| [s, t]).collect();
    let mut expect = BTreeSet::new();
    for &x in &nodes {
        for &y in &nodes {
            if !tc.contains(&(x, y)) {
                expect.insert((x, y));
            }
        }
    }
    assert_eq!(rel_pairs(&db, "ntc"), expect);
}

#[test]
fn gtc_counts_reachable_vertices() {
    let edges = vec![(0, 1), (1, 2), (2, 3)];
    let (db, _) = run_on_edges(Config::default(), &edges, recstep::programs::GTC);
    let got: HashMap<Value, Value> = db
        .relation("gtc")
        .unwrap()
        .as_pairs()
        .unwrap()
        .into_iter()
        .collect();
    assert_eq!(got, HashMap::from([(0, 3), (1, 2), (2, 1)]));
}

/// Andersen oracle: naive fixpoint over sets.
fn andersen_oracle(
    address_of: &[(Value, Value)],
    assign: &[(Value, Value)],
    load: &[(Value, Value)],
    store: &[(Value, Value)],
) -> BTreeSet<(Value, Value)> {
    let mut pts: HashSet<(Value, Value)> = address_of.iter().copied().collect();
    loop {
        let mut fresh: Vec<(Value, Value)> = Vec::new();
        let snapshot: Vec<(Value, Value)> = pts.iter().copied().collect();
        for &(y, z) in assign {
            for &(pz, x) in &snapshot {
                if pz == z && !pts.contains(&(y, x)) {
                    fresh.push((y, x));
                }
            }
        }
        for &(y, x) in load {
            for &(px, z) in &snapshot {
                if px == x {
                    for &(pz, w) in &snapshot {
                        if pz == z && !pts.contains(&(y, w)) {
                            fresh.push((y, w));
                        }
                    }
                }
            }
        }
        for &(y, x) in store {
            for &(py, z) in &snapshot {
                if py == y {
                    for &(px, w) in &snapshot {
                        if px == x && !pts.contains(&(z, w)) {
                            fresh.push((z, w));
                        }
                    }
                }
            }
        }
        if fresh.is_empty() {
            break;
        }
        pts.extend(fresh);
    }
    pts.into_iter().collect()
}

#[test]
fn andersen_matches_naive_fixpoint() {
    let mut rnd = lcg(31);
    let n = 20u64;
    let mut pick = |m: usize| -> Vec<(Value, Value)> {
        (0..m)
            .map(|_| ((rnd() % n) as Value, (rnd() % n) as Value))
            .collect()
    };
    let address_of = pick(15);
    let assign = pick(12);
    let load = pick(8);
    let store = pick(8);
    let oracle = andersen_oracle(&address_of, &assign, &load, &store);
    let mut db = Database::new().unwrap();
    // Bulk-load all four input relations in one transaction.
    let mut tx = db.transaction();
    tx.load_edges("addressOf", &address_of).unwrap();
    tx.load_edges("assign", &assign).unwrap();
    tx.load_edges("load", &load).unwrap();
    tx.load_edges("store", &store).unwrap();
    tx.commit().unwrap();
    engine(Config::default())
        .prepare(recstep::programs::ANDERSEN)
        .unwrap()
        .run(&mut db)
        .unwrap();
    assert_eq!(rel_pairs(&db, "pointsTo"), oracle);
}

/// CSPA oracle: naive fixpoint of the full mutually recursive program.
fn cspa_oracle(
    assign: &[(Value, Value)],
    deref: &[(Value, Value)],
) -> (
    BTreeSet<(Value, Value)>,
    BTreeSet<(Value, Value)>,
    BTreeSet<(Value, Value)>,
) {
    let mut vf: HashSet<(Value, Value)> = HashSet::new();
    let mut va: HashSet<(Value, Value)> = HashSet::new();
    let mut ma: HashSet<(Value, Value)> = HashSet::new();
    for &(y, x) in assign {
        vf.insert((y, x));
        vf.insert((x, x));
        vf.insert((y, y));
        ma.insert((x, x));
        ma.insert((y, y));
    }
    loop {
        let mut changed = false;
        let vf_now: Vec<_> = vf.iter().copied().collect();
        let ma_now: Vec<_> = ma.iter().copied().collect();
        let va_now: Vec<_> = va.iter().copied().collect();
        for &(x, z) in assign {
            for &(mz, y) in &ma_now {
                if mz == z && vf.insert((x, y)) {
                    changed = true;
                }
            }
        }
        for &(x, z) in &vf_now {
            for &(z2, y) in &vf_now {
                if z == z2 && vf.insert((x, y)) {
                    changed = true;
                }
            }
        }
        for &(y, x) in deref {
            for &(y2, z) in &va_now {
                if y2 == y {
                    for &(z2, w) in deref {
                        if z2 == z && ma.insert((x, w)) {
                            changed = true;
                        }
                    }
                }
            }
        }
        for &(z, x) in &vf_now {
            for &(z2, y) in &vf_now {
                if z == z2 && va.insert((x, y)) {
                    changed = true;
                }
            }
        }
        for &(z, x) in &vf_now {
            for &(z2, w) in &ma_now {
                if z == z2 {
                    for &(w2, y) in &vf_now {
                        if w2 == w && va.insert((x, y)) {
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    (
        vf.into_iter().collect(),
        va.into_iter().collect(),
        ma.into_iter().collect(),
    )
}

#[test]
fn cspa_mutual_recursion_matches_naive_fixpoint() {
    let mut rnd = lcg(57);
    let n = 12u64;
    let assign: Vec<(Value, Value)> = (0..10)
        .map(|_| ((rnd() % n) as Value, (rnd() % n) as Value))
        .collect();
    let deref: Vec<(Value, Value)> = (0..10)
        .map(|_| ((rnd() % n) as Value, (rnd() % n) as Value))
        .collect();
    let (vf, va, ma) = cspa_oracle(&assign, &deref);
    let mut db = Database::new().unwrap();
    db.load_edges("assign", &assign).unwrap();
    db.load_edges("dereference", &deref).unwrap();
    engine(Config::default())
        .prepare(recstep::programs::CSPA)
        .unwrap()
        .run(&mut db)
        .unwrap();
    assert_eq!(rel_pairs(&db, "valueFlow"), vf);
    assert_eq!(rel_pairs(&db, "valueAlias"), va);
    assert_eq!(rel_pairs(&db, "memoryAlias"), ma);
}

#[test]
fn csda_long_chain_iterates_deeply() {
    // Chain graph: null flows down ~200 arc steps.
    let len = 200;
    let arc: Vec<(Value, Value)> = (0..len).map(|i| (i as Value, (i + 1) as Value)).collect();
    // PBME off: the point of CSDA is exercising the per-iteration tuple
    // path (the pattern is TC-shaped, so Auto mode would take over).
    let mut db = Database::new().unwrap();
    db.load_edges("arc", &arc).unwrap();
    db.load_edges("nullEdge", &[(0, 0)]).unwrap();
    let stats = engine(Config::default().pbme(PbmeMode::Off))
        .prepare(recstep::programs::CSDA)
        .unwrap()
        .run(&mut db)
        .unwrap();
    assert_eq!(db.row_count("null"), len + 1);
    assert!(
        stats.iterations > len,
        "chain must drive ~one iteration per hop"
    );
}

#[test]
fn every_ablation_config_produces_identical_results() {
    let edges = random_edges(24, 70, 91);
    let reference = {
        let (db, _) = run_on_edges(
            Config::default().pbme(PbmeMode::Off),
            &edges,
            recstep::programs::TC,
        );
        rel_pairs(&db, "tc")
    };
    let configs: Vec<(&str, Config)> = vec![
        ("no-uie", Config::default().uie(false).pbme(PbmeMode::Off)),
        (
            "oof-na",
            Config::default().oof(OofMode::None).pbme(PbmeMode::Off),
        ),
        (
            "oof-fa",
            Config::default().oof(OofMode::Full).pbme(PbmeMode::Off),
        ),
        (
            "opsd",
            Config::default()
                .setdiff(SetDiffStrategy::AlwaysOpsd)
                .pbme(PbmeMode::Off),
        ),
        (
            "tpsd",
            Config::default()
                .setdiff(SetDiffStrategy::AlwaysTpsd)
                .pbme(PbmeMode::Off),
        ),
        ("no-eost", Config::default().eost(false).pbme(PbmeMode::Off)),
        (
            "generic-dedup",
            Config::default()
                .dedup(DedupImpl::Generic)
                .pbme(PbmeMode::Off),
        ),
        ("no-op", Config::no_op()),
        ("pbme", Config::default().pbme(PbmeMode::Force)),
    ];
    for (name, cfg) in configs {
        let (db, _) = run_on_edges(cfg, &edges, recstep::programs::TC);
        assert_eq!(rel_pairs(&db, "tc"), reference, "config {name}");
    }
}

#[test]
fn inline_facts_work() {
    let mut db = Database::new().unwrap();
    let stats = engine(Config::default())
        .prepare(
            "arc(1, 2). arc(2, 3).\n\
             tc(x, y) :- arc(x, y).\n\
             tc(x, y) :- tc(x, z), arc(z, y).",
        )
        .unwrap()
        .run(&mut db)
        .unwrap();
    assert_eq!(
        rel_pairs(&db, "tc"),
        BTreeSet::from([(1, 2), (2, 3), (1, 3)])
    );
    assert!(stats.queries_issued > 0);
}

#[test]
fn rerun_is_idempotent() {
    let edges = random_edges(15, 40, 1);
    let tc = engine(Config::default())
        .prepare(recstep::programs::TC)
        .unwrap();
    let mut db = Database::new().unwrap();
    db.load_edges("arc", &edges).unwrap();
    tc.run(&mut db).unwrap();
    let first = rel_pairs(&db, "tc");
    tc.run(&mut db).unwrap();
    assert_eq!(rel_pairs(&db, "tc"), first);
}

#[test]
fn memory_budget_reports_oom() {
    let edges = random_edges(200, 2000, 5);
    let e = Engine::from_config(
        Config::default()
            .threads(2)
            .pbme(PbmeMode::Off)
            .mem_budget(64 * 1024),
    )
    .unwrap();
    let mut db = Database::new().unwrap();
    db.load_edges("arc", &edges).unwrap();
    let err = e
        .prepare(recstep::programs::TC)
        .unwrap()
        .run(&mut db)
        .unwrap_err();
    assert!(err.to_string().contains("out of memory"), "{err}");
}

#[test]
fn eost_defers_io_relative_to_per_query() {
    let edges = random_edges(30, 100, 8);
    let run = |eost: bool| {
        let (db, stats) = run_on_edges(
            Config::default().eost(eost).pbme(PbmeMode::Off),
            &edges,
            recstep::programs::TC,
        );
        (stats.io_flushes, stats.io_bytes, rel_pairs(&db, "tc"))
    };
    let (eost_flushes, _, eost_result) = run(true);
    let (pq_flushes, pq_bytes, pq_result) = run(false);
    assert_eq!(eost_result, pq_result);
    assert!(
        pq_flushes > eost_flushes,
        "per-query commit must flush more often ({pq_flushes} vs {eost_flushes})"
    );
    assert!(pq_bytes > 0);
}

#[test]
fn io_counters_describe_each_run_not_the_database_lifetime() {
    // TC over a 4-arc chain derives 10 pairs = 160 bytes. EOST flushes
    // `tc` once at fixpoint; per-query mode also flushes every temporary
    // and every append. Re-running over the same database must report the
    // same run, not a running total or nothing.
    let chain: Vec<(Value, Value)> = (0..4).map(|i| (i, i + 1)).collect();
    for (eost, expected) in [(true, (160, 1)), (false, (544, 13))] {
        let mut db = Database::new().unwrap();
        db.load_edges("arc", &chain).unwrap();
        let tc = engine(Config::default().eost(eost).pbme(PbmeMode::Off))
            .prepare(recstep::programs::TC)
            .unwrap();
        for run in 0..3 {
            let stats = tc.run(&mut db).unwrap();
            assert_eq!(
                (stats.io_bytes, stats.io_flushes),
                expected,
                "eost={eost} run {run}"
            );
            assert_eq!(db.row_count("tc"), 10);
        }
    }
}

#[test]
fn dsd_switches_algorithms_during_tc() {
    // A long chain makes |R| grow while |Rδ| stays small → β grows and DSD
    // must eventually pick TPSD; OPSD runs at least once at the start.
    // DSD only runs on the rebuild path: with index reuse the fused pass
    // replaces set difference outright, so turn reuse off here.
    let chain: Vec<(Value, Value)> = (0..120).map(|i| (i, i + 1)).collect();
    let (_, stats) = run_on_edges(
        Config::default()
            .setdiff(SetDiffStrategy::Dynamic)
            .index_reuse(false)
            .pbme(PbmeMode::Off),
        &chain,
        recstep::programs::TC,
    );
    assert!(stats.tpsd_runs > 0, "β growth must trigger TPSD");
    assert!(stats.opsd_runs > 0, "early iterations must use OPSD");
}

#[test]
fn stats_account_iterations_and_phases() {
    let edges = random_edges(20, 60, 4);
    let (_, stats) = run_on_edges(
        Config::default().pbme(PbmeMode::Off),
        &edges,
        recstep::programs::TC,
    );
    assert!(stats.iterations >= 2);
    assert_eq!(stats.strata.len(), 2);
    assert!(stats.total.as_nanos() > 0);
    assert!(stats.tuples_considered > 0);
    // Default config streams: all rule evaluation + dedup + set difference
    // lands in the fused pipeline phase and Rt is never merged.
    assert!(stats.phase.pipeline.as_nanos() > 0);
    assert!(stats.pipeline_runs > 0);
    assert_eq!(stats.rt_merge_bytes, 0);
    // The materializing path still reports its own phases.
    let (_, unfused) = run_on_edges(
        Config::default().fused_pipeline(false).pbme(PbmeMode::Off),
        &random_edges(20, 60, 4),
        recstep::programs::TC,
    );
    assert!(unfused.phase.eval.as_nanos() > 0);
    assert!(unfused.phase.dedup.as_nanos() > 0);
    assert_eq!(unfused.phase.pipeline.as_nanos(), 0);
    assert!(unfused.rt_merge_bytes > 0);
}

#[test]
fn unknown_relation_in_program_is_created_empty() {
    // `arc` never loaded: program runs over an empty EDB.
    let mut db = Database::new().unwrap();
    engine(Config::default())
        .prepare(recstep::programs::TC)
        .unwrap()
        .run(&mut db)
        .unwrap();
    assert_eq!(db.row_count("tc"), 0);
}

#[test]
fn arity_conflict_is_an_error() {
    let mut db = Database::new().unwrap();
    db.load_relation("arc", 3, &[vec![1, 2, 3]]).unwrap();
    let prepared = engine(Config::default())
        .prepare(recstep::programs::TC)
        .unwrap();
    assert!(prepared.run(&mut db).is_err());
}

#[test]
fn explain_renders_sql_per_stratum() {
    let e = engine(Config::default());
    let sql = e.prepare(recstep::programs::TC).unwrap().explain_sql();
    assert!(sql.contains("-- stratum 0 (non-recursive)"), "{sql}");
    assert!(sql.contains("-- stratum 1 (recursive)"), "{sql}");
    assert!(sql.contains("INSERT INTO tc_mDelta"), "{sql}");
    assert!(sql.contains("tc_mDelta AS t0"), "{sql}");
    assert!(e.prepare("r(x, y) :- r(x, x).").is_err()); // unsafe head var
}

#[test]
fn symbolic_loading_roundtrips_through_dictionary() {
    let mut dict = recstep_common::dict::Dictionary::new();
    let mut db = Database::new().unwrap();
    db.load_symbolic_edges(
        "arc",
        &mut dict,
        &[("paris", "lyon"), ("lyon", "nice"), ("nice", "rome")],
    )
    .unwrap();
    engine(Config::default())
        .prepare(recstep::programs::TC)
        .unwrap()
        .run(&mut db)
        .unwrap();
    let tc = db.relation("tc").unwrap();
    let paris = dict.get("paris").unwrap();
    let rome = dict.get("rome").unwrap();
    assert!(tc.as_pairs().unwrap().contains(&(paris, rome)));
    assert_eq!(dict.resolve(paris), Some("paris"));
    assert_eq!(dict.len(), 4);
}

/// PBME writes its closure back row-major — `(x, y)` order for TC and SG,
/// `(y, x)` for the mirrored TC rule, whose matrix is the transpose — and
/// hands the relation exact column statistics. Checked at one and four
/// threads over enough vertices for several row morsels and fill blocks.
#[test]
fn pbme_results_are_row_major_with_exact_column_stats() {
    let n = 200u64;
    let mirrored = "tc(x, y) :- arc(x, y).\ntc(x, y) :- arc(x, z), tc(z, y).";
    let cases = [
        ("tc", recstep::programs::TC, random_edges(n, 260, 21), false),
        ("tc", mirrored, random_edges(n, 260, 22), true),
        ("sg", recstep::programs::SG, random_edges(n, 220, 23), false),
    ];
    for (rel, src, edges, by_y) in &cases {
        let (reference, _) = run_on_edges(Config::default().pbme(PbmeMode::Off), edges, src);
        let expect = rel_pairs(&reference, rel);
        assert!(expect.len() > 2 * n as usize, "{rel}: too small to test");
        for threads in [1, 4] {
            let mut db = Database::new().unwrap();
            db.load_edges("arc", edges).unwrap();
            let cfg = Config::default().pbme(PbmeMode::Force).threads(threads);
            let stats = Engine::from_config(cfg)
                .unwrap()
                .prepare(src)
                .unwrap()
                .run(&mut db)
                .unwrap();
            assert!(stats.strata.iter().any(|s| s.pbme), "PBME must have run");
            let handle = db.relation(rel).unwrap();
            let pairs = handle.as_pairs().unwrap();
            let key = |&(x, y): &(Value, Value)| if *by_y { (y, x) } else { (x, y) };
            assert!(
                pairs.windows(2).all(|w| key(&w[0]) < key(&w[1])),
                "{rel} by_y={by_y} x{threads}: not in row-major order"
            );
            assert_eq!(pairs.iter().copied().collect::<BTreeSet<_>>(), expect);
            let view = handle.view();
            for c in 0..2 {
                let col = handle.col(c);
                let (min, max) = (*col.iter().min().unwrap(), *col.iter().max().unwrap());
                let sum = col.iter().fold(0 as Value, |s, &v| s.wrapping_add(v));
                let agg = view
                    .cached_agg(c)
                    .expect("stored relations keep aggregates");
                assert_eq!(
                    (agg.min, agg.max, agg.sum),
                    (min, max, sum),
                    "{rel} col {c}"
                );
                assert_eq!(view.cached_bounds(c), Some((min, max)), "{rel} col {c}");
            }
        }
    }
}

/// Derived values past a relation's packed key layout escape the fused
/// sink's compact keys; escapes that duplicate each other are deduped
/// after the pass and must still count as skipped, so every considered
/// tuple is either kept or skipped at source.
#[test]
fn escaped_duplicates_count_as_skipped_at_source() {
    let far: Value = 1 << 40;
    for threads in [1, 2] {
        let mut db = Database::new().unwrap();
        db.load_edges("a", &[(0, 1), (0, 2)]).unwrap();
        db.load_edges("b", &[(1, far), (2, far)]).unwrap();
        let cfg = Config::default().pbme(PbmeMode::Off).threads(threads);
        let stats = Engine::from_config(cfg)
            .unwrap()
            .prepare("r(x, y) :- a(x, y).\nr(x, y) :- r(x, z), b(z, y).")
            .unwrap()
            .run(&mut db)
            .unwrap();
        let rows = db.row_count("r");
        let skipped = stats.rt_rows_skipped_at_source;
        assert_eq!(rows, 3, "x{threads}");
        assert_eq!(stats.tuples_considered, rows + skipped, "x{threads}");
        assert_eq!(skipped, 1, "x{threads}");
        assert_eq!(
            stats.rt_bytes_never_materialized,
            skipped * 2 * 8,
            "x{threads}"
        );
    }
}

/// Multi-atom bodies, whose non-final joins the default engine dedups on
/// their live columns: each program must derive the same rows under the
/// default configuration, under `Config::no_op()` (UNION-ALL
/// intermediates throughout) and under the naïve tuple-at-a-time oracle.
const CHAIN_PROGRAMS: [(&str, &str); 8] = [
    ("chain3", "r(x, y) :- a(x, z), b(z, w), c(w, y)."),
    (
        "chain4_recursive",
        "p(x, y) :- a(x, y).\n\
         p(x, y) :- p(x, z), b(z, w), c(w, v), p(v, y).",
    ),
    (
        "middle_residual",
        "r(x, y) :- a(x, z), b(z, w), c(w, y), x != w.",
    ),
    (
        "middle_negation",
        "n(x) :- c(x, x).\n\
         r(x, y) :- a(x, z), b(z, w), c(w, v), a(v, y), !n(w).",
    ),
    (
        "middle_arithmetic",
        "r(x + w, y) :- a(x, z), b(z, w), c(w, y).",
    ),
    (
        "middle_constant_and_repeat",
        "r(x, y) :- a(x, z), t(z, 3, w, w), c(w, y).",
    ),
    ("cspa", recstep::programs::CSPA),
    ("andersen", recstep::programs::ANDERSEN),
];

#[test]
fn multi_atom_bodies_agree_with_no_op_and_naive() {
    for seed in 1..=4u64 {
        let mut rnd = lcg(seed * 7919);
        let n = 10u64;
        let mut binary = |m: usize| -> Vec<Vec<Value>> {
            (0..m)
                .map(|_| vec![(rnd() % n) as Value, (rnd() % n) as Value])
                .collect()
        };
        let mut inputs: Vec<(&str, Vec<Vec<Value>>)> = [
            "a",
            "b",
            "c",
            "assign",
            "dereference",
            "addressOf",
            "load",
            "store",
        ]
        .into_iter()
        .map(|name| (name, binary(24)))
        .collect();
        let mut rnd = lcg(seed * 104_729);
        let t: Vec<Vec<Value>> = (0..150)
            .map(|_| (0..4).map(|_| (rnd() % 5) as Value).collect())
            .collect();
        inputs.push(("t", t));

        for (name, src) in CHAIN_PROGRAMS {
            let mut oracle = recstep_baselines::naive::NaiveEngine::new();
            for (rel, rows) in &inputs {
                oracle.load(rel, rows.iter().cloned());
            }
            oracle.run_source(src).unwrap();
            let mut deduped = 0;
            for (arm, cfg) in [("default", Config::default()), ("no_op", Config::no_op())] {
                let mut db = Database::new().unwrap();
                let mut tx = db.transaction();
                for (rel, rows) in &inputs {
                    let arity = rows[0].len();
                    tx.load_rows(rel, arity, rows.iter().map(Vec::as_slice))
                        .unwrap();
                }
                tx.commit().unwrap();
                let prog = engine(cfg).prepare(src).unwrap();
                let stats = prog.run(&mut db).unwrap();
                for idb in prog.compiled().idb_names() {
                    let got: BTreeSet<Vec<Value>> = db
                        .relation(idb)
                        .map(|h| h.iter_rows().map(|r| r.to_vec()).collect())
                        .unwrap_or_default();
                    let want: BTreeSet<Vec<Value>> = oracle.rows(idb).cloned().unwrap_or_default();
                    assert_eq!(got, want, "{name} / {arm} / seed {seed}: {idb} differs");
                }
                assert!(stats.intermediate_rows_kept <= stats.intermediate_rows_offered);
                if arm == "no_op" {
                    assert_eq!(stats.intermediate_rows_offered, 0, "{name}: no_op dedups");
                } else {
                    deduped += stats.intermediate_rows_offered;
                }
            }
            assert!(
                deduped > 0,
                "{name} / seed {seed}: no chain stage was deduped"
            );
        }
    }
}
