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

/// Planted strongly connected components: cycles of 70, 5, 2 and 1
/// vertices (the 1-cycle a self-loop), a trivial vertex, and a 20-vertex
/// tail chain, bridged into a DAG with a diamond. Returns the edges, the
/// vertex count and the number of components.
fn planted_scc_edges() -> (Vec<(Value, Value)>, usize, usize) {
    let mut edges = Vec::new();
    let mut cycle = |start: Value, len: Value| {
        for i in 0..len {
            edges.push((start + i, start + (i + 1) % len));
        }
    };
    // 0..70, 70..75, 75..77, and a self-loop on 77.
    cycle(0, 70);
    cycle(70, 5);
    cycle(75, 2);
    cycle(77, 1);
    // 78 is trivial; 79..99 is the tail chain.
    for v in 79..98 {
        edges.push((v, v + 1));
    }
    // Diamond 0..70 → {70..75, 75..77} → 77, then 77 → 78 → tail.
    edges.extend([(3, 71), (40, 76), (72, 77), (75, 77), (77, 78), (78, 79)]);
    // A bridge into the middle of the tail.
    edges.push((74, 90));
    (edges, 99, 4 + 1 + 20)
}

/// `(seeds ∪ edges) ∘ edges*` (or `edges* ∘ (seeds ∪ edges)` when
/// `mirrored`): the TC of `edges` with `seeds` pre-loaded into `tc`.
fn seeded_tc_oracle(
    n: usize,
    seeds: &[(Value, Value)],
    edges: &[(Value, Value)],
    mirrored: bool,
) -> BTreeSet<(Value, Value)> {
    let tc = tc_oracle(n, edges);
    let reaches = |a: Value, b: Value| a == b || tc.contains(&(a, b));
    let mut out = BTreeSet::new();
    for &(s, t) in seeds.iter().chain(edges) {
        for v in 0..n as Value {
            if !mirrored && reaches(t, v) {
                out.insert((s, v));
            }
            if mirrored && reaches(v, s) {
                out.insert((v, t));
            }
        }
    }
    out
}

#[test]
fn pbme_closes_planted_components_like_the_tuple_path() {
    let (edges, n, components) = planted_scc_edges();
    let mirrored = "tc(x, y) :- arc(x, y).\ntc(x, y) :- arc(x, z), tc(z, y).";
    // Seeds outside `arc`: from the tail's sink into the 5-cycle, from
    // the big cycle onto the sink, from the trivial vertex into the middle
    // of the big cycle, and a self-seed on the sink.
    let seeds: Vec<(Value, Value)> = vec![(98, 72), (5, 98), (78, 35), (98, 98)];
    for (what, rules, is_mirrored) in [
        ("tc", recstep::programs::TC, false),
        ("mirrored", mirrored, true),
    ] {
        for preload in [&[][..], &seeds[..]] {
            let expect = seeded_tc_oracle(n, preload, &edges, is_mirrored);
            if preload.is_empty() {
                assert_eq!(expect, tc_oracle(n, &edges), "{what}");
            }
            // Pre-loaded `tc` rows are inline facts of the program.
            let facts: String = preload
                .iter()
                .map(|(s, t)| format!("tc({s}, {t}).\n"))
                .collect();
            let src = format!("{facts}{rules}");
            let run = |pbme| run_on_edges(Config::default().pbme(pbme), &edges, &src);
            let (tuples, off) = run(PbmeMode::Off);
            let (bits, force) = run(PbmeMode::Force);
            let label = format!("{what}, {} seeds", preload.len());
            assert_eq!(rel_pairs(&tuples, "tc"), expect, "{label}: tuple path");
            assert_eq!(rel_pairs(&bits, "tc"), expect, "{label}: PBME");
            assert!(
                force.strata.iter().any(|s| s.pbme),
                "{label}: PBME must have run"
            );
            assert_eq!(force.pbme_components, components, "{label}");
            assert_eq!(off.pbme_components, 0, "{label}");
        }
    }
}

/// Mirrored TC: the recursive IDB composed on the right of `arc`.
const MIRRORED_TC: &str = "tc(x, y) :- arc(x, y).\ntc(x, y) :- arc(x, z), tc(z, y).";

/// The `u64` words of an `n`-vertex PBME matrix.
fn matrix_words(n: usize) -> usize {
    n * n.div_ceil(64)
}

/// An order-free hash of one pair, summed into a relation's fingerprint.
fn mix((x, y): (Value, Value)) -> u64 {
    (x as u64 ^ (y as u64).rotate_left(32)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// A relation's row count and an order-free fingerprint of its pairs.
fn fingerprint(db: &Database, name: &str) -> (usize, u64) {
    let pairs = db.relation(name).unwrap().as_pairs().unwrap();
    let sum = pairs.iter().fold(0u64, |s, &p| s.wrapping_add(mix(p)));
    (pairs.len(), sum)
}

/// [`fingerprint`] of the transitive closure of `edges` over `0..n`, by
/// one breadth-first search per vertex.
fn tc_fingerprint(n: usize, edges: &[(Value, Value)]) -> (usize, u64) {
    let mut out = vec![Vec::new(); n];
    for &(a, b) in edges {
        out[a as usize].push(b as usize);
    }
    let (mut rows, mut sum) = (0, 0u64);
    let mut seen = vec![usize::MAX; n];
    for s in 0..n {
        let mut queue: Vec<usize> = Vec::new();
        for &t in &out[s] {
            if seen[t] != s {
                seen[t] = s;
                queue.push(t);
            }
        }
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            for &t in &out[v] {
                if seen[t] != s {
                    seen[t] = s;
                    queue.push(t);
                }
            }
        }
        rows += queue.len();
        sum = queue.iter().fold(sum, |acc, &t| {
            acc.wrapping_add(mix((s as Value, t as Value)))
        });
    }
    (rows, sum)
}

/// A matching `2i → 2i+1` over 20 000 vertices: its 50 MB matrix fits the
/// default budget but holds 626 words per result row, so `Auto`'s cost
/// rule keeps TC and mirrored TC on the tuple path, and no matrix is
/// booked. `Force` skips the rule and still builds it.
#[test]
fn the_cost_rule_keeps_a_sparse_matching_on_the_tuple_path() {
    let n = 20_000;
    let edges: Vec<(Value, Value)> = (0..n as Value / 2).map(|i| (2 * i, 2 * i + 1)).collect();
    assert!(matrix_words(n) > 600 * edges.len());
    for src in [recstep::programs::TC, MIRRORED_TC] {
        let (tuples, _) = run_on_edges(Config::default().pbme(PbmeMode::Off), &edges, src);
        let expect = rel_pairs(&tuples, "tc");
        assert_eq!(expect, edges.iter().copied().collect());
        let (auto, stats) = run_on_edges(Config::default(), &edges, src);
        assert!(
            !stats.strata.iter().any(|s| s.pbme),
            "Auto built the matrix"
        );
        assert_eq!(stats.pbme_matrix_bytes, 0);
        assert_eq!(stats.pbme_components, 0);
        assert_eq!(rel_pairs(&auto, "tc"), expect);
        let (forced, stats) = run_on_edges(Config::default().pbme(PbmeMode::Force), &edges, src);
        assert!(
            stats.strata.iter().any(|s| s.pbme),
            "Force skipped the matrix"
        );
        assert!(stats.pbme_matrix_bytes >= matrix_words(n) * 8);
        assert_eq!(stats.pbme_components, n);
        assert_eq!(rel_pairs(&forced, "tc"), expect);
    }
}

/// Graphs with fewer edges than matrix words but closures many times
/// larger: a 3 001-vertex path (3 000 arcs, 141 047 words, 4.5 M rows)
/// and a 64×64 layered DAG (each vertex links to two of the next layer,
/// 8 064 arcs against 262 144 words). `Auto` takes PBME for plain and
/// mirrored TC alike, so the cost rule weighs the sampled closure, not
/// |E| alone.
#[test]
fn the_cost_rule_takes_pbme_for_large_closures_over_few_edges() {
    let path: Vec<(Value, Value)> = (0..3000).map(|i| (i, i + 1)).collect();
    let layered: Vec<(Value, Value)> = (0..63 * 64)
        .flat_map(|v| {
            let next = (v / 64 + 1) * 64;
            [(v, next + v % 64), (v, next + (v + 1) % 64)]
        })
        .collect();
    for (what, edges, n) in [("path", &path, 3001), ("layered", &layered, 4096)] {
        assert!(edges.len() < matrix_words(n), "{what}: |E| alone admits it");
        let expect = tc_fingerprint(n, edges);
        for src in [recstep::programs::TC, MIRRORED_TC] {
            let (bits, stats) = run_on_edges(Config::default(), edges, src);
            assert!(stats.strata.iter().any(|s| s.pbme), "{what}: Auto refused");
            // Acyclic: every vertex is its own component.
            assert_eq!(stats.pbme_components, n, "{what}");
            assert_eq!(fingerprint(&bits, "tc"), expect, "{what}");
        }
    }
    assert_eq!(tc_fingerprint(3001, &path).0, 3001 * 3000 / 2);
}

/// The sibling seeds and [`fingerprint`] of same generation over `edges`
/// on `0..n`: a breadth-first search over vertex pairs from the sibling
/// pairs, stepping `(a, b)` to every `(x, y)` with `a → x` and `b → y`.
fn sg_fingerprint(n: usize, edges: &[(Value, Value)]) -> (usize, (usize, u64)) {
    let mut out = vec![Vec::new(); n];
    for &(a, b) in edges {
        out[a as usize].push(b as usize);
    }
    let mut seen = vec![false; n * n];
    let mut queue = Vec::new();
    let mut visit = |x: usize, y: usize, queue: &mut Vec<(usize, usize)>| {
        if !seen[x * n + y] {
            seen[x * n + y] = true;
            queue.push((x, y));
        }
    };
    for kids in &out {
        for &x in kids {
            for &y in kids.iter().filter(|&&y| y != x) {
                visit(x, y, &mut queue);
            }
        }
    }
    let seeds = queue.len();
    let mut head = 0;
    while let Some(&(a, b)) = queue.get(head) {
        head += 1;
        for &x in &out[a] {
            for &y in &out[b] {
                visit(x, y, &mut queue);
            }
        }
    }
    let sum = queue.iter().fold(0u64, |s, &(x, y)| {
        s.wrapping_add(mix((x as Value, y as Value)))
    });
    (seeds, (queue.len(), sum))
}

/// Same generation over a G(1 000, 0.003)-shaped graph: its sibling
/// seeds and arcs together are fewer than the matrix's 16 000 words, yet
/// the result is many times larger. SG has no sampled estimate, so
/// `Auto` takes PBME on the fit rule alone, as the paper does; weighing
/// |seeds| + |E| refused this matrix.
#[test]
fn sg_takes_pbme_under_auto_on_a_sparse_random_graph() {
    let n = 1000;
    let edges: Vec<(Value, Value)> = random_edges(n as u64, 3000, 44)
        .into_iter()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let (seeds, expect) = sg_fingerprint(n, &edges);
    assert!(seeds + edges.len() < matrix_words(n), "{seeds} seeds");
    assert!(expect.0 > 10 * matrix_words(n), "{} rows", expect.0);
    let (bits, stats) = run_on_edges(Config::default(), &edges, recstep::programs::SG);
    assert!(stats.strata.iter().any(|s| s.pbme), "Auto refused");
    assert!(stats.pbme_matrix_bytes >= matrix_words(n) * 8);
    assert_eq!(fingerprint(&bits, "sg"), expect);
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

/// Two IDBs of one recursive stratum, each reading the other.
const MUTUAL: &str = "a(x, y) :- arc(x, y).\n\
                      a(x, y) :- b(x, z), arc(z, y).\n\
                      b(x, y) :- a(x, y).\n\
                      b(x, y) :- b(x, z), a(z, y).";

/// Every IDB of `src`, each config of the ablation table and the naive
/// evaluator agree on: TC (with an inline `tc` fact the exit pass hands
/// on with the exit rows), a two-rule union, a recursive IDB over the
/// union, mutual recursion, stratified negation over a two-rule `node`,
/// and CC with a second exit rule — the shapes whose exit and union rules
/// run in their IDB's one stratum.
#[test]
fn every_ablation_config_produces_identical_results() {
    const UNION: &str = "u(x, y) :- arc(x, y).\nu(x, y) :- arc(y, x).";
    let tc_fact = format!("tc(100, 0).\n{}", recstep::programs::TC);
    let over_union = format!("{UNION}\nr(x, y) :- u(x, y).\nr(x, y) :- r(x, z), u(z, y).");
    let cc_two_exits = format!("{}cc3(y, MIN(y)) :- arc(_, y).\n", recstep::programs::CC);
    let with_cc = |rule: &str| format!("{}{rule}\n", recstep::programs::CC);
    let cc_count = with_cc("outs(x, COUNT(x)) :- arc(x, _).");
    let programs: [(&str, &str); 6] = [
        ("tc+fact", &tc_fact),
        ("union", UNION),
        ("r over union", &over_union),
        ("mutual", MUTUAL),
        ("ntc", recstep::programs::NTC),
        ("cc+exit", &cc_two_exits),
    ];
    let off = || Config::default().pbme(PbmeMode::Off);
    let configs: Vec<(&str, Config)> = vec![
        ("default", Config::default()),
        ("no-pbme", off()),
        ("no-uie", off().uie(false)),
        ("oof-na", off().oof(OofMode::None)),
        ("oof-fa", off().oof(OofMode::Full)),
        ("opsd", off().setdiff(SetDiffStrategy::AlwaysOpsd)),
        ("tpsd", off().setdiff(SetDiffStrategy::AlwaysTpsd)),
        ("no-eost", off().eost(false)),
        ("generic-dedup", off().dedup(DedupImpl::Generic)),
        ("no-index-reuse", off().index_reuse(false)),
        ("no-fused-pipeline", off().fused_pipeline(false)),
        ("no-fused-agg", off().fused_agg(false)),
        ("no-wcoj", off().wcoj(false)),
        ("no-op", Config::no_op()),
        ("pbme", Config::default().pbme(PbmeMode::Force)),
    ];
    let edges = random_edges(24, 70, 91);
    for (prog_name, src) in programs {
        let idbs: Vec<String> = engine(Config::default())
            .prepare(src)
            .unwrap()
            .compiled()
            .idb_names()
            .map(String::from)
            .collect();
        let mut naive = recstep_baselines::naive::NaiveEngine::new();
        naive.load_edges("arc", &edges);
        naive.run_source(src).unwrap();
        for idb in &idbs {
            assert!(
                naive.row_count(idb) > 0,
                "{prog_name}: naive derives no '{idb}'"
            );
        }
        for (cfg_name, cfg) in &configs {
            let (db, _) = run_on_edges(cfg.clone(), &edges, src);
            for idb in &idbs {
                assert_eq!(
                    &sorted_idb_rows(&db, idb),
                    naive.rows(idb).unwrap(),
                    "{prog_name} / {cfg_name}: '{idb}' differs from naive"
                );
            }
        }
    }

    // An exit scan reads one row per key only off an index that costs it
    // nothing: no ∆ subquery builds `arc` on its target, so `cc+exit`'s
    // `arc(_, y)` scans every arc and builds no index.
    let stats = |src: &str| run_on_edges(off(), &edges, src).1;
    let cc = stats(recstep::programs::CC);
    assert_eq!(stats(&cc_two_exits).index.join_builds, cc.index.join_builds);
    // Once CC's stratum has built `arc` on its source, a set-semantic rule
    // reading only the source reads one row per source; a COUNT head
    // still reads every arc row, under every configuration.
    let extra = |src: &str| stats(src).tuples_considered - cc.tuples_considered;
    let sources: BTreeSet<Value> = edges.iter().map(|e| e.0).collect();
    assert_eq!(extra(&with_cc("srcs(x) :- arc(x, _).")), sources.len());
    assert_eq!(extra(&cc_count), edges.len());
    let mut degree: HashMap<Value, Value> = HashMap::new();
    for &(x, _) in &edges {
        *degree.entry(x).or_default() += 1;
    }
    let want: BTreeSet<Vec<Value>> = degree.into_iter().map(|(x, n)| vec![x, n]).collect();
    for (cfg_name, cfg) in &configs {
        let (db, _) = run_on_edges(cfg.clone(), &edges, &cc_count);
        assert_eq!(sorted_idb_rows(&db, "outs"), want, "cc+count / {cfg_name}");
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
    // PBME closes TC's one stratum from the exit rule's rows over the
    // inline arcs: no tuple query runs.
    assert_eq!(stats.strata.len(), 1);
    assert!(stats.strata[0].pbme);
    assert_eq!(stats.queries_issued, 0);
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
fn memory_budget_counts_what_a_chain_stage_keeps_between_passes() {
    // Wide ids (2^40 + i·2^32) fit no bit window, so the chain stage of
    // `r ⋈ a ⋈ b` dedups its k² distinct (x, z) pairs in a hashed table,
    // which it keeps for its next pass: about 36 bytes a pair, while
    // the relations hold 2k + 1 arcs and `r` reaches 2k rows.
    let k: Value = 300;
    let wide = |v: Value| (1 << 40) + v * (1 << 32);
    let arcs = |pairs: Vec<(Value, Value)>| -> Vec<(Value, Value)> {
        pairs.into_iter().map(|(a, b)| (wide(a), wide(b))).collect()
    };
    let chain = "r(x, y) :- e(x, y).\nr(x, w) :- r(x, y), a(y, z), b(z, w).";
    let direct = "r(x, y) :- e(x, y).\nr(x, w) :- r(x, y), b(y, w).";
    let run = |src: &str, budget: usize| {
        let mut db = Database::new().unwrap();
        db.load_edges("e", &arcs((0..k).map(|i| (1000 + i, 0)).collect()))
            .unwrap();
        db.load_edges("a", &arcs((0..k).map(|j| (0, 2000 + j)).collect()))
            .unwrap();
        db.load_edges("b", &arcs(vec![(2000, 5000), (0, 5000)]))
            .unwrap();
        let cfg = Config::default().pbme(PbmeMode::Off).mem_budget(budget);
        let stats = engine(cfg).prepare(src).unwrap().run(&mut db);
        stats.map(|s| (s, db.row_count("r")))
    };
    let (stats, rows) = run(chain, usize::MAX).unwrap();
    assert_eq!(rows, 2 * k as usize);
    assert_eq!(stats.intermediate_rows_kept, (k * k) as usize);
    // Above the stage's own output (four columns, 32 bytes a pair,
    // materialized within the pass) and everything else the run holds at
    // an iteration boundary — the program without the stage fits — but
    // below that plus the stage's kept table.
    let budget = 40 * (k * k) as usize;
    assert_eq!(run(direct, budget).unwrap().1, 2 * k as usize);
    let err = run(chain, budget).unwrap_err();
    assert!(err.to_string().contains("live >"), "{err}");
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
    // and every append: each of the four passes that derive rows its `Rt`,
    // its append and its ∆ (the exit pass drains its `Rt` through the
    // full-R sink like every later pass, with no separate `Rδ`, and the
    // fifth pass derives nothing). Re-running over the same
    // database must report the same run, not a running total or nothing.
    let chain: Vec<(Value, Value)> = (0..4).map(|i| (i, i + 1)).collect();
    for (eost, expected) in [(true, (160, 1)), (false, (480, 12))] {
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
    // TC is one stratum: its exit pass and every recursive pass.
    assert_eq!(stats.strata.len(), 1);
    assert_eq!(stats.strata[0].iterations, stats.iterations);
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
    // TC's exit rule and recursive rule are one stratum.
    assert!(sql.contains("-- stratum 0 (recursive)"), "{sql}");
    assert!(!sql.contains("-- stratum 1"), "{sql}");
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

fn sorted_idb_rows(db: &Database, idb: &str) -> BTreeSet<Vec<Value>> {
    db.relation(idb)
        .map(|h| h.iter_rows().map(|r| r.to_vec()).collect())
        .unwrap_or_default()
}

/// A full-R index is synced only before a probe reads it, so a stratum's
/// last merge is never appended, and no later stratum derives the same
/// relation. `triangle` is one non-recursive stratum: no append at all.
/// A two-rule union is one stratum too: both rules stream into one sink
/// in one pass, which dedups across them at source, so nothing is
/// appended either.
#[test]
fn only_probed_rows_reach_a_full_r_index() {
    const UNION: &str = "u(x, y) :- arc(x, y).\nu(x, y) :- arc(y, x).";
    let edges = random_edges(40, 400, 45);
    for (name, src, appends, rows) in [
        ("triangle", recstep::programs::TRIANGLE, 0, 0),
        ("u", UNION, 0, 0),
    ] {
        let (db, stats) = run_on_edges(Config::default(), &edges, src);
        let (want, _) = run_on_edges(Config::no_op(), &edges, src);
        let got = sorted_idb_rows(&db, name);
        assert!(!got.is_empty(), "{name}: derived nothing");
        assert_eq!(got, sorted_idb_rows(&want, name), "{name}: rows differ");
        assert_eq!(stats.index.full_appends, appends, "{name}: full appends");
        assert_eq!(stats.index.append_rows, rows, "{name}: appended rows");
    }
}

/// `publish_idb_indexes` publishes every IDB's result whether or not its
/// full-R index was synced after the last merge (TC's recursive stratum
/// syncs it, TRIANGLE's one pass never does), and a following program
/// that anti-joins the result probes the published index.
#[test]
fn published_results_serve_the_next_anti_join() {
    let edges = random_edges(30, 240, 46);
    for (name, src, probe) in [
        (
            "tc",
            recstep::programs::TC,
            "back(x, y) :- arc(x, y), !tc(y, x).",
        ),
        (
            "triangle",
            recstep::programs::TRIANGLE,
            "open(x, y, z) :- arc(x, y), arc(y, z), !triangle(x, y, z).",
        ),
    ] {
        let engine = engine(
            Config::default()
                .pbme(PbmeMode::Off)
                .publish_idb_indexes(true),
        );
        let mut db = Database::new().unwrap();
        db.load_edges("arc", &edges).unwrap();
        let stats = engine.prepare(src).unwrap().run(&mut db).unwrap();
        assert!(
            !sorted_idb_rows(&db, name).is_empty(),
            "{name}: derived nothing"
        );
        assert_eq!(stats.index.published, 1, "{name}: result not published");
        let next = engine.prepare(probe).unwrap().run(&mut db).unwrap();
        assert!(
            next.index.cache_hits >= 1,
            "{name}: the anti-join rebuilt the published index"
        );
    }
}

/// `hop` is derived by a lower stratum, then read by `r`'s recursive one.
const HOP: &str = "hop(x, y) :- arc(x, z), arc(z, y).";
const HOP_R: &str = "r(x, y) :- hop(x, y).\nr(x, y) :- r(x, z), hop(z, y).";

/// `idb` of `src` by the naive evaluator over `arc` = `edges`.
fn naive_rows(src: &str, edges: &[(Value, Value)], idb: &str) -> BTreeSet<Vec<Value>> {
    let mut naive = recstep_baselines::naive::NaiveEngine::new();
    naive.load_edges("arc", edges);
    naive.run_source(src).unwrap();
    naive.rows(idb).cloned().unwrap_or_default()
}

/// A finished lower-stratum IDB is frozen for every stratum that reads
/// it, exactly like an EDB: `r`'s recursive join builds on `hop`'s
/// key-ordered index and probes it with each ∆, so the derived program
/// books the `hop`-only program's probes plus those of the same `r` over
/// `hop` loaded as an EDB.
#[test]
fn a_lower_stratum_idb_is_probed_like_an_edb() {
    let edges = random_edges(60, 90, 47);
    let derived = format!("{HOP}\n{HOP_R}");
    let cfg = || Config::default().pbme(PbmeMode::Off);
    let (db, stats) = run_on_edges(cfg(), &edges, &derived);
    let rows = sorted_idb_rows(&db, "r");
    assert!(rows.len() > 100, "r derived only {} rows", rows.len());
    let (no_op, _) = run_on_edges(Config::no_op(), &edges, &derived);
    assert_eq!(rows, sorted_idb_rows(&no_op, "r"), "no_op differs");
    assert_eq!(rows, naive_rows(&derived, &edges, "r"), "naive differs");

    let (hop_db, hop_stats) = run_on_edges(cfg(), &edges, HOP);
    let hop = rel_pairs(&hop_db, "hop").into_iter().collect::<Vec<_>>();
    let mut edb = Database::new().unwrap();
    edb.load_edges("hop", &hop).unwrap();
    let edb_stats = engine(cfg()).prepare(HOP_R).unwrap().run(&mut edb).unwrap();
    assert_eq!(rows, sorted_idb_rows(&edb, "r"), "EDB hop differs");
    assert!(
        edb_stats.delta_probe_joins > 1,
        "r probes hop every iteration"
    );
    assert_eq!(
        stats.delta_probe_joins,
        hop_stats.delta_probe_joins + edb_stats.delta_probe_joins,
        "derived hop is probed unlike an EDB"
    );
}

/// Two exclusive runs over one database, with an `arc` insert between
/// them: each run's frozen indexes over IDBs it re-derived are keyed by
/// their new versions, so the shared cache serves neither a stale `hop`
/// to `r`'s join nor a stale `tc` to NTC's anti-join (whose `tc` PBME
/// clears and refills).
#[test]
fn rerun_after_an_insert_serves_no_stale_frozen_index() {
    let edges = random_edges(40, 70, 48);
    let extra = random_edges(40, 12, 49);
    let all: Vec<(Value, Value)> = edges.iter().chain(&extra).copied().collect();
    let derived = format!("{HOP}\n{HOP_R}");
    for (src, idb, pbme) in [
        (derived.as_str(), "r", PbmeMode::Off),
        (recstep::programs::NTC, "ntc", PbmeMode::Auto),
    ] {
        let prog = engine(Config::default().pbme(pbme)).prepare(src).unwrap();
        let mut db = Database::new().unwrap();
        db.load_edges("arc", &edges).unwrap();
        for (run, arcs) in [("first", &edges), ("second", &all)] {
            if run == "second" {
                db.load_edges("arc", &extra).unwrap();
            }
            let stats = prog.run(&mut db).unwrap();
            let want = naive_rows(src, arcs, idb);
            assert!(!want.is_empty(), "{idb}: derived nothing");
            assert_eq!(sorted_idb_rows(&db, idb), want, "{idb}: {run} run differs");
            assert!(stats.index.cache_misses >= 1, "{idb}: no shared index");
            if run == "second" {
                assert_eq!(stats.index.cache_hits, 0, "{idb}: a stale index was hit");
            }
            if pbme == PbmeMode::Auto {
                assert!(stats.strata.iter().any(|s| s.pbme), "PBME refills tc");
            }
        }
    }
}

/// The set sinks' bit windows are an access path, never a result: CSPA,
/// and TC with PBME off, run over one fact set and over the same set with
/// its odd ids shifted by 2^40, which spreads every packed key past any
/// window. Both runs must agree modulo the shift and with the naive
/// evaluator, consider the same candidates, and only the narrow run may
/// take a window.
#[test]
fn bit_windows_change_speed_never_results() {
    const SHIFT: Value = 1 << 40;
    let shift = |v: Value| if v % 2 == 1 { v + SHIFT } else { v };
    let unshift = |v: Value| if v >= SHIFT { v - SHIFT } else { v };
    let mut rnd = lcg(61);
    let mut pairs = |n: u64, m: usize| -> Vec<(Value, Value)> {
        (0..m)
            .map(|_| ((rnd() % n) as Value, (rnd() % n) as Value))
            .collect()
    };
    let cases = [
        (
            recstep::programs::CSPA,
            vec![("assign", pairs(30, 40)), ("dereference", pairs(30, 14))],
        ),
        (recstep::programs::TC, vec![("arc", pairs(60, 90))]),
    ];
    for (src, inputs) in cases {
        let mut runs = Vec::new();
        for wide in [false, true] {
            let mut db = Database::new().unwrap();
            let mut naive = recstep_baselines::naive::NaiveEngine::new();
            for (rel, edges) in &inputs {
                let edges: Vec<(Value, Value)> = edges
                    .iter()
                    .map(|&(a, b)| if wide { (shift(a), shift(b)) } else { (a, b) })
                    .collect();
                db.load_edges(rel, &edges).unwrap();
                naive.load_edges(rel, &edges);
            }
            naive.run_source(src).unwrap();
            let prog = engine(Config::default().pbme(PbmeMode::Off))
                .prepare(src)
                .unwrap();
            let stats = prog.run(&mut db).unwrap();
            let mut rows = BTreeSet::new();
            for idb in prog.compiled().idb_names() {
                let got = sorted_idb_rows(&db, idb);
                assert!(!got.is_empty(), "{idb} is empty");
                assert_eq!(
                    &got,
                    naive.rows(idb).unwrap(),
                    "{idb} (wide {wide}) differs from naive"
                );
                rows.extend(got.into_iter().map(|r| {
                    (
                        idb.to_string(),
                        r.into_iter().map(unshift).collect::<Vec<_>>(),
                    )
                }));
            }
            runs.push((rows, stats));
        }
        let (narrow, wide) = (&runs[0], &runs[1]);
        assert_eq!(narrow.0, wide.0, "results differ modulo the shift");
        assert_eq!(narrow.1.tuples_considered, wide.1.tuples_considered);
        assert!(narrow.1.sink_windows > 0, "the narrow run takes windows");
        assert_eq!(wide.1.sink_windows, 0, "no window spans 2^40");
    }
}
