//! Incremental view maintenance acceptance suite.
//!
//! Pinned claims:
//!
//! 1. **Differential correctness**: over random programs (DAG joins,
//!    linear/non-linear recursion, same-generation, recursive heads with
//!    non-recursive tails) and random insert/delete sequences, a standing
//!    [`MaterializedView`] equals a from-scratch `run_shared` after every
//!    commit (proptest; case count tunable via `RECSTEP_PROPTEST_CASES`
//!    for the CI fast mode) — and, under fixed commit scripts, for twelve
//!    more shapes that reach both maintenance strategies and, under
//!    deletions, both routes to the dead set: the closure matrix (the
//!    default config) and Backward/Forward (`PbmeMode::Off`).
//! 2. **Failure isolation**: a refresh that errors or panics (injected at
//!    the `view::refresh` failpoint, grammar
//!    `RECSTEP_FAILPOINTS="view::refresh=panic"`) never serves a
//!    half-maintained view — the core view poisons itself and rebuilds,
//!    and the service drops the entry and recreates from scratch.
//! 3. **Ablation**: `--no-incremental` restores the seed service
//!    semantics (recompile + rerun per version bump) exactly.
//! 4. **Throughput**: the `ivm.*` rows of `BENCH_pipeline.json` time
//!    incremental refresh against the scratch rerun; a ~1% insert delta
//!    on the ≥ 20-iteration TC workload must clear the `ivm.tc_insert`
//!    gate (`RECSTEP_SKIP_SPEEDUP_GATE=1` skips the assertion).
//! 5. **Observability**: the service's `/stats` `lifetime` object carries
//!    exactly the counter table's keys, with a view's maintenance counts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

use proptest::prelude::*;
use recstep::{Config, Database, EvalStats, MaterializedView, PbmeMode, ServeConfig, Value};
use recstep_bench::{assert_gate, ivm_ablations};
use recstep_common::fail;
use recstep_serve::client::{get, post};
use recstep_serve::json::Json;
use recstep_serve::Server;

/// Failpoints are process-global and the bench test below takes
/// wall-clock measurements, so every test in this binary serializes.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

const TC: &str = "tc(x, y) :- arc(x, y).\ntc(x, y) :- tc(x, z), arc(z, y).";

/// The differential program pool: one entry per maintenance shape.
/// `(source, base relations, derived relations)`.
const PROGRAMS: [(&str, &[&str], &[&str]); 6] = [
    // Linear recursion: seeded inserts, Backward/Forward deletes.
    (TC, &["arc"], &["tc"]),
    // Non-linear recursion: both body atoms read the IDB.
    (
        "p(x, y) :- arc(x, y).\np(x, y) :- p(x, z), p(z, y).",
        &["arc"],
        &["p"],
    ),
    // Same generation: repeated base scans plus an inequality filter.
    (
        "sg(x, y) :- arc(p, x), arc(p, y), x != y.\nsg(x, y) :- arc(a, x), sg(a, b), arc(b, y).",
        &["arc"],
        &["sg"],
    ),
    // Stratified DAG over two base relations: non-recursive strata with
    // a derived input (`g` reads `h`'s deltas).
    (
        "h(x, y) :- arc(x, z), brc(z, y).\ng(x, y) :- h(x, z), brc(z, y).",
        &["arc", "brc"],
        &["h", "g"],
    ),
    // Recursive cluster plus a non-recursive tail reading it.
    (
        "tc(x, y) :- arc(x, y).\ntc(x, y) :- tc(x, z), arc(z, y).\n\
         reach2(x, y) :- tc(x, z), arc(z, y).",
        &["arc"],
        &["tc", "reach2"],
    ),
    // Mutual recursion: two IDBs of one cluster prove each other.
    (MUTUAL, &["arc", "brc"], &["a", "b"]),
];

/// Two mutually recursive IDBs over two base relations.
const MUTUAL: &str = "a(x, y) :- arc(x, y).\nb(x, y) :- a(x, z), brc(z, y).\n\
                      a(x, y) :- b(x, z), arc(z, y).";

fn cases(default: u32) -> u32 {
    std::env::var("RECSTEP_PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn rows_sorted(out: &recstep::RunOutput, name: &str) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = out
        .relation(name)
        .map(|h| h.iter_rows().map(|r| r.to_vec()).collect())
        .unwrap_or_default();
    rows.sort();
    rows
}

/// Group `(rel, row)` pairs into the commit shape `/facts` hands a view.
fn group(
    rels: &[&str],
    picks: impl IntoIterator<Item = (usize, Vec<Value>)>,
) -> Vec<(String, Vec<Vec<Value>>)> {
    let mut by_rel: Vec<(String, Vec<Vec<Value>>)> =
        rels.iter().map(|r| (r.to_string(), Vec::new())).collect();
    for (pick, row) in picks {
        by_rel[pick % rels.len()].1.push(row);
    }
    by_rel.retain(|(_, rows)| !rows.is_empty());
    by_rel
}

fn apply_commit(
    db: &mut Database,
    inserts: &[(String, Vec<Vec<Value>>)],
    deletes: &[(String, Vec<Vec<Value>>)],
) {
    let mut tx = db.transaction();
    for (name, rows) in inserts {
        tx.load_rows(name, 2, rows.iter().map(Vec::as_slice))
            .unwrap();
    }
    for (name, rows) in deletes {
        tx.delete_rows(name, 2, rows.iter().map(Vec::as_slice))
            .unwrap();
    }
    tx.commit().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    /// After every random commit, the maintained view equals a
    /// from-scratch shared run — for every program shape in the pool.
    #[test]
    fn maintained_view_equals_scratch_after_every_commit(
        prog_idx in 0usize..PROGRAMS.len(),
        init in proptest::collection::vec((0usize..2, 0i64..10, 0i64..10), 0..25),
        steps in proptest::collection::vec(
            proptest::collection::vec(
                (any::<bool>(), 0usize..2, 0i64..10, 0i64..10),
                1..10,
            ),
            1..5,
        ),
    ) {
        let _serial = serial();
        let (src, rels, idbs) = PROGRAMS[prog_idx];
        let engine = recstep::Engine::builder().threads(1).build().unwrap();
        let prog = Arc::new(engine.prepare(src).unwrap());

        let mut db = Database::new().unwrap();
        {
            let mut tx = db.transaction();
            for (i, rel) in rels.iter().enumerate() {
                // Every base relation exists with at least one row, so
                // deletes against it and empty-relation edge cases both
                // have a home.
                let mut rows: Vec<Vec<Value>> = vec![vec![0, 1]];
                rows.extend(
                    init.iter()
                        .filter(|(pick, _, _)| pick % rels.len() == i)
                        .map(|&(_, a, b)| vec![a, b]),
                );
                tx.load_rows(rel, 2, rows.iter().map(Vec::as_slice)).unwrap();
            }
            tx.commit().unwrap();
        }

        let mut view = MaterializedView::create(Arc::clone(&prog), &db).unwrap();
        prop_assert!(view.incremental(), "pool programs are all maintainable");
        for step in &steps {
            let inserts = group(
                rels,
                step.iter()
                    .filter(|(is_ins, ..)| *is_ins)
                    .map(|&(_, pick, a, b)| (pick, vec![a, b])),
            );
            let deletes = group(
                rels,
                step.iter()
                    .filter(|(is_ins, ..)| !*is_ins)
                    .map(|&(_, pick, a, b)| (pick, vec![a, b])),
            );
            apply_commit(&mut db, &inserts, &deletes);
            view.refresh(&db, &inserts, &deletes).unwrap();

            let scratch = prog.run_shared(&db).unwrap();
            let out = view.output();
            for rel in idbs {
                prop_assert_eq!(
                    rows_sorted(&out, rel),
                    rows_sorted(&scratch, rel),
                    "program {} diverged on '{}' after {:?}",
                    prog_idx,
                    rel,
                    step
                );
            }
        }
        // The pool exercises real maintenance, not perpetual fallbacks.
        prop_assert_eq!(view.view_stats().view_fallbacks, 0);
    }
}

/// Maintenance shapes the proptest pool leaves out. `(source, base
/// relations, derived relations)`.
const SHAPES: [(&str, &[&str], &[&str]); 12] = [
    // One base atom at two body positions of a non-recursive rule.
    ("two(x, y) :- arc(x, z), arc(z, y).", &["arc"], &["two"]),
    // A three-atom non-recursive body.
    (
        "three(x, y) :- arc(x, a), brc(a, b), arc(b, y).",
        &["arc", "brc"],
        &["three"],
    ),
    // A non-recursive stratum reading a non-linear IDB twice.
    (
        "h(x, y) :- arc(x, y).\nh(x, y) :- h(x, z), h(z, y).\n\
         g(x, y) :- h(x, z), h(z, y), brc(y, x).",
        &["arc", "brc"],
        &["h", "g"],
    ),
    // A cluster whose non-recursive member joins two base relations.
    (
        "p(x, y) :- arc(x, z), brc(z, y).\np(x, y) :- p(x, z), arc(z, y).",
        &["arc", "brc"],
        &["p"],
    ),
    // A non-linear cluster with a two-base seed rule.
    (
        "p(x, y) :- arc(x, y), brc(x, y).\np(x, y) :- p(x, z), p(z, y), arc(z, y).",
        &["arc", "brc"],
        &["p"],
    ),
    // A TC cluster with a tail reading `tc` twice.
    (
        "tc(x, y) :- arc(x, y).\ntc(x, y) :- tc(x, z), arc(z, y).\n\
         t2(x, y) :- tc(x, z), tc(z, y).",
        &["arc"],
        &["tc", "t2"],
    ),
    // A cyclic (worst-case-optimal join) body in a non-recursive stratum.
    (
        "tri(x, y, z) :- arc(x, y), arc(y, z), arc(z, x).",
        &["arc"],
        &["tri"],
    ),
    // A cyclic body in a recursive stratum.
    (
        "r(x, y) :- arc(x, y).\nr(x, z) :- r(x, y), arc(y, z), brc(z, x).",
        &["arc", "brc"],
        &["r"],
    ),
    // Same generation with a cyclic tail.
    (
        "sg(x, y) :- arc(p, x), arc(p, y), x != y.\nsg(x, y) :- arc(a, x), sg(a, b), arc(b, y).\n\
         cyc(x, y) :- sg(x, y), arc(y, z), brc(z, x).",
        &["arc", "brc"],
        &["sg", "cyc"],
    ),
    // Mutual recursion: one cluster, two IDBs.
    (MUTUAL, &["arc", "brc"], &["a", "b"]),
    // Two non-recursive rules, two strata, one IDB: maintained as one unit.
    (
        "u(x, y) :- arc(x, y).\nu(x, y) :- arc(x, z), brc(z, y).",
        &["arc", "brc"],
        &["u"],
    ),
    // Mirrored TC: the closure runs on the transposed graph.
    (MIRRORED_TC, &["arc"], &["tc"]),
];

/// TC by left composition.
const MIRRORED_TC: &str = "tc(x, y) :- arc(x, y).\ntc(x, y) :- arc(x, z), tc(z, y).";

/// A fixed linear congruential generator for the commit scripts.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }

    /// `count` `(relation pick, row)` pairs over the domain `0..7`.
    fn rows(&mut self, count: usize) -> Vec<(usize, Vec<Value>)> {
        (0..count)
            .map(|_| {
                (
                    self.below(8),
                    vec![self.below(7) as Value, self.below(7) as Value],
                )
            })
            .collect()
    }
}

/// Fixed commit scripts over a 7-value domain: after every commit of
/// mixed inserts and deletes, each shape's view equals a from-scratch
/// run, at one and two threads, under the default config and under
/// `PbmeMode::Off`. The scripts reach both maintenance strategies, and
/// under deletions the closure-matrix route by default and never without
/// PBME.
#[test]
fn maintenance_shapes_equal_scratch_after_fixed_commits() {
    let _serial = serial();
    for pbme in [PbmeMode::Auto, PbmeMode::Off] {
        let counts = shapes_under(Config::default().pbme(pbme));
        let (seeded, bf, matrix) = counts;
        assert!(seeded > 0 && bf > 0, "{pbme:?}: {counts:?}");
        assert_eq!(matrix > 0, pbme != PbmeMode::Off, "{pbme:?}: {counts:?}");
    }
}

/// Run every shape's script under `cfg` at one and two threads; returns
/// the seeded, Backward/Forward and matrix strata counted.
fn shapes_under(cfg: Config) -> (u64, u64, u64) {
    let (mut seeded, mut bf, mut matrix) = (0, 0, 0);
    for threads in [1, 2] {
        let engine = recstep::Engine::from_config(cfg.clone().threads(threads)).unwrap();
        for (si, &(src, rels, idbs)) in SHAPES.iter().enumerate() {
            let mut rng = Lcg(0x9e37_79b9_7f4a_7c15 ^ si as u64);
            let prog = Arc::new(engine.prepare(src).unwrap());
            let mut db = Database::new().unwrap();
            // Every base relation starts non-empty; deletes pick loaded
            // rows, so most of them take effect.
            let mut loaded: Vec<(usize, Vec<Value>)> =
                (0..rels.len()).map(|i| (i, vec![0, 1])).collect();
            loaded.extend(rng.rows(14));
            apply_commit(&mut db, &group(rels, loaded.clone()), &[]);
            let mut view = MaterializedView::create(Arc::clone(&prog), &db).unwrap();
            assert!(view.incremental(), "shape {si} is maintainable");
            for commit in 0..5 {
                let (n_ins, n_del) = (1 + rng.below(3), rng.below(3));
                let ins = rng.rows(n_ins);
                let del: Vec<_> = (0..n_del)
                    .map(|_| loaded[rng.below(loaded.len())].clone())
                    .collect();
                loaded.extend(ins.iter().cloned());
                let (inserts, deletes) = (group(rels, ins), group(rels, del));
                apply_commit(&mut db, &inserts, &deletes);
                view.refresh(&db, &inserts, &deletes).unwrap();
                let v = &view.stats().view;
                seeded += v.view_seeded_strata;
                bf += v.view_bf_strata;
                matrix += v.view_matrix_strata;
                let scratch = prog.run_shared(&db).unwrap();
                let out = view.output();
                for rel in idbs {
                    assert_eq!(
                        rows_sorted(&out, rel),
                        rows_sorted(&scratch, rel),
                        "shape {si} at {threads} threads diverged on '{rel}' after commit \
                         {commit} (+{inserts:?} -{deletes:?})"
                    );
                }
            }
            assert_eq!(view.view_stats().view_fallbacks, 0, "shape {si}");
        }
    }
    (seeded, bf, matrix)
}

/// The closure-matrix route on every shape it takes: mirrored TC, SG
/// with an inequality in its exit rule and a tail reading it, and a TC
/// whose exit rule joins `arc` with `brc`, losing rows from either. Each
/// delete reads its dead set off the matrix, and the view equals scratch
/// after every commit, at one and two threads.
#[test]
fn matrix_route_shapes_equal_scratch() {
    let _serial = serial();
    type Rows<'a> = &'a [(&'a str, (Value, Value))];
    let batch = |rows: Rows<'_>| {
        let mut by_rel: Vec<(String, Vec<Vec<Value>>)> = Vec::new();
        for &(rel, (a, b)) in rows {
            by_rel.push((rel.to_string(), vec![vec![a, b]]));
        }
        by_rel
    };
    let start: Rows<'_> = &[
        ("arc", (0, 1)),
        ("arc", (1, 2)),
        ("arc", (2, 0)),
        ("arc", (2, 3)),
        ("arc", (3, 4)),
        ("arc", (4, 5)),
        ("arc", (1, 5)),
        ("arc", (6, 1)),
        ("brc", (0, 2)),
        ("brc", (3, 3)),
        ("brc", (5, 6)),
        ("brc", (6, 6)),
    ];
    let shapes = [
        (MIRRORED_TC, &["tc"][..]),
        (SHAPES[8].0, &["sg", "cyc"]),
        (SHAPES[3].0, &["p"]),
    ];
    // `(inserts, deletes)`, one commit each.
    let commits: [(Rows<'_>, Rows<'_>); 5] = [
        (&[], &[("arc", (2, 3))]),
        (&[], &[("brc", (0, 2))]),
        (&[("arc", (5, 0))], &[("arc", (0, 1)), ("brc", (5, 6))]),
        (&[("brc", (1, 1))], &[("arc", (6, 1))]),
        (&[("arc", (3, 4))], &[("arc", (3, 4))]),
    ];
    for threads in [1, 2] {
        let engine = recstep::Engine::builder().threads(threads).build().unwrap();
        for (src, idbs) in shapes {
            let prog = Arc::new(engine.prepare(src).unwrap());
            let mut db = Database::new().unwrap();
            apply_commit(&mut db, &batch(start), &[]);
            let mut view = MaterializedView::create(Arc::clone(&prog), &db).unwrap();
            let mut deleted = 0;
            for (i, &(ins, del)) in commits.iter().enumerate() {
                let (inserts, deletes) = (batch(ins), batch(del));
                apply_commit(&mut db, &inserts, &deletes);
                view.refresh(&db, &inserts, &deletes).unwrap();
                deleted += view.stats().view.view_tuples_retracted;
                let scratch = prog.run_shared(&db).unwrap();
                for rel in idbs {
                    assert_eq!(
                        rows_sorted(&view.output(), rel),
                        rows_sorted(&scratch, rel),
                        "{src:?} at {threads} threads diverged on '{rel}' after commit {i}"
                    );
                }
            }
            let v = view.view_stats();
            assert!(v.view_matrix_strata >= 3, "{src:?}: {v:?}");
            assert!(deleted > 0, "{src:?}: the deletes retract rows");
            assert_eq!(v.view_fallbacks, 0, "{src:?}");
        }
    }
}

#[test]
fn panicking_refresh_poisons_the_view_and_rebuilds() {
    let _serial = serial();
    fail::teardown();
    let engine = recstep::Engine::builder().threads(1).build().unwrap();
    let prog = Arc::new(engine.prepare(TC).unwrap());
    let mut db = Database::new().unwrap();
    db.load_edges("arc", &[(1, 2), (2, 3)]).unwrap();
    let mut view = MaterializedView::create(Arc::clone(&prog), &db).unwrap();

    let inserts = vec![("arc".to_string(), vec![vec![3, 4]])];
    apply_commit(&mut db, &inserts, &[]);
    fail::cfg("view::refresh", "panic").unwrap();
    let panicked = catch_unwind(AssertUnwindSafe(|| view.refresh(&db, &inserts, &[])));
    fail::teardown();
    assert!(panicked.is_err(), "the armed failpoint must panic");

    // The panic marked the view: even a no-op refresh rebuilds from
    // scratch rather than serving the state that missed the commit.
    view.refresh(&db, &[], &[]).unwrap();
    assert!(view.view_stats().view_fallbacks >= 1);
    let scratch = prog.run_shared(&db).unwrap();
    assert_eq!(
        rows_sorted(&view.output(), "tc"),
        rows_sorted(&scratch, "tc")
    );
    assert_eq!(view.output().row_count("tc"), 6);
}

#[test]
fn erroring_refresh_poisons_the_view_and_rebuilds() {
    let _serial = serial();
    fail::teardown();
    let engine = recstep::Engine::builder().threads(1).build().unwrap();
    let prog = Arc::new(engine.prepare(TC).unwrap());
    let mut db = Database::new().unwrap();
    db.load_edges("arc", &[(1, 2), (2, 3)]).unwrap();
    let mut view = MaterializedView::create(Arc::clone(&prog), &db).unwrap();

    let inserts = vec![("arc".to_string(), vec![vec![3, 4]])];
    apply_commit(&mut db, &inserts, &[]);
    fail::cfg("view::refresh", "return_io_err").unwrap();
    let res = view.refresh(&db, &inserts, &[]);
    fail::teardown();
    assert!(res.is_err(), "the armed failpoint must fail the refresh");

    view.refresh(&db, &[], &[]).unwrap();
    assert!(view.view_stats().view_fallbacks >= 1);
    assert_eq!(view.output().row_count("tc"), 6);
}

const TC_JSON: &str = "tc(x, y) :- arc(x, y).\\ntc(x, y) :- tc(x, z), arc(z, y).";

fn counter(body: &str, key: &str) -> i64 {
    let pat = format!("\"{key}\":");
    let start = body
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {body}"))
        + pat.len();
    body[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '-')
        .collect::<String>()
        .parse()
        .unwrap()
}

fn query_body(program: &str) -> String {
    format!("{{\"program\":\"{program}\"}}")
}

#[test]
fn serve_panicking_refresh_never_serves_a_half_maintained_view() {
    let _serial = serial();
    fail::teardown();
    let mut db = Database::new().unwrap();
    db.load_edges("arc", &[(1, 2), (2, 3)]).unwrap();
    let server = Server::start(
        Config::default().threads(1),
        ServeConfig::default().addr("127.0.0.1:0"),
        db,
    )
    .unwrap();
    let addr = server.addr();

    // Stand a view.
    let (status, body) = post(addr, "/query", &query_body(TC_JSON)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"total\":3"), "{body}");

    // The commit's view refresh panics: the commit itself still succeeds
    // (durability and the base write happened first) and the broken view
    // is dropped, never served.
    fail::cfg("view::refresh", "panic").unwrap();
    let (status, body) = post(addr, "/facts", "{\"insert\":{\"arc\":[[3,4]]}}").unwrap();
    fail::teardown();
    assert_eq!(status, 200, "{body}");
    let (_, stats) = get(addr, "/stats").unwrap();
    assert!(counter(&stats, "panics") >= 1, "{stats}");

    // The next query recreates the view from scratch at the new version,
    // from the cached plan (a plan never depends on the data) — the stale
    // contents are unreachable.
    let (status, body) = post(addr, "/query", &query_body(TC_JSON)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"total\":6"), "{body}");
    let (_, stats) = get(addr, "/stats").unwrap();
    assert_eq!(counter(&stats, "compiles"), 1, "{stats}");
    assert_eq!(counter(&stats, "prepared_hits"), 1, "{stats}");

    // The recreated view maintains normally again.
    let (status, body) = post(addr, "/facts", "{\"insert\":{\"arc\":[[4,5]]}}").unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = post(addr, "/query", &query_body(TC_JSON)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"total\":10"), "{body}");
    let (_, stats) = get(addr, "/stats").unwrap();
    assert_eq!(counter(&stats, "compiles"), 1, "{stats}");
    assert!(counter(&stats, "view_refreshes") >= 1, "{stats}");
    assert!(counter(&stats, "view_hits") >= 1, "{stats}");

    server.shutdown();
}

/// `/stats`'s `lifetime` object is the counter table's walk: exactly the
/// keys `EvalStats::visit` yields, each once, with the values a view's
/// creation and one matrix-route delete booked.
#[test]
fn stats_lifetime_reports_every_counter() {
    let _serial = serial();
    let mut db = Database::new().unwrap();
    db.load_edges("arc", &[(1, 2), (2, 3), (3, 4)]).unwrap();
    let server = Server::start(
        Config::default().threads(1),
        ServeConfig::default().addr("127.0.0.1:0"),
        db,
    )
    .unwrap();
    let addr = server.addr();

    let (status, body) = post(addr, "/query", &query_body(TC_JSON)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"total\":6"), "{body}");
    let (status, body) = post(addr, "/facts", "{\"delete\":{\"arc\":[[3,4]]}}").unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, stats) = get(addr, "/stats").unwrap();
    assert_eq!(status, 200, "{stats}");
    server.shutdown();

    let mut keys = Vec::new();
    EvalStats::default().visit(&mut |key, _| keys.push(key.to_string()));
    let visited = keys.len();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), visited, "a stats key is visited twice");
    let stats = Json::parse(&stats).unwrap();
    let Some(Json::Obj(lifetime)) = stats.get("lifetime") else {
        panic!("no lifetime object in {stats}");
    };
    assert_eq!(lifetime.keys().cloned().collect::<Vec<_>>(), keys);
    let read = |key: &str| lifetime[key].as_int().unwrap();
    // Creation books one one-iteration stratum: the closure matrix, seeded
    // by the exit rule. The delete is one refresh whose dead set comes
    // off the matrix; its re-entry finds no inserts to seed and stops
    // after one iteration.
    assert_eq!(read("strata"), 2, "{stats}");
    assert_eq!(read("iterations"), 2, "{stats}");
    assert_eq!(read("view_refreshes"), 1, "{stats}");
    assert_eq!(read("view_matrix_strata"), 1, "{stats}");
    assert_eq!(read("view_bf_strata"), 0, "{stats}");
    assert_eq!(read("view_tuples_retracted"), 3, "{stats}");
    // The two keys perfbench's serve_mix reads.
    assert_eq!(read("view_fallbacks"), 0, "{stats}");
    assert!(lifetime.contains_key("cache_hits"), "{stats}");
}

#[test]
fn no_incremental_ablation_reruns_the_prepared_plan() {
    let _serial = serial();
    let mut db = Database::new().unwrap();
    db.load_edges("arc", &[(1, 2), (2, 3)]).unwrap();
    let server = Server::start(
        Config::default().threads(1).incremental_views(false),
        ServeConfig::default().addr("127.0.0.1:0"),
        db,
    )
    .unwrap();
    let addr = server.addr();

    let (status, body) = post(addr, "/query", &query_body(TC_JSON)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"total\":3"), "{body}");
    // Identical program: the prepared cache answers, no view exists.
    post(addr, "/query", &query_body(TC_JSON)).unwrap();
    let (_, stats) = get(addr, "/stats").unwrap();
    assert_eq!(counter(&stats, "prepared_hits"), 1, "{stats}");
    assert_eq!(counter(&stats, "view_hits"), 0, "{stats}");
    assert_eq!(counter(&stats, "view_refreshes"), 0, "{stats}");

    // A commit forces a rerun of the prepared plan, which the commit
    // leaves cached: no recompile.
    let (status, body) = post(addr, "/facts", "{\"insert\":{\"arc\":[[3,4]]}}").unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = post(addr, "/query", &query_body(TC_JSON)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"total\":6"), "{body}");
    let (_, stats) = get(addr, "/stats").unwrap();
    assert_eq!(counter(&stats, "compiles"), 1, "{stats}");
    assert_eq!(counter(&stats, "prepared_hits"), 2, "{stats}");
    assert_eq!(counter(&stats, "view_hits"), 0, "{stats}");

    server.shutdown();
}

#[test]
fn bench_ivm_refresh_beats_scratch_and_records() {
    let _serial = serial();
    // The three `ivm.*` rows of BENCH_pipeline.json; every repeat also
    // asserts the maintained view equals scratch (workloads, threads,
    // repeats and the `ivm.tc_insert` gate live in
    // `recstep_bench::ivm_ablations`).
    ivm_ablations().iter().for_each(assert_gate);
}
