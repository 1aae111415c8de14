//! Integration tests for the query service: compile-once under
//! concurrency, request batching, `/facts` commits, warmup
//! publication, load shedding and cooperative timeout — all driven
//! deterministically by holding the admission semaphore from the test.

use std::time::{Duration, Instant};

use recstep::{Config, Database, ServeConfig};
use recstep_common::sched::Admission;
use recstep_serve::client::{get, post};
use recstep_serve::Server;

const NEG: &str = "p(x) :- node(x), !blocked(x).";
const TC: &str = "tc(x, y) :- arc(x, y).\\ntc(x, y) :- tc(x, z), arc(z, y).";

fn neg_db() -> Database {
    let mut db = Database::new().unwrap();
    let nodes: Vec<Vec<i64>> = (1..=64).map(|v| vec![v]).collect();
    let blocked: Vec<Vec<i64>> = (1..=64).filter(|v| v % 2 == 1).map(|v| vec![v]).collect();
    db.load_relation("node", 1, &nodes).unwrap();
    db.load_relation("blocked", 1, &blocked).unwrap();
    db
}

/// Pull an integer counter out of a flat JSON body (good enough for the
/// service's deterministic, non-nested-key stats payloads).
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
fn concurrent_identical_queries_compile_once_and_batch_onto_one_fixpoint() {
    let server = Server::start(
        Config::default().threads(2),
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .max_concurrent_runs(1)
            .queue_depth(8)
            .request_timeout_ms(60_000),
        neg_db(),
    )
    .unwrap();
    let addr = server.addr();

    // Hold the only run permit so the first requester (the leader) parks
    // in the admission queue while every later identical request joins
    // its in-flight batch.
    let sem = server.semaphore();
    let gate = match sem.acquire(Instant::now() + Duration::from_secs(30)) {
        Admission::Admitted(g) => g,
        _ => panic!("test could not take the permit"),
    };

    let clients: Vec<_> = (0..8)
        .map(|_| std::thread::spawn(move || post(addr, "/query", &query_body(NEG)).unwrap()))
        .collect();

    // Followers are counted as they attach; once all 7 joined, release
    // the leader. Polling /stats keeps the test deterministic without
    // guessing at thread scheduling.
    let patience = Instant::now() + Duration::from_secs(20);
    loop {
        let (_, stats) = get(addr, "/stats").unwrap();
        if counter(&stats, "batch_joins") == 7 {
            break;
        }
        assert!(
            Instant::now() < patience,
            "followers never joined the batch: {stats}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(gate);

    let mut batched = 0;
    for c in clients {
        let (status, body) = c.join().unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"total\":32"), "{body}");
        if body.contains("\"batched\":true") {
            batched += 1;
        }
    }
    assert_eq!(batched, 7, "exactly the 7 followers share the leader's run");

    let (_, stats) = get(addr, "/stats").unwrap();
    // One compile, one fixpoint, one frozen-index build for 8 clients.
    assert_eq!(counter(&stats, "compiles"), 1, "{stats}");
    assert_eq!(counter(&stats, "prepared_hits"), 0, "{stats}");
    assert_eq!(counter(&stats, "cache_misses"), 1, "{stats}");
    assert_eq!(counter(&stats, "shed_count"), 0, "{stats}");
    assert_eq!(counter(&stats, "queries"), 8, "{stats}");

    // A different program over the same EDB reuses the frozen index the
    // batch built: the cross-run cache grows hits, not misses.
    let (status, body) =
        post(addr, "/query", &query_body("q(x) :- node(x), !blocked(x).")).unwrap();
    assert_eq!(status, 200, "{body}");
    let (_, stats) = get(addr, "/stats").unwrap();
    assert_eq!(counter(&stats, "compiles"), 2, "{stats}");
    assert_eq!(counter(&stats, "cache_misses"), 1, "{stats}");
    assert!(counter(&stats, "cache_hits") >= 1, "{stats}");

    server.shutdown();
}

#[test]
fn facts_commit_bumps_data_version_and_invalidates_prepared_entries() {
    let mut db = Database::new().unwrap();
    db.load_edges("arc", &[(1, 2), (2, 3)]).unwrap();
    let server = Server::start(
        Config::default().threads(2),
        ServeConfig::default().addr("127.0.0.1:0"),
        db,
    )
    .unwrap();
    let addr = server.addr();

    let (status, body) = post(addr, "/query", &query_body(TC)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"total\":3"), "{body}");
    // Identical program again: answered by the standing materialized
    // view — no fixpoint, no prepared-cache probe.
    post(addr, "/query", &query_body(TC)).unwrap();
    let (_, stats) = get(addr, "/stats").unwrap();
    assert_eq!(counter(&stats, "compiles"), 1, "{stats}");
    assert_eq!(counter(&stats, "view_hits"), 1, "{stats}");

    // A write moves the data version: inserts + a whole-tuple delete in
    // one transaction.
    let (status, body) = post(
        addr,
        "/facts",
        "{\"insert\":{\"arc\":[[3,4],[9,9]]},\"delete\":{\"arc\":[[9,9]]}}",
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(counter(&body, "data_version"), 1, "{body}");

    // The commit refreshed the standing view in place, so the same text
    // is answered at the new version without recompiling or re-running
    // ((1,2),(2,3),(3,4) closes to 6 pairs).
    let (status, body) = post(addr, "/query", &query_body(TC)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"total\":6"), "{body}");
    let (_, stats) = get(addr, "/stats").unwrap();
    assert_eq!(counter(&stats, "compiles"), 1, "{stats}");
    assert_eq!(counter(&stats, "view_hits"), 2, "{stats}");
    assert_eq!(counter(&stats, "facts_commits"), 1, "{stats}");
    assert!(counter(&stats, "view_refreshes") >= 1, "{stats}");

    server.shutdown();
}

#[test]
fn facts_commit_leaves_every_prepared_plan_hot() {
    let mut db = neg_db();
    db.load_edges("arc", &[(1, 2), (2, 3)]).unwrap();
    let server = Server::start(
        Config::default().threads(2),
        ServeConfig::default().addr("127.0.0.1:0"),
        db,
    )
    .unwrap();
    let addr = server.addr();

    // Two prepared plans, one per program text.
    assert_eq!(post(addr, "/query", &query_body(TC)).unwrap().0, 200);
    assert_eq!(post(addr, "/query", &query_body(NEG)).unwrap().0, 200);
    let (_, stats) = get(addr, "/stats").unwrap();
    assert_eq!(counter(&stats, "compiles"), 2, "{stats}");
    let hits = counter(&stats, "prepared_hits");

    // Commit to `node`: the TC program never reads it, so its standing
    // view absorbs the commit as a no-op and still answers directly.
    let (status, body) = post(addr, "/facts", "{\"insert\":{\"node\":[[65]]}}").unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(post(addr, "/query", &query_body(TC)).unwrap().0, 200);
    let (_, stats) = get(addr, "/stats").unwrap();
    assert_eq!(counter(&stats, "compiles"), 2, "{stats}");
    assert_eq!(counter(&stats, "view_hits"), 1, "{stats}");

    // The negation plan (ineligible for a view) reads `node`, yet a plan
    // depends on the program text only: the cached one runs over the new
    // data without a recompile.
    let (status, body) = post(addr, "/query", &query_body(NEG)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"total\":33"),
        "node 65 is unblocked: {body}"
    );
    let (_, stats) = get(addr, "/stats").unwrap();
    assert_eq!(counter(&stats, "compiles"), 2, "{stats}");
    assert_eq!(counter(&stats, "prepared_hits"), hits + 1, "{stats}");

    server.shutdown();
}

#[test]
fn warmup_runs_exclusively_and_publishes_idb_indexes() {
    let dir = std::env::temp_dir().join(format!("recstep_warmup_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let warmup = dir.join("warm.datalog");
    std::fs::write(&warmup, format!("{NEG}\n")).unwrap();

    let server = Server::start(
        Config::default().threads(2),
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .warmup(warmup.to_str().unwrap()),
        neg_db(),
    )
    .unwrap();
    let addr = server.addr();

    // Before any client arrives: the warmup compiled and ran, published a
    // full-relation index over its final IDB, and left the shared index
    // cache warm.
    let (_, stats) = get(addr, "/stats").unwrap();
    assert_eq!(counter(&stats, "compiles"), 1, "{stats}");
    assert!(counter(&stats, "published") >= 1, "{stats}");
    assert!(counter(&stats, "entries") >= 1, "{stats}");
    assert!(counter(&stats, "resident_bytes") > 0, "{stats}");

    // The warmup program itself is already prepared: first client request
    // is a prepared-cache hit, no compile, and its frozen-index need is
    // a cache hit against what warmup built.
    let (status, body) = post(addr, "/query", &query_body(NEG)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"total\":32"), "{body}");
    let (_, stats) = get(addr, "/stats").unwrap();
    assert_eq!(counter(&stats, "compiles"), 1, "{stats}");
    assert_eq!(counter(&stats, "prepared_hits"), 1, "{stats}");
    assert!(counter(&stats, "cache_hits") >= 1, "{stats}");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn queue_overflow_sheds_with_429_and_retry_after() {
    let server = Server::start(
        Config::default().threads(1),
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .max_concurrent_runs(1)
            .queue_depth(0),
        neg_db(),
    )
    .unwrap();
    let addr = server.addr();

    let sem = server.semaphore();
    let gate = match sem.acquire(Instant::now() + Duration::from_secs(30)) {
        Admission::Admitted(g) => g,
        _ => panic!("test could not take the permit"),
    };

    // Permit held, zero queue slots: the next leader is shed immediately
    // with the standard backoff signal.
    let (status, head, body) =
        recstep_serve::client::post_full(addr, "/query", &query_body(NEG)).unwrap();
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("queue full"), "{body}");
    assert!(head.contains("Retry-After:"), "{head}");
    let (_, stats) = get(addr, "/stats").unwrap();
    assert!(counter(&stats, "shed_count") >= 1, "{stats}");

    // Releasing the permit un-wedges the server completely.
    drop(gate);
    let (status, body) = post(addr, "/query", &query_body(NEG)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"total\":32"), "{body}");

    server.shutdown();
}

#[test]
fn expired_deadline_cancels_the_run_and_does_not_poison_the_server() {
    let server = Server::start(
        Config::default().threads(1),
        ServeConfig::default().addr("127.0.0.1:0"),
        neg_db(),
    )
    .unwrap();
    let addr = server.addr();

    // timeout_ms: 0 — admitted straight away (a permit is free) but the
    // cancel token's deadline has already passed, so the fixpoint aborts
    // at its first iteration boundary with Error::Cancelled.
    let (status, body) = post(
        addr,
        "/query",
        &format!("{{\"program\":\"{NEG}\",\"timeout_ms\":0}}"),
    )
    .unwrap();
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("cancelled"), "{body}");
    let (_, stats) = get(addr, "/stats").unwrap();
    assert!(counter(&stats, "cancelled_runs") >= 1, "{stats}");
    assert!(counter(&stats, "timeouts") >= 1, "{stats}");

    // The aborted run leaked nothing: the same program with a sane
    // deadline evaluates cleanly on the same server.
    let (status, body) = post(addr, "/query", &query_body(NEG)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"total\":32"), "{body}");

    server.shutdown();
}

#[test]
fn bad_requests_are_clean_errors() {
    let server = Server::start(
        Config::default().threads(1),
        ServeConfig::default().addr("127.0.0.1:0"),
        neg_db(),
    )
    .unwrap();
    let addr = server.addr();

    // Unparsable body, missing field, bad program, unknown relation.
    assert_eq!(post(addr, "/query", "not json").unwrap().0, 400);
    assert_eq!(post(addr, "/query", "{}").unwrap().0, 400);
    assert_eq!(
        post(addr, "/query", "{\"program\":\"p(x :-\"}").unwrap().0,
        400
    );
    let (status, _) = post(
        addr,
        "/query",
        &format!("{{\"program\":\"{NEG}\",\"relation\":\"nope\"}}"),
    )
    .unwrap();
    assert_eq!(status, 404);
    // Facts: ragged rows are rejected atomically (nothing applies).
    let (status, _) = post(addr, "/facts", "{\"insert\":{\"arc\":[[1,2],[3]]}}").unwrap();
    assert_eq!(status, 400);
    let (_, stats) = get(addr, "/stats").unwrap();
    assert_eq!(counter(&stats, "facts_commits"), 0, "{stats}");
    assert_eq!(counter(&stats, "data_version"), 0, "{stats}");

    server.shutdown();
}
