//! The on/off record's only writer: measures the nine ablation rows (fused
//! pipeline, streaming aggregation, WCOJ, three incremental view
//! maintenance rows, and the paper-figure rows PBME, NO-OP and set-based)
//! plus the query service smoke, and writes them as `BENCH_pipeline.json` at the workspace root
//! (`RECSTEP_BENCH_OUT` overrides the path). A row below its gate is
//! written as `"passed": false`, and then the bench fails.

use recstep::{Config, Database, Durability, ServeConfig};
use recstep_bench::*;
use recstep_serve::client::{get, post};
use recstep_serve::{json::Json, Server};

const NEG: &str = "p(x) :- node(x), !blocked(x).";
const TC: &str = "tc(x, y) :- arc(x, y).\\ntc(x, y) :- tc(x, z), arc(z, y).";

fn main() {
    header(
        "BENCH pipeline",
        "on/off ablations (best wall seconds per arm) + query service smoke",
    );
    let mut rows = vec![pipeline_ablation(), agg_ablation(), wcoj_ablation()];
    rows.extend(ivm_ablations());
    rows.extend([pbme_ablation(), no_op_ablation(), setbased_ablation()]);
    row(&cells(&["row", "on", "off", "speedup", "gate", "passed"]));
    for r in &rows {
        row(&[
            r.name.into(),
            format!("{:.4}s", r.on_secs),
            format!("{:.4}s", r.off_secs),
            format!("{:.2}x", r.speedup()),
            r.gate.map_or("-".into(), |g| format!("{g}x")),
            r.passed().to_string(),
        ]);
    }
    let serve = serve_smoke();
    let path = record_path();
    std::fs::write(&path, render(&rows, &serve)).expect("write BENCH_pipeline.json");
    println!("  wrote {}", path.display());
    rows.iter().for_each(assert_gate);
}

/// Stand up the query service in-process, drive a warm request mix through
/// `/query`, commit through the WAL, restart from the data dir, and return
/// the service's counters: latency percentiles, cache behaviour and the
/// durability/recovery record.
fn serve_smoke() -> Vec<(&'static str, i64)> {
    // A small mixed database: a negation workload that exercises the
    // shared frozen-index cache, and a TC chain for a recursive fixpoint.
    let n = 128i64;
    let mut db = Database::new().expect("database");
    let nodes: Vec<Vec<i64>> = (1..=n).map(|v| vec![v]).collect();
    let blocked: Vec<Vec<i64>> = (1..=n).filter(|v| v % 2 == 1).map(|v| vec![v]).collect();
    let arcs: Vec<(i64, i64)> = (1..n.min(200)).map(|v| (v, v + 1)).collect();
    db.load_relation("node", 1, &nodes).expect("node");
    db.load_relation("blocked", 1, &blocked).expect("blocked");
    db.load_edges("arc", &arcs).expect("arc");

    header(
        "BENCH serve",
        &format!(
            "query service smoke: warm /query mix over {n} nodes + {}-edge chain",
            arcs.len()
        ),
    );

    // The service runs durable: WAL per /facts commit, snapshot + log
    // compaction every 2 commits, and a restart at the end measures
    // recovery (the durability counters come from the recovered process).
    let data_dir = std::env::temp_dir().join(format!("recstep_serve_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let serve_cfg = || {
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .data_dir(data_dir.to_str().expect("utf-8 temp dir"))
            .durability(Durability::Commit)
            .snapshot_every_n_commits(2)
    };
    let server = Server::start(Config::default().threads(max_threads()), serve_cfg(), db)
        .expect("server starts");
    let addr = server.addr();

    // One cold request per program (compile + frozen-index build), then a
    // warm mix served without compiling: from the standing view of a
    // maintainable program, else from the prepared-program cache.
    let warm_rounds = 24usize;
    for prog in [NEG, TC] {
        let (status, body) =
            post(addr, "/query", &format!("{{\"program\":\"{prog}\"}}")).expect("cold query");
        assert_eq!(status, 200, "{body}");
    }
    for _ in 0..warm_rounds {
        for prog in [NEG, TC] {
            let (status, body) =
                post(addr, "/query", &format!("{{\"program\":\"{prog}\"}}")).expect("warm query");
            assert_eq!(status, 200, "{body}");
        }
    }

    let (status, stats_body) = get(addr, "/stats").expect("/stats");
    assert_eq!(status, 200, "{stats_body}");
    let stats = Json::parse(&stats_body).expect("stats parses");
    let pick = |path: &[&str]| -> i64 {
        let mut cur = &stats;
        for key in path {
            cur = cur
                .get(key)
                .unwrap_or_else(|| panic!("no {key} in {stats_body}"));
        }
        cur.as_int()
            .unwrap_or_else(|| panic!("{path:?} not an int"))
    };

    let queries = pick(&["queries"]);
    let compiles = pick(&["compiles"]);
    let prepared_hits = pick(&["prepared_hits"]);
    let view_hits = pick(&["view_hits"]);
    let shed_count = pick(&["shed_count"]);
    let cache_hits = pick(&["lifetime", "cache_hits"]);
    let p50_us = pick(&["latency", "p50_us"]);
    let p95_us = pick(&["latency", "p95_us"]);
    assert_eq!(compiles, 2, "two programs, each compiled exactly once");
    assert_eq!(
        prepared_hits + view_hits,
        queries - 2,
        "every warm request is a standing-view or prepared-cache hit"
    );
    assert_eq!(shed_count, 0, "a sequential smoke run must not shed");

    // Durability leg: three WAL-logged commits (one survives the last
    // snapshot compaction), then a hard restart from the data dir — the
    // recovered server must replay the tail and answer over the new facts.
    for (f, t) in [(500, 501), (501, 502), (502, 503)] {
        let (status, body) = post(
            addr,
            "/facts",
            &format!("{{\"insert\":{{\"arc\":[[{f},{t}]]}}}}"),
        )
        .expect("facts commit");
        assert_eq!(status, 200, "{body}");
    }
    server.shutdown();
    let server = Server::start(
        Config::default().threads(max_threads()),
        serve_cfg(),
        Database::new().expect("database"),
    )
    .expect("server recovers");
    let addr = server.addr();
    let (status, body) =
        post(addr, "/query", &format!("{{\"program\":\"{TC}\"}}")).expect("recovered query");
    assert_eq!(status, 200, "{body}");
    let (status, stats_body) = get(addr, "/stats").expect("/stats after recovery");
    assert_eq!(status, 200, "{stats_body}");
    let stats = Json::parse(&stats_body).expect("recovered stats parse");
    let pick_dur = |key: &str| -> i64 {
        stats
            .get("durability")
            .and_then(|d| d.get(key))
            .and_then(Json::as_int)
            .unwrap_or_else(|| panic!("no durability.{key} in {stats_body}"))
    };
    let wal_records = pick_dur("wal_records");
    let wal_bytes = pick_dur("wal_bytes");
    let snapshots = pick_dur("snapshots");
    let recovered_records = pick_dur("recovered_records");
    assert_eq!(
        stats.get("data_version").and_then(Json::as_int),
        Some(3),
        "recovery reconstructs data_version exactly: {stats_body}"
    );
    assert_eq!(recovered_records, 1, "one commit past the last snapshot");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);

    row(&cells(&[
        "queries",
        "p50 us",
        "p95 us",
        "hits",
        "shed",
        "recovered",
    ]));
    row(&[
        queries.to_string(),
        p50_us.to_string(),
        p95_us.to_string(),
        cache_hits.to_string(),
        shed_count.to_string(),
        recovered_records.to_string(),
    ]);
    vec![
        ("queries", queries),
        ("compiles", compiles),
        ("prepared_hits", prepared_hits),
        ("view_hits", view_hits),
        ("p50_us", p50_us),
        ("p95_us", p95_us),
        ("cache_hits", cache_hits),
        ("shed_count", shed_count),
        ("wal_records", wal_records),
        ("wal_bytes", wal_bytes),
        ("snapshots", snapshots),
        ("recovered_records", recovered_records),
    ]
}
