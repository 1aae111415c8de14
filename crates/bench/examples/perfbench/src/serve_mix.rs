//! `serve_mix`: the same layers used differently — writes beside reads.
//!
//! An in-process `Server` over a temp data dir (commit-mode WAL, default
//! snapshot cadence) and two closed-loop clients, each sending its next
//! request only after the previous reply. A round is a fixed multiset of
//! operations per client (70 % view queries, 14 % scratch queries, 8 %
//! inserts, 8 % deletes) in a seed-shuffled order, so every round does the
//! same work and per-round counts repeat; the number of rounds follows
//! `--seconds`.

use std::borrow::Cow;
use std::collections::{HashSet, VecDeque};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use recstep::{programs, Config, Database, Engine, MaterializedView, ServeConfig, Value};
use recstep_graphgen as graphgen;
use recstep_serve::json::{self, Json};
use recstep_serve::{client, Server};
use recstep_storage::wal::{self, Wal, WalBatch, WalCommit, WalRecord};
use recstep_storage::Durability;

use crate::batch::threads;
use crate::golden;
use crate::kernels;
use crate::metrics::{Metrics, Outcome};
use crate::trace::Tracer;
use crate::util::{
    ctx, fingerprint, median, percentile, repeat_for, timed_setups, Res, Rng, WorkDir,
};
use crate::Opts;

const CLUSTER_VERTICES: u32 = 300;
const CLUSTER_P: f64 = 0.016;
const PATH_EDGES: Value = 400;
const CLIENTS: usize = 2;
const ARCS_PER_COMMIT: usize = 8;
const ROW_LIMIT: usize = 1000;

/// Measured rounds, at least: the 400 requests of `--quick`.
const MIN_ROUNDS: usize = 4;

/// One client's operations per round, by kind.
const VIEWS: usize = 35;
const SCRATCHES: usize = 7;
const INSERTS: usize = 4;
const DELETES: usize = 4;
const OPS_PER_ROUND: usize = CLIENTS * (VIEWS + SCRATCHES + INSERTS + DELETES);

type Arc2 = (Value, Value);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    View,
    Scratch,
    Insert,
    Delete,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::View, Kind::Scratch, Kind::Insert, Kind::Delete];

    fn metric(self) -> &'static str {
        match self {
            Kind::View => "query_view",
            Kind::Scratch => "query_scratch",
            Kind::Insert => "facts_insert",
            Kind::Delete => "facts_delete",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Kind::View => "client.query_view",
            Kind::Scratch => "client.query_scratch",
            Kind::Insert => "client.facts_insert",
            Kind::Delete => "client.facts_delete",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    pub kind: Kind,
    /// The arcs a write inserts or deletes; empty for queries.
    pub arcs: Vec<Arc2>,
}

/// A client's deterministic state: what it will send next depends only on
/// the seed, its index and how many rounds it has generated.
pub struct Client {
    index: usize,
    rng: Rng,
    initial: Arc<HashSet<Arc2>>,
    /// Acknowledged inserts not yet deleted, oldest first.
    live: VecDeque<Vec<Arc2>>,
    taken: HashSet<Arc2>,
}

impl Client {
    pub fn new(seed: u64, index: usize, initial: Arc<HashSet<Arc2>>) -> Self {
        Client {
            index,
            rng: Rng::new(seed, 0x5e7e + index as u64),
            initial,
            live: VecDeque::new(),
            taken: HashSet::new(),
        }
    }

    /// Eight arcs inside the cluster that are in neither the initial graph
    /// nor this client's live inserts. Sources are congruent to the client
    /// index, so two clients never write the same arc and every delete
    /// removes exactly what its insert added.
    fn fresh_batch(&mut self) -> Vec<Arc2> {
        let n = CLUSTER_VERTICES as u64;
        let mut batch = Vec::with_capacity(ARCS_PER_COMMIT);
        while batch.len() < ARCS_PER_COMMIT {
            let u = self.rng.below(n / CLIENTS as u64) * CLIENTS as u64 + self.index as u64;
            let v = self.rng.below(n);
            let arc = (u as Value, v as Value);
            if u != v && !self.initial.contains(&arc) && self.taken.insert(arc) {
                batch.push(arc);
            }
        }
        batch
    }

    fn insert_op(&mut self) -> Op {
        let arcs = self.fresh_batch();
        self.live.push_back(arcs.clone());
        Op {
            kind: Kind::Insert,
            arcs,
        }
    }

    /// The inserts set-up sends before the first round.
    pub fn backlog(&mut self) -> Vec<Op> {
        (0..DELETES).map(|_| self.insert_op()).collect()
    }

    /// The next round: the fixed multiset, shuffled. The backlog of
    /// `DELETES` live inserts left by set-up means a delete always finds
    /// an insert to undo, whatever the order.
    pub fn round(&mut self) -> Vec<Op> {
        let mut kinds = Vec::new();
        for (kind, count) in [
            (Kind::View, VIEWS),
            (Kind::Scratch, SCRATCHES),
            (Kind::Insert, INSERTS),
            (Kind::Delete, DELETES),
        ] {
            kinds.extend(std::iter::repeat_n(kind, count));
        }
        self.rng.shuffle(&mut kinds);
        kinds
            .into_iter()
            .map(|kind| match kind {
                Kind::Insert => self.insert_op(),
                Kind::Delete => {
                    let arcs = self
                        .live
                        .pop_front()
                        .expect("backlog covers a round's deletes");
                    for a in &arcs {
                        self.taken.remove(a);
                    }
                    Op {
                        kind: Kind::Delete,
                        arcs,
                    }
                }
                kind => Op {
                    kind,
                    arcs: Vec::new(),
                },
            })
            .collect()
    }
}

struct Bodies {
    view: String,
    scratch: String,
}

fn query_body(program: &str, relation: &str, limit: usize) -> String {
    json::obj(vec![
        ("program", json::str(program)),
        ("relation", json::str(relation)),
        ("limit", json::int(limit)),
    ])
    .to_string()
}

fn facts_body(section: &str, arcs: &[Arc2]) -> String {
    let rows: Vec<String> = arcs.iter().map(|(a, b)| format!("[{a},{b}]")).collect();
    format!("{{\"{section}\":{{\"arc\":[{}]}}}}", rows.join(","))
}

/// What a run of rounds measured.
#[derive(Default)]
struct Played {
    /// Wall time of each round, in seconds.
    walls: Vec<f64>,
    secs: f64,
    samples: Vec<Sample>,
}

struct Sample {
    kind: Kind,
    ok: bool,
    start: Instant,
    end: Instant,
}

fn send(addr: SocketAddr, bodies: &Bodies, op: &Op) -> Sample {
    let (path, body): (_, Cow<'_, str>) = match op.kind {
        Kind::View => ("/query", Cow::Borrowed(&bodies.view)),
        Kind::Scratch => ("/query", Cow::Borrowed(&bodies.scratch)),
        Kind::Insert => ("/facts", Cow::Owned(facts_body("insert", &op.arcs))),
        Kind::Delete => ("/facts", Cow::Owned(facts_body("delete", &op.arcs))),
    };
    let start = Instant::now();
    let reply = client::post(addr, path, &body);
    let end = Instant::now();
    // A shed (429) or failed request counts as failed, never retried: a
    // closed-loop client that retries hides the refusal in its latency.
    let ok = matches!(&reply, Ok((200, text)) if text.contains("\"ok\":true"));
    Sample {
        kind: op.kind,
        ok,
        start,
        end,
    }
}

/// Run one round: every client sends its operations back to back, all
/// clients start together. Returns the round's wall time and samples.
fn run_round(
    addr: SocketAddr,
    bodies: &Bodies,
    clients: &mut [Client],
) -> (Instant, Instant, Vec<Sample>) {
    let plans: Vec<Vec<Op>> = clients.iter_mut().map(Client::round).collect();
    let barrier = Barrier::new(plans.len() + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .map(|ops| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    ops.iter()
                        .map(|op| send(addr, bodies, op))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let samples: Vec<Sample> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect();
        (start, Instant::now(), samples)
    })
}

/// The initial graph: a G(n,p) cluster, whose closure the writes land in,
/// beside a path the writes never touch.
fn initial_arcs(seed: u64) -> Vec<Arc2> {
    let mut arcs = graphgen::as_values(&graphgen::gnp::gnp(CLUSTER_VERTICES, CLUSTER_P, seed));
    let first = CLUSTER_VERTICES as Value;
    arcs.extend((0..PATH_EDGES).map(|i| (first + i, first + i + 1)));
    arcs
}

fn configs(data_dir: &Path) -> (Config, ServeConfig) {
    (
        Config::default().threads(threads()),
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .data_dir(data_dir.to_string_lossy()),
    )
}

struct Running {
    server: Server,
    data_dir: PathBuf,
    fingerprint: u64,
    clients: Vec<Client>,
    arcs: Vec<Arc2>,
    /// `/facts` commits acknowledged so far.
    commits: u64,
    /// `(tc, cc2, cc)` totals the server reported while priming.
    primed_totals: (i64, i64, i64),
}

fn post_ok(addr: SocketAddr, path: &str, body: &str) -> Res<Json> {
    let (status, text) = ctx("request", client::post(addr, path, body))?;
    if status != 200 {
        return Err(format!("{path} answered {status}: {text}"));
    }
    Json::parse(&text).map_err(|e| format!("{path} reply: {e}"))
}

fn total(reply: &Json, relation: &str) -> Res<i64> {
    reply
        .get("results")
        .and_then(|r| r.get(relation))
        .and_then(|r| r.get("total"))
        .and_then(Json::as_int)
        .ok_or_else(|| format!("reply has no total for '{relation}'"))
}

/// `(tc, cc2, cc)` row totals as the server reports them.
fn server_totals(addr: SocketAddr) -> Res<(i64, i64, i64)> {
    let tc = post_ok(addr, "/query", &query_body(programs::TC, "tc", 1))?;
    // No "relation": the reply then carries every derived relation's total.
    let cc = post_ok(
        addr,
        "/query",
        &json::obj(vec![
            ("program", json::str(programs::CC)),
            ("limit", json::int(1)),
        ])
        .to_string(),
    )?;
    Ok((total(&tc, "tc")?, total(&cc, "cc2")?, total(&cc, "cc")?))
}

/// The same totals from a scratch run in this process over `arcs`.
fn scratch_totals(engine: &Engine, arcs: &[Arc2]) -> Res<(i64, i64, i64, Database)> {
    let mut db = ctx("scratch db", Database::new())?;
    ctx("load arcs", db.load_edges("arc", arcs))?;
    let tc = ctx("prepare tc", engine.prepare(programs::TC))?;
    let cc = ctx("prepare cc", engine.prepare(programs::CC))?;
    let tc_out = ctx("run tc", tc.run_shared(&db))?;
    let cc_out = ctx("run cc", cc.run_shared(&db))?;
    Ok((
        tc_out.row_count("tc") as i64,
        cc_out.row_count("cc2") as i64,
        cc_out.row_count("cc") as i64,
        db,
    ))
}

/// Load the graph, start the server, prime both programs (the TC query
/// leaves a standing view) and leave each client its backlog of inserts.
fn set_up(seed: u64, data_dir: PathBuf) -> Res<Running> {
    let arcs = initial_arcs(seed);
    let fingerprint = fingerprint(&[("arc", &arcs)]);
    let mut db = ctx("new database", Database::new())?;
    ctx("load arcs", db.load_edges("arc", &arcs))?;
    let (engine_cfg, serve_cfg) = configs(&data_dir);
    let server = ctx("start server", Server::start(engine_cfg, serve_cfg, db))?;
    let addr = server.addr();
    let primed_totals = server_totals(addr)?;
    let initial = Arc::new(arcs.iter().copied().collect::<HashSet<_>>());
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|i| Client::new(seed, i, Arc::clone(&initial)))
        .collect();
    let mut commits = 0;
    for c in &mut clients {
        for op in c.backlog() {
            post_ok(addr, "/facts", &facts_body("insert", &op.arcs))?;
            commits += 1;
        }
    }
    Ok(Running {
        server,
        data_dir,
        fingerprint,
        clients,
        arcs,
        commits,
        primed_totals,
    })
}

fn stats(addr: SocketAddr) -> Res<Json> {
    let (status, text) = ctx("GET /stats", client::get(addr, "/stats"))?;
    if status != 200 {
        return Err(format!("/stats answered {status}"));
    }
    Json::parse(&text).map_err(|e| format!("/stats reply: {e}"))
}

fn stat(doc: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |j, k| j.get(k))
        .and_then(Json::as_int)
        .map_or(0.0, |n| n as f64)
}

pub fn run(opts: &Opts, work: &WorkDir, tracer: &mut Tracer) -> Res<Outcome> {
    let mut m = Metrics::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    let Running {
        server,
        data_dir,
        fingerprint,
        mut clients,
        arcs,
        mut commits,
        primed_totals,
    } = timed_setups(&mut m, |rep| {
        set_up(opts.seed, work.subdir(&format!("data-{rep}"))?)
    })?;
    let addr = server.addr();

    // Pinned at the default seed: the graph, its closure's size and its
    // number of components when the server is primed.
    let (golden, input_drifted) = golden::pinned("serve_mix", opts.seed, fingerprint);
    let (tc_rows, components) = (primed_totals.0 as u64, primed_totals.2 as u64);
    if let Some(g) = golden {
        attempted += 1;
        if !g.output_matches(tc_rows, components) {
            failed += 1;
        }
    }
    let bodies = Bodies {
        view: query_body(programs::TC, "tc", ROW_LIMIT),
        scratch: query_body(programs::CC, "cc2", ROW_LIMIT),
    };
    let play = |rounds_min: usize,
                budget: Duration,
                clients: &mut [Client],
                tracer: &mut Tracer|
     -> Played {
        let started = Instant::now();
        let mut played = Played::default();
        repeat_for(budget, rounds_min, |round| {
            let round = round as u32;
            let (start, end, samples) = run_round(addr, &bodies, clients);
            let root = tracer.record("round", None, round, start, end);
            for s in &samples {
                tracer.record(s.kind.span(), root, round, s.start, s.end);
            }
            played.walls.push((end - start).as_secs_f64());
            played.samples.extend(samples);
            Ok(())
        })
        .expect("a round itself cannot fail; failed requests are samples");
        played.secs = started.elapsed().as_secs_f64();
        played
    };

    // One unmeasured round fills the server's caches and connection paths.
    let warmup = play(1, Duration::ZERO, &mut clients, &mut Tracer::new(false));
    let before = stats(addr)?;
    let measured = play(
        MIN_ROUNDS,
        Duration::from_secs_f64(opts.seconds),
        &mut clients,
        tracer,
    );
    let after = stats(addr)?;
    m.put_peak_rss()?;

    for played in [&warmup, &measured] {
        attempted += played.samples.len() as u64;
        failed += played.samples.iter().filter(|s| !s.ok).count() as u64;
        commits += played
            .samples
            .iter()
            .filter(|s| s.ok && matches!(s.kind, Kind::Insert | Kind::Delete))
            .count() as u64;
    }
    let ok = measured.samples.iter().filter(|s| s.ok).count();
    m.put("ops_per_s", ok as f64 / measured.secs, "1/s");
    m.put_median_s("round", &measured.walls);
    m.put("ops_per_round", OPS_PER_ROUND as f64, "count");

    let latencies_ms = |keep: &dyn Fn(Kind) -> bool| -> Vec<f64> {
        measured
            .samples
            .iter()
            .filter(|s| s.ok && keep(s.kind))
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect()
    };
    // The service's cold and warm pass under the names every workload
    // reports them by: a scratch query compiles and runs a full fixpoint,
    // a view query repeats a program whose answer is kept.
    let p50_s = |kind| percentile(&latencies_ms(&|k| k == kind), 0.5).unwrap_or(0.0) / 1e3;
    m.put("wall_s", p50_s(Kind::Scratch), "s");
    m.put("rerun_s", p50_s(Kind::View), "s");
    for kind in Kind::ALL {
        let lat = latencies_ms(&|k| k == kind);
        let name = kind.metric();
        m.put(
            format!("{name}_p50_ms"),
            percentile(&lat, 0.5).unwrap_or(0.0),
            "ms",
        );
        m.put(
            format!("{name}_p95_ms"),
            percentile(&lat, 0.95).unwrap_or(0.0),
            "ms",
        );
        m.put(format!("{name}_samples"), lat.len() as f64, "count");
    }
    let queries = latencies_ms(&|k| matches!(k, Kind::View | Kind::Scratch));
    m.put(
        "query_p95_ms",
        percentile(&queries, 0.95).unwrap_or(0.0),
        "ms",
    );
    m.put("query_samples", queries.len() as f64, "count");

    // End of run: the server must hold exactly the arcs whose writes it
    // acknowledged — now, and again after a restart from the data dir.
    let mut known = arcs.clone();
    known.extend(
        clients
            .iter()
            .flat_map(|c| c.live.iter().flatten().copied()),
    );
    let (engine_cfg, serve_cfg) = configs(&data_dir);
    let engine = ctx("build engine", Engine::from_config(engine_cfg.clone()))?;
    let (tc, cc2, cc, scratch_db) = scratch_totals(&engine, &known)?;
    let consistent = |what: &str, addr: SocketAddr, failed: &mut u64| -> Res<()> {
        let got = server_totals(addr)?;
        let version = stat(&stats(addr)?, &["data_version"]);
        if got != (tc, cc2, cc) || version != commits as f64 {
            eprintln!(
                "perfbench: serve_mix {what}: server totals {got:?} at version {version}, \
                 expected {:?} at version {commits}",
                (tc, cc2, cc)
            );
            *failed += 1;
        }
        Ok(())
    };
    attempted += 2;
    consistent("end of run", addr, &mut failed)?;
    server.shutdown();
    let t = Instant::now();
    let db = ctx("new database", Database::new())?;
    let server = ctx("restart server", Server::start(engine_cfg, serve_cfg, db))?;
    let healthy = client::get(server.addr(), "/healthz");
    let recover_s = t.elapsed().as_secs_f64();
    if !matches!(healthy, Ok((200, _))) {
        return Err("restarted server is not healthy".into());
    }
    consistent("after restart", server.addr(), &mut failed)?;

    if opts.trace {
        let rounds = measured.walls.len() as f64;
        // Counters are per round, so they do not grow with --seconds.
        for (name, path) in [
            ("serve.view_hits", &["view_hits"][..]),
            ("serve.view_fallbacks", &["lifetime", "view_fallbacks"]),
            ("serve.compiles", &["compiles"]),
            ("serve.prepared_hits", &["prepared_hits"]),
            ("serve.batch_joins", &["batch_joins"]),
            ("serve.shed_count", &["shed_count"]),
            ("serve.cache_hits", &["lifetime", "cache_hits"]),
        ] {
            m.put(
                name,
                (stat(&after, path) - stat(&before, path)) / rounds,
                "count",
            );
        }
        m.put("storage.recover_s", recover_s, "s");
        kernels::datalog(&mut m, programs::CC)?;
        serve_kernels(
            &mut m,
            server.addr(),
            &engine,
            scratch_db,
            &mut clients[0],
            work,
        )?;
    }
    server.shutdown();

    if input_drifted {
        failed = attempted;
    }
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
    })
}

/// `serve`, `storage` and view-maintenance kernels on this workload's
/// shapes: a 1000-row reply, an 8-arc commit, the arcs' snapshot.
fn serve_kernels(
    m: &mut Metrics,
    addr: SocketAddr,
    engine: &Engine,
    mut db: Database,
    client: &mut Client,
    work: &WorkDir,
) -> Res<()> {
    let median_us = |reps: usize, f: &mut dyn FnMut()| {
        let times: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&times).expect("reps > 0")
    };

    let arc = db
        .relation("arc")
        .ok_or("scratch database has no arc relation")?;
    let rows: Vec<(Value, Value)> = (0..ROW_LIMIT.min(arc.len()))
        .map(|r| (arc.col(0)[r], arc.col(1)[r]))
        .collect();
    m.put(
        "serve.json_encode_us",
        median_us(200, &mut || {
            let rows: Vec<Json> = rows
                .iter()
                .map(|&(a, b)| Json::Arr(vec![Json::Int(a), Json::Int(b)]))
                .collect();
            let reply = json::obj(vec![
                ("ok", Json::Bool(true)),
                ("rows", Json::Arr(rows)),
                ("total", json::int(arc.len())),
            ]);
            std::hint::black_box(reply.to_string());
        }),
        "us",
    );
    let body = facts_body("insert", &client.fresh_batch());
    m.put(
        "serve.json_parse_us",
        median_us(2000, &mut || {
            std::hint::black_box(Json::parse(&body).is_ok());
        }),
        "us",
    );
    m.put(
        "serve.http_roundtrip_us",
        median_us(200, &mut || {
            std::hint::black_box(client::get(addr, "/healthz").is_ok());
        }),
        "us",
    );

    // storage: the commit record `/facts` logs, fsynced per append.
    let wal_dir = work.subdir("wal-kernel")?;
    let (mut log, _, _) = ctx("open wal", Wal::recover(&wal_dir, Durability::Commit))?;
    let bytes_before = log.bytes();
    const APPENDS: u64 = 50;
    let mut version = 0;
    let mut append_err = None;
    let append_us = median_us(APPENDS as usize, &mut || {
        version += 1;
        let record = WalRecord::Commit(WalCommit {
            version,
            inserts: vec![WalBatch {
                name: "arc".into(),
                arity: 2,
                rows: client
                    .fresh_batch()
                    .iter()
                    .flat_map(|&(a, b)| [a, b])
                    .collect(),
            }],
            deletes: Vec::new(),
        });
        if let Err(e) = log.append(&record) {
            append_err = Some(e);
        }
    });
    if let Some(e) = append_err {
        return Err(format!("wal append: {e}"));
    }
    m.put("storage.wal_append_fsync_us", append_us, "us");
    m.put(
        "storage.wal_bytes_per_commit",
        (log.bytes() - bytes_before) as f64 / APPENDS as f64,
        "bytes",
    );
    let snap_dir = work.subdir("snapshot-kernel")?;
    let arc_id = db.catalog().lookup("arc").ok_or("no arc relation")?;
    let mut snap_err = None;
    let snapshot_us = median_us(5, &mut || {
        if let Err(e) = wal::write_snapshot(&snap_dir, 1, [db.catalog().rel(arc_id)]) {
            snap_err = Some(e);
        }
    });
    if let Some(e) = snap_err {
        return Err(format!("snapshot: {e}"));
    }
    m.put("storage.snapshot_write_ms", snapshot_us / 1e3, "ms");

    // core: `MaterializedView::refresh` with the serve delta shapes —
    // eight arcs into the cluster, then the same eight out again.
    let tc = Arc::new(ctx("prepare tc", engine.prepare(programs::TC))?);
    let mut view = ctx("create view", MaterializedView::create(tc, &db))?;
    let (mut insert_ms, mut delete_ms) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let rows: Vec<Vec<Value>> = client
            .fresh_batch()
            .iter()
            .map(|&(a, b)| vec![a, b])
            .collect();
        let delta = vec![("arc".to_string(), rows.clone())];
        let mut tx = db.transaction();
        ctx(
            "stage insert",
            tx.load_rows("arc", 2, rows.iter().map(Vec::as_slice)),
        )?;
        ctx("commit insert", tx.commit())?;
        let t = Instant::now();
        ctx("refresh insert", view.refresh(&db, &delta, &[]))?;
        insert_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let mut tx = db.transaction();
        ctx(
            "stage delete",
            tx.delete_rows("arc", 2, rows.iter().map(Vec::as_slice)),
        )?;
        ctx("commit delete", tx.commit())?;
        let t = Instant::now();
        ctx("refresh delete", view.refresh(&db, &[], &delta))?;
        delete_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.put(
        "core.view_refresh_insert_ms",
        median(&insert_ms).expect("5 reps"),
        "ms",
    );
    m.put(
        "core.view_refresh_delete_ms",
        median(&delete_ms).expect("5 reps"),
        "ms",
    );
    Ok(())
}
