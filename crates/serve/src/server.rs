//! The query service: a long-lived server wrapping one [`Engine`] and one
//! [`Database`] behind an HTTP/JSON protocol.
//!
//! Three mechanisms make it a *service* rather than a loop around
//! [`PreparedProgram::run`]:
//!
//! 1. **Prepared-program cache.** Programs are keyed by normalized source
//!    text and compiled once ([`Engine::prepare`]); entries are LRU-evicted
//!    past [`ServeConfig::prepared_capacity`] and carry the catalog version
//!    of every relation they read, so a `/facts` commit invalidates exactly
//!    the plans built over the written relations — the rest stay hot.
//! 2. **Request batching.** Identical concurrent queries coalesce *before*
//!    admission: the first requester becomes the leader and runs the
//!    fixpoint; everyone else blocks on the in-flight entry and shares the
//!    leader's `Arc<RunOutput>`. One fixpoint, N responses — and followers
//!    hold no run permit, so batching never counts against
//!    [`ServeConfig::max_concurrent_runs`].
//! 3. **Admission control.** A counting semaphore caps concurrent
//!    evaluations; at most [`ServeConfig::queue_depth`] leaders wait for a
//!    permit and the rest are shed with `429 Retry-After`. Each request
//!    carries a wall-clock deadline enforced twice: while queued (the
//!    semaphore wait times out) and mid-run (a [`CancelToken`] aborts the
//!    fixpoint at its next iteration boundary with `Error::Cancelled`).
//!    Before a run starts, resident memory (stored relations + shared
//!    index cache) is checked against the engine budget; the index cache
//!    is spilled first ([`IndexCache::evict_to_fit`]) and only an
//!    uncoverable overage sheds the request.
//!
//! Shared runs go through [`PreparedProgram::run_shared`]'s copy-on-write
//! overlay, so `/query` never mutates the database and any number may
//! proceed concurrently; `/facts` takes the write side of one `RwLock`.
//! Warmup programs (``--warmup``) run *exclusively* at startup with
//! `publish_idb_indexes` on, seeding both the prepared cache and the
//! shared index cache — including full-relation indexes over their final
//! IDB results, which later programs reuse as inputs.
//!
//! With a data directory ([`ServeConfig::data_dir`]), every `/facts`
//! commit is WAL-logged *before* it is applied or acknowledged, and a
//! restart recovers snapshot-then-WAL-tail so `data_version` picks up
//! exactly where the last acked commit left it — see [`crate::durability`].
//! Evaluation and request routing both run under `catch_unwind`, so a
//! panicking fixpoint costs one `500` response (counted in `/stats` as
//! `panics`), never a worker thread.
//!
//! [`IndexCache::evict_to_fit`]: recstep::IndexCache::evict_to_fit

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};
use recstep::{
    Config, Database, Durability, Engine, Error, EvalStats, MaterializedView, PreparedProgram,
    RunOutput, ServeConfig,
};
use recstep_common::sched::{Admission, CancelToken, Semaphore};

use crate::durability::DurabilityState;
use crate::http::{read_request, Request, Response};
use crate::json::{self, Json};

/// How many recent request latencies the `/stats` percentiles cover.
const LATENCY_RING: usize = 1024;

/// Default cap on rows returned per relation when the request does not
/// set `"limit"`.
const DEFAULT_ROW_LIMIT: usize = 10_000;

/// Per-connection socket read timeout (guards against stalled clients,
/// not against slow evaluations — those have their own deadline).
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Normalize program text for use as a cache/batch key: trim each line
/// and drop blank ones. Line structure is preserved, so normalization
/// never changes what the parser sees.
pub fn normalize_program(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    for line in src.lines().map(str::trim).filter(|l| !l.is_empty()) {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(line);
    }
    out
}

/// One compiled program in the prepared cache.
struct PreparedEntry {
    prog: Arc<PreparedProgram>,
    /// Catalog version of every relation the program mentions, captured
    /// at compile time. The entry is fresh while they all still match —
    /// so a `/facts` commit to `edge` strands programs reading `edge`,
    /// not a program that only reads `arc`.
    reads: Vec<(String, u64)>,
    /// Last-use tick for LRU eviction.
    tick: u64,
}

/// The per-relation read set of a compiled program: every relation the
/// plan mentions, paired with its current catalog version. Conservative
/// (derived relations are listed too, and reset on every exclusive run),
/// but exact enough to keep unrelated `/facts` commits from stranding
/// prepared plans.
fn plan_reads(prog: &PreparedProgram, db: &Database) -> Vec<(String, u64)> {
    prog.compiled()
        .relations
        .iter()
        .map(|r| (r.name.clone(), db.relation_version(&r.name)))
        .collect()
}

/// Best-effort text of a panic payload (`&str` or `String` in practice;
/// anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

struct PreparedCache {
    entries: HashMap<String, PreparedEntry>,
    tick: u64,
    capacity: usize,
}

/// One standing materialized view in the view registry.
struct ViewEntry {
    view: MaterializedView,
    /// Immutable published contents; query batches share `Arc`s of this
    /// while the view itself stays mutable for the next refresh.
    published: Arc<RunOutput>,
    /// Data version the published contents reflect.
    version: u64,
    /// Last-use tick for LRU eviction.
    tick: u64,
}

/// Standing materialized views keyed by normalized program text — the
/// incremental sibling of the prepared-program cache. Every `/facts`
/// commit refreshes all entries inside the write critical section (see
/// [`ServerState::handle_facts`]), so a fresh entry always answers at the
/// current data version without re-running the fixpoint.
struct ViewRegistry {
    entries: HashMap<String, ViewEntry>,
    tick: u64,
    capacity: usize,
}

/// Either the shared run output or the HTTP error the whole batch gets.
type BatchResult = Result<Arc<RunOutput>, (u16, String)>;

/// One in-flight fixpoint; followers park on the condvar until the
/// leader publishes.
#[derive(Default)]
struct InFlight {
    done: Mutex<Option<BatchResult>>,
    cv: Condvar,
}

/// Monotonic service counters (all observable through `/stats`).
#[derive(Default)]
struct Counters {
    queries: AtomicU64,
    compiles: AtomicU64,
    prepared_hits: AtomicU64,
    prepared_evictions: AtomicU64,
    batch_joins: AtomicU64,
    shed_count: AtomicU64,
    timeouts: AtomicU64,
    cancelled_runs: AtomicU64,
    facts_commits: AtomicU64,
    /// Queries answered from a standing materialized view (no fixpoint).
    view_hits: AtomicU64,
    /// Runs (or handlers) that panicked and were isolated to a 500.
    panics: AtomicU64,
}

struct ServerState {
    engine: Engine,
    serve: ServeConfig,
    db: RwLock<Database>,
    /// Bumped by every `/facts` commit; part of the batch key (so batched
    /// results never straddle a write) and the version each commit is
    /// WAL-logged under.
    data_version: AtomicU64,
    prepared: Mutex<PreparedCache>,
    views: Mutex<ViewRegistry>,
    inflight: Mutex<HashMap<(String, u64), Arc<InFlight>>>,
    sem: Arc<Semaphore>,
    counters: Counters,
    /// Ring of recent request latencies in microseconds.
    latencies_us: Mutex<Vec<u64>>,
    /// Engine-lifetime aggregate of every completed run's [`EvalStats`].
    lifetime: Mutex<EvalStats>,
    /// WAL + snapshot state; `None` when running without a data dir or
    /// with `--durability off`.
    durability: Mutex<Option<DurabilityState>>,
}

impl ServerState {
    /// Full `/query` path: parse → batch-join → (leader only) prepare,
    /// admit, evaluate → render.
    fn handle_query(self: &Arc<Self>, body: &[u8]) -> Response {
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let req = match std::str::from_utf8(body)
            .map_err(|e| e.to_string())
            .and_then(Json::parse)
        {
            Ok(v) => v,
            Err(e) => return Response::error(400, &format!("bad request body: {e}")),
        };
        let Some(program) = req.get("program").and_then(Json::as_str) else {
            return Response::error(400, "missing \"program\" field");
        };
        let relation = req.get("relation").and_then(Json::as_str);
        let limit = req
            .get("limit")
            .and_then(Json::as_int)
            .map_or(DEFAULT_ROW_LIMIT, |n| n.max(0) as usize);
        let timeout_ms = req
            .get("timeout_ms")
            .and_then(Json::as_int)
            .map_or(self.serve.request_timeout_ms, |n| n.max(0) as u64);
        let deadline = start + Duration::from_millis(timeout_ms);

        let norm = normalize_program(program);
        if norm.is_empty() {
            return Response::error(400, "empty program");
        }
        let key = (norm, self.data_version.load(Ordering::SeqCst));

        // Batching join happens BEFORE admission: exactly one requester
        // per (program, data version) becomes the leader; late arrivals
        // attach to its in-flight entry and consume no run permit.
        let (flight, leader) = {
            let mut map = self.inflight.lock();
            match map.get(&key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(InFlight::default());
                    map.insert(key.clone(), Arc::clone(&f));
                    (f, true)
                }
            }
        };
        let result = if leader {
            let res = self.lead_query(&key.0, deadline);
            *flight.done.lock() = Some(res.clone());
            flight.cv.notify_all();
            // Retire the batch: the next identical request starts fresh.
            self.inflight.lock().remove(&key);
            res
        } else {
            self.counters.batch_joins.fetch_add(1, Ordering::Relaxed);
            let mut done = flight.done.lock();
            loop {
                if let Some(res) = done.as_ref() {
                    break res.clone();
                }
                if flight.cv.wait_until(&mut done, deadline).timed_out() && done.is_none() {
                    self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                    break Err((504, "cancelled: deadline passed while batched".into()));
                }
            }
        };

        match result {
            Ok(out) => {
                self.record_latency(start.elapsed());
                self.render_query(&out, relation, limit, start.elapsed(), !leader)
            }
            Err((429, msg)) => Response::shed(&msg, 1),
            Err((status, msg)) => Response::error(status, &msg),
        }
    }

    /// Leader-side work: serve a standing materialized view when one is
    /// current, else compile (or hit the prepared cache), pass admission
    /// control, evaluate with a deadline-carrying cancel token — and
    /// leave the result standing as a view for the next version bump.
    fn lead_query(&self, norm: &str, deadline: Instant) -> BatchResult {
        // View fast path, before admission: a fresh view answers without
        // running any fixpoint, so it consumes no run permit. Freshness
        // is exact — views are refreshed inside the `/facts` write
        // critical section, and `data_version` only moves under the
        // write lock this read lock excludes.
        if self.engine.config().incremental_views {
            let _db = self.db.read();
            let version = self.data_version.load(Ordering::SeqCst);
            let mut views = self.views.lock();
            views.tick += 1;
            let tick = views.tick;
            if let Some(entry) = views.entries.get_mut(norm) {
                if entry.version == version {
                    entry.tick = tick;
                    self.counters.view_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Arc::clone(&entry.published));
                }
                // A view that missed a refresh (it failed or panicked)
                // cannot catch up — the deltas are gone. Rebuild below.
                views.entries.remove(norm);
            }
        }

        let prog = match self.prepared_for(norm) {
            Ok(p) => p,
            Err(e) => return Err((400, e.to_string())),
        };

        let _permit = match self.sem.acquire(deadline) {
            Admission::Admitted(g) => g,
            Admission::QueueFull => {
                self.counters.shed_count.fetch_add(1, Ordering::Relaxed);
                return Err((429, "admission queue full".into()));
            }
            Admission::TimedOut => {
                self.counters.shed_count.fetch_add(1, Ordering::Relaxed);
                self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                return Err((429, "timed out waiting for a run permit".into()));
            }
        };

        let db = self.db.read();
        // Memory admission: spill the index cache before shedding work.
        let budget = self.engine.config().mem_budget_bytes;
        if budget > 0 {
            let cache = db.index_cache();
            if db.heap_bytes() + cache.resident_bytes() > budget {
                cache.evict_to_fit(budget.saturating_sub(db.heap_bytes()));
                if db.heap_bytes() + cache.resident_bytes() > budget {
                    self.counters.shed_count.fetch_add(1, Ordering::Relaxed);
                    return Err((429, "memory budget exhausted".into()));
                }
            }
        }

        let cancel = CancelToken::with_deadline(deadline);
        // The data version the run will reflect — stable while `db` is
        // read-locked, since commits store it under the write lock.
        let version = self.data_version.load(Ordering::SeqCst);
        // The fixpoint runs under catch_unwind so a poisoned run maps to
        // one 500 instead of a dead worker: the permit guard and the db
        // read lock release on unwind, and the leader still publishes to
        // its batch followers through the normal error path.
        let run = catch_unwind(AssertUnwindSafe(|| -> recstep::Result<Arc<RunOutput>> {
            if MaterializedView::eligible(&prog) {
                // Creating the view IS the evaluation; it then stands to
                // absorb future commits incrementally. Ineligible
                // programs (negation, aggregation, inline facts, or
                // ablated configs) keep the plain shared-run path — a
                // standing scratch view would only move their recompute
                // cost into the `/facts` critical section.
                let view =
                    MaterializedView::create_cancellable(Arc::clone(&prog), &db, Some(&cancel))?;
                let out = Arc::new(view.output());
                self.install_view(norm, view, Arc::clone(&out), version);
                Ok(out)
            } else {
                Ok(Arc::new(prog.run_shared_cancellable(&db, &cancel)?))
            }
        }));
        match run {
            Err(payload) => {
                self.counters.panics.fetch_add(1, Ordering::Relaxed);
                Err((
                    500,
                    format!("evaluation panicked: {}", panic_message(payload.as_ref())),
                ))
            }
            Ok(Ok(out)) => {
                self.lifetime.lock().merge(out.stats());
                Ok(out)
            }
            Ok(Err(Error::Cancelled)) => {
                self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                self.counters.cancelled_runs.fetch_add(1, Ordering::Relaxed);
                Err((
                    504,
                    "evaluation cancelled: request deadline exceeded".into(),
                ))
            }
            Ok(Err(e)) => Err((400, e.to_string())),
        }
    }

    /// Prepared-cache lookup: hit only when the text matches and every
    /// relation the plan reads is still at the catalog version captured
    /// at compile time — commits to relations the program never mentions
    /// leave the entry fresh. Otherwise compile and (re)insert,
    /// LRU-evicting past capacity. Compilation happens under the cache
    /// lock — concurrent leaders of *different* programs serialize
    /// briefly, while identical programs already coalesced upstream, so
    /// each text compiles once.
    fn prepared_for(&self, norm: &str) -> recstep::Result<Arc<PreparedProgram>> {
        let mut cache = self.prepared.lock();
        cache.tick += 1;
        let tick = cache.tick;
        if let Some(entry) = cache.entries.get_mut(norm) {
            let fresh = {
                let db = self.db.read();
                entry
                    .reads
                    .iter()
                    .all(|(name, v)| db.relation_version(name) == *v)
            };
            if fresh {
                entry.tick = tick;
                self.counters.prepared_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&entry.prog));
            }
        }
        let prog = Arc::new(self.engine.prepare(norm)?);
        self.counters.compiles.fetch_add(1, Ordering::Relaxed);
        let reads = plan_reads(&prog, &self.db.read());
        if !cache.entries.contains_key(norm) && cache.entries.len() >= cache.capacity {
            if let Some(victim) = cache
                .entries
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone())
            {
                cache.entries.remove(&victim);
                self.counters
                    .prepared_evictions
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        cache.entries.insert(
            norm.to_string(),
            PreparedEntry {
                prog: Arc::clone(&prog),
                reads,
                tick,
            },
        );
        Ok(prog)
    }

    /// Register (or replace) a standing view, LRU-evicting past capacity.
    fn install_view(
        &self,
        norm: &str,
        view: MaterializedView,
        published: Arc<RunOutput>,
        version: u64,
    ) {
        let mut views = self.views.lock();
        views.tick += 1;
        let tick = views.tick;
        if !views.entries.contains_key(norm) && views.entries.len() >= views.capacity {
            if let Some(victim) = views
                .entries
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone())
            {
                views.entries.remove(&victim);
            }
        }
        views.entries.insert(
            norm.to_string(),
            ViewEntry {
                view,
                published,
                version,
                tick,
            },
        );
    }

    fn render_query(
        &self,
        out: &RunOutput,
        relation: Option<&str>,
        limit: usize,
        elapsed: Duration,
        batched: bool,
    ) -> Response {
        let mut results = std::collections::BTreeMap::new();
        let render_one = |handle: recstep::RelHandle<'_>| {
            let rows: Vec<Json> = handle
                .iter_rows()
                .take(limit)
                .map(|r| Json::Arr(r.to_vec().into_iter().map(Json::Int).collect()))
                .collect();
            json::obj(vec![
                ("rows", Json::Arr(rows)),
                ("total", json::int(handle.len())),
            ])
        };
        match relation {
            Some(name) => match out.relation(name) {
                Some(h) => {
                    results.insert(name.to_string(), render_one(h));
                }
                None => return Response::error(404, &format!("run produced no relation '{name}'")),
            },
            None => {
                for (_, rel) in out.catalog().iter() {
                    let h = recstep::RelHandle::new(rel);
                    results.insert(h.name().to_string(), render_one(h));
                }
            }
        }
        let stats = out.stats();
        let body = json::obj(vec![
            ("ok", Json::Bool(true)),
            ("batched", Json::Bool(batched)),
            ("elapsed_us", json::int(elapsed.as_micros())),
            ("results", Json::Obj(results)),
            (
                "stats",
                json::obj(vec![
                    ("iterations", json::int(stats.iterations)),
                    ("tuples_considered", json::int(stats.tuples_considered)),
                    ("cache_hits", json::int(stats.index.cache_hits)),
                    ("cache_misses", json::int(stats.index.cache_misses)),
                ]),
            ),
        ]);
        Response::ok(body.to_string())
    }

    /// `/facts`: apply inserts and whole-tuple deletes in one
    /// [`recstep::Transaction`], then bump the data version so batched
    /// results and prepared plans built over the old data go stale.
    ///
    /// With durability on, the order is WAL-before-apply: stage (all
    /// validation happens here) → append + fsync the commit record →
    /// apply → publish the new `data_version` → acknowledge. A failed
    /// append drops the staged transaction, so nothing un-logged is ever
    /// visible; a logged-but-unapplied commit (crash or apply error
    /// between append and ack) is *not* acknowledged and replays into the
    /// same state at the next restart.
    fn handle_facts(&self, body: &[u8]) -> Response {
        let req = match std::str::from_utf8(body)
            .map_err(|e| e.to_string())
            .and_then(Json::parse)
        {
            Ok(v) => v,
            Err(e) => return Response::error(400, &format!("bad request body: {e}")),
        };
        let decode_rows = |v: &Json| -> Result<Vec<Vec<recstep::Value>>, String> {
            let rows = v.as_arr().ok_or("rows must be an array of arrays")?;
            rows.iter()
                .map(|row| {
                    row.as_arr()
                        .ok_or_else(|| "each row must be an array".to_string())?
                        .iter()
                        .map(|c| c.as_int().ok_or_else(|| "values must be integers".into()))
                        .collect()
                })
                .collect()
        };
        type Sections = Vec<(String, Vec<Vec<recstep::Value>>)>;
        let sections = |key: &str| -> Result<Sections, String> {
            match req.get(key) {
                None => Ok(Vec::new()),
                Some(Json::Obj(rels)) => rels
                    .iter()
                    .map(|(name, v)| Ok((name.clone(), decode_rows(v)?)))
                    .collect(),
                Some(_) => Err(format!("\"{key}\" must be an object of relation -> rows")),
            }
        };
        let (inserts, deletes) = match (sections("insert"), sections("delete")) {
            (Ok(i), Ok(d)) => (i, d),
            (Err(e), _) | (_, Err(e)) => return Response::error(400, &e),
        };
        if inserts.is_empty() && deletes.is_empty() {
            return Response::error(400, "nothing to apply: no \"insert\" or \"delete\"");
        }

        let mut db = self.db.write();
        let mut tx = db.transaction();
        let staged = inserts
            .iter()
            .try_for_each(|(name, rows)| match rows.first() {
                None => Ok(()),
                Some(first) => tx.load_rows(name, first.len(), rows.iter().map(Vec::as_slice)),
            })
            .and_then(|()| {
                deletes
                    .iter()
                    .try_for_each(|(name, rows)| match rows.first() {
                        None => Ok(()),
                        Some(first) => {
                            tx.delete_rows(name, first.len(), rows.iter().map(Vec::as_slice))
                        }
                    })
            });
        if let Err(e) = staged {
            return Response::error(400, &e.to_string());
        }

        let version = self.data_version.load(Ordering::SeqCst) + 1;
        if let Some(d) = self.durability.lock().as_mut() {
            if let Err(e) = d.append_commit(version, &inserts, &deletes) {
                // Not durable → not applied, not acknowledged. Dropping
                // `tx` here discards the staged rows.
                return Response::error(500, &format!("commit not logged: {e}"));
            }
        }
        if let Err(e) = tx.commit() {
            // The record is already durable but nothing was applied;
            // replay at the next restart converges. Do not acknowledge.
            return Response::error(500, &e.to_string());
        }
        self.data_version.store(version, Ordering::SeqCst);
        self.counters.facts_commits.fetch_add(1, Ordering::Relaxed);
        // Standing views absorb the commit inside the write critical
        // section: every entry leaves here either refreshed to `version`
        // or dropped. A refresh that fails or panics never leaves a
        // half-maintained view servable — the entry is removed and the
        // next query for that program rebuilds from scratch.
        if self.engine.config().incremental_views {
            let mut views = self.views.lock();
            views.entries.retain(|_, entry| {
                let refreshed = catch_unwind(AssertUnwindSafe(|| {
                    entry.view.refresh(&db, &inserts, &deletes)
                }));
                match refreshed {
                    Ok(Ok(())) => {
                        self.lifetime.lock().merge(entry.view.stats());
                        entry.published = Arc::new(entry.view.output());
                        entry.version = version;
                        true
                    }
                    Ok(Err(_)) => false,
                    Err(_) => {
                        self.counters.panics.fetch_add(1, Ordering::Relaxed);
                        false
                    }
                }
            });
        }
        if let Some(d) = self.durability.lock().as_mut() {
            // A failed snapshot never fails the (durable, applied) commit
            // it trails — the log just keeps growing until one succeeds.
            if let Err(e) = d.maybe_snapshot(&db, version) {
                eprintln!("recstep-serve: snapshot failed: {e}");
            }
        }
        Response::ok(
            json::obj(vec![
                ("ok", Json::Bool(true)),
                ("data_version", json::int(version)),
            ])
            .to_string(),
        )
    }

    fn handle_stats(&self) -> Response {
        let c = &self.counters;
        let (p50, p95, samples) = {
            let ring = self.latencies_us.lock();
            let mut sorted: Vec<u64> = ring.clone();
            sorted.sort_unstable();
            let pick = |q: f64| -> u64 {
                if sorted.is_empty() {
                    0
                } else {
                    sorted[((sorted.len() - 1) as f64 * q) as usize]
                }
            };
            (pick(0.50), pick(0.95), sorted.len())
        };
        let (prepared_entries, prepared_capacity) = {
            let cache = self.prepared.lock();
            (cache.entries.len(), cache.capacity)
        };
        let (view_entries, view_capacity, view_incremental) = {
            let views = self.views.lock();
            let incremental = views
                .entries
                .values()
                .filter(|e| e.view.incremental())
                .count();
            (views.entries.len(), views.capacity, incremental)
        };
        let (index_resident, index_entries) = {
            let db = self.db.read();
            (db.index_cache().resident_bytes(), db.index_cache().len())
        };
        let lifetime = {
            let l = self.lifetime.lock();
            json::obj(vec![
                ("strata", json::int(l.strata.len())),
                ("iterations", json::int(l.iterations)),
                ("tuples_considered", json::int(l.tuples_considered)),
                ("cache_hits", json::int(l.index.cache_hits)),
                ("cache_misses", json::int(l.index.cache_misses)),
                ("cache_evictions", json::int(l.index.cache_evictions)),
                ("published", json::int(l.index.published)),
                ("view_refreshes", json::int(l.view.view_refreshes)),
                ("view_seeded_strata", json::int(l.view.view_seeded_strata)),
                (
                    "view_counting_strata",
                    json::int(l.view.view_counting_strata),
                ),
                ("view_bf_strata", json::int(l.view.view_bf_strata)),
                ("view_fallbacks", json::int(l.view.view_fallbacks)),
                ("total_us", json::int(l.total.as_micros())),
            ])
        };
        let durability = {
            let dur = self.durability.lock();
            let (mode, s) = match dur.as_ref() {
                Some(d) => (d.mode().as_str(), d.stats()),
                None => (
                    "off",
                    crate::durability::DurabilityStats {
                        wal_records: 0,
                        wal_bytes: 0,
                        snapshots: 0,
                        recovered_records: 0,
                    },
                ),
            };
            json::obj(vec![
                ("mode", json::str(mode)),
                ("wal_records", json::int(s.wal_records)),
                ("wal_bytes", json::int(s.wal_bytes)),
                ("snapshots", json::int(s.snapshots)),
                ("recovered_records", json::int(s.recovered_records)),
            ])
        };
        let load = |a: &AtomicU64| json::int(a.load(Ordering::Relaxed));
        let body = json::obj(vec![
            ("ok", Json::Bool(true)),
            ("queries", load(&c.queries)),
            ("compiles", load(&c.compiles)),
            ("prepared_hits", load(&c.prepared_hits)),
            ("prepared_evictions", load(&c.prepared_evictions)),
            ("batch_joins", load(&c.batch_joins)),
            ("shed_count", load(&c.shed_count)),
            ("timeouts", load(&c.timeouts)),
            ("cancelled_runs", load(&c.cancelled_runs)),
            ("facts_commits", load(&c.facts_commits)),
            ("view_hits", load(&c.view_hits)),
            ("panics", load(&c.panics)),
            (
                "data_version",
                json::int(self.data_version.load(Ordering::SeqCst)),
            ),
            ("run_permits", json::int(self.sem.permits())),
            (
                "prepared_cache",
                json::obj(vec![
                    ("entries", json::int(prepared_entries)),
                    ("capacity", json::int(prepared_capacity)),
                ]),
            ),
            (
                "views",
                json::obj(vec![
                    ("entries", json::int(view_entries)),
                    ("incremental", json::int(view_incremental)),
                    ("capacity", json::int(view_capacity)),
                ]),
            ),
            (
                "index_cache",
                json::obj(vec![
                    ("resident_bytes", json::int(index_resident)),
                    ("entries", json::int(index_entries)),
                ]),
            ),
            (
                "latency",
                json::obj(vec![
                    ("samples", json::int(samples)),
                    ("p50_us", json::int(p50)),
                    ("p95_us", json::int(p95)),
                ]),
            ),
            ("durability", durability),
            ("lifetime", lifetime),
        ]);
        Response::ok(body.to_string())
    }

    fn record_latency(&self, elapsed: Duration) {
        let mut ring = self.latencies_us.lock();
        if ring.len() >= LATENCY_RING {
            let drop_front = ring.len() - LATENCY_RING + 1;
            ring.drain(..drop_front);
        }
        ring.push(elapsed.as_micros().min(u64::MAX as u128) as u64);
    }
}

fn handle_connection(state: &Arc<ServerState>, mut stream: TcpStream) {
    let req = match read_request(&mut stream, IO_TIMEOUT) {
        Ok(r) => r,
        Err(e) => {
            let _ = Response::error(e.status, &e.reason).write(&mut stream);
            return;
        }
    };
    // A panicking handler must not take its worker thread down — the
    // worker loop owns accept() for the server's whole lifetime.
    let resp = match catch_unwind(AssertUnwindSafe(|| route(state, &req))) {
        Ok(r) => r,
        Err(_) => {
            state.counters.panics.fetch_add(1, Ordering::Relaxed);
            Response::error(500, "internal error: request handler panicked")
        }
    };
    let _ = resp.write(&mut stream);
}

fn route(state: &Arc<ServerState>, req: &Request) -> Response {
    let path = req.path.split('?').next().unwrap_or("");
    match (req.method.as_str(), path) {
        ("POST", "/query") => state.handle_query(&req.body),
        ("POST", "/facts") => state.handle_facts(&req.body),
        ("GET", "/stats") => state.handle_stats(),
        ("GET", "/healthz") => Response::ok("{\"ok\":true}".to_string()),
        (_, "/query" | "/facts") => Response::error(405, "use POST"),
        (_, "/stats" | "/healthz") => Response::error(405, "use GET"),
        _ => Response::error(404, &format!("no such route: {path}")),
    }
}

/// A running query service. Dropping (or calling [`Server::shutdown`])
/// stops accepting, wakes the workers and joins them.
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Build the engine, run warmup programs, bind the listener and start
    /// the worker threads. `cfg.addr` may use port 0 to let the OS pick
    /// (see [`Server::addr`] for the resolved address).
    ///
    /// Warmup programs evaluate **exclusively** over the database with
    /// `publish_idb_indexes` forced on: their IDB results land in the
    /// database and full-relation indexes over those results are published
    /// into the shared index cache, so the first client request starts
    /// against hot caches.
    pub fn start(
        engine_cfg: Config,
        cfg: ServeConfig,
        mut db: Database,
    ) -> recstep::Result<Server> {
        // The service owns the only exclusive-run path (warmup), and
        // exclusive runs are the only publisher, so turning publication on
        // engine-wide is safe: shared runs skip it by construction.
        let engine = Engine::from_config(engine_cfg.publish_idb_indexes(true))?;

        // Recover durable state before warmup, so warmup programs run
        // over the restored facts. On a fresh data dir this also writes
        // an initial snapshot covering anything preloaded into `db`.
        let mut durability = None;
        let mut data_version = 0u64;
        if cfg.durability != Durability::Off {
            if let Some(dir) = &cfg.data_dir {
                let (d, v) = DurabilityState::open(
                    Path::new(dir),
                    cfg.durability,
                    cfg.snapshot_every_n_commits,
                    &mut db,
                )?;
                durability = Some(d);
                data_version = v;
            }
        }

        let mut lifetime = EvalStats::default();
        let mut compiles = 0u64;
        let mut warmed = Vec::new();
        for path in &cfg.warmup {
            let src = std::fs::read_to_string(path)
                .map_err(|e| Error::exec(format!("warmup {path}: {e}")))?;
            let norm = normalize_program(&src);
            let prog = Arc::new(engine.prepare(&norm)?);
            compiles += 1;
            let stats = prog.run(&mut db)?;
            lifetime.merge(&stats);
            warmed.push((norm, prog));
        }
        // Read sets are captured after ALL warmup runs: each exclusive run
        // bumps the versions of the relations it derives, so capturing
        // eagerly would strand earlier entries on later runs' writes.
        let view_capacity = cfg.prepared_capacity.max(1);
        let mut prepared = PreparedCache {
            entries: HashMap::new(),
            tick: 0,
            capacity: cfg.prepared_capacity.max(1),
        };
        for (norm, prog) in warmed {
            prepared.tick += 1;
            let tick = prepared.tick;
            let reads = plan_reads(&prog, &db);
            prepared
                .entries
                .insert(norm, PreparedEntry { prog, reads, tick });
        }

        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| Error::exec(format!("bind {}: {e}", cfg.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::exec(format!("local_addr: {e}")))?;

        let sem = Semaphore::new(cfg.max_concurrent_runs, cfg.queue_depth);
        // Enough workers that a full run queue plus batched followers and
        // a monitoring probe never starve on accept.
        let n_workers = (cfg.max_concurrent_runs + cfg.queue_depth + 4).clamp(2, 32);
        let state = Arc::new(ServerState {
            engine,
            serve: cfg,
            db: RwLock::new(db),
            data_version: AtomicU64::new(data_version),
            prepared: Mutex::new(prepared),
            views: Mutex::new(ViewRegistry {
                entries: HashMap::new(),
                tick: 0,
                capacity: view_capacity,
            }),
            inflight: Mutex::new(HashMap::new()),
            sem,
            counters: Counters {
                compiles: AtomicU64::new(compiles),
                ..Counters::default()
            },
            latencies_us: Mutex::new(Vec::new()),
            lifetime: Mutex::new(lifetime),
            durability: Mutex::new(durability),
        });

        let stop = Arc::new(AtomicBool::new(false));
        let listener = Arc::new(listener);
        let workers = (0..n_workers)
            .map(|i| {
                let state = Arc::clone(&state);
                let listener = Arc::clone(&listener);
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("recstep-serve-{i}"))
                    .spawn(move || {
                        while !stop.load(Ordering::SeqCst) {
                            match listener.accept() {
                                Ok((stream, _)) => {
                                    if stop.load(Ordering::SeqCst) {
                                        break;
                                    }
                                    handle_connection(&state, stream);
                                }
                                Err(_) => {
                                    if stop.load(Ordering::SeqCst) {
                                        break;
                                    }
                                }
                            }
                        }
                    })
                    .expect("spawn server worker")
            })
            .collect();

        Ok(Server {
            state,
            addr,
            stop,
            workers,
        })
    }

    /// The bound address (resolves port 0 to the OS-assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admission semaphore. Exposed so harnesses can hold permits and
    /// drive the queue/shed/batching paths deterministically.
    pub fn semaphore(&self) -> Arc<Semaphore> {
        Arc::clone(&self.state.sem)
    }

    /// Stop accepting, wake every worker and join them.
    pub fn shutdown(mut self) {
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            // Each worker may be parked in accept(); one self-connection
            // per worker unblocks them all.
            for _ in &self.workers {
                let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
            }
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Batch mode defers fsync; flush the log once the workers (and
        // therefore every in-flight commit) are done.
        if let Some(d) = self.state.durability.lock().as_mut() {
            let _ = d.sync();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_preserves_lines() {
        let src = "  tc(x, y) :- arc(x, y).  \n\n   tc(x, y) :- tc(x, z), arc(z, y).\n";
        let norm = normalize_program(src);
        assert_eq!(
            norm,
            "tc(x, y) :- arc(x, y).\ntc(x, y) :- tc(x, z), arc(z, y)."
        );
        assert_eq!(normalize_program(&norm), norm);
        assert_eq!(normalize_program("  \n \n"), "");
    }

    #[test]
    fn server_answers_health_and_sheds_cleanly() {
        let mut db = Database::new().unwrap();
        db.load_edges("arc", &[(0, 1), (1, 2)]).unwrap();
        let server = Server::start(
            Config::default().threads(1),
            ServeConfig::default().addr("127.0.0.1:0").queue_depth(0),
            db,
        )
        .unwrap();
        let addr = server.addr();
        let (status, body) = crate::client::get(addr, "/healthz").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("true"));
        // Unknown route and wrong method are clean errors.
        assert_eq!(crate::client::get(addr, "/nope").unwrap().0, 404);
        assert_eq!(crate::client::post(addr, "/stats", "{}").unwrap().0, 405);
        server.shutdown();
    }
}
