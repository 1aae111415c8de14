//! The `recstep` command-line interface.
//!
//! Two modes share one flag surface:
//!
//! ```text
//! recstep PROGRAM.datalog [OPTIONS]     one-shot evaluation (paper §4)
//! recstep serve [OPTIONS]               long-lived HTTP/JSON query service
//!
//! Options:
//!   --facts DIR       directory with <input>.facts files      [default: .]
//!   --out DIR         directory for <output>.csv files        [default: ./out]
//!   --threads N       worker threads (0 = all cores)          [default: 0]
//!   --budget-mb MB    memory budget                           [default: 8192]
//!   --explain         print the generated SQL and exit
//!   --no-uie | --no-eost | --no-pbme | --oof-na | --oof-fa
//!   --dedup-generic | --setdiff-opsd | --setdiff-tpsd | --no-index-reuse
//!   --no-fused-pipeline | --no-fused-agg | --no-shared-index-cache
//!   --no-wcoj
//!                     turn individual optimizations off (the paper's
//!                     Figure 2 ablation switches, the persistent
//!                     incremental-index toggle, the fused streaming
//!                     delta pipeline toggle, the group-at-source
//!                     streaming aggregation toggle, and the shared
//!                     cross-run index cache toggle)
//!   --index-cache-budget MB
//!                     resident budget of the shared index cache
//!                     [default: 2048]
//!   --stats           print the evaluation statistics report (per-phase
//!                     pipeline timers and shared-cache counters included)
//!
//! Serve-mode options:
//!   --addr HOST:PORT  listen address                 [default: 127.0.0.1:7171]
//!   --max-concurrent-runs N
//!                     evaluations in flight at once             [default: 2]
//!   --queue-depth N   requests allowed to wait for a run permit;
//!                     the rest are shed with 429 Retry-After   [default: 32]
//!   --request-timeout-ms MS
//!                     per-request deadline (queue wait + evaluation;
//!                     over-budget fixpoints are cancelled)  [default: 30000]
//!   --warmup FILE     program evaluated at startup to pre-warm the
//!                     prepared-program and shared index caches (repeat
//!                     for several; their .input facts load from --facts)
//!   --data-dir DIR    durable state directory: /facts commits are
//!                     WAL-logged before they are acknowledged, and a
//!                     restart recovers snapshot + WAL tail from here
//!   --durability MODE off | commit | batch          [default: commit]
//!                     commit fsyncs the WAL on every /facts commit;
//!                     batch defers fsync to snapshots and shutdown;
//!                     off disables the WAL entirely
//!   --snapshot-every-n-commits N
//!                     WAL commits between snapshot + log compaction
//!                     (0 = never snapshot after boot)      [default: 64]
//! ```
//!
//! In serve mode every `<name>.facts` file found in `--facts` is loaded
//! into the database at startup — unless `--data-dir` already holds
//! recovered state, which then takes precedence; clients then POST
//! Datalog programs to `/query` and fact deltas to `/facts` (see
//! `docs/flags.md` and the README quickstart). Fault-injection points
//! for crash testing are armed via the `RECSTEP_FAILPOINTS` environment
//! variable (see `recstep_common::fail`).
//!
//! The program is compiled exactly once (`Engine::prepare`); evaluation
//! and the `--explain` rendering both reuse that compilation. The service
//! keeps that guarantee per program text via its prepared-program cache.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use recstep::io::run_datalog_file;
use recstep::{
    Config, Database, DedupImpl, Engine, OofMode, PbmeMode, ServeConfig, SetDiffStrategy,
};
use recstep_serve::Server;

struct Args {
    program: Option<PathBuf>,
    facts: PathBuf,
    out: PathBuf,
    cfg: Config,
    serve: Option<ServeConfig>,
    explain: bool,
    stats: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: recstep PROGRAM.datalog [--facts DIR] [--out DIR] [--threads N] \
         [--budget-mb MB] [--explain] [--stats] [--no-uie] [--no-eost] [--no-pbme] \
         [--oof-na] [--oof-fa] [--dedup-generic] [--setdiff-opsd] [--setdiff-tpsd] \
         [--no-index-reuse] [--no-fused-pipeline] [--no-fused-agg] [--no-wcoj] \
         [--no-shared-index-cache] [--index-cache-budget MB] [--no-incremental]\n\
         \x20      recstep serve [--addr HOST:PORT] [--max-concurrent-runs N] \
         [--queue-depth N] [--request-timeout-ms MS] [--warmup FILE]... \
         [--data-dir DIR] [--durability off|commit|batch] \
         [--snapshot-every-n-commits N] [--facts DIR] [engine options]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut program = None;
    let mut facts = PathBuf::from(".");
    let mut out = PathBuf::from("./out");
    let mut cfg = Config::default();
    let mut serve: Option<ServeConfig> = None;
    let mut explain = false;
    let mut stats = false;
    let mut it = std::env::args().skip(1).peekable();
    // Subcommand comes first: `recstep serve [options]`.
    if it.peek().map(String::as_str) == Some("serve") {
        it.next();
        serve = Some(ServeConfig::default());
    }
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {what}");
                usage()
            })
        };
        match arg.as_str() {
            "--facts" => facts = PathBuf::from(value("--facts")),
            "--out" => out = PathBuf::from(value("--out")),
            "--threads" => cfg.threads = value("--threads").parse().unwrap_or_else(|_| usage()),
            "--budget-mb" => {
                cfg.mem_budget_bytes = value("--budget-mb")
                    .parse::<usize>()
                    .unwrap_or_else(|_| usage())
                    << 20
            }
            "--explain" => explain = true,
            "--stats" => stats = true,
            "--no-uie" => cfg.uie = false,
            "--no-eost" => cfg.eost = false,
            "--no-pbme" => cfg.pbme = PbmeMode::Off,
            "--oof-na" => cfg.oof = OofMode::None,
            "--oof-fa" => cfg.oof = OofMode::Full,
            "--dedup-generic" => cfg.dedup = DedupImpl::Generic,
            "--setdiff-opsd" => cfg.setdiff = SetDiffStrategy::AlwaysOpsd,
            "--setdiff-tpsd" => cfg.setdiff = SetDiffStrategy::AlwaysTpsd,
            "--no-index-reuse" => cfg.index_reuse = false,
            "--no-fused-pipeline" => cfg.fused_pipeline = false,
            "--no-fused-agg" => cfg.fused_agg = false,
            "--no-wcoj" => cfg.wcoj = false,
            "--no-shared-index-cache" => cfg.shared_index_cache = false,
            "--no-incremental" => cfg.incremental_views = false,
            "--index-cache-budget" => {
                cfg.index_cache_budget_bytes = value("--index-cache-budget")
                    .parse::<usize>()
                    .unwrap_or_else(|_| usage())
                    << 20
            }
            "--addr" => {
                let v = value("--addr");
                require_serve(&mut serve, "--addr").addr = v;
            }
            "--max-concurrent-runs" => {
                let n: usize = value("--max-concurrent-runs")
                    .parse()
                    .unwrap_or_else(|_| usage());
                require_serve(&mut serve, "--max-concurrent-runs").max_concurrent_runs = n.max(1);
            }
            "--queue-depth" => {
                let n = value("--queue-depth").parse().unwrap_or_else(|_| usage());
                require_serve(&mut serve, "--queue-depth").queue_depth = n;
            }
            "--request-timeout-ms" => {
                let ms = value("--request-timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| usage());
                require_serve(&mut serve, "--request-timeout-ms").request_timeout_ms = ms;
            }
            "--warmup" => {
                let path = value("--warmup");
                require_serve(&mut serve, "--warmup").warmup.push(path);
            }
            "--data-dir" => {
                let dir = value("--data-dir");
                require_serve(&mut serve, "--data-dir").data_dir = Some(dir);
            }
            "--durability" => {
                let v = value("--durability");
                let mode = recstep::Durability::parse(&v).unwrap_or_else(|| {
                    eprintln!("--durability takes off, commit or batch; got {v}");
                    usage()
                });
                require_serve(&mut serve, "--durability").durability = mode;
            }
            "--snapshot-every-n-commits" => {
                let n = value("--snapshot-every-n-commits")
                    .parse()
                    .unwrap_or_else(|_| usage());
                require_serve(&mut serve, "--snapshot-every-n-commits").snapshot_every_n_commits =
                    n;
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown option {other}");
                usage();
            }
            other => {
                if program.replace(PathBuf::from(other)).is_some() {
                    eprintln!("multiple program files given");
                    usage();
                }
            }
        }
    }
    if serve.is_none() && program.is_none() {
        usage();
    }
    if serve.is_some() && program.is_some() {
        eprintln!("serve mode takes no program file; use --warmup FILE");
        usage();
    }
    Args {
        program,
        facts,
        out,
        cfg,
        serve,
        explain,
        stats,
    }
}

/// Serve-mode flags reject cleanly outside `recstep serve`.
fn require_serve<'a>(serve: &'a mut Option<ServeConfig>, flag: &str) -> &'a mut ServeConfig {
    match serve {
        Some(s) => s,
        None => {
            eprintln!("{flag} is only valid after `recstep serve`");
            usage()
        }
    }
}

/// Load every `<name>.facts` file in `dir` (arity sniffed from the first
/// fact line; empty files are skipped).
fn preload_facts_dir(db: &mut Database, dir: &Path) -> Result<Vec<(String, usize)>, String> {
    let mut loaded = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok(loaded), // missing dir: start empty
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("facts") {
            continue;
        }
        let Some(name) = path
            .file_stem()
            .and_then(|s| s.to_str())
            .map(str::to_string)
        else {
            continue;
        };
        let Some(arity) = recstep::io::sniff_facts_arity(&path).map_err(|e| e.to_string())? else {
            continue;
        };
        let n = recstep::io::load_facts_file(db, &name, arity, &path).map_err(|e| e.to_string())?;
        loaded.push((name, n));
    }
    Ok(loaded)
}

fn serve_main(args: Args, serve: ServeConfig) -> ExitCode {
    let mut db = match Database::new() {
        Ok(db) => db,
        Err(e) => {
            eprintln!("recstep: {e}");
            return ExitCode::FAILURE;
        }
    };
    // On a restart with durable state, the snapshot + WAL are the truth;
    // preloading .facts files again would double-apply them on top of the
    // recovered relations. Fresh data dirs still preload (and the initial
    // snapshot then makes the preload itself durable).
    let recovering = serve.durability != recstep::Durability::Off
        && serve
            .data_dir
            .as_ref()
            .is_some_and(|d| recstep::wal::dir_has_state(Path::new(d)));
    if recovering {
        println!(
            "recovering from {} (skipping .facts preload)",
            serve.data_dir.as_deref().unwrap_or_default()
        );
    } else {
        match preload_facts_dir(&mut db, &args.facts) {
            Ok(loaded) => {
                for (name, rows) in &loaded {
                    println!("loaded {name}: {rows} facts");
                }
            }
            Err(e) => {
                eprintln!("recstep: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let server = match Server::start(args.cfg, serve, db) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("recstep: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("recstep-serve listening on http://{}", server.addr());
    // Serve until the process is killed (the CI smoke test and systemd
    // both stop us with a signal; there is no in-band shutdown route).
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(serve) = args.serve.clone() {
        return serve_main(args, serve);
    }
    let program = args.program.clone().expect("checked in parse_args");
    let src = match std::fs::read_to_string(&program) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("recstep: cannot read {}: {e}", program.display());
            return ExitCode::FAILURE;
        }
    };
    // --explain only renders SQL: compile without spawning any workers.
    let engine = {
        let mut cfg = args.cfg;
        if args.explain {
            cfg.threads = 1;
        }
        match Engine::from_config(cfg) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("recstep: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    // Compile once; --explain and evaluation both reuse this.
    let prepared = match engine.prepare(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("recstep: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.explain {
        println!(
            "-- index_reuse: {}",
            if engine.config().index_reuse {
                "on (persistent incremental indexes)"
            } else {
                "off (per-iteration rebuild)"
            }
        );
        println!(
            "-- fused_pipeline: {}",
            if engine.config().fused_pipeline {
                "on (dedup/set-difference at the join probe; Rt never materialized; \
                 SELECT DISTINCT chain stages deduped on the pipe)"
            } else {
                "off (materialize Rt, drain it through the sink in a second pass; \
                 SELECT DISTINCT chain stages run as UNION ALL)"
            }
        );
        println!(
            "-- fused_agg: {}",
            if engine.config().fused_agg {
                "on (aggregated heads group at source; pre-agg Rt never materialized)"
            } else {
                "off (group over a materialized pre-aggregation Rt)"
            }
        );
        println!(
            "-- shared_index_cache: {}",
            if engine.config().shared_index_cache {
                "on (frozen-relation join indexes shared across runs)"
            } else {
                "off (per-run indexes)"
            }
        );
        println!("{}", prepared.explain_sql());
        return ExitCode::SUCCESS;
    }
    let mut db = match Database::new() {
        Ok(db) => db,
        Err(e) => {
            eprintln!("recstep: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run_datalog_file(&prepared, &mut db, &args.facts, &args.out) {
        Ok((stats_out, written)) => {
            for (name, rows) in &written {
                println!("{name}: {rows} rows -> {}/{name}.csv", args.out.display());
            }
            if args.stats {
                println!("\nstrata: {}", stats_out.strata.len());
                println!("iterations: {}", stats_out.iterations);
                println!("queries issued: {}", stats_out.queries_issued);
                println!("tuples considered: {}", stats_out.tuples_considered);
                println!(
                    "chain intermediates: {} rows offered, {} kept",
                    stats_out.intermediate_rows_offered, stats_out.intermediate_rows_kept
                );
                println!(
                    "set difference: {} OPSD / {} TPSD / {} fused ({} streaming)",
                    stats_out.opsd_runs,
                    stats_out.tpsd_runs,
                    stats_out.fused_runs,
                    stats_out.pipeline_runs
                );
                println!(
                    "fused pipeline: {} rows skipped at source, {} bytes never \
                     materialized; rt merge bytes: {}",
                    stats_out.rt_rows_skipped_at_source,
                    stats_out.rt_bytes_never_materialized,
                    stats_out.rt_merge_bytes
                );
                println!(
                    "streaming aggregation: {} sink passes ({} dense), {} rows \
                     folded at source, {} groups improved, {} sampled stat rows",
                    stats_out.agg_sink_runs,
                    stats_out.agg_dense_sinks,
                    stats_out.agg_rows_folded_at_source,
                    stats_out.agg_groups_improved,
                    stats_out.sink_stat_samples
                );
                println!(
                    "sink tables: {} directory doublings",
                    stats_out.sink_table_doublings
                );
                println!(
                    "worst-case optimal joins: {} runs, {} rows emitted",
                    stats_out.wcoj_runs, stats_out.wcoj_rows_emitted
                );
                println!(
                    "index tables: {} full builds / {} appends / {} scratch; \
                     joins {} built / {} appended / {} reused; peak {} bytes",
                    stats_out.index.full_builds,
                    stats_out.index.full_appends,
                    stats_out.index.scratch_builds,
                    stats_out.index.join_builds,
                    stats_out.index.join_appends,
                    stats_out.index.join_reuses,
                    stats_out.index.bytes_peak
                );
                println!(
                    "shared index cache: {} hits / {} misses / {} evictions; \
                     {} resident bytes ({} published)",
                    stats_out.index.cache_hits,
                    stats_out.index.cache_misses,
                    stats_out.index.cache_evictions,
                    stats_out.index.cache_bytes,
                    stats_out.index.published
                );
                println!("peak bytes (engine estimate): {}", stats_out.peak_bytes);
                println!(
                    "io (counted, not written): {} bytes in {} flushes",
                    stats_out.io_bytes, stats_out.io_flushes
                );
                println!("pbme: {}", stats_out.strata.iter().any(|s| s.pbme));
                let p = &stats_out.phase;
                println!(
                    "phase: pipeline {:?} / eval {:?} / dedup {:?} / setdiff {:?} / \
                     aggregate {:?} / merge {:?} / analyze {:?} / index {:?} / pbme {:?}",
                    p.pipeline,
                    p.eval,
                    p.dedup,
                    p.setdiff,
                    p.aggregate,
                    p.merge,
                    p.analyze,
                    p.index,
                    p.pbme
                );
                println!("total: {:?}", stats_out.total);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("recstep: {e}");
            ExitCode::FAILURE
        }
    }
}
