//! The four batch workloads: the CLI-equivalent pass over a paper program,
//! cold (fresh database, `.facts` files, prepare, run, scan) and warm
//! (`run_shared` on the last database, index cache hot).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use recstep::{io, programs, Database, Engine, EvalStats, PreparedProgram, Value};
use recstep_baselines::naive::NaiveEngine;
use recstep_graphgen as graphgen;

use crate::golden;
use crate::kernels;
use crate::metrics::{Metrics, Outcome};
use crate::trace::Tracer;
use crate::util::{
    checksum_rows, ctx, fingerprint, median, repeat_for, scan_relation, timed_setups, write_facts,
    Res, Rng, WorkDir,
};
use crate::Opts;

type Edges = Vec<(Value, Value)>;
type Inputs = Vec<(&'static str, Edges)>;

pub struct BatchSpec {
    pub name: &'static str,
    pub program: &'static str,
    /// The measured input, made from the seed.
    generate: fn(u64) -> Inputs,
    /// A small input of the same family, checked against the naive
    /// oracle at set-up.
    miniature: fn(u64) -> Inputs,
}

pub const BATCH: &[BatchSpec] = &[
    BatchSpec {
        name: "tc_gnp",
        program: programs::TC,
        generate: |seed| {
            vec![(
                "arc",
                graphgen::as_values(&graphgen::gnp::gnp(4000, 0.002, seed)),
            )]
        },
        miniature: |seed| {
            vec![(
                "arc",
                graphgen::as_values(&graphgen::gnp::gnp(48, 0.12, seed)),
            )]
        },
    },
    BatchSpec {
        name: "cspa",
        program: programs::CSPA,
        generate: |seed| cspa_relabelled(12, 12, seed),
        miniature: |seed| cspa_relabelled(2, 10, seed),
    },
    BatchSpec {
        name: "cc_rmat",
        program: programs::CC,
        generate: |seed| {
            vec![(
                "arc",
                graphgen::as_values(&graphgen::rmat::rmat(200_000, 2_000_000, seed)),
            )]
        },
        miniature: |seed| {
            vec![(
                "arc",
                graphgen::as_values(&graphgen::rmat::rmat(256, 1024, seed)),
            )]
        },
    },
    BatchSpec {
        name: "tri_rmat",
        program: programs::TRIANGLE,
        generate: |seed| {
            vec![(
                "arc",
                graphgen::as_values(&graphgen::rmat::rmat(8000, 64_000, seed)),
            )]
        },
        miniature: |seed| {
            vec![(
                "arc",
                graphgen::as_values(&graphgen::rmat::rmat(64, 512, seed)),
            )]
        },
    },
];

/// CSPA's cost is heavy-tailed in the generator seed: the same
/// `cspa(12, 12)` shape spans 0.58–0.91 s over six seeds, depending on
/// which clusters the cross-cluster assigns happen to merge (and the
/// naive oracle on a `cspa(2, 10)` miniature 12–78 ms). A benchmark whose
/// work changes by half with the seed cannot resolve a change of a
/// quarter, so the structure is pinned and the seed relabels the
/// variables and shuffles the fact order: every seed does the same
/// derivations over different ids, hash positions and insertion orders.
fn cspa_relabelled(clusters: u32, cluster_size: u32, seed: u64) -> Inputs {
    const STRUCTURE_SEED: u64 = 42;
    let mut rng = Rng::new(seed, 0xc59a);
    let mut label: Vec<Value> = (0..(clusters * cluster_size) as Value).collect();
    rng.shuffle(&mut label);
    let c = graphgen::program_analysis::cspa(clusters, cluster_size, STRUCTURE_SEED);
    let mut inputs = vec![("assign", c.assign), ("dereference", c.dereference)];
    for (_, edges) in &mut inputs {
        for e in edges.iter_mut() {
            *e = (label[e.0 as usize], label[e.1 as usize]);
        }
        rng.shuffle(edges);
    }
    inputs
}

/// Share of `--seconds` spent on cold iterations; warm reruns get the rest.
const COLD_SHARE: f64 = 0.6;
/// Timed cold iterations and timed reruns, at least; all of `--quick`.
const MIN_TIMED: usize = 3;

/// Everything set-up leaves for the measured part.
pub struct Setup {
    pub engine: Engine,
    /// `(relation, .facts path)` per input relation.
    pub edbs: Vec<(&'static str, PathBuf)>,
    pub fingerprint: u64,
    /// The miniature agreed with the naive oracle.
    pub oracle_ok: bool,
}

/// Worker threads: the same for every workload, recorded in the result.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

fn set_up(spec: &BatchSpec, seed: u64, dir: &std::path::Path) -> Res<Setup> {
    let inputs = (spec.generate)(seed);
    let views: Vec<(&str, &[(Value, Value)])> =
        inputs.iter().map(|(n, e)| (*n, e.as_slice())).collect();
    let fingerprint = fingerprint(&views);
    let mut edbs = Vec::new();
    for (name, edges) in &inputs {
        let path = dir.join(format!("{name}.facts"));
        write_facts(&path, edges)?;
        edbs.push((*name, path));
    }
    let engine = ctx("build engine", Engine::builder().threads(threads()).build())?;
    ctx("prepare", engine.prepare(spec.program))?;
    let oracle_ok = miniature_agrees(spec, &engine, seed)?;
    Ok(Setup {
        engine,
        edbs,
        fingerprint,
        oracle_ok,
    })
}

/// Run the miniature through the engine and through `baselines::naive`
/// and compare every derived relation as a set.
fn miniature_agrees(spec: &BatchSpec, engine: &Engine, seed: u64) -> Res<bool> {
    let inputs = (spec.miniature)(seed);
    let prog = ctx("prepare miniature", engine.prepare(spec.program))?;
    let mut db = ctx("miniature db", Database::new())?;
    let mut naive = NaiveEngine::new();
    for (name, edges) in &inputs {
        ctx("load miniature", db.load_edges(name, edges))?;
        naive.load_edges(name, edges);
    }
    ctx("run miniature", prog.run(&mut db))?;
    ctx("run naive oracle", naive.run_source(spec.program))?;
    for name in prog.compiled().idb_names() {
        let got = db.relation(name).map_or((0, 0), |r| scan_relation(&r));
        let want = naive
            .rows(name)
            .map_or((0, 0), |rows| checksum_rows(rows.iter().map(Vec::as_slice)));
        if got != want {
            eprintln!("perfbench: miniature {name}: engine {got:?} != naive {want:?}");
            return Ok(false);
        }
    }
    Ok(true)
}

/// One cold iteration's readings.
struct Cold {
    wall: f64,
    load: f64,
    run: f64,
    scan: f64,
    rows_loaded: usize,
    stats: EvalStats,
    busy_ns: u64,
    /// `(rows, checksum)` summed over the derived relations.
    output: (usize, u64),
}

fn scan_outputs<'a>(
    prog: &PreparedProgram,
    relation: impl Fn(&str) -> Option<recstep::RelHandle<'a>>,
) -> (usize, u64) {
    prog.compiled()
        .idb_names()
        .filter_map(&relation)
        .map(|r| scan_relation(&r))
        .fold((0, 0u64), |a, b| (a.0 + b.0, a.1.wrapping_add(b.1)))
}

/// The CLI-equivalent pass, timed with one `Instant` pair: fresh database
/// → `.facts` files → prepare → run → scan every derived relation.
fn cold_iteration(
    spec: &BatchSpec,
    setup: &Setup,
    tracer: &mut Tracer,
    iteration: u32,
) -> Res<(Cold, Database, PreparedProgram)> {
    let t0 = Instant::now();
    let mut db = ctx("new database", Database::new())?;
    let mut rows_loaded = 0;
    for (name, path) in &setup.edbs {
        rows_loaded += ctx("load facts", io::load_facts_file(&mut db, name, 2, path))?;
    }
    let t_loaded = Instant::now();
    let prog = ctx("prepare", setup.engine.prepare(spec.program))?;
    let t_prepared = Instant::now();
    let busy0 = setup.engine.pool().busy_ns_total();
    let stats = ctx("run", prog.run(&mut db))?;
    let busy_ns = setup.engine.pool().busy_ns_total() - busy0;
    let t_ran = Instant::now();
    let output = scan_outputs(&prog, |n| db.relation(n));
    let t_end = Instant::now();
    let root = tracer.record("iteration", None, iteration, t0, t_end);
    tracer.record("io.load_facts", root, iteration, t0, t_loaded);
    tracer.record("datalog.prepare", root, iteration, t_loaded, t_prepared);
    tracer.record("core.run", root, iteration, t_prepared, t_ran);
    tracer.record("core.scan", root, iteration, t_ran, t_end);
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let cold = Cold {
        wall: secs(t0, t_end),
        load: secs(t0, t_loaded),
        run: secs(t_prepared, t_ran),
        scan: secs(t_ran, t_end),
        rows_loaded,
        stats,
        busy_ns,
        output,
    };
    Ok((cold, db, prog))
}

pub fn run(spec: &BatchSpec, opts: &Opts, work: &WorkDir, tracer: &mut Tracer) -> Res<Outcome> {
    let mut m = Metrics::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    let setup = timed_setups(&mut m, |rep| {
        set_up(spec, opts.seed, &work.subdir(&format!("facts-{rep}"))?)
    })?;
    attempted += 1;
    if !setup.oracle_ok {
        failed += 1;
    }
    // A generator edit must not silently change what is measured: at the
    // default seed the input and the output are pinned.
    let (golden, input_drifted) = golden::pinned(spec.name, opts.seed, setup.fingerprint);

    // Cold iterations.
    let budget = |share: f64| Duration::from_secs_f64(opts.seconds * share);
    let warmups = if opts.quick { 1 } else { 2 };
    let mut reference = None;
    let mut colds: Vec<Cold> = Vec::new();
    let mut last = None;
    let mut check = |out: (usize, u64), what: &str, failed: &mut u64| {
        let want = *reference.get_or_insert(out);
        if out != want {
            eprintln!(
                "perfbench: {}: {what} produced {out:?}, first iteration {want:?}",
                spec.name
            );
            *failed += 1;
        }
    };
    for i in 0..warmups {
        attempted += 1;
        drop(last.take()); // the previous database goes outside the timed pair
        let (cold, db, prog) = cold_iteration(spec, &setup, &mut Tracer::new(false), i)?;
        check(cold.output, "warm-up", &mut failed);
        last = Some((db, prog));
    }
    let measuring = Instant::now();
    repeat_for(budget(COLD_SHARE), MIN_TIMED, |i| {
        attempted += 1;
        drop(last.take());
        let (cold, db, prog) = cold_iteration(spec, &setup, tracer, i as u32)?;
        check(cold.output, "cold iteration", &mut failed);
        colds.push(cold);
        last = Some((db, prog));
        Ok(())
    })?;
    m.put_median_s("wall", &colds.iter().map(|c| c.wall).collect::<Vec<_>>());

    // Warm reruns over the last database.
    let (db, prog) = last.take().expect("at least one cold iteration");
    let mut reruns = Vec::new();
    let mut rerun_once = |timed: bool, failed: &mut u64| -> Res<()> {
        let t = Instant::now();
        let out = ctx("run_shared", prog.run_shared(&db))?;
        let output = scan_outputs(&prog, |n| out.relation(n));
        if timed {
            reruns.push(t.elapsed().as_secs_f64());
        }
        check(output, "run_shared", failed);
        Ok(())
    };
    attempted += 1;
    rerun_once(false, &mut failed)?;
    repeat_for(budget(1.0 - COLD_SHARE), MIN_TIMED, |_| {
        attempted += 1;
        rerun_once(true, &mut failed)
    })?;
    // Every workload reports a throughput; here an operation is a pass,
    // cold or warm (the untimed rerun too), and the seconds include
    // dropping the previous database between cold passes.
    let passes = colds.len() + 1 + reruns.len();
    m.put(
        "ops_per_s",
        passes as f64 / measuring.elapsed().as_secs_f64(),
        "1/s",
    );
    m.put_median_s("rerun", &reruns);
    m.put_peak_rss()?;

    let (rows, checksum) = reference.expect("at least one iteration");
    m.put("rows_out", rows as f64, "count");
    if let Some(g) = golden {
        attempted += 1;
        if !g.output_matches(rows as u64, checksum) {
            failed += 1;
        }
    }
    if opts.trace {
        layer_metrics(&mut m, &colds, setup.engine.pool().threads());
        let stats = &colds.last().expect("MIN_TIMED > 0").stats;
        kernels::batch(&mut m, spec.program, &setup.engine, &db, &prog, stats)?;
    }
    if input_drifted {
        failed = attempted;
    }
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
    })
}

/// The traced run's readings of `io` and `core`: medians of the cold
/// iterations for times, the last iteration for counts (they repeat).
fn layer_metrics(m: &mut Metrics, colds: &[Cold], threads: usize) {
    let med = |f: &dyn Fn(&Cold) -> f64| {
        median(&colds.iter().map(f).collect::<Vec<_>>()).expect("MIN_TIMED > 0")
    };
    let last = colds.last().expect("MIN_TIMED > 0");
    let s = &last.stats;

    let load = med(&|c| c.load);
    m.put("io.load_facts_s", load, "s");
    m.put("io.load_rows_per_s", last.rows_loaded as f64 / load, "1/s");
    m.put("core.run_s", med(&|c| c.run), "s");
    m.put("core.scan_s", med(&|c| c.scan), "s");
    type Phase = fn(&recstep::PhaseTimes) -> Duration;
    let phases: [(&str, Phase); 10] = [
        ("eval", |p| p.eval),
        ("pipeline", |p| p.pipeline),
        ("dedup", |p| p.dedup),
        ("setdiff", |p| p.setdiff),
        ("aggregate", |p| p.aggregate),
        ("merge", |p| p.merge),
        ("analyze", |p| p.analyze),
        ("index", |p| p.index),
        ("io", |p| p.io),
        ("pbme", |p| p.pbme),
    ];
    for (name, get) in phases {
        m.put(
            format!("core.phase.{name}_s"),
            med(&|c| get(&c.stats.phase).as_secs_f64()),
            "s",
        );
    }
    let coverage = med(&|c| {
        let sum: Duration = phases.iter().map(|(_, get)| get(&c.stats.phase)).sum();
        sum.as_secs_f64() / c.stats.total.as_secs_f64()
    });
    m.put("core.phase_coverage", coverage, "ratio");
    m.put(
        "core.phase_coverage_ok",
        f64::from(u8::from(coverage >= 0.95)),
        "flag",
    );
    m.put("core.iterations", s.iterations as f64, "count");
    m.put(
        "core.tuples_considered",
        s.tuples_considered as f64,
        "count",
    );
    m.put("core.rows_out", last.output.0 as f64, "count");
    m.put(
        "core.dup_ratio",
        s.rt_rows_skipped_at_source as f64 / (s.tuples_considered.max(1)) as f64,
        "ratio",
    );
    let ix = &s.index;
    for (name, v) in [
        ("join_builds", ix.join_builds),
        ("join_appends", ix.join_appends),
        ("join_reuses", ix.join_reuses),
        ("cache_hits", ix.cache_hits),
        ("cache_misses", ix.cache_misses),
        ("build_rows", ix.build_rows),
        ("append_rows", ix.append_rows),
    ] {
        m.put(format!("core.index.{name}"), v as f64, "count");
    }
    m.put(
        "core.wcoj_rows_emitted",
        s.wcoj_rows_emitted as f64,
        "count",
    );
    m.put(
        "core.agg_rows_folded",
        s.agg_rows_folded_at_source as f64,
        "count",
    );
    m.put(
        "core.peak_est_mb",
        s.peak_bytes as f64 / (1 << 20) as f64,
        "MiB",
    );
    m.put(
        "common.pool_busy_frac",
        med(&|c| c.busy_ns as f64 / 1e9 / (threads as f64 * c.run)),
        "ratio",
    );
}
