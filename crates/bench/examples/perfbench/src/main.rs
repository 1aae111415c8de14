//! perfbench — the repo's one performance record.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S | --quick] [--trace [0|1]] [--out FILE]
//! perfbench --all [same options]        every workload, each in its own process
//! perfbench --compare A.json B.json     two result files, row by row
//! perfbench --self-check                the harness's own arithmetic
//! ```
//!
//! One run prints every metric as `name value unit` and ends with one JSON
//! object (`correct`, `attempted`, `failed`, `metrics`): the end-to-end
//! metrics with tracing off, the per-layer metrics with `--trace 1`. The
//! engine is driven only through public functions of the workspace crates
//! at their default configuration; the programs receive generated inputs
//! and nothing else. See README.md beside this package.

mod batch;
mod compare;
mod golden;
mod json;
mod kernels;
mod metrics;
mod selfcheck;
mod serve_mix;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use metrics::{Outcome, Tables};
use trace::Tracer;
use util::{ctx, Res, WorkDir};

pub const DEFAULT_SEED: u64 = 42;

pub struct Opts {
    pub seed: u64,
    /// Measuring time; iteration and round counts follow from it. The
    /// driver passes `run_seconds` of `BENCHMARK.json`, also the default.
    pub seconds: f64,
    pub trace: bool,
    /// No measuring time, minimum counts only: 1 warm-up + 3 iterations,
    /// 400 requests.
    pub quick: bool,
    out: Option<PathBuf>,
}

enum Mode {
    Workload(String),
    All,
    Compare(PathBuf, PathBuf),
    SelfCheck,
}

fn parse_args(args: &[String], tables: &Tables) -> Res<(Mode, Opts)> {
    let mut mode = None;
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        seconds: tables.run_seconds,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => mode = Some(Mode::Workload(value("a name")?)),
            "--all" => mode = Some(Mode::All),
            "--self-check" => mode = Some(Mode::SelfCheck),
            "--compare" => {
                let a = value("two files")?;
                mode = Some(Mode::Compare(a.into(), value("two files")?.into()));
            }
            "--seed" => opts.seed = ctx("--seed", value("a number")?.parse())?,
            "--seconds" => opts.seconds = ctx("--seconds", value("a number")?.parse())?,
            "--out" => opts.out = Some(value("a file")?.into()),
            "--quick" => opts.quick = true,
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if opts.quick {
        opts.seconds = 0.0;
    }
    if !(0.0..=600.0).contains(&opts.seconds) {
        return Err("--seconds must be between 0 and 600".into());
    }
    let mode = mode.ok_or("one of --workload, --all, --compare, --self-check is required")?;
    Ok((mode, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = Tables::load().and_then(|tables| {
        let (mode, opts) = parse_args(&args, &tables)?;
        match mode {
            Mode::Workload(name) => run_workload(&name, &opts, &tables),
            Mode::All => run_all(&args, &tables),
            Mode::Compare(a, b) => compare::run(&a, &b, &tables).map(|()| true),
            Mode::SelfCheck => selfcheck::run(&tables),
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // A run whose outputs were wrong has printed its result line with
        // `"correct": false`; the exit code says so too.
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--all`: one child process per workload, so `peak_rss_mb` and the
/// caches of one workload never leak into the next.
fn run_all(args: &[String], tables: &Tables) -> Res<bool> {
    let exe = ctx("locate own executable", std::env::current_exe())?;
    let rest: Vec<&String> = args.iter().filter(|a| *a != "--all").collect();
    let mut all_ok = true;
    for name in &tables.workloads {
        println!("== {name}");
        let status = ctx(
            "spawn workload",
            std::process::Command::new(&exe)
                .args(["--workload", name])
                .args(&rest)
                .status(),
        )?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn run_workload(name: &str, opts: &Opts, tables: &Tables) -> Res<bool> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The commit only where the checkout is a git repository; the
    // driver's checkout is not, and git must not wander above it.
    let commit = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short", "HEAD"])
    } else {
        "unknown".to_string()
    };
    let rustc = command_line("rustc", &["-V"]);
    println!(
        "# workload {name} seed {} seconds {} trace {} quick {} nproc {nproc} threads {} commit {commit} {rustc}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        u8::from(opts.quick),
        batch::threads(),
    );

    let work = WorkDir::create()?;
    let mut tracer = Tracer::new(opts.trace);
    let Outcome {
        mut metrics,
        attempted,
        failed,
    } = match batch::BATCH.iter().find(|b| b.name == name) {
        Some(spec) => batch::run(spec, opts, &work, &mut tracer)?,
        None if name == "serve_mix" => serve_mix::run(opts, &work, &mut tracer)?,
        None => {
            return Err(format!(
                "unknown workload '{name}' (have: {})",
                tables.workloads.join(", ")
            ))
        }
    };
    drop(work);
    if opts.trace {
        metrics.put("trace.overhead_frac", tracer.overhead_frac(), "ratio");
    }

    for (metric, value, unit) in metrics.iter() {
        println!("{metric} {value} {unit}");
    }
    println!(
        "failed_ops {} ratio",
        failed as f64 / attempted.max(1) as f64
    );

    if opts.trace {
        let path = util::output_root().join(format!("trace-{name}.tsv"));
        tracer.write(&path)?;
        println!(
            "# {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
        for (span, (count, total, own)) in trace::self_times(tracer.spans()) {
            println!(
                "span {span} count {count} total_s {:.6} self_s {:.6}",
                total as f64 / 1e9,
                own as f64 / 1e9
            );
        }
    }

    // The result line: every end-to-end metric untraced, every per-layer
    // metric traced; a layer the workload never entered reports 0.
    let wanted: Vec<(&str, &str)> = if opts.trace {
        tables
            .per_layer
            .iter()
            .map(|l| (l.0.as_str(), l.1.as_str()))
            .collect()
    } else {
        tables
            .end_to_end
            .iter()
            .map(|e| (e.name.as_str(), e.unit.as_str()))
            .collect()
    };
    let mut line = Vec::new();
    for (metric, unit) in wanted {
        let value = match metrics.get(metric) {
            // The tables are what BENCHMARK.json promises; a workload
            // measuring in another unit must not be relabelled silently.
            Some((_, measured)) if measured != unit => {
                return Err(format!(
                    "'{metric}' was measured in {measured}, the table says {unit}"
                ))
            }
            Some((v, _)) => v,
            None if opts.trace => 0.0,
            None => return Err(format!("end-to-end metric '{metric}' was not measured")),
        };
        line.push((
            metric,
            json::obj(vec![("value", json::num(value)), ("unit", json::str(unit))]),
        ));
    }
    let correct = failed == 0;
    if let Some(out) = &opts.out {
        let all = metrics
            .iter()
            .map(|(n, v, u)| {
                (
                    n.as_str(),
                    json::obj(vec![("value", json::num(*v)), ("unit", json::str(*u))]),
                )
            })
            .collect();
        append_run(
            out,
            json::obj(vec![
                ("workload", json::str(name)),
                ("seed", json::num(opts.seed as f64)),
                ("seconds", json::num(opts.seconds)),
                ("trace", Json::Bool(opts.trace)),
                ("quick", Json::Bool(opts.quick)),
                ("nproc", json::num(nproc as f64)),
                ("threads", json::num(batch::threads() as f64)),
                ("rustc", json::str(rustc)),
                ("commit", json::str(commit)),
                ("attempted", json::num(attempted as f64)),
                ("failed", json::num(failed as f64)),
                ("metrics", json::obj(all)),
            ]),
        )?;
    }
    println!(
        "{}",
        json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", json::num(attempted.max(1) as f64)),
            ("failed", json::num(failed as f64)),
            ("metrics", json::obj(line)),
        ])
    );
    Ok(correct)
}

/// Add one run to a result file, creating it if needed. Runs accumulate so
/// `--compare` sees a distribution per metric, not one number.
fn append_run(path: &Path, run: Json) -> Res<()> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text)
            .ok()
            .and_then(|doc| doc.get("runs").and_then(Json::as_arr).map(<[Json]>::to_vec))
            .ok_or_else(|| format!("{} is not a perfbench result file", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    runs.push(run);
    let lines: Vec<String> = runs.iter().map(Json::to_string).collect();
    let text = format!("{{\"runs\": [\n{}\n]}}\n", lines.join(",\n"));
    ctx(
        &format!("write {}", path.display()),
        std::fs::write(path, text),
    )
}
