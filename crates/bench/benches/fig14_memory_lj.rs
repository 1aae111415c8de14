//! Figure 14: memory consumption of REACH / CC / SSSP on livejournal-sim.

use recstep::{Config, PbmeMode};
use recstep_baselines::setbased::SetEngine;
use recstep_bench::*;
use recstep_common::mem::{self, CountingAlloc};
use recstep_graphgen::{as_values, realworld, with_weights};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let s = scale();
    let spec = realworld::paper_realworld_specs(s.saturating_mul(60).max(60))[0];
    let raw = spec.generate(7);
    let src = source_vertices(spec.n, 1)[0];
    header(
        "Figure 14",
        &format!(
            "Memory consumption on {} (n={}, m={})",
            spec.name, spec.n, spec.m
        ),
    );
    row(&cells(&["workload", "system", "time", "peak alloc"]));
    for workload in ["REACH", "CC", "SSSP"] {
        // RecStep. (run_workload resets the peak counter itself, after
        // engine construction and loading.)
        {
            let out = run_workload(
                Config::default().pbme(PbmeMode::Off).threads(max_threads()),
                workload,
                &raw,
                src,
            );
            row(&[
                workload.into(),
                "RecStep".into(),
                out.cell(),
                mem::fmt_bytes(mem::peak_bytes()),
            ]);
        }
        // BigDatalog-like.
        {
            let out = run_workload(Config::no_op().threads(max_threads()), workload, &raw, src);
            row(&[
                workload.into(),
                "BigDatalog~".into(),
                out.cell(),
                mem::fmt_bytes(mem::peak_bytes()),
            ]);
        }
        // Souffle-like (REACH only).
        if workload == "REACH" {
            let mut e = SetEngine::new();
            e.tuple_budget = Some(budget_tuples());
            e.load_edges("arc", &as_values(&raw));
            e.load("id", [vec![src]]);
            mem::reset_peak();
            let out = measure(|| {
                e.run_source(recstep::programs::REACH)
                    .map(|_| e.row_count("reach"))
            });
            row(&[
                workload.into(),
                "Souffle~".into(),
                out.cell(),
                mem::fmt_bytes(mem::peak_bytes()),
            ]);
        } else {
            row(&[workload.into(), "Souffle~".into(), "-".into(), "-".into()]);
        }
    }
}

fn run_workload(cfg: Config, workload: &str, raw: &[(u32, u32)], src: i64) -> Outcome {
    // Build engine + database *before* resetting the peak counter so the
    // reported "peak alloc" covers evaluation only, matching fig03/fig06.
    let (prog, mut db, rel) = match workload {
        "REACH" => {
            let prog = prepared(cfg, recstep::programs::REACH);
            let mut db = db_with_edges(&[("arc", &as_values(raw))]);
            db.load_relation("id", 1, &[vec![src]]).unwrap();
            (prog, db, "reach")
        }
        "CC" => (
            prepared(cfg, recstep::programs::CC),
            db_with_edges(&[("arc", &as_values(raw))]),
            "cc3",
        ),
        _ => {
            let prog = prepared(cfg, recstep::programs::SSSP);
            let mut db = recstep::Database::new().unwrap();
            db.load_weighted_edges("arc", &with_weights(raw, 100, 9))
                .unwrap();
            db.load_relation("id", 1, &[vec![src]]).unwrap();
            (prog, db, "sssp")
        }
    };
    mem::reset_peak();
    measure(|| prog.run(&mut db).map(|_| db.row_count(rel)))
}
