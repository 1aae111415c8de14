//! Figure 13: REACH / CC / SSSP on the real-world graph stand-ins.

use recstep::{Config, PbmeMode};
use recstep_baselines::setbased::SetEngine;
use recstep_bench::*;
use recstep_graphgen::{as_values, realworld, with_weights};

fn main() {
    let s = scale();
    header(
        "Figure 13",
        "REACH / CC / SSSP on real-world graph stand-ins",
    );
    // The crawls are far past laptop RAM; scale them further than Gn-p.
    let specs = realworld::paper_realworld_specs(s.saturating_mul(60).max(60));
    for workload in ["REACH", "CC", "SSSP"] {
        println!("  ({workload})");
        row(&cells(&["graph", "RecStep", "BigDatalog~", "Souffle~"]));
        for spec in &specs {
            let raw = spec.generate(7);
            let src = source_vertices(spec.n, 1)[0];
            let run_one = |cfg: Config| -> Outcome {
                match workload {
                    "REACH" => {
                        let prog =
                            prepared(cfg.clone().threads(max_threads()), recstep::programs::REACH);
                        let mut db = db_with_edges(&[("arc", &as_values(&raw))]);
                        db.load_relation("id", 1, &[vec![src]]).unwrap();
                        measure(|| prog.run(&mut db).map(|_| db.row_count("reach")))
                    }
                    "CC" => run_recstep(
                        cfg.clone().threads(max_threads()),
                        recstep::programs::CC,
                        &[("arc", &as_values(&raw))],
                        "cc3",
                    ),
                    _ => {
                        let prog =
                            prepared(cfg.clone().threads(max_threads()), recstep::programs::SSSP);
                        let mut db = recstep::Database::new().unwrap();
                        db.load_weighted_edges("arc", &with_weights(&raw, 100, 9))
                            .unwrap();
                        db.load_relation("id", 1, &[vec![src]]).unwrap();
                        measure(|| prog.run(&mut db).map(|_| db.row_count("sssp")))
                    }
                }
            };
            let rs = run_one(Config::default().pbme(PbmeMode::Off));
            let bigd = run_one(Config::no_op());
            let souffle = if workload == "REACH" {
                let mut e = SetEngine::new();
                e.tuple_budget = Some(budget_tuples());
                e.load_edges("arc", &as_values(&raw));
                e.load("id", [vec![src]]);
                measure(|| {
                    e.run_source(recstep::programs::REACH)
                        .map(|_| e.row_count("reach"))
                })
            } else {
                Outcome::Unsupported
            };
            row(&[
                spec.name.to_string(),
                rs.cell(),
                bigd.cell(),
                souffle.cell(),
            ]);
        }
    }
}
