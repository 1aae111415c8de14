//! Figure 12: REACH, CC and SSSP on the RMAT family across systems.
//! Souffle~ lacks recursive aggregation (paper Table 1), so its CC/SSSP
//! cells are "-" exactly as in the paper's plots.

use recstep::{Config, PbmeMode};
use recstep_baselines::setbased::SetEngine;
use recstep_bench::*;
use recstep_graphgen::{as_values, rmat, with_weights};

fn main() {
    let s = scale();
    header(
        "Figure 12",
        "REACH / CC / SSSP on RMAT graphs across systems",
    );
    let specs: Vec<_> = rmat::paper_rmat_specs(s * 8).into_iter().take(5).collect();
    for workload in ["REACH", "CC", "SSSP"] {
        println!("  ({workload})");
        row(&cells(&["graph", "RecStep", "BigDatalog~", "Souffle~"]));
        for spec in &specs {
            let raw = rmat::rmat(spec.n, spec.m, 5);
            let sources = source_vertices(spec.n, 2);
            let run_one = |cfg: Config| -> Outcome {
                match workload {
                    "REACH" => {
                        // Average over the source vertices (paper: 10 random);
                        // one compilation serves every source.
                        let prog =
                            prepared(cfg.clone().threads(max_threads()), recstep::programs::REACH);
                        let edges = as_values(&raw);
                        let mut total = std::time::Duration::ZERO;
                        let mut rows = 0;
                        for &src in &sources {
                            let mut db = db_with_edges(&[("arc", &edges)]);
                            db.load_relation("id", 1, &[vec![src]]).unwrap();
                            match measure(|| prog.run(&mut db).map(|_| db.row_count("reach"))) {
                                Outcome::Ok { time, rows: r } => {
                                    total += time;
                                    rows = r;
                                }
                                other => return other,
                            }
                        }
                        Outcome::Ok {
                            time: total / sources.len() as u32,
                            rows,
                        }
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
                        db.load_relation("id", 1, &[vec![sources[0]]]).unwrap();
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
                e.load("id", [vec![sources[0]]]);
                measure(|| {
                    e.run_source(recstep::programs::REACH)
                        .map(|_| e.row_count("reach"))
                })
            } else {
                Outcome::Unsupported // no recursive aggregation (Table 1)
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
