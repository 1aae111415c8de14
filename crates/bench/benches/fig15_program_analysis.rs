//! Figure 15: program analyses across systems — Andersen's analysis on
//! datasets 1-7, CSDA and CSPA on the system-program stand-ins.
//!
//! Graspan~ is the worklist CFL engine; Bddbddb is shown only where its
//! encoding applies (small domains), matching the paper's selective bars.
//! BigDatalog~ (the generic configuration) sits out CSPA — the real system
//! does not support mutual recursion (Table 1).

use recstep::{Config, PbmeMode};
use recstep_baselines::setbased::SetEngine;
use recstep_baselines::worklist::{grammars, WorklistEngine};
use recstep_bench::*;
use recstep_graphgen::program_analysis as pa;

fn main() {
    let s = scale();
    header("Figure 15", "Program analyses across systems");

    println!("  (a) Andersen's analysis on datasets 1-7");
    row(&cells(&[
        "dataset",
        "RecStep",
        "BigDatalog~",
        "Souffle~",
        "Graspan~",
    ]));
    for (i, (name, vars)) in pa::paper_andersen_specs(s).into_iter().enumerate() {
        let input = pa::andersen(vars, 100 + i as u64);
        let rs = run_recstep(
            Config::default().pbme(PbmeMode::Off).threads(max_threads()),
            recstep::programs::ANDERSEN,
            &andersen_loads(&input),
            "pointsTo",
        );
        let bigd = run_recstep(
            Config::no_op().threads(max_threads()),
            recstep::programs::ANDERSEN,
            &andersen_loads(&input),
            "pointsTo",
        );
        let souffle = {
            let mut e = SetEngine::new();
            e.tuple_budget = Some(budget_tuples());
            e.load_edges("addressOf", &input.address_of);
            e.load_edges("assign", &input.assign);
            e.load_edges("load", &input.load);
            e.load_edges("store", &input.store);
            measure(|| {
                e.run_source(recstep::programs::ANDERSEN)
                    .map(|_| e.row_count("pointsTo"))
            })
        };
        let graspan = {
            let mut w = WorklistEngine::new(grammars::andersen());
            w.edge_budget = Some(budget_tuples());
            w.load("addressOf", &input.address_of).unwrap();
            w.load("assign", &input.assign).unwrap();
            w.load("load", &input.load).unwrap();
            w.load("store", &input.store).unwrap();
            measure(|| w.run().map(|_| w.edge_count("pointsTo")))
        };
        let counts: Vec<usize> = [&rs, &bigd, &souffle, &graspan]
            .iter()
            .filter_map(|o| o.rows())
            .collect();
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "{name}: {counts:?}"
        );
        row(&[name, rs.cell(), bigd.cell(), souffle.cell(), graspan.cell()]);
    }

    for analysis in ["CSDA", "CSPA"] {
        println!("  ({analysis}) on system-program stand-ins");
        row(&cells(&[
            "program",
            "RecStep",
            "BigDatalog~",
            "Souffle~",
            "Graspan~",
        ]));
        for spec in pa::paper_system_programs(s) {
            let (rs, bigd, souffle, graspan) = if analysis == "CSDA" {
                let input = pa::csda(spec.csda_chains, spec.csda_chain_len, 17);
                let rs = run_recstep(
                    Config::default().pbme(PbmeMode::Off).threads(max_threads()),
                    recstep::programs::CSDA,
                    &[("arc", &input.arc), ("nullEdge", &input.null_edge)],
                    "null",
                );
                let bigd = run_recstep(
                    Config::no_op().threads(max_threads()),
                    recstep::programs::CSDA,
                    &[("arc", &input.arc), ("nullEdge", &input.null_edge)],
                    "null",
                );
                let souffle = {
                    let mut e = SetEngine::new();
                    e.tuple_budget = Some(budget_tuples());
                    e.load_edges("arc", &input.arc);
                    e.load_edges("nullEdge", &input.null_edge);
                    measure(|| {
                        e.run_source(recstep::programs::CSDA)
                            .map(|_| e.row_count("null"))
                    })
                };
                let graspan = {
                    let mut w = WorklistEngine::new(grammars::csda());
                    w.edge_budget = Some(budget_tuples());
                    w.load("arc", &input.arc).unwrap();
                    w.load("nullEdge", &input.null_edge).unwrap();
                    measure(|| w.run().map(|_| w.edge_count("null")))
                };
                (rs, bigd, souffle, graspan)
            } else {
                let input = pa::cspa(spec.cspa_clusters, spec.cspa_cluster_size, 42);
                let rs = run_recstep(
                    Config::default().pbme(PbmeMode::Off).threads(max_threads()),
                    recstep::programs::CSPA,
                    &[
                        ("assign", &input.assign),
                        ("dereference", &input.dereference),
                    ],
                    "valueFlow",
                );
                let souffle = {
                    let mut e = SetEngine::new();
                    e.tuple_budget = Some(budget_tuples());
                    e.load_edges("assign", &input.assign);
                    e.load_edges("dereference", &input.dereference);
                    measure(|| {
                        e.run_source(recstep::programs::CSPA)
                            .map(|_| e.row_count("valueFlow"))
                    })
                };
                let graspan = {
                    let mut w = WorklistEngine::new(grammars::cspa());
                    w.edge_budget = Some(budget_tuples());
                    w.load("assign", &input.assign).unwrap();
                    w.load("dereference", &input.dereference).unwrap();
                    measure(|| w.run().map(|_| w.edge_count("valueFlow")))
                };
                // BigDatalog: no mutual recursion (paper Table 1).
                (rs, Outcome::Unsupported, souffle, graspan)
            };
            let counts: Vec<usize> = [&rs, &bigd, &souffle, &graspan]
                .iter()
                .filter_map(|o| o.rows())
                .collect();
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "{analysis} {}: {counts:?}",
                spec.name
            );
            row(&[
                spec.name.to_string(),
                rs.cell(),
                bigd.cell(),
                souffle.cell(),
                graspan.cell(),
            ]);
        }
    }
}

fn andersen_loads(input: &pa::AndersenInput) -> [(&'static str, &[(i64, i64)]); 4] {
    [
        ("addressOf", &input.address_of),
        ("assign", &input.assign),
        ("load", &input.load),
        ("store", &input.store),
    ]
}
