//! Table 4 (Appendix B): CPU efficiency ce = 1/(t·n) on representative
//! workloads across systems.

use recstep::{Config, PbmeMode};
use recstep_baselines::setbased::SetEngine;
use recstep_baselines::worklist::{grammars, WorklistEngine};
use recstep_bench::*;
use recstep_graphgen::{as_values, gnp::gnp, program_analysis as pa};

fn ce(out: &Outcome, threads: usize) -> String {
    match out.secs() {
        Some(t) if t > 0.0 => format!("{:.2e}", 1.0 / (t * threads as f64)),
        _ => "-".into(),
    }
}

// The Soufflé and Graspan stand-ins are single-threaded, so their
// efficiency is taken over one core.
fn main() {
    let s = scale();
    let threads = max_threads();
    header(
        "Table 4",
        "CPU efficiency (1/(t*n)) on representative workloads",
    );
    row(&cells(&[
        "workload",
        "RecStep",
        "BigDatalog~",
        "Souffle~",
        "Graspan~",
    ]));

    // TC on G20K-sim.
    {
        let n = (20_000u32 / s).max(64);
        let edges = as_values(&gnp(n, 0.001 * (s as f64).min(20.0), 3));
        let rs = run_recstep(
            Config::default().pbme(PbmeMode::Force).threads(threads),
            recstep::programs::TC,
            &[("arc", &edges)],
            "tc",
        );
        let bigd = run_recstep(
            Config::no_op().threads(threads),
            recstep::programs::TC,
            &[("arc", &edges)],
            "tc",
        );
        let souffle = {
            let mut e = SetEngine::new();
            e.tuple_budget = Some(budget_tuples());
            e.load_edges("arc", &edges);
            measure(|| {
                e.run_source(recstep::programs::TC)
                    .map(|_| e.row_count("tc"))
            })
        };
        row(&[
            "TC(G20K-sim)".to_string(),
            ce(&rs, threads),
            ce(&bigd, threads),
            ce(&souffle, 1),
            "-".into(),
        ]);
    }
    // AA on dataset 7.
    {
        let (_, vars) = pa::paper_andersen_specs(s).swap_remove(6);
        let input = pa::andersen(vars, 106);
        let rs = run_recstep(
            Config::default().pbme(PbmeMode::Off).threads(threads),
            recstep::programs::ANDERSEN,
            &[
                ("addressOf", &input.address_of),
                ("assign", &input.assign),
                ("load", &input.load),
                ("store", &input.store),
            ],
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
        row(&[
            "AA(dataset 7)".into(),
            ce(&rs, threads),
            "-".into(),
            ce(&souffle, 1),
            "-".into(),
        ]);
    }
    // CSDA + CSPA on linux-sim.
    {
        let spec = &pa::paper_system_programs(s)[0];
        let csda_in = pa::csda(spec.csda_chains, spec.csda_chain_len, 17);
        let rs = run_recstep(
            Config::default().pbme(PbmeMode::Off).threads(threads),
            recstep::programs::CSDA,
            &[("arc", &csda_in.arc), ("nullEdge", &csda_in.null_edge)],
            "null",
        );
        let graspan = {
            let mut w = WorklistEngine::new(grammars::csda());
            w.load("arc", &csda_in.arc).unwrap();
            w.load("nullEdge", &csda_in.null_edge).unwrap();
            measure(|| w.run().map(|_| w.edge_count("null")))
        };
        row(&[
            "CSDA(linux-sim)".into(),
            ce(&rs, threads),
            "-".into(),
            "-".into(),
            ce(&graspan, 1),
        ]);

        let cspa_in = pa::cspa(spec.cspa_clusters, spec.cspa_cluster_size, 42);
        let rs = run_recstep(
            Config::default().pbme(PbmeMode::Off).threads(threads),
            recstep::programs::CSPA,
            &[
                ("assign", &cspa_in.assign),
                ("dereference", &cspa_in.dereference),
            ],
            "valueFlow",
        );
        let graspan = {
            let mut w = WorklistEngine::new(grammars::cspa());
            w.load("assign", &cspa_in.assign).unwrap();
            w.load("dereference", &cspa_in.dereference).unwrap();
            measure(|| w.run().map(|_| w.edge_count("valueFlow")))
        };
        row(&[
            "CSPA(linux-sim)".into(),
            ce(&rs, threads),
            "-".into(),
            "-".into(),
            ce(&graspan, 1),
        ]);
    }
}
