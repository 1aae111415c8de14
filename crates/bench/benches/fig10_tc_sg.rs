//! Figure 10: TC and SG on the Gn-p family across systems.
//!
//! System stand-ins (DESIGN.md §3): RecStep = this engine (PBME);
//! BigDatalog = generic parallel configuration (`Config::no_op()`);
//! Souffle = single-threaded set-based semi-naïve; Bddbddb = the BDD engine
//! (TC only — SG is not a composition the BDD engine evaluates).

use recstep::{Config, PbmeMode};
use recstep_baselines::{bdd, setbased::SetEngine};
use recstep_bench::*;
use recstep_graphgen::{as_values, gnp};

fn recstep_run(program: &str, rel: &str, edges: &[(i64, i64)], cfg: Config) -> Outcome {
    run_recstep(cfg.threads(max_threads()), program, &[("arc", edges)], rel)
}

fn setbased_run(program: &str, rel: &str, edges: &[(i64, i64)]) -> Outcome {
    let mut e = SetEngine::new();
    e.tuple_budget = Some(budget_tuples());
    e.load_edges("arc", edges);
    measure(|| e.run_source(program).map(|_| e.row_count(rel)))
}

fn main() {
    let s = scale();
    header("Figure 10", "TC and SG across systems on Gn-p graphs");
    for (program, rel, label) in [
        (recstep::programs::TC, "tc", "TC"),
        (recstep::programs::SG, "sg", "SG"),
    ] {
        println!("  ({label})");
        row(&cells(&[
            "graph",
            "RecStep",
            "BigDatalog~",
            "Souffle~",
            "Bddbddb~",
            "rows",
        ]));
        for spec in gnp::paper_gnp_specs(s) {
            let edges = as_values(&gnp::gnp(
                spec.n,
                (spec.p * (s as f64).min(20.0)).min(0.5),
                3,
            ));
            let rs = recstep_run(
                program,
                rel,
                &edges,
                Config::default().pbme(PbmeMode::Force),
            );
            let bigd = recstep_run(program, rel, &edges, Config::no_op());
            let souffle = setbased_run(program, rel, &edges);
            let bddb = if label == "TC" && edges.len() < 60_000 {
                let t0 = std::time::Instant::now();
                let (pairs, _) = bdd::bdd_tc(&edges);
                Outcome::Ok {
                    time: t0.elapsed(),
                    rows: pairs.len(),
                }
            } else {
                Outcome::Unsupported
            };
            // Cross-check row counts of whoever completed.
            let counts: Vec<usize> = [&rs, &bigd, &souffle, &bddb]
                .iter()
                .filter_map(|o| o.rows())
                .collect();
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "{label} {}: {counts:?}",
                spec.name
            );
            row(&[
                format!("{}-sim(n={})", spec.name, spec.n),
                rs.cell(),
                bigd.cell(),
                souffle.cell(),
                bddb.cell(),
                counts.first().map(|c| c.to_string()).unwrap_or_default(),
            ]);
        }
    }
}
