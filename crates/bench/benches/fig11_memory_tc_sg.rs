//! Figure 11: memory usage of TC and SG on G10K-sim across systems.

use recstep::{Config, PbmeMode};
use recstep_baselines::setbased::SetEngine;
use recstep_bench::*;
use recstep_common::mem::{self, CountingAlloc};
use recstep_graphgen::{as_values, gnp::gnp};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let s = scale();
    let n = (10_000u32 / s).max(64);
    let p = 0.001 * (s as f64).min(20.0);
    header(
        "Figure 11",
        &format!("Memory usage of TC and SG on G10K-sim (n={n})"),
    );
    row(&cells(&["workload", "system", "time", "peak alloc"]));
    for (program, rel, label) in [
        (recstep::programs::TC, "tc", "TC"),
        (recstep::programs::SG, "sg", "SG"),
    ] {
        let edges = as_values(&gnp(n, p, 3));
        // RecStep (PBME).
        let prog = prepared(
            Config::default()
                .pbme(PbmeMode::Force)
                .threads(max_threads()),
            program,
        );
        let mut db = db_with_edges(&[("arc", &edges)]);
        mem::reset_peak();
        let out = measure(|| prog.run(&mut db).map(|_| db.row_count(rel)));
        row(&[
            label.into(),
            "RecStep".into(),
            out.cell(),
            mem::fmt_bytes(mem::peak_bytes()),
        ]);
        drop((prog, db));
        // BigDatalog-like (generic tuple engine).
        let prog = prepared(Config::no_op().threads(max_threads()), program);
        let mut db = db_with_edges(&[("arc", &edges)]);
        mem::reset_peak();
        let out = measure(|| prog.run(&mut db).map(|_| db.row_count(rel)));
        row(&[
            label.into(),
            "BigDatalog~".into(),
            out.cell(),
            mem::fmt_bytes(mem::peak_bytes()),
        ]);
        drop((prog, db));
        // Souffle-like.
        let mut e = SetEngine::new();
        e.tuple_budget = Some(budget_tuples());
        e.load_edges("arc", &edges);
        mem::reset_peak();
        let out = measure(|| e.run_source(program).map(|_| e.row_count(rel)));
        row(&[
            label.into(),
            "Souffle~".into(),
            out.cell(),
            mem::fmt_bytes(mem::peak_bytes()),
        ]);
    }
}
