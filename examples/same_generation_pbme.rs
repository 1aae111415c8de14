//! Parallel bit-matrix evaluation (PBME, paper §5.3) on same generation:
//! dense Gn-p graphs where tuple-based evaluation drowns in intermediate
//! results while the bit matrix stays flat.
//!
//! ```sh
//! cargo run --release --example same_generation_pbme
//! ```

use recstep::{Config, Database, Engine, PbmeMode};
use recstep_graphgen::{as_values, gnp::gnp};
use std::time::Instant;

fn main() -> recstep::Result<()> {
    let n = 1_500u32;
    let edges = as_values(&gnp(n, 0.004, 9));
    println!(
        "G{n} graph with {} edges (dense, small domain)",
        edges.len()
    );

    let mut results = Vec::new();
    for (label, cfg) in [
        (
            "tuple engine (PBME off)",
            Config::default().pbme(PbmeMode::Off),
        ),
        ("PBME", Config::default().pbme(PbmeMode::Force)),
    ] {
        let engine = Engine::from_config(cfg.mem_budget(2 << 30))?;
        let sg = engine.prepare(recstep::programs::SG)?;
        let mut db = Database::new()?;
        db.load_edges("arc", &edges)?;
        let t0 = Instant::now();
        match sg.run(&mut db) {
            Ok(stats) => {
                println!(
                    "  {label:<26} {:>8.3}s  sg rows {:>9}  matrix {:>10}",
                    t0.elapsed().as_secs_f64(),
                    db.row_count("sg"),
                    recstep_common::mem::fmt_bytes(stats.pbme_matrix_bytes),
                );
                results.push(db.row_count("sg"));
            }
            Err(e) => println!("  {label:<26} failed: {e}"),
        }
    }
    assert!(
        results.windows(2).all(|w| w[0] == w[1]),
        "both evaluations agree"
    );
    Ok(())
}
