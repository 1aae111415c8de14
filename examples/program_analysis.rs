//! Static program analysis with Datalog: Andersen's points-to analysis and
//! the context-sensitive analyses (CSPA, CSDA) of the paper's §6, over
//! generated program graphs.
//!
//! ```sh
//! cargo run --release --example program_analysis
//! ```

use recstep::{Config, Database, Engine, PbmeMode};
use recstep_graphgen::program_analysis as pa;

fn main() -> recstep::Result<()> {
    let engine = Engine::builder().build()?;

    // Andersen's analysis: non-linear recursion (two pointsTo atoms per
    // rule body). All four input relations land in one transaction.
    let input = pa::andersen(3_000, 1);
    let mut db = Database::new()?;
    let mut tx = db.transaction();
    tx.load_edges("addressOf", &input.address_of)?;
    tx.load_edges("assign", &input.assign)?;
    tx.load_edges("load", &input.load)?;
    tx.load_edges("store", &input.store)?;
    tx.commit()?;
    let stats = engine.prepare(recstep::programs::ANDERSEN)?.run(&mut db)?;
    println!(
        "Andersen: {} input facts -> {} pointsTo facts in {:?} ({} iterations)",
        input.len(),
        db.row_count("pointsTo"),
        stats.total,
        stats.iterations
    );

    // CSPA: mutual recursion across valueFlow / valueAlias / memoryAlias.
    let cspa = pa::cspa(400, 12, 2);
    let mut db = Database::new()?;
    db.load_edges("assign", &cspa.assign)?;
    db.load_edges("dereference", &cspa.dereference)?;
    let stats = engine.prepare(recstep::programs::CSPA)?.run(&mut db)?;
    println!(
        "CSPA: vf={} va={} ma={} in {:?} ({} iterations — few, heavy rounds)",
        db.row_count("valueFlow"),
        db.row_count("valueAlias"),
        db.row_count("memoryAlias"),
        stats.total,
        stats.iterations
    );

    // CSDA: ~chain-length iterations with tiny deltas — the opposite
    // regime (PBME off to exercise the tuple path the paper measures).
    let csda = pa::csda(50, 600, 3);
    let tuple_engine = Engine::from_config(Config::default().pbme(PbmeMode::Off))?;
    let mut db = Database::new()?;
    db.load_edges("arc", &csda.arc)?;
    db.load_edges("nullEdge", &csda.null_edge)?;
    let stats = tuple_engine
        .prepare(recstep::programs::CSDA)?
        .run(&mut db)?;
    println!(
        "CSDA: {} null facts in {:?} ({} iterations — many, cheap rounds)",
        db.row_count("null"),
        stats.total,
        stats.iterations
    );
    Ok(())
}
