//! # RecStep — a parallel in-memory Datalog engine on a relational substrate
//!
//! Rust reproduction of *Scaling-Up In-Memory Datalog Processing:
//! Observations and Techniques* (Fan et al., VLDB 2019): a general-purpose
//! Datalog engine evaluating stratified programs with negation and
//! (recursive) aggregation by semi-naïve evaluation over a parallel
//! columnar backend, with the paper's five engine optimizations — UIE, OOF,
//! DSD, EOST, FAST-DEDUP — plus parallel bit-matrix evaluation (PBME) for
//! dense-graph TC/SG strata. Every optimization is a builder toggle so the
//! paper's ablations are one flag away.
//!
//! ## The three-part API
//!
//! * [`Engine`] — immutable evaluation machinery (config + worker pool +
//!   planner), built once from a [`Config`] ([`Engine::from_config`], or
//!   [`Engine::builder`] for a thread count over the defaults); `Send +
//!   Sync` and cheap to clone.
//! * [`Database`] — the data: EDB facts loaded through batched `load_*`
//!   calls or a [`Transaction`] bulk loader, IDB results read back through
//!   zero-copy [`RelHandle`]s.
//! * [`PreparedProgram`] — a program parsed, analyzed and compiled
//!   **once** ([`Engine::prepare`]), then run any number of times —
//!   concurrently over distinct databases ([`PreparedProgram::run`]), or
//!   concurrently over **one** shared database
//!   ([`PreparedProgram::run_shared`], results in a [`RunOutput`] overlay,
//!   with frozen-relation join indexes built once across all runs via the
//!   database's [`IndexCache`]).
//!
//! ```
//! use recstep::{Database, Engine};
//!
//! let engine = Engine::builder().threads(2).build().unwrap();
//! let tc = engine
//!     .prepare("tc(x, y) :- arc(x, y).\ntc(x, y) :- tc(x, z), arc(z, y).")
//!     .unwrap();
//!
//! let mut db = Database::new().unwrap();
//! db.load_edges("arc", &[(0, 1), (1, 2), (2, 3)]).unwrap();
//! let stats = tc.run(&mut db).unwrap();
//!
//! let result = db.relation("tc").unwrap();
//! assert_eq!(result.len(), 6);
//! assert!(result.as_pairs().unwrap().contains(&(0, 3)));
//! assert!(stats.iterations >= 1);
//! ```

#![deny(missing_docs)]

pub mod config;
pub mod db;
pub mod engine;
mod eval;
pub mod io;
pub mod pbme;
pub mod prepared;
pub mod stats;
pub mod view;

pub use config::{Config, OofMode, PbmeMode, ServeConfig};
pub use db::{Database, RunOutput, Transaction};
pub use engine::{Engine, EngineBuilder};
pub use prepared::PreparedProgram;
pub use recstep_exec::cache::IndexCache;
pub use stats::{EvalStats, IndexStats, PhaseTimes, StratumStats, ViewStats};
pub use view::MaterializedView;

// Re-exports so downstream users need only this crate.
pub use recstep_common::{Error, Result, Value};
pub use recstep_datalog::{analyze, parser, plan, programs, sqlgen};
pub use recstep_exec::dedup::DedupImpl;
pub use recstep_exec::setdiff::SetDiffStrategy;
pub use recstep_storage::wal;
pub use recstep_storage::{Durability, RelHandle, Relation, RowDecode, RowIter, RowRef};

/// Parse + analyze + compile a program source in one call (for tools that
/// want the plan without an engine, e.g. SQL rendering).
pub fn compile_source(src: &str) -> Result<recstep_datalog::CompiledProgram> {
    plan::compile(&analyze::analyze(parser::parse(src)?)?)
}
