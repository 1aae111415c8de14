//! Workspace root crate: hosts the cross-crate integration tests
//! (`tests/`) and the runnable examples (`examples/`). The library surface
//! re-exports the public crates so examples can use one import root.
//!
//! The engine's public API is the Engine / Database / PreparedProgram
//! triple (see `recstep`'s crate docs for the full story):
//!
//! ```
//! use recstep::{Database, Engine};
//!
//! let engine = Engine::builder().threads(2).build().unwrap();
//! let tc = engine
//!     .prepare("tc(x, y) :- arc(x, y).\ntc(x, y) :- tc(x, z), arc(z, y).")
//!     .unwrap();
//! let mut db = Database::new().unwrap();
//! db.load_edges("arc", &[(0, 1), (1, 2)]).unwrap();
//! tc.run(&mut db).unwrap();
//! assert_eq!(db.relation("tc").unwrap().len(), 3);
//! ```

pub use recstep;
pub use recstep_baselines as baselines;
pub use recstep_bitmatrix as bitmatrix;
pub use recstep_common as common;
pub use recstep_datalog as datalog;
pub use recstep_exec as exec;
pub use recstep_graphgen as graphgen;
pub use recstep_storage as storage;
