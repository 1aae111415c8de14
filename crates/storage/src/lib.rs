//! Mini-QuickStep storage substrate.
//!
//! RecStep is built "on top of QuickStep, a single-node in-memory parallel
//! RDBMS" (paper §4). This crate supplies the storage half of that substrate:
//!
//! * [`relation`] — append-only columnar relations over [`recstep_common::Value`]
//!   with zero-copy *prefix views*. Semi-naïve evaluation needs three views of
//!   every recursive relation (`Full`, `Delta`, `Old = Full − Delta`); because
//!   merging `R ← R ⊎ ∆R` appends, `Old` is simply the pre-merge prefix.
//! * [`catalog`] — name → relation resolution plus per-table statistics with
//!   validity versions (the substrate behind the paper's `analyze()` calls
//!   and the OOF optimization).
//! * [`stats`] — the statistics themselves and the three collection levels
//!   (size-only, selective join-input sizes, full min/max/sum/avg).
//! * [`handle`] — zero-copy, read-only result handles over stored relations.
//! * [`overlay`] — run-scoped catalog access: exclusive mutation for
//!   classic runs, or a copy-on-write overlay over a frozen base catalog
//!   so N concurrent evaluations can share one database.
//! * [`wal`] — crash-safe durability for the query service: an
//!   append-only checksummed write-ahead log of `/facts` commits plus
//!   atomic full-database snapshots with a manifest commit point. This is
//!   the only code that writes files; evaluation itself is in-memory.

pub mod catalog;
pub mod handle;
pub mod overlay;
pub mod relation;
pub mod stats;
pub mod wal;

pub use catalog::{Catalog, RelId};
pub use handle::{RelHandle, RowDecode, RowIter, RowRef};
pub use overlay::RunCatalog;
pub use relation::{ColAgg, RelView, Relation, Schema};
pub use stats::{ColStats, StatsLevel, TableStats};
pub use wal::Durability;
