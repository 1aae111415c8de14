//! Baseline engines standing in for the systems the paper compares against.
//!
//! Cross-system *shape* (who wins, who runs out of memory, where crossovers
//! fall) comes from each system's evaluation strategy, so this crate
//! reimplements those strategies from scratch (see DESIGN.md §3):
//!
//! * [`naive`] — naïve bottom-up evaluation (full re-derivation every
//!   iteration): the §3.2 baseline and the differential-testing oracle;
//! * [`setbased`] — a compiled-loop-style semi-naïve evaluator over hashed
//!   tuple sets, single-threaded — the Soufflé stand-in
//!   (BigDatalog's strategy is RecStep's generic configuration,
//!   `Config::no_op()`, per DESIGN.md);
//! * [`worklist`] — a Graspan-style edge-at-a-time CFL-reachability engine
//!   over normalized binary grammars;
//! * [`bdd`] — a bddbddb-style engine: a from-scratch BDD package (unique
//!   table, apply cache, exists/rename) evaluating binary-relation Datalog
//!   over Boolean encodings.

pub mod bdd;
pub mod naive;
pub mod setbased;
pub mod worklist;
