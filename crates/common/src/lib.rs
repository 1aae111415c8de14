//! Shared substrate for the RecStep reproduction.
//!
//! This crate holds the pieces every other crate leans on:
//!
//! * [`hash`] — FxHash-style fast hashing for integer-heavy keys plus a
//!   strong 64-bit mixer for bucket addressing of compact concatenated keys;
//! * [`sched`] — a persistent worker pool with per-worker busy-time
//!   accounting (the source of the paper's CPU-utilization figures);
//! * [`mem`] — byte-count formatting for harness output;
//! * [`dict`] — dictionary encoding of symbolic domains into the dense
//!   integer ids Datalog evaluation operates on (paper §5.2, footnote 2);
//! * [`fail`] — failpoints: deterministic fault injection for crash-safety
//!   tests (zero-cost when disabled);
//! * [`error`] — the shared error type.

pub mod dict;
pub mod error;
pub mod fail;
pub mod hash;
pub mod lang;
pub mod mem;
pub mod sched;

pub use error::{Error, Result};

/// The single value type flowing through the engine.
///
/// The paper evaluates exclusively over dictionary-encoded integer domains
/// (§5.2 fn. 2: "The inputs of Datalog programs are usually integers
/// transformed by mapping the active domain of the original data"), and SSSP
/// weights plus `d1 + d2` arithmetic stay integral, so a signed 64-bit value
/// covers every benchmark without a tagged union.
pub type Value = i64;
