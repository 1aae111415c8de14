//! Baseline engines the differential tests and the ablation record check
//! RecStep against.
//!
//! Both reimplement an evaluation strategy from scratch rather than wrap
//! another system:
//!
//! * [`naive`] — naïve bottom-up evaluation (full re-derivation every
//!   iteration): the §3.2 baseline and the differential-testing oracle;
//! * [`setbased`] — a compiled-loop-style semi-naïve evaluator over hashed
//!   tuple sets, single-threaded — the Soufflé stand-in.
//!
//! BigDatalog's strategy needs no engine of its own: it is RecStep's
//! generic configuration, `Config::no_op()`.

pub mod naive;
pub mod setbased;
