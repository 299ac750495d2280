//! Discrete simulations of the paper's claims that no closed form
//! settles.
//!
//! * [`assign`] — the §5.4 load-assignment experiment (E10): switch
//!   rates, interval-list growth, and load balance for candidate
//!   strategies under overload and failures;
//! * [`queue`] — a discrete-event single-server queue cross-validating
//!   the M/D/1 / M/M/1 response-time models of E14.
//!
//! Everything is seeded and deterministic.

#![warn(missing_docs)]

pub mod assign;
pub mod queue;
