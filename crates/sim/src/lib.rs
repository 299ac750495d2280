//! Monte-Carlo and discrete simulations cross-checking the paper's
//! analytic claims.
//!
//! * [`process`] — continuous-time up/down failure–repair processes for
//!   log servers (exponential MTTF/MTTR);
//! * [`montecarlo`] — measured availabilities of `WriteLog`, client
//!   initialization, `ReadLog`, and the Appendix I generator, to be
//!   compared against the §3.2 formulas (experiments E1, E2, E5);
//! * [`initwait`] — the §3.2 closing observation: "M − N + 1 log servers
//!   do not have to be simultaneously available to initialize a client
//!   process. The client process can poll until it receives responses
//!   from enough servers" — the expected *time to complete*
//!   initialization, which needs "a more complicated model that includes
//!   the expected rates of log server failures and the expected times for
//!   repair";
//! * [`assign`] — the §5.4 load-assignment experiment (E10): switch
//!   rates, interval-list growth, and load balance for candidate
//!   strategies under overload and failures;
//! * [`queue`] — a discrete-event single-server queue cross-validating
//!   the M/D/1 / M/M/1 response-time models of E14.
//!
//! Everything is seeded and deterministic.

#![warn(missing_docs)]

pub mod assign;
pub mod initwait;
pub mod montecarlo;
pub mod process;
pub mod queue;

pub use montecarlo::{AvailabilityEstimate, MonteCarloParams};
