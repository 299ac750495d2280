//! Closed-form models from the paper: the availability analysis of §3.2
//! and Appendix I, the log-server capacity analysis of §4.1, the log
//! space management accounting of §5.3, the commit costs of §5.5 and
//! the response-time models of §3.2.
//!
//! These are the analytic halves of experiments E1–E3, E5 and E12–E14.
//! `dlog-bench`'s `availability` test checks E1, E2 and E5 exactly on the
//! shipped client, and its `paper_tables` test asserts E12 and E13 as
//! EXPERIMENTS.md prints them.

#![warn(missing_docs)]

pub mod availability;
pub mod capacity;
pub mod commit;
pub mod queueing;
pub mod space;
pub mod table;

pub use availability::{
    generator_availability, init_availability, read_availability, write_availability,
};
pub use capacity::{CapacityParams, CapacityReport};
