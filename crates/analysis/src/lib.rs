//! Closed-form models from the paper: the availability analysis of §3.2
//! and Appendix I, the log-server capacity analysis of §4.1, and the log
//! space management accounting of §5.3.
//!
//! These are the analytic halves of experiments E1–E3, E5, and E12; the
//! Monte-Carlo cross-checks live in `dlog-sim` and the measured
//! counterparts in `dlog-bench`.

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
