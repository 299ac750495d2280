//! Shared harness for the experiment binaries and the repo-level
//! integration tests (the availability, protocol and paper-figure checks
//! among them): builds in-process clusters of real log servers
//! (threaded, storage-backed) and replicated-log clients over them, on
//! either the fault-injectable in-memory network or real UDP.

#![warn(missing_docs)]

pub mod harness;
pub mod scenario;

pub use harness::{payload, Cluster, ClusterOptions};
