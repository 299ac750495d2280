//! Replication configuration: the `M`, `N`, and δ parameters.

use crate::error::{DlogError, Result};
use crate::ServerId;

/// Parameters of a replicated log (§3.1, §4.2).
///
/// * `servers` — the `M` log servers available to the client;
/// * `n` — every record is written to `N` of them (`2 ≤ N ≤ M` in
///   practice; the paper constrains N "to values of two or three" for cost,
///   but any `1 ≤ N ≤ M` is accepted here, N = 1 being useful for tests);
/// * `delta` — the bound δ on records that may be in flight
///   (unacknowledged) at once, which is also the number of records the
///   restart procedure must rewrite (§4.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// The M log servers the client may use.
    pub servers: Vec<ServerId>,
    /// Replication degree N: copies per record.
    pub n: usize,
    /// Bound δ on simultaneously unacknowledged records.
    pub delta: u64,
}

impl ReplicationConfig {
    /// Validated constructor.
    ///
    /// # Errors
    /// Rejects `n == 0`, `n > M`, duplicate server ids, and `delta == 0`.
    pub fn new(servers: Vec<ServerId>, n: usize, delta: u64) -> Result<Self> {
        if n == 0 {
            return Err(DlogError::Config(
                "replication degree N must be at least 1".into(),
            ));
        }
        if servers.is_empty() {
            return Err(DlogError::Config(
                "at least one log server is required".into(),
            ));
        }
        if n > servers.len() {
            return Err(DlogError::Config(format!(
                "N = {n} exceeds the number of servers M = {}",
                servers.len()
            )));
        }
        let mut dedup = servers.clone();
        dedup.sort_unstable();
        dedup.dedup();
        if dedup.len() != servers.len() {
            return Err(DlogError::Config(
                "duplicate server ids in configuration".into(),
            ));
        }
        if delta == 0 {
            return Err(DlogError::Config("delta must be at least 1".into()));
        }
        Ok(ReplicationConfig { servers, n, delta })
    }

    /// Convenience constructor with δ = 1 (strictly synchronous WriteLog,
    /// as in §3.1.2 where "there is at most one log record that has been
    /// written to fewer than N log servers").
    ///
    /// # Errors
    /// Same as [`ReplicationConfig::new`].
    pub fn synchronous(servers: Vec<ServerId>, n: usize) -> Result<Self> {
        ReplicationConfig::new(servers, n, 1)
    }

    /// Total number of servers, M.
    #[must_use]
    pub fn m(&self) -> usize {
        self.servers.len()
    }

    /// The size of a client-initialization read quorum: `M − N + 1`
    /// (§3.1.2). Merging this many interval lists "guarantees that a merged
    /// set of interval lists will contain at least one server storing each
    /// log record".
    #[must_use]
    pub fn init_quorum(&self) -> usize {
        self.m() - self.n + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u64) -> Vec<ServerId> {
        (1..=n).map(ServerId).collect()
    }

    #[test]
    fn valid_config() {
        let c = ReplicationConfig::new(ids(5), 2, 8).unwrap();
        assert_eq!(c.m(), 5);
        assert_eq!(c.init_quorum(), 4);
    }

    #[test]
    fn quorum_overlap_invariant() {
        // For every legal (M, N): a write quorum (N) and an init quorum
        // (M−N+1) must intersect — that is the correctness core of §3.1.2.
        for m in 1..=8u64 {
            for n in 1..=m as usize {
                let c = ReplicationConfig::new(ids(m), n, 1).unwrap();
                assert!(c.n + c.init_quorum() > c.m(), "no overlap for M={m} N={n}");
            }
        }
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(ReplicationConfig::new(ids(3), 0, 1).is_err());
        assert!(ReplicationConfig::new(ids(3), 4, 1).is_err());
        assert!(ReplicationConfig::new(vec![], 1, 1).is_err());
        assert!(ReplicationConfig::new(ids(3), 2, 0).is_err());
        assert!(ReplicationConfig::new(vec![ServerId(1), ServerId(1)], 1, 1).is_err());
    }

    #[test]
    fn synchronous_sets_delta_one() {
        let c = ReplicationConfig::synchronous(ids(3), 2).unwrap();
        assert_eq!(c.delta, 1);
    }
}
