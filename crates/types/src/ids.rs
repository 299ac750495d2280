//! Node identifiers.

use std::fmt;

/// Identifier of a transaction-processing client node.
///
/// A replicated log is used by exactly one client (§3.1); log servers key
/// all stored state by `ClientId`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(pub u64);

impl ClientId {
    /// Construct a client id.
    #[must_use]
    pub fn new(v: u64) -> Self {
        ClientId(v)
    }
}

impl fmt::Debug for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Client({})", self.0)
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Identifier of a log-server node.
///
/// Clients address the M servers of a replicated-log configuration by
/// `ServerId`; transports map server ids to endpoints.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ServerId(pub u64);

impl ServerId {
    /// Construct a server id.
    #[must_use]
    pub fn new(v: u64) -> Self {
        ServerId(v)
    }
}

impl fmt::Debug for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Server({})", self.0)
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Identifier of a *logical log*: the routing key of the sharded server
/// core.
///
/// The paper binds one replicated log to one client node; the sharded
/// server multiplexes many logical logs over one process, hashing each
/// `LogId` to a shard at ingest. `LogId(0)` is reserved to mean "no
/// routing hint" on the wire — such packets fall back to a body-derived
/// key (or shard 0 for control traffic).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LogId(pub u64);

impl LogId {
    /// Construct a logical-log id.
    #[must_use]
    pub fn new(v: u64) -> Self {
        LogId(v)
    }

    /// The logical log owned by a client node (the degenerate one-log-
    /// per-client mapping of §3.1, used until callers mint finer ids).
    #[must_use]
    pub fn for_client(client: ClientId) -> Self {
        LogId(client.0)
    }

    /// The shard this log hashes to among `shards` shards.
    ///
    /// Uses the splitmix64 finalizer so consecutive ids spread evenly;
    /// with `shards <= 1` every log lands on shard 0. The mapping is a
    /// pure function of `(self, shards)` — the router, the placement
    /// layer, and the model checker must all agree on it.
    #[must_use]
    pub fn shard(self, shards: usize) -> usize {
        if shards <= 1 {
            return 0;
        }
        let mut z = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % shards as u64) as usize
    }
}

impl fmt::Debug for LogId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Log({})", self.0)
    }
}

impl fmt::Display for LogId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(ClientId(3).to_string(), "C3");
        assert_eq!(ServerId(5).to_string(), "S5");
        assert_eq!(LogId(7).to_string(), "L7");
        assert_eq!(format!("{:?}", ClientId(3)), "Client(3)");
        assert_eq!(format!("{:?}", ServerId(5)), "Server(5)");
        assert_eq!(format!("{:?}", LogId(7)), "Log(7)");
    }

    #[test]
    fn ordering() {
        assert!(ServerId(1) < ServerId(2));
        assert!(ClientId(1) < ClientId(2));
        assert!(LogId(1) < LogId(2));
    }

    #[test]
    fn shard_mapping_is_stable_and_bounded() {
        for id in 0..1000u64 {
            assert_eq!(LogId(id).shard(1), 0);
            let s = LogId(id).shard(4);
            assert!(s < 4);
            assert_eq!(s, LogId(id).shard(4), "mapping must be deterministic");
        }
    }

    #[test]
    fn shard_mapping_spreads_consecutive_ids() {
        // 256 consecutive logical logs over 4 shards: the splitmix64
        // finalizer must not leave any shard starved (a modulo of the
        // raw id would alias patterns like all-even ids onto 2 shards).
        let mut counts = [0usize; 4];
        for id in 1..=256u64 {
            counts[LogId(id).shard(4)] += 1;
        }
        for (shard, &n) in counts.iter().enumerate() {
            assert!(n >= 32, "shard {shard} starved: {counts:?}");
        }
    }
}
