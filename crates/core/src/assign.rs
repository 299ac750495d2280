//! Load-assignment strategies (§5.4): how a client picks the N target
//! servers among the M available, and how it picks a replacement when a
//! target fails or falls silent.
//!
//! "Ideally, clients should distribute their load evenly among log servers
//! so as to minimize response times. ... Presumably, simple decentralized
//! strategies for assigning loads fairly can be used." The paper leaves
//! the strategy open; we implement the obvious candidates, and experiment
//! E10 compares their behaviour (server-switch rates, interval-list
//! lengths) under simulated overload (`dlog-sim::assign`).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use dlog_types::{ClientId, LogId, ServerId};

/// A strategy for choosing write targets.
#[derive(Clone, Debug)]
pub enum AssignStrategy {
    /// Always prefer the lowest-numbered servers (pathological hot-spot
    /// baseline).
    Fixed,
    /// Deterministic spread: client *c* starts at position `c mod M` and
    /// takes N consecutive servers (round-robin striping). The simple
    /// decentralized strategy the paper anticipates.
    Striped,
    /// Uniformly random initial choice, seeded per client.
    Random {
        /// RNG seed (combined with the client id).
        seed: u64,
    },
}

impl AssignStrategy {
    /// Choose the initial N targets from `servers` for `client` —
    /// placement is keyed by the client's logical log, so the same
    /// choice falls out for any holder of that log.
    ///
    /// # Panics
    /// Panics if `n > servers.len()` (configurations are validated before
    /// this point).
    #[must_use]
    pub fn initial(&self, client: ClientId, servers: &[ServerId], n: usize) -> Vec<ServerId> {
        self.initial_for_log(LogId::for_client(client), servers, n)
    }

    /// [`AssignStrategy::initial`], keyed directly by logical log.
    ///
    /// # Panics
    /// Panics if `n > servers.len()`.
    #[must_use]
    pub fn initial_for_log(&self, log: LogId, servers: &[ServerId], n: usize) -> Vec<ServerId> {
        assert!(n <= servers.len(), "N exceeds M");
        match self {
            AssignStrategy::Fixed => servers.iter().take(n).copied().collect(),
            AssignStrategy::Striped => {
                let start = (log.0 as usize).checked_rem(servers.len()).unwrap_or(0);
                servers
                    .iter()
                    .cycle()
                    .skip(start)
                    .take(n)
                    .copied()
                    .collect()
            }
            AssignStrategy::Random { seed } => {
                let mut rng = StdRng::seed_from_u64(seed ^ log.0.wrapping_mul(0x9E37_79B9));
                let mut pool = servers.to_vec();
                pool.shuffle(&mut rng);
                pool.truncate(n);
                pool
            }
        }
    }

    /// Choose a replacement for `failed`, avoiding `current` targets.
    /// Returns `None` when every server is already a target.
    #[must_use]
    pub fn replacement(
        &self,
        client: ClientId,
        servers: &[ServerId],
        current: &[ServerId],
        failed: ServerId,
    ) -> Option<ServerId> {
        self.replacement_for_log(LogId::for_client(client), servers, current, failed)
    }

    /// [`AssignStrategy::replacement`], keyed directly by logical log.
    #[must_use]
    pub fn replacement_for_log(
        &self,
        log: LogId,
        servers: &[ServerId],
        current: &[ServerId],
        failed: ServerId,
    ) -> Option<ServerId> {
        let m = servers.len();
        let start = servers.iter().position(|&s| s == failed).unwrap_or(0);
        // Walk the ring from the failed server, skipping current targets;
        // randomized strategies jitter the starting point by log.
        let offset = match self {
            AssignStrategy::Fixed => 1,
            AssignStrategy::Striped => 1,
            AssignStrategy::Random { seed } => 1 + ((seed ^ log.0) as usize % m.max(1)),
        };
        servers
            .iter()
            .cycle()
            .skip(start + offset)
            .take(m)
            .copied()
            .find(|&cand| cand != failed && !current.contains(&cand))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn servers(m: u64) -> Vec<ServerId> {
        (1..=m).map(ServerId).collect()
    }

    #[test]
    fn fixed_prefers_prefix() {
        let s = AssignStrategy::Fixed;
        assert_eq!(
            s.initial(ClientId(9), &servers(5), 2),
            vec![ServerId(1), ServerId(2)]
        );
    }

    #[test]
    fn striped_spreads_clients() {
        let s = AssignStrategy::Striped;
        let all = servers(5);
        let t0 = s.initial(ClientId(0), &all, 2);
        let t1 = s.initial(ClientId(1), &all, 2);
        let t4 = s.initial(ClientId(4), &all, 2);
        assert_eq!(t0, vec![ServerId(1), ServerId(2)]);
        assert_eq!(t1, vec![ServerId(2), ServerId(3)]);
        assert_eq!(t4, vec![ServerId(5), ServerId(1)]); // wraps
    }

    #[test]
    fn random_is_deterministic_per_seed_and_valid() {
        let s = AssignStrategy::Random { seed: 7 };
        let all = servers(6);
        let a = s.initial(ClientId(3), &all, 3);
        let b = s.initial(ClientId(3), &all, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 3, "targets must be distinct");
    }

    #[test]
    fn replacement_avoids_current_and_failed() {
        let all = servers(4);
        for s in [
            AssignStrategy::Fixed,
            AssignStrategy::Striped,
            AssignStrategy::Random { seed: 3 },
        ] {
            let current = vec![ServerId(1), ServerId(2)];
            let r = s
                .replacement(ClientId(1), &all, &current, ServerId(2))
                .unwrap();
            assert!(!current.contains(&r));
            assert_ne!(r, ServerId(2));
        }
    }

    #[test]
    fn replacement_none_when_exhausted() {
        let all = servers(2);
        let s = AssignStrategy::Striped;
        let current = vec![ServerId(1), ServerId(2)];
        assert_eq!(
            s.replacement(ClientId(1), &all, &current, ServerId(1)),
            None
        );
    }
}
