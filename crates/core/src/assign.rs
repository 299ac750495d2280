//! Load assignment (§5.4): how a client picks its N target servers among
//! the M available, and a replacement when a target fails or falls
//! silent.
//!
//! "Ideally, clients should distribute their load evenly among log servers
//! so as to minimize response times. ... Presumably, simple decentralized
//! strategies for assigning loads fairly can be used." The paper leaves
//! the strategy open; the client stripes. Client *c* starts at ring
//! position `c mod M` and takes N consecutive servers, and a failed target
//! is replaced by the first server after it on the ring that is not
//! already a target. Experiment E10 (`dlog-bench`'s `paper_tables` test)
//! checks the loads this gives.

use dlog_types::{ClientId, LogId, ServerId};

/// The initial N targets for `client` among `servers`: N consecutive
/// servers from ring position `client mod M`. Placement is keyed by the
/// client's logical log, so every holder of that log derives the same
/// choice. `n` is at most `servers.len()`, as `ReplicationConfig` checks.
#[must_use]
pub fn initial(client: ClientId, servers: &[ServerId], n: usize) -> Vec<ServerId> {
    let log = LogId::for_client(client);
    let start = (log.0 as usize).checked_rem(servers.len()).unwrap_or(0);
    servers
        .iter()
        .cycle()
        .skip(start)
        .take(n)
        .copied()
        .collect()
}

/// A replacement for `failed`: the first server after it on the ring that
/// is not in `current`. `None` when every server is already a target.
#[must_use]
pub fn replacement(
    servers: &[ServerId],
    current: &[ServerId],
    failed: ServerId,
) -> Option<ServerId> {
    let start = servers.iter().position(|&s| s == failed).unwrap_or(0);
    servers
        .iter()
        .cycle()
        .skip(start + 1)
        .take(servers.len())
        .copied()
        .find(|&cand| cand != failed && !current.contains(&cand))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn servers(m: u64) -> Vec<ServerId> {
        (1..=m).map(ServerId).collect()
    }

    #[test]
    fn striped_spreads_clients() {
        let all = servers(5);
        let t0 = initial(ClientId(0), &all, 2);
        let t1 = initial(ClientId(1), &all, 2);
        let t4 = initial(ClientId(4), &all, 2);
        assert_eq!(t0, vec![ServerId(1), ServerId(2)]);
        assert_eq!(t1, vec![ServerId(2), ServerId(3)]);
        assert_eq!(t4, vec![ServerId(5), ServerId(1)]); // wraps
    }

    /// What tests use to name the servers a client writes: a client id
    /// that is a multiple of M takes servers 1..=N.
    #[test]
    fn a_multiple_of_m_takes_the_first_n_servers() {
        for m in 2..=6u64 {
            for n in 1..=m as usize {
                let want: Vec<ServerId> = (1..=n as u64).map(ServerId).collect();
                for c in [0, m, 7 * m] {
                    assert_eq!(
                        initial(ClientId(c), &servers(m), n),
                        want,
                        "client {c}, M = {m}"
                    );
                }
            }
        }
    }

    #[test]
    fn replacement_avoids_current_and_failed() {
        let all = servers(4);
        let current = vec![ServerId(1), ServerId(2)];
        let r = replacement(&all, &current, ServerId(2)).unwrap();
        assert!(!current.contains(&r));
        assert_ne!(r, ServerId(2));
    }

    #[test]
    fn replacement_none_when_exhausted() {
        let all = servers(2);
        let current = vec![ServerId(1), ServerId(2)];
        assert_eq!(replacement(&all, &current, ServerId(1)), None);
    }
}
