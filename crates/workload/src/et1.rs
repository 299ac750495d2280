//! ET1 (debit–credit) transaction generation with the paper's log
//! profile, plus the long "design transaction" workload of §2.
//!
//! §4.1: "Each ET1 transaction in the TABS prototype writes 700 bytes of
//! log data in seven log records. Only the final commit record written by
//! a local ET1 transaction must be forced to disk." The constants below
//! reproduce that profile exactly (see `log_profile_is_700_bytes`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One debit–credit transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Et1Txn {
    /// Account updated.
    pub account: u32,
    /// Teller handling the transaction.
    pub teller: u32,
    /// The teller's branch.
    pub branch: u32,
    /// Amount debited/credited.
    pub delta: i64,
}

/// Database sizing and randomness for the generator.
#[derive(Clone, Debug)]
pub struct Et1Config {
    /// Number of accounts.
    pub accounts: u32,
    /// Number of tellers.
    pub tellers: u32,
    /// Number of branches.
    pub branches: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Et1Config {
    /// A small, laptop-friendly bank.
    #[must_use]
    pub fn small(seed: u64) -> Self {
        Et1Config {
            accounts: 10_000,
            tellers: 100,
            branches: 10,
            seed,
        }
    }
}

/// Seeded ET1 transaction stream.
#[derive(Clone, Debug)]
pub struct Et1Generator {
    cfg: Et1Config,
    rng: StdRng,
}

impl Et1Generator {
    /// Create a generator.
    #[must_use]
    pub fn new(cfg: Et1Config) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        Et1Generator { cfg, rng }
    }

    /// The next transaction: uniform account and teller; the branch is
    /// the teller's home branch, as in the benchmark definition.
    pub fn next_txn(&mut self) -> Et1Txn {
        let account = self.rng.gen_range(0..self.cfg.accounts);
        let teller = self.rng.gen_range(0..self.cfg.tellers);
        let branch = teller % self.cfg.branches;
        let mut delta = self.rng.gen_range(-999_999i64..=999_999);
        if delta == 0 {
            delta = 1;
        }
        Et1Txn {
            account,
            teller,
            branch,
            delta,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &Et1Config {
        &self.cfg
    }
}

/// The ET1 log profile of §4.1; the commit record is its one forced write.
pub mod profile {
    /// Log records per transaction.
    pub const RECORDS_PER_TXN: usize = 7;
    /// Total log bytes per transaction (encoded records).
    pub const BYTES_PER_TXN: usize = 700;

    /// Encoded-size overhead of a `SplitRecord::Redo` (kind + txn + page).
    pub const REDO_OVERHEAD: usize = 17;
    /// Encoded size of a `SplitRecord::Commit`.
    pub const COMMIT_BYTES: usize = 9;

    /// Payload bytes of the six data records: account, teller, branch
    /// updates, the history insert, and two bookkeeping records. Chosen
    /// so that six redo records plus the commit encode to exactly 700
    /// bytes: 6·17 + Σ payloads + 9 = 700.
    pub const DATA_PAYLOADS: [usize; 6] = [100, 100, 100, 120, 85, 84];

    /// Fraction of each data payload that is the undo (before-image)
    /// component — the part §5.2 splitting keeps out of the log.
    pub const UNDO_FRACTION: f64 = 0.5;

    /// Undo bytes of data record `i`.
    #[must_use]
    pub fn undo_bytes(i: usize) -> usize {
        (DATA_PAYLOADS[i] as f64 * UNDO_FRACTION) as usize
    }

    /// Redo bytes of data record `i` (classic records carry both).
    #[must_use]
    pub fn redo_bytes(i: usize) -> usize {
        DATA_PAYLOADS[i] - undo_bytes(i)
    }
}

/// A long-running workstation transaction (§2: "long running
/// transactions are likely to contain many subtransactions or to use
/// frequent save points").
#[derive(Clone, Debug)]
pub struct LongTxn {
    /// The debit–credit steps the transaction performs.
    pub steps: Vec<Et1Txn>,
    /// A savepoint marker is logged every this many steps.
    pub savepoint_every: usize,
}

/// Generator of long design transactions.
#[derive(Clone, Debug)]
pub struct LongTxnGenerator {
    inner: Et1Generator,
    steps: usize,
    savepoint_every: usize,
}

impl LongTxnGenerator {
    /// Long transactions of `steps` updates with savepoints every
    /// `savepoint_every` steps.
    #[must_use]
    pub fn new(cfg: Et1Config, steps: usize, savepoint_every: usize) -> Self {
        LongTxnGenerator {
            inner: Et1Generator::new(cfg),
            steps,
            savepoint_every: savepoint_every.max(1),
        }
    }

    /// The next long transaction.
    pub fn next_txn(&mut self) -> LongTxn {
        let steps = (0..self.steps).map(|_| self.inner.next_txn()).collect();
        LongTxn {
            steps,
            savepoint_every: self.savepoint_every,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_profile_is_700_bytes() {
        let data: usize = profile::DATA_PAYLOADS
            .iter()
            .map(|p| p + profile::REDO_OVERHEAD)
            .sum();
        assert_eq!(data + profile::COMMIT_BYTES, profile::BYTES_PER_TXN);
        assert_eq!(profile::DATA_PAYLOADS.len() + 1, profile::RECORDS_PER_TXN);
        // Redo + undo partitions each payload.
        for i in 0..6 {
            assert_eq!(
                profile::redo_bytes(i) + profile::undo_bytes(i),
                profile::DATA_PAYLOADS[i]
            );
        }
    }

    #[test]
    fn generator_is_deterministic_and_in_range() {
        let cfg = Et1Config::small(9);
        let mut g1 = Et1Generator::new(cfg.clone());
        let mut g2 = Et1Generator::new(cfg.clone());
        for _ in 0..1000 {
            let a = g1.next_txn();
            let b = g2.next_txn();
            assert_eq!(a, b);
            assert!(a.account < cfg.accounts);
            assert!(a.teller < cfg.tellers);
            assert_eq!(a.branch, a.teller % cfg.branches);
            assert!(a.delta != 0);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut g1 = Et1Generator::new(Et1Config::small(1));
        let mut g2 = Et1Generator::new(Et1Config::small(2));
        let same = (0..100).filter(|_| g1.next_txn() == g2.next_txn()).count();
        assert!(same < 5);
    }

    #[test]
    fn long_txns() {
        let mut g = LongTxnGenerator::new(Et1Config::small(3), 50, 10);
        let t = g.next_txn();
        assert_eq!(t.steps.len(), 50);
        assert_eq!(t.savepoint_every, 10);
    }
}
