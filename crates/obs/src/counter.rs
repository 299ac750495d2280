//! Lock-free monotonic counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// A lock-free monotonic event counter.
///
/// All operations are relaxed atomics: counters are observability state,
/// never synchronization state, so no ordering edge is implied.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.add(1);
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn concurrent_adds_are_not_lost() {
        let c = std::sync::Arc::new(Counter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
    }
}
