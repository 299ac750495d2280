//! The workspace's one lock-poisoning policy: every lock is a `std::sync`
//! lock, acquired as `unpoisoned(m.lock())`. A poisoned lock's guard is
//! handed back: critical sections are memory-only (§4.1) and leave their
//! data valid at every step, and a thread that panics reports itself (a
//! server loop through its supervisor).

use std::sync::{LockResult, PoisonError};

/// The guard (or `wait_timeout` pair) in `r`, poisoned or not.
pub fn unpoisoned<G>(r: LockResult<G>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Condvar, Mutex, RwLock};
    use std::time::Duration;

    #[test]
    fn a_panicked_holder_leaves_every_guard_and_value_intact() {
        let m = Mutex::new(vec![1, 2]);
        let l = RwLock::new(7u32);
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let mut g = m.lock().unwrap();
                g.push(3);
                *l.write().unwrap() += 1;
                let _w = l.write().unwrap();
                panic!("dies holding the mutex and the write guard");
            });
            assert!(holder.join().is_err());
        });
        assert!(m.is_poisoned() && l.is_poisoned());
        assert_eq!(*unpoisoned(m.lock()), [1, 2, 3]);
        assert_eq!(*unpoisoned(l.read()), 8);
        *unpoisoned(l.write()) += 1;
        assert_eq!(*unpoisoned(l.read()), 9);

        // A timed wait on the recovered mutex hands its guard back too.
        let cv = Condvar::new();
        let (g, waited) =
            unpoisoned(cv.wait_timeout(unpoisoned(m.lock()), Duration::from_millis(1)));
        assert!(waited.timed_out());
        assert_eq!(*g, [1, 2, 3]);
    }
}
