//! The workspace's locks: one poisoning policy and one lock order.
//!
//! A poisoned lock's guard is handed back ([`unpoisoned`]): critical
//! sections are memory-only (§4.1) and leave their data valid at every
//! step, and a thread that panics reports itself (a server loop through
//! its supervisor).
//!
//! Every transport, server and storage `Mutex` is a [`Ranked`] lock, and
//! [`Rank`] gives their one global order. Debug builds keep a stack of
//! the ranks each thread holds: a lock may be taken only above every
//! lock its thread holds, so an order that could deadlock (or a re-lock)
//! panics on the first run that takes it, even across functions; and
//! [`assert_unlocked`], at the entry of every function that waits on a
//! disk or a peer, panics while any ranked guard is live. Release builds
//! compile both checks out. `RwLock`s are not ranked.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, LockResult, Mutex, MutexGuard, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// The guard (or `wait_timeout` pair) in `r`, poisoned or not.
pub fn unpoisoned<G>(r: LockResult<G>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Every [`Ranked`] lock, outermost first: a thread holding one may take
/// only those after it. Only the first two nest today.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rank {
    /// `MemNetwork`'s fault draws, held while `deliver` pushes into the
    /// destination's inbox: fate and delivery are serialized.
    MemFaults,
    /// A frame queue: a mem endpoint's, or one shard's on a routed mem or
    /// UDP endpoint.
    MemInbox,
    /// The supervisor's first-exit report.
    ShardExits,
    /// The simulated NVRAM track (§5.1).
    Nvram,
    /// The in-memory object store.
    ObjectStore,
    /// A transport's wire-buffer pool, taken around an encode or receive.
    BufPool,
}

/// A [`Mutex`] with a place in the [`Rank`] order.
pub struct Ranked<T> {
    #[cfg(debug_assertions)]
    rank: Rank,
    mutex: Mutex<T>,
}

impl<T> Ranked<T> {
    /// `value` behind a lock of rank `rank`.
    pub fn new(rank: Rank, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = rank;
        Ranked {
            #[cfg(debug_assertions)]
            rank,
            mutex: Mutex::new(value),
        }
    }

    /// Acquire the lock, poisoned or not. Debug builds panic, before
    /// blocking, when this thread holds a lock of this rank or a later one.
    pub fn lock(&self) -> RankedGuard<'_, T> {
        RankedGuard {
            #[cfg(debug_assertions)]
            held: Held::push(self.rank),
            #[cfg(not(debug_assertions))]
            held: Held {},
            guard: unpoisoned(self.mutex.lock()),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Ranked<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.mutex.fmt(f)
    }
}

/// The guard of a [`Ranked`] lock. Its rank stays on its thread's stack
/// until it drops, in any order, and across its condvar waits.
pub struct RankedGuard<'a, T> {
    held: Held,
    guard: MutexGuard<'a, T>,
}

impl<T> RankedGuard<'_, T> {
    /// [`Condvar::wait_timeout`] on this guard. A wait blocks, so debug
    /// builds panic when the thread holds another ranked lock.
    pub fn wait_timeout(self, cv: &Condvar, timeout: Duration) -> (Self, WaitTimeoutResult) {
        self.held.assert_alone();
        let (guard, result) = unpoisoned(cv.wait_timeout(self.guard, timeout));
        (RankedGuard { guard, ..self }, result)
    }

    /// [`Condvar::wait_while`] on this guard, checked as `wait_timeout`.
    pub fn wait_while(self, cv: &Condvar, condition: impl FnMut(&mut T) -> bool) -> Self {
        self.held.assert_alone();
        let guard = unpoisoned(cv.wait_while(self.guard, condition));
        RankedGuard { guard, ..self }
    }
}

impl<T> Deref for RankedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for RankedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// Panic (in debug builds) if this thread holds any [`Ranked`] lock.
#[inline]
pub fn assert_unlocked() {
    #[cfg(debug_assertions)]
    HELD.with_borrow(|held| assert!(held.is_empty(), "blocking call while holding {held:?}"));
}

#[cfg(debug_assertions)]
thread_local! {
    /// The ranks this thread holds, strictly increasing.
    static HELD: std::cell::RefCell<Vec<Rank>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// A live guard's entry on its thread's stack; empty in release builds.
struct Held {
    #[cfg(debug_assertions)]
    rank: Rank,
}

impl Held {
    #[cfg(debug_assertions)]
    fn push(rank: Rank) -> Held {
        HELD.with_borrow_mut(|held| {
            let above = held.last().is_none_or(|top| rank > *top);
            assert!(above, "lock order: {rank:?} taken holding {held:?}");
            held.push(rank);
        });
        Held { rank }
    }

    fn assert_alone(&self) {
        #[cfg(debug_assertions)]
        HELD.with_borrow(|held| assert!(held == &[self.rank], "wait holding {held:?}"));
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        // `try_with`: a drop must not panic, even after the thread's
        // locals are gone.
        HELD.try_with(|held| held.borrow_mut().retain(|r| *r != self.rank))
            .unwrap_or_default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::RwLock;

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

    #[test]
    fn a_poisoned_ranked_lock_hands_its_guard_back() {
        let m = Ranked::new(Rank::Nvram, 1u32);
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                *m.lock() += 1;
                let _g = m.lock();
                panic!("dies holding a ranked guard");
            });
            assert!(holder.join().is_err());
        });
        assert_eq!(*m.lock(), 2);
        assert_unlocked();
    }
}

/// The checks themselves exist only in debug builds.
#[cfg(all(test, debug_assertions))]
mod rank_tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn held() -> Vec<Rank> {
        HELD.with_borrow(Clone::clone)
    }

    /// `f` panics, and leaves this thread's stack empty behind it.
    fn panics(f: impl FnOnce()) {
        assert!(catch_unwind(AssertUnwindSafe(f)).is_err());
        assert_eq!(held(), []);
    }

    #[test]
    fn locks_taken_in_rank_order_nest() {
        let (faults, inbox) = (
            Ranked::new(Rank::MemFaults, ()),
            Ranked::new(Rank::MemInbox, ()),
        );
        let f = faults.lock();
        let i = inbox.lock();
        assert_eq!(held(), [Rank::MemFaults, Rank::MemInbox]);
        drop((i, f));
        assert_eq!(held(), []);
        assert_unlocked();
    }

    #[test]
    fn an_inverted_order_panics_before_blocking() {
        let (faults, inbox) = (
            Ranked::new(Rank::MemFaults, ()),
            Ranked::new(Rank::MemInbox, ()),
        );
        panics(|| {
            let _i = inbox.lock();
            let _f = faults.lock();
        });
    }

    #[test]
    fn relocking_a_held_lock_panics() {
        let m = Ranked::new(Rank::Nvram, 0u8);
        panics(|| {
            let _g = m.lock();
            let _again = m.lock();
        });
        // Two locks of one rank (two endpoints' inboxes) do not nest either.
        let (a, b) = (
            Ranked::new(Rank::MemInbox, ()),
            Ranked::new(Rank::MemInbox, ()),
        );
        panics(|| {
            let _a = a.lock();
            let _b = b.lock();
        });
    }

    #[test]
    fn a_blocking_call_under_a_live_guard_panics() {
        let m = Ranked::new(Rank::MemInbox, vec![1]);
        panics(|| {
            let _g = m.lock();
            assert_unlocked();
        });
        // A temporary guard lives to the end of its statement.
        panics(|| m.lock().iter().for_each(|_| assert_unlocked()));
        drop(m.lock());
        assert_unlocked();
    }

    #[test]
    fn a_condvar_wait_under_another_guard_panics() {
        let (outer, inner) = (
            Ranked::new(Rank::MemFaults, ()),
            Ranked::new(Rank::MemInbox, ()),
        );
        let cv = Condvar::new();
        panics(|| {
            let _o = outer.lock();
            drop(inner.lock().wait_timeout(&cv, Duration::from_millis(1)));
        });
    }

    #[test]
    fn a_guard_back_from_a_wait_is_still_tracked() {
        let m = Ranked::new(Rank::ShardExits, 0u32);
        let cv = Condvar::new();
        let (g, waited) = m.lock().wait_timeout(&cv, Duration::from_millis(1));
        assert!(waited.timed_out());
        assert_eq!(held(), [Rank::ShardExits]);
        panics(|| {
            let _g = g;
            assert_unlocked();
        });

        let g = m.lock().wait_while(&cv, |n| {
            *n += 1;
            *n < 1
        });
        assert_eq!((*g, held()), (1, vec![Rank::ShardExits]));
        drop(g);
        assert_eq!(held(), []);
    }

    #[test]
    fn guards_dropped_out_of_order_leave_the_stack_consistent() {
        let locks = [Rank::MemFaults, Rank::MemInbox, Rank::Nvram].map(|r| Ranked::new(r, ()));
        let [a, b, c] = locks.each_ref().map(Ranked::lock);
        drop(b);
        assert_eq!(held(), [Rank::MemFaults, Rank::Nvram]);
        drop(a);
        assert_eq!(held(), [Rank::Nvram]);
        // Below the top is still below: MemInbox may not come back yet.
        panics(|| drop((c, locks[1].lock())));
        let b = locks[1].lock();
        let c = locks[2].lock();
        drop(b);
        drop(c);
        assert_eq!(held(), []);
    }
}
