//! Counting completion latch.
//!
//! Coordinating callers spin-help on the pool while the latch is open and
//! park briefly when no work is available. Every decrement happens under
//! the lock, and a waiter takes the lock once after reading zero
//! ([`CountLatch::sync`]): the latch usually lives in the waiter's stack
//! frame, so the last job's touch of it must end before the waiter may
//! return and free it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, PoisonError};
use std::time::Duration;

use parking_lot::Mutex;

/// Counts outstanding jobs; "set" when the count reaches zero.
pub(crate) struct CountLatch {
    count: AtomicUsize,
    lock: Mutex<()>,
    cvar: Condvar,
}

impl CountLatch {
    /// A latch with `count` outstanding jobs.
    pub(crate) fn new(count: usize) -> Self {
        CountLatch {
            count: AtomicUsize::new(count),
            lock: Mutex::new(()),
            cvar: Condvar::new(),
        }
    }

    /// Adds one outstanding job. Must happen-before the matching
    /// [`Self::set_one`] (callers increment before submitting).
    pub(crate) fn increment(&self) {
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one job done. The `Release` pairs with the waiter's
    /// `Acquire` load so the job's writes are visible once the latch
    /// reads zero. The decrement and the notification both happen under
    /// the lock, so a waiter that reads zero and then passes
    /// [`Self::sync`] knows this call no longer touches the latch.
    pub(crate) fn set_one(&self) {
        let _guard = self.lock.lock();
        if self.count.fetch_sub(1, Ordering::Release) == 1 {
            self.cvar.notify_all();
        }
    }

    /// Waits out the critical section of the `set_one` that brought the
    /// count to zero. Call once after [`Self::is_set`] returns true and
    /// before the latch may be freed.
    pub(crate) fn sync(&self) {
        drop(self.lock.lock());
    }

    /// Whether every job has finished.
    pub(crate) fn is_set(&self) -> bool {
        self.count.load(Ordering::Acquire) == 0
    }

    /// Parks the caller until notified or `timeout` elapses. The timeout
    /// bounds the missed-wakeup window for *pool* work arriving while we
    /// sleep on the latch (latch completion itself is never missed: the
    /// zero check below happens under the same lock as `set_one`'s
    /// notification).
    pub(crate) fn park(&self, timeout: Duration) {
        let guard = self.lock.lock();
        if self.is_set() {
            return;
        }
        let _ = self
            .cvar
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
    }
}
