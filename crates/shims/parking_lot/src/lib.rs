//! Offline stand-in for the `parking_lot` crate.
//!
//! Wraps [`std::sync`] primitives with `parking_lot`'s poison-free API:
//! `lock()` returns a guard directly, recovering the data if a previous
//! holder panicked (matching parking_lot, which has no poisoning).
//!
//! Unlike the real crate, this shim is **instrumented**: in debug builds
//! every lock carries the `file:line` of its construction site and every
//! blocking acquisition feeds a global lock-order graph. Acquiring locks
//! in an order that contradicts an order seen earlier — a potential
//! deadlock — panics immediately with both acquisition stacks, and a
//! watchdog records guards held longer than a threshold. See the
//! [`deadlock`] module. Release builds compile all of it away.

use std::fmt;
use std::ops::{Deref, DerefMut};
#[cfg(debug_assertions)]
use std::panic::Location;
use std::sync;
use std::time::Duration;

pub mod deadlock;

use deadlock::Tracked;

/// A mutual-exclusion lock that never poisons.
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    site: &'static Location<'static>,
    inner: sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    // Declared before `tracked` so the std guard drops (unlocks) first
    // and the tracker then records the release. `None` only inside a
    // [`Condvar`] wait, while std owns the guard.
    inner: Option<sync::MutexGuard<'a, T>>,
    #[allow(dead_code)]
    tracked: Tracked,
}

impl<T> Mutex<T> {
    /// Creates a new mutex. The caller's location becomes the lock's
    /// site id in the deadlock detector.
    #[track_caller]
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            #[cfg(debug_assertions)]
            site: Location::caller(),
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if this acquisition creates a lock-order
    /// cycle with acquisitions recorded earlier (potential deadlock).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        deadlock::on_blocking_acquire(self.site);
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
            tracked: self.tracked(),
        }
    }

    /// Tries to acquire the lock without blocking. Never records a
    /// lock-order edge: a non-blocking acquisition cannot close a wait
    /// cycle.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        #[cfg(debug_assertions)]
        deadlock::on_try_acquire(self.site);
        Some(MutexGuard {
            inner: Some(inner),
            tracked: self.tracked(),
        })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    fn tracked(&self) -> Tracked {
        #[cfg(debug_assertions)]
        {
            Tracked::new(self.site)
        }
        #[cfg(not(debug_assertions))]
        {
            Tracked::new()
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    #[track_caller]
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

const GUARD_PRESENT: &str = "the std guard is only absent inside a condvar wait";

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect(GUARD_PRESENT)
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect(GUARD_PRESENT)
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// A condition variable for [`Mutex`] guards.
///
/// Mirrors `parking_lot::Condvar`: waits take the guard by `&mut` and
/// hand it back re-locked. For the detector a wait is a release
/// followed by a fresh blocking acquisition, so the hold-time watchdog
/// never counts time spent asleep and the re-lock is ordered against
/// whatever else the thread still holds.
#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Creates a condition variable with no waiters.
    pub const fn new() -> Condvar {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Wakes one waiter, if any.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Atomically unlocks `guard` and sleeps until notified; the lock
    /// is held again on return. Wake-ups can be spurious: re-check the
    /// condition.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.park(guard, |cv, held| cv.wait(held).unwrap_or_else(|e| e.into_inner()));
    }

    /// [`Condvar::wait`] that also returns once `timeout` has passed.
    /// (The real crate reports which it was; callers here re-check
    /// their own deadline.)
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) {
        self.park(guard, |cv, held| match cv.wait_timeout(held, timeout) {
            Ok((held, _)) => held,
            Err(e) => e.into_inner().0,
        });
    }

    fn park<'a, T>(
        &self,
        guard: &mut MutexGuard<'a, T>,
        sleep: impl FnOnce(&sync::Condvar, sync::MutexGuard<'a, T>) -> sync::MutexGuard<'a, T>,
    ) {
        let held = guard.inner.take().expect(GUARD_PRESENT);
        guard.tracked.released();
        let held = sleep(&self.inner, held);
        guard.tracked.reacquired();
        guard.inner = Some(held);
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Condvar { .. }")
    }
}

/// A reader-writer lock that never poisons.
pub struct RwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    site: &'static Location<'static>,
    inner: sync::RwLock<T>,
}

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
    #[allow(dead_code)]
    tracked: Tracked,
}

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
    #[allow(dead_code)]
    tracked: Tracked,
}

impl<T> RwLock<T> {
    /// Creates a new lock. The caller's location becomes the lock's site
    /// id in the deadlock detector.
    #[track_caller]
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            #[cfg(debug_assertions)]
            site: Location::caller(),
            inner: sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if this acquisition creates a lock-order
    /// cycle with acquisitions recorded earlier (potential deadlock).
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        deadlock::on_blocking_acquire(self.site);
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
            tracked: self.tracked(),
        }
    }

    /// Acquires exclusive write access.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if this acquisition creates a lock-order
    /// cycle with acquisitions recorded earlier (potential deadlock).
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        deadlock::on_blocking_acquire(self.site);
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
            tracked: self.tracked(),
        }
    }

    fn tracked(&self) -> Tracked {
        #[cfg(debug_assertions)]
        {
            Tracked::new(self.site)
        }
        #[cfg(not(debug_assertions))]
        {
            Tracked::new()
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    #[track_caller]
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_guards_data() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn condvar_hands_the_guard_back_locked() {
        let pair = std::sync::Arc::new((Mutex::new(false), Condvar::new()));
        let waker = std::sync::Arc::clone(&pair);
        let handle = std::thread::spawn(move || {
            *waker.0.lock() = true;
            waker.1.notify_all();
        });
        let mut ready = pair.0.lock();
        while !*ready {
            pair.1.wait(&mut ready);
        }
        // A timed wait nobody answers returns with the lock held too.
        pair.1.wait_for(&mut ready, Duration::from_millis(1));
        assert!(*ready);
        drop(ready);
        handle.join().unwrap();
        pair.1.notify_one();
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(5u32);
        assert_eq!(*l.read(), 5);
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }

    #[test]
    fn consistent_nesting_order_does_not_panic() {
        let outer = Mutex::new(());
        let inner = Mutex::new(());
        for _ in 0..3 {
            let _a = outer.lock();
            let _b = inner.lock();
        }
    }
}
