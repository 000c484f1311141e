//! Offline shim for the `parking_lot` API surface used by this workspace.
//!
//! Wraps `std::sync` primitives and strips lock poisoning, matching the
//! `parking_lot` semantics the workspace code relies on: `lock()`, `read()`
//! and `write()` return guards directly (no `Result`). A thread that
//! panicked while holding a lock does not poison it for others.

use std::sync::{self, TryLockError};

/// A mutual-exclusion lock with `parking_lot`'s non-poisoning interface.
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// Guard type returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Create a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Attempt to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

/// A reader-writer lock with `parking_lot`'s non-poisoning interface.
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

/// Guard type returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
/// Guard type returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Create a new reader-writer lock protecting `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard, blocking until available.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire an exclusive write guard, blocking until available.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Attempt to acquire the write guard without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RwLock { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_many_readers() {
        let l = RwLock::new(vec![1, 2, 3]);
        let a = l.read();
        let b = l.read();
        assert_eq!(a.len() + b.len(), 6);
        drop((a, b));
        l.write().push(4);
        assert_eq!(l.read().len(), 4);
    }

    #[test]
    fn try_write_yields_to_a_reader() {
        let l = RwLock::new(0u32);
        let reader = l.read();
        assert!(l.try_write().is_none());
        drop(reader);
        *l.try_write().expect("lock is free") += 1;
        assert_eq!(*l.read(), 1);
    }

    #[test]
    fn lock_survives_panicking_holder() {
        let m = std::sync::Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // parking_lot semantics: no poisoning, lock still usable.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}
