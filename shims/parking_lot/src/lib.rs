//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! a minimal API-compatible shim implemented over `std::sync`. Only the
//! surface actually used by the workspace is provided: [`Mutex`] with a
//! panic-free `lock()` returning the guard directly, and [`MutexGuard`].
//!
//! Poisoning is deliberately ignored, matching parking_lot semantics: a
//! panicking rank must not poison the maestro's view of shared state (ranks
//! and maestro run strictly one at a time, see `simix`).

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A mutual-exclusion primitive (parking_lot-compatible subset).
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized>(std::sync::MutexGuard<'a, T>);

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.0.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until available. Unlike `std`, returns
    /// the guard directly (poisoning is ignored).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(match self.0.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        })
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }
}
