//! Drop-in synchronization shims: instrumented atomics and an
//! infallible-API `RwLock`. Every operation is a scheduling
//! point, so the checker explores each placement of the operation
//! relative to every other task's.

use std::ops::{Deref, DerefMut};
use std::sync::RwLock as StdRwLock;

pub use std::sync::Arc;

use crate::sched;

/// Instrumented atomic integers and flags.
///
/// Each operation yields to the scheduler first, then performs the real
/// operation with `SeqCst` semantics (the requested ordering is
/// accepted for signature compatibility; one-task-at-a-time execution
/// with mutex hand-offs is sequentially consistent regardless, which
/// over-approximates anything the shimmed code asks for).
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use crate::sched;

    macro_rules! instrumented_atomic {
        ($(#[$doc:meta])* $name:ident, $inner:ty, $int:ty) => {
            $(#[$doc])*
            #[derive(Debug, Default)]
            pub struct $name {
                v: $inner,
            }

            impl $name {
                /// Create with an initial value.
                #[must_use]
                pub const fn new(v: $int) -> $name {
                    $name { v: <$inner>::new(v) }
                }

                /// Instrumented load.
                pub fn load(&self, _order: Ordering) -> $int {
                    sched::yield_point();
                    self.v.load(Ordering::SeqCst)
                }

                /// Instrumented store.
                pub fn store(&self, val: $int, _order: Ordering) {
                    sched::yield_point();
                    self.v.store(val, Ordering::SeqCst);
                }

                /// Instrumented swap.
                pub fn swap(&self, val: $int, _order: Ordering) -> $int {
                    sched::yield_point();
                    self.v.swap(val, Ordering::SeqCst)
                }

                /// Instrumented compare-exchange.
                ///
                /// # Errors
                /// Returns the actual value when it differs from `current`.
                pub fn compare_exchange(
                    &self,
                    current: $int,
                    new: $int,
                    _success: Ordering,
                    _failure: Ordering,
                ) -> Result<$int, $int> {
                    sched::yield_point();
                    self.v.compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
                }
            }
        };
    }

    instrumented_atomic!(
        /// Instrumented `AtomicBool`.
        AtomicBool,
        std::sync::atomic::AtomicBool,
        bool
    );
    instrumented_atomic!(
        /// Instrumented `AtomicU64`.
        AtomicU64,
        std::sync::atomic::AtomicU64,
        u64
    );
    instrumented_atomic!(
        /// Instrumented `AtomicUsize`.
        AtomicUsize,
        std::sync::atomic::AtomicUsize,
        usize
    );

    macro_rules! instrumented_fetch_ops {
        ($name:ident, $int:ty) => {
            impl $name {
                /// Instrumented fetch-add (wrapping, like std).
                pub fn fetch_add(&self, val: $int, _order: Ordering) -> $int {
                    sched::yield_point();
                    self.v.fetch_add(val, Ordering::SeqCst)
                }

                /// Instrumented fetch-sub (wrapping, like std).
                pub fn fetch_sub(&self, val: $int, _order: Ordering) -> $int {
                    sched::yield_point();
                    self.v.fetch_sub(val, Ordering::SeqCst)
                }

                /// Instrumented fetch-max.
                pub fn fetch_max(&self, val: $int, _order: Ordering) -> $int {
                    sched::yield_point();
                    self.v.fetch_max(val, Ordering::SeqCst)
                }
            }
        };
    }

    instrumented_fetch_ops!(AtomicU64, u64);
    instrumented_fetch_ops!(AtomicUsize, usize);
}

/// The logical lock state; the scheduler's one-at-a-time execution makes
/// the `std` mutex around it uncontended in practice.
#[derive(Debug, Default)]
struct RwState {
    writer: bool,
    readers: usize,
}

/// Instrumented reader-writer lock with an infallible API
/// (`read()`/`write()` return guards directly), so `cfg(loom)` swaps it
/// under code written against `rb_core::sync::RwLock`.
///
/// Admission is decided on a *logical* state guarded by the scheduler;
/// the data sits behind a `std` `RwLock` whose acquisitions can never
/// contend (the logical state admits compatible holders only, and task
/// switches happen solely at yield points).
#[derive(Debug)]
pub struct RwLock<T> {
    resource: u64,
    state: std::sync::Mutex<RwState>,
    data: StdRwLock<T>,
}

impl<T> RwLock<T> {
    /// Create an unlocked lock holding `v`.
    pub fn new(v: T) -> RwLock<T> {
        RwLock {
            resource: sched::fresh_resource(),
            state: std::sync::Mutex::new(RwState::default()),
            data: StdRwLock::new(v),
        }
    }

    /// Acquire shared access, blocking (cooperatively) while a writer
    /// holds the lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        loop {
            sched::yield_point();
            {
                let mut st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                if !st.writer {
                    st.readers = st.readers.saturating_add(1);
                    break;
                }
            }
            sched::block_on(self.resource);
        }
        let inner = self.data.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        RwLockReadGuard { owner: self, inner: Some(inner) }
    }

    /// Acquire exclusive access, blocking (cooperatively) while any
    /// holder exists.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        loop {
            sched::yield_point();
            {
                let mut st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                if !st.writer && st.readers == 0 {
                    st.writer = true;
                    break;
                }
            }
            sched::block_on(self.resource);
        }
        let inner = self.data.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        RwLockWriteGuard { owner: self, inner: Some(inner) }
    }

    /// Consume the lock, returning the data.
    pub fn into_inner(self) -> T {
        self.data.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Shared access to an [`RwLock`]'s data.
pub struct RwLockReadGuard<'a, T> {
    owner: &'a RwLock<T>,
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_deref().unwrap_or_else(|| unreachable!("guard holds data until drop"))
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        // Release the std guard before flipping the logical state: once
        // the state changes, another task admitted at its next yield
        // point must find the std lock free.
        drop(self.inner.take());
        let mut st = self.owner.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        st.readers = st.readers.saturating_sub(1);
        drop(st);
        sched::notify(self.owner.resource);
    }
}

/// Exclusive access to an [`RwLock`]'s data.
pub struct RwLockWriteGuard<'a, T> {
    owner: &'a RwLock<T>,
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_deref().unwrap_or_else(|| unreachable!("guard holds data until drop"))
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().unwrap_or_else(|| unreachable!("guard holds data until drop"))
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        let mut st = self.owner.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        st.writer = false;
        drop(st);
        sched::notify(self.owner.resource);
    }
}
