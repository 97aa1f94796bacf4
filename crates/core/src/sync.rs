//! Synchronization facade: `std::sync` in production builds, `rb-loom`'s
//! instrumented shims under `cfg(loom)`.
//!
//! [`crate::mgmt`]'s epoch-published rule tables import exclusively from
//! here, so `RUSTFLAGS="--cfg loom" cargo test -p rb-core --test
//! loom_models` model-checks the production publish/refresh protocol
//! under every reachable interleaving.

#[cfg(not(loom))]
pub use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(loom))]
pub use std::sync::{Arc, RwLockReadGuard, RwLockWriteGuard};

#[cfg(loom)]
pub use rb_loom::sync::atomic::{AtomicU64, Ordering};
#[cfg(loom)]
pub use rb_loom::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// `std::sync::RwLock` behind the infallible `read()`/`write()` the loom
/// shim also offers. A lock poisoned by a panicking holder is taken over,
/// not surfaced: the rule table it guards is only ever changed by whole
/// `Vec` operations, which leave it valid wherever they unwind.
#[cfg(not(loom))]
pub struct RwLock<T>(std::sync::RwLock<T>);

#[cfg(not(loom))]
impl<T> RwLock<T> {
    /// A new unlocked lock holding `v`.
    pub fn new(v: T) -> RwLock<T> {
        RwLock(std::sync::RwLock::new(v))
    }

    /// Block until shared access is held.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Block until exclusive access is held.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}
