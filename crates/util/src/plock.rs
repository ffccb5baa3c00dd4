//! # Poison-recovering named mutex (`PLock`)
//!
//! Every mutex in the workspace goes through this wrapper instead of raw
//! `std::sync::Mutex`, for two reasons the serving stack cares about:
//!
//! 1. **Poison recovery.** A worker that panics while holding a lock must
//!    never take down an unrelated request path (`/statz` learned this the
//!    hard way). `PLock::lock` recovers from poisoning with
//!    `unwrap_or_else(PoisonError::into_inner)` — the data may be mid-update,
//!    but every consumer here tolerates that (counters, caches, rings), and
//!    a torn read beats a cascading panic. `clippy.toml` disallows
//!    `std::sync::Mutex` everywhere but here, so no raw `.lock().unwrap()`
//!    can come back.
//!
//! 2. **Lock-order detection.** Each lock carries a `&'static str` name (an
//!    order class, not an instance id — all per-worker probe slots share one
//!    name). Under `cfg(debug_assertions)` every acquisition records the
//!    per-thread held-set and the directed edge `(held, acquiring)` in a
//!    global table; acquiring `B` while holding `A` after some thread
//!    acquired `A` while holding `B` panics with both threads' held-sets.
//!    The whole test suite runs with debug assertions on, so the chaos tests
//!    double as a deadlock detector. Release builds compile the detector
//!    out entirely.
//!
//! Condvar integration: `std::sync::Condvar::wait` consumes a `MutexGuard`,
//! so `PLockGuard` exposes consuming [`PLockGuard::wait`] /
//! [`PLockGuard::wait_timeout`] that recover from poisoning and keep the
//! held-set bookkeeping consistent (the lock stays "held" across the wait —
//! conservative, and true at both edges of the wait).

#![expect(
    clippy::disallowed_types,
    reason = "PLock is the one wrapper around std::sync::Mutex"
)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// A named mutex that recovers from poisoning and participates in the
/// debug-build lock-order detector.
pub struct PLock<T: ?Sized> {
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> PLock<T> {
    /// Wraps `value` in a lock belonging to the order class `name`.
    ///
    /// Names identify *order classes*, not instances: two locks that are
    /// never held together by design (e.g. per-worker slots) may share a
    /// name, which also exempts them from inversion tracking against each
    /// other.
    pub const fn new(name: &'static str, value: T) -> Self {
        PLock {
            name,
            inner: Mutex::new(value),
        }
    }

    /// Acquires the lock, recovering from poisoning.
    ///
    /// In debug builds this first checks the calling thread's held-set
    /// against the global acquisition-order table and panics on a
    /// cross-thread order inversion (a potential deadlock) — see the module
    /// docs.
    pub fn lock(&self) -> PLockGuard<'_, T> {
        #[cfg(debug_assertions)]
        order::acquiring(self.name);
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        PLockGuard {
            name: self.name,
            guard: Some(guard),
        }
    }

    /// The lock's order-class name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Whether a thread has panicked while holding this lock. `lock()` still
    /// succeeds afterwards; this exists so tests can assert recovery really
    /// exercised the poisoned path.
    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: fmt::Debug> fmt::Debug for PLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("PLock");
        d.field("name", &self.name);
        match self.inner.try_lock() {
            Ok(guard) => d.field("value", &&*guard),
            Err(_) => d.field("value", &"<locked>"),
        };
        d.finish()
    }
}

/// Guard returned by [`PLock::lock`]. Releases the lock (and pops the
/// held-set entry in debug builds) on drop.
pub struct PLockGuard<'a, T: ?Sized> {
    name: &'static str,
    // `None` only transiently inside `wait`/`wait_timeout`, which own `self`;
    // no other code can observe the vacant state.
    guard: Option<MutexGuard<'a, T>>,
}

impl<'a, T: ?Sized> PLockGuard<'a, T> {
    /// The order-class name of the lock this guard holds.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl<'a, T> PLockGuard<'a, T> {
    /// Blocks on `cv`, atomically releasing the lock for the duration of the
    /// wait and re-acquiring it (poison-recovering) before returning.
    pub fn wait(mut self, cv: &Condvar) -> Self {
        let inner = self.guard.take().expect("guard vacant outside wait");
        let inner = cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
        self.guard = Some(inner);
        self
    }

    /// Like [`PLockGuard::wait`] with a timeout; the flag reports whether the
    /// wait timed out.
    pub fn wait_timeout(mut self, cv: &Condvar, dur: Duration) -> (Self, WaitTimeoutResult) {
        let inner = self.guard.take().expect("guard vacant outside wait");
        let (inner, res) = cv
            .wait_timeout(inner, dur)
            .unwrap_or_else(PoisonError::into_inner);
        self.guard = Some(inner);
        (self, res)
    }
}

impl<'a, T: ?Sized> Deref for PLockGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_deref().expect("guard vacant outside wait")
    }
}

impl<'a, T: ?Sized> DerefMut for PLockGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard
            .as_deref_mut()
            .expect("guard vacant outside wait")
    }
}

impl<'a, T: ?Sized> Drop for PLockGuard<'a, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        order::released(self.name);
    }
}

impl<'a, T: fmt::Debug + ?Sized> fmt::Debug for PLockGuard<'a, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// The debug-build lock-order detector. Compiled out in release builds.
#[cfg(debug_assertions)]
mod order {
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock, PoisonError};

    /// Provenance of a recorded acquisition edge, for the panic message.
    struct Edge {
        thread: String,
        held: Vec<&'static str>,
    }

    /// Directed edges `(first, second)`: some thread acquired `second` while
    /// holding `first`. Acquiring in the opposite order on any thread is an
    /// inversion.
    static EDGES: OnceLock<Mutex<HashMap<(&'static str, &'static str), Edge>>> = OnceLock::new();

    thread_local! {
        static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    fn thread_name() -> String {
        let cur = std::thread::current();
        match cur.name() {
            Some(n) => n.to_owned(),
            None => format!("{:?}", cur.id()),
        }
    }

    pub(super) fn acquiring(name: &'static str) {
        HELD.with(|cell| {
            let held_now: Vec<&'static str> = cell.borrow().clone();
            if !held_now.is_empty() {
                let mut edges = EDGES
                    .get_or_init(|| Mutex::new(HashMap::new()))
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                for &h in &held_now {
                    // Same order class (e.g. two per-worker slots): exempt.
                    if h == name {
                        continue;
                    }
                    if let Some(prior) = edges.get(&(name, h)) {
                        let msg = format!(
                            "lock-order inversion: thread '{}' acquires '{}' while holding \
                             {:?}, but thread '{}' previously acquired '{}' while holding \
                             {:?}; lock classes must be acquired in one global order",
                            thread_name(),
                            name,
                            held_now,
                            prior.thread,
                            h,
                            prior.held,
                        );
                        drop(edges);
                        panic!("{msg}");
                    }
                }
                for &h in &held_now {
                    if h != name {
                        edges.entry((h, name)).or_insert_with(|| Edge {
                            thread: thread_name(),
                            held: held_now.clone(),
                        });
                    }
                }
            }
            cell.borrow_mut().push(name);
        });
    }

    pub(super) fn released(name: &'static str) {
        HELD.with(|cell| {
            let mut held = cell.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&h| h == name) {
                held.remove(pos);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn lock_round_trips_value() {
        let lock = PLock::new("plock-test-roundtrip", 41_u32);
        *lock.lock() += 1;
        assert_eq!(*lock.lock(), 42);
        assert_eq!(lock.name(), "plock-test-roundtrip");
        assert_eq!(lock.into_inner(), 42);
    }

    #[test]
    fn lock_recovers_from_poison() {
        let lock = Arc::new(PLock::new("plock-test-poison", vec![1, 2, 3]));
        let l2 = Arc::clone(&lock);
        let joined = thread::spawn(move || {
            let _g = l2.lock();
            panic!("poison on purpose");
        })
        .join();
        assert!(joined.is_err());
        assert!(lock.is_poisoned());
        // Still readable, data intact.
        assert_eq!(lock.lock().len(), 3);
    }

    #[test]
    fn condvar_wait_timeout_recovers_guard() {
        let lock = PLock::new("plock-test-cv", 0_u8);
        let cv = Condvar::new();
        let guard = lock.lock();
        let (guard, res) = guard.wait_timeout(&cv, Duration::from_millis(1));
        assert!(res.timed_out());
        assert_eq!(*guard, 0);
    }

    #[test]
    fn condvar_wait_wakes_on_notify() {
        let pair = Arc::new((PLock::new("plock-test-cv-notify", false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let waiter = thread::spawn(move || {
            let (lock, cv) = &*p2;
            let mut g = lock.lock();
            while !*g {
                g = g.wait(cv);
            }
            *g
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        assert!(waiter.join().expect("waiter must not panic"));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn consistent_lock_order_does_not_panic() {
        let a = Arc::new(PLock::new("plock-test-ord-ok-a", ()));
        let b = Arc::new(PLock::new("plock-test-ord-ok-b", ()));
        for _ in 0..2 {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            thread::spawn(move || {
                let _ga = a.lock();
                let _gb = b.lock();
            })
            .join()
            .expect("consistent order must not trip the detector");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn same_order_class_is_exempt() {
        // Two locks sharing one name: nesting them must not be treated as an
        // inversion in either direction.
        let a = PLock::new("plock-test-ord-class", 1_u8);
        let b = PLock::new("plock-test-ord-class", 2_u8);
        let ga = a.lock();
        let gb = b.lock();
        drop(gb);
        drop(ga);
        let gb = b.lock();
        let ga = a.lock();
        drop(ga);
        drop(gb);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn lock_order_inversion_trips_detector() {
        // Regression test for the lock-order detector: a deliberate
        // A→B then B→A acquisition across two threads must panic, naming
        // both locks. The threads run sequentially (joined), so this never
        // actually deadlocks — the detector fires on the *order*, not on a
        // real contention.
        let a = Arc::new(PLock::new("plock-test-ord-bad-a", ()));
        let b = Arc::new(PLock::new("plock-test-ord-bad-b", ()));
        {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            thread::spawn(move || {
                let _ga = a.lock();
                let _gb = b.lock();
            })
            .join()
            .expect("first ordering records the edge without panicking");
        }
        let inverted = thread::spawn(move || {
            let _gb = b.lock();
            let _ga = a.lock();
        })
        .join();
        let payload = inverted.expect_err("inverted ordering must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("lock-order inversion"), "got: {msg}");
        assert!(msg.contains("plock-test-ord-bad-a"), "got: {msg}");
        assert!(msg.contains("plock-test-ord-bad-b"), "got: {msg}");
    }
}
