//! Waiting primitives shared by both sides of the fork-join protocol.
//!
//! The protocol itself — one epoch-stamped word per tid — lives in
//! [`crate::pool`]; this module holds what every wait on those words has
//! in common: the cache-line padding, the spin policy and the parked
//! fallback.
//!
//! Both sides wait *spin-then-park*: a bounded spin on the atomic (busy
//! `spin_loop` hints first, then `yield_now` so the policy stays civil
//! when threads outnumber cores), falling back to a mutex/condvar park
//! only after the budget is exhausted. The parked path is the classic
//! Dekker handshake — the sleeper advertises itself with a `SeqCst`
//! counter *before* re-checking the atomic, and the publisher orders its
//! store with `SeqCst` *before* reading the counter — so a wakeup can
//! never be missed while the common case stays entirely lock-free.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Pads and aligns a value to a 64-byte cache line so adjacent slots in
/// an array never false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps a value.
    pub fn new(value: T) -> CachePadded<T> {
        CachePadded { value }
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// Default bound on spin attempts before parking. The first iterations
/// are pure `spin_loop` hints; the rest yield the core, which keeps an
/// oversubscribed machine (threads > cores) making progress instead of
/// burning whole scheduler quanta.
const DEFAULT_SPIN_BUDGET: u32 = 300;

/// Spin attempts that use `spin_loop` before switching to `yield_now`.
const SPIN_BEFORE_YIELD: u32 = 64;

/// The spin budget, overridable via `OMPRT_SPIN` (0 = park immediately).
pub fn spin_budget() -> u32 {
    static BUDGET: OnceLock<u32> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        std::env::var("OMPRT_SPIN")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(DEFAULT_SPIN_BUDGET)
    })
}

/// Polls `ready` under the spin budget; `false` once the budget is
/// exhausted (caller should park).
fn spin_poll(mut ready: impl FnMut() -> bool) -> bool {
    let budget = spin_budget();
    for i in 0..budget {
        if ready() {
            return true;
        }
        if i < SPIN_BEFORE_YIELD {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
    ready()
}

/// The parked half of a spin-then-park wait on some atomic the caller
/// owns. The pool has two: idle workers between regions, and the
/// coordinator inside a join.
#[derive(Debug, Default)]
pub struct Parker {
    /// Threads parked, or committed to parking (the Dekker flag).
    parked: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Parker {
    /// Waits (spin, then park) until `ready` holds, or — with a `timeout`
    /// — until it elapses, which returns `false`: that is how the
    /// coordinator interleaves its watchdog scan with the join. `ready`
    /// must read its atomics with `SeqCst`.
    pub fn wait(&self, timeout: Option<Duration>, mut ready: impl FnMut() -> bool) -> bool {
        if spin_poll(&mut ready) {
            return true;
        }
        // Advertise before the final re-check (pairs with `wake`'s
        // publish-then-load).
        self.parked.fetch_add(1, Ordering::SeqCst);
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut g = lock(&self.lock);
        while !ready() {
            let left = match deadline {
                None => Duration::MAX,
                Some(dl) => dl.saturating_duration_since(Instant::now()),
            };
            if left.is_zero() {
                break;
            }
            let (g2, _) = self
                .cv
                .wait_timeout(g, left)
                .unwrap_or_else(|p| p.into_inner());
            g = g2;
        }
        drop(g);
        self.parked.fetch_sub(1, Ordering::SeqCst);
        ready()
    }

    /// Wakes every parked waiter if there is one and `worth_it` says so
    /// (evaluated only when somebody is parked). The caller must have
    /// ordered what the waiters' `ready` reads before this call with
    /// `SeqCst` — a `SeqCst` store or RMW, or a `SeqCst` fence after
    /// weaker stores.
    pub fn wake(&self, worth_it: impl FnOnce() -> bool) {
        if self.parked.load(Ordering::SeqCst) > 0 && worth_it() {
            // Acquiring (and immediately releasing) the lock closes the
            // window between a sleeper's last check and its wait;
            // notifying *after* the unlock spares the woken thread an
            // immediate block on the mutex.
            drop(lock(&self.lock));
            self.cv.notify_all();
        }
    }
}

/// Locks a mutex, ignoring poisoning (the guarded state is only a park
/// rendezvous; all real state lives in atomics).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn cache_padded_is_a_cache_line() {
        assert!(std::mem::size_of::<CachePadded<AtomicU64>>() >= 64);
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 64);
        let mut p = CachePadded::new(5u32);
        *p += 1;
        assert_eq!(*p, 6);
    }

    #[test]
    fn parker_releases_a_parked_waiter() {
        let shared = Arc::new((Parker::default(), AtomicU64::new(0)));
        let s2 = Arc::clone(&shared);
        let h = std::thread::spawn(move || {
            let (parker, flag) = &*s2;
            parker.wait(None, || flag.load(Ordering::SeqCst) == 7)
        });
        // Nothing is published before the waiter has run out of spin
        // budget and parked, so the wake below is the one under test.
        let (parker, flag) = &*shared;
        while parker.parked.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        flag.store(7, Ordering::SeqCst);
        parker.wake(|| true);
        assert!(h.join().expect("waiter"));
    }

    #[test]
    fn timed_wait_hands_control_back() {
        let parker = Parker::default();
        assert!(!parker.wait(Some(Duration::from_millis(1)), || false));
        assert_eq!(parker.parked.load(Ordering::SeqCst), 0);
    }
}
