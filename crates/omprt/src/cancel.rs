//! Cooperative cancellation for parallel regions.
//!
//! A [`CancelToken`] lets any thread in (or outside) a `parallel for`
//! request that the remaining iterations be abandoned — the mechanism
//! behind early-exit inspectors: once one chunk finds a monotonicity
//! violation the whole scan's answer is known, so scanning the rest of
//! the index array is pure waste. Cancellation is *cooperative*: the
//! runtime checks the token between chunk claims and between iterations,
//! so an iteration already in flight always finishes (iterations run at
//! most once, and none start after the cancel is observed).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shareable one-way cancellation flag.
///
/// Inside an `Arc` the flag shares a cache line with the reference
/// counts, and every thread of a region polls it per iteration: whoever
/// runs regions under a token borrows it (`with_ambient`) instead of
/// cloning the handle per region.
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: AtomicBool,
}

impl CancelToken {
    /// A fresh (not cancelled) token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

thread_local! {
    /// Stack of ambient tokens installed by [`with_ambient_cancel`] on
    /// *this* thread. A stack (not a slot) so nested scopes restore the
    /// outer token instead of clearing it.
    static AMBIENT: RefCell<Vec<Arc<CancelToken>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with `token` installed as this thread's *ambient* cancel
/// token: any `parallel for` the thread coordinates while inside `f`
/// observes the token exactly as if it had been passed explicitly to
/// [`crate::ThreadPool::parallel_for_deadline`].
///
/// This is the hook that lets a host (the analysis service) cancel deep
/// inside code that never learned about tokens — kernels call plain
/// `pool.parallel_for`, and the runtime picks the token up from the
/// coordinating thread's ambient scope. The scope is strictly
/// per-thread: other coordinators sharing the pool are unaffected.
pub fn with_ambient_cancel<R>(token: &Arc<CancelToken>, f: impl FnOnce() -> R) -> R {
    struct PopOnDrop;
    impl Drop for PopOnDrop {
        fn drop(&mut self) {
            AMBIENT.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    AMBIENT.with(|s| s.borrow_mut().push(Arc::clone(token)));
    let _guard = PopOnDrop;
    f()
}

/// The innermost ambient token installed on this thread, if any.
pub fn ambient_cancel() -> Option<Arc<CancelToken>> {
    AMBIENT.with(|s| s.borrow().last().cloned())
}

/// Runs `f` with the token a region should poll: `explicit` if the
/// caller passed one, else the innermost ambient token, lent for the
/// length of the call without touching its reference count — where
/// [`ambient_cancel`] would clone and drop the handle once per region.
pub(crate) fn with_ambient<R>(
    explicit: Option<&CancelToken>,
    f: impl FnOnce(Option<&CancelToken>) -> R,
) -> R {
    if explicit.is_some() {
        return f(explicit);
    }
    let top: Option<*const CancelToken> = AMBIENT.with(|s| s.borrow().last().map(Arc::as_ptr));
    // SAFETY: the entry was pushed by a `with_ambient_cancel` frame
    // below this one on this thread's stack, and the stack keeps its
    // `Arc` until that frame returns — after `f` has. A scope opened
    // inside `f` pushes above the entry and pops its own push before it
    // returns, unwinding included, so the entry is never removed early.
    f(top.map(|p| unsafe { &*p }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_is_sticky_and_idempotent() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn ambient_scope_nests_and_restores() {
        assert!(ambient_cancel().is_none());
        with_ambient(None, |t| assert!(t.is_none()));
        let outer = Arc::new(CancelToken::new());
        let inner = Arc::new(CancelToken::new());
        with_ambient_cancel(&outer, || {
            assert!(Arc::ptr_eq(
                &ambient_cancel().expect("outer installed"),
                &outer
            ));
            with_ambient_cancel(&inner, || {
                assert!(Arc::ptr_eq(
                    &ambient_cancel().expect("inner installed"),
                    &inner
                ));
                // A region borrows the same token without counting it,
                // unless its caller passed one.
                let held = Arc::strong_count(&inner);
                with_ambient(None, |t| {
                    assert!(std::ptr::eq(t.expect("lent"), &*inner));
                    assert_eq!(Arc::strong_count(&inner), held);
                });
                with_ambient(Some(&outer), |t| {
                    assert!(std::ptr::eq(t.expect("explicit wins"), &*outer));
                });
            });
            assert!(Arc::ptr_eq(
                &ambient_cancel().expect("outer restored"),
                &outer
            ));
        });
        assert!(ambient_cancel().is_none());
    }

    #[test]
    fn ambient_scope_unwinds_on_panic() {
        let t = Arc::new(CancelToken::new());
        let caught = std::panic::catch_unwind(|| {
            with_ambient_cancel(&t, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert!(ambient_cancel().is_none());
    }

    #[test]
    fn ambient_is_per_thread() {
        let t = Arc::new(CancelToken::new());
        with_ambient_cancel(&t, || {
            let seen = std::thread::spawn(|| ambient_cancel().is_some())
                .join()
                .expect("probe thread");
            assert!(!seen, "ambient token leaked across threads");
        });
    }
}
