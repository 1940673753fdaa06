//! A `Send + Sync` raw-pointer wrapper for provably disjoint writes.
//!
//! OpenMP C programs freely write shared arrays from multiple threads;
//! correctness rests on the compiler's (or programmer's) proof that
//! iterations touch disjoint elements — exactly the property the paper's
//! analysis establishes (injectivity of the subscript array). This wrapper
//! is the Rust-side expression of that contract: it unlocks raw-pointer
//! writes across the team, and every use site must argue disjointness.

/// A raw pointer assertable as `Send + Sync`.
///
/// # Safety contract
///
/// Creating a `SendPtr` is safe; *dereferencing* [`SendPtr::get`]'s result
/// is `unsafe` and requires that concurrent accesses through the pointer
/// are data-race free (distinct iterations write distinct elements).
#[derive(Clone, Copy, Debug)]
pub struct SendPtr<T>(*mut T);

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Wraps a raw pointer.
    pub fn new(p: *mut T) -> SendPtr<T> {
        SendPtr(p)
    }

    /// The wrapped pointer.
    pub fn get(&self) -> *mut T {
        self.0
    }

    /// A new `SendPtr` offset by `count` elements.
    ///
    /// # Safety
    ///
    /// Same contract as `pointer::add`: the offset pointer must stay
    /// inside (or one past) the allocation the base points into.
    pub unsafe fn add(&self, count: usize) -> SendPtr<T> {
        SendPtr(self.0.add(count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut v = [1, 2, 3];
        let p = SendPtr::new(v.as_mut_ptr());
        unsafe {
            *p.get().add(1) = 9;
            *p.add(2).get() = 8;
        }
        assert_eq!(v, [1, 9, 8]);
    }
}
