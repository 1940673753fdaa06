//! What a healthy guarded invocation must not pay for. `verify()` reads
//! the data once and builds nothing: no allocation on the passing path,
//! for an array shorter than one lane row (every `test` dataset) as for
//! a multi-block one. The kernel's health word is consulted on the way
//! in and on the way out, and allocates nothing either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use subsub_rtcheck::{BreakerState, Health, Provenance, ValidatedIndexArray};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers to `System` for every operation; the only addition is
// a thread-local counter bump, which does not allocate (const-initialized
// `Cell`, no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn verify_and_checksum_allocate_nothing() {
    for n in [0usize, 5, 31, 3 * 4096 + 77] {
        let array = ValidatedIndexArray::ingest(
            "a",
            (0..n).collect(),
            n.max(1),
            Provenance::Generated { seed: 1 },
        )
        .unwrap();
        let before = ALLOCATIONS.with(Cell::get);
        let verified = array.verify();
        let checksum = array.checksum();
        let after = ALLOCATIONS.with(Cell::get);
        assert!(verified.is_ok());
        assert_eq!(after - before, 0, "length {n} (checksum {checksum:#x})");
    }
}

#[test]
fn a_closed_health_word_allocates_nothing() {
    let health = Health::default();
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..1_000 {
        assert_eq!(health.admit(), Ok(()));
        assert!(!health.record_success(), "nothing to clear");
    }
    let after = ALLOCATIONS.with(Cell::get);
    assert_eq!(after - before, 0);
    assert_eq!(health.state(), BreakerState::Closed { faults: 0 });
}
