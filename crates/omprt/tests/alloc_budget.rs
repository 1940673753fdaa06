//! The healthy path's allocation budget: after a pool's first regions, no
//! region of any schedule, reducing or not, under an ambient cancel
//! token or not, allocates — on the coordinator or on a worker. The
//! count is process-wide, so this binary holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use subsub_omprt::cancel::with_ambient_cancel;
use subsub_omprt::{CancelToken, Schedule, ThreadPool};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: defers to `System` for every operation; the only addition is
// a relaxed bump of a static counter, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

/// Allocations made by rounds 2 to 1000 of every entry point a kernel
/// calls, under each schedule.
fn allocations_after_the_first_round(pool: &ThreadPool) -> u64 {
    let n = 192usize;
    let sink = AtomicU64::new(0);
    let mut before = 0;
    for round in 0..1_000 {
        if round == 1 {
            before = ALLOCATIONS.load(Ordering::Relaxed);
        }
        for sched in [
            Schedule::static_default(),
            Schedule::Static { chunk: Some(5) },
            Schedule::dynamic_default(),
            Schedule::Guided { min_chunk: 2 },
        ] {
            pool.parallel_for(n, sched, |i| {
                sink.fetch_add(i as u64, Ordering::Relaxed);
            });
            let sum = pool.parallel_for_reduce(n, sched, 0u64, |a, i| a + i as u64, |a, b| a + b);
            assert_eq!(sum, (n as u64 - 1) * n as u64 / 2, "{sched}");
        }
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn regions_allocate_nothing_after_the_first() {
    for threads in [1usize, 2, 4] {
        let pool = ThreadPool::new(threads);
        // A worker allocates once, in std's thread start-up, whenever the
        // OS first runs it — which a coordinator that absorbs every tid
        // never waits for. Give the team time to come up.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(allocations_after_the_first_round(&pool), 0, "T = {threads}");
        let token = Arc::new(CancelToken::new());
        let lent = with_ambient_cancel(&token, || allocations_after_the_first_round(&pool));
        assert_eq!(lent, 0, "T = {threads}, ambient token installed");
        assert_eq!(pool.health().degradation_events(), 0);
    }
}
