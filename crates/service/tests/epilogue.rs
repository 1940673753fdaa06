//! The pooled-epilogue invariant (DESIGN.md): an instance goes back
//! into a `KernelEntry`'s pool fully reset or not at all — under a
//! tripped job token and under a faulting reset region alike — so the
//! next `Execute` of the same (kernel, dataset) is golden on the
//! parallel path.
//!
//! Its own test binary: both tests arm process-wide failpoints, one of
//! which kills pool workers.

use std::sync::{Arc, Mutex};
use subsub_core::AlgorithmLevel;
use subsub_failpoint::{self as failpoint, Arm, FailPlan, Fire};
use subsub_kernels::kernel_by_name;
use subsub_omprt::{CancelToken, ThreadPool};
use subsub_rtcheck::GuardPath;
use subsub_service::{KernelEntry, Outcome, ServiceError};

/// 512 Ki outputs, 8 × `PAR_MIN`: digest and reset each open a region.
/// Its scatter targets are disjoint, so every variant is bit-identical
/// to the serial run.
const KERNEL: &str = "StridedScatter";
const DATASET: &str = "n256k";

/// One test at a time: each arms a plan the other's requests would trip.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn entry() -> KernelEntry {
    KernelEntry::new(KERNEL, DATASET, AlgorithmLevel::New).expect("registry kernel")
}

/// The serial answer, from an instance the service never saw.
fn golden() -> f64 {
    let mut inst = kernel_by_name(KERNEL)
        .expect("registry kernel")
        .prepare(DATASET);
    inst.run_serial();
    inst.checksum()
}

fn assert_golden_on_the_parallel_path(entry: &KernelEntry, pool: &ThreadPool, golden: f64) {
    let Outcome::Executed {
        path,
        checksum,
        degraded,
    } = entry.execute(pool, false, None).expect("executes")
    else {
        panic!("expected an execution outcome");
    };
    assert_eq!(checksum.to_bits(), golden.to_bits(), "stale instance");
    assert_eq!((path, degraded), (GuardPath::Parallel, None));
}

/// `golden_checksum` runs serially and opens only the epilogue's two
/// regions; every worker that starts a run of either dies there. Fails
/// if the pooled reset stops redoing a faulted region inline: the
/// half-restored instance is the one the next request checks out.
#[test]
fn a_faulted_reset_region_returns_a_pristine_instance() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::silence_injected_panics();
    let pool = ThreadPool::new(4);
    let golden = golden();
    // Whether a worker or the coordinator claims a run is a race the
    // workers win almost always; go again until both regions lost one.
    for _ in 0..50 {
        let entry = entry();
        let before = pool.health().aborted_regions;
        {
            let _chaos = failpoint::arm(FailPlan::new().with(
                "omprt.worker.job",
                Arm::Panic,
                Fire::always(),
            ));
            assert_eq!(entry.golden_checksum(&pool).to_bits(), golden.to_bits());
        }
        assert_golden_on_the_parallel_path(&entry, &pool, golden);
        if pool.health().aborted_regions >= before + 2 {
            return;
        }
    }
    panic!("no reset region lost a worker in 50 attempts: nothing was tested");
}

/// The job token trips while the worker sits in the parallel closure:
/// the kernel and its digest run under a tripped ambient token, the
/// request ends `Canceled`, and the reset that follows must not have
/// skipped anything.
#[test]
fn a_request_cancelled_mid_run_returns_a_pristine_instance() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let pool = ThreadPool::new(2);
    let entry = entry();
    let token = Arc::new(CancelToken::new());
    let cancelled = {
        let _chaos = failpoint::arm(FailPlan::new().with(
            "service.kernel.parallel",
            Arm::Delay(200),
            Fire::nth(0),
        ));
        std::thread::scope(|s| {
            s.spawn(|| {
                while failpoint::hits("service.kernel.parallel") == 0 {
                    std::thread::yield_now();
                }
                token.cancel();
            });
            entry.execute(&pool, false, Some(&token))
        })
    };
    assert!(matches!(cancelled, Err(ServiceError::Canceled)));
    assert_golden_on_the_parallel_path(&entry, &pool, golden());
}
