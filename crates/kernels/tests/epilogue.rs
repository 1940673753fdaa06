//! The shared epilogue (`common::{det_sum, det_sum_on, restore, zero}`
//! and the `checksum_on` / `reset_on` every kernel builds from them):
//! one value whichever way it ran, and an instance that is fully reset
//! whatever happened to the region.
//!
//! Its own test binary because one test kills pool workers through a
//! process-wide failpoint. The others tolerate that by construction —
//! a faulted epilogue region is redone inline — so nothing here needs
//! to be serialized against it.

use std::sync::Arc;
use subsub_failpoint::{self as failpoint, Arm, FailPlan, Fire};
use subsub_kernels::common::{det_sum, det_sum_on, restore, zero, BLOCK, PAR_MIN};
use subsub_kernels::{all_kernels, kernel_by_name};
use subsub_omprt::cancel::with_ambient_cancel;
use subsub_omprt::{CancelToken, ThreadPool};

/// Values in the registry's range (initial data is `c + (i % m) · s`,
/// outputs stay within a few orders of magnitude of 1), from an LCG.
fn values(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 1.0
        })
        .collect()
}

fn teams() -> Vec<ThreadPool> {
    (1..=4).map(ThreadPool::new).collect()
}

const LENGTHS: [usize; 13] = [
    0,
    1,
    7,
    8,
    9,
    BLOCK - 1,
    BLOCK,
    BLOCK + 1,
    3 * BLOCK + 5,
    PAR_MIN - 1,
    PAR_MIN,
    PAR_MIN + 3 * BLOCK + 5,
    (1 << 20) + 7,
];

#[test]
fn det_sum_has_the_same_bits_on_every_team() {
    let teams = teams();
    for (k, &len) in LENGTHS.iter().enumerate() {
        let xs = values(len, k as u64);
        let serial = det_sum(&xs);
        for pool in &teams {
            assert_eq!(
                det_sum_on(Some(pool), &xs).to_bits(),
                serial.to_bits(),
                "len {len}, T {}",
                pool.threads()
            );
        }
        assert_eq!(det_sum_on(None, &xs).to_bits(), serial.to_bits());
        // Not the left-to-right sum, but within rounding of it.
        let naive = xs.iter().fold(0.0, |sum, x| sum + x);
        let scale = xs.iter().fold(1e-300, |sum, x| sum + x.abs());
        assert!(
            ((serial - naive) / scale).abs() < 1e-9,
            "len {len}: {serial} vs {naive}"
        );
    }
}

#[test]
fn non_finite_values_propagate() {
    let pool = ThreadPool::new(3);
    let len = PAR_MIN + 3 * BLOCK + 5;
    // A lane of the first block, the ragged tail, a block of another tid.
    for at in [3, len - 2, len / 2] {
        let mut xs = values(len, 9);
        xs[at] = f64::NAN;
        assert!(det_sum(&xs).is_nan(), "NaN at {at}");
        assert!(det_sum_on(Some(&pool), &xs).is_nan(), "NaN at {at}");
        xs[at] = f64::INFINITY;
        assert_eq!(det_sum(&xs), f64::INFINITY, "inf at {at}");
        assert_eq!(det_sum_on(Some(&pool), &xs), f64::INFINITY);
        xs[(at + BLOCK) % len] = f64::NEG_INFINITY;
        assert!(det_sum(&xs).is_nan(), "inf - inf at {at}");
        assert!(det_sum_on(Some(&pool), &xs).is_nan());
    }
}

#[test]
fn restore_and_zero_match_the_inline_forms() {
    let teams = teams();
    // Lengths no team size divides, on both sides of `PAR_MIN`.
    for len in [0, 1, PAR_MIN - 1, PAR_MIN, PAR_MIN + 1, (1 << 20) + 7] {
        let src = values(len, 3);
        for pool in &teams {
            let mut dst = vec![f64::NAN; len];
            restore(Some(pool), &mut dst, &src);
            assert!(
                dst.iter()
                    .zip(&src)
                    .all(|(d, s)| d.to_bits() == s.to_bits()),
                "restore len {len}, T {}",
                pool.threads()
            );
            zero(Some(pool), &mut dst);
            assert!(
                dst.iter().all(|d| d.to_bits() == 0),
                "zero len {len}, T {}",
                pool.threads()
            );
        }
    }
}

/// Every dataset the benchmark's goldens, replays and service requests
/// meet: the `test` dataset of each kernel, and the two large ones whose
/// arrays the pooled forms split.
#[test]
fn pooled_and_serial_epilogue_agree_on_every_kernel() {
    let pool = ThreadPool::new(2);
    let mut cases: Vec<(String, &str)> = all_kernels()
        .iter()
        .map(|k| (k.name().to_string(), "test"))
        .collect();
    cases.push(("CHOLMOD-Supernodal".into(), "spal_004"));
    cases.push(("UA(transf)".into(), "CLASS B"));
    for (name, dataset) in cases {
        let kernel = kernel_by_name(&name).expect("registry kernel");
        let mut inst = kernel.prepare(dataset);
        let pristine = inst.checksum();
        assert_eq!(
            inst.checksum_on(Some(&pool)).to_bits(),
            pristine.to_bits(),
            "{name}:{dataset} pristine"
        );
        inst.run_serial();
        assert_eq!(
            inst.checksum_on(Some(&pool)).to_bits(),
            inst.checksum().to_bits(),
            "{name}:{dataset} after a run"
        );
        inst.reset_on(Some(&pool));
        assert_eq!(
            inst.checksum().to_bits(),
            pristine.to_bits(),
            "{name}:{dataset} pooled reset"
        );
    }
}

/// A job token tripped by a deadline makes `parallel_for` skip
/// iterations without a word; the epilogue must not see it.
#[test]
fn a_tripped_ambient_token_skips_nothing() {
    let pool = ThreadPool::new(2);
    let kernel = kernel_by_name("StridedScatter").expect("registry kernel");
    let mut inst = kernel.prepare("n256k");
    let pristine = inst.checksum();
    inst.run_serial();
    let dirty = inst.checksum();
    assert_ne!(dirty.to_bits(), pristine.to_bits());
    let token = Arc::new(CancelToken::new());
    token.cancel();
    with_ambient_cancel(&token, || {
        assert_eq!(inst.checksum_on(Some(&pool)).to_bits(), dirty.to_bits());
        inst.reset_on(Some(&pool));
    });
    assert_eq!(inst.checksum().to_bits(), pristine.to_bits());
}

/// Every worker that starts a run of the reset region dies there, so the
/// region reports `WorkerLost` with that run not copied. Fails if
/// `restore` stops redoing a faulted region inline.
#[test]
fn a_faulted_region_still_leaves_the_instance_reset() {
    failpoint::silence_injected_panics();
    let pool = ThreadPool::new(4);
    let kernel = kernel_by_name("StridedScatter").expect("registry kernel");
    let mut inst = kernel.prepare("n256k");
    let pristine = inst.checksum();
    // Whether a worker or the coordinator claims a run is a race the
    // workers win almost always; go again until one has.
    for _ in 0..50 {
        inst.run_serial();
        {
            let _chaos = failpoint::arm(FailPlan::new().with(
                "omprt.worker.job",
                Arm::Panic,
                Fire::always(),
            ));
            inst.reset_on(Some(&pool));
        }
        assert_eq!(inst.checksum().to_bits(), pristine.to_bits());
        if pool.health().aborted_regions > 0 {
            return;
        }
    }
    panic!("no reset region lost a worker in 50 attempts: nothing was tested");
}
