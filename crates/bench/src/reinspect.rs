//! The incremental re-inspection workload: O(Δ) `mutate_range` against
//! the full re-ingest + full-scan reference it replaces.
//!
//! The scenario is the paper's steady-state loop with a twist the block
//! summaries exist for: between kernel invocations the application
//! writes a handful of entries into a large index array. Before PR 7
//! every such write invalidated the whole trust chain — re-validate the
//! domain O(n), re-fingerprint O(n), re-inspect O(n). With block
//! summaries the same write costs one ~4 Ki-element block rescan and a
//! checksum patch, independent of the array size, plus an O(blocks)
//! verdict recombine when the verdict is next asked for.
//!
//! [`run_reinspect_workload`] times both paths on the same 1 Mi-element
//! array and reports the ratio; the `reinspect` bin gates CI on the
//! acceptance floor (incremental ≥ [`MIN_SPEEDUP`]× faster) and on the
//! two paths agreeing about verdict and checksum.

use crate::microbench::{bench, BenchStats};
use subsub_rtcheck::{inspect_serial, BlockSummaries, Provenance, ValidatedIndexArray};

/// Elements in the workload array (1 Mi).
pub const REINSPECT_LEN: usize = 1 << 20;

/// Acceptance floor: the incremental path must beat the full
/// re-ingest + full-scan reference by at least this factor.
pub const MIN_SPEEDUP: f64 = 20.0;

/// Measured outcome of the workload.
#[derive(Debug, Clone)]
pub struct ReinspectReport {
    /// Single-element `mutate_range` + summary verdict (ns/iter).
    pub incremental: BenchStats,
    /// Full fused re-ingest (domain + fingerprint + summaries) plus a
    /// full serial scan of the same array (ns/iter).
    pub full: BenchStats,
    /// `full.median_ns / incremental.median_ns`.
    pub speedup: f64,
    /// Whether both paths agreed on verdict and checksum at every
    /// checkpoint (they must; a disagreement is a correctness bug, not
    /// a perf result).
    pub verdicts_agree: bool,
}

/// The single-element write the incremental path is timed on. Writing
/// the value already present keeps the array bit-identical across
/// benchmark iterations (every iteration measures the same work:
/// 1-block rescan + recombine), while still driving the full dirty
/// window bookkeeping — the boundary cannot know the write was a no-op.
fn touch(array: &mut ValidatedIndexArray, at: usize) {
    let v = array.data()[at];
    array
        .mutate_range(at..at + 1, |w| w[0] = v)
        .expect("rewriting an in-domain value stays in domain");
}

/// Runs both paths and returns the comparison. The timed reference is
/// deliberately allocation-free (it rebuilds summaries and rescans in
/// place, no `Vec` clone), so the measured gap is scan work, not
/// allocator noise.
pub fn run_reinspect_workload() -> ReinspectReport {
    let data: Vec<usize> = (0..REINSPECT_LEN).collect();
    let domain = REINSPECT_LEN;
    let mut array = ValidatedIndexArray::ingest(
        "reinspect-1Mi",
        data,
        domain,
        Provenance::Generated { seed: 0x5eed },
    )
    .expect("ramp is in domain");

    // Correctness checkpoint before timing: incremental state after a
    // few scattered writes must match a from-scratch rebuild.
    let mut verdicts_agree = true;
    for at in [0, REINSPECT_LEN / 2, REINSPECT_LEN - 1, 4096, 4095] {
        touch(&mut array, at);
        let fresh = BlockSummaries::build(array.data(), domain).expect("still in domain");
        verdicts_agree &= array.summary_verdict() == fresh.verdict();
        verdicts_agree &= array.checksum() == fresh.checksum();
        verdicts_agree &= array.summary_verdict() == inspect_serial(array.data());
    }

    let mid = REINSPECT_LEN / 2;
    let incremental = bench("reinspect/delta-1Mi", || {
        touch(&mut array, mid);
        std::hint::black_box(array.summary_verdict());
    });

    let full = bench("reinspect/full-1Mi", || {
        // What the pre-summary world paid after any mutation: re-ingest
        // (fused domain scan + fingerprint + summary build, one pass)
        // and a full monotonicity scan.
        let s = BlockSummaries::build(std::hint::black_box(array.data()), domain)
            .expect("still in domain");
        std::hint::black_box(s.checksum());
        std::hint::black_box(inspect_serial(array.data()));
    });

    let speedup = full.median_ns as f64 / incremental.median_ns.max(1) as f64;
    ReinspectReport {
        incremental,
        full,
        speedup,
        verdicts_agree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_preserves_contents_and_bumps_version() {
        let mut a = ValidatedIndexArray::ingest(
            "t",
            (0..10_000).collect::<Vec<_>>(),
            10_000,
            Provenance::Generated { seed: 1 },
        )
        .unwrap();
        let before = a.data().to_vec();
        let checksum = a.checksum();
        touch(&mut a, 7_777);
        assert_eq!(a.data(), &before[..]);
        assert_eq!(a.checksum(), checksum, "identical contents, same checksum");
        assert_eq!(a.version(), 1, "the boundary still saw a write");
    }
}
