//! The parallel index-array inspector.
//!
//! When compile-time analysis is inconclusive (or when defense-in-depth is
//! wanted at negligible cost), the monotonicity property the dependence
//! test relies on can be established by *inspecting the actual index
//! array at runtime* — the inspector half of classic inspector–executor
//! parallelization. One scan establishes both non-strict and strict
//! monotonicity (strict ⇒ injectivity, the gather/scatter requirement),
//! so a cached verdict serves either requirement.
//!
//! The scan itself is parallel: the array is cut into per-thread chunks,
//! each chunk verifies its interior adjacent pairs on the `omprt` pool,
//! and a serial boundary-fixup pass checks the chunk-joining pairs the
//! interior scans skipped.

use std::sync::atomic::{AtomicUsize, Ordering};
use subsub_failpoint as failpoint;
use subsub_omprt::{CancelToken, RegionError, Schedule, ThreadPool};

/// Monotonicity flavour a dependence-test pattern requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MonotoneReq {
    /// Non-decreasing (segment patterns: disjoint `[B[i] : B[i+1])`).
    NonStrict,
    /// Strictly increasing, hence injective (gather/scatter patterns).
    Strict,
}

impl std::fmt::Display for MonotoneReq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonotoneReq::NonStrict => write!(f, "monotone"),
            MonotoneReq::Strict => write!(f, "strictly monotone"),
        }
    }
}

/// Result of inspecting one index array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonotoneVerdict {
    /// Adjacent pairs never decrease.
    pub nonstrict: bool,
    /// Adjacent pairs strictly increase.
    pub strict: bool,
    /// Index `i` of an element with `data[i-1] ⋠ data[i]` under the
    /// *non-strict* requirement, if any. The serial scan reports the
    /// globally first such index; the parallel scan reports the earliest
    /// *observed* one — once any chunk sees a non-strict violation the
    /// remaining chunks are cancelled (the verdict is already decided),
    /// so a later chunk's violation may be the one recorded.
    pub first_violation: Option<usize>,
    /// Number of elements inspected.
    pub len: usize,
}

impl MonotoneVerdict {
    /// Does the verdict satisfy a requirement?
    pub fn satisfies(&self, req: MonotoneReq) -> bool {
        match req {
            MonotoneReq::NonStrict => self.nonstrict,
            MonotoneReq::Strict => self.strict,
        }
    }
}

/// A kernel instance's view of one runtime index array, carrying the
/// identity + version the memo cache keys on.
#[derive(Debug, Clone, Copy)]
pub struct IndexArrayView<'a> {
    /// Array name as it appears in the analyzed source (`A_rownnz`).
    pub name: &'a str,
    /// The actual runtime contents.
    pub data: &'a [usize],
    /// Monotonically increasing write-version: the owner bumps it on every
    /// mutation, which is what invalidates cached verdicts.
    pub version: u64,
    /// The flavour the parallelization decision needs.
    pub required: MonotoneReq,
}

/// Below this length a serial scan beats the fork-join cost. Public so
/// adversarial harnesses can construct arrays that exercise the parallel
/// scan's chunk-boundary fixup.
pub const PAR_THRESHOLD: usize = 8192;

/// Pairs examined between early-exit checks of the wide scan. The inner
/// fold stays branch-free across one stride; a tripped stride triggers
/// a positioned second pass over at most this many pairs.
const SCAN_STRIDE: usize = 512;

/// Raw result of [`scan_pairs`]: the monotonicity flags of one slice's
/// adjacent pairs plus the slice-relative index of the first decrease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairScan {
    /// No adjacent pair decreases.
    pub nonstrict: bool,
    /// Every adjacent pair strictly increases.
    pub strict: bool,
    /// Smallest `i` with `data[i - 1] > data[i]`, if any.
    pub first_violation: Option<usize>,
}

/// The wide adjacent-pair scan every inspection path is built on.
///
/// The scan walks the slice in strides of `SCAN_STRIDE` pairs. Within
/// a stride a *single* comparison per pair is OR-accumulated branch-free
/// over the two offset views of the slice (`data[i-1]` vs `data[i]`) —
/// a clean zip-fold the loop vectorizer turns into packed unsigned
/// 64-bit compares (one `vpcmp` per lane-group, no nightly
/// `std::simd`). While no equality has been seen the fold asks
/// `x >= y`, which trips on a plateau *or* a decrease; a tripped stride
/// pays one positioned scalar pass that either returns the globally
/// first decrease or records the equality. Once an equality is known,
/// `strict` is settled and the fold degenerates to `x > y` — so even
/// plateau-heavy arrays run one vector compare per pair. The result is
/// identical to the naive early-exit loop: the *globally first*
/// decrease, and `strict` iff no pair was equal before it.
pub fn scan_pairs(data: &[usize]) -> PairScan {
    let n = data.len();
    let mut eq_seen = false;
    let mut pos = 1usize;
    while pos < n {
        let end = (pos + SCAN_STRIDE).min(n);
        let a = &data[pos - 1..end - 1];
        let b = &data[pos..end];
        if eq_seen {
            // Strictness already settled: only a decrease matters.
            let mut dec = false;
            for (x, y) in a.iter().zip(b) {
                dec |= x > y;
            }
            if !dec {
                pos = end;
                continue;
            }
        } else {
            // `x >= y` catches a decrease or an equality with one
            // compare; strictly increasing strides stay on this path.
            let mut ge = false;
            for (x, y) in a.iter().zip(b) {
                ge |= x >= y;
            }
            if !ge {
                pos = end;
                continue;
            }
        }
        // Positioned second pass: the stride tripped, classify it.
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            if x > y {
                return PairScan {
                    nonstrict: false,
                    strict: false,
                    first_violation: Some(pos + k),
                };
            }
            eq_seen |= x == y;
        }
        pos = end;
    }
    PairScan {
        nonstrict: true,
        strict: !eq_seen,
        first_violation: None,
    }
}

/// Inspects `data` for monotonicity. With a pool and a large enough array
/// the scan is chunk-parallel; the verdict is identical either way. A
/// faulted parallel scan (a panicking or dying worker) degrades to the
/// serial scan — inspection is read-only, so a rerun is always sound.
/// Use [`try_inspect_monotone`] to observe the fault instead.
pub fn inspect_monotone(data: &[usize], pool: Option<&ThreadPool>) -> MonotoneVerdict {
    try_inspect_monotone(data, pool).unwrap_or_else(|_| inspect_serial(data))
}

/// [`inspect_monotone`] that reports a faulted parallel scan instead of
/// silently rescuing it, so callers (the inspector cache, the guard's
/// retry ladder) can refuse to memoize a verdict that was never reached.
pub fn try_inspect_monotone(
    data: &[usize],
    pool: Option<&ThreadPool>,
) -> Result<MonotoneVerdict, RegionError> {
    match pool {
        Some(pool) if data.len() >= PAR_THRESHOLD => inspect_parallel(data, pool),
        _ => Ok(inspect_serial(data)),
    }
}

/// The unconditionally-serial scan; infallible, the ladder's last rung.
/// Built on the wide [`scan_pairs`] primitive, so it runs at
/// autovectorized throughput while reporting the same globally-first
/// violation index as the one-pair-per-iteration loop it replaced.
pub fn inspect_serial(data: &[usize]) -> MonotoneVerdict {
    let ps = scan_pairs(data);
    MonotoneVerdict {
        nonstrict: ps.nonstrict,
        strict: ps.strict,
        first_violation: ps.first_violation,
        len: data.len(),
    }
}

/// Block-monotone inspection: verdict for "monotone *within* blocks of
/// `b` elements", the periodic/block-monotone pattern of *Inductive Loop
/// Analysis* (arXiv 2511.06052). Pairs straddling a block boundary
/// (those at indices that are multiples of `b`) are exempt — a
/// block-periodic histogram restarts its key ramp at every block, and
/// within-block strictness is what licenses within-block parallelism
/// (distinct scatter targets inside each block).
///
/// `b == 0` (or `b >= data.len()`) degenerates to a single block —
/// identical to [`inspect_serial`]. For `b` a multiple of
/// [`crate::block::BLOCK_LEN`], the same verdict recombines in O(blocks)
/// from maintained summaries via
/// [`crate::block::BlockSummaries::block_verdict`]; this function is the
/// O(n) ground truth the summaries are checked against.
pub fn inspect_block_monotone(data: &[usize], b: usize) -> MonotoneVerdict {
    if b == 0 {
        return inspect_serial(data);
    }
    let mut eq = false;
    let mut first_violation = None;
    for (k, chunk) in data.chunks(b).enumerate() {
        let ps = scan_pairs(chunk);
        if !ps.nonstrict {
            first_violation = ps.first_violation.map(|i| k * b + i);
            break;
        }
        if !ps.strict {
            eq = true;
        }
    }
    MonotoneVerdict {
        nonstrict: first_violation.is_none(),
        strict: first_violation.is_none() && !eq,
        first_violation,
        len: data.len(),
    }
}

fn inspect_parallel(data: &[usize], pool: &ThreadPool) -> Result<MonotoneVerdict, RegionError> {
    let n = data.len();
    let threads = pool.threads().max(1);
    // A few chunks per thread so dynamic scheduling can absorb noise.
    let chunks = (threads * 4).min(n / 2).max(1);
    let chunk_len = n.div_ceil(chunks);
    // usize::MAX = "no violation seen"; fetch-min keeps the earliest.
    let nonstrict_viol = AtomicUsize::new(usize::MAX);
    let strict_viol = AtomicUsize::new(usize::MAX);
    // A non-strict violation settles the whole verdict (both flavours are
    // false), so the first chunk to find one cancels the rest of the scan
    // instead of letting every remaining chunk finish pointlessly.
    let cancel = CancelToken::new();
    pool.try_parallel_for_cancel(chunks, Schedule::Dynamic { chunk: 1 }, &cancel, |c| {
        // Chaos site: a Panic arm here makes this chunk's job unwind,
        // which surfaces as `RegionError::Panicked` below — the verdict
        // must then be treated as never reached.
        failpoint::hit("rtcheck.inspect.chunk");
        let start = c * chunk_len;
        let end = ((c + 1) * chunk_len).min(n);
        if start >= end {
            return;
        }
        // Interior pairs only, through the wide scan; pairs straddling
        // chunk joins are fixed up below.
        let ps = scan_pairs(&data[start..end]);
        if let Some(rel) = ps.first_violation {
            nonstrict_viol.fetch_min(start + rel, Ordering::Relaxed);
            strict_viol.fetch_min(start + rel, Ordering::Relaxed);
            cancel.cancel();
        } else if !ps.strict {
            // Only the *presence* of an equality matters for the strict
            // flag (no index is ever reported for it), so the chunk
            // start stands in as the fetch-min marker.
            strict_viol.fetch_min(start.max(1), Ordering::Relaxed);
        }
    })?;
    // Cross-chunk boundary fixup: the pair (chunk_end - 1, chunk_end) of
    // every join was inspected by neither side.
    for c in 1..chunks {
        let i = c * chunk_len;
        if i == 0 || i >= n {
            continue;
        }
        if data[i - 1] > data[i] {
            nonstrict_viol.fetch_min(i, Ordering::Relaxed);
            strict_viol.fetch_min(i, Ordering::Relaxed);
        } else if data[i - 1] == data[i] {
            strict_viol.fetch_min(i, Ordering::Relaxed);
        }
    }
    let nv = nonstrict_viol.load(Ordering::Relaxed);
    let sv = strict_viol.load(Ordering::Relaxed);
    Ok(MonotoneVerdict {
        nonstrict: nv == usize::MAX,
        strict: sv == usize::MAX,
        first_violation: (nv != usize::MAX).then_some(nv),
        len: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_verdicts() {
        let v = inspect_serial(&[0, 1, 2, 5, 9]);
        assert!(v.strict && v.nonstrict && v.first_violation.is_none());
        let v = inspect_serial(&[0, 1, 1, 2]);
        assert!(!v.strict && v.nonstrict);
        let v = inspect_serial(&[0, 3, 2]);
        assert!(!v.strict && !v.nonstrict);
        assert_eq!(v.first_violation, Some(2));
        // Trivial arrays are vacuously strict.
        assert!(inspect_serial(&[]).strict);
        assert!(inspect_serial(&[7]).strict);
    }

    #[test]
    fn satisfies_maps_requirements() {
        let v = inspect_serial(&[0, 1, 1, 2]);
        assert!(v.satisfies(MonotoneReq::NonStrict));
        assert!(!v.satisfies(MonotoneReq::Strict));
    }

    #[test]
    fn parallel_matches_serial_on_large_arrays() {
        let pool = ThreadPool::new(4);
        let n = PAR_THRESHOLD * 2 + 123;
        // Strict.
        let data: Vec<usize> = (0..n).collect();
        assert_eq!(inspect_monotone(&data, Some(&pool)), inspect_serial(&data));
        // Plateau (non-strict only).
        let mut plateau = data.clone();
        plateau[n / 2] = plateau[n / 2 - 1];
        let got = inspect_monotone(&plateau, Some(&pool));
        assert!(got.nonstrict && !got.strict);
        // Violation (neither), at an arbitrary position.
        let mut broken = data.clone();
        broken[n / 3] = 0;
        let got = inspect_monotone(&broken, Some(&pool));
        let want = inspect_serial(&broken);
        assert_eq!(got.nonstrict, want.nonstrict);
        assert_eq!(got.strict, want.strict);
        assert!(got.first_violation.is_some());
    }

    #[test]
    fn boundary_violation_is_caught() {
        // Construct a violation exactly at a chunk join for a 4-thread
        // pool: chunks = 16, chunk_len = n/16.
        let pool = ThreadPool::new(4);
        let n = PAR_THRESHOLD * 2;
        let chunk_len = n.div_ceil(16);
        let mut data: Vec<usize> = (0..n).map(|i| i * 2).collect();
        data[chunk_len] = data[chunk_len - 1] - 1; // only the join pair decreases
        let v = inspect_monotone(&data, Some(&pool));
        assert!(!v.nonstrict, "boundary fixup must catch the join violation");
    }

    #[test]
    fn cancelled_scan_still_reports_a_correct_verdict() {
        // A violation in the very first chunk cancels the rest of the
        // parallel scan; the verdict must nonetheless be decided and a
        // violating index reported.
        let pool = ThreadPool::new(4);
        let n = PAR_THRESHOLD * 8;
        let mut data: Vec<usize> = (0..n).collect();
        data[1] = usize::MAX; // data[1] > data[2]: violation at i = 2
        let v = inspect_monotone(&data, Some(&pool));
        assert!(!v.nonstrict && !v.strict);
        let i = v.first_violation.expect("violation reported");
        assert!(
            i < n && data[i - 1] > data[i],
            "reported index is a real violation"
        );
    }

    #[test]
    fn small_arrays_skip_the_pool() {
        // Passing a pool but a small array must still produce the serial
        // verdict (and not deadlock on a 1-thread pool).
        let pool = ThreadPool::new(1);
        let v = inspect_monotone(&[3, 1, 2], Some(&pool));
        assert!(!v.nonstrict);
        assert_eq!(v.first_violation, Some(1));
    }

    #[test]
    fn degenerate_inputs_serial_and_pooled_agree() {
        // Adversarial degenerate shapes: the serial and pooled scans must
        // agree on the (nonstrict, strict) flags for every one of them.
        // Violation indices may differ (cancellation semantics), but any
        // reported index must point at a real violating pair.
        let pool = ThreadPool::new(3);
        let cases: Vec<Vec<usize>> = vec![
            vec![],
            vec![0],
            vec![usize::MAX],
            vec![usize::MAX, usize::MAX],
            vec![usize::MAX - 1, usize::MAX],
            vec![usize::MAX, 0],
            vec![0, usize::MAX],
            vec![7; 17],
            vec![7; PAR_THRESHOLD + 5],
            (0..PAR_THRESHOLD + 9).map(|i| i / 2).collect(),
            (0..PAR_THRESHOLD + 9)
                .map(|i| usize::MAX - (PAR_THRESHOLD + 9) + i)
                .collect(),
        ];
        for data in &cases {
            let serial = inspect_serial(data);
            let pooled = inspect_monotone(data, Some(&pool));
            assert_eq!(
                serial.nonstrict,
                pooled.nonstrict,
                "{:?}…",
                &data[..data.len().min(4)]
            );
            assert_eq!(
                serial.strict,
                pooled.strict,
                "{:?}…",
                &data[..data.len().min(4)]
            );
            for v in [&serial, &pooled] {
                if let Some(i) = v.first_violation {
                    assert!(i > 0 && i < data.len() && data[i - 1] > data[i]);
                }
            }
        }
    }

    #[test]
    fn vacuous_inputs_are_strict_for_both_paths() {
        let pool = ThreadPool::new(2);
        for data in [vec![], vec![42]] {
            for v in [inspect_serial(&data), inspect_monotone(&data, Some(&pool))] {
                assert!(v.strict && v.nonstrict && v.first_violation.is_none());
                assert_eq!(v.len, data.len());
            }
        }
    }

    #[test]
    fn all_equal_plateau_through_the_parallel_path() {
        // A plateau long enough to engage the chunked scan: every chunk
        // AND every chunk-join pair is an equality — nonstrict only.
        let pool = ThreadPool::new(4);
        let data = vec![3; PAR_THRESHOLD * 2];
        let v = inspect_monotone(&data, Some(&pool));
        assert!(v.nonstrict && !v.strict && v.first_violation.is_none());
    }

    #[test]
    fn max_entries_do_not_wrap_the_parallel_scan() {
        // Entries adjacent to usize::MAX must not overflow any chunk-size
        // or comparison arithmetic in the pooled path.
        let pool = ThreadPool::new(4);
        let n = PAR_THRESHOLD + 1;
        let mut data: Vec<usize> = (0..n).map(|i| usize::MAX - n + i).collect();
        assert!(inspect_monotone(&data, Some(&pool)).strict);
        data[n / 2] = usize::MAX; // plateau at MAX further right, then decrease
        let v = inspect_monotone(&data, Some(&pool));
        assert_eq!(v.nonstrict, inspect_serial(&data).nonstrict);
    }
}
