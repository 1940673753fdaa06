//! Cache-padded atomic counters and log2-bucketed latency histograms.
//!
//! The flight recorder ([`crate::ring`]) answers *what happened
//! recently*; the metrics here answer *how much and how fast overall*:
//! a per-[`EventKind`] counter array and a histogram table keyed by
//! (interned kernel label, [`Phase`]). Both are plain atomics — no locks
//! on the record path — and both are allocated lazily on the first
//! armed recording, so a process that never arms telemetry pays nothing
//! but the static `OnceLock`s.
//!
//! Histogram buckets are powers of two of nanoseconds: bucket `i` holds
//! samples with `floor(log2(max(ns, 1))) == i`, so bucket 0 is 0–1 ns
//! and bucket 63 absorbs everything ≥ 2^63 ns. Quantiles are estimated
//! from bucket counts at the bucket's upper bound — good to a factor of
//! two, which is all a regression gate or a trace summary needs.

use crate::event::{EventKind, Phase, KIND_CODES, NUM_PHASES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Pads (and aligns) a value to a cache line so independent counters on
/// the hot path never false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

/// Histogram bucket count (one per power of two of nanoseconds).
pub const HIST_BUCKETS: usize = 64;

/// Kernel-label ids at or above this share the last histogram row (an
/// overflow key); the interner hands out ids densely from 1, so real
/// workloads never get near it.
pub const MAX_KERNEL_IDS: usize = 64;

/// The bucket a sample of `ns` nanoseconds lands in.
pub fn bucket_of(ns: u64) -> usize {
    63 - ns.max(1).leading_zeros() as usize
}

/// Inclusive upper bound of bucket `i`, saturating at `u64::MAX`.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (2u64 << i) - 1
    }
}

/// One lock-free latency histogram.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum_ns: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Consistent-enough copy of the counts (individual cells are read
    /// atomically; the totals line up once writers quiesce).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (ns).
    pub sum_ns: u64,
    /// Per-bucket sample counts.
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistogramSnapshot {
    /// Upper-bound estimate of the `q`-quantile (`0.0..=1.0`) in ns:
    /// the upper edge of the first bucket whose cumulative count reaches
    /// `ceil(q * count)`. Zero when the histogram is empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HIST_BUCKETS - 1)
    }
}

fn kind_counters() -> &'static [CachePadded<AtomicU64>; KIND_CODES] {
    static COUNTERS: OnceLock<[CachePadded<AtomicU64>; KIND_CODES]> = OnceLock::new();
    COUNTERS.get_or_init(|| std::array::from_fn(|_| CachePadded(AtomicU64::new(0))))
}

fn histograms() -> &'static [Histogram] {
    static TABLE: OnceLock<Box<[Histogram]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        (0..MAX_KERNEL_IDS * NUM_PHASES)
            .map(|_| Histogram::default())
            .collect()
    })
}

/// Bumps the per-kind event counter.
pub fn count_kind(kind: EventKind) {
    kind_counters()[kind as usize]
        .0
        .fetch_add(1, Ordering::Relaxed);
}

/// Current value of one per-kind counter.
pub fn kind_count(kind: EventKind) -> u64 {
    kind_counters()[kind as usize].0.load(Ordering::Relaxed)
}

/// Records a duration sample into the (kernel, phase) histogram.
pub fn record_duration(kernel: u16, phase: Phase, ns: u64) {
    let k = (kernel as usize).min(MAX_KERNEL_IDS - 1);
    histograms()[k * NUM_PHASES + phase as usize].record(ns);
}

/// Snapshot of the (kernel, phase) histogram.
pub fn histogram_snapshot(kernel: u16, phase: Phase) -> HistogramSnapshot {
    let k = (kernel as usize).min(MAX_KERNEL_IDS - 1);
    histograms()[k * NUM_PHASES + phase as usize].snapshot()
}

/// Every non-empty (kernel id, phase, snapshot) triple.
pub fn all_histograms() -> Vec<(u16, Phase, HistogramSnapshot)> {
    let mut out = Vec::new();
    for k in 0..MAX_KERNEL_IDS {
        for phase in Phase::all() {
            let snap = histograms()[k * NUM_PHASES + phase as usize].snapshot();
            if snap.count > 0 {
                out.push((k as u16, phase, snap));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        for k in 1..63 {
            let v = 1u64 << k;
            assert_eq!(bucket_of(v), k, "2^{k}");
            assert_eq!(bucket_of(v - 1), k - 1, "2^{k}-1");
            assert_eq!(bucket_of(v + 1), k, "2^{k}+1");
        }
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_upper_bound(0), 1);
        assert_eq!(bucket_upper_bound(1), 3);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
    }

    #[test]
    fn quantiles_walk_the_cumulative_counts() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(100); // bucket 6, upper bound 127
        }
        for _ in 0..10 {
            h.record(10_000); // bucket 13, upper bound 16383
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.quantile_ns(0.5), 127);
        assert_eq!(s.quantile_ns(0.9), 127);
        assert_eq!(s.quantile_ns(0.95), 16_383);
        assert_eq!(s.quantile_ns(1.0), 16_383);
        let empty = Histogram::default().snapshot();
        assert_eq!(empty.quantile_ns(0.5), 0);
    }
}
