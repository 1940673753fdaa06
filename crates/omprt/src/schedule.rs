//! OpenMP-style loop schedules.

use std::fmt;

/// How a `parallel for`'s iterations are distributed over threads,
/// mirroring OpenMP's `schedule` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// `schedule(static)` / `schedule(static, chunk)`. With `chunk: None`
    /// the iteration space is split into one contiguous block per thread
    /// (OpenMP's default); with a chunk size, chunks are dealt round-robin.
    Static {
        /// Optional chunk size.
        chunk: Option<usize>,
    },
    /// `schedule(dynamic, chunk)`: threads self-schedule chunks from a
    /// shared counter.
    Dynamic {
        /// Chunk size (OpenMP default is 1).
        chunk: usize,
    },
    /// `schedule(guided, min_chunk)`: chunk sizes start at
    /// `remaining / threads` and shrink geometrically down to `min_chunk`.
    Guided {
        /// Minimum chunk size.
        min_chunk: usize,
    },
}

impl Schedule {
    /// OpenMP default static schedule.
    pub fn static_default() -> Schedule {
        Schedule::Static { chunk: None }
    }

    /// `schedule(dynamic)` with the OpenMP default chunk of 1.
    pub fn dynamic_default() -> Schedule {
        Schedule::Dynamic { chunk: 1 }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Schedule::Static { chunk: None } => write!(f, "static"),
            Schedule::Static { chunk: Some(c) } => write!(f, "static,{c}"),
            Schedule::Dynamic { chunk } => write!(f, "dynamic,{chunk}"),
            Schedule::Guided { min_chunk } => write!(f, "guided,{min_chunk}"),
        }
    }
}

/// Iterations claimed per shared-cursor `fetch_add` under
/// [`Schedule::Dynamic`].
///
/// With `chunk: 1` (the OpenMP default) a naive implementation performs
/// one atomic RMW per iteration, serializing every thread on one cache
/// line. Claims are therefore *batched*: each grab takes a whole
/// multiple of `chunk`, scaled so a single claim is at most 1/64th of a
/// thread's fair share (preserving dynamic load balancing at the tail)
/// and never more than 64 chunks. The simulator charges its per-claim
/// dispatch cost at the same granularity, so the model and the runtime
/// agree on how many shared-counter updates a loop performs.
pub fn dynamic_batch(n: usize, threads: usize, chunk: usize) -> usize {
    let c = chunk.max(1);
    let fair_share = n / threads.max(1);
    c * (fair_share / (c * 64)).clamp(1, 64)
}

/// Size of the next claim under [`Schedule::Guided`]: half the remaining
/// fair share, never below `min_chunk`, never beyond `remaining`. Both
/// the pool and the simulator use this one definition, so `parallel_for`
/// and `parallel_for_reduce` shrink geometrically in lockstep with the
/// cost model.
pub fn guided_claim(remaining: usize, threads: usize, min_chunk: usize) -> usize {
    (remaining / (2 * threads.max(1)))
        .max(min_chunk.max(1))
        .min(remaining)
}

/// The contiguous chunks thread `tid` of `threads` executes under a static
/// schedule of `n` iterations, as `(start, end)` half-open ranges.
/// Allocates nothing: a region walks them in place.
pub fn static_chunks(
    n: usize,
    threads: usize,
    chunk: Option<usize>,
    tid: usize,
) -> impl Iterator<Item = (usize, usize)> {
    let (start, len, stride) = match chunk {
        None => {
            // Blocked: ceil-partition, first `rem` threads get one extra.
            // One chunk, so the stride only has to step past `n`.
            let base = n / threads;
            let rem = n % threads;
            (tid * base + tid.min(rem), base + usize::from(tid < rem), n)
        }
        Some(c) => {
            let c = c.max(1);
            (tid * c, c, threads * c)
        }
    };
    // A thread with no share starts at or past `n` (blocked: `len` is 0
    // only when `tid >= rem` and `base == 0`, which puts `start` at `n`).
    (start..n)
        .step_by(stride.max(1))
        .map(move |s| (s, (s + len).min(n)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::needless_range_loop)]
    fn covered(n: usize, threads: usize, chunk: Option<usize>) -> Vec<usize> {
        let mut hits = vec![0usize; n];
        for tid in 0..threads {
            for (s, e) in static_chunks(n, threads, chunk, tid) {
                for i in s..e {
                    hits[i] += 1;
                }
            }
        }
        hits
    }

    #[test]
    fn blocked_partition_exact_cover() {
        for n in [0, 1, 7, 16, 100, 101] {
            for t in [1, 2, 3, 8] {
                assert!(covered(n, t, None).iter().all(|&h| h == 1), "n={n} t={t}");
            }
        }
    }

    #[test]
    fn round_robin_partition_exact_cover() {
        for n in [0, 1, 7, 100, 101] {
            for t in [1, 2, 3, 8] {
                for c in [1, 2, 5] {
                    assert!(
                        covered(n, t, Some(c)).iter().all(|&h| h == 1),
                        "n={n} t={t} c={c}"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_is_contiguous_and_ordered() {
        let chunks = |tid| static_chunks(10, 3, None, tid).collect::<Vec<_>>();
        assert_eq!(chunks(0), vec![(0, 4)]);
        assert_eq!(chunks(1), vec![(4, 7)]);
        assert_eq!(chunks(2), vec![(7, 10)]);
    }

    #[test]
    fn dynamic_batch_bounds() {
        // Single-chunk floor: tiny loops claim exactly `chunk`.
        assert_eq!(dynamic_batch(10, 4, 1), 1);
        assert_eq!(dynamic_batch(10, 4, 8), 8);
        // Large loops batch, but never more than 64 chunks per claim and
        // never more than 1/64th of a thread's fair share.
        for (n, t, c) in [(100_000, 4, 1), (1 << 20, 8, 1), (1 << 20, 2, 16)] {
            let b = dynamic_batch(n, t, c);
            assert_eq!(b % c, 0, "whole multiples of chunk");
            assert!(b <= c * 64);
            assert!(b <= (n / t / 64).max(c), "n={n} t={t} c={c} b={b}");
        }
    }

    #[test]
    fn guided_claim_shrinks_geometrically_to_min() {
        let (n, threads, min) = (1024usize, 4usize, 2usize);
        let mut s = 0;
        let mut last = usize::MAX;
        while s < n {
            let c = guided_claim(n - s, threads, min);
            assert!(c >= min.min(n - s) && c <= n - s);
            assert!(c <= last, "claims never grow");
            last = c;
            s += c;
        }
        assert_eq!(s, n, "claims exactly cover the space");
        assert_eq!(last, min, "tail claims reach the floor");
    }

    #[test]
    fn display_forms() {
        assert_eq!(Schedule::static_default().to_string(), "static");
        assert_eq!(Schedule::dynamic_default().to_string(), "dynamic,1");
        assert_eq!(Schedule::Guided { min_chunk: 4 }.to_string(), "guided,4");
    }
}
