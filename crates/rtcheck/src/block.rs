//! Per-block summaries: the O(Δ) re-inspection substrate, and the
//! `subsub-fingerprint/v3` content fingerprint they carry.
//!
//! A full inspection or fingerprint pass is O(n) no matter how small the
//! mutation that invalidated it. This module cuts an index array into
//! fixed [`BLOCK_LEN`]-element blocks and keeps one [`BlockSummary`] per
//! block — its boundary values, its interior monotonicity flags, the
//! absolute index of its first interior decrease, and its block
//! fingerprint. From the summary vector alone the whole-array verdict
//! recombines in O(blocks): interior flags AND together in block order
//! and the pairs *joining* adjacent blocks are re-derived from the stored
//! `last`/`first` boundary values. The whole-array fingerprint is a
//! position-keyed wrapping sum of the block fingerprints, so it is kept
//! as one `u64` and patched per rescanned block.
//!
//! After a ranged mutation, only the blocks overlapping the dirty window
//! need rescanning — every join pair is recovered from boundary values
//! at verdict time and the fingerprint is patched by `− mix(old) +
//! mix(new)`, so a single-element write into an array of any size costs
//! one block rescan, not O(n) and not O(blocks).
//!
//! **The v3 fingerprint** (DESIGN.md §7 has the argument; the oracle
//! crate has a one-word-at-a-time reference it is checked against):
//!
//! * `step(h, w) = (h ^ w) * FNV_PRIME` (wrapping) — a bijection in `w`
//!   for fixed `h` and in `h` for fixed `w`, because the prime is odd.
//! * A block of `c` words with `c >= LANE_MIN`: lane `j` starts at
//!   `LANE_SEEDS[j]` and absorbs words `j, j + LANES, j + 2·LANES, …` of
//!   the block's whole `LANES`-word rows with `step`; then
//!   `h = FNV_OFFSET ^ c`, the lane states are absorbed into `h` in lane
//!   order, and the `c % LANES` tail words after them.
//! * A block of `c < LANE_MIN` words has no lane phase: its words are
//!   absorbed into `h = FNV_OFFSET ^ c` directly.
//! * The array value is `finalize(FNV_OFFSET ^ len) + Σ_k
//!   finalize(block_k ^ (k + 1)·GOLDEN)` (wrapping), `finalize` being
//!   the splitmix64 output permutation.
//!
//! Every step is a bijection in what it absorbs, so a change of any one
//! word changes its lane (or tail) state, hence its block fingerprint,
//! hence the sum — with certainty, not with probability.
//!
//! The summaries are maintained *by the trust boundary*: they are
//! rebuilt or patched on exactly the operations that bump the
//! write-version, so they describe the current contents precisely as
//! long as every writer goes through the boundary. A bypassing writer
//! leaves them stale — which is the same staleness the content
//! fingerprint catches, and why `verify()` recomputes it from raw data
//! before any summary-derived verdict is trusted (see `validate.rs`).

use crate::inspect::{scan_pairs, MonotoneVerdict};
use std::ops::Range;

/// Elements per summary block. 4 Ki elements × 8 bytes = 32 KiB — one
/// block rescan stays L1/L2-resident, while a 1 Mi-element array needs
/// only 256 summaries (~10 KiB) and an O(256) verdict recombine.
pub const BLOCK_LEN: usize = 4096;

/// Version tag of the content fingerprint: `subsub-fingerprint/v3`, the
/// multi-lane block fold under a position-keyed sum (module docs).
/// Rides along in the inspector memo's content keys so a verdict
/// fingerprinted under one scheme is never served under another.
pub const FINGERPRINT_VERSION: u8 = 3;

/// Independent accumulators of the per-block fold. Part of the format:
/// a different lane count is a different fingerprint. 32 lanes are four
/// 512-bit vectors of packed 64-bit multiplies — enough independent
/// chains to cover the multiply latency (8 lanes measured 2.7× slower
/// on ingest; 16 keep up on ingest but verify at 22 GB/s, not 38).
pub const LANES: usize = 32;

/// Words a block needs before it gets a lane phase; a shorter block is
/// folded one word at a time. Part of the format. An eighth of a block
/// (4 KiB): from here up the lanes are over 4× faster than the chain
/// and save half a microsecond or more per sweep; below, a sweep is
/// under a microsecond either way, and staying scalar keeps a core that
/// only ever sees small arrays (every `test` dataset, the service's hot
/// path) clear of the wide-vector frequency penalty (see `fold_rows`).
pub const LANE_MIN: usize = 512;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

const LANE_SEEDS: [u64; LANES] = {
    let mut seeds = [0u64; LANES];
    let mut j = 0;
    while j < LANES {
        seeds[j] = FNV_OFFSET ^ (j as u64 + 1).wrapping_mul(GOLDEN);
        j += 1;
    }
    seeds
};

#[inline(always)]
fn step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// The splitmix64 output permutation (a bijection on `u64`).
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The term of an empty array: the length alone.
fn array_seed(len: usize) -> u64 {
    finalize(FNV_OFFSET ^ len as u64)
}

/// What block `k` adds to the array value. A bijection in `fp` for a
/// fixed `k` (a changed block always changes the sum), keyed by `k` so
/// that equal blocks at different positions add different terms.
fn mix(fp: u64, k: usize) -> u64 {
    finalize(fp ^ (k as u64 + 1).wrapping_mul(GOLDEN))
}

/// What one sweep over a block establishes.
struct BlockScan {
    fingerprint: u64,
    /// Some word is `>= domain`.
    out_of_domain: bool,
    /// Some interior pair has `before >= after` / `before > after`
    /// (both false without `PAIRS`).
    ge: bool,
    gt: bool,
}

/// The one loop over a block's words: the fingerprint fold, the domain
/// compare and, with `PAIRS`, the two interior pair compares, all over
/// the same loaded words. Flags only — a caller that needs a *position*
/// runs [`first_out_of_domain`] or [`scan_pairs`] over the offending
/// block afterwards.
///
/// A block of at least [`LANE_MIN`] words hands its whole rows to
/// [`fold_rows`]; the words after them — or all the words of a shorter
/// block — are folded here, one dependent step each.
fn scan_block<const PAIRS: bool>(block: &[usize], domain: usize) -> BlockScan {
    let mut scan = BlockScan {
        fingerprint: FNV_OFFSET ^ block.len() as u64,
        out_of_domain: false,
        ge: false,
        gt: false,
    };
    let mut rows = 0;
    if block.len() >= LANE_MIN {
        rows = block.len() / LANES * LANES;
        fold_rows::<PAIRS>(&block[..rows], domain, &mut scan);
    }
    for i in rows..block.len() {
        let w = block[i];
        scan.out_of_domain |= w >= domain;
        if PAIRS && i > 0 {
            scan.ge |= block[i - 1] >= w;
            scan.gt |= block[i - 1] > w;
        }
        scan.fingerprint = step(scan.fingerprint, w as u64);
    }
    scan
}

/// The lane phase: `rows` is a non-empty whole number of `LANES`-word
/// rows from the start of a block. Lane `j` absorbs word `j` of every
/// row, the domain compare is a per-lane running maximum, and each row
/// is compared against the same words shifted one place back; at the
/// end the lane states are absorbed into `scan.fingerprint` in lane
/// order.
///
/// Keep the shape boring: fixed-size `[_; LANES]` views from
/// `chunks_exact`, plain `for j in 0..LANES` bodies, accumulators that
/// are arrays (vector registers) or OR-reduced bools. That is what lets
/// LLVM emit packed 64-bit multiplies, maxima and compares under
/// `target-cpu=native` and `LANES` independent scalar chains elsewhere;
/// the value is wrapping integer arithmetic either way.
///
/// Never inlined: on AVX-512 hosts this is 512-bit code, and a core
/// that executes *any* 512-bit instruction — a hoisted broadcast is
/// enough — runs everything else slower for about a millisecond
/// afterwards. Out of line, a sweep over a short block touches none.
#[inline(never)]
fn fold_rows<const PAIRS: bool>(rows: &[usize], domain: usize, scan: &mut BlockScan) {
    let mut lanes = LANE_SEEDS;
    let mut max = [0usize; LANES];
    let mut absorb = |w: &[usize; LANES]| {
        for j in 0..LANES {
            max[j] = max[j].max(w[j]);
            lanes[j] = step(lanes[j], w[j] as u64);
        }
    };
    // Row 0's first word has no predecessor inside the block, so its
    // pairs are taken within the row.
    let first: &[usize; LANES] = rows[..LANES].try_into().expect("at least one row");
    absorb(first);
    if PAIRS {
        for j in 1..LANES {
            scan.ge |= first[j - 1] >= first[j];
            scan.gt |= first[j - 1] > first[j];
        }
    }
    let words = rows[LANES..].chunks_exact(LANES);
    let befores = rows[LANES - 1..rows.len() - 1].chunks_exact(LANES);
    for (before, w) in befores.zip(words) {
        let before: &[usize; LANES] = before.try_into().expect("chunks_exact");
        let w: &[usize; LANES] = w.try_into().expect("chunks_exact");
        absorb(w);
        if PAIRS {
            for j in 0..LANES {
                scan.ge |= before[j] >= w[j];
                scan.gt |= before[j] > w[j];
            }
        }
    }
    for m in max {
        scan.out_of_domain |= m >= domain;
    }
    for lane in lanes {
        scan.fingerprint = step(scan.fingerprint, lane);
    }
}

/// Words in a 4 KiB page and in a 64-byte cache line.
const PAGE_WORDS: usize = 512;
const LINE_WORDS: usize = 8;

/// Leading lines of each page that [`touch_block_after`] reads.
const TOUCH_LINES: usize = 4;

/// Reads the first [`TOUCH_LINES`] cache lines of every 4 KiB page of
/// the block after block `k`; the whole-array sweeps call it before
/// they fold block `k`.
///
/// The hardware prefetchers that keep a sequential read fed work within
/// a page. Every 4 KiB the fold meets lines — and a page-table walk,
/// two-dimensional in a guest — that nothing has asked for yet, and the
/// prefetcher has to be trained again. A bare compare scan is light
/// enough for out-of-order execution to reach across the boundary by
/// itself; the fold is not, and pays exposed memory latency per page:
/// slower, and swinging with whatever else loads the memory system,
/// because latency is what a busy neighbour raises first. A few
/// sequential reads at the head of each page, one block (a few
/// microseconds) early, get the walk done and the prefetcher running
/// through the page before the fold arrives. Measured on a 256 MiB
/// array: `verify()` 26.2 → 23.9 ms and ingest 29.7 → 25.2 ms, beside a
/// bare scan of the same array at 23.2 ms. One line per page gets a
/// third of that, eight lines no more than four; reads spread over the
/// page instead of leading it make the sweep slower than none at all,
/// and so does looking four blocks ahead instead of one or two. A
/// cache-resident sweep pays for the extra loads (64 Ki elements:
/// ingest 19.9 → 20.5 µs, verify 14.5 → 15.0 µs); an array of a single
/// block reads nothing. A large `Vec` starts within an allocator header
/// of a page boundary, so index pages are memory pages.
fn touch_block_after(data: &[usize], k: usize) {
    if let Some(next) = data.get((k + 1) * BLOCK_LEN..) {
        for page in next.chunks(PAGE_WORDS).take(BLOCK_LEN / PAGE_WORDS) {
            for w in page.iter().step_by(LINE_WORDS).take(TOUCH_LINES) {
                std::hint::black_box(*w);
            }
        }
    }
}

/// The `subsub-fingerprint/v3` value of `data` and the first index
/// holding a value `>= domain`, from one read of the data: no pair
/// compares, nothing built. This is `verify()`'s recompute.
///
/// Work: Θ(n). Span: Θ(n) (one thread; blocks are independent, so
/// Θ(n/p + blocks) is available to a caller that wants it).
pub(crate) fn fingerprint(data: &[usize], domain: usize) -> (u64, Option<usize>) {
    let mut sum = array_seed(data.len());
    let mut offender = None;
    for (k, block) in data.chunks(BLOCK_LEN).enumerate() {
        touch_block_after(data, k);
        let scan = scan_block::<false>(block, domain);
        sum = sum.wrapping_add(mix(scan.fingerprint, k));
        if scan.out_of_domain && offender.is_none() {
            offender = first_out_of_domain(block, domain).map(|rel| k * BLOCK_LEN + rel);
        }
    }
    (sum, offender)
}

/// What one block contributes to the whole-array verdict and checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSummary {
    /// First element of the block (join pair with the previous block).
    pub first: usize,
    /// Last element of the block (join pair with the next block).
    pub last: usize,
    /// No adjacent pair *inside* the block decreases.
    pub nonstrict: bool,
    /// Every adjacent pair inside the block strictly increases.
    pub strict: bool,
    /// Absolute index of the first interior decrease, if any.
    pub first_violation: Option<usize>,
    /// The block's [`FINGERPRINT_VERSION`] fingerprint.
    pub fingerprint: u64,
}

/// Summary of a non-empty `block` starting at absolute index `start`.
/// The positioned pass for `first_violation` runs only over a block the
/// sweep flagged, and stops at the first decrease.
fn summarize(start: usize, block: &[usize], scan: &BlockScan) -> BlockSummary {
    BlockSummary {
        first: block[0],
        last: block[block.len() - 1],
        nonstrict: !scan.gt,
        strict: !scan.ge,
        first_violation: if scan.gt {
            scan_pairs(block).first_violation.map(|i| start + i)
        } else {
            None
        },
        fingerprint: scan.fingerprint,
    }
}

/// Wide out-of-domain scan: smallest index with `data[i] >= domain`.
/// Same stride/accumulate/positioned-second-pass shape as
/// [`scan_pairs`]. The ingest and verify sweeps only flag a block; this
/// finds the position inside it, and validates a `mutate_range` window.
pub fn first_out_of_domain(data: &[usize], domain: usize) -> Option<usize> {
    const STRIDE: usize = 512;
    let mut pos = 0usize;
    while pos < data.len() {
        let end = (pos + STRIDE).min(data.len());
        let s = &data[pos..end];
        // Plain reduction loop: one packed unsigned compare per vector of
        // elements once vectorized (requires `target-cpu=native`; see
        // `.cargo/config.toml`). A manually unrolled inner loop defeats
        // the loop vectorizer, so keep this shape boring.
        let mut bad = false;
        for x in s {
            bad |= *x >= domain;
        }
        if bad {
            for (k, x) in s.iter().enumerate() {
                if *x >= domain {
                    return Some(pos + k);
                }
            }
        }
        pos = end;
    }
    None
}

/// The per-block summary vector of one array, kept in lockstep with the
/// contents by the trust boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSummaries {
    blocks: Vec<BlockSummary>,
    len: usize,
    /// `array_seed(len) + Σ_k mix(blocks[k].fingerprint, k)`, wrapping.
    checksum: u64,
}

impl BlockSummaries {
    /// Builds summaries for `data`, validating every entry against
    /// `domain` in the same pass — the fused ingest core. Each 32 KiB
    /// block is swept once (`scan_block`: domain, both pair compares
    /// and the fingerprint over the same loaded words), so the data
    /// crosses the memory bus once; `touch_block_after` asks for the
    /// head of each page a block early.
    /// On an out-of-domain entry the *first offending absolute index*
    /// is returned.
    ///
    /// Work: Θ(n). Span: Θ(n).
    pub fn build(data: &[usize], domain: usize) -> Result<BlockSummaries, usize> {
        let mut blocks = Vec::with_capacity(data.len().div_ceil(BLOCK_LEN));
        let mut checksum = array_seed(data.len());
        for (k, block) in data.chunks(BLOCK_LEN).enumerate() {
            touch_block_after(data, k);
            let start = k * BLOCK_LEN;
            let scan = scan_block::<true>(block, domain);
            if scan.out_of_domain {
                let rel = first_out_of_domain(block, domain).expect("the sweep flagged this block");
                return Err(start + rel);
            }
            checksum = checksum.wrapping_add(mix(scan.fingerprint, k));
            blocks.push(summarize(start, block, &scan));
        }
        Ok(BlockSummaries {
            blocks,
            len: data.len(),
            checksum,
        })
    }

    /// Number of summarized elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the summarized array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The summary rows, in block order.
    pub fn blocks(&self) -> &[BlockSummary] {
        &self.blocks
    }

    /// Rescans exactly the blocks overlapping `dirty` (a half-open
    /// element range) against the current `data`, whose length must be
    /// unchanged since the summaries were built, and patches the
    /// checksum by `− mix(old) + mix(new)` per rescanned block. Join
    /// pairs need no rescan: they are re-derived from the refreshed
    /// `first`/`last` boundary values at verdict time. The domain is the
    /// caller's to check (`mutate_range` validates the window first).
    ///
    /// Work: Θ(Δ + BLOCK_LEN) for a window of Δ elements — independent
    /// of n and of the block count. Span: the same.
    pub fn rescan(&mut self, data: &[usize], dirty: Range<usize>) {
        debug_assert_eq!(data.len(), self.len, "rescan cannot change length");
        if dirty.start >= dirty.end {
            return;
        }
        let first_block = dirty.start / BLOCK_LEN;
        let last_block = (dirty.end - 1) / BLOCK_LEN;
        for k in first_block..=last_block.min(self.blocks.len().saturating_sub(1)) {
            let start = k * BLOCK_LEN;
            let block = &data[start..(start + BLOCK_LEN).min(data.len())];
            let fresh = summarize(start, block, &scan_block::<true>(block, usize::MAX));
            self.checksum = self
                .checksum
                .wrapping_sub(mix(self.blocks[k].fingerprint, k))
                .wrapping_add(mix(fresh.fingerprint, k));
            self.blocks[k] = fresh;
        }
    }

    /// The `subsub-fingerprint/v3` content checksum, maintained by
    /// [`BlockSummaries::build`] and [`BlockSummaries::rescan`].
    ///
    /// Work: Θ(1). Span: Θ(1).
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Derives the whole-array verdict from the summaries, O(blocks).
    ///
    /// Blocks are walked in order; for block `k > 0` the join pair
    /// (`blocks[k-1].last` vs `blocks[k].first`, at absolute index
    /// `k * BLOCK_LEN`) is checked *before* block `k`'s interior (whose
    /// first violation is at index ≥ `k * BLOCK_LEN + 1`), so the first
    /// violation reported is the globally first one — bit-identical to
    /// [`crate::inspect_serial`] on the same contents.
    ///
    /// Work: Θ(blocks) = Θ(n / BLOCK_LEN), no element read. Span: the
    /// same (an early exit at the first violating block only helps).
    pub fn verdict(&self) -> MonotoneVerdict {
        let mut eq = false;
        let mut first_violation = None;
        'walk: for (k, s) in self.blocks.iter().enumerate() {
            if k > 0 {
                let prev_last = self.blocks[k - 1].last;
                if prev_last > s.first {
                    first_violation = Some(k * BLOCK_LEN);
                    break 'walk;
                }
                if prev_last == s.first {
                    eq = true;
                }
            }
            if !s.nonstrict {
                first_violation = s.first_violation;
                break 'walk;
            }
            if !s.strict {
                eq = true;
            }
        }
        MonotoneVerdict {
            nonstrict: first_violation.is_none(),
            strict: first_violation.is_none() && !eq,
            first_violation,
            len: self.len,
        }
    }

    /// Derives the *block-monotone* verdict — "monotone within blocks of
    /// `b` elements", pairs at multiples of `b` exempt — in O(blocks),
    /// recombining the same maintained summaries as
    /// [`BlockSummaries::verdict`]. Identical to
    /// [`crate::inspect::inspect_block_monotone`] on the current
    /// contents.
    ///
    /// Only possible from summaries when `b` is a positive multiple of
    /// [`BLOCK_LEN`]: then every exempt pair lands exactly on a summary
    /// join (whose comparison is re-derived from boundary values and can
    /// be skipped), while block interiors always count. Other block
    /// sizes return `None` — callers fall back to the O(n) scan.
    ///
    /// Work: Θ(blocks), no element read. Span: the same.
    pub fn block_verdict(&self, b: usize) -> Option<MonotoneVerdict> {
        if b == 0 || !b.is_multiple_of(BLOCK_LEN) {
            return None;
        }
        let mut eq = false;
        let mut first_violation = None;
        'walk: for (k, s) in self.blocks.iter().enumerate() {
            let join = k * BLOCK_LEN;
            if k > 0 && !join.is_multiple_of(b) {
                let prev_last = self.blocks[k - 1].last;
                if prev_last > s.first {
                    first_violation = Some(join);
                    break 'walk;
                }
                if prev_last == s.first {
                    eq = true;
                }
            }
            if !s.nonstrict {
                first_violation = s.first_violation;
                break 'walk;
            }
            if !s.strict {
                eq = true;
            }
        }
        Some(MonotoneVerdict {
            nonstrict: first_violation.is_none(),
            strict: first_violation.is_none() && !eq,
            first_violation,
            len: self.len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inspect::inspect_serial;

    // Verdict/checksum tests don't care about domain membership, and a
    // few use `usize::MAX`, which no exclusive bound admits. `rescan`
    // never looks at the domain, so summarize through it — and hold the
    // result against `build` wherever `build` accepts the data.
    fn checked(data: &[usize]) -> BlockSummaries {
        let mut s = BlockSummaries::build(&vec![0; data.len()], 1).unwrap();
        s.rescan(data, 0..data.len());
        if !data.contains(&usize::MAX) {
            assert_eq!(BlockSummaries::build(data, usize::MAX).as_ref(), Ok(&s));
        }
        s
    }

    #[test]
    fn verdict_matches_serial_on_small_shapes() {
        let cases: Vec<Vec<usize>> = vec![
            vec![],
            vec![7],
            vec![0, 1, 2, 5, 9],
            vec![0, 1, 1, 2],
            vec![0, 3, 2],
            vec![7; 17],
            vec![usize::MAX - 1, usize::MAX],
            vec![usize::MAX, 0],
        ];
        for data in &cases {
            assert_eq!(checked(data).verdict(), inspect_serial(data), "{data:?}");
        }
    }

    #[test]
    fn verdict_matches_serial_across_block_boundaries() {
        let n = BLOCK_LEN * 3 + 100;
        let ramp: Vec<usize> = (0..n).collect();
        assert_eq!(checked(&ramp).verdict(), inspect_serial(&ramp));
        // Violation exactly on a block join (first element of block 1).
        let mut joined = ramp.clone();
        joined[BLOCK_LEN] = 0;
        let v = checked(&joined).verdict();
        assert_eq!(v, inspect_serial(&joined));
        assert_eq!(v.first_violation, Some(BLOCK_LEN));
        // Plateau on a block join: non-strict only.
        let mut plateau = ramp.clone();
        plateau[BLOCK_LEN * 2] = plateau[BLOCK_LEN * 2 - 1];
        let v = checked(&plateau).verdict();
        assert_eq!(v, inspect_serial(&plateau));
        assert!(v.nonstrict && !v.strict);
        // Interior violation deep inside a later block.
        let mut broken = ramp.clone();
        broken[BLOCK_LEN + 77] = 3;
        assert_eq!(checked(&broken).verdict(), inspect_serial(&broken));
    }

    #[test]
    fn earliest_violation_wins_across_join_and_interior() {
        // Both a join violation and a later interior one: the join (the
        // globally first) must be reported, matching the serial scan.
        let n = BLOCK_LEN * 2;
        let mut data: Vec<usize> = (0..n).collect();
        data[BLOCK_LEN] = 0; // join violation at BLOCK_LEN
        data[BLOCK_LEN + 500] = 1; // interior violation later
        let v = checked(&data).verdict();
        assert_eq!(v.first_violation, Some(BLOCK_LEN));
        assert_eq!(v, inspect_serial(&data));
    }

    #[test]
    fn rescan_tracks_mutations_exactly() {
        let n = BLOCK_LEN * 4;
        let mut data: Vec<usize> = (0..n).collect();
        let mut s = checked(&data);
        // Break monotonicity inside block 2, rescan just that window.
        data[BLOCK_LEN * 2 + 9] = 0;
        s.rescan(&data, BLOCK_LEN * 2 + 9..BLOCK_LEN * 2 + 10);
        assert_eq!(s.verdict(), inspect_serial(&data));
        assert_eq!(s.checksum(), checked(&data).checksum());
        // Heal it again; the summaries must converge back.
        data[BLOCK_LEN * 2 + 9] = BLOCK_LEN * 2 + 9;
        s.rescan(&data, BLOCK_LEN * 2 + 9..BLOCK_LEN * 2 + 10);
        assert_eq!(s, checked(&data));
    }

    #[test]
    fn rescan_window_straddling_blocks_refreshes_both() {
        let n = BLOCK_LEN * 2 + 10;
        let mut data: Vec<usize> = (0..n).map(|i| i * 2).collect();
        let mut s = checked(&data);
        // Dirty window straddles the block 0 / block 1 join.
        let lo = BLOCK_LEN - 3;
        let hi = BLOCK_LEN + 3;
        for (off, v) in data[lo..hi].iter_mut().enumerate() {
            *v = (lo + off) * 2 + 1;
        }
        s.rescan(&data, lo..hi);
        assert_eq!(s, checked(&data));
        assert_eq!(s.verdict(), inspect_serial(&data));
    }

    #[test]
    fn fused_domain_scan_reports_first_offender() {
        let mut data: Vec<usize> = (0..BLOCK_LEN + 50).collect();
        data[BLOCK_LEN + 7] = usize::MAX;
        data[BLOCK_LEN + 30] = usize::MAX; // later offender must not win
        assert_eq!(
            BlockSummaries::build(&data, BLOCK_LEN + 50),
            Err(BLOCK_LEN + 7)
        );
        assert_eq!(
            first_out_of_domain(&data, BLOCK_LEN + 50),
            Some(BLOCK_LEN + 7)
        );
        assert_eq!(first_out_of_domain(&[0, 1, 2], 3), None);
        assert_eq!(first_out_of_domain(&[0, 1, 3], 3), Some(2));
        assert_eq!(first_out_of_domain(&[], 0), None);
        // Boundary semantics: `domain` itself is out, `domain - 1` is in.
        assert_eq!(first_out_of_domain(&[9], 10), None);
        assert_eq!(first_out_of_domain(&[10], 10), Some(0));
    }

    #[test]
    fn checksum_is_length_and_content_sensitive() {
        let c = |d: &[usize]| checked(d).checksum();
        assert_ne!(c(&[0, 1]), c(&[0, 1, 0]));
        assert_ne!(c(&[0, 1]), c(&[1, 0]));
        assert_eq!(c(&[7, 8, 9]), c(&[7, 8, 9]));
        assert_ne!(c(&[]), c(&[0]));
        // A flip in a non-final block must still move the combined value.
        let big: Vec<usize> = (0..BLOCK_LEN * 3).collect();
        let mut flipped = big.clone();
        flipped[5] ^= 1;
        assert_ne!(c(&big), c(&flipped));
    }

    /// In-domain pseudo-random words, so every lane and every block
    /// holds something different.
    fn noise(n: usize, mut x: u64) -> Vec<usize> {
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 1) as usize
            })
            .collect()
    }

    #[test]
    fn one_changed_word_always_changes_the_checksum() {
        // Every position class of the format: lane 0, lane LANES-1, the
        // ragged tail, the first and last word of a block, the last
        // block (long enough for a lane phase) — and a short array with
        // no lane phase at all.
        let n = BLOCK_LEN * 2 + LANE_MIN + 2 * LANES + 5;
        let positions = [
            0,
            LANES - 1,
            LANES,
            BLOCK_LEN - 1,
            BLOCK_LEN,
            BLOCK_LEN + LANES - 1,
            2 * BLOCK_LEN - 1,
            2 * BLOCK_LEN,
            2 * BLOCK_LEN + LANE_MIN + 2 * LANES - 1,
            2 * BLOCK_LEN + LANE_MIN + 2 * LANES,
            n - 1,
        ];
        let data = noise(n, 0x9e37_79b9_7f4a_7c15);
        let base = checked(&data).checksum();
        for at in positions {
            for delta in [1usize, 1 << 17, 1 << 62] {
                let mut changed = data.clone();
                changed[at] ^= delta;
                assert_ne!(checked(&changed).checksum(), base, "word {at} ^ {delta:#x}");
            }
        }
        let short = noise(LANE_MIN - 1, 7);
        for at in [0, LANES - 1, LANES, LANE_MIN - 2] {
            let mut changed = short.clone();
            changed[at] ^= 1;
            assert_ne!(checked(&changed).checksum(), checked(&short).checksum());
        }
    }

    #[test]
    fn swapped_words_and_swapped_blocks_change_the_checksum() {
        let n = BLOCK_LEN * 3 + LANE_MIN + LANES + 3;
        let data = noise(n, 0x243f_6a88_85a3_08d3);
        let base = checked(&data).checksum();
        let swaps = [
            (3, 3 + LANES),         // same lane, same block
            (3, 4),                 // neighbouring lanes
            (0, LANES - 1),         // first and last lane of a row
            (5, BLOCK_LEN + 5),     // same lane, different blocks
            (5, 2 * BLOCK_LEN + 9), // different lanes, different blocks
            (n - 1, n - 2),         // inside the tail
            (n - 1, 3 * BLOCK_LEN), // tail against lane 0
        ];
        for (a, b) in swaps {
            assert_ne!(data[a], data[b]);
            let mut swapped = data.clone();
            swapped.swap(a, b);
            assert_ne!(checked(&swapped).checksum(), base, "swap {a} <-> {b}");
        }
        // Two whole blocks trade places: every block fingerprint is
        // unchanged, only the position keys tell the arrays apart.
        let mut blocks = data.clone();
        let (lo, hi) = blocks.split_at_mut(BLOCK_LEN);
        lo.swap_with_slice(&mut hi[..BLOCK_LEN]);
        assert_ne!(checked(&blocks).checksum(), base);
    }

    #[test]
    fn zero_padding_and_position_are_told_apart() {
        let c = |d: &[usize]| checked(d).checksum();
        for x in [0usize, 1, 12345] {
            assert_ne!(c(&[x]), c(&[x, 0]));
            assert_ne!(c(&[x, 0]), c(&[0, x, 0]));
        }
        assert_ne!(c(&[7, 0]), c(&[0, 7]));
        // Same for a lane row, the shortest laned block and a block of
        // zeros.
        assert_ne!(c(&vec![0; LANES]), c(&vec![0; LANES + 1]));
        assert_ne!(c(&vec![0; LANE_MIN - 1]), c(&vec![0; LANE_MIN]));
        assert_ne!(c(&vec![0; LANE_MIN]), c(&vec![0; LANE_MIN + 1]));
        assert_ne!(c(&vec![0; BLOCK_LEN]), c(&vec![0; BLOCK_LEN + 1]));
        assert_ne!(c(&vec![0; BLOCK_LEN]), c(&vec![0; 2 * BLOCK_LEN]));
    }

    #[test]
    fn verify_fingerprint_matches_the_maintained_checksum() {
        for n in [
            0,
            1,
            LANES + 1,
            LANE_MIN - 1,
            LANE_MIN,
            LANE_MIN + LANES + 1,
            BLOCK_LEN - 1,
            BLOCK_LEN + 1,
        ] {
            let data = noise(n, 99 + n as u64);
            assert_eq!(
                fingerprint(&data, usize::MAX),
                (checked(&data).checksum(), None),
                "length {n}"
            );
        }
        // The first offender is reported, whichever block it is in.
        let mut data = noise(BLOCK_LEN + 40, 5);
        data[BLOCK_LEN + 7] = usize::MAX;
        data[BLOCK_LEN + 30] = usize::MAX;
        assert_eq!(fingerprint(&data, usize::MAX).1, Some(BLOCK_LEN + 7));
        data[9] = usize::MAX;
        assert_eq!(fingerprint(&data, usize::MAX).1, Some(9));
    }

    #[test]
    fn incremental_checksum_equals_full_rebuild() {
        let n = BLOCK_LEN * 3 + 17;
        let mut data: Vec<usize> = (0..n).collect();
        let mut s = checked(&data);
        for (at, v) in [(0usize, 5usize), (n - 1, 0), (BLOCK_LEN, 1), (n / 2, 9)] {
            data[at] = v;
            s.rescan(&data, at..at + 1);
            assert_eq!(s.checksum(), checked(&data).checksum());
        }
    }

    #[test]
    fn block_verdict_matches_ground_truth_scan() {
        use crate::inspect::inspect_block_monotone;
        let b = BLOCK_LEN;
        // Periodic ramp restarting every b elements: block-monotone
        // (strict) but globally non-monotone.
        let n = b * 3 + 100;
        let periodic: Vec<usize> = (0..n).map(|i| i % b).collect();
        let v = checked(&periodic).block_verdict(b).unwrap();
        assert_eq!(v, inspect_block_monotone(&periodic, b));
        assert!(v.strict, "{v:?}");
        assert!(!checked(&periodic).verdict().nonstrict);
        // A within-block decrease is a violation with the right index.
        let mut broken = periodic.clone();
        broken[b + 77] = 0;
        let v = checked(&broken).block_verdict(b).unwrap();
        assert_eq!(v, inspect_block_monotone(&broken, b));
        assert_eq!(v.first_violation, Some(b + 77));
        // A plateau inside a block demotes strict to non-strict.
        let mut plateau = periodic.clone();
        plateau[b * 2 + 5] = plateau[b * 2 + 4];
        let v = checked(&plateau).block_verdict(b).unwrap();
        assert_eq!(v, inspect_block_monotone(&plateau, b));
        assert!(v.nonstrict && !v.strict);
    }

    #[test]
    fn block_verdict_counts_interior_joins_of_large_blocks() {
        // b = 2 * BLOCK_LEN: the join at BLOCK_LEN is *interior* to the
        // logical block and must count; the join at 2 * BLOCK_LEN is a
        // period boundary and must be exempt.
        use crate::inspect::inspect_block_monotone;
        let b = BLOCK_LEN * 2;
        let n = b * 2;
        let periodic: Vec<usize> = (0..n).map(|i| i % b).collect();
        let v = checked(&periodic).block_verdict(b).unwrap();
        assert_eq!(v, inspect_block_monotone(&periodic, b));
        assert!(v.strict);
        // Decrease exactly at an interior summary join (index BLOCK_LEN).
        let mut broken = periodic.clone();
        broken[BLOCK_LEN] = 0;
        let v = checked(&broken).block_verdict(b).unwrap();
        assert_eq!(v, inspect_block_monotone(&broken, b));
        assert_eq!(v.first_violation, Some(BLOCK_LEN));
    }

    #[test]
    fn block_verdict_rejects_unaligned_sizes_and_degenerates() {
        use crate::inspect::{inspect_block_monotone, inspect_serial};
        let data: Vec<usize> = (0..BLOCK_LEN + 9).map(|i| i % 7).collect();
        let s = checked(&data);
        assert!(s.block_verdict(0).is_none());
        assert!(s.block_verdict(7).is_none());
        assert!(s.block_verdict(BLOCK_LEN + 1).is_none());
        // The O(n) scan handles unaligned sizes and the b = 0 degenerate.
        assert!(inspect_block_monotone(&data, 7).strict);
        assert_eq!(inspect_block_monotone(&data, 0), inspect_serial(&data));
        // b beyond the length: one block, equals the plain verdict.
        let ramp: Vec<usize> = (0..100).collect();
        assert_eq!(inspect_block_monotone(&ramp, 4096), inspect_serial(&ramp));
    }

    #[test]
    fn max_adjacent_values_do_not_wrap() {
        let data = [usize::MAX - 2, usize::MAX - 1, usize::MAX];
        let s = checked(&data);
        assert!(s.verdict().strict);
        let data = [usize::MAX, usize::MAX];
        let v = checked(&data).verdict();
        assert!(v.nonstrict && !v.strict);
    }

    #[test]
    fn property_random_mutations_match_serial() {
        // Seeded xorshift walk: after every single-element mutation the
        // summary-derived verdict and checksum must equal a from-scratch
        // rebuild and the serial inspector.
        let n = BLOCK_LEN * 2 + 333;
        let mut data: Vec<usize> = (0..n).collect();
        let mut s = checked(&data);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let at = (x as usize) % n;
            let val = ((x >> 32) as usize) % (2 * n);
            data[at] = val;
            s.rescan(&data, at..at + 1);
            assert_eq!(s.verdict(), inspect_serial(&data));
            assert_eq!(s.checksum(), checked(&data).checksum());
        }
    }
}
