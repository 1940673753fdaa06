//! The `subsub-fingerprint/v3` leg: a deliberately naive reference of
//! the format, and the differential check that holds
//! [`ValidatedIndexArray::checksum`] against it.
//!
//! [`reference_fingerprint`] is written from the specification in
//! DESIGN.md §7, one word at a time: the lane of a word is its index in
//! the block modulo the lane count, nothing is chunked, nothing is
//! patched. It restates every constant of the format instead of
//! importing them, so a change to the production constants that forgets
//! the version bump diverges here.

use crate::diff::Divergence;
use crate::gen::MutationStep;
use subsub_rtcheck::{Provenance, ValidatedIndexArray, ValidationError};
use subsub_sparse::Rng64;

const BLOCK: usize = 4096;
const K: usize = 32;
/// Words a block needs before it has a lane phase.
const LANED: usize = 512;
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0100_0000_01b3;
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Array lengths that sit on every edge of the format: empty, one word,
/// one short of / exactly / one past a lane row, the same around the
/// shortest block with a lane phase and around a whole block, and
/// several blocks with a ragged tail.
pub const FINGERPRINT_LENGTHS: [usize; 12] = [
    0,
    1,
    K - 1,
    K,
    K + 1,
    LANED - 1,
    LANED,
    LANED + 1,
    BLOCK - 1,
    BLOCK,
    BLOCK + 1,
    3 * BLOCK + LANED + 2 * K + 17,
];

fn step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(PRIME)
}

fn finalize(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The v3 fingerprint of `data`, by the book.
pub fn reference_fingerprint(data: &[usize]) -> u64 {
    let mut sum = finalize(OFFSET ^ data.len() as u64);
    let mut k = 0;
    while k * BLOCK < data.len() {
        let block = &data[k * BLOCK..data.len().min((k + 1) * BLOCK)];
        let count = block.len();
        let in_rows = if count >= LANED { count - count % K } else { 0 };
        let mut lanes: Vec<u64> = (1..=K as u64)
            .map(|j| OFFSET ^ j.wrapping_mul(GOLDEN))
            .collect();
        for (i, w) in block[..in_rows].iter().enumerate() {
            lanes[i % K] = step(lanes[i % K], *w as u64);
        }
        let mut h = OFFSET ^ count as u64;
        if count >= LANED {
            for lane in &lanes {
                h = step(h, *lane);
            }
        }
        for w in &block[in_rows..] {
            h = step(h, *w as u64);
        }
        sum = sum.wrapping_add(finalize(h ^ (k as u64 + 1).wrapping_mul(GOLDEN)));
        k += 1;
    }
    sum
}

/// Seeded in-domain data of one length, for campaign cases and for
/// corpus entries that name `len` + `seed` instead of listing values.
pub fn gen_fingerprint_data(len: usize, seed: u64, domain: usize) -> Vec<usize> {
    let mut rng = Rng64::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_usize(0, domain - 1)).collect()
}

fn ingest(data: &[usize], domain: usize) -> Result<ValidatedIndexArray, ValidationError> {
    ValidatedIndexArray::ingest(
        "fingerprint-fuzz",
        data.to_vec(),
        domain,
        Provenance::Generated { seed: 0 },
    )
}

/// True when a fresh ingest of `data` disagrees with the reference —
/// the shrink predicate for fingerprint divergences.
pub fn fingerprint_diverges(data: &[usize], domain: usize) -> bool {
    ingest(data, domain).is_ok_and(|a| a.checksum() != reference_fingerprint(data))
}

/// Cross-checks the production fingerprint against the reference on one
/// array (`domain >= 1`, every value in domain): after `ingest`, after
/// every step of `plan` through `mutate_range` (the patched sum against
/// both the reference and a fresh ingest of the same contents), through
/// `verify()`, and under single-word tampering at the first, middle and
/// last index — which must always surface as a *checksum* mismatch, even
/// when the smuggled value is also out of domain.
pub fn check_fingerprint(
    label: &str,
    data: &[usize],
    domain: usize,
    plan: &[MutationStep],
) -> Vec<Divergence> {
    let mismatch = |step: usize, detail: String| Divergence::FingerprintMismatch {
        label: label.to_string(),
        step,
        detail,
    };
    // `array` must carry the reference value of `mirror` and verify.
    let hold = |array: &ValidatedIndexArray, mirror: &[usize], step: usize, what: &str| {
        let mut found = Vec::new();
        let want = reference_fingerprint(mirror);
        if array.checksum() != want {
            found.push(mismatch(
                step,
                format!(
                    "{what} checksum {:016x} != reference {want:016x}",
                    array.checksum()
                ),
            ));
        }
        if let Err(e) = array.verify() {
            found.push(mismatch(step, format!("verify() after {what}: {e}")));
        }
        found
    };
    let mut array = match ingest(data, domain) {
        Ok(a) => a,
        Err(e) => {
            return vec![mismatch(
                0,
                format!("seed array rejected at ingestion: {e}"),
            )]
        }
    };
    let mut mirror = data.to_vec();
    let mut out = hold(&array, &mirror, 0, "ingest");
    for (step, m) in plan.iter().enumerate() {
        if m.at >= mirror.len() {
            out.push(mismatch(
                step,
                format!("mutation index {} out of bounds", m.at),
            ));
            return out;
        }
        if array
            .mutate_range(m.at..m.at + 1, |w| w[0] = m.value)
            .is_ok()
        {
            mirror[m.at] = m.value;
        }
        out.extend(hold(&array, &mirror, step, "patched"));
        match ingest(&mirror, domain) {
            Ok(fresh) => out.extend(hold(&fresh, &mirror, step, "fresh-ingest")),
            Err(e) => out.push(mismatch(step, format!("mirror rejected: {e}"))),
        }
    }
    // Every value is < domain <= usize::MAX, so + 1 cannot wrap and
    // always changes the word.
    for at in [0, mirror.len() / 2, mirror.len().saturating_sub(1)] {
        if at >= mirror.len() {
            break;
        }
        array.bypass_validation_mut()[at] += 1;
        if !matches!(
            array.verify(),
            Err(ValidationError::ChecksumMismatch { .. })
        ) {
            out.push(mismatch(
                plan.len(),
                format!(
                    "bypassing write at {at} gave {:?}, not a checksum mismatch",
                    array.verify()
                ),
            ));
        }
        array.bypass_validation_mut()[at] -= 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_restates_the_production_constants() {
        assert_eq!(BLOCK, subsub_rtcheck::BLOCK_LEN);
        assert_eq!(K, subsub_rtcheck::block::LANES);
        assert_eq!(LANED, subsub_rtcheck::block::LANE_MIN);
        assert_eq!(subsub_rtcheck::FINGERPRINT_VERSION, 3);
    }

    #[test]
    fn every_length_class_agrees_with_the_reference() {
        for (i, len) in FINGERPRINT_LENGTHS.into_iter().enumerate() {
            let domain = 1 << 40;
            let data = gen_fingerprint_data(len, 100 + i as u64, domain);
            let plan: Vec<MutationStep> = [0, len / 2, len.saturating_sub(1)]
                .into_iter()
                .filter(|at| *at < len)
                .map(|at| MutationStep { at, value: at + 7 })
                .collect();
            let found = check_fingerprint(&format!("len-{len}"), &data, domain, &plan);
            assert!(found.is_empty(), "{found:?}");
        }
    }

    #[test]
    fn the_reference_tells_order_length_and_position_apart() {
        let r = reference_fingerprint;
        assert_ne!(r(&[5]), r(&[5, 0]));
        assert_ne!(r(&[5, 0]), r(&[0, 5]));
        assert_ne!(r(&[]), r(&[0]));
        let mut blocks: Vec<usize> = (0..2 * BLOCK).collect();
        let before = r(&blocks);
        blocks.rotate_left(BLOCK);
        assert_ne!(before, r(&blocks), "two whole blocks swapped");
    }

    #[test]
    fn a_wrong_fingerprint_is_reported() {
        // The check itself must be able to fail: a plan step past the
        // end is a malformed case, not a silent pass.
        let found = check_fingerprint("bad", &[1, 2, 3], 10, &[MutationStep { at: 9, value: 0 }]);
        assert_eq!(found.len(), 1, "{found:?}");
    }
}
