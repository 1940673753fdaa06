//! The ingestion trust boundary for index arrays.
//!
//! Everything downstream of this module — the inspector, the memo cache,
//! the guard's tamper gate, and ultimately the `unsafe` gather/scatter in
//! the kernels — *assumes* that every subscript is a valid index into the
//! target array. That assumption is exactly what a hostile (or merely
//! buggy) input can break: an out-of-range entry behind `unsafe` indexing
//! is undefined behaviour, not a wrong answer.
//!
//! [`ValidatedIndexArray`] is the one sanctioned path from raw
//! `&[usize]` data (files, generators, benchmark datasets) into
//! inspection and dispatch:
//!
//! * **ingestion** validates every entry against the target array's
//!   domain and rejects with a structured [`ValidationError`] (which the
//!   guard maps onto [`crate::ExecError::InvalidIndexArray`] — a serial
//!   fallback, never UB);
//! * **mutation** goes through [`ValidatedIndexArray::mutate`] (an
//!   arbitrary whole-vector edit, O(n)) or the preferred
//!   [`ValidatedIndexArray::mutate_range`] (a ranged in-place edit,
//!   O(Δ) in the touched window): both re-validate, bump the
//!   write-version (invalidating cached verdicts) and refresh the
//!   content checksum, and both roll back a mutation that would leave
//!   the array out of domain;
//! * **verification** ([`ValidatedIndexArray::verify`]) re-checks the
//!   checksum and domain *from the raw data* in one read, catching
//!   out-of-band writers that bypassed the boundary (the hostile-writer
//!   model of the PR 3 tamper tests).
//!
//! Since PR 7 the boundary also maintains per-block summaries
//! ([`crate::block::BlockSummaries`]) in lockstep with the contents:
//! ingestion builds them in the same loop as domain validation and the
//! checksum, and `mutate_range` rescans only the dirty blocks. That is
//! what makes [`ValidatedIndexArray::summary_verdict`] an O(blocks)
//! whole-array monotonicity verdict — sound exactly because every
//! sanctioned write path refreshes the summaries atomically with the
//! version bump, and because `verify()` still recomputes the checksum
//! from the raw bytes, so a bypassing writer is caught before any
//! summary-derived verdict can be trusted.
//!
//! The array also carries a [`Provenance`] tag so a rejection or a
//! divergence report can say *where* the bytes came from.

use crate::block::{fingerprint, first_out_of_domain, BlockSummaries};
use crate::inspect::{IndexArrayView, MonotoneReq, MonotoneVerdict};
use std::fmt;
use std::ops::Range;
use subsub_telemetry as telemetry;
use subsub_telemetry::Phase;

/// Where an index array's contents came from, for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Provenance {
    /// Produced by a deterministic generator (datasets, fuzzers).
    Generated {
        /// The generator seed, for reproduction.
        seed: u64,
    },
    /// Materialized from a named benchmark dataset.
    Dataset {
        /// Dataset name (e.g. `"MATRIX2"`, `"test"`).
        name: String,
    },
    /// Arbitrary external input (file, network, caller-supplied slice).
    Untrusted {
        /// Free-form description of the source.
        source: String,
    },
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Provenance::Generated { seed } => write!(f, "generated (seed {seed})"),
            Provenance::Dataset { name } => write!(f, "dataset {name}"),
            Provenance::Untrusted { source } => write!(f, "untrusted ({source})"),
        }
    }
}

/// Why ingestion (or re-verification) rejected an index array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// An entry indexes past the target array's domain.
    OutOfDomain {
        /// The array's declared name.
        array: String,
        /// Position of the offending entry.
        index: usize,
        /// The offending subscript value.
        value: usize,
        /// Exclusive upper bound the entry had to stay below.
        domain: usize,
    },
    /// The content checksum does not match the last validated state: a
    /// writer mutated the data without going through the trust boundary.
    ChecksumMismatch {
        /// The array's declared name.
        array: String,
    },
}

impl ValidationError {
    /// The name of the array the error is about.
    pub fn array(&self) -> &str {
        match self {
            ValidationError::OutOfDomain { array, .. } => array,
            ValidationError::ChecksumMismatch { array } => array,
        }
    }
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::OutOfDomain {
                array,
                index,
                value,
                domain,
            } => write!(
                f,
                "{array}[{index}] = {value} is outside the target domain [0, {domain})"
            ),
            ValidationError::ChecksumMismatch { array } => write!(
                f,
                "{array} content checksum drifted since validation (out-of-band writer)"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

impl From<ValidationError> for crate::error::ExecError {
    fn from(e: ValidationError) -> crate::error::ExecError {
        crate::error::ExecError::InvalidIndexArray {
            array: e.array().to_string(),
            detail: e.to_string(),
        }
    }
}

/// An index array that passed domain validation at ingestion and is
/// tracked (version + checksum) across mutations. See the module docs.
#[derive(Debug, Clone)]
pub struct ValidatedIndexArray {
    name: String,
    data: Vec<usize>,
    /// Exclusive upper bound every entry must stay below: the length of
    /// the target array the subscripts index into.
    domain: usize,
    version: u64,
    provenance: Provenance,
    /// Per-block summaries, kept in lockstep with `data` by every
    /// sanctioned write path. They carry the content checksum — the
    /// `subsub-fingerprint/v3` value of the last validated state (an
    /// integrity fingerprint, not a cryptographic MAC).
    summaries: BlockSummaries,
}

fn out_of_domain(name: &str, data: &[usize], index: usize, domain: usize) -> ValidationError {
    ValidationError::OutOfDomain {
        array: name.to_string(),
        index,
        value: data[index],
        domain,
    }
}

impl ValidatedIndexArray {
    /// Validates `data` against `domain` (the exclusive bound its entries
    /// index into) and takes ownership. The only constructor: there is no
    /// way to hold a `ValidatedIndexArray` with an out-of-domain entry.
    ///
    /// Ingestion is one loop per block: the domain compare, the content
    /// fingerprint and the per-block monotonicity flags are all taken
    /// from the same loaded words ([`BlockSummaries::build`]). An
    /// out-of-domain entry is reported at its first offending index.
    ///
    /// Work: Θ(n). Span: Θ(n).
    pub fn ingest(
        name: impl Into<String>,
        data: Vec<usize>,
        domain: usize,
        provenance: Provenance,
    ) -> Result<ValidatedIndexArray, ValidationError> {
        let name = name.into();
        let summaries = BlockSummaries::build(&data, domain)
            .map_err(|index| out_of_domain(&name, &data, index, domain))?;
        Ok(ValidatedIndexArray {
            name,
            data,
            domain,
            version: 0,
            provenance,
            summaries,
        })
    }

    /// The array's declared name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The validated contents.
    pub fn data(&self) -> &[usize] {
        &self.data
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the array has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The exclusive domain bound entries were validated against.
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// Current write-version (bumped on every successful mutation).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The content checksum recorded at the last validation point. Only
    /// trustworthy alongside a fresh [`ValidatedIndexArray::verify`]:
    /// verify recomputes the fingerprint of the *current* contents and
    /// fails on drift, so `verify()? ; checksum()` yields a fingerprint
    /// that provably describes the data as it is now. The executor's
    /// memo keys ingested arrays on this (checksum + length), which is
    /// what lets instances holding equal content share a verdict without
    /// ever trusting one for content that drifted.
    ///
    /// Work: Θ(1). Span: Θ(1).
    pub fn checksum(&self) -> u64 {
        self.summaries.checksum()
    }

    /// Where the contents came from.
    pub fn provenance(&self) -> &Provenance {
        &self.provenance
    }

    /// An inspection/dispatch view carrying the identity and version the
    /// memo cache and the guard's tamper gate key on.
    pub fn view(&self, required: MonotoneReq) -> IndexArrayView<'_> {
        IndexArrayView {
            name: &self.name,
            data: &self.data,
            version: self.version,
            required,
        }
    }

    /// Mutates the contents through the trust boundary with an arbitrary
    /// whole-vector edit (the closure may grow, shrink, or reorder the
    /// data): applies `f`, re-validates the domain, bumps the version and
    /// refreshes the checksum and block summaries. A mutation that would
    /// leave an out-of-domain entry is rolled back (the array stays in
    /// its previous validated state) and the error is returned.
    ///
    /// This is the *structural* slow path: rolling back an arbitrary
    /// `FnOnce(&mut Vec)` requires a full snapshot, so the call is O(n)
    /// no matter how small the edit. Writes that stay within a known
    /// window should use [`ValidatedIndexArray::mutate_range`], which
    /// snapshots, validates, and rescans only that window.
    ///
    /// Note the boundary validates *memory safety* (domain), not the
    /// dependence property: a mutation may freely break monotonicity —
    /// detecting that is the inspector's job, and the version bump
    /// guarantees it re-runs.
    ///
    /// Work: Θ(n) (snapshot + re-ingest) plus the closure. Span: Θ(n).
    pub fn mutate(&mut self, f: impl FnOnce(&mut Vec<usize>)) -> Result<(), ValidationError> {
        let snapshot = self.data.clone();
        f(&mut self.data);
        match BlockSummaries::build(&self.data, self.domain) {
            Err(index) => {
                let err = out_of_domain(&self.name, &self.data, index, self.domain);
                self.data = snapshot;
                Err(err)
            }
            Ok(summaries) => {
                self.version += 1;
                self.summaries = summaries;
                Ok(())
            }
        }
    }

    /// Mutates `data[range]` in place through the trust boundary, paying
    /// O(Δ) instead of O(n): only the touched window is snapshotted for
    /// rollback and re-validated against the domain, only the blocks
    /// overlapping it are rescanned, and the whole-array checksum is
    /// patched per rescanned block. A single-element write into an
    /// array of any size costs one 4 Ki block rescan.
    ///
    /// The closure sees exactly `&mut data[range]` — it cannot write
    /// outside the declared window, which is what makes the dirty-window
    /// bookkeeping sound: every untouched block's summary provably still
    /// describes its contents. A mutation that would leave an
    /// out-of-domain entry in the window is rolled back and reported at
    /// its first offending (absolute) index.
    ///
    /// Work: Θ(Δ + BLOCK_LEN) plus the closure, independent of n.
    /// Span: the same.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds or inverted, like slice
    /// indexing would.
    pub fn mutate_range(
        &mut self,
        range: Range<usize>,
        f: impl FnOnce(&mut [usize]),
    ) -> Result<(), ValidationError> {
        let _span = telemetry::span_labeled(Phase::Reinspect, &self.name);
        let (lo, hi) = (range.start, range.end);
        assert!(
            lo <= hi && hi <= self.data.len(),
            "mutate_range {lo}..{hi} out of bounds for length {}",
            self.data.len()
        );
        let snapshot = self.data[lo..hi].to_vec();
        f(&mut self.data[lo..hi]);
        if let Some(rel) = first_out_of_domain(&self.data[lo..hi], self.domain) {
            let err = out_of_domain(&self.name, &self.data, lo + rel, self.domain);
            self.data[lo..hi].copy_from_slice(&snapshot);
            return Err(err);
        }
        self.version += 1;
        self.summaries.rescan(&self.data, lo..hi);
        Ok(())
    }

    /// The whole-array monotonicity verdict derived from the block
    /// summaries in O(blocks) — no element is re-read. Identical
    /// (including the first-violation index) to running
    /// [`crate::inspect_serial`] over the current contents, because every
    /// sanctioned write path keeps the summaries in lockstep with the
    /// data. Like [`ValidatedIndexArray::checksum`], it describes the
    /// *last validated state*: callers that must defend against
    /// bypassing writers pair it with a fresh
    /// [`ValidatedIndexArray::verify`], which recomputes from raw data.
    ///
    /// Work: Θ(blocks) = Θ(n / BLOCK_LEN). Span: the same.
    pub fn summary_verdict(&self) -> MonotoneVerdict {
        self.summaries.verdict()
    }

    /// The per-block summaries backing [`summary_verdict`]
    /// (read-only; the boundary owns their maintenance).
    ///
    /// [`summary_verdict`]: ValidatedIndexArray::summary_verdict
    pub fn summaries(&self) -> &BlockSummaries {
        &self.summaries
    }

    /// Re-verifies the integrity of the contents *from the raw data*:
    /// the checksum must match the last validated state and every entry
    /// must still be in domain. Fails when a writer mutated the data
    /// without going through [`ValidatedIndexArray::mutate`] /
    /// [`ValidatedIndexArray::mutate_range`] — the hostile-writer
    /// scenario the guard must refuse to dispatch on. Deliberately O(n):
    /// this is the tamper gate, and it never trusts the summaries it is
    /// being asked to vouch for — one read of the data yields the
    /// fingerprint and the domain flag, no pair is compared and nothing
    /// is built. A checksum mismatch is reported before an
    /// out-of-domain entry.
    ///
    /// Work: Θ(n). Span: Θ(n).
    pub fn verify(&self) -> Result<(), ValidationError> {
        let (recomputed, offender) = fingerprint(&self.data, self.domain);
        if recomputed != self.checksum() {
            return Err(ValidationError::ChecksumMismatch {
                array: self.name.clone(),
            });
        }
        match offender {
            Some(index) => Err(out_of_domain(&self.name, &self.data, index, self.domain)),
            None => Ok(()),
        }
    }

    /// Raw mutable access that **bypasses** version and checksum
    /// bookkeeping, modelling a writer that ignores the trust boundary
    /// (the tamper scenarios of the robustness suites). A later
    /// [`ValidatedIndexArray::verify`] fails with
    /// [`ValidationError::ChecksumMismatch`]. Never use this on a real
    /// mutation path — that is what [`ValidatedIndexArray::mutate`] is
    /// for.
    pub fn bypass_validation_mut(&mut self) -> &mut [usize] {
        &mut self.data
    }
}

/// Verdict for a two-level (composed) indirection `i ↦ outer[inner[i]]`
/// — the `y[ind1[ind2[j]]]` pattern of the precursor paper
/// (arXiv 1911.05839).
///
/// The composition rule: a monotone map of a monotone sequence is
/// monotone, and an injective map of pairwise-distinct values stays
/// pairwise distinct — *provided* every inner value lands inside the
/// range on which the outer array's property holds. The trust boundary
/// makes that domain premise a static fact: `inner` was ingested with a
/// domain bound, so `inner.domain() <= outer.len()` proves every
/// composed lookup is in range without re-reading a single element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComposedVerdict {
    /// Per-level verdict of the inner (first-applied) array.
    pub inner: MonotoneVerdict,
    /// Per-level verdict of the outer array.
    pub outer: MonotoneVerdict,
    /// Every validated inner value is a valid subscript into the outer
    /// array (`inner.domain() <= outer.len()`).
    pub domain_chained: bool,
    /// `i ↦ outer[inner[i]]` never decreases.
    pub nonstrict: bool,
    /// `i ↦ outer[inner[i]]` strictly increases — hence the composed
    /// subscripts are pairwise distinct (the license for a parallel
    /// scatter through the composition).
    pub strict: bool,
}

impl ComposedVerdict {
    /// True when the composition satisfies `req`.
    pub fn satisfies(&self, req: MonotoneReq) -> bool {
        match req {
            MonotoneReq::NonStrict => self.nonstrict,
            MonotoneReq::Strict => self.strict,
        }
    }
}

/// Validates the two-level composition `outer[inner[·]]` from maintained
/// block summaries — O(blocks), no element re-read — so the O(Δ)
/// re-inspection economics of [`ValidatedIndexArray::mutate_range`]
/// extend to composed subscripts: a ranged edit to either level rescans
/// only its dirty blocks, and the composed verdict recombines from
/// summaries.
///
/// Like [`ValidatedIndexArray::summary_verdict`], this describes the
/// *last validated state* of both arrays; a caller that must rule out a
/// bypassing writer pairs it with [`ValidatedIndexArray::verify`] on
/// each level.
pub fn composed_verdict(
    outer: &ValidatedIndexArray,
    inner: &ValidatedIndexArray,
) -> ComposedVerdict {
    let iv = inner.summary_verdict();
    let ov = outer.summary_verdict();
    let domain_chained = inner.domain() <= outer.len();
    ComposedVerdict {
        inner: iv,
        outer: ov,
        domain_chained,
        nonstrict: domain_chained && iv.nonstrict && ov.nonstrict,
        strict: domain_chained && iv.strict && ov.strict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ExecError;

    fn untrusted() -> Provenance {
        Provenance::Untrusted {
            source: "test".into(),
        }
    }

    #[test]
    fn in_domain_data_is_ingested() {
        let a = ValidatedIndexArray::ingest("b", vec![0, 3, 7, 9], 10, untrusted()).unwrap();
        assert_eq!(a.data(), &[0, 3, 7, 9]);
        assert_eq!((a.len(), a.domain(), a.version()), (4, 10, 0));
        assert!(a.verify().is_ok());
    }

    #[test]
    fn out_of_domain_entry_is_rejected_with_location() {
        let err = ValidatedIndexArray::ingest("b", vec![0, 3, 10, 9], 10, untrusted())
            .expect_err("entry 10 is out of [0, 10)");
        assert_eq!(
            err,
            ValidationError::OutOfDomain {
                array: "b".into(),
                index: 2,
                value: 10,
                domain: 10,
            }
        );
        // The boundary value domain-1 is fine; usize::MAX never is.
        assert!(ValidatedIndexArray::ingest("b", vec![9], 10, untrusted()).is_ok());
        assert!(ValidatedIndexArray::ingest("b", vec![usize::MAX], 10, untrusted()).is_err());
    }

    #[test]
    fn empty_domain_rejects_any_entry_but_accepts_empty_data() {
        assert!(ValidatedIndexArray::ingest("b", vec![], 0, untrusted()).is_ok());
        assert!(ValidatedIndexArray::ingest("b", vec![0], 0, untrusted()).is_err());
    }

    #[test]
    fn mutation_bumps_version_and_stays_verified() {
        let mut a = ValidatedIndexArray::ingest("b", vec![0, 1, 2], 10, untrusted()).unwrap();
        a.mutate(|d| d[1] = 5).unwrap();
        assert_eq!((a.version(), a.data()[1]), (1, 5));
        assert!(a.verify().is_ok());
    }

    #[test]
    fn invalid_mutation_is_rolled_back() {
        let mut a = ValidatedIndexArray::ingest("b", vec![0, 1, 2], 10, untrusted()).unwrap();
        let err = a.mutate(|d| d[0] = 99).expect_err("99 out of [0, 10)");
        assert!(matches!(
            err,
            ValidationError::OutOfDomain { value: 99, .. }
        ));
        // Rolled back: previous validated state, version unchanged.
        assert_eq!(a.data(), &[0, 1, 2]);
        assert_eq!(a.version(), 0);
        assert!(a.verify().is_ok());
    }

    #[test]
    fn bypassing_writer_is_caught_by_verify() {
        let mut a = ValidatedIndexArray::ingest("b", vec![0, 1, 2], 10, untrusted()).unwrap();
        a.bypass_validation_mut()[2] = 3; // in-domain, but unannounced
        assert_eq!(
            a.verify(),
            Err(ValidationError::ChecksumMismatch { array: "b".into() })
        );
    }

    #[test]
    fn view_carries_identity_and_version() {
        let mut a = ValidatedIndexArray::ingest("b", vec![0, 1], 10, untrusted()).unwrap();
        let v = a.view(MonotoneReq::Strict);
        assert_eq!((v.name, v.version, v.data.len()), ("b", 0, 2));
        a.mutate(|d| d.push(4)).unwrap();
        assert_eq!(a.view(MonotoneReq::Strict).version, 1);
    }

    #[test]
    fn validation_error_maps_into_the_exec_ladder() {
        let err = ValidatedIndexArray::ingest("A_rownnz", vec![5], 3, untrusted()).unwrap_err();
        let exec: ExecError = err.into();
        match &exec {
            ExecError::InvalidIndexArray { array, detail } => {
                assert_eq!(array, "A_rownnz");
                assert!(detail.contains("outside the target domain"), "{detail}");
            }
            other => panic!("wrong mapping: {other:?}"),
        }
        assert!(!exec.transient(), "a rejected input is not retryable");
    }

    #[test]
    fn fingerprint_is_length_and_content_sensitive() {
        let fp = |d: &[usize]| {
            ValidatedIndexArray::ingest("b", d.to_vec(), usize::MAX, untrusted())
                .unwrap()
                .checksum()
        };
        assert_ne!(fp(&[0, 1]), fp(&[0, 1, 0]));
        assert_ne!(fp(&[0, 1]), fp(&[1, 0]));
        assert_eq!(fp(&[7, 8, 9]), fp(&[7, 8, 9]));
        assert_ne!(fp(&[]), fp(&[0]));
    }

    #[test]
    fn mutate_range_bumps_version_and_matches_full_rebuild() {
        let mut a = ValidatedIndexArray::ingest("b", vec![0, 1, 2, 3], 10, untrusted()).unwrap();
        a.mutate_range(1..3, |w| {
            w[0] = 5;
            w[1] = 6;
        })
        .unwrap();
        assert_eq!(a.data(), &[0, 5, 6, 3]);
        assert_eq!(a.version(), 1);
        assert!(a.verify().is_ok());
        let rebuilt = ValidatedIndexArray::ingest("b", a.data().to_vec(), 10, untrusted()).unwrap();
        assert_eq!(a.checksum(), rebuilt.checksum());
        assert_eq!(a.summary_verdict(), rebuilt.summary_verdict());
    }

    #[test]
    fn invalid_mutate_range_rolls_back_only_logically_but_fully() {
        let mut a = ValidatedIndexArray::ingest("b", vec![0, 1, 2, 3], 10, untrusted()).unwrap();
        let err = a
            .mutate_range(1..3, |w| {
                w[0] = 4; // in-domain, but rolled back with the rest
                w[1] = 99; // out of [0, 10)
            })
            .expect_err("99 out of [0, 10)");
        assert_eq!(
            err,
            ValidationError::OutOfDomain {
                array: "b".into(),
                index: 2,
                value: 99,
                domain: 10,
            }
        );
        assert_eq!(a.data(), &[0, 1, 2, 3]);
        assert_eq!(a.version(), 0);
        assert!(a.verify().is_ok());
    }

    #[test]
    fn mutate_range_at_first_last_and_join_indices() {
        use crate::block::BLOCK_LEN;
        let n = BLOCK_LEN * 2 + 5;
        let base: Vec<usize> = (0..n).collect();
        let mut a =
            ValidatedIndexArray::ingest("b", base.clone(), usize::MAX, untrusted()).unwrap();
        for at in [0, n - 1, BLOCK_LEN, BLOCK_LEN - 1, BLOCK_LEN + 1] {
            a.mutate_range(at..at + 1, |w| w[0] = 0).unwrap();
            assert_eq!(
                a.summary_verdict(),
                crate::inspect::inspect_serial(a.data()),
                "mutation at {at}"
            );
            assert!(a.verify().is_ok());
            a.mutate_range(at..at + 1, |w| w[0] = at).unwrap();
            assert_eq!(a.data(), &base[..], "heal at {at}");
        }
        // Healed array: checksum converges back to the pristine value.
        let pristine = ValidatedIndexArray::ingest("b", base, usize::MAX, untrusted()).unwrap();
        assert_eq!(a.checksum(), pristine.checksum());
        assert!(a.summary_verdict().strict);
    }

    #[test]
    fn mutate_range_straddling_a_block_join() {
        use crate::block::BLOCK_LEN;
        let n = BLOCK_LEN * 2;
        let mut a =
            ValidatedIndexArray::ingest("b", (0..n).collect::<Vec<_>>(), usize::MAX, untrusted())
                .unwrap();
        // Window covers the last 2 elements of block 0 and first 2 of
        // block 1; introduce a decrease exactly across the join.
        a.mutate_range(BLOCK_LEN - 2..BLOCK_LEN + 2, |w| {
            w[1] = 7_000_000;
            w[2] = 5;
        })
        .unwrap();
        let v = a.summary_verdict();
        assert_eq!(v, crate::inspect::inspect_serial(a.data()));
        assert_eq!(v.first_violation, Some(BLOCK_LEN));
        assert!(a.verify().is_ok());
    }

    #[test]
    fn mutate_range_handles_max_adjacency() {
        let mut a =
            ValidatedIndexArray::ingest("b", vec![0, 1, 2, 3], usize::MAX, untrusted()).unwrap();
        // usize::MAX is out of every domain `< usize::MAX`, but with
        // domain == usize::MAX... MAX itself is >= domain, so still out.
        let err = a.mutate_range(3..4, |w| w[0] = usize::MAX).unwrap_err();
        assert!(matches!(err, ValidationError::OutOfDomain { index: 3, .. }));
        // MAX - 1 is in domain; adjacent equal MAX-1 values must not wrap.
        a.mutate_range(2..4, |w| {
            w[0] = usize::MAX - 1;
            w[1] = usize::MAX - 1;
        })
        .unwrap();
        let v = a.summary_verdict();
        assert_eq!(v, crate::inspect::inspect_serial(a.data()));
        assert!(v.nonstrict && !v.strict);
    }

    #[test]
    fn empty_mutate_range_is_a_versioned_noop() {
        let mut a = ValidatedIndexArray::ingest("b", vec![0, 1, 2], 10, untrusted()).unwrap();
        let before = a.checksum();
        a.mutate_range(1..1, |w| assert!(w.is_empty())).unwrap();
        assert_eq!(a.version(), 1);
        assert_eq!(a.checksum(), before);
        assert!(a.verify().is_ok());
    }

    #[test]
    fn summary_verdict_property_matches_serial_under_seeded_mutations() {
        use crate::block::BLOCK_LEN;
        let n = 2 * BLOCK_LEN + 700;
        let mut a =
            ValidatedIndexArray::ingest("b", (0..n).collect::<Vec<_>>(), 2 * n, untrusted())
                .unwrap();
        let mut x = 0x243f_6a88_85a3_08d3u64;
        for step in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let at = (x as usize) % n;
            let val = ((x >> 32) as usize) % (2 * n);
            a.mutate_range(at..at + 1, |w| w[0] = val).unwrap();
            assert_eq!(
                a.summary_verdict(),
                crate::inspect::inspect_serial(a.data()),
                "step {step}: wrote {val} at {at}"
            );
            assert_eq!(a.version(), step + 1);
            // The patched checksum is the checksum of the contents.
            let fresh =
                ValidatedIndexArray::ingest("b", a.data().to_vec(), 2 * n, untrusted()).unwrap();
            assert_eq!(a.checksum(), fresh.checksum(), "step {step}");
            assert!(a.verify().is_ok(), "step {step}");
        }
    }

    #[test]
    fn a_bypassing_write_anywhere_is_a_checksum_mismatch() {
        use crate::block::{BLOCK_LEN, LANES};
        let n = 2 * BLOCK_LEN + LANES + 9;
        let mut a =
            ValidatedIndexArray::ingest("b", (0..n).collect::<Vec<_>>(), n, untrusted()).unwrap();
        let mismatch = Err(ValidationError::ChecksumMismatch { array: "b".into() });
        for at in [0, LANES - 1, BLOCK_LEN - 1, BLOCK_LEN, 2 * BLOCK_LEN, n - 1] {
            let was = a.data()[at];
            // In domain or not, drift is reported before the domain.
            for smuggled in [was ^ 1, n, usize::MAX] {
                a.bypass_validation_mut()[at] = smuggled;
                assert_eq!(a.verify(), mismatch, "{smuggled} at {at}");
            }
            a.bypass_validation_mut()[at] = was;
            assert!(a.verify().is_ok(), "restored {at}");
        }
        // Two in-domain words trading places is drift too.
        a.bypass_validation_mut().swap(3, 3 + LANES);
        assert_eq!(a.verify(), mismatch);
    }

    #[test]
    fn composed_strict_when_both_levels_strict_and_domains_chain() {
        // outer maps [0, 8) strictly; inner selects strictly within [0, 8).
        let outer = ValidatedIndexArray::ingest(
            "row_start",
            vec![0, 2, 4, 6, 9, 12, 15, 20],
            21,
            untrusted(),
        )
        .unwrap();
        let inner = ValidatedIndexArray::ingest("act", vec![1, 3, 4, 7], 8, untrusted()).unwrap();
        let c = composed_verdict(&outer, &inner);
        assert!(c.domain_chained && c.strict && c.nonstrict);
        assert!(c.satisfies(MonotoneReq::Strict));
        // Ground truth: materialize the composition and inspect it.
        let composed: Vec<usize> = inner.data().iter().map(|&i| outer.data()[i]).collect();
        let truth = crate::inspect::inspect_serial(&composed);
        assert_eq!((truth.nonstrict, truth.strict), (c.nonstrict, c.strict));
    }

    #[test]
    fn composed_refused_when_inner_domain_exceeds_outer_length() {
        // inner is valid for a domain of 100, but outer only has 4
        // entries: the composition cannot be vouched for even though
        // both levels are individually strict.
        let outer = ValidatedIndexArray::ingest("s", vec![0, 1, 2, 3], 10, untrusted()).unwrap();
        let inner = ValidatedIndexArray::ingest("t", vec![0, 2, 50], 100, untrusted()).unwrap();
        let c = composed_verdict(&outer, &inner);
        assert!(!c.domain_chained);
        assert!(!c.nonstrict && !c.strict);
        assert!(
            c.inner.strict && c.outer.strict,
            "levels are fine in isolation"
        );
    }

    #[test]
    fn composed_inner_out_of_domain_rejected_at_ingestion() {
        // An inner entry past the outer's length never reaches the
        // composition: ingestion against the chained domain rejects it.
        let err = ValidatedIndexArray::ingest("t", vec![0, 2, 4], 4, untrusted())
            .expect_err("4 is outside [0, 4)");
        assert!(matches!(
            err,
            ValidationError::OutOfDomain {
                index: 2,
                value: 4,
                ..
            }
        ));
    }

    #[test]
    fn composed_weakens_with_either_level_and_reinspects_in_o_delta() {
        let outer =
            ValidatedIndexArray::ingest("s", (0..64).collect::<Vec<_>>(), 64, untrusted()).unwrap();
        let mut inner =
            ValidatedIndexArray::ingest("t", (0..32).collect::<Vec<_>>(), 64, untrusted()).unwrap();
        assert!(composed_verdict(&outer, &inner).strict);
        // A plateau in the inner level: composed drops to non-strict.
        inner.mutate_range(10..11, |w| w[0] = 9).unwrap();
        let c = composed_verdict(&outer, &inner);
        assert!(c.nonstrict && !c.strict);
        // A decrease straddling the mutation window boundary kills
        // non-strictness too; healing restores strictness — all through
        // ranged mutations whose rescan cost is O(Δ + blocks).
        inner.mutate_range(10..12, |w| w[1] = 3).unwrap();
        assert!(!composed_verdict(&outer, &inner).nonstrict);
        inner
            .mutate_range(10..12, |w| {
                w[0] = 10;
                w[1] = 11;
            })
            .unwrap();
        assert!(composed_verdict(&outer, &inner).strict);
    }

    #[test]
    fn summary_verdict_goes_stale_on_bypass_until_verify_catches_it() {
        let mut a = ValidatedIndexArray::ingest("b", vec![0, 1, 2, 3], 10, untrusted()).unwrap();
        assert!(a.summary_verdict().strict);
        a.bypass_validation_mut()[1] = 9; // breaks monotonicity, unannounced
                                          // The summary verdict is stale — and that is exactly why the
                                          // guard calls verify() first, which fails here.
        assert!(a.summary_verdict().strict);
        assert!(matches!(
            a.verify(),
            Err(ValidationError::ChecksumMismatch { .. })
        ));
    }
}
