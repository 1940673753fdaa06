//! `subsub-cache/v3`: the warm-start snapshot of the sharded verdict
//! cache.
//!
//! The snapshot is a versioned JSON document carrying the cache's
//! content-addressed entries plus a digest over their canonical
//! encoding. Load-time posture is strict: an unknown version, a digest
//! mismatch, a malformed entry, or any out-of-range field rejects the
//! *whole* snapshot ([`SnapshotError`]) — the service then starts cold
//! and rebuilds, which is always safe because the cache is only an
//! inspection amortizer. A snapshot is **never trusted for dispatch**:
//! loaded verdicts only key on content checksums, and the executor's
//! write-version tamper gate re-validates every array at dispatch time,
//! so a stale or adversarial snapshot can at worst cause a re-inspection,
//! never an unsound parallel run.
//!
//! Wire-format note: `telemetry::json` (like most JSON readers) parses
//! numbers through `f64`, exact only up to 2^53. Checksums, provenance
//! tags and the digest are full-width `u64`s, so they are encoded as
//! fixed-width hex *strings* and parsed back losslessly.

use crate::shard::{InspectorKind, ShardedVerdictCache, VerdictKey};
use subsub_rtcheck::{MonotoneVerdict, FINGERPRINT_VERSION};
use subsub_telemetry::json::{self, Json};

/// Magic/version tag of the format this module reads and writes. The
/// number tracks the content fingerprint's ([`FINGERPRINT_VERSION`]): an
/// older snapshot's keys were computed under a retired fingerprint and
/// can never match a key this build computes, so older documents are
/// rejected cleanly ([`SnapshotError::WrongVersion`] — the service
/// starts cold and rebuilds, it never panics and never serves a
/// cross-scheme verdict).
pub const SNAPSHOT_VERSION: &str = "subsub-cache/v3";

/// Why a snapshot was rejected. Every variant means "start cold".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Not parseable as JSON at all.
    Malformed {
        /// Parser diagnostic.
        detail: String,
    },
    /// Parsed, but not a [`SNAPSHOT_VERSION`] document (every older
    /// and every unknown version lands here).
    WrongVersion {
        /// What the document claimed.
        found: String,
    },
    /// The digest over the canonical entry encoding did not match.
    DigestMismatch,
    /// An entry field was missing, mistyped, or out of range.
    BadEntry {
        /// Zero-based entry index.
        index: usize,
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Malformed { detail } => write!(f, "malformed snapshot: {detail}"),
            SnapshotError::WrongVersion { found } => {
                write!(f, "unsupported snapshot version {found:?}")
            }
            SnapshotError::DigestMismatch => write!(f, "snapshot digest mismatch"),
            SnapshotError::BadEntry { index, detail } => {
                write!(f, "snapshot entry {index}: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// FNV-1a over the canonical entry lines — the same hash family the
/// trust boundary uses for content fingerprints, applied to the
/// snapshot body so bit rot anywhere in the entry list is detected.
fn digest_lines(lines: &[String]) -> u64 {
    let mut h = FNV_OFFSET;
    for line in lines {
        for b in line.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h ^= 0x0a; // line separator folds into the digest
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Canonical (digested) encoding of one entry, independent of JSON
/// whitespace or key order.
fn canonical_line(key: &VerdictKey, v: &MonotoneVerdict) -> String {
    format!(
        "{:016x},{},{:016x},{},{},{},{},{},{}",
        key.checksum,
        key.len,
        key.provenance,
        key.kind.code(),
        key.fp,
        v.nonstrict as u8,
        v.strict as u8,
        v.first_violation.map_or(-1i64, |i| i as i64),
        v.len,
    )
}

/// Serializes the cache's resident entries as a `subsub-cache/v3`
/// document. Entries are sorted by key so the output is deterministic.
pub fn write_snapshot(cache: &ShardedVerdictCache) -> String {
    let mut entries = cache.entries();
    entries.sort_by_key(|(k, _)| (k.checksum, k.len, k.provenance, k.kind.code(), k.fp));
    let lines: Vec<String> = entries
        .iter()
        .map(|(k, v)| canonical_line(k, &v.verdict))
        .collect();
    let digest = digest_lines(&lines);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"version\": \"{SNAPSHOT_VERSION}\",\n"));
    out.push_str(&format!("  \"digest\": \"{digest:016x}\",\n"));
    out.push_str("  \"entries\": [\n");
    for (i, (k, v)) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"checksum\": \"{:016x}\", \"len\": {}, \"provenance\": \"{:016x}\", \"kind\": {}, \"fp\": {}, \"nonstrict\": {}, \"strict\": {}, \"first_violation\": {}, \"vlen\": {}}}{}\n",
            k.checksum,
            k.len,
            k.provenance,
            k.kind.code(),
            k.fp,
            v.verdict.nonstrict,
            v.verdict.strict,
            v.verdict.first_violation.map_or(-1i64, |i| i as i64),
            v.verdict.len,
            sep,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn hex_u64(j: &Json, field: &str, index: usize) -> Result<u64, SnapshotError> {
    let s = j
        .get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| SnapshotError::BadEntry {
            index,
            detail: format!("missing hex field {field:?}"),
        })?;
    u64::from_str_radix(s, 16).map_err(|_| SnapshotError::BadEntry {
        index,
        detail: format!("field {field:?} is not hex: {s:?}"),
    })
}

fn num_u64(j: &Json, field: &str, index: usize) -> Result<u64, SnapshotError> {
    j.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| SnapshotError::BadEntry {
            index,
            detail: format!("missing numeric field {field:?}"),
        })
}

fn num_bool(j: &Json, field: &str, index: usize) -> Result<bool, SnapshotError> {
    match j.get(field) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(SnapshotError::BadEntry {
            index,
            detail: format!("missing boolean field {field:?}"),
        }),
    }
}

/// Parses and validates a `subsub-cache/v3` document into
/// (key, verdict) pairs. Strict: any defect rejects the whole snapshot.
pub fn parse_snapshot(text: &str) -> Result<Vec<(VerdictKey, MonotoneVerdict)>, SnapshotError> {
    let doc = json::parse(text).map_err(|e| SnapshotError::Malformed {
        detail: e.to_string(),
    })?;
    let version = doc.get("version").and_then(Json::as_str).unwrap_or("");
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::WrongVersion {
            found: version.to_string(),
        });
    }
    let digest = hex_u64(&doc, "digest", 0)?;
    let entries =
        doc.get("entries")
            .and_then(Json::as_array)
            .ok_or_else(|| SnapshotError::Malformed {
                detail: "missing entries array".into(),
            })?;
    let mut out = Vec::with_capacity(entries.len());
    let mut lines = Vec::with_capacity(entries.len());
    for (index, e) in entries.iter().enumerate() {
        let checksum = hex_u64(e, "checksum", index)?;
        let len = num_u64(e, "len", index)? as usize;
        let provenance = hex_u64(e, "provenance", index)?;
        let kind_code = num_u64(e, "kind", index)?;
        let kind = u8::try_from(kind_code)
            .ok()
            .and_then(InspectorKind::from_code)
            .ok_or_else(|| SnapshotError::BadEntry {
                index,
                detail: format!("unknown inspector kind {kind_code}"),
            })?;
        let fp_code = num_u64(e, "fp", index)?;
        let fp = u8::try_from(fp_code)
            .ok()
            .filter(|f| *f == FINGERPRINT_VERSION)
            .ok_or_else(|| SnapshotError::BadEntry {
                index,
                detail: format!("unknown fingerprint scheme {fp_code}"),
            })?;
        let nonstrict = num_bool(e, "nonstrict", index)?;
        let strict = num_bool(e, "strict", index)?;
        let fv = e
            .get("first_violation")
            .and_then(Json::as_f64)
            .ok_or_else(|| SnapshotError::BadEntry {
                index,
                detail: "missing field \"first_violation\"".into(),
            })?;
        let first_violation = if fv < 0.0 { None } else { Some(fv as usize) };
        let vlen = num_u64(e, "vlen", index)? as usize;
        if vlen != len {
            return Err(SnapshotError::BadEntry {
                index,
                detail: format!("verdict len {vlen} disagrees with key len {len}"),
            });
        }
        if strict && !nonstrict {
            return Err(SnapshotError::BadEntry {
                index,
                detail: "strict verdict without nonstrict is impossible".into(),
            });
        }
        if let Some(i) = first_violation {
            if i >= len.max(1) {
                return Err(SnapshotError::BadEntry {
                    index,
                    detail: format!("first_violation {i} out of range for len {len}"),
                });
            }
        }
        let key = VerdictKey {
            checksum,
            len,
            provenance,
            kind,
            fp,
        };
        let verdict = MonotoneVerdict {
            nonstrict,
            strict,
            first_violation,
            len: vlen,
        };
        lines.push(canonical_line(&key, &verdict));
        out.push((key, verdict));
    }
    if digest_lines(&lines) != digest {
        return Err(SnapshotError::DigestMismatch);
    }
    Ok(out)
}

/// Loads a snapshot into `cache` as warm entries. Returns how many
/// entries were installed, or the rejection reason (cache untouched).
pub fn load_snapshot(cache: &ShardedVerdictCache, text: &str) -> Result<usize, SnapshotError> {
    let entries = parse_snapshot(text)?;
    let n = entries.len();
    for (key, verdict) in entries {
        cache.insert_warm(key, verdict);
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsub_rtcheck::{Provenance, ValidatedIndexArray};

    fn warmed_cache() -> ShardedVerdictCache {
        let cache = ShardedVerdictCache::new(4, 64);
        for seed in 0..6usize {
            let data: Vec<usize> = (0..16).map(|i| i * (seed + 1)).collect();
            let a = ValidatedIndexArray::ingest(
                "snap",
                data,
                usize::MAX,
                Provenance::Generated { seed: seed as u64 },
            )
            .unwrap();
            cache.verdict_for(&a).unwrap();
        }
        cache
    }

    #[test]
    fn round_trip_preserves_every_entry() {
        let cache = warmed_cache();
        let text = write_snapshot(&cache);
        let fresh = ShardedVerdictCache::new(4, 64);
        let n = load_snapshot(&fresh, &text).unwrap();
        assert_eq!(n, 6);
        let mut a = cache.entries();
        let mut b = fresh.entries();
        a.sort_by_key(|(k, _)| (k.checksum, k.provenance));
        b.sort_by_key(|(k, _)| (k.checksum, k.provenance));
        assert_eq!(a.len(), b.len());
        for ((ka, va), (kb, vb)) in a.iter().zip(&b) {
            assert_eq!(ka, kb);
            assert_eq!(va.verdict, vb.verdict);
            assert!(vb.warm, "loaded entries must be flagged warm");
        }
    }

    #[test]
    fn snapshot_is_deterministic() {
        let cache = warmed_cache();
        assert_eq!(write_snapshot(&cache), write_snapshot(&cache));
    }

    #[test]
    fn every_single_byte_corruption_is_rejected_or_harmless() {
        let cache = warmed_cache();
        let text = write_snapshot(&cache);
        let bytes = text.as_bytes();
        let mut rejected = 0usize;
        for i in 0..bytes.len() {
            let mut corrupt = bytes.to_vec();
            corrupt[i] ^= 0x01;
            let Ok(s) = String::from_utf8(corrupt) else {
                continue;
            };
            match load_snapshot(&ShardedVerdictCache::new(4, 64), &s) {
                Err(_) => rejected += 1,
                Ok(n) => {
                    // A flip in pure whitespace can be harmless; content
                    // flips must re-digest identically to pass, which a
                    // 1-bit flip in a digested field cannot.
                    assert_eq!(n, 6, "accepted corruption changed entry count");
                }
            }
        }
        assert!(
            rejected > bytes.len() / 2,
            "most single-bit flips should reject ({rejected}/{})",
            bytes.len()
        );
    }

    #[test]
    fn wrong_version_and_garbage_are_rejected() {
        let cache = ShardedVerdictCache::new(2, 8);
        assert!(matches!(
            load_snapshot(&cache, "not json"),
            Err(SnapshotError::Malformed { .. })
        ));
        let bad = "{\"version\": \"subsub-cache/v9\", \"digest\": \"0\", \"entries\": []}";
        assert!(matches!(
            load_snapshot(&cache, bad),
            Err(SnapshotError::WrongVersion { .. })
        ));
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn impossible_verdicts_are_rejected() {
        // strict=true with nonstrict=false cannot come from the inspector.
        let line = canonical_line(
            &VerdictKey {
                checksum: 1,
                len: 4,
                provenance: 2,
                kind: InspectorKind::Monotone,
                fp: FINGERPRINT_VERSION,
            },
            &MonotoneVerdict {
                nonstrict: false,
                strict: true,
                first_violation: None,
                len: 4,
            },
        );
        let digest = digest_lines(&[line]);
        let doc = format!(
            "{{\"version\": \"{SNAPSHOT_VERSION}\", \"digest\": \"{digest:016x}\", \"entries\": [\
             {{\"checksum\": \"0000000000000001\", \"len\": 4, \"provenance\": \"0000000000000002\", \
             \"kind\": 0, \"fp\": {FINGERPRINT_VERSION}, \"nonstrict\": false, \"strict\": true, \
             \"first_violation\": -1, \"vlen\": 4}}]}}"
        );
        assert!(matches!(
            parse_snapshot(&doc),
            Err(SnapshotError::BadEntry { .. })
        ));
    }

    #[test]
    fn retired_snapshot_versions_are_rejected_cleanly() {
        // Well-formed documents in the retired formats: v1 (pre-fp
        // entries, byte-wise fingerprint keys) and v2 (word-folded FNV
        // keys). Loading must fail with WrongVersion (cold rebuild), not
        // panic and not install entries whose checksums no current
        // array can ever match.
        let v1 = "{\n  \"version\": \"subsub-cache/v1\",\n  \"digest\": \"0000000000000000\",\n  \
                  \"entries\": [\n    {\"checksum\": \"00000000deadbeef\", \"len\": 3, \
                  \"provenance\": \"0000000000000002\", \"kind\": 0, \"nonstrict\": true, \
                  \"strict\": true, \"first_violation\": -1, \"vlen\": 3}\n  ]\n}\n";
        let v2 = "{\n  \"version\": \"subsub-cache/v2\",\n  \"digest\": \"0000000000000000\",\n  \
                  \"entries\": [\n    {\"checksum\": \"00000000deadbeef\", \"len\": 3, \
                  \"provenance\": \"0000000000000002\", \"kind\": 0, \"fp\": 2, \
                  \"nonstrict\": true, \"strict\": true, \"first_violation\": -1, \
                  \"vlen\": 3}\n  ]\n}\n";
        for (doc, version) in [(v1, "subsub-cache/v1"), (v2, "subsub-cache/v2")] {
            let cache = ShardedVerdictCache::new(2, 8);
            assert_eq!(
                load_snapshot(&cache, doc),
                Err(SnapshotError::WrongVersion {
                    found: version.into()
                })
            );
            assert_eq!(cache.stats().entries, 0, "cache must stay cold");
        }
    }

    #[test]
    fn unknown_fingerprint_scheme_is_rejected() {
        // The retired word-folded fingerprint inside an otherwise-valid
        // current document: the entry gate must refuse it even before
        // the digest could vouch for it.
        let doc = format!(
            "{{\"version\": \"{SNAPSHOT_VERSION}\", \"digest\": \"0000000000000000\", \"entries\": [\
             {{\"checksum\": \"0000000000000001\", \"len\": 4, \"provenance\": \"0000000000000002\", \
             \"kind\": 0, \"fp\": {}, \"nonstrict\": true, \"strict\": true, \
             \"first_violation\": -1, \"vlen\": 4}}]}}",
            FINGERPRINT_VERSION - 1
        );
        match parse_snapshot(&doc) {
            Err(SnapshotError::BadEntry { detail, .. }) => {
                assert!(detail.contains("fingerprint scheme"), "{detail}");
            }
            other => panic!("wrong rejection: {other:?}"),
        }
    }

    #[test]
    fn empty_cache_round_trips() {
        let cache = ShardedVerdictCache::new(2, 8);
        let text = write_snapshot(&cache);
        assert_eq!(load_snapshot(&ShardedVerdictCache::new(2, 8), &text), Ok(0));
    }
}
