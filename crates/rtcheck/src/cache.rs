//! Memoization of inspector verdicts.
//!
//! Inspecting an index array is O(n); re-inspecting it on every kernel
//! invocation would erase the paper's point that the check amortizes.
//! For a raw view the cache keys a verdict on the array's *identity*
//! (name + data address + length) and its *write-version*: the owning
//! kernel bumps the version whenever it mutates the array, so a lookup
//! with a stale version misses (recorded as an invalidation) and
//! triggers re-inspection, while an unchanged array revalidates in O(1).
//!
//! An array behind the ingestion trust boundary is keyed on its
//! *content* instead — (checksum, length, fingerprint version). Name,
//! address and version say nothing about what a freshly ingested array
//! holds: a new array under a reused name can land on a freed buffer's
//! address and starts at version 0 like its predecessor.
//!
//! The memo is bounded ([`MEMO_CAPACITY`]): when an insert would exceed
//! the bound, the entry with the oldest recency stamp is evicted (a
//! linear min-scan — exact LRU order is not worth a linked list at this
//! capacity, and the scan only runs on inserts into a full memo).

use crate::block::FINGERPRINT_VERSION;
use crate::inspect::{inspect_serial, try_inspect_monotone, IndexArrayView, MonotoneVerdict};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use subsub_failpoint::{self as failpoint, Action};
use subsub_omprt::{RegionError, ThreadPool};
use subsub_telemetry as telemetry;
use subsub_telemetry::{EventKind, Phase};

/// Entries the inspector memo holds before evicting; far above what the
/// kernel registry needs, low enough that a service sweeping arbitrary
/// arrays through one executor cannot grow the memo without bound.
pub const MEMO_CAPACITY: usize = 1024;

/// Cache identity of one index array.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    /// A raw view: where it lives. Only good together with the
    /// write-version stored beside the verdict.
    View {
        name: String,
        addr: usize,
        len: usize,
    },
    /// An ingested array: what it holds. The verdict is a function of
    /// the content, so these entries never go stale (stored version 0).
    Content { checksum: u64, len: usize, fp: u8 },
}

impl Key {
    fn of(view: &IndexArrayView<'_>) -> Key {
        Key::View {
            name: view.name.to_string(),
            addr: view.data.as_ptr() as usize,
            len: view.data.len(),
        }
    }

    fn of_ingested(array: &crate::ValidatedIndexArray) -> Key {
        Key::Content {
            checksum: array.checksum(),
            len: array.len(),
            fp: FINGERPRINT_VERSION,
        }
    }

    /// Label and element count for the eviction event.
    fn describe(&self) -> (&str, usize) {
        match self {
            Key::View { name, len, .. } => (name, *len),
            Key::Content { len, .. } => ("ingested", *len),
        }
    }
}

/// Counters describing how the cache behaved so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered without re-inspection.
    pub hits: u64,
    /// Lookups that had no usable entry and ran the inspector.
    pub misses: u64,
    /// Misses caused specifically by a version change on a known array.
    pub invalidations: u64,
    /// Entries evicted under capacity pressure.
    pub evictions: u64,
}

/// The entries behind the memo's lock, each with its recency stamp.
#[derive(Debug)]
struct Memo {
    cap: usize,
    tick: u64,
    evictions: u64,
    map: HashMap<Key, (u64, (u64, MonotoneVerdict))>,
}

impl Memo {
    /// Looks up `key`, refreshing its recency stamp on a hit.
    fn get(&mut self, key: &Key) -> Option<&(u64, MonotoneVerdict)> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some((stamp, v)) => {
                *stamp = tick;
                Some(v)
            }
            None => None,
        }
    }

    /// Inserts (or replaces) `key`, evicting the stalest entry first if
    /// the memo is full. Returns the evicted key, if any.
    fn insert(&mut self, key: Key, value: (u64, MonotoneVerdict)) -> Option<Key> {
        self.tick += 1;
        let mut evicted = None;
        if !self.map.contains_key(&key) && self.map.len() >= self.cap {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
                self.evictions += 1;
                evicted = Some(victim);
            }
        }
        self.map.insert(key, (self.tick, value));
        evicted
    }
}

/// Verdict memo keyed by (array identity, version), bounded at
/// [`MEMO_CAPACITY`] entries with LRU-ish eviction.
#[derive(Debug)]
pub struct InspectorCache {
    entries: Mutex<Memo>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for InspectorCache {
    fn default() -> InspectorCache {
        InspectorCache::new()
    }
}

impl InspectorCache {
    /// Empty cache with the default [`MEMO_CAPACITY`] bound.
    pub fn new() -> InspectorCache {
        InspectorCache::bounded(MEMO_CAPACITY)
    }

    /// Empty cache holding at most `cap` verdicts (at least one).
    pub fn bounded(cap: usize) -> InspectorCache {
        InspectorCache {
            entries: Mutex::new(Memo {
                cap: cap.max(1),
                tick: 0,
                evictions: 0,
                map: HashMap::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Returns the verdict for `view`, inspecting only when no entry with
    /// the current version exists. A version mismatch on a known array is
    /// counted as an invalidation and the entry is replaced. A faulted
    /// parallel inspection degrades to the serial scan (see
    /// [`InspectorCache::try_verdict`] to observe the fault instead).
    pub fn verdict(&self, view: &IndexArrayView<'_>, pool: Option<&ThreadPool>) -> MonotoneVerdict {
        match self.try_verdict(view, pool) {
            Ok(v) => v,
            Err(_) => self.verdict_serial(view),
        }
    }

    /// [`InspectorCache::verdict`] that reports a faulted inspection as
    /// an error instead of rescuing it. **A fault never records a
    /// verdict**: an inspection that panicked or lost a worker produced
    /// no trustworthy result, and memoizing one would poison every later
    /// lookup at this version (hits bypass re-inspection by design).
    pub fn try_verdict(
        &self,
        view: &IndexArrayView<'_>,
        pool: Option<&ThreadPool>,
    ) -> Result<MonotoneVerdict, RegionError> {
        let key = Key::of(view);
        let _lookup_span = telemetry::span_labeled(Phase::CacheLookup, view.name);
        if let Some(verdict) = self.lookup(&key, view.name, view.version) {
            return Ok(verdict);
        }
        // Inspect outside the lock: scans can be long and parallel. The
        // `?` is the poisoning fix: no insert on a faulted scan.
        self.note_miss(view.name, view.data.len());
        let verdict = {
            let _inspect_span = telemetry::span_labeled(Phase::Inspect, view.name);
            try_inspect_monotone(view.data, pool)?
        };
        self.insert(key, view.version, verdict);
        Ok(verdict)
    }

    /// Returns the verdict for an array living behind the ingestion
    /// trust boundary, memoized on the array's *content identity* and
    /// served on a miss from its block summaries in O(blocks) instead
    /// of rescanning O(n) elements.
    ///
    /// Soundness: the boundary rebuilds or rescans the summaries — and
    /// the checksum they carry — atomically with every write-version
    /// bump, so checksum and summaries always describe the same
    /// contents; two arrays share an entry only when their (checksum,
    /// length) agree. Callers defending against *bypassing* writers (who
    /// change neither checksum nor summaries) must pair this with
    /// [`ValidatedIndexArray::verify`], which recomputes from raw data —
    /// exactly what the guard does before decide/dispatch.
    ///
    /// [`ValidatedIndexArray::verify`]: crate::ValidatedIndexArray::verify
    pub fn verdict_ingested(&self, array: &crate::ValidatedIndexArray) -> MonotoneVerdict {
        let key = Key::of_ingested(array);
        let _lookup_span = telemetry::span_labeled(Phase::CacheLookup, array.name());
        if let Some(verdict) = self.lookup(&key, array.name(), 0) {
            return verdict;
        }
        self.note_miss(array.name(), array.len());
        let verdict = {
            let _reinspect_span = telemetry::span_labeled(Phase::Reinspect, array.name());
            array.summary_verdict()
        };
        self.insert(key, 0, verdict);
        verdict
    }

    /// Inspects `view` with the infallible serial scan and memoizes the
    /// result — the final rung of the guard's retry ladder.
    pub fn verdict_serial(&self, view: &IndexArrayView<'_>) -> MonotoneVerdict {
        self.note_miss(view.name, view.data.len());
        let verdict = {
            let _inspect_span = telemetry::span_labeled(Phase::Inspect, view.name);
            inspect_serial(view.data)
        };
        self.insert(Key::of(view), view.version, verdict);
        verdict
    }

    /// Serves `key` when its entry was recorded at `version`; an entry
    /// at another version is counted as an invalidation and left for
    /// the caller's insert to replace.
    fn lookup(&self, key: &Key, name: &str, version: u64) -> Option<MonotoneVerdict> {
        match lock(&self.entries).get(key) {
            Some((ver, verdict)) if *ver == version => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                telemetry::instant_labeled(EventKind::CacheHit, Phase::CacheLookup, name, version);
                Some(*verdict)
            }
            Some(_) => {
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                telemetry::instant_labeled(
                    EventKind::CacheInvalidate,
                    Phase::CacheLookup,
                    name,
                    version,
                );
                None
            }
            None => None,
        }
    }

    fn note_miss(&self, name: &str, len: usize) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        telemetry::instant_labeled(EventKind::CacheMiss, Phase::CacheLookup, name, len as u64);
    }

    fn insert(&self, key: Key, version: u64, verdict: MonotoneVerdict) {
        match failpoint::hit("rtcheck.cache.insert") {
            Action::Proceed => {
                self.insert_noting_eviction(key, (version, verdict));
            }
            // Injected insert fault: skip memoization. The verdict
            // already computed stays valid; later lookups just re-inspect.
            Action::Error => {}
            // Injected memo corruption is modelled in the conservative
            // direction only: the stored verdict denies everything, so a
            // corrupted cache can cost performance (spurious serial
            // fallbacks) but never admit an unsound parallel run.
            Action::Corrupt => {
                let deny = MonotoneVerdict {
                    nonstrict: false,
                    strict: false,
                    first_violation: None,
                    len: verdict.len,
                };
                self.insert_noting_eviction(key, (version, deny));
            }
        }
    }

    fn insert_noting_eviction(&self, key: Key, entry: (u64, MonotoneVerdict)) {
        let evicted = lock(&self.entries).insert(key, entry);
        if let Some(victim) = evicted {
            let (label, len) = victim.describe();
            telemetry::instant_labeled(
                EventKind::CacheEvict,
                Phase::CacheLookup,
                label,
                len as u64,
            );
        }
    }

    /// Drops every memoized verdict (counters are kept).
    pub fn clear(&self) {
        lock(&self.entries).map.clear();
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            evictions: lock(&self.entries).evictions,
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inspect::MonotoneReq;

    fn view<'a>(name: &'a str, data: &'a [usize], version: u64) -> IndexArrayView<'a> {
        IndexArrayView {
            name,
            data,
            version,
            required: MonotoneReq::NonStrict,
        }
    }

    #[test]
    fn second_lookup_hits() {
        let cache = InspectorCache::new();
        let data = vec![0usize, 1, 2, 3];
        let v1 = cache.verdict(&view("b", &data, 0), None);
        let v2 = cache.verdict(&view("b", &data, 0), None);
        assert_eq!(v1, v2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 1, 0));
    }

    #[test]
    fn version_bump_invalidates() {
        let cache = InspectorCache::new();
        let mut data = vec![0usize, 1, 2, 3];
        assert!(cache.verdict(&view("b", &data, 0), None).nonstrict);
        // Mutate in place (address and length unchanged) and bump version.
        data[2] = 0;
        let v = cache.verdict(&view("b", &data, 1), None);
        assert!(!v.nonstrict);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (0, 2, 1));
        // The replaced entry now serves the new version.
        assert!(!cache.verdict(&view("b", &data, 1), None).nonstrict);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn distinct_arrays_do_not_collide() {
        let cache = InspectorCache::new();
        let good = vec![0usize, 1, 2];
        let bad = vec![2usize, 1, 0];
        assert!(cache.verdict(&view("g", &good, 0), None).nonstrict);
        assert!(!cache.verdict(&view("b", &bad, 0), None).nonstrict);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn inspector_memo_evicts_under_pressure_and_reinspects() {
        // A 2-entry memo driven with 3 distinct arrays: the stalest entry
        // is evicted, and looking it up again is a miss (re-inspection),
        // not a stale answer.
        let cache = InspectorCache::bounded(2);
        let a = vec![0usize, 1, 2];
        let b = vec![0usize, 2, 4];
        let c = vec![5usize, 6, 7];
        cache.verdict(&view("a", &a, 0), None);
        cache.verdict(&view("b", &b, 0), None);
        // A hit refreshes "a", so "b" is now the stalest.
        cache.verdict(&view("a", &a, 0), None);
        cache.verdict(&view("c", &c, 0), None); // evicts "b"
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 3, 1));
        // "b" was evicted: this lookup must re-inspect, not hit — and
        // entering it again evicts "a", the stalest of the other two.
        cache.verdict(&view("b", &b, 0), None);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 4, 2));
        // "c" is still resident and hits.
        cache.verdict(&view("c", &c, 0), None);
        assert_eq!(cache.stats().hits, 2);
        // Replacing an entry under a full memo (a version bump) evicts
        // nothing.
        cache.verdict(&view("c", &c, 1), None);
        assert_eq!(cache.stats().evictions, 2);
        // The bound is clamped to one entry.
        let one = InspectorCache::bounded(0);
        one.verdict(&view("a", &a, 0), None);
        one.verdict(&view("a", &a, 0), None);
        one.verdict(&view("b", &b, 0), None);
        let s = one.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 2, 1));
    }

    #[test]
    fn clear_forgets_entries_but_keeps_counters() {
        let cache = InspectorCache::new();
        let data = vec![0usize, 1];
        cache.verdict(&view("b", &data, 0), None);
        cache.clear();
        cache.verdict(&view("b", &data, 0), None);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 2));
    }
}
