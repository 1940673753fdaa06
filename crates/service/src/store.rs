//! Crash-consistent on-disk persistence for the verdict-cache snapshot.
//!
//! The in-memory `subsub-cache/v3` document ([`crate::snapshot`]) is
//! already self-validating — versioned, digest-checked, rejected
//! wholesale on any corruption. This module gives it a durable home
//! with the classic two-generation scheme:
//!
//! ```text
//! save:  render → write cache.snap.tmp → fsync(tmp)
//!        → [head parses? rename head → cache.snap.prev : unlink head]
//!        → rename tmp → cache.snap → fsync(dir)
//! load:  try cache.snap → try cache.snap.prev → cold
//! ```
//!
//! The rename-based rotation means a crash at *any* point leaves the
//! directory in one of three states — new head good, no head but prev
//! good, or only garbage in `tmp` with the old head untouched — and in
//! every one of them [`SnapshotStore::recover`] finds a verified
//! generation or rebuilds cold. The head is re-parsed *before* being
//! promoted to `prev`, so a torn head (a crash or injected truncation
//! mid-write) can never evict the last good generation.
//!
//! Failpoint sites (`service.snapshot.save`, `.rotate`, `.load`) inject
//! errors, truncated writes, mid-rotation crashes, and delays at each
//! step; the chaos-serve harness drives them over the seeded `serve`
//! workload.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use subsub_failpoint::{self as failpoint, Action};
use subsub_telemetry as telemetry;
use subsub_telemetry::{EventKind, Phase};

use crate::shard::ShardedVerdictCache;
use crate::snapshot::{load_snapshot, parse_snapshot, write_snapshot};

/// Current generation (the head).
pub const HEAD_FILE: &str = "cache.snap";
/// Previous good generation, the fallback when the head is torn.
pub const PREV_FILE: &str = "cache.snap.prev";
/// In-flight write; never read by recovery.
pub const TMP_FILE: &str = "cache.snap.tmp";

/// Why a save did not land.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem error (rendered), at the step named in the message.
    Io(String),
    /// An armed failpoint aborted the save (chaos runs only).
    Injected(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(detail) => write!(f, "snapshot store i/o: {detail}"),
            StoreError::Injected(site) => write!(f, "snapshot save aborted by failpoint {site}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// What [`SnapshotStore::recover`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// The head generation loaded clean (`n` entries warmed).
    Head(usize),
    /// The head was missing or torn; the previous generation loaded
    /// clean (`n` entries warmed).
    Fallback(usize),
    /// No verified generation on disk; the cache starts cold.
    Cold,
}

impl Recovery {
    /// Entries warmed into the cache by this recovery.
    pub fn entries(self) -> usize {
        match self {
            Recovery::Head(n) | Recovery::Fallback(n) => n,
            Recovery::Cold => 0,
        }
    }
}

/// Counter snapshot of the store's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Saves that landed (head renamed into place).
    pub saves: u64,
    /// Saves aborted by an error or injected fault.
    pub failed_saves: u64,
    /// Recoveries that had to fall back a generation.
    pub fallbacks: u64,
}

/// A two-generation snapshot directory. One per service.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    saves: AtomicU64,
    failed_saves: AtomicU64,
    fallbacks: AtomicU64,
}

impl SnapshotStore {
    /// Opens (creating if needed) the snapshot directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SnapshotStore, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| StoreError::Io(format!("create {}: {e}", dir.display())))?;
        Ok(SnapshotStore {
            dir,
            saves: AtomicU64::new(0),
            failed_saves: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        })
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn head(&self) -> PathBuf {
        self.dir.join(HEAD_FILE)
    }

    fn prev(&self) -> PathBuf {
        self.dir.join(PREV_FILE)
    }

    fn tmp(&self) -> PathBuf {
        self.dir.join(TMP_FILE)
    }

    /// Persists the cache as a new head generation. Crash-consistent:
    /// see the module docs for the step order and its invariant.
    pub fn save(&self, cache: &ShardedVerdictCache) -> Result<usize, StoreError> {
        let result = self.save_inner(cache);
        match &result {
            Ok(n) => {
                self.saves.fetch_add(1, Ordering::Relaxed);
                telemetry::instant(EventKind::SnapshotSave, Phase::Service, 0, *n as u64);
            }
            Err(_) => {
                self.failed_saves.fetch_add(1, Ordering::Relaxed);
                telemetry::instant(EventKind::SnapshotSave, Phase::Service, 0, 0);
            }
        }
        result
    }

    fn save_inner(&self, cache: &ShardedVerdictCache) -> Result<usize, StoreError> {
        let mut text = write_snapshot(cache);
        let entries = parse_snapshot(&text)
            .map(|v| v.len())
            .map_err(|e| StoreError::Io(format!("rendered snapshot unparseable: {e}")))?;
        // Chaos site: Error aborts before anything touches disk; Corrupt
        // models a torn write — the tmp file lands truncated, which the
        // digest check catches at recovery; Panic models a crash here.
        match failpoint::hit("service.snapshot.save") {
            Action::Error => return Err(StoreError::Injected("service.snapshot.save")),
            Action::Corrupt => text.truncate(text.len() / 2),
            Action::Proceed => {}
        }
        let tmp = self.tmp();
        let io = |step: &str, e: std::io::Error| StoreError::Io(format!("{step}: {e}"));
        {
            let mut f = fs::File::create(&tmp).map_err(|e| io("create tmp", e))?;
            f.write_all(text.as_bytes())
                .map_err(|e| io("write tmp", e))?;
            f.sync_all().map_err(|e| io("fsync tmp", e))?;
        }
        // Rotate: promote the head to prev only if it still parses —
        // a torn head must not evict the last good generation.
        let head = self.head();
        let rotate_action = failpoint::hit("service.snapshot.rotate");
        if matches!(rotate_action, Action::Error) {
            return Err(StoreError::Injected("service.snapshot.rotate"));
        }
        if head.exists() {
            let head_good = fs::read_to_string(&head)
                .ok()
                .is_some_and(|t| parse_snapshot(&t).is_ok());
            if head_good {
                fs::rename(&head, self.prev()).map_err(|e| io("rotate head to prev", e))?;
            } else {
                let _ = fs::remove_file(&head);
            }
        }
        // Corrupt models a crash *between* the two renames: the old
        // head was rotated away (or discarded as torn) but the new one
        // never lands.
        if matches!(rotate_action, Action::Corrupt) {
            return Err(StoreError::Injected("service.snapshot.rotate"));
        }
        fs::rename(&tmp, &head).map_err(|e| io("rename tmp to head", e))?;
        // Make the renames durable. Directory fsync is best-effort: not
        // every platform allows opening a directory for sync.
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(entries)
    }

    /// Warm-starts `cache` from the newest verified generation on disk.
    /// The strict wholesale loader guarantees a torn or tampered file
    /// contributes nothing, so falling back is always safe. Never
    /// panics, never partially loads.
    pub fn recover(&self, cache: &ShardedVerdictCache) -> Recovery {
        // Chaos site: Error / Corrupt make the head unreadable for this
        // recovery (as if the read itself failed), driving the fallback.
        let head_blocked = !matches!(failpoint::hit("service.snapshot.load"), Action::Proceed);
        if !head_blocked {
            if let Ok(text) = fs::read_to_string(self.head()) {
                if let Ok(n) = load_snapshot(cache, &text) {
                    return Recovery::Head(n);
                }
            }
        }
        if let Ok(text) = fs::read_to_string(self.prev()) {
            if let Ok(n) = load_snapshot(cache, &text) {
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                return Recovery::Fallback(n);
            }
        }
        Recovery::Cold
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            saves: self.saves.load(Ordering::Relaxed),
            failed_saves: self.failed_saves.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{InspectorKind, VerdictKey};
    use std::sync::{PoisonError, RwLock, RwLockReadGuard};
    use subsub_rtcheck::{Provenance, ValidatedIndexArray};

    /// Failpoints arm process-wide and the test harness runs these tests
    /// on parallel threads: the one test that injects faults into the
    /// save path holds this exclusively, the ones that expect their own
    /// saves and loads to go through hold it shared.
    static FAULTS: RwLock<()> = RwLock::new(());

    fn no_faults() -> RwLockReadGuard<'static, ()> {
        FAULTS.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("subsub-store-{tag}-{}-{n}", std::process::id()))
    }

    /// A cache holding `gen` distinguishable entries (different lengths
    /// per generation, so the loaded entry count identifies which
    /// generation recovery found).
    fn cache_with(entries: usize) -> ShardedVerdictCache {
        let cache = ShardedVerdictCache::new(4, 64);
        for i in 0..entries {
            let data: Vec<usize> = (0..8 + i).collect();
            let arr = ValidatedIndexArray::ingest(
                format!("a{i}"),
                data,
                usize::MAX,
                Provenance::Generated { seed: i as u64 },
            )
            .expect("ramp in domain");
            let key = VerdictKey::of(&arr, InspectorKind::Monotone);
            cache.get_or_compute(key, || arr.summary_verdict());
        }
        cache
    }

    #[test]
    fn save_load_round_trips_and_keeps_a_fallback_generation() {
        let _quiet = no_faults();
        let dir = scratch_dir("roundtrip");
        let store = SnapshotStore::open(&dir).expect("open");
        store.save(&cache_with(3)).expect("first save");
        store.save(&cache_with(5)).expect("second save");
        assert!(dir.join(HEAD_FILE).exists());
        assert!(dir.join(PREV_FILE).exists());
        let fresh = ShardedVerdictCache::new(4, 64);
        assert_eq!(store.recover(&fresh), Recovery::Head(5));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_head_at_every_boundary_falls_back_or_rebuilds_cold() {
        let _quiet = no_faults();
        let dir = scratch_dir("torn");
        let store = SnapshotStore::open(&dir).expect("open");
        store.save(&cache_with(3)).expect("gen 1");
        store.save(&cache_with(5)).expect("gen 2");
        let good_head = fs::read_to_string(dir.join(HEAD_FILE)).expect("head");
        // Truncate the head at every 16-byte boundary (and 1-byte
        // edges). A cut that damages the document must fall back to the
        // previous generation — never a partial head, never a panic. A
        // cut past the meaningful content (trailing whitespace) still
        // parses whole and may load as the head; that is equally safe.
        let mut cuts: Vec<usize> = (0..good_head.len()).step_by(16).collect();
        cuts.extend([1, good_head.len().saturating_sub(1)]);
        for cut in cuts {
            let torn = &good_head[..cut];
            fs::write(dir.join(HEAD_FILE), torn).expect("torn write");
            let fresh = ShardedVerdictCache::new(4, 64);
            let got = store.recover(&fresh);
            if parse_snapshot(torn).is_ok() {
                assert_eq!(got, Recovery::Head(5), "benign cut at {cut}");
                assert_eq!(fresh.stats().entries, 5, "whole load at {cut}");
            } else {
                assert_eq!(
                    got,
                    Recovery::Fallback(3),
                    "cut at {cut} must fall back to the previous generation"
                );
                assert_eq!(fresh.stats().entries, 3, "no partial load at {cut}");
            }
        }
        // Single-byte corruption anywhere in the body: same guarantee.
        let mid = good_head.len() / 2;
        let mut flipped = good_head.clone().into_bytes();
        flipped[mid] ^= 0x01;
        fs::write(dir.join(HEAD_FILE), &flipped).expect("flip write");
        let fresh = ShardedVerdictCache::new(4, 64);
        assert_eq!(store.recover(&fresh), Recovery::Fallback(3));
        // Both generations torn: cold, still no panic.
        fs::write(dir.join(HEAD_FILE), "garbage").expect("head garbage");
        fs::write(dir.join(PREV_FILE), "garbage").expect("prev garbage");
        let fresh = ShardedVerdictCache::new(4, 64);
        assert_eq!(store.recover(&fresh), Recovery::Cold);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_head_never_evicts_the_good_previous_generation_on_save() {
        let _quiet = no_faults();
        let dir = scratch_dir("rotate");
        let store = SnapshotStore::open(&dir).expect("open");
        store.save(&cache_with(3)).expect("gen 1");
        store.save(&cache_with(5)).expect("gen 2"); // prev = gen 1
                                                    // Tear the head, then save again: the torn head must be
                                                    // discarded, not promoted over the good prev.
        let head = fs::read_to_string(dir.join(HEAD_FILE)).expect("head");
        fs::write(dir.join(HEAD_FILE), &head[..head.len() / 2]).expect("tear");
        store.save(&cache_with(7)).expect("gen 3");
        let prev_text = fs::read_to_string(dir.join(PREV_FILE)).expect("prev");
        assert_eq!(
            parse_snapshot(&prev_text).map(|v| v.len()),
            Ok(3),
            "prev must still be the last good generation"
        );
        let fresh = ShardedVerdictCache::new(4, 64);
        assert_eq!(store.recover(&fresh), Recovery::Head(7));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_contents_recover_cold() {
        let _quiet = no_faults();
        let dir = scratch_dir("cold");
        let store = SnapshotStore::open(&dir).expect("open");
        let fresh = ShardedVerdictCache::new(2, 16);
        assert_eq!(store.recover(&fresh), Recovery::Cold);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_abort_saves_without_losing_generations() {
        use subsub_failpoint::{arm, Arm, FailPlan, Fire};
        let _alone = FAULTS.write().unwrap_or_else(PoisonError::into_inner);
        let dir = scratch_dir("inject");
        let store = SnapshotStore::open(&dir).expect("open");
        store.save(&cache_with(3)).expect("gen 1");
        store.save(&cache_with(5)).expect("gen 2");
        // Injected truncation: the save "lands" but the head is torn.
        {
            let plan = FailPlan::new().with("service.snapshot.save", Arm::Corrupt, Fire::always());
            let _armed = arm(plan);
            let _ = store.save(&cache_with(9));
        }
        let fresh = ShardedVerdictCache::new(4, 64);
        let r = store.recover(&fresh);
        assert!(
            matches!(r, Recovery::Fallback(5) | Recovery::Head(5)),
            "recovery after torn save must find generation 2, got {r:?}"
        );
        // Injected crash between the rotation renames: head gone.
        {
            let plan =
                FailPlan::new().with("service.snapshot.rotate", Arm::Corrupt, Fire::always());
            let _armed = arm(plan);
            assert!(store.save(&cache_with(9)).is_err());
        }
        let fresh = ShardedVerdictCache::new(4, 64);
        let r = store.recover(&fresh);
        assert!(
            matches!(r, Recovery::Fallback(n) | Recovery::Head(n) if n > 0),
            "a good generation must survive a mid-rotation crash, got {r:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
