//! Poison quarantine: strike accounting and probed re-admission for
//! request identities that keep faulting workers.
//!
//! A kernel's health word (`subsub_rtcheck::Health`) protects the pool
//! from a *kernel* whose parallel variant keeps faulting. That is the
//! wrong granularity for a multi-tenant front door: one hostile *input*
//! (a source text that panics the front end, a dataset that trips
//! injected faults on every run) can be resubmitted forever, and each
//! attempt costs a worker a `catch_unwind`, a reset and a serial rerun,
//! and keeps that kernel serial for every other caller.
//!
//! The quarantine keys on the request's *poison key* — a content
//! fingerprint of the payload ([`crate::Payload::poison_key`]) — and
//! walks a strike ladder:
//!
//! 1. Every faulting completion (worker panic, parallel fault or
//!    timeout degradation, terminal failure) records a **strike**;
//!    strikes older than the window are forgotten.
//! 2. K strikes inside the window **quarantine** the identity: new
//!    submissions shed with [`crate::ShedReason::Quarantined`].
//! 3. After an exponential backoff, exactly one **probe** is admitted —
//!    serial-only, single-flight — so the identity can prove itself
//!    without touching the parallel machinery.
//! 4. A clean probe **releases** the identity (strikes cleared); a
//!    faulting probe doubles the backoff (bounded by a cap) and keeps
//!    the gate shut.
//!
//! A probe that never settles (reaped as expired/abandoned) releases
//! its single-flight slot without moving the ladder either way.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};
use subsub_telemetry as telemetry;
use subsub_telemetry::{EventKind, Phase};

/// Tunables for the quarantine ladder.
#[derive(Debug, Clone)]
pub struct QuarantineConfig {
    /// Strikes within [`QuarantineConfig::window`] that quarantine an
    /// identity (the paper-side "K").
    pub strikes: u32,
    /// Sliding window strikes are counted over.
    pub window: Duration,
    /// Backoff before the first probe; doubles per faulting probe.
    pub backoff_base: Duration,
    /// Upper bound on the probe backoff.
    pub backoff_cap: Duration,
}

impl Default for QuarantineConfig {
    fn default() -> QuarantineConfig {
        QuarantineConfig {
            strikes: 3,
            window: Duration::from_secs(10),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(5),
        }
    }
}

/// How admission control should treat a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Identity in good standing: admit normally.
    Normal,
    /// Identity quarantined and due for its probe: admit exactly this
    /// request, serial-only. The caller owns the probe slot and must
    /// settle it via `record_clean` / `record_strike` / `abort_probe`.
    Probe,
    /// Identity quarantined, backoff not elapsed (or a probe is already
    /// in flight): shed.
    Refused,
}

#[derive(Debug)]
struct Quarantined {
    /// Faulting probes so far (backoff exponent).
    level: u32,
    /// Earliest instant the next probe may be admitted.
    next_probe: Instant,
    /// Single-flight: a probe is currently executing.
    probe_inflight: bool,
}

#[derive(Debug, Default)]
struct IdentityState {
    strikes: Vec<Instant>,
    quarantined: Option<Quarantined>,
}

/// Counter snapshot of the ladder's movements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuarantineStats {
    /// Strikes recorded (including ones that quarantined).
    pub strikes: u64,
    /// Identities moved into quarantine.
    pub quarantined: u64,
    /// Probes admitted.
    pub probes: u64,
    /// Identities released after a clean probe.
    pub released: u64,
    /// Submissions refused while quarantined.
    pub refused: u64,
    /// Identities currently quarantined.
    pub active: u64,
}

/// The strike ledger. One per service.
#[derive(Debug)]
pub struct Quarantine {
    cfg: QuarantineConfig,
    state: Mutex<HashMap<u64, IdentityState>>,
    strikes: AtomicU64,
    quarantined: AtomicU64,
    probes: AtomicU64,
    released: AtomicU64,
    refused: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Quarantine {
    /// An empty ledger.
    pub fn new(cfg: QuarantineConfig) -> Quarantine {
        Quarantine {
            cfg,
            state: Mutex::new(HashMap::new()),
            strikes: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            released: AtomicU64::new(0),
            refused: AtomicU64::new(0),
        }
    }

    fn backoff(&self, level: u32) -> Duration {
        let mult = 1u32.checked_shl(level).unwrap_or(u32::MAX);
        self.cfg
            .backoff_base
            .checked_mul(mult)
            .map_or(self.cfg.backoff_cap, |d| d.min(self.cfg.backoff_cap))
    }

    /// Admission decision for one submission of `key` at `now`.
    pub fn admit(&self, key: u64, now: Instant) -> Admission {
        let mut st = lock(&self.state);
        let Some(id) = st.get_mut(&key) else {
            return Admission::Normal;
        };
        let Some(q) = id.quarantined.as_mut() else {
            return Admission::Normal;
        };
        if q.probe_inflight || now < q.next_probe {
            self.refused.fetch_add(1, Ordering::Relaxed);
            return Admission::Refused;
        }
        q.probe_inflight = true;
        self.probes.fetch_add(1, Ordering::Relaxed);
        telemetry::instant(EventKind::Quarantine, Phase::Service, 0, 3);
        Admission::Probe
    }

    /// Records a faulting completion; returns `true` when this strike
    /// (or faulting probe) leaves the identity quarantined.
    pub fn record_strike(&self, key: u64, now: Instant) -> bool {
        self.strikes.fetch_add(1, Ordering::Relaxed);
        telemetry::instant(EventKind::Quarantine, Phase::Service, 0, 1);
        let mut st = lock(&self.state);
        let id = st.entry(key).or_default();
        if let Some(q) = id.quarantined.as_mut() {
            // A faulting probe: shut the gate for twice as long.
            q.probe_inflight = false;
            q.level = q.level.saturating_add(1);
            q.next_probe = now + self.backoff(q.level);
            return true;
        }
        id.strikes.push(now);
        let horizon = now.checked_sub(self.cfg.window);
        id.strikes.retain(|t| horizon.is_none_or(|h| *t >= h));
        if id.strikes.len() >= self.cfg.strikes as usize {
            id.strikes.clear();
            id.quarantined = Some(Quarantined {
                level: 0,
                next_probe: now + self.backoff(0),
                probe_inflight: false,
            });
            self.quarantined.fetch_add(1, Ordering::Relaxed);
            telemetry::instant(EventKind::Quarantine, Phase::Service, 0, 2);
            return true;
        }
        false
    }

    /// Records a clean completion: releases a quarantined identity (the
    /// probe came back clean) and clears accumulated strikes otherwise.
    pub fn record_clean(&self, key: u64) {
        let mut st = lock(&self.state);
        if let Some(id) = st.get(&key) {
            if id.quarantined.is_some() {
                self.released.fetch_add(1, Ordering::Relaxed);
                telemetry::instant(EventKind::Quarantine, Phase::Service, 0, 4);
            }
        }
        // Good standing carries no state worth keeping.
        st.remove(&key);
    }

    /// Releases a probe slot whose request never settled (reaped as
    /// expired or abandoned): the gate reopens at the same backoff
    /// level — the identity proved nothing either way.
    pub fn abort_probe(&self, key: u64) {
        let mut st = lock(&self.state);
        if let Some(q) = st.get_mut(&key).and_then(|id| id.quarantined.as_mut()) {
            q.probe_inflight = false;
        }
    }

    /// Whether `key` is currently quarantined.
    pub fn is_quarantined(&self, key: u64) -> bool {
        lock(&self.state)
            .get(&key)
            .is_some_and(|id| id.quarantined.is_some())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> QuarantineStats {
        let active = lock(&self.state)
            .values()
            .filter(|id| id.quarantined.is_some())
            .count() as u64;
        QuarantineStats {
            strikes: self.strikes.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            released: self.released.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            active,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> QuarantineConfig {
        QuarantineConfig {
            strikes: 3,
            window: Duration::from_secs(10),
            backoff_base: Duration::from_millis(40),
            backoff_cap: Duration::from_millis(200),
        }
    }

    #[test]
    fn k_strikes_quarantine_and_clean_probe_releases() {
        let q = Quarantine::new(cfg());
        let t0 = Instant::now();
        assert!(!q.record_strike(7, t0));
        assert!(!q.record_strike(7, t0));
        assert!(q.record_strike(7, t0), "third strike quarantines");
        assert!(q.is_quarantined(7));
        // Backoff not elapsed: refused.
        assert_eq!(q.admit(7, t0), Admission::Refused);
        // Backoff elapsed: exactly one probe, single-flight.
        let later = t0 + Duration::from_millis(50);
        assert_eq!(q.admit(7, later), Admission::Probe);
        assert_eq!(q.admit(7, later), Admission::Refused);
        q.record_clean(7);
        assert!(!q.is_quarantined(7));
        assert_eq!(q.admit(7, later), Admission::Normal);
        let s = q.stats();
        assert_eq!((s.quarantined, s.probes, s.released), (1, 1, 1));
    }

    #[test]
    fn faulting_probe_doubles_the_backoff() {
        let q = Quarantine::new(cfg());
        let t0 = Instant::now();
        for _ in 0..3 {
            q.record_strike(9, t0);
        }
        let p1 = t0 + Duration::from_millis(41);
        assert_eq!(q.admit(9, p1), Admission::Probe);
        assert!(q.record_strike(9, p1), "faulting probe stays quarantined");
        // Base backoff no longer suffices: level 1 needs 80 ms.
        assert_eq!(
            q.admit(9, p1 + Duration::from_millis(41)),
            Admission::Refused
        );
        assert_eq!(q.admit(9, p1 + Duration::from_millis(81)), Admission::Probe);
    }

    #[test]
    fn backoff_is_capped() {
        let q = Quarantine::new(cfg());
        assert_eq!(q.backoff(0), Duration::from_millis(40));
        assert_eq!(q.backoff(1), Duration::from_millis(80));
        assert_eq!(q.backoff(40), Duration::from_millis(200));
        assert_eq!(q.backoff(u32::MAX), Duration::from_millis(200));
    }

    #[test]
    fn strikes_outside_the_window_are_forgotten() {
        let q = Quarantine::new(QuarantineConfig {
            window: Duration::from_millis(10),
            ..cfg()
        });
        let t0 = Instant::now();
        q.record_strike(3, t0);
        q.record_strike(3, t0);
        // Two stale strikes + one fresh: not enough inside the window.
        assert!(!q.record_strike(3, t0 + Duration::from_millis(50)));
        assert!(!q.is_quarantined(3));
    }

    #[test]
    fn aborted_probe_frees_the_slot_without_moving_the_ladder() {
        let q = Quarantine::new(cfg());
        let t0 = Instant::now();
        for _ in 0..3 {
            q.record_strike(4, t0);
        }
        let p = t0 + Duration::from_millis(50);
        assert_eq!(q.admit(4, p), Admission::Probe);
        q.abort_probe(4);
        assert!(q.is_quarantined(4), "abort does not release");
        // Slot free again at the same backoff level.
        assert_eq!(q.admit(4, p), Admission::Probe);
    }

    #[test]
    fn clean_run_clears_accumulated_strikes() {
        let q = Quarantine::new(cfg());
        let t0 = Instant::now();
        q.record_strike(5, t0);
        q.record_strike(5, t0);
        q.record_clean(5);
        assert!(!q.record_strike(5, t0), "counter restarted");
    }
}
