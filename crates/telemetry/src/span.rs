//! RAII span guards and instant-event helpers.
//!
//! [`span`] returns a [`SpanGuard`] that, when telemetry is armed,
//! stamps the start time and on drop records a [`EventKind::Span`]
//! event into the flight recorder plus a duration sample into the
//! (kernel, phase) histogram. When telemetry is disarmed the guard is
//! inert: no clock read, no allocation, no atomic writes — the whole
//! call is one relaxed load and the construction of a `None`.
//!
//! The `_labeled` variants intern a string label (kernel name, array
//! name) to the guard's kernel id; they check [`crate::enabled`]
//! *before* interning, so the disarmed cost stays at one load even
//! though interning takes a short lock.

use crate::event::{Event, EventKind, Phase};
use crate::{enabled, intern, metrics, now_ns, ring};

/// RAII guard for a timed section. Created by [`span`] /
/// [`span_labeled`]; records on drop, and only if telemetry was armed
/// at creation time.
#[must_use = "a span guard measures the scope it is held for"]
pub struct SpanGuard {
    /// `Some((start_ns, phase, kernel))` when armed at creation.
    armed: Option<(u64, Phase, u16)>,
}

impl SpanGuard {
    /// A guard that records nothing (the disarmed fast path).
    pub fn disarmed() -> SpanGuard {
        SpanGuard { armed: None }
    }

    /// Whether this guard will record on drop.
    pub fn is_armed(&self) -> bool {
        self.armed.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((start_ns, phase, kernel)) = self.armed {
            let dur_ns = now_ns().saturating_sub(start_ns);
            metrics::count_kind(EventKind::Span);
            metrics::record_duration(kernel, phase, dur_ns);
            ring::record(Event {
                ts_ns: start_ns,
                dur_ns,
                kind: EventKind::Span,
                phase,
                kernel,
                thread: 0,
                arg: 0,
            });
        }
    }
}

/// Opens a timed span for `phase`, keyed by an already-interned kernel
/// id (0 = unlabelled). Inert when telemetry is disarmed.
#[inline]
pub fn span(phase: Phase, kernel: u16) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disarmed();
    }
    SpanGuard {
        armed: Some((now_ns(), phase, kernel)),
    }
}

/// Opens a timed span labeled by name (interned on the armed path
/// only).
#[inline]
pub fn span_labeled(phase: Phase, label: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disarmed();
    }
    let kernel = intern(label);
    SpanGuard {
        armed: Some((now_ns(), phase, kernel)),
    }
}

/// Records an instant event (counter + flight recorder). Inert when
/// telemetry is disarmed.
#[inline]
pub fn instant(kind: EventKind, phase: Phase, kernel: u16, arg: u64) {
    if !enabled() {
        return;
    }
    metrics::count_kind(kind);
    ring::record(Event {
        ts_ns: now_ns(),
        dur_ns: 0,
        kind,
        phase,
        kernel,
        thread: 0,
        arg,
    });
}

/// Records an instant event labeled by name (interned on the armed
/// path only).
#[inline]
pub fn instant_labeled(kind: EventKind, phase: Phase, label: &str, arg: u64) {
    if !enabled() {
        return;
    }
    let kernel = intern(label);
    metrics::count_kind(kind);
    ring::record(Event {
        ts_ns: now_ns(),
        dur_ns: 0,
        kind,
        phase,
        kernel,
        thread: 0,
        arg,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_guard_records_nothing() {
        // Not armed, and no sibling test can arm while the scope is held:
        // the guard must be inert.
        let _scope = crate::lock(crate::scope());
        let g = span(Phase::Region, 0);
        assert!(!g.is_armed());
        drop(g);
    }

    #[test]
    fn armed_span_lands_in_ring_and_histogram() {
        let t = crate::arm();
        let label_id = intern("span-unit-test");
        let before = metrics::histogram_snapshot(label_id, Phase::KernelRun).count;
        {
            let g = span_labeled(Phase::KernelRun, "span-unit-test");
            assert!(g.is_armed());
            std::hint::black_box(1 + 1);
        }
        let after = metrics::histogram_snapshot(label_id, Phase::KernelRun).count;
        assert_eq!(after, before + 1);
        assert!(t.events().iter().any(|e| e.kind == EventKind::Span
            && e.phase == Phase::KernelRun
            && e.kernel == label_id));
    }
}
