//! The event taxonomy and its packed wire encoding.
//!
//! Every observable moment in the runtime is one [`Event`]: an instant
//! (a cache hit, a breaker transition, a failpoint trip) or a completed
//! span (a fork-join region, an inspector scan). Events are recorded
//! into fixed-capacity per-thread rings ([`crate::ring`]), so the struct
//! packs into four 64-bit words — small enough that a flight recorder
//! holding thousands of them per thread costs well under a megabyte.

/// What happened. Instants record a point in time; [`EventKind::Span`]
/// records a completed interval (`ts_ns` is the start, `dur_ns` the
/// length) whose meaning is carried by the [`Phase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A fork-join region opened (`arg` = team size).
    RegionFork = 0,
    /// A fork-join region's join completed (`arg` = reclaimed tids).
    RegionJoin = 1,
    /// A team member claimed a tid / batch (`arg` = the claimed tid).
    ClaimBatch = 2,
    /// Inspector cache answered without re-inspection.
    CacheHit = 3,
    /// Inspector cache had no usable entry (`arg` = array length).
    CacheMiss = 4,
    /// Inspector cache entry invalidated by a version bump.
    CacheInvalidate = 5,
    /// A guard decision was reached (`arg` = [`verdict_code`] value).
    GuardVerdict = 6,
    /// A circuit breaker changed position (`arg` = [`breaker_code`]).
    BreakerTransition = 7,
    /// An armed failpoint fired (`arg` = interned site label).
    FailpointTrip = 8,
    /// A completed span; see [`Phase`] for what was timed.
    Span = 9,
    /// The join watchdog ran a recovery scan (`arg` = tids reclaimed).
    WatchdogScan = 10,
    /// A verdict-cache entry was evicted under capacity pressure
    /// (`arg` = evicted array length).
    CacheEvict = 11,
    /// The analysis service admitted a request (`arg` = queue depth at
    /// admission).
    ServiceAdmit = 12,
    /// The analysis service shed a request (`arg` = shed-reason code:
    /// 1 = queue full, 2 = fairness cap, 3 = degraded, 4 = shutdown,
    /// 5 = quarantined, 6 = over budget).
    ServiceShed = 13,
    /// A request's lifetime budget ran out before a response was
    /// delivered (`arg` = 1 deadline expired, 2 waiter abandoned).
    RequestExpired = 14,
    /// The poison-quarantine ladder moved (`arg` = 1 strike recorded,
    /// 2 identity quarantined, 3 probe admitted, 4 released clean).
    Quarantine = 15,
    // 16 is retired (`snapshot_save`): `subsub-telemetry/v1` documents
    // do not renumber.
    /// The C frontend rejected a request's source (`arg` = the numeric
    /// `DiagCode` of the diagnostic, 0 for a lowering rejection). The
    /// client's own bad input — distinct from worker faults.
    FrontendReject = 17,
}

/// Number of event kinds.
pub const NUM_KINDS: usize = 17;
/// One past the highest kind code (sizing for per-kind counters).
pub const KIND_CODES: usize = 18;

impl EventKind {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::RegionFork => "region_fork",
            EventKind::RegionJoin => "region_join",
            EventKind::ClaimBatch => "claim_batch",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheMiss => "cache_miss",
            EventKind::CacheInvalidate => "cache_invalidate",
            EventKind::GuardVerdict => "guard_verdict",
            EventKind::BreakerTransition => "breaker_transition",
            EventKind::FailpointTrip => "failpoint_trip",
            EventKind::Span => "span",
            EventKind::WatchdogScan => "watchdog_scan",
            EventKind::CacheEvict => "cache_evict",
            EventKind::ServiceAdmit => "service_admit",
            EventKind::ServiceShed => "service_shed",
            EventKind::RequestExpired => "request_expired",
            EventKind::Quarantine => "quarantine",
            EventKind::FrontendReject => "frontend_reject",
        }
    }

    /// All kinds, in discriminant order.
    pub fn all() -> [EventKind; NUM_KINDS] {
        [
            EventKind::RegionFork,
            EventKind::RegionJoin,
            EventKind::ClaimBatch,
            EventKind::CacheHit,
            EventKind::CacheMiss,
            EventKind::CacheInvalidate,
            EventKind::GuardVerdict,
            EventKind::BreakerTransition,
            EventKind::FailpointTrip,
            EventKind::Span,
            EventKind::WatchdogScan,
            EventKind::CacheEvict,
            EventKind::ServiceAdmit,
            EventKind::ServiceShed,
            EventKind::RequestExpired,
            EventKind::Quarantine,
            EventKind::FrontendReject,
        ]
    }

    fn from_u8(v: u8) -> Option<EventKind> {
        EventKind::all().into_iter().find(|k| *k as u8 == v)
    }
}

/// Which part of the pipeline a span (or histogram sample) belongs to.
/// Histograms are keyed by (kernel, phase), so the phase set is closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Phase {
    /// No particular phase (instants that need none).
    None = 0,
    /// One fork-join region, fork to join, on the coordinator.
    Region = 1,
    /// Tid claiming inside a region.
    Claim = 2,
    /// An index-array monotonicity scan (parallel or serial).
    Inspect = 3,
    /// An inspector-cache lookup (hit or miss, inspection included).
    CacheLookup = 4,
    /// Guard phase 1: breaker admission + check + inspections.
    GuardDecide = 5,
    /// Guard phase 2: tamper gate + variant dispatch + recovery.
    Dispatch = 6,
    /// One kernel variant execution.
    KernelRun = 7,
    /// Calibration / micro-benchmark measurement sections.
    Calibrate = 8,
    /// Time a service request spent queued before a worker picked it up.
    Queue = 9,
    /// One service request, dequeue to response (analysis or guarded
    /// execution, on a service worker).
    Service = 10,
    /// An incremental re-inspection: dirty-block rescan plus summary
    /// recombine after a ranged mutation (O(Δ), vs a full `Inspect`).
    Reinspect = 11,
}

/// Number of phases (sizing for the histogram table).
pub const NUM_PHASES: usize = 12;

impl Phase {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            Phase::None => "none",
            Phase::Region => "region",
            Phase::Claim => "claim",
            Phase::Inspect => "inspect",
            Phase::CacheLookup => "cache_lookup",
            Phase::GuardDecide => "guard_decide",
            Phase::Dispatch => "dispatch",
            Phase::KernelRun => "kernel_run",
            Phase::Calibrate => "calibrate",
            Phase::Queue => "queue",
            Phase::Service => "service",
            Phase::Reinspect => "reinspect",
        }
    }

    /// All phases, in discriminant order.
    pub fn all() -> [Phase; NUM_PHASES] {
        [
            Phase::None,
            Phase::Region,
            Phase::Claim,
            Phase::Inspect,
            Phase::CacheLookup,
            Phase::GuardDecide,
            Phase::Dispatch,
            Phase::KernelRun,
            Phase::Calibrate,
            Phase::Queue,
            Phase::Service,
            Phase::Reinspect,
        ]
    }

    fn from_u8(v: u8) -> Option<Phase> {
        Phase::all().into_iter().find(|p| *p as u8 == v)
    }
}

/// `arg` encoding for [`EventKind::GuardVerdict`]: 0 = parallel
/// admitted, nonzero = serial with a coarse reason class.
pub fn verdict_code(parallel: bool, reason_class: u8) -> u64 {
    if parallel {
        0
    } else {
        u64::from(reason_class.max(1))
    }
}

/// `arg` encoding for [`EventKind::BreakerTransition`].
pub mod breaker_code {
    /// Breaker closed (parallel admitted again).
    pub const CLOSED: u64 = 0;
    /// Breaker opened after repeated faults.
    pub const OPEN: u64 = 1;
    /// Breaker armed a half-open trial.
    pub const HALF_OPEN: u64 = 2;
}

/// One recorded telemetry event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the recorder epoch. For spans: the start.
    pub ts_ns: u64,
    /// Span length in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Pipeline phase (meaningful for spans; `None` for most instants).
    pub phase: Phase,
    /// Interned label id (kernel or array name; 0 = unlabelled).
    pub kernel: u16,
    /// Recorder thread slot the event was written from.
    pub thread: u32,
    /// Kind-specific payload (see each [`EventKind`] variant).
    pub arg: u64,
}

impl Event {
    /// Packs the event into its four-word ring representation.
    pub fn encode(&self) -> [u64; 4] {
        let meta = (u64::from(self.kind as u8) << 56)
            | (u64::from(self.phase as u8) << 48)
            | (u64::from(self.kernel) << 32)
            | u64::from(self.thread);
        [self.ts_ns, self.dur_ns, meta, self.arg]
    }

    /// Unpacks a four-word ring slot; `None` if the kind or phase byte
    /// is not a valid discriminant (a torn or never-written slot).
    pub fn decode(w: [u64; 4]) -> Option<Event> {
        let kind = EventKind::from_u8((w[2] >> 56) as u8)?;
        let phase = Phase::from_u8(((w[2] >> 48) & 0xFF) as u8)?;
        Some(Event {
            ts_ns: w[0],
            dur_ns: w[1],
            kind,
            phase,
            kernel: ((w[2] >> 32) & 0xFFFF) as u16,
            thread: (w[2] & 0xFFFF_FFFF) as u32,
            arg: w[3],
        })
    }

    /// End timestamp (`ts_ns + dur_ns`, saturating).
    pub fn end_ns(&self) -> u64 {
        self.ts_ns.saturating_add(self.dur_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips() {
        let e = Event {
            ts_ns: 123_456_789,
            dur_ns: 42,
            kind: EventKind::GuardVerdict,
            phase: Phase::GuardDecide,
            kernel: 7,
            thread: 3,
            arg: u64::MAX,
        };
        assert_eq!(Event::decode(e.encode()), Some(e));
        for kind in EventKind::all() {
            for phase in Phase::all() {
                let e = Event {
                    ts_ns: 1,
                    dur_ns: 2,
                    kind,
                    phase,
                    kernel: u16::MAX,
                    thread: u32::MAX,
                    arg: 9,
                };
                assert_eq!(Event::decode(e.encode()), Some(e));
            }
        }
    }

    #[test]
    fn invalid_discriminants_decode_to_none() {
        assert!(Event::decode([0, 0, 0xFF << 56, 0]).is_none());
        assert!(Event::decode([0, 0, 0xFF << 48, 0]).is_none());
    }

    #[test]
    fn names_are_unique() {
        let kinds: std::collections::BTreeSet<_> =
            EventKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(kinds.len(), NUM_KINDS);
        let phases: std::collections::BTreeSet<_> = Phase::all().iter().map(|p| p.name()).collect();
        assert_eq!(phases.len(), NUM_PHASES);
    }
}
