//! Analysis-as-a-service: the concurrent batch front door over the
//! subscripted-subscript analysis pipeline.
//!
//! The paper's hybrid scheme amortizes runtime inspection across the
//! repeated invocations of *one* program. This crate lifts that
//! amortization across *callers*: a long-lived [`AnalysisService`]
//! accepts many concurrent requests — C source for the front end,
//! pre-lowered IR nests, or guarded kernel executions — multiplexes
//! them over one shared omprt pool through a bounded admission queue,
//! and answers each with a structured [`Response`] (analysis verdict,
//! guard decision, execution result, per-request telemetry summary).
//!
//! The core is the [`ShardedVerdictCache`]: N independently-locked
//! shards of monotonicity verdicts keyed by content checksum +
//! provenance + inspector kind, replacing the per-executor
//! identity-keyed memo for the multi-tenant case. Verdicts persist
//! across restarts via the `subsub-cache/v3` snapshot
//! ([`snapshot`]) — versioned, digest-validated, rejected wholesale on
//! any corruption, and never trusted for dispatch without the
//! executor's write-version tamper gate re-validating the live arrays.
//!
//! Admission control rides the existing resilience machinery: while a
//! kernel's breaker is keeping it serial a half-full queue sheds, a
//! per-client fairness cap keeps one heavy caller from starving the
//! queue, and every accept/shed/hit/miss/evict is
//! telemetry-instrumented.
//!
//! The request lifecycle is hardened end to end (DESIGN.md §8): every
//! request carries an optional deadline enforced server-side through
//! cooperative cancellation ([`lifecycle`]), abandoned tickets reap
//! their jobs and free their fairness slots, payload identities that
//! repeatedly fault workers are quarantined behind a serial
//! probe-with-backoff ladder ([`quarantine`]), and the verdict cache
//! persists crash-consistently through a two-generation atomic-rename
//! snapshot store ([`store`]).

pub mod exec;
pub mod lifecycle;
pub mod quarantine;
pub mod request;
pub mod service;
pub mod shard;
pub mod snapshot;
pub mod store;

pub use exec::{ExecReport, KernelEntry, KernelRegistry, Plan};
pub use lifecycle::{Doom, JobControl};
pub use quarantine::{Admission, Quarantine, QuarantineConfig, QuarantineStats};
pub use request::{
    Outcome, Payload, Request, RequestTelemetry, Response, ServiceError, ShedReason,
    NUM_SHED_REASONS,
};
pub use service::{AnalysisService, ServiceConfig, ServiceStats, Ticket};
pub use shard::{
    CachedVerdict, InspectorKind, Lookup, ShardStats, ShardedVerdictCache, VerdictKey,
};
pub use snapshot::{
    load_snapshot, parse_snapshot, write_snapshot, SnapshotError, SNAPSHOT_VERSION,
};
pub use store::{Recovery, SnapshotStore, StoreError, StoreStats};
