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
//! The core is the [`KernelRegistry`]: one [`KernelEntry`] per
//! (kernel, dataset) holding the compiled plan, a pool of prepared
//! instances with ingested copies of their index arrays, and — inside
//! the plan's `GuardedExecutor` — the only verdict memo there is. Every
//! decision re-verifies each copy before its verdict is consulted, and
//! the executor's write-version tamper gate re-validates the live
//! arrays at dispatch. The service has no verdict cache of its own and
//! persists nothing: a verdict is a 3–27 ns recombination of summaries
//! the array already carries (DESIGN.md §6).
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
//! their jobs and free their fairness slots, and payload identities
//! that repeatedly fault workers are quarantined behind a serial
//! probe-with-backoff ladder ([`quarantine`]).

pub mod exec;
pub mod lifecycle;
pub mod quarantine;
pub mod request;
pub mod service;

pub use exec::{KernelEntry, KernelRegistry, Plan};
pub use lifecycle::{Doom, JobControl};
pub use quarantine::{Admission, Quarantine, QuarantineConfig, QuarantineStats};
pub use request::{
    Outcome, Payload, Request, RequestTelemetry, Response, ServiceError, ShedReason,
    NUM_SHED_REASONS,
};
pub use service::{AnalysisService, ServiceConfig, ServiceStats, ShardStats, Ticket};
