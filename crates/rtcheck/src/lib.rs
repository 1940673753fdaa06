//! Executable runtime checks and index-array inspection — the execution
//! side of the paper's "runtime verification" story.
//!
//! The compile-time analysis (subsub-core) sometimes parallelizes a loop
//! *conditionally*: the emitted pragma carries a check such as
//! `-1 + num_rownnz <= irownnz_max` comparing a loop bound against a
//! post-loop value that only exists at runtime. This crate makes those
//! checks executable instead of purely textual:
//!
//! * [`CheckExpr`] — a structured IR for runtime checks (comparisons over
//!   symbolic scalar expressions, conjunctions), with canonicalization so
//!   algebraically equal checks compare equal, a pretty-printer matching
//!   the paper's pragma syntax, and a parser for round-tripping.
//! * [`CompiledCheck`] — a compiled predicate: symbols are resolved to
//!   slots once, each comparison is flattened into difference form, and
//!   evaluation against a [`Bindings`] environment is allocation-free.
//! * [`inspect`] — a parallel index-array inspector verifying (strict)
//!   monotonicity of an actual array at runtime when compile-time analysis
//!   is inconclusive: chunked scan on the `omprt` thread pool with
//!   cross-chunk boundary fixup.
//! * [`InspectorCache`] — memoization of inspection verdicts keyed by
//!   array identity and version, so repeated kernel invocations with
//!   unchanged index arrays skip re-inspection in O(1).
//! * [`GuardedExecutor`] — the guarded invocation, in two phases: one
//!   ladder walk (breaker admission → scalar check → per-array verdict)
//!   behind `decide_recoverable`, `decide_ingested` and `decide_with`,
//!   which differ only in where an array's verdict comes from; then
//!   `execute_admitted` runs the [`Decision`] — tamper gate, parallel
//!   attempt, one retry, serial rescue, cancel-checked at every rung —
//!   recording pass/fail/cache-hit counters for observability.
//! * [`ExecError`] + [`Health`] — the degradation policy: every fallback
//!   is a classified error, transient machinery faults get one bounded
//!   retry, and a kernel whose parallel path keeps faulting is pinned to
//!   serial for a cooldown before a half-open re-trial.
//! * [`ValidatedIndexArray`] — the ingestion trust boundary: the one
//!   sanctioned path from raw subscript data into inspection and
//!   dispatch, validating every entry against the target array's domain
//!   and tracking mutations (version + checksum) so out-of-band writers
//!   are caught before the `unsafe` gather/scatter ever sees them.

pub mod bindings;
pub mod block;
pub mod cache;
pub mod compile;
pub mod error;
pub mod expr;
pub mod guard;
pub mod health;
pub mod inspect;
pub mod validate;

pub use bindings::Bindings;
pub use block::{BlockSummaries, BlockSummary, BLOCK_LEN, FINGERPRINT_VERSION};
pub use cache::{CacheStats, InspectorCache, MEMO_CAPACITY};
pub use compile::{CompileError, CompiledCheck, EvalError};
pub use error::{ExecError, Settle};
pub use expr::{parse_check, CheckExpr, CmpOp, ParseError};
pub use guard::{Decision, GuardPath, GuardStats, GuardVerdict, GuardedExecutor};
pub use health::{BreakerState, Health};
pub use inspect::{
    inspect_block_monotone, inspect_monotone, inspect_serial, scan_pairs, try_inspect_monotone,
    IndexArrayView, MonotoneReq, MonotoneVerdict, PairScan, PAR_THRESHOLD,
};
pub use validate::{
    composed_verdict, ComposedVerdict, Provenance, ValidatedIndexArray, ValidationError,
};
