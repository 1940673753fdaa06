//! The structured failure taxonomy for guarded execution.
//!
//! Every way a guarded invocation can decline or abandon the parallel
//! path is one [`ExecError`] variant, so callers (and the chaos harness)
//! can branch on the *class* of failure instead of grepping reason
//! strings. The taxonomy also encodes the degradation policy, in one
//! table: which reasons are worth one bounded retry of the parallel path
//! ([`ExecError::transient`]), which count against the kernel's health
//! word, and how a completion that ended serial for that reason settles
//! the identity that submitted it. Everything not retried goes straight
//! down the ladder to serial.

use crate::inspect::MonotoneReq;

/// Why a guarded invocation ran (or finished on) the serial path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The compile-time analysis already decided this variant is serial;
    /// no runtime evidence was consulted.
    AnalysisSerial,
    /// The scalar runtime check evaluated to false: the parallelization
    /// precondition provably does not hold for these inputs.
    CheckFailed {
        /// The pretty-printed check that failed.
        detail: String,
    },
    /// The scalar runtime check could not be evaluated (unbound symbol,
    /// overflow, injected evaluation fault). Conservative deny.
    CheckUnevaluable {
        /// What went wrong during evaluation.
        detail: String,
    },
    /// An inspected index array does not have the monotonicity the
    /// dependence pattern requires.
    NotMonotone {
        /// Array name as declared in the kernel's runtime bindings.
        array: String,
        /// The flavour that was required.
        required: MonotoneReq,
        /// A violating index, when one was recorded.
        first_violation: Option<usize>,
    },
    /// An index array was rejected at the ingestion trust boundary: an
    /// entry fell outside the target array's domain, or the content
    /// checksum no longer matches what was validated (an out-of-band
    /// writer). Dispatching on such an array would be undefined behaviour
    /// behind the `unsafe` gather/scatter, so rejection denies up front.
    InvalidIndexArray {
        /// The offending array.
        array: String,
        /// What the validator found.
        detail: String,
    },
    /// An index array's write-version changed between inspection and
    /// dispatch: the verdict may describe stale contents, so the
    /// invocation is not admitted.
    TamperDetected {
        /// The array whose version drifted.
        array: String,
    },
    /// The parallel variant faulted (job panic, lost worker, injected
    /// fault) and — after any retry — the invocation finished serially.
    ParallelFault {
        /// Rendering of the underlying fault.
        detail: String,
    },
    /// The parallel variant exceeded its deadline and was cancelled.
    Timeout,
    /// The per-kernel circuit breaker is open after repeated
    /// parallel-path faults; the kernel is pinned to serial for the
    /// remainder of the cooldown.
    BreakerOpen {
        /// Breaker-admission denials left before a half-open trial.
        remaining: u32,
    },
    /// The caller ran serial-only and never consulted the guard: a
    /// quarantine probe. Says nothing about the kernel or its data — the
    /// same request may run parallel once the identity is released.
    Serialized,
    /// The invocation's cancel token tripped (the caller's deadline
    /// expired or the waiter abandoned the request) before a result was
    /// produced; whatever partial work ran was discarded. Unlike
    /// [`ExecError::Timeout`] — a *region*-level deadline on the
    /// parallel variant, which still finishes serially — cancellation
    /// abandons the whole invocation, serial rescue included.
    Cancelled,
}

/// How a completion moves the identity that submitted it on a
/// poison-quarantine ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Settle {
    /// A deterministic result: the identity is in good standing.
    Clean,
    /// The identity cost a fault: one strike.
    Strike,
    /// Proves nothing about the identity either way.
    Neutral,
}

impl ExecError {
    /// The one row per reason: its class number, then the fault class →
    /// action table (retried once? counts against the kernel's health?
    /// how does the identity settle?). Faults of the execution machinery
    /// (a died worker, an injected panic) are transient — the
    /// self-healing pool respawns workers, so an immediate second attempt
    /// can succeed — and, like a spent region deadline, count against the
    /// kernel and the identity. A run kept serial by an open breaker, or
    /// cancelled, proves nothing about anyone. Everything rooted in the
    /// *data*, in the analysis, or in a probe's serial-only run is a
    /// deterministic result.
    fn row(&self) -> (u8, bool, bool, Settle) {
        use Settle::{Clean, Neutral, Strike};
        match self {
            ExecError::AnalysisSerial => (1, false, false, Clean),
            ExecError::CheckFailed { .. } => (2, false, false, Clean),
            ExecError::CheckUnevaluable { .. } => (3, false, false, Clean),
            ExecError::NotMonotone { .. } => (4, false, false, Clean),
            ExecError::InvalidIndexArray { .. } => (5, false, false, Clean),
            ExecError::TamperDetected { .. } => (6, false, false, Clean),
            ExecError::ParallelFault { .. } => (7, true, true, Strike),
            ExecError::Timeout => (8, false, true, Strike),
            ExecError::BreakerOpen { .. } => (9, false, false, Neutral),
            ExecError::Cancelled => (10, false, false, Neutral),
            ExecError::Serialized => (11, false, false, Clean),
        }
    }

    /// Whether one bounded retry of the parallel attempt is worthwhile.
    pub fn transient(&self) -> bool {
        self.row().1
    }

    /// Whether it counts against the kernel's health word (and in
    /// `GuardStats::region_faults`).
    pub fn counts_against_health(&self) -> bool {
        self.row().2
    }

    /// How a completion that ended serial for this reason settles.
    pub fn settle(&self) -> Settle {
        self.row().3
    }

    /// Small stable numeric class for telemetry (`guard_verdict` event
    /// payloads): 0 is reserved for "parallel admitted", so every
    /// variant maps to a nonzero code.
    pub fn reason_class(&self) -> u8 {
        self.row().0
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::AnalysisSerial => write!(f, "analysis decision is serial"),
            ExecError::CheckFailed { detail } => {
                write!(f, "runtime check evaluated to false: {detail}")
            }
            ExecError::CheckUnevaluable { detail } => {
                write!(f, "runtime check not evaluable: {detail}")
            }
            ExecError::NotMonotone {
                array,
                required,
                first_violation,
            } => {
                write!(f, "index array {array} is not {required}")?;
                if let Some(i) = first_violation {
                    write!(f, " (first violation at index {i})")?;
                }
                Ok(())
            }
            ExecError::InvalidIndexArray { array, detail } => {
                write!(f, "index array {array} rejected at ingestion: {detail}")
            }
            ExecError::TamperDetected { array } => {
                write!(
                    f,
                    "index array {array} was modified between inspection and dispatch"
                )
            }
            ExecError::ParallelFault { detail } => {
                write!(f, "parallel variant faulted: {detail}")
            }
            ExecError::Timeout => write!(f, "parallel variant exceeded its deadline"),
            ExecError::BreakerOpen { remaining } => {
                write!(
                    f,
                    "circuit breaker open: kernel pinned to serial ({remaining} denials before half-open trial)"
                )
            }
            ExecError::Cancelled => {
                write!(f, "invocation cancelled before a result was produced")
            }
            ExecError::Serialized => {
                write!(f, "quarantine probe: kept serial-only")
            }
        }
    }
}

impl std::error::Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_policy_table_row_by_row() {
        let row = |e: &ExecError| (e.transient(), e.counts_against_health(), e.settle());
        let fault = ExecError::ParallelFault {
            detail: "worker died".into(),
        };
        assert_eq!(row(&fault), (true, true, Settle::Strike));
        assert_eq!(row(&ExecError::Timeout), (false, true, Settle::Strike));
        for e in [
            ExecError::BreakerOpen { remaining: 5 },
            ExecError::Cancelled,
        ] {
            assert_eq!(row(&e), (false, false, Settle::Neutral), "{e}");
        }
        for e in [
            ExecError::AnalysisSerial,
            ExecError::CheckFailed { detail: "c".into() },
            ExecError::CheckUnevaluable { detail: "c".into() },
            ExecError::NotMonotone {
                array: "b".into(),
                required: MonotoneReq::Strict,
                first_violation: Some(3),
            },
            ExecError::InvalidIndexArray {
                array: "b".into(),
                detail: "entry 3 out of domain".into(),
            },
            ExecError::TamperDetected { array: "b".into() },
            ExecError::Serialized,
        ] {
            assert_eq!(row(&e), (false, false, Settle::Clean), "{e}");
        }
    }

    #[test]
    fn display_carries_the_location() {
        let e = ExecError::NotMonotone {
            array: "b".into(),
            required: MonotoneReq::NonStrict,
            first_violation: Some(7),
        };
        let s = e.to_string();
        assert!(
            s.contains("b is not monotone") && s.contains("index 7"),
            "{s}"
        );
    }
}
