//! The structured failure taxonomy for guarded execution.
//!
//! Every way a guarded invocation can decline or abandon the parallel
//! path is one [`ExecError`] variant, so callers (and the chaos harness)
//! can branch on the *class* of failure instead of grepping reason
//! strings. The taxonomy also encodes the degradation policy: only
//! [`ExecError::transient`] failures are worth one bounded retry of the
//! parallel path; everything else goes straight down the ladder to
//! serial.

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
    /// The caller is running serial-only and never consulted the guard:
    /// the service's `Serialized` cooldown after an observed fault, or a
    /// quarantine probe. Says nothing about the kernel or its data — the
    /// same request may run parallel once the caller has recovered.
    Serialized,
    /// The invocation's cancel token tripped (the caller's deadline
    /// expired or the waiter abandoned the request) before a result was
    /// produced; whatever partial work ran was discarded. Unlike
    /// [`ExecError::Timeout`] — a *region*-level deadline on the
    /// parallel variant, which still finishes serially — cancellation
    /// abandons the whole invocation, serial rescue included.
    Cancelled,
}

impl ExecError {
    /// Whether one bounded retry of the faulted operation is worthwhile.
    /// Faults of the execution machinery (a died worker, an injected
    /// panic) are transient — the self-healing pool respawns workers, so
    /// an immediate second attempt can succeed. Everything rooted in the
    /// *data* (failed check, non-monotone array, tampered version) or in
    /// policy (open breaker, spent deadline, a serialized caller) is not
    /// retryable.
    pub fn transient(&self) -> bool {
        matches!(self, ExecError::ParallelFault { .. })
    }

    /// Small stable numeric class for telemetry (`guard_verdict` event
    /// payloads): 0 is reserved for "parallel admitted", so every
    /// variant maps to a nonzero code.
    pub fn reason_class(&self) -> u8 {
        match self {
            ExecError::AnalysisSerial => 1,
            ExecError::CheckFailed { .. } => 2,
            ExecError::CheckUnevaluable { .. } => 3,
            ExecError::NotMonotone { .. } => 4,
            ExecError::InvalidIndexArray { .. } => 5,
            ExecError::TamperDetected { .. } => 6,
            ExecError::ParallelFault { .. } => 7,
            ExecError::Timeout => 8,
            ExecError::BreakerOpen { .. } => 9,
            ExecError::Cancelled => 10,
            ExecError::Serialized => 11,
        }
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
                write!(f, "caller is degraded and running serial-only")
            }
        }
    }
}

impl std::error::Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_machinery_faults_are_transient() {
        assert!(ExecError::ParallelFault {
            detail: "worker died".into()
        }
        .transient());
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
            ExecError::Timeout,
            ExecError::BreakerOpen { remaining: 5 },
            ExecError::Cancelled,
            ExecError::Serialized,
        ] {
            assert!(!e.transient(), "{e}");
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
