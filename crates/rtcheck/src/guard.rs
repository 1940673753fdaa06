//! Guarded execution: run parallel when the evidence admits it, degrade
//! to serial otherwise — and degrade *gracefully* when the parallel
//! machinery itself faults.
//!
//! A [`GuardedExecutor`] bundles the compiled scalar check emitted by the
//! dependence test with the inspector cache and the kernel's [`Health`]
//! word (its circuit breaker). Per invocation it walks a fixed degradation
//! ladder, in two phases: a decision (rungs 1–3; one walk behind
//! [`GuardedExecutor::decide_recoverable`],
//! [`GuardedExecutor::decide_ingested`] and
//! [`GuardedExecutor::decide_with`], which differ only in where an
//! array's verdict comes from) and its execution (rungs 4–5,
//! [`GuardedExecutor::execute_admitted`]):
//!
//! 1. **breaker** — a kernel with too many recent parallel-path faults
//!    is pinned to serial for a cooldown ([`ExecError::BreakerOpen`]);
//! 2. **scalar check** — evaluated against the kernel's [`Bindings`];
//!    false or unevaluable denies ([`ExecError::CheckFailed`] /
//!    [`ExecError::CheckUnevaluable`]);
//! 3. **inspection** — each declared index array against its required
//!    monotonicity, served from the cache when unchanged. A *faulted*
//!    inspection (worker died, injected panic) is retried once, then
//!    rescued by the infallible serial scan — only a genuine
//!    [`ExecError::NotMonotone`] verdict denies;
//! 4. **tamper gate** — at dispatch, any index array whose write-version
//!    moved since its inspection denies ([`ExecError::TamperDetected`]);
//! 5. **parallel attempt** — a faulting parallel variant gets one retry
//!    after the caller's `recover` hook (transient faults only), then
//!    the invocation finishes on the recovered serial path
//!    ([`ExecError::ParallelFault`]), feeding the breaker.
//!
//! Every decision and recovery action is counted in [`GuardStats`], so a
//! harness can assert that both paths were actually taken, that
//! memoization worked, and that the breaker tripped when it should.

use crate::bindings::Bindings;
use crate::cache::{CacheStats, InspectorCache};
use crate::compile::{CompileError, CompiledCheck};
use crate::error::ExecError;
use crate::expr::CheckExpr;
use crate::health::{BreakerState, Health};
use crate::inspect::{IndexArrayView, MonotoneReq, MonotoneVerdict};
use crate::validate::ValidatedIndexArray;
use std::sync::atomic::{AtomicU64, Ordering};
use subsub_failpoint::{self as failpoint, Action};
use subsub_omprt::{CancelToken, ThreadPool};
use subsub_telemetry as telemetry;
use subsub_telemetry::{breaker_code, verdict_code, EventKind, Phase};

/// Which variant a guarded invocation ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardPath {
    /// All guards passed; the parallel variant ran.
    Parallel,
    /// At least one guard failed; the serial variant ran.
    Serial,
}

/// The decision for one invocation, with the classified reason it fell
/// back (if it did).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardVerdict {
    /// The variant to run.
    pub path: GuardPath,
    /// Why the serial path was chosen, when it was. `None` on the
    /// parallel path.
    pub reason: Option<ExecError>,
}

/// Emits the `guard_verdict` flight-recorder instant for one decision.
fn record_verdict(kernel: &str, verdict: &GuardVerdict) {
    telemetry::instant_labeled(
        EventKind::GuardVerdict,
        Phase::GuardDecide,
        kernel,
        verdict_code(
            verdict.path == GuardPath::Parallel,
            verdict.reason.as_ref().map_or(0, ExecError::reason_class),
        ),
    );
}

/// Emits a `breaker_transition` flight-recorder instant for `kernel`.
fn record_transition(kernel: &str, code: u64) {
    telemetry::instant_labeled(
        EventKind::BreakerTransition,
        Phase::GuardDecide,
        kernel,
        code,
    );
}

impl GuardVerdict {
    fn parallel() -> GuardVerdict {
        GuardVerdict {
            path: GuardPath::Parallel,
            reason: None,
        }
    }

    fn serial(reason: ExecError) -> GuardVerdict {
        GuardVerdict {
            path: GuardPath::Serial,
            reason: Some(reason),
        }
    }
}

/// A phase-1 decision carrying what phase 2
/// ([`GuardedExecutor::execute_admitted`]) needs: the verdict plus the
/// write-versions the inspection evidence was based on, for the
/// dispatch-time tamper gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// The guard verdict (no path counters recorded yet — phase 2 counts
    /// what actually ran).
    pub verdict: GuardVerdict,
    /// `(array name, version)` for every inspected index array, in the
    /// order the arrays were given.
    pub inspected: Vec<(String, u64)>,
}

impl Decision {
    /// A serial decision taken off the ladder, by a caller that knows no
    /// runtime evidence can change it: the analysis kept the loop serial
    /// ([`ExecError::AnalysisSerial`]), or the run is a quarantine probe
    /// ([`ExecError::Serialized`]). No rung is consulted — in particular
    /// the breaker's cooldown does not tick — and the verdict
    /// is recorded like any other; [`GuardedExecutor::execute_admitted`]
    /// then runs, counts and cancel-checks it as it does every serial
    /// decision.
    pub fn serial(kernel: &str, reason: ExecError) -> Decision {
        let verdict = GuardVerdict::serial(reason);
        record_verdict(kernel, &verdict);
        Decision {
            verdict,
            inspected: Vec::new(),
        }
    }
}

/// Cumulative decision counters for one executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardStats {
    /// Invocations dispatched to the parallel variant.
    pub parallel_runs: u64,
    /// Invocations that fell back to serial.
    pub serial_fallbacks: u64,
    /// Scalar check failures among the fallbacks.
    pub check_failures: u64,
    /// Inspection failures (array not monotone enough) among the
    /// fallbacks.
    pub inspection_failures: u64,
    /// Faulted fork-join regions observed (inspection scans and parallel
    /// attempts; includes faults that a retry then recovered).
    pub region_faults: u64,
    /// Bounded retries attempted after a transient fault.
    pub retries: u64,
    /// Retries whose second attempt succeeded.
    pub retry_successes: u64,
    /// Index arrays whose version drifted between inspection and
    /// dispatch (each denied the parallel path).
    pub tamper_detections: u64,
    /// Index arrays rejected at the ingestion trust boundary (failed
    /// re-verification in [`GuardedExecutor::decide_ingested`]).
    pub validation_rejections: u64,
    /// Times a fault opened a kernel's circuit breaker.
    pub breaker_trips: u64,
    /// Invocations denied up front by an open breaker.
    pub breaker_short_circuits: u64,
    /// Invocations abandoned mid-ladder because their cancel token
    /// tripped (expired deadline or abandoned waiter).
    pub cancelled_invocations: u64,
    /// Inspector-cache behaviour (shared across arrays).
    pub cache: CacheStats,
}

/// Runs a kernel under its runtime guards.
#[derive(Debug)]
pub struct GuardedExecutor {
    check: Option<CompiledCheck>,
    cache: InspectorCache,
    health: Health,
    parallel_runs: AtomicU64,
    serial_fallbacks: AtomicU64,
    check_failures: AtomicU64,
    inspection_failures: AtomicU64,
    region_faults: AtomicU64,
    retries: AtomicU64,
    retry_successes: AtomicU64,
    tamper_detections: AtomicU64,
    validation_rejections: AtomicU64,
    breaker_trips: AtomicU64,
    breaker_short_circuits: AtomicU64,
    cancelled_invocations: AtomicU64,
}

impl GuardedExecutor {
    /// Builds an executor for a plan's (optional) scalar check. A plan
    /// without a check admits the parallel path unconditionally — exactly
    /// like a pragma without an `if (...)` clause.
    pub fn new(check: Option<&CheckExpr>) -> Result<GuardedExecutor, CompileError> {
        let compiled = check.map(CompiledCheck::compile).transpose()?;
        Ok(GuardedExecutor {
            check: compiled,
            cache: InspectorCache::new(),
            health: Health::default(),
            parallel_runs: AtomicU64::new(0),
            serial_fallbacks: AtomicU64::new(0),
            check_failures: AtomicU64::new(0),
            inspection_failures: AtomicU64::new(0),
            region_faults: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            retry_successes: AtomicU64::new(0),
            tamper_detections: AtomicU64::new(0),
            validation_rejections: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            breaker_short_circuits: AtomicU64::new(0),
            cancelled_invocations: AtomicU64::new(0),
        })
    }

    /// The kernel's circuit-breaker position: anything but `Closed`
    /// means its invocations are being kept serial.
    pub fn breaker_state(&self) -> BreakerState {
        self.health.state()
    }

    /// Phase 1 over raw [`IndexArrayView`]s: each array's verdict comes
    /// from the executor's own memo ([`InspectorCache`]) — a *faulted*
    /// scan is retried once and then rescued by the infallible serial
    /// scan, so only a genuine verdict ever denies.
    pub fn decide_recoverable(
        &self,
        kernel: &str,
        bindings: &Bindings,
        arrays: &[IndexArrayView<'_>],
        pool: Option<&ThreadPool>,
    ) -> Decision {
        self.decide_with(kernel, bindings, arrays, |i| {
            Ok(self.inspect_with_retry(&arrays[i], pool))
        })
    }

    /// Phase 1 with the caller's own verdict source: `verdict_of(i)`
    /// answers for `arrays[i]` (the service passes
    /// [`GuardedExecutor::verdict_for`] over its ingested copy of each
    /// live view), and an `Err` — the source rejected its evidence —
    /// denies with that reason. Breaker admission and the scalar check
    /// come first, so a denied invocation never consults the source.
    pub fn decide_with(
        &self,
        kernel: &str,
        bindings: &Bindings,
        arrays: &[IndexArrayView<'_>],
        verdict_of: impl FnMut(usize) -> Result<MonotoneVerdict, ExecError>,
    ) -> Decision {
        self.walk(
            kernel,
            bindings,
            arrays.iter().copied(),
            || Ok(()),
            verdict_of,
        )
    }

    /// One ingested array's verdict from this executor's memo, for a
    /// [`GuardedExecutor::decide_with`] source: the array is re-verified
    /// first (a bypassing writer is rejected before its summaries are
    /// consulted), then [`InspectorCache::verdict_ingested`] answers.
    pub fn verdict_for(&self, array: &ValidatedIndexArray) -> Result<MonotoneVerdict, ExecError> {
        array.verify()?;
        Ok(self.cache.verdict_ingested(array))
    }

    /// Phase 1 over *ingested* index arrays: the trust-boundary form of
    /// [`GuardedExecutor::decide_recoverable`]. Before any inspection,
    /// every [`ValidatedIndexArray`] is re-verified (checksum + domain) —
    /// an array a writer mutated without going through the boundary, or
    /// that somehow holds an out-of-domain subscript, denies up front
    /// with [`ExecError::InvalidIndexArray`]. Only arrays that pass are
    /// inspected, so the `unsafe` gather/scatter downstream never
    /// dispatches on unvalidated subscripts.
    ///
    /// Inspection here is served from the arrays' block summaries
    /// (O(blocks) per array, no element rescans, no thread pool): the
    /// `verify()` that just passed recomputed the checksum from raw
    /// data, proving the contents — and therefore the summaries the
    /// boundary keeps in lockstep with them — are exactly the last
    /// validated state, which is the precondition
    /// [`InspectorCache::verdict_ingested`] needs.
    pub fn decide_ingested(
        &self,
        kernel: &str,
        bindings: &Bindings,
        arrays: &[(&ValidatedIndexArray, MonotoneReq)],
        _pool: Option<&ThreadPool>,
    ) -> Decision {
        self.walk(
            kernel,
            bindings,
            arrays.iter().map(|(array, required)| array.view(*required)),
            || {
                arrays
                    .iter()
                    .try_for_each(|(array, _)| array.verify())
                    .map_err(ExecError::from)
            },
            |i| Ok(self.cache.verdict_ingested(arrays[i].0)),
        )
    }

    /// The one ladder walk behind every `decide_*` front: breaker
    /// admission, then `verify` (the ingestion boundary's
    /// re-verification, before any evidence is consulted), the scalar
    /// check, and each array's verdict — from `verdict_of`, the only
    /// thing the fronts differ in — held against what the array is
    /// required to be. The first rung that denies ends the walk, and its
    /// reason is counted once, here. Path counters are *not* recorded —
    /// phase 2 records what actually ran, which can differ (tamper,
    /// faults).
    fn walk<'a>(
        &self,
        kernel: &str,
        bindings: &Bindings,
        arrays: impl ExactSizeIterator<Item = IndexArrayView<'a>>,
        verify: impl FnOnce() -> Result<(), ExecError>,
        verdict_of: impl FnMut(usize) -> Result<MonotoneVerdict, ExecError>,
    ) -> Decision {
        let _decide_span = telemetry::span_labeled(Phase::GuardDecide, kernel);
        let mut inspected = Vec::new();
        let verdict = match self.climb(kernel, bindings, arrays, verify, verdict_of, &mut inspected)
        {
            Ok(()) => GuardVerdict::parallel(),
            Err(reason) => {
                let counter = match reason {
                    ExecError::BreakerOpen { .. } => &self.breaker_short_circuits,
                    ExecError::InvalidIndexArray { .. } => &self.validation_rejections,
                    ExecError::CheckFailed { .. } | ExecError::CheckUnevaluable { .. } => {
                        &self.check_failures
                    }
                    // `NotMonotone`, and whatever else a verdict source
                    // rejects its evidence with.
                    _ => &self.inspection_failures,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                GuardVerdict::serial(reason)
            }
        };
        record_verdict(kernel, &verdict);
        Decision { verdict, inspected }
    }

    /// The rungs of [`GuardedExecutor::walk`], first denial out.
    /// `inspected` ends up holding every array whose verdict was
    /// consulted, the one that denied included.
    fn climb<'a>(
        &self,
        kernel: &str,
        bindings: &Bindings,
        arrays: impl ExactSizeIterator<Item = IndexArrayView<'a>>,
        verify: impl FnOnce() -> Result<(), ExecError>,
        mut verdict_of: impl FnMut(usize) -> Result<MonotoneVerdict, ExecError>,
        inspected: &mut Vec<(String, u64)>,
    ) -> Result<(), ExecError> {
        self.health.admit().map_err(|remaining| {
            if remaining == 0 {
                record_transition(kernel, breaker_code::HALF_OPEN);
            }
            ExecError::BreakerOpen { remaining }
        })?;
        verify()?;
        self.eval_check(bindings)?;
        inspected.reserve(arrays.len());
        for (i, view) in arrays.enumerate() {
            let verdict = verdict_of(i)?;
            inspected.push((view.name.to_string(), view.version));
            if !verdict.satisfies(view.required) {
                return Err(ExecError::NotMonotone {
                    array: view.name.to_string(),
                    required: view.required,
                    first_violation: verdict.first_violation,
                });
            }
        }
        Ok(())
    }

    /// Phase 2: runs the variant phase 1 admitted, surviving parallel
    /// faults. `current_versions` re-reads each index array's
    /// write-version at dispatch time, in the order phase 1 was given the
    /// arrays (tamper gate); `parallel` attempts the parallel variant,
    /// classifying its own faults; `recover` restores kernel state after
    /// a faulted attempt (it runs before any retry and before the serial
    /// rescue); `serial` is the last rung, infallible but for
    /// cancellation.
    ///
    /// `cancel` is a cooperative token checked at every rung boundary:
    /// before the serial-decision short-circuit, before the parallel
    /// attempt, before any retry, and before the serial rescue. A tripped
    /// token abandons the whole invocation with [`ExecError::Cancelled`]
    /// — the serial rung included — so a request whose waiter is gone
    /// stops consuming pool time at the next boundary. `recover` still
    /// runs before the abort, leaving the kernel instance reusable.
    /// Without a token, and with a `parallel` that never reports
    /// `Cancelled` itself, the call does not return `Err`.
    ///
    /// Returns the output plus the classified reason the invocation did
    /// not finish parallel (`None` when it did).
    #[allow(clippy::too_many_arguments)]
    pub fn execute_admitted<T>(
        &self,
        kernel: &str,
        decision: &Decision,
        current_versions: &[u64],
        cancel: Option<&CancelToken>,
        mut parallel: impl FnMut() -> Result<T, ExecError>,
        mut recover: impl FnMut(),
        serial: impl FnOnce() -> T,
    ) -> Result<(T, Option<ExecError>), ExecError> {
        let _dispatch_span = telemetry::span_labeled(Phase::Dispatch, kernel);
        let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
        let abort = || {
            self.cancelled_invocations.fetch_add(1, Ordering::Relaxed);
            ExecError::Cancelled
        };
        if cancelled() {
            return Err(abort());
        }
        if decision.verdict.path == GuardPath::Serial {
            self.serial_fallbacks.fetch_add(1, Ordering::Relaxed);
            return Ok((serial(), decision.verdict.reason.clone()));
        }
        // Tamper gate: the inspection evidence is only as good as the
        // versions it was computed at. Any drift since phase 1 means a
        // concurrent writer touched an index array — deny.
        for (i, (name, at_decision)) in decision.inspected.iter().enumerate() {
            if current_versions.get(i) != Some(at_decision) {
                self.tamper_detections.fetch_add(1, Ordering::Relaxed);
                self.serial_fallbacks.fetch_add(1, Ordering::Relaxed);
                let reason = ExecError::TamperDetected {
                    array: name.clone(),
                };
                return Ok((serial(), Some(reason)));
            }
        }
        // One parallel attempt. `Err` is its fault — or `Cancelled` when
        // the token tripped under it: such a run "succeeded" only by no
        // longer claiming iterations, and its partial output must never
        // surface.
        let mut attempt = || match parallel() {
            Ok(out) if !cancelled() => {
                self.parallel_runs.fetch_add(1, Ordering::Relaxed);
                // Only a position change is a transition worth recording
                // (every clean parallel run lands here).
                if self.health.record_success() {
                    record_transition(kernel, breaker_code::CLOSED);
                }
                Ok(out)
            }
            Ok(_) => Err(ExecError::Cancelled),
            Err(fault) => Err(fault),
        };
        // Chaos site: an Error arm models a fault detected at the
        // dispatch boundary itself (before the kernel runs).
        let mut fault = match failpoint::hit("rtcheck.guard.dispatch") {
            Action::Error | Action::Corrupt => ExecError::ParallelFault {
                detail: "injected dispatch fault".into(),
            },
            Action::Proceed if cancelled() => return Err(abort()),
            Action::Proceed => match attempt() {
                Ok(out) => return Ok((out, None)),
                Err(fault) => fault,
            },
        };
        // Every fault is followed by `recover` — before the abort, the
        // retry and the serial rescue alike — and is read against the
        // one table in `error.rs`.
        let mut retried = false;
        loop {
            recover();
            if fault == ExecError::Cancelled || cancelled() {
                return Err(abort());
            }
            if fault.counts_against_health() {
                self.note_fault(kernel);
            }
            if retried || !fault.transient() {
                break;
            }
            retried = true;
            self.retries.fetch_add(1, Ordering::Relaxed);
            match attempt() {
                Ok(out) => {
                    self.retry_successes.fetch_add(1, Ordering::Relaxed);
                    return Ok((out, None));
                }
                Err(second) => fault = second,
            }
        }
        // Final rung: finish serially on the restored state. The serial
        // variant is the semantics-defining golden path, so the output
        // is bit-identical to a never-parallelized run.
        self.serial_fallbacks.fetch_add(1, Ordering::Relaxed);
        Ok((serial(), Some(fault)))
    }

    fn note_fault(&self, kernel: &str) {
        self.region_faults.fetch_add(1, Ordering::Relaxed);
        if self.health.record_fault() {
            self.breaker_trips.fetch_add(1, Ordering::Relaxed);
            record_transition(kernel, breaker_code::OPEN);
        }
    }

    /// Evaluates the compiled scalar check (if any); `Err` is a denial
    /// with the classified reason.
    fn eval_check(&self, bindings: &Bindings) -> Result<(), ExecError> {
        let Some(check) = self.check.as_ref() else {
            return Ok(());
        };
        // Chaos site: Corrupt flips the evaluation toward the
        // conservative answer (deny); Error makes it unevaluable.
        // Neither can ever admit a run the real check would deny.
        match failpoint::hit("rtcheck.check.eval") {
            Action::Corrupt => {
                return Err(ExecError::CheckFailed {
                    detail: "injected corrupt evaluation (conservative deny)".into(),
                })
            }
            Action::Error => {
                return Err(ExecError::CheckUnevaluable {
                    detail: "injected evaluation fault".into(),
                })
            }
            Action::Proceed => {}
        }
        match check.eval(bindings) {
            Ok(true) => Ok(()),
            Ok(false) => Err(ExecError::CheckFailed {
                detail: "parallelization precondition does not hold".into(),
            }),
            Err(e) => Err(ExecError::CheckUnevaluable {
                detail: e.to_string(),
            }),
        }
    }

    /// The inspection rung of the ladder: cached parallel scan, one
    /// retry on a region fault (inspection is read-only, so a rerun is
    /// always sound), then the infallible serial scan. Always produces a
    /// genuine verdict; faults are counted, never memoized.
    fn inspect_with_retry(
        &self,
        view: &IndexArrayView<'_>,
        pool: Option<&ThreadPool>,
    ) -> MonotoneVerdict {
        match self.cache.try_verdict(view, pool) {
            Ok(v) => v,
            Err(_) => {
                self.region_faults.fetch_add(1, Ordering::Relaxed);
                self.retries.fetch_add(1, Ordering::Relaxed);
                match self.cache.try_verdict(view, pool) {
                    Ok(v) => {
                        self.retry_successes.fetch_add(1, Ordering::Relaxed);
                        v
                    }
                    Err(_) => {
                        self.region_faults.fetch_add(1, Ordering::Relaxed);
                        self.cache.verdict_serial(view)
                    }
                }
            }
        }
    }

    /// Snapshot of the decision counters.
    pub fn stats(&self) -> GuardStats {
        GuardStats {
            parallel_runs: self.parallel_runs.load(Ordering::Relaxed),
            serial_fallbacks: self.serial_fallbacks.load(Ordering::Relaxed),
            check_failures: self.check_failures.load(Ordering::Relaxed),
            inspection_failures: self.inspection_failures.load(Ordering::Relaxed),
            region_faults: self.region_faults.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            retry_successes: self.retry_successes.load(Ordering::Relaxed),
            tamper_detections: self.tamper_detections.load(Ordering::Relaxed),
            validation_rejections: self.validation_rejections.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_short_circuits: self.breaker_short_circuits.load(Ordering::Relaxed),
            cancelled_invocations: self.cancelled_invocations.load(Ordering::Relaxed),
            cache: self.cache.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::parse_check;
    use crate::inspect::MonotoneReq;

    /// One invocation through both phases with stand-in variants: what
    /// ran, and the phase-1 verdict it ran under.
    fn run(
        e: &GuardedExecutor,
        bindings: &Bindings,
        arrays: &[IndexArrayView<'_>],
    ) -> (&'static str, GuardVerdict) {
        let d = e.decide_recoverable("k", bindings, arrays, None);
        let versions: Vec<u64> = arrays.iter().map(|v| v.version).collect();
        let (out, _) = e
            .execute_admitted("k", &d, &versions, None, || Ok("par"), || {}, || "ser")
            .unwrap();
        (out, d.verdict)
    }

    fn amgmk_bindings(num_rownnz: i64, irownnz_max: i64) -> Bindings {
        let mut b = Bindings::new();
        b.set_var("num_rownnz", num_rownnz)
            .set_post_max("irownnz", irownnz_max);
        b
    }

    #[test]
    fn no_check_admits_parallel() {
        let e = GuardedExecutor::new(None).unwrap();
        let (_, v) = run(&e, &Bindings::new(), &[]);
        assert_eq!(v.path, GuardPath::Parallel);
        assert_eq!(e.stats().parallel_runs, 1);
    }

    #[test]
    fn failing_check_falls_back() {
        let c = parse_check("num_rownnz - 1 <= irownnz_max").unwrap();
        let e = GuardedExecutor::new(Some(&c)).unwrap();
        let (_, v) = run(&e, &amgmk_bindings(200, 100), &[]);
        assert_eq!(v.path, GuardPath::Serial);
        assert!(matches!(v.reason, Some(ExecError::CheckFailed { .. })));
        let s = e.stats();
        assert_eq!((s.serial_fallbacks, s.check_failures), (1, 1));
    }

    #[test]
    fn unbound_symbol_falls_back_instead_of_panicking() {
        let c = parse_check("num_rownnz - 1 <= irownnz_max").unwrap();
        let e = GuardedExecutor::new(Some(&c)).unwrap();
        let (_, v) = run(&e, &Bindings::new(), &[]);
        assert_eq!(v.path, GuardPath::Serial);
        assert!(matches!(v.reason, Some(ExecError::CheckUnevaluable { .. })));
        assert!(v.reason.unwrap().to_string().contains("not evaluable"));
    }

    #[test]
    fn overflowing_check_denies_at_guard_level() {
        // a*b wraps past i64::MAX: the hardened evaluator reports
        // Overflow, which the guard classifies as CheckUnevaluable —
        // conservative serial fallback, never a wrongly-admitted
        // parallel run.
        let c = parse_check("a*b <= c").unwrap();
        let e = GuardedExecutor::new(Some(&c)).unwrap();
        let mut b = Bindings::new();
        b.set_var("a", 3_037_000_500)
            .set_var("b", 3_037_000_500)
            .set_var("c", 0);
        let (_, v) = run(&e, &b, &[]);
        assert_eq!(v.path, GuardPath::Serial);
        match v.reason {
            Some(ExecError::CheckUnevaluable { detail }) => {
                assert!(detail.contains("overflow"), "{detail}");
            }
            other => panic!("wrong reason: {other:?}"),
        }
        assert_eq!(e.stats().check_failures, 1);
    }

    #[test]
    fn ingested_arrays_admit_through_the_boundary() {
        let e = GuardedExecutor::new(None).unwrap();
        let a = ValidatedIndexArray::ingest(
            "b",
            vec![0, 1, 2, 3],
            10,
            crate::validate::Provenance::Untrusted {
                source: "test".into(),
            },
        )
        .unwrap();
        let d = e.decide_ingested("k", &Bindings::new(), &[(&a, MonotoneReq::Strict)], None);
        assert_eq!(d.verdict.path, GuardPath::Parallel);
        assert_eq!(d.inspected, vec![("b".to_string(), 0)]);
        assert_eq!(e.stats().validation_rejections, 0);
    }

    #[test]
    fn a_new_array_in_a_reused_buffer_is_inspected_afresh() {
        // Name, address, length and version (0) all equal the first
        // array's; only the content differs. The memo must not answer
        // for the second array with the first one's verdict.
        let e = GuardedExecutor::new(None).unwrap();
        let provenance = || crate::validate::Provenance::Untrusted {
            source: "test".into(),
        };
        let n = 3 * crate::block::BLOCK_LEN / 2;
        let mut first =
            ValidatedIndexArray::ingest("idx", (0..n).collect(), n, provenance()).unwrap();
        let req = MonotoneReq::Strict;
        let d = e.decide_ingested("k", &Bindings::new(), &[(&first, req)], None);
        assert_eq!(d.verdict.path, GuardPath::Parallel);
        // Take the buffer out of the first array, drop the array, write
        // a non-monotone array of the same length into the same
        // allocation and ingest that under the same name.
        let mut buffer = Vec::new();
        first.mutate(|data| buffer = std::mem::take(data)).unwrap();
        drop(first);
        let address = buffer.as_ptr();
        buffer[n - 7] = 0;
        let second = ValidatedIndexArray::ingest("idx", buffer, n, provenance()).unwrap();
        assert_eq!(
            (second.data().as_ptr(), second.len(), second.version()),
            (address, n, 0)
        );
        let d = e.decide_ingested("k", &Bindings::new(), &[(&second, req)], None);
        assert_eq!(d.verdict.path, GuardPath::Serial);
        assert_eq!(
            d.verdict.reason,
            Some(ExecError::NotMonotone {
                array: "idx".into(),
                required: req,
                first_violation: Some(n - 7),
            })
        );
        // Equal content is one entry, wherever it lives and whatever it
        // is called.
        let twin =
            ValidatedIndexArray::ingest("other", second.data().to_vec(), n, provenance()).unwrap();
        let hits = e.stats().cache.hits;
        let d = e.decide_ingested("k", &Bindings::new(), &[(&twin, req)], None);
        assert_eq!(d.verdict.path, GuardPath::Serial);
        assert_eq!(e.stats().cache.hits, hits + 1);
    }

    #[test]
    fn bypassing_writer_denies_before_inspection() {
        let e = GuardedExecutor::new(None).unwrap();
        let mut a = ValidatedIndexArray::ingest(
            "b",
            vec![0, 1, 2, 3],
            10,
            crate::validate::Provenance::Untrusted {
                source: "test".into(),
            },
        )
        .unwrap();
        // A hostile writer mutates the data without announcing it: the
        // contents are still in domain (and still monotone), but the
        // checksum no longer matches the validated state.
        a.bypass_validation_mut()[1] = 2;
        let d = e.decide_ingested("k", &Bindings::new(), &[(&a, MonotoneReq::NonStrict)], None);
        assert_eq!(d.verdict.path, GuardPath::Serial);
        match d.verdict.reason {
            Some(ExecError::InvalidIndexArray { array, detail }) => {
                assert_eq!(array, "b");
                assert!(detail.contains("checksum"), "{detail}");
            }
            other => panic!("wrong reason: {other:?}"),
        }
        assert!(d.inspected.is_empty(), "rejected before inspection");
        assert_eq!(e.stats().validation_rejections, 1);
    }

    #[test]
    fn failing_inspection_falls_back_with_location() {
        let e = GuardedExecutor::new(None).unwrap();
        let data = vec![0usize, 5, 3];
        let view = IndexArrayView {
            name: "b",
            data: &data,
            version: 0,
            required: MonotoneReq::NonStrict,
        };
        let (_, v) = run(&e, &Bindings::new(), &[view]);
        assert_eq!(v.path, GuardPath::Serial);
        match v.reason {
            Some(ExecError::NotMonotone {
                first_violation, ..
            }) => assert_eq!(first_violation, Some(2)),
            other => panic!("wrong reason: {other:?}"),
        }
        assert_eq!(e.stats().inspection_failures, 1);
    }

    #[test]
    fn run_dispatches_and_cache_hits_accumulate() {
        let c = parse_check("num_rownnz - 1 <= irownnz_max").unwrap();
        let e = GuardedExecutor::new(Some(&c)).unwrap();
        let data = vec![0usize, 1, 2, 3];
        let view = IndexArrayView {
            name: "b",
            data: &data,
            version: 0,
            required: MonotoneReq::Strict,
        };
        let b = amgmk_bindings(4, 4);
        let (out, v) = run(&e, &b, &[view]);
        assert_eq!((out, v.path), ("par", GuardPath::Parallel));
        let (out, _) = run(&e, &b, &[view]);
        assert_eq!(out, "par");
        let s = e.stats();
        assert_eq!(s.parallel_runs, 2);
        assert!(s.cache.hits >= 1, "second run must be served from cache");
    }

    #[test]
    fn strict_requirement_rejects_plateau() {
        let e = GuardedExecutor::new(None).unwrap();
        let data = vec![0usize, 1, 1, 2];
        let strict = IndexArrayView {
            name: "b",
            data: &data,
            version: 0,
            required: MonotoneReq::Strict,
        };
        assert_eq!(
            run(&e, &Bindings::new(), &[strict]).1.path,
            GuardPath::Serial
        );
        let nonstrict = IndexArrayView {
            required: MonotoneReq::NonStrict,
            ..strict
        };
        assert_eq!(
            run(&e, &Bindings::new(), &[nonstrict]).1.path,
            GuardPath::Parallel
        );
    }

    #[test]
    fn two_phase_happy_path_runs_parallel_once() {
        let e = GuardedExecutor::new(None).unwrap();
        let data = vec![0usize, 1, 2, 3];
        let view = IndexArrayView {
            name: "b",
            data: &data,
            version: 0,
            required: MonotoneReq::Strict,
        };
        let d = e.decide_recoverable("k", &Bindings::new(), &[view], None);
        assert_eq!(d.verdict.path, GuardPath::Parallel);
        assert_eq!(d.inspected, vec![("b".to_string(), 0)]);
        let (out, reason) = e
            .execute_admitted("k", &d, &[0], None, || Ok("par"), || {}, || "ser")
            .unwrap();
        assert_eq!((out, reason), ("par", None));
        let s = e.stats();
        assert_eq!((s.parallel_runs, s.serial_fallbacks), (1, 0));
    }

    #[test]
    fn version_drift_at_dispatch_is_tamper() {
        let e = GuardedExecutor::new(None).unwrap();
        let data = vec![0usize, 1, 2, 3];
        let view = IndexArrayView {
            name: "b",
            data: &data,
            version: 3,
            required: MonotoneReq::Strict,
        };
        let d = e.decide_recoverable("k", &Bindings::new(), &[view], None);
        assert_eq!(d.verdict.path, GuardPath::Parallel);
        // A writer bumped the version between phases.
        let (out, reason) = e
            .execute_admitted("k", &d, &[4], None, || Ok("par"), || {}, || "ser")
            .unwrap();
        assert_eq!(out, "ser");
        assert_eq!(
            reason,
            Some(ExecError::TamperDetected { array: "b".into() })
        );
        let s = e.stats();
        assert_eq!((s.tamper_detections, s.serial_fallbacks), (1, 1));
        assert_eq!(s.parallel_runs, 0, "parallel must not have run");
    }

    #[test]
    fn transient_fault_retries_once_then_falls_back() {
        let e = GuardedExecutor::new(None).unwrap();
        let d = e.decide_recoverable("k", &Bindings::new(), &[], None);
        let recovered = AtomicU64::new(0);
        let (out, reason) = e
            .execute_admitted(
                "k",
                &d,
                &[],
                None,
                || {
                    Err::<&str, _>(ExecError::ParallelFault {
                        detail: "worker died".into(),
                    })
                },
                || {
                    recovered.fetch_add(1, Ordering::Relaxed);
                },
                || "ser",
            )
            .unwrap();
        assert_eq!(out, "ser");
        assert!(matches!(reason, Some(ExecError::ParallelFault { .. })));
        assert_eq!(
            recovered.load(Ordering::Relaxed),
            2,
            "recover before the retry and before the serial rescue"
        );
        let s = e.stats();
        assert_eq!(s.retries, 1);
        assert_eq!(s.retry_successes, 0);
        assert_eq!(s.region_faults, 2);
        assert_eq!(s.serial_fallbacks, 1);
    }

    #[test]
    fn retry_can_rescue_the_parallel_path() {
        let e = GuardedExecutor::new(None).unwrap();
        let d = e.decide_recoverable("k", &Bindings::new(), &[], None);
        let attempts = AtomicU64::new(0);
        let (out, reason) = e
            .execute_admitted(
                "k",
                &d,
                &[],
                None,
                || {
                    if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                        Err(ExecError::ParallelFault {
                            detail: "transient".into(),
                        })
                    } else {
                        Ok("par")
                    }
                },
                || {},
                || "ser",
            )
            .unwrap();
        assert_eq!((out, reason), ("par", None));
        let s = e.stats();
        assert_eq!((s.retries, s.retry_successes, s.parallel_runs), (1, 1, 1));
    }

    #[test]
    fn breaker_pins_to_serial_and_readmits_after_cooldown() {
        let e = GuardedExecutor::new(None).unwrap();
        let faulty = || {
            Err::<&str, _>(ExecError::ParallelFault {
                detail: "boom".into(),
            })
        };
        // One faulting invocation = first attempt + failed retry = 2
        // consecutive faults; the second invocation's first attempt is
        // the third, and the breaker opens.
        for _ in 0..2 {
            let d = e.decide_recoverable("k", &Bindings::new(), &[], None);
            let _ = e.execute_admitted("k", &d, &[], None, faulty, || {}, || "ser");
        }
        assert_eq!(e.breaker_state(), BreakerState::Open { remaining: 8 });
        assert_eq!(e.stats().breaker_trips, 1);
        // Cooldown: eight denied admissions, classified as BreakerOpen.
        for _ in 0..8 {
            let d = e.decide_recoverable("k", &Bindings::new(), &[], None);
            assert!(matches!(
                d.verdict.reason,
                Some(ExecError::BreakerOpen { .. })
            ));
            let (out, _) = e
                .execute_admitted("k", &d, &[], None, || Ok("par"), || {}, || "ser")
                .unwrap();
            assert_eq!(out, "ser", "pinned to serial while open");
        }
        assert_eq!(e.stats().breaker_short_circuits, 8);
        // Cooldown spent: the half-open trial is admitted, succeeds, and
        // the breaker closes again.
        let d = e.decide_recoverable("k", &Bindings::new(), &[], None);
        assert_eq!(d.verdict.path, GuardPath::Parallel);
        let (out, reason) = e
            .execute_admitted("k", &d, &[], None, || Ok("par"), || {}, || "ser")
            .unwrap();
        assert_eq!((out, reason), ("par", None));
        assert_eq!(e.breaker_state(), BreakerState::Closed { faults: 0 });
    }
}
