//! Guarded execution of a kernel: bridges the analysis decision (variant
//! + runtime check) to the `rtcheck` [`GuardedExecutor`].
//!
//! Construction runs the real compile-time pipeline once and compiles the
//! plan's check; each [`GuardedHarness::run`] then evaluates the check
//! against the instance's scalar bindings, inspects (or cache-revalidates)
//! its index arrays, and executes the admitted variant. Repeated runs on
//! an unchanged instance are revalidated from the inspector cache in O(1).
//!
//! Execution is fault-tolerant end to end: the two-phase
//! `decide_recoverable` / `execute_admitted` protocol re-checks index
//! array versions at dispatch (tamper gate), catches a panicking or
//! worker-losing parallel variant, resets the kernel instance, retries
//! once, and finishes on the serial golden path when the parallel one
//! cannot be trusted — reporting the classified [`ExecError`] instead of
//! aborting. Repeatedly faulting kernels are pinned to serial by the
//! executor's circuit breaker.

use crate::decide::{decision_report, variant_for};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use subsub_core::{AlgorithmLevel, CheckExpr};
use subsub_failpoint as failpoint;
use subsub_kernels::{Kernel, KernelInstance, Variant};
use subsub_omprt::{RegionError, Schedule, ThreadPool};
use subsub_rtcheck::{BreakerState, ExecError, GuardPath, GuardStats, GuardedExecutor};

/// What one guarded invocation did.
#[derive(Debug, Clone)]
pub struct GuardedOutcome {
    /// The variant the compile-time analysis selected.
    pub variant: Variant,
    /// The variant that actually ran (to completion) after the runtime
    /// guards and any fault recovery.
    pub executed: Variant,
    /// Which side of the guard the invocation finished on.
    /// Analysis-serial kernels report [`GuardPath::Serial`].
    pub path: GuardPath,
    /// Why the serial path was taken, when it was — a classified
    /// [`ExecError`], never a free-form string.
    pub reason: Option<ExecError>,
    /// Output checksum of the executed variant.
    pub checksum: f64,
}

/// A kernel's analysis decision bound to a guarded executor.
pub struct GuardedHarness {
    name: String,
    variant: Variant,
    check: Option<CheckExpr>,
    executor: GuardedExecutor,
}

impl GuardedHarness {
    /// Runs the analysis at `level` and compiles the resulting runtime
    /// check (if any) for the kernel's compute nest.
    pub fn new(kernel: &dyn Kernel, level: AlgorithmLevel) -> GuardedHarness {
        let variant = variant_for(kernel, level);
        let report = decision_report(kernel, level);
        let check = report
            .function(kernel.func_name())
            .and_then(|f| f.last_nest_parallel())
            .and_then(|l| l.decision.plan())
            .and_then(|p| p.runtime_check.clone());
        let executor = GuardedExecutor::new(check.as_ref())
            .unwrap_or_else(|e| panic!("{}: check not executable: {e}", kernel.name()));
        GuardedHarness {
            name: kernel.name().to_string(),
            variant,
            check,
            executor,
        }
    }

    /// The compile-time decision.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// The structured check guarding the decision, if any.
    pub fn check(&self) -> Option<&CheckExpr> {
        self.check.as_ref()
    }

    /// Decision counters accumulated across runs.
    pub fn stats(&self) -> GuardStats {
        self.executor.stats()
    }

    /// This kernel's circuit-breaker position.
    pub fn breaker_state(&self) -> BreakerState {
        self.executor.breaker_state(&self.name)
    }

    /// Runs one invocation of the kernel under the guards, surviving
    /// parallel-path faults (see the module docs for the ladder).
    pub fn run(
        &self,
        inst: &mut dyn KernelInstance,
        pool: &ThreadPool,
        sched: Schedule,
    ) -> GuardedOutcome {
        let _kernel_span =
            subsub_telemetry::span_labeled(subsub_telemetry::Phase::KernelRun, &self.name);
        if self.variant == Variant::Serial {
            // Nothing to guard: the analysis itself kept the loop serial.
            inst.run_serial();
            return GuardedOutcome {
                variant: self.variant,
                executed: Variant::Serial,
                path: GuardPath::Serial,
                reason: Some(ExecError::AnalysisSerial),
                checksum: inst.checksum(),
            };
        }
        let bindings = inst.runtime_bindings();
        let decision = {
            let arrays = inst.index_arrays();
            self.executor
                .decide_recoverable(&self.name, &bindings, &arrays, Some(pool))
        };
        // The closures below each need the instance mutably, but only
        // ever one at a time; a RefCell makes that dynamic borrow safe.
        let cell = RefCell::new(inst);
        let versions_owned: Vec<(String, u64)> = cell
            .borrow()
            .index_arrays()
            .iter()
            .map(|v| (v.name.to_string(), v.version))
            .collect();
        let versions: Vec<(&str, u64)> = versions_owned
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .collect();
        let variant = self.variant;
        let (checksum, reason) = self.executor.execute_admitted(
            &self.name,
            &decision,
            &versions,
            || {
                let mut inst = cell.borrow_mut();
                let r = catch_unwind(AssertUnwindSafe(|| {
                    failpoint::hit("bench.kernel.parallel");
                    inst.run(variant, pool, sched);
                }));
                match r {
                    Ok(()) => Ok(inst.checksum_on(Some(pool))),
                    Err(p) => Err(classify_panic(p.as_ref())),
                }
            },
            || {
                // A faulted attempt may have half-written the outputs;
                // reset restores the pristine dataset so the retry (or
                // the serial rescue) starts from known-good state.
                cell.borrow_mut().reset();
            },
            || {
                let mut inst = cell.borrow_mut();
                inst.run_serial();
                inst.checksum()
            },
        );
        let (executed, path) = match reason {
            None => (variant, GuardPath::Parallel),
            Some(_) => (Variant::Serial, GuardPath::Serial),
        };
        GuardedOutcome {
            variant,
            executed,
            path,
            reason,
            checksum,
        }
    }
}

/// Maps a caught panic payload from a parallel kernel run onto the
/// [`ExecError`] taxonomy.
fn classify_panic(p: &(dyn std::any::Any + Send)) -> ExecError {
    if let Some(e) = p.downcast_ref::<RegionError>() {
        return match e {
            RegionError::DeadlineExceeded => ExecError::Timeout,
            other => ExecError::ParallelFault {
                detail: other.to_string(),
            },
        };
    }
    if let Some(inj) = p.downcast_ref::<failpoint::InjectedPanic>() {
        return ExecError::ParallelFault {
            detail: inj.to_string(),
        };
    }
    if let Some(s) = p.downcast_ref::<&str>() {
        return ExecError::ParallelFault {
            detail: (*s).to_string(),
        };
    }
    if let Some(s) = p.downcast_ref::<String>() {
        return ExecError::ParallelFault { detail: s.clone() };
    }
    ExecError::ParallelFault {
        detail: "non-string panic payload".into(),
    }
}

/// One-shot convenience: analyze, prepare a dataset, run once guarded.
pub fn guarded_run(
    kernel: &dyn Kernel,
    dataset: &str,
    level: AlgorithmLevel,
    pool: &ThreadPool,
    sched: Schedule,
) -> GuardedOutcome {
    let harness = GuardedHarness::new(kernel, level);
    let mut inst = kernel.prepare(dataset);
    harness.run(inst.as_mut(), pool, sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsub_kernels::kernel_by_name;

    #[test]
    fn amgmk_guard_admits_parallel() {
        let pool = ThreadPool::new(3);
        let k = kernel_by_name("AMGmk").unwrap();
        let out = guarded_run(
            k.as_ref(),
            "test",
            AlgorithmLevel::New,
            &pool,
            Schedule::static_default(),
        );
        assert_eq!(out.path, GuardPath::Parallel);
        assert_eq!(out.executed, Variant::OuterParallel);
        assert!(out.reason.is_none());
    }

    #[test]
    fn repeated_runs_hit_the_cache() {
        let pool = ThreadPool::new(2);
        let k = kernel_by_name("SDDMM").unwrap();
        let harness = GuardedHarness::new(k.as_ref(), AlgorithmLevel::New);
        assert!(harness.check().is_some());
        let mut inst = k.prepare("test");
        harness.run(inst.as_mut(), &pool, Schedule::dynamic_default());
        inst.reset();
        harness.run(inst.as_mut(), &pool, Schedule::dynamic_default());
        let s = harness.stats();
        assert_eq!(s.parallel_runs, 2);
        assert!(
            s.cache.hits >= 1,
            "second run must revalidate from cache: {s:?}"
        );
    }

    #[test]
    fn serial_analysis_decision_short_circuits() {
        let pool = ThreadPool::new(2);
        // The IS histogram is serial at every level: no guard to consult.
        let is = kernel_by_name("IS").unwrap();
        let harness = GuardedHarness::new(is.as_ref(), AlgorithmLevel::New);
        assert_eq!(harness.variant(), Variant::Serial);
        assert!(harness.check().is_none());
        let mut inst = is.prepare(is.datasets()[0]);
        let out = harness.run(inst.as_mut(), &pool, Schedule::static_default());
        assert_eq!(out.path, GuardPath::Serial);
        assert_eq!(out.reason, Some(ExecError::AnalysisSerial));
    }
}
