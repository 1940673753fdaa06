//! Guarded execution of a kernel: bridges the analysis decision (variant
//! + runtime check) to the `rtcheck` [`subsub_rtcheck::GuardedExecutor`].
//!
//! Construction runs the real compile-time pipeline once and compiles the
//! plan's check; each [`GuardedHarness::run`] then evaluates the check
//! against the instance's scalar bindings, inspects (or cache-revalidates)
//! its index arrays, and executes the admitted variant. Repeated runs on
//! an unchanged instance are revalidated from the inspector cache in O(1).
//!
//! Both halves are the shared plan-and-dispatch path
//! ([`subsub_service::Plan`]): the harness only says where an index
//! array's verdict comes from — the executor's own memo, over the
//! caller's instance. Execution is fault-tolerant end to end: the
//! two-phase `decide_recoverable` / `execute_admitted` protocol re-checks
//! index array versions at dispatch (tamper gate), catches a panicking or
//! worker-losing parallel variant, resets the kernel instance, retries
//! once, and finishes on the serial golden path when the parallel one
//! cannot be trusted — reporting the classified [`ExecError`] instead of
//! aborting. Repeatedly faulting kernels are pinned to serial by the
//! executor's circuit breaker.

use std::sync::Arc;
use subsub_core::{AlgorithmLevel, CheckExpr};
use subsub_kernels::{Kernel, KernelInstance, Variant};
use subsub_omprt::{CancelToken, Schedule, ThreadPool};
use subsub_rtcheck::{BreakerState, ExecError, GuardPath, GuardStats};
use subsub_service::Plan;

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
    plan: Plan,
}

impl GuardedHarness {
    /// Runs the analysis at `level` and compiles the resulting runtime
    /// check (if any) for the kernel's compute nest.
    pub fn new(kernel: &dyn Kernel, level: AlgorithmLevel) -> GuardedHarness {
        let plan = Plan::new(kernel, level).unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
        GuardedHarness { plan }
    }

    /// The compile-time decision.
    pub fn variant(&self) -> Variant {
        self.plan.variant
    }

    /// The structured check guarding the decision, if any.
    pub fn check(&self) -> Option<&CheckExpr> {
        self.plan.check.as_ref()
    }

    /// Decision counters accumulated across runs.
    pub fn stats(&self) -> GuardStats {
        self.plan.executor.stats()
    }

    /// This kernel's circuit-breaker position.
    pub fn breaker_state(&self) -> BreakerState {
        self.plan.executor.breaker_state()
    }

    /// Runs one invocation of the kernel under the guards, surviving
    /// parallel-path faults (see the module docs for the ladder).
    pub fn run(
        &self,
        inst: &mut dyn KernelInstance,
        pool: &ThreadPool,
        sched: Schedule,
    ) -> GuardedOutcome {
        let (checksum, reason) = self
            .execute(inst, false, pool, sched, None)
            .expect("no cancel token was given");
        let (executed, path) = match reason {
            None => (self.plan.variant, GuardPath::Parallel),
            Some(_) => (Variant::Serial, GuardPath::Serial),
        };
        GuardedOutcome {
            variant: self.plan.variant,
            executed,
            path,
            reason,
            checksum,
        }
    }

    /// The harness front of [`Plan::execute`]: verdicts come from the
    /// executor's own memo, over the caller's instance.
    pub(crate) fn execute(
        &self,
        inst: &mut dyn KernelInstance,
        serialized: bool,
        pool: &ThreadPool,
        sched: Schedule,
        cancel: Option<&Arc<CancelToken>>,
    ) -> Result<(f64, Option<ExecError>), ExecError> {
        let plan = &self.plan;
        plan.execute(
            inst,
            serialized,
            |bindings, arrays| {
                plan.executor
                    .decide_recoverable(&plan.name, bindings, arrays, Some(pool))
            },
            pool,
            sched,
            cancel,
            "bench.kernel.parallel",
        )
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
