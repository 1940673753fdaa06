//! The one guarded kernel dispatch: phase 2 of a guarded invocation
//! ([`GuardedExecutor::execute_admitted`]) bound to a [`KernelInstance`].
//!
//! Every caller that holds a [`Decision`] for a kernel instance — the
//! service's `KernelEntry`, the bench `GuardedHarness`, the differential
//! oracle — runs it through [`dispatch`], so what a guarded run *is* is
//! stated once: the live write-versions re-read for the tamper gate, the
//! parallel attempt under `catch_unwind` with its panics classified into
//! the [`ExecError`] taxonomy, the job's cancel token made ambient for
//! every region the kernel opens, the pooled digest after a parallel
//! run, `reset()` as the recovery hook, and the serial golden run with
//! an inline digest as the last rung.

use crate::{KernelInstance, Variant};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use subsub_failpoint as failpoint;
use subsub_omprt::{cancel::with_ambient_cancel, CancelToken, RegionError, Schedule, ThreadPool};
use subsub_rtcheck::{Decision, ExecError, GuardedExecutor};

/// Runs `decision` for `inst`: the `variant` the analysis chose when the
/// decision admits it and nothing faults, the serial golden path
/// otherwise. Returns the result digest and the classified reason the run
/// did not finish parallel (`None` when it did); `Err` only when `cancel`
/// tripped, with the instance reset by the ladder's recovery hook
/// wherever a parallel attempt had started.
///
/// `site` is the caller's failpoint, hit inside the parallel attempt
/// just before the kernel runs (`bench.kernel.parallel`,
/// `service.kernel.parallel`): chaos schedules are drawn per site name,
/// so each harness keeps the name its pinned seeds were drawn for.
///
/// A serial decision opens no region: not the kernel, not its digest.
#[allow(clippy::too_many_arguments)]
pub fn dispatch(
    executor: &GuardedExecutor,
    kernel: &str,
    variant: Variant,
    inst: &mut dyn KernelInstance,
    decision: &Decision,
    pool: &ThreadPool,
    sched: Schedule,
    cancel: Option<&Arc<CancelToken>>,
    site: &'static str,
) -> Result<(f64, Option<ExecError>), ExecError> {
    // Dispatch-time tamper gate: the live versions, re-read now.
    let versions: Vec<u64> = inst.index_arrays().iter().map(|v| v.version).collect();
    // The closures below each need the instance mutably, but only ever
    // one at a time; a RefCell makes that dynamic borrow safe.
    let cell = RefCell::new(inst);
    executor.execute_admitted(
        kernel,
        decision,
        &versions,
        cancel.map(Arc::as_ref),
        || {
            let mut inst = cell.borrow_mut();
            let mut attempt = || {
                let ran = catch_unwind(AssertUnwindSafe(|| {
                    failpoint::hit(site);
                    inst.run(variant, pool, sched);
                }));
                match ran {
                    Ok(()) => Ok(inst.checksum_on(Some(pool))),
                    Err(panic) => Err(classify_panic(panic.as_ref())),
                }
            };
            // The ambient scope makes the job's token visible to every
            // region the kernel opens on the shared pool, so a tripped
            // deadline stops the run between chunk claims instead of
            // after the kernel finishes.
            match cancel {
                Some(token) => with_ambient_cancel(token, attempt),
                None => attempt(),
            }
        },
        // A faulted attempt may have half-written the outputs; reset
        // restores the pristine dataset so the retry (or the serial
        // rescue) starts from known-good state.
        || cell.borrow_mut().reset(),
        || run_serial_on(&mut **cell.borrow_mut(), None),
    )
}

/// The serial rung: the semantics-defining golden run and its digest —
/// inline (`None`) as the last rung of [`dispatch`], where the pool may
/// be the thing that faulted, or on a trusted `team`; the bits are the
/// same either way.
pub fn run_serial_on(inst: &mut dyn KernelInstance, team: Option<&ThreadPool>) -> f64 {
    inst.run_serial();
    inst.checksum_on(team)
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
    let detail = if let Some(inj) = p.downcast_ref::<failpoint::InjectedPanic>() {
        inj.to_string()
    } else if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    };
    ExecError::ParallelFault { detail }
}
