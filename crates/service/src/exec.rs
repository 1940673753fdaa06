//! The plan-and-dispatch path, and kernel execution behind the service
//! front door.
//!
//! A [`Plan`] is the compile-time half of a guarded run — the analysis
//! verdict for one kernel mapped to a [`Variant`], its runtime check
//! compiled into a [`GuardedExecutor`] — and [`Plan::execute`] is the
//! run-time half: decide, then [`dispatch()`]. The bench harness and the
//! service both run through it; they differ only in where an index
//! array's verdict comes from.
//!
//! A [`KernelRegistry`] lazily builds one [`KernelEntry`] per
//! (kernel, dataset) pair: the compile-time analysis runs once, the
//! plan's scalar check is compiled once, and prepared problem instances
//! are pooled so the hot path of a repeated request skips both
//! `prepare()` and analysis entirely — all that remains is the guard
//! ladder, whose inspection rung is served by the plan's own executor
//! memo. The service keeps no verdict state outside its entries
//! (DESIGN.md §6 says why).
//!
//! The entry keeps, alongside each pooled instance, *ingested copies*
//! of its index arrays ([`ValidatedIndexArray`]): the copies carry the
//! content fingerprint the memo keys on. A copy is only trusted while
//! the live instance's write-version matches the version recorded at
//! copy time — any drift re-ingests before inspection, and the
//! executor's dispatch-time tamper gate re-reads the live versions once
//! more, so a writer racing between inspection and dispatch forces the
//! serial golden path rather than a stale parallel admission.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use subsub_core::{analyze_program, AlgorithmLevel, CheckExpr};
use subsub_kernels::{dispatch, kernel_by_name, run_serial_on, Kernel, KernelInstance, Variant};
use subsub_omprt::{CancelToken, Schedule, ThreadPool};
use subsub_rtcheck::{
    Bindings, BreakerState, Decision, ExecError, GuardPath, GuardStats, GuardedExecutor,
    IndexArrayView, Provenance, ValidatedIndexArray,
};

use crate::request::{Outcome, ServiceError};

/// How many reset instances an entry keeps pooled. More than the worker
/// count is never useful; beyond this, checked-in instances are dropped.
const INSTANCE_POOL_CAP: usize = 8;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A prepared problem instance plus the ingested, content-fingerprinted
/// copies of its index arrays.
struct PreparedInstance {
    inst: Box<dyn KernelInstance>,
    /// One ingested copy per index array, in `index_arrays()` order.
    ingested: Vec<ValidatedIndexArray>,
    /// The live view's write-version at the time each copy was taken.
    copied_at: Vec<u64>,
}

/// One kernel's analysis verdict, bound to the executor that guards it.
pub struct Plan {
    /// The kernel's name: the telemetry label.
    pub name: String,
    /// The variant the analysis selected for the kernel's compute nest
    /// (the last top-level nest — fills precede it under the paper's
    /// inline-expansion methodology).
    pub variant: Variant,
    /// The structured check guarding that decision, if any.
    pub check: Option<CheckExpr>,
    /// `check`, compiled, with the kernel's memo, health word and
    /// counters.
    pub executor: GuardedExecutor,
}

impl Plan {
    /// Runs the compile-time pipeline on the kernel's C source at `level`
    /// and compiles the runtime check of the resulting decision.
    pub fn new(kernel: &dyn Kernel, level: AlgorithmLevel) -> Result<Plan, ServiceError> {
        let name = kernel.name();
        let report =
            analyze_program(kernel.source(), level).map_err(|e| ServiceError::Rejected {
                code: e.code().to_string(),
                detail: e.to_string(),
            })?;
        let func = report
            .function(kernel.func_name())
            .ok_or_else(|| ServiceError::Rejected {
                code: "missing-function".to_string(),
                detail: format!("{name}: function {} missing", kernel.func_name()),
            })?;
        let nest = func.last_nest_parallel();
        let variant = match nest {
            None => Variant::Serial,
            Some(l) if l.depth == 0 => Variant::OuterParallel,
            Some(_) => Variant::InnerParallel,
        };
        let check = nest
            .and_then(|l| l.decision.plan())
            .and_then(|p| p.runtime_check.clone());
        let executor =
            GuardedExecutor::new(check.as_ref()).map_err(|e| ServiceError::Rejected {
                code: "check-not-executable".to_string(),
                detail: format!("{name}: check not executable: {e}"),
            })?;
        Ok(Plan {
            name: name.to_string(),
            variant,
            check,
            executor,
        })
    }

    /// One guarded invocation on `inst`: a decision, then [`dispatch()`].
    ///
    /// The decision is taken off the ladder when no runtime evidence can
    /// change it — the analysis kept the loop serial
    /// ([`ExecError::AnalysisSerial`]), or the run is a quarantine probe
    /// (`serialized`: [`ExecError::Serialized`]) — and by
    /// `decide` otherwise, which is handed the instance's scalar bindings
    /// and index arrays and picks the `GuardedExecutor::decide_*` front
    /// (that is: where an array's verdict comes from). Either way it runs
    /// through the one dispatch, so it is counted, traced, cancel-checked
    /// and, if it has to be, rescued the same way.
    ///
    /// Returns the result digest and why the run did not finish parallel
    /// (`None` when it did); `Err` only when `cancel` tripped.
    #[allow(clippy::too_many_arguments)]
    pub fn execute(
        &self,
        inst: &mut dyn KernelInstance,
        serialized: bool,
        decide: impl FnOnce(&Bindings, &[IndexArrayView<'_>]) -> Decision,
        pool: &ThreadPool,
        sched: Schedule,
        cancel: Option<&Arc<CancelToken>>,
        site: &'static str,
    ) -> Result<(f64, Option<ExecError>), ExecError> {
        let _kernel_span =
            subsub_telemetry::span_labeled(subsub_telemetry::Phase::KernelRun, &self.name);
        if cancel.is_some_and(|c| c.is_cancelled()) {
            return Err(ExecError::Cancelled);
        }
        let decision = if self.variant == Variant::Serial {
            Decision::serial(&self.name, ExecError::AnalysisSerial)
        } else if serialized {
            Decision::serial(&self.name, ExecError::Serialized)
        } else {
            decide(&inst.runtime_bindings(), &inst.index_arrays())
        };
        dispatch(
            &self.executor,
            &self.name,
            self.variant,
            inst,
            &decision,
            pool,
            sched,
            cancel,
            site,
        )
    }
}

/// One (kernel, dataset) pair: its [`Plan`] and an instance pool.
pub struct KernelEntry {
    plan: Plan,
    dataset: String,
    pool_of_instances: Mutex<Vec<PreparedInstance>>,
    golden: Mutex<Option<f64>>,
}

impl KernelEntry {
    /// Runs the compile-time pipeline for `kernel_name` and binds the
    /// decision for `dataset`.
    pub fn new(
        kernel_name: &str,
        dataset: &str,
        level: AlgorithmLevel,
    ) -> Result<KernelEntry, ServiceError> {
        let kernel = kernel_by_name(kernel_name).ok_or_else(|| ServiceError::UnknownKernel {
            name: kernel_name.to_string(),
        })?;
        // Dataset names are validated by `prepare` (which panics on an
        // unknown one — kernels also accept a small "test" dataset not
        // listed in `datasets()`). Probe it once here, eagerly, so a bad
        // name surfaces as a structured error and a good one pre-warms
        // the instance pool.
        let probe = catch_unwind(AssertUnwindSafe(|| kernel.prepare(dataset))).map_err(|_| {
            ServiceError::UnknownKernel {
                name: format!("{kernel_name}:{dataset}"),
            }
        })?;
        let entry = KernelEntry {
            plan: Plan::new(kernel.as_ref(), level)?,
            dataset: dataset.to_string(),
            pool_of_instances: Mutex::new(Vec::new()),
            golden: Mutex::new(None),
        };
        entry.adopt(probe);
        Ok(entry)
    }

    /// The compile-time variant decision.
    pub fn variant(&self) -> Variant {
        self.plan.variant
    }

    /// Guard decision counters for this entry.
    pub fn guard_stats(&self) -> GuardStats {
        self.plan.executor.stats()
    }

    /// Whether the kernel's breaker is denying (or trialling) the
    /// parallel path.
    pub fn kept_serial(&self) -> bool {
        !matches!(
            self.plan.executor.breaker_state(),
            BreakerState::Closed { .. }
        )
    }

    /// Puts a caller-prepared instance of this entry's (kernel, dataset)
    /// on top of the pool: the next execution checks it out.
    pub fn adopt(&self, inst: Box<dyn KernelInstance>) {
        let p = self.prepared(inst);
        lock(&self.pool_of_instances).push(p);
    }

    /// Ingests `inst`'s index arrays as they are now.
    fn prepared(&self, inst: Box<dyn KernelInstance>) -> PreparedInstance {
        let mut ingested = Vec::new();
        let mut copied_at = Vec::new();
        for view in inst.index_arrays() {
            // Domain validation happened in the kernel constructor; the
            // service boundary adds content fingerprint + provenance.
            let arr = ValidatedIndexArray::ingest(
                view.name,
                view.data.to_vec(),
                usize::MAX,
                Provenance::Dataset {
                    name: format!("{}:{}", self.plan.name, self.dataset),
                },
            )
            .expect("usize::MAX domain admits any subscript");
            ingested.push(arr);
            copied_at.push(view.version);
        }
        PreparedInstance {
            inst,
            ingested,
            copied_at,
        }
    }

    fn checkout(&self) -> PreparedInstance {
        if let Some(p) = lock(&self.pool_of_instances).pop() {
            return p;
        }
        let kernel = kernel_by_name(&self.plan.name).expect("entry validated at construction");
        self.prepared(kernel.prepare(&self.dataset))
    }

    /// Returns an instance to the pool, reset — on `team` when there is
    /// one (`reset_on` redoes a faulted region inline, so the instance
    /// is pristine either way).
    fn restore(&self, mut p: PreparedInstance, team: Option<&ThreadPool>) {
        p.inst.reset_on(team);
        // A copy whose instance's versions have moved by the next
        // checkout is re-ingested there, lazily (`refresh`).
        let mut pool = lock(&self.pool_of_instances);
        if pool.len() < INSTANCE_POOL_CAP {
            pool.push(p);
        }
    }

    /// The serial reference checksum for divergence checking, computed
    /// once per entry (the run is serial; its digest and reset use
    /// `pool`).
    pub fn golden_checksum(&self, pool: &ThreadPool) -> f64 {
        if let Some(g) = *lock(&self.golden) {
            return g;
        }
        let mut p = self.checkout();
        let g = run_serial_on(p.inst.as_mut(), Some(pool));
        self.restore(p, Some(pool));
        *lock(&self.golden) = Some(g);
        g
    }

    /// One guarded execution on a pooled instance; the outcome is always
    /// [`Outcome::Executed`]. `serialized` forces the serial path (a
    /// quarantine probe); `cancel` (the per-job token) is
    /// installed as the ambient token around every kernel region and
    /// checked at each rung boundary — a tripped token abandons the
    /// invocation with [`ServiceError::Canceled`], discarding partial
    /// work.
    pub fn execute(
        &self,
        pool: &ThreadPool,
        serialized: bool,
        cancel: Option<&Arc<CancelToken>>,
    ) -> Result<Outcome, ServiceError> {
        let mut p = self.checkout();
        let outcome = self.execute_prepared(&mut p, pool, serialized, cancel);
        // A probe's identity is suspected of faulting workers: its
        // epilogue opens no region either.
        self.restore(p, (!serialized).then_some(pool));
        outcome
    }

    fn execute_prepared(
        &self,
        p: &mut PreparedInstance,
        pool: &ThreadPool,
        serialized: bool,
        cancel: Option<&Arc<CancelToken>>,
    ) -> Result<Outcome, ServiceError> {
        let PreparedInstance {
            inst,
            ingested,
            copied_at,
        } = p;
        let executor = &self.plan.executor;
        let ran = self.plan.execute(
            inst.as_mut(),
            serialized,
            |bindings, views| {
                refresh(ingested, copied_at, views);
                // The walk is handed the live views — the dispatch-time
                // tamper gate compares against their write-versions —
                // and each verdict comes from the copy `refresh` just
                // made current as of its view: re-verified, then served
                // from the executor's content-keyed memo.
                executor.decide_with(&self.plan.name, bindings, views, |i| {
                    executor.verdict_for(&ingested[i])
                })
            },
            pool,
            Schedule::Static { chunk: None },
            cancel,
            "service.kernel.parallel",
        );
        let (checksum, degraded) = ran.map_err(|_| ServiceError::Canceled)?;
        let path = if degraded.is_none() {
            GuardPath::Parallel
        } else {
            GuardPath::Serial
        };
        Ok(Outcome::Executed {
            path,
            checksum,
            degraded,
        })
    }
}

/// Re-ingests any index-array copy whose live write-version moved since
/// the copy was taken.
fn refresh(
    ingested: &mut [ValidatedIndexArray],
    copied_at: &mut [u64],
    views: &[IndexArrayView<'_>],
) {
    for (i, view) in views.iter().enumerate() {
        if copied_at[i] != view.version {
            ingested[i] = ValidatedIndexArray::ingest(
                view.name,
                view.data.to_vec(),
                usize::MAX,
                ingested[i].provenance().clone(),
            )
            .expect("usize::MAX domain admits any subscript");
            copied_at[i] = view.version;
        }
    }
}

/// Lazily-built map of (kernel, dataset) → [`KernelEntry`], shared by
/// every worker.
pub struct KernelRegistry {
    level: AlgorithmLevel,
    entries: Mutex<HashMap<(String, String), Arc<KernelEntry>>>,
}

impl KernelRegistry {
    /// An empty registry analyzing at `level`.
    pub fn new(level: AlgorithmLevel) -> KernelRegistry {
        KernelRegistry {
            level,
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// The entry for a (kernel, dataset) pair, building it on first use.
    pub fn entry(&self, kernel: &str, dataset: &str) -> Result<Arc<KernelEntry>, ServiceError> {
        let key = (kernel.to_string(), dataset.to_string());
        if let Some(e) = lock(&self.entries).get(&key) {
            return Ok(Arc::clone(e));
        }
        // Built outside the lock: analysis takes milliseconds and other
        // requests should not stall behind it. A racing builder is
        // harmless — last writer wins, both entries are equivalent.
        let built = Arc::new(KernelEntry::new(kernel, dataset, self.level)?);
        let mut entries = lock(&self.entries);
        Ok(Arc::clone(entries.entry(key).or_insert(built)))
    }

    /// Whether any registered kernel is being kept serial by its breaker
    /// (what the `Degraded` admission shed asks).
    pub fn any_kept_serial(&self) -> bool {
        lock(&self.entries).values().any(|e| e.kept_serial())
    }

    /// `(hits, misses)` of the executor memos, summed over every
    /// registered kernel.
    pub fn memo_lookups(&self) -> (u64, u64) {
        lock(&self.entries).values().fold((0, 0), |(h, m), e| {
            let c = e.guard_stats().cache;
            (h + c.hits, m + c.misses)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_kernel_and_dataset_are_rejected() {
        assert!(matches!(
            KernelEntry::new("NoSuchKernel", "test", AlgorithmLevel::New),
            Err(ServiceError::UnknownKernel { .. })
        ));
        assert!(matches!(
            KernelEntry::new("AMGmk", "no-such-dataset", AlgorithmLevel::New),
            Err(ServiceError::UnknownKernel { .. })
        ));
    }

    #[test]
    fn repeated_execution_hits_the_executor_memo() {
        let pool = ThreadPool::new(2);
        let entry = KernelEntry::new("AMGmk", "test", AlgorithmLevel::New).unwrap();
        assert_eq!(entry.variant(), Variant::OuterParallel);
        let lookups = || {
            let c = entry.guard_stats().cache;
            (c.hits, c.misses)
        };
        let first = entry.execute(&pool, false, None).unwrap();
        assert_eq!(lookups(), (0, 1));
        let second = entry.execute(&pool, false, None).unwrap();
        assert_eq!(lookups(), (1, 1));
        let (Outcome::Executed { checksum: a, .. }, Outcome::Executed { checksum: b, .. }) =
            (&first, &second)
        else {
            panic!("expected executed outcomes");
        };
        assert!(subsub_kernels::common::close(*a, *b));
        assert!(subsub_kernels::common::close(
            *a,
            entry.golden_checksum(&pool)
        ));
    }

    /// A tampered index array never gets a stale verdict. A write through
    /// the instance's boundary (version bump) is re-ingested at the next
    /// checkout: new content, a memo miss, and the fresh verdict sees the
    /// violation. A write that bypasses the boundary of an ingested copy
    /// fails the copy's re-verification before any verdict is consulted.
    /// Either way the run is serial and bit-equal to the golden.
    #[test]
    fn a_tampered_array_never_gets_a_stale_verdict() {
        let pool = ThreadPool::new(2);
        let entry = KernelEntry::new("AMGmk", "test", AlgorithmLevel::New).unwrap();
        let run = || match entry.execute(&pool, false, None).unwrap() {
            Outcome::Executed {
                checksum, degraded, ..
            } => (checksum, degraded),
            Outcome::Analyzed(_) => panic!("expected an executed outcome"),
        };
        let misses = || entry.guard_stats().cache.misses;
        assert_eq!(run().1, None);
        assert_eq!(run().1, None, "hot: served from the memo");
        assert_eq!(misses(), 1);

        let mut p = entry.checkout();
        assert!(p.inst.tamper_index_arrays());
        let golden = run_serial_on(p.inst.as_mut(), None);
        entry.restore(p, None);
        let (checksum, degraded) = run();
        assert!(
            matches!(degraded, Some(ExecError::NotMonotone { .. })),
            "stale verdict served after tamper: {degraded:?}"
        );
        assert_eq!(misses(), 2, "re-ingested content is a new key");
        assert_eq!(checksum.to_bits(), golden.to_bits());

        let mut p = entry.checkout();
        p.ingested[0].bypass_validation_mut()[1] += 1;
        entry.restore(p, None);
        let (checksum, degraded) = run();
        assert!(
            matches!(degraded, Some(ExecError::InvalidIndexArray { .. })),
            "{degraded:?}"
        );
        assert_eq!(misses(), 2, "rejected before the memo was consulted");
        assert_eq!(checksum.to_bits(), golden.to_bits());
    }

    /// A probe's identity is suspected of faulting workers: neither the
    /// kernel nor its epilogue may open a region, even on an array the
    /// pooled forms would split (`n256k` is 8 × `PAR_MIN`).
    #[test]
    fn serialized_mode_forces_the_serial_path() {
        let pool = ThreadPool::new(2);
        let entry = KernelEntry::new("StridedScatter", "n256k", AlgorithmLevel::New).unwrap();
        assert_eq!(entry.variant(), Variant::OuterParallel);
        let r = entry.execute(&pool, true, None).unwrap();
        assert_eq!(pool.health().regions, 0, "serialized mode opened a region");
        let Outcome::Executed {
            path,
            checksum,
            degraded,
        } = r
        else {
            panic!("expected executed outcome");
        };
        assert_eq!(
            (path, degraded),
            (GuardPath::Serial, Some(ExecError::Serialized)),
            "a run the caller kept serial says so"
        );
        let c = entry.guard_stats().cache;
        assert_eq!(
            (c.hits, c.misses),
            (0, 0),
            "serialized mode skips inspection"
        );
        // The pooled golden opens regions, and agrees to the bit.
        assert_eq!(checksum.to_bits(), entry.golden_checksum(&pool).to_bits());
        assert!(pool.health().regions > 0);
    }
}
