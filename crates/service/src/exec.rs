//! Kernel execution behind the service front door.
//!
//! A [`KernelRegistry`] lazily builds one [`KernelEntry`] per
//! (kernel, dataset) pair: the compile-time analysis runs once, the
//! plan's scalar check is compiled once, and prepared problem instances
//! are pooled so the hot path of a repeated request skips both
//! `prepare()` and analysis entirely — all that remains is the guard
//! ladder, whose inspection rung is served by the service's sharded,
//! content-addressed verdict cache.
//!
//! The entry keeps, alongside each pooled instance, *ingested copies*
//! of its index arrays ([`ValidatedIndexArray`]): the copies carry the
//! checksum/provenance identity the shard cache keys on. A copy is only
//! trusted while the live instance's write-version matches the version
//! recorded at copy time — any drift re-ingests before inspection, and
//! the executor's dispatch-time tamper gate re-reads the live versions
//! once more, so a writer racing between inspection and dispatch forces
//! the serial golden path rather than a stale parallel admission.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use subsub_core::{analyze_program, AlgorithmLevel, CheckExpr};
use subsub_failpoint as failpoint;
use subsub_kernels::{kernel_by_name, KernelInstance, Variant};
use subsub_omprt::{cancel::with_ambient_cancel, CancelToken, RegionError, Schedule, ThreadPool};
use subsub_rtcheck::{
    Decision, ExecError, GuardPath, GuardStats, GuardVerdict, GuardedExecutor, Provenance,
    ValidatedIndexArray,
};

use crate::request::{Outcome, ServiceError};
use crate::shard::{Lookup, ShardedVerdictCache};

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

/// One (kernel, dataset) pair: analysis decision, compiled check,
/// guarded executor, and an instance pool.
pub struct KernelEntry {
    kernel_name: String,
    dataset: String,
    variant: Variant,
    executor: GuardedExecutor,
    pool_of_instances: Mutex<Vec<PreparedInstance>>,
    golden: Mutex<Option<f64>>,
}

/// What one guarded service execution produced, before it is folded
/// into a [`crate::Response`].
pub struct ExecReport {
    /// The outcome (always [`Outcome::Executed`]).
    pub outcome: Outcome,
    /// The verdict-cache lookup classification, when inspection ran.
    pub cache: Option<Lookup>,
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
        let report =
            analyze_program(kernel.source(), level).map_err(|e| ServiceError::Rejected {
                code: e.code().to_string(),
                detail: e.to_string(),
            })?;
        let func = report
            .function(kernel.func_name())
            .ok_or_else(|| ServiceError::Rejected {
                code: "missing-function".to_string(),
                detail: format!("{kernel_name}: function {} missing", kernel.func_name()),
            })?;
        let (variant, check): (Variant, Option<CheckExpr>) = match func.last_nest_parallel() {
            None => (Variant::Serial, None),
            Some(l) => (
                if l.depth == 0 {
                    Variant::OuterParallel
                } else {
                    Variant::InnerParallel
                },
                l.decision.plan().and_then(|p| p.runtime_check.clone()),
            ),
        };
        let executor =
            GuardedExecutor::new(check.as_ref()).map_err(|e| ServiceError::Rejected {
                code: "check-not-executable".to_string(),
                detail: format!("{kernel_name}: check not executable: {e}"),
            })?;
        let entry = KernelEntry {
            kernel_name: kernel_name.to_string(),
            dataset: dataset.to_string(),
            variant,
            executor,
            pool_of_instances: Mutex::new(Vec::new()),
            golden: Mutex::new(None),
        };
        let (ingested, copied_at) = entry.ingest_views(probe.as_ref());
        lock(&entry.pool_of_instances).push(PreparedInstance {
            inst: probe,
            ingested,
            copied_at,
        });
        Ok(entry)
    }

    /// The compile-time variant decision.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// Guard decision counters for this entry.
    pub fn guard_stats(&self) -> GuardStats {
        self.executor.stats()
    }

    fn ingest_views(&self, inst: &dyn KernelInstance) -> (Vec<ValidatedIndexArray>, Vec<u64>) {
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
                    name: format!("{}:{}", self.kernel_name, self.dataset),
                },
            )
            .expect("usize::MAX domain admits any subscript");
            ingested.push(arr);
            copied_at.push(view.version);
        }
        (ingested, copied_at)
    }

    fn checkout(&self) -> PreparedInstance {
        if let Some(p) = lock(&self.pool_of_instances).pop() {
            return p;
        }
        let kernel = kernel_by_name(&self.kernel_name).expect("entry validated at construction");
        let inst = kernel.prepare(&self.dataset);
        let (ingested, copied_at) = self.ingest_views(inst.as_ref());
        PreparedInstance {
            inst,
            ingested,
            copied_at,
        }
    }

    /// Returns an instance to the pool, reset — on `team` when there is
    /// one (`reset_on` redoes a faulted region inline, so the instance
    /// is pristine either way).
    fn restore(&self, mut p: PreparedInstance, team: Option<&ThreadPool>) {
        p.inst.reset_on(team);
        // Reset restores the pristine dataset but also rolls back any
        // tamper, so the copies must be refreshed on next checkout if
        // versions moved; `refresh` below handles that lazily.
        let mut pool = lock(&self.pool_of_instances);
        if pool.len() < INSTANCE_POOL_CAP {
            pool.push(p);
        }
    }

    /// Re-ingests any index-array copy whose live write-version moved
    /// since the copy was taken.
    fn refresh(p: &mut PreparedInstance) {
        let views = p.inst.index_arrays();
        for (i, view) in views.iter().enumerate() {
            if p.copied_at.get(i).copied() != Some(view.version) {
                let refreshed = ValidatedIndexArray::ingest(
                    view.name,
                    view.data.to_vec(),
                    usize::MAX,
                    p.ingested[i].provenance().clone(),
                )
                .expect("usize::MAX domain admits any subscript");
                p.ingested[i] = refreshed;
                p.copied_at[i] = view.version;
            }
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
        p.inst.run_serial();
        let g = p.inst.checksum_on(Some(pool));
        self.restore(p, Some(pool));
        *lock(&self.golden) = Some(g);
        g
    }

    /// One guarded execution through the service's sharded verdict
    /// cache. `serialized` forces the serial path (degraded-mode
    /// admission); `paranoid` re-verifies ingested copies before
    /// serving cached verdicts; `cancel` (the per-job token) is
    /// installed as the ambient token around every kernel region and
    /// checked at each rung boundary — a tripped token abandons the
    /// invocation with [`ServiceError::Canceled`], discarding partial
    /// work.
    pub fn execute(
        &self,
        cache: &ShardedVerdictCache,
        pool: &ThreadPool,
        serialized: bool,
        paranoid: bool,
        cancel: Option<&Arc<CancelToken>>,
    ) -> Result<ExecReport, ServiceError> {
        let mut p = self.checkout();
        let report = self.execute_prepared(&mut p, cache, pool, serialized, paranoid, cancel);
        // Serialized mode exists because the pool is suspect: its
        // epilogue opens no region either.
        self.restore(p, (!serialized).then_some(pool));
        report
    }

    fn execute_prepared(
        &self,
        p: &mut PreparedInstance,
        cache: &ShardedVerdictCache,
        pool: &ThreadPool,
        serialized: bool,
        paranoid: bool,
        cancel: Option<&Arc<CancelToken>>,
    ) -> Result<ExecReport, ServiceError> {
        let _kernel_span =
            subsub_telemetry::span_labeled(subsub_telemetry::Phase::KernelRun, &self.kernel_name);
        let cancelled = || cancel.is_some_and(|c| c.is_cancelled());
        if cancelled() {
            return Err(ServiceError::Canceled);
        }
        if self.variant == Variant::Serial || serialized {
            p.inst.run_serial();
            if cancelled() {
                return Err(ServiceError::Canceled);
            }
            return Ok(ExecReport {
                outcome: Outcome::Executed {
                    path: GuardPath::Serial,
                    checksum: p.inst.checksum(),
                    degraded: (self.variant == Variant::Serial)
                        .then_some(ExecError::AnalysisSerial),
                },
                cache: None,
            });
        }
        KernelEntry::refresh(p);
        let bindings = p.inst.runtime_bindings();
        // Breaker admission + scalar check (no arrays: inspection goes
        // through the shard cache below, not the per-executor memo).
        let mut decision =
            self.executor
                .decide_recoverable(&self.kernel_name, &bindings, &[], Some(pool));
        let mut cache_lookup: Option<Lookup> = None;
        if decision.verdict.path == GuardPath::Parallel {
            let required: Vec<_> = p.inst.index_arrays().iter().map(|v| v.required).collect();
            let mut inspected = Vec::with_capacity(p.ingested.len());
            let mut denial: Option<ExecError> = None;
            for (i, arr) in p.ingested.iter().enumerate() {
                match cache.verdict_for(arr, Some(pool), paranoid) {
                    Ok((verdict, lookup)) => {
                        cache_lookup = Some(match cache_lookup {
                            None => lookup,
                            Some(prev) => combine(prev, lookup),
                        });
                        inspected.push((arr.name().to_string(), p.copied_at[i]));
                        if !verdict.satisfies(required[i]) {
                            denial = Some(ExecError::NotMonotone {
                                array: arr.name().to_string(),
                                required: required[i],
                                first_violation: verdict.first_violation,
                            });
                            break;
                        }
                    }
                    Err(e) => {
                        denial = Some(e.into());
                        break;
                    }
                }
            }
            decision = Decision {
                verdict: match denial {
                    None => GuardVerdict {
                        path: GuardPath::Parallel,
                        reason: None,
                    },
                    Some(reason) => GuardVerdict {
                        path: GuardPath::Serial,
                        reason: Some(reason),
                    },
                },
                inspected,
            };
        }
        // Dispatch-time tamper gate: re-read the live versions.
        let versions_owned: Vec<(String, u64)> = p
            .inst
            .index_arrays()
            .iter()
            .map(|v| (v.name.to_string(), v.version))
            .collect();
        let versions: Vec<(&str, u64)> = versions_owned
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .collect();
        let variant = self.variant;
        let cell = RefCell::new(&mut p.inst);
        let (checksum, reason) = match self.executor.execute_admitted_cancellable(
            &self.kernel_name,
            &decision,
            &versions,
            cancel.map(Arc::as_ref),
            || {
                let mut inst = cell.borrow_mut();
                let mut run = || {
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        failpoint::hit("service.kernel.parallel");
                        inst.run(variant, pool, Schedule::Static { chunk: None });
                    }));
                    match r {
                        Ok(()) => Ok(inst.checksum_on(Some(pool))),
                        Err(panic) => Err(classify_panic(panic.as_ref())),
                    }
                };
                // The ambient scope makes the per-job token visible to
                // every region the kernel opens on the shared pool, so
                // a janitor-tripped deadline stops the run between
                // chunk claims instead of after the kernel finishes.
                match cancel {
                    Some(token) => with_ambient_cancel(token, run),
                    None => run(),
                }
            },
            || {
                cell.borrow_mut().reset();
            },
            || {
                let mut inst = cell.borrow_mut();
                inst.run_serial();
                inst.checksum()
            },
        ) {
            Ok(out) => out,
            Err(_) => return Err(ServiceError::Canceled),
        };
        let path = if reason.is_none() {
            GuardPath::Parallel
        } else {
            GuardPath::Serial
        };
        Ok(ExecReport {
            outcome: Outcome::Executed {
                path,
                checksum,
                degraded: reason,
            },
            cache: cache_lookup,
        })
    }
}

/// Misses dominate (an inspection ran); then coalesced waits; warm and
/// live hits are cheapest.
fn combine(a: Lookup, b: Lookup) -> Lookup {
    fn rank(l: Lookup) -> u8 {
        match l {
            Lookup::Miss => 3,
            Lookup::Coalesced => 2,
            Lookup::WarmHit => 1,
            Lookup::Hit => 0,
        }
    }
    if rank(b) > rank(a) {
        b
    } else {
        a
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
    fn repeated_execution_hits_the_shard_cache() {
        let cache = ShardedVerdictCache::new(4, 64);
        let pool = ThreadPool::new(2);
        let entry = KernelEntry::new("AMGmk", "test", AlgorithmLevel::New).unwrap();
        assert_eq!(entry.variant(), Variant::OuterParallel);
        let first = entry.execute(&cache, &pool, false, true, None).unwrap();
        assert_eq!(first.cache, Some(Lookup::Miss));
        let second = entry.execute(&cache, &pool, false, true, None).unwrap();
        assert_eq!(second.cache, Some(Lookup::Hit));
        let (Outcome::Executed { checksum: a, .. }, Outcome::Executed { checksum: b, .. }) =
            (&first.outcome, &second.outcome)
        else {
            panic!("expected executed outcomes");
        };
        assert!(subsub_kernels::common::close(*a, *b));
        assert!(subsub_kernels::common::close(
            *a,
            entry.golden_checksum(&pool)
        ));
    }

    /// Serialized mode exists because the pool is suspect: neither the
    /// kernel nor its epilogue may open a region, even on an array the
    /// pooled forms would split (`n256k` is 8 × `PAR_MIN`).
    #[test]
    fn serialized_mode_forces_the_serial_path() {
        let cache = ShardedVerdictCache::new(2, 16);
        let pool = ThreadPool::new(2);
        let entry = KernelEntry::new("StridedScatter", "n256k", AlgorithmLevel::New).unwrap();
        assert_eq!(entry.variant(), Variant::OuterParallel);
        let r = entry.execute(&cache, &pool, true, true, None).unwrap();
        assert_eq!(pool.health().regions, 0, "serialized mode opened a region");
        let Outcome::Executed { path, checksum, .. } = r.outcome else {
            panic!("expected executed outcome");
        };
        assert_eq!(path, GuardPath::Serial);
        assert!(r.cache.is_none(), "serialized mode skips inspection");
        // The pooled golden opens regions, and agrees to the bit.
        assert_eq!(checksum.to_bits(), entry.golden_checksum(&pool).to_bits());
        assert!(pool.health().regions > 0);
    }
}
