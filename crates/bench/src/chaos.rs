//! The chaos harness: sweep seeded fault-injection schedules over the
//! whole kernel registry and check the system's end-to-end robustness
//! invariant.
//!
//! For every kernel, one guarded invocation runs with a
//! [`FailPlan::seeded`] schedule armed over [`CHAOS_SITES`] — worker
//! deaths at wake and claim, delays on the fork/join hot path, dropped
//! or corrupted cache inserts, corrupted check evaluations, dispatch faults, and panics inside the parallel kernel
//! body. Whatever fires, the invocation must end in exactly one of two
//! states:
//!
//! * **completed parallel** — the output agrees with the serial golden
//!   run (up to floating-point reassociation, [`close`]);
//! * **degraded serial** — the outcome carries a classified
//!   [`ExecError`] and the output is *bit-identical* to the golden run
//!   (the serial rescue executes the same code on reset state).
//!
//! Anything else — a panic escaping the harness, a hang, a corrupt
//! result, an unclassified fallback — is a [`ChaosReport::violations`]
//! entry, and the suite fails. So is a site some kernel's plan named
//! that no kernel's run reached: a site deleted from the code must not
//! survive as a row that injects nothing. Every run is reproducible from
//! its seed.

use crate::guarded::GuardedHarness;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use subsub_core::AlgorithmLevel;
use subsub_failpoint::{self as failpoint, Arm, FailPlan};
use subsub_kernels::{all_kernels, common::close, Variant};
use subsub_omprt::{RegionError, Schedule, ThreadPool};
use subsub_rtcheck::ExecError;

/// Every failpoint site a guarded run of a registry kernel's `test`
/// dataset reaches, with the arms a chaos schedule may legally draw for
/// it. (`rtcheck.inspect.chunk` is not among them — every `test` index
/// array is below `PAR_THRESHOLD`, so the scan is serial; its faults are
/// `rtcheck/tests/faults.rs`'s — and neither is `omprt.reduce.slot`: no
/// kernel variant reduces on the pool.) Sites on coordinator-only paths
/// (region fork/join) and sites consulted outside any `catch_unwind`
/// (cache insert, check eval, dispatch) must never panic — a panic there
/// would be a harness abort, not an injected fault — so their allowed
/// arms are restricted to what their callers are built to absorb.
pub const CHAOS_SITES: &[(&str, &[Arm])] = &[
    // Worker-side: panics kill the worker thread; the pool must reclaim
    // or abort cleanly, then respawn.
    ("omprt.worker.wake", &[Arm::Panic, Arm::Delay(1)]),
    ("omprt.worker.claim", &[Arm::Panic, Arm::Delay(2)]),
    // Worker death after a tid is attributed as started: the region
    // must abort with `WorkerLost`, which the guard absorbs as a
    // transient fault (retry, then serial rescue).
    ("omprt.worker.job", &[Arm::Panic, Arm::Delay(1)]),
    // Coordinator fork/join hot path: timing disturbance only.
    ("omprt.region.fork", &[Arm::Delay(1)]),
    ("omprt.region.join", &[Arm::Delay(1)]),
    // Cache insert: dropped (Error) or conservatively corrupted memo.
    (
        "rtcheck.cache.insert",
        &[Arm::Error, Arm::Corrupt, Arm::Delay(1)],
    ),
    // Scalar check evaluation: corrupt = conservative deny.
    (
        "rtcheck.check.eval",
        &[Arm::Error, Arm::Corrupt, Arm::Delay(1)],
    ),
    // Dispatch boundary: a detected fault before the kernel runs.
    ("rtcheck.guard.dispatch", &[Arm::Error, Arm::Delay(1)]),
    // Inside the parallel kernel attempt (coordinator, under
    // catch_unwind): exercises retry + serial rescue + breaker.
    ("bench.kernel.parallel", &[Arm::Panic, Arm::Delay(1)]),
];

/// The pinned seeds CI sweeps (`ci.sh` step `chaos`).
pub const DEFAULT_SEEDS: &[u64] = &[17, 4242, 900_913];

/// One kernel's outcome under one seeded schedule.
#[derive(Debug, Clone)]
pub struct ChaosKernelResult {
    /// Kernel name.
    pub kernel: String,
    /// `None`: completed parallel. `Some`: degraded, with the class.
    pub degraded: Option<ExecError>,
    /// Sites whose rules actually fired during this kernel's run.
    pub fired_sites: Vec<String>,
}

/// Everything one seed's sweep over the registry produced.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The sweep's seed.
    pub seed: u64,
    /// Per-kernel outcomes, in registry order.
    pub results: Vec<ChaosKernelResult>,
    /// Invariant violations; empty means the sweep passed.
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// Did every kernel uphold the robustness invariant?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// `(completed parallel, degraded serial)` counts.
    pub fn outcome_counts(&self) -> (usize, usize) {
        let degraded = self.results.iter().filter(|r| r.degraded.is_some()).count();
        (self.results.len() - degraded, degraded)
    }
}

/// Derives a per-kernel sub-seed so each kernel sees its own schedule.
fn sub_seed(seed: u64, kernel: &str) -> u64 {
    kernel.bytes().fold(seed ^ 0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Quiets the default panic report for the panics chaos runs *expect*:
/// injected ones, and the runtime's re-raise of a region abort caused by
/// an injected worker death (payload [`RegionError`]). Both are caught
/// and classified by the guarded harness; only genuinely escaping panics
/// should reach stderr, and those the sweep reports as violations.
fn quiet_expected_panics() {
    use std::sync::OnceLock;
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        failpoint::silence_panics_when(|p| p.downcast_ref::<RegionError>().is_some());
    });
}

/// Runs one seeded chaos sweep over the full kernel registry.
pub fn chaos_sweep(seed: u64) -> ChaosReport {
    quiet_expected_panics();
    let mut results = Vec::new();
    let mut violations = Vec::new();
    let mut named = BTreeSet::new();
    let mut reached = BTreeSet::new();
    for k in all_kernels() {
        let name = k.name().to_string();
        // Golden serial run and harness construction happen *unarmed*:
        // chaos targets the execution machinery, not the compile-time
        // analysis or dataset generation.
        let mut golden_inst = k.prepare("test");
        golden_inst.run_serial();
        let golden = golden_inst.checksum();
        let harness = GuardedHarness::new(k.as_ref(), AlgorithmLevel::New);
        let mut inst = k.prepare("test");
        let pool = ThreadPool::new(4);
        let plan = FailPlan::seeded(sub_seed(seed, &name), CHAOS_SITES);
        let planned = plan.sites();
        let (run, fired_sites) = {
            let _armed = failpoint::arm(plan);
            let run = catch_unwind(AssertUnwindSafe(|| {
                harness.run(inst.as_mut(), &pool, Schedule::dynamic_default())
            }));
            let fired: Vec<String> = planned
                .iter()
                .filter(|s| failpoint::fired(s) > 0)
                .cloned()
                .collect();
            let hit = CHAOS_SITES.iter().filter(|(s, _)| failpoint::hits(s) > 0);
            reached.extend(hit.map(|(s, _)| *s));
            (run, fired)
        };
        named.extend(planned);
        let out = match run {
            Ok(out) => out,
            Err(p) => {
                let detail = p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "non-string payload".into());
                violations.push(format!(
                    "{name} [seed {seed}]: panic escaped the guarded harness: {detail}"
                ));
                continue;
            }
        };
        match &out.reason {
            None => {
                if !close(golden, out.checksum) {
                    violations.push(format!(
                        "{name} [seed {seed}]: parallel completion diverged from golden \
                         ({} != {golden})",
                        out.checksum
                    ));
                }
            }
            Some(err) => {
                if out.executed != Variant::Serial {
                    violations.push(format!(
                        "{name} [seed {seed}]: degraded outcome but executed {}",
                        out.executed
                    ));
                }
                if out.checksum.to_bits() != golden.to_bits() {
                    violations.push(format!(
                        "{name} [seed {seed}]: serial fallback not bit-identical to golden \
                         ({} != {golden}, reason {err})",
                        out.checksum
                    ));
                }
            }
        }
        results.push(ChaosKernelResult {
            kernel: name,
            degraded: out.reason,
            fired_sites,
        });
    }
    for site in named.iter().filter(|s| !reached.contains(s.as_str())) {
        violations.push(format!(
            "{site} [seed {seed}]: named by a plan, reached by no kernel (a dead arm)"
        ));
    }
    ChaosReport {
        seed,
        results,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_per_kernel() {
        assert_ne!(sub_seed(7, "AMGmk"), sub_seed(7, "SDDMM"));
        assert_eq!(sub_seed(7, "AMGmk"), sub_seed(7, "AMGmk"));
    }

    #[test]
    fn site_table_restricts_coordinator_paths_to_delay() {
        for (site, arms) in CHAOS_SITES {
            if matches!(*site, "omprt.region.fork" | "omprt.region.join") {
                assert!(
                    arms.iter().all(|a| matches!(a, Arm::Delay(_))),
                    "{site} must be delay-only"
                );
            }
            if site.starts_with("rtcheck.cache")
                || site.starts_with("rtcheck.check")
                || site.starts_with("rtcheck.guard")
            {
                assert!(
                    !arms.contains(&Arm::Panic),
                    "{site} is hit outside catch_unwind; Panic would abort"
                );
            }
        }
    }
}
