//! The two front doors of the plan-and-dispatch path agree, fault class
//! by fault class: the harness front ([`GuardedHarness`] — the caller's
//! instance, its raw views against the executor's memo) and the service
//! front ([`KernelEntry`] — a pooled instance, re-verified ingested
//! copies against the same memo) run the same kernel under the same
//! injected condition and must report the same path and reason class,
//! move [`GuardStats`] by the same amounts, produce the serial golden bit
//! for bit on every fallback, and leave the instance fit for the next
//! run.
//!
//! Conditions that live in the instance (a false check, a version that
//! moves between the phases, a token that trips mid-run) are played by
//! [`Scripted`], a [`KernelInstance`] wrapped around the registry's own;
//! faults of the parallel attempt are armed failpoints, one per front's
//! site (armed failpoints are process-wide: this crate's tests run on one
//! thread).

use crate::guarded::GuardedHarness;
use std::cell::Cell;
use std::sync::Arc;
use subsub_core::AlgorithmLevel;
use subsub_failpoint::{self as failpoint, Arm, FailPlan, Fire};
use subsub_kernels::{common::close, kernel_by_name, InnerGroup, KernelInstance};
use subsub_omprt::{CancelToken, Schedule, ThreadPool};
use subsub_rtcheck::{Bindings, ExecError, GuardStats, IndexArrayView};
use subsub_service::{KernelEntry, Outcome, ServiceError};

/// What a [`Scripted`] instance does differently from the one it wraps.
#[derive(Clone, Copy, Default)]
struct Script {
    /// Report bindings under which AMGmk's check is false.
    check_false: bool,
    /// Break an index array's monotonicity before anyone sees it.
    tampered: bool,
    /// Report every write-version one higher at the dispatch-time re-read
    /// of the first run: a writer struck between the phases.
    drift_at_dispatch: bool,
    /// Trip the job's token from inside the parallel variant.
    cancel_in_run: bool,
}

struct Scripted {
    inner: Box<dyn KernelInstance>,
    script: Script,
    token: Arc<CancelToken>,
    /// Where the first run is: 0 before its bindings are read, 1 before
    /// phase 1 reads the index arrays, 2 before phase 2 re-reads them, 3
    /// from then on.
    step: Cell<u8>,
}

impl KernelInstance for Scripted {
    fn run_serial(&mut self) {
        self.inner.run_serial();
    }
    fn run_outer(&mut self, pool: &ThreadPool, sched: Schedule) {
        if self.script.cancel_in_run {
            self.token.cancel();
        }
        self.inner.run_outer(pool, sched);
    }
    fn run_inner(&mut self, pool: &ThreadPool, sched: Schedule) {
        self.inner.run_inner(pool, sched);
    }
    fn inner_groups(&self) -> Vec<InnerGroup> {
        self.inner.inner_groups()
    }
    fn runtime_bindings(&self) -> Bindings {
        if self.step.get() == 0 {
            self.step.set(1);
        }
        let mut b = self.inner.runtime_bindings();
        if self.script.check_false {
            b.set_var("num_rownnz", 1 << 40);
        }
        b
    }
    fn index_arrays(&self) -> Vec<IndexArrayView<'_>> {
        let step = self.step.get();
        if step == 1 || step == 2 {
            self.step.set(step + 1);
        }
        let mut views = self.inner.index_arrays();
        if self.script.drift_at_dispatch && step == 2 {
            views.iter_mut().for_each(|v| v.version += 1);
        }
        views
    }
    fn checksum_on(&self, pool: Option<&ThreadPool>) -> f64 {
        self.inner.checksum_on(pool)
    }
    fn reset_on(&mut self, pool: Option<&ThreadPool>) {
        self.inner.reset_on(pool);
    }
}

/// One fault class: how it is brought about, and what both fronts must
/// then report.
struct Row {
    name: &'static str,
    kernel: &'static str,
    script: Script,
    /// Armed at both fronts' kernel sites for the measured run and its
    /// warm-ups.
    fault: Option<Fire>,
    /// Runs under the same condition before the measured one.
    warmups: usize,
    serialized: bool,
    cancelled_before: bool,
    /// `(finished parallel, reason class)` of the measured run; `None`
    /// when it must end cancelled.
    expect: Option<(bool, u8)>,
    /// The same for a clean run on the same instance afterwards.
    follow_up: (bool, u8),
}

const ROW: Row = Row {
    name: "",
    kernel: "AMGmk",
    script: Script {
        check_false: false,
        tampered: false,
        drift_at_dispatch: false,
        cancel_in_run: false,
    },
    fault: None,
    warmups: 0,
    serialized: false,
    cancelled_before: false,
    expect: None,
    follow_up: (true, 0),
};

fn rows() -> Vec<Row> {
    let script = ROW.script;
    vec![
        Row {
            name: "check false",
            script: Script {
                check_false: true,
                ..script
            },
            expect: Some((false, 2)),
            // The bindings are the instance's: false again.
            follow_up: (false, 2),
            ..ROW
        },
        Row {
            name: "index array non-monotone",
            script: Script {
                tampered: true,
                ..script
            },
            expect: Some((false, 4)),
            // `reset` restores outputs, not index arrays.
            follow_up: (false, 4),
            ..ROW
        },
        Row {
            name: "tamper between decide and dispatch",
            script: Script {
                drift_at_dispatch: true,
                ..script
            },
            expect: Some((false, 6)),
            ..ROW
        },
        Row {
            name: "transient fault, then success",
            fault: Some(Fire::nth(0)),
            expect: Some((true, 0)),
            ..ROW
        },
        Row {
            name: "persistent fault: retry, then serial",
            fault: Some(Fire::always()),
            expect: Some((false, 7)),
            ..ROW
        },
        Row {
            name: "fault until the breaker opens",
            fault: Some(Fire::always()),
            warmups: 2,
            expect: Some((false, 9)),
            // Still inside the breaker's cooldown.
            follow_up: (false, 9),
            ..ROW
        },
        Row {
            name: "half-open trial closes the breaker",
            // Two runs of attempt + retry fault and open the breaker;
            // eight more are denied; the eleventh is the trial, and the
            // fault is gone.
            fault: Some(Fire {
                max_fires: 4,
                ..Fire::always()
            }),
            warmups: 10,
            expect: Some((true, 0)),
            ..ROW
        },
        Row {
            name: "cancelled before the parallel attempt",
            cancelled_before: true,
            ..ROW
        },
        Row {
            name: "cancelled after the parallel attempt",
            script: Script {
                cancel_in_run: true,
                ..script
            },
            ..ROW
        },
        Row {
            name: "analysis-serial",
            kernel: "IS",
            expect: Some((false, 1)),
            follow_up: (false, 1),
            ..ROW
        },
        Row {
            name: "serialized",
            serialized: true,
            expect: Some((false, 11)),
            ..ROW
        },
    ]
}

/// `(digest, reason)` of a finished run; `Err` for a cancelled one.
type Ran = Result<(f64, Option<ExecError>), ()>;

/// One front door: runs its instance once, and reports its counters.
trait Front {
    fn run(&mut self, serialized: bool, cancel: Option<&Arc<CancelToken>>) -> Ran;
    fn stats(&self) -> GuardStats;
}

struct HarnessFront<'a> {
    harness: GuardedHarness,
    inst: Box<dyn KernelInstance>,
    pool: &'a ThreadPool,
}

impl Front for HarnessFront<'_> {
    fn run(&mut self, serialized: bool, cancel: Option<&Arc<CancelToken>>) -> Ran {
        // The service resets an instance on its way back into the pool;
        // here the instance is the caller's to reset.
        self.inst.reset();
        let sched = Schedule::Static { chunk: None };
        self.harness
            .execute(self.inst.as_mut(), serialized, self.pool, sched, cancel)
            .map_err(|e| assert_eq!(e, ExecError::Cancelled))
    }
    fn stats(&self) -> GuardStats {
        self.harness.stats()
    }
}

struct ServiceFront<'a> {
    entry: KernelEntry,
    pool: &'a ThreadPool,
}

impl Front for ServiceFront<'_> {
    fn run(&mut self, serialized: bool, cancel: Option<&Arc<CancelToken>>) -> Ran {
        match self.entry.execute(self.pool, serialized, cancel) {
            Ok(Outcome::Executed {
                checksum, degraded, ..
            }) => Ok((checksum, degraded)),
            Ok(Outcome::Analyzed(_)) => panic!("an Execute produced an analysis report"),
            Err(e) => {
                assert!(matches!(e, ServiceError::Canceled), "{e:?}");
                Err(())
            }
        }
    }
    fn stats(&self) -> GuardStats {
        self.entry.guard_stats()
    }
}

fn summary(ran: &Ran) -> Option<(bool, u8)> {
    ran.as_ref().ok().map(|(_, reason)| {
        (
            reason.is_none(),
            reason.as_ref().map_or(0, ExecError::reason_class),
        )
    })
}

/// Plays `row` on one front; returns what the measured run reported and
/// the counters after it, and holds every output against `golden`.
fn play(row: &Row, front: &mut dyn Front, token: &Arc<CancelToken>, golden: f64) -> GuardStats {
    let what = row.name;
    let measured = {
        let _armed = row.fault.map(|fire| {
            failpoint::arm(
                FailPlan::new()
                    .with("bench.kernel.parallel", Arm::Panic, fire)
                    .with("service.kernel.parallel", Arm::Panic, fire),
            )
        });
        if row.cancelled_before {
            token.cancel();
        }
        for _ in 0..row.warmups {
            front.run(row.serialized, Some(token)).expect("a warm-up");
        }
        front.run(row.serialized, Some(token))
    };
    assert_eq!(summary(&measured), row.expect, "{what}: measured run");
    if let Ok((checksum, reason)) = &measured {
        if reason.is_some() {
            assert_eq!(checksum.to_bits(), golden.to_bits(), "{what}: fallback");
        } else {
            assert!(close(*checksum, golden), "{what}: {checksum} != {golden}");
        }
    }
    // Every counter, the memo's included: the fronts key it differently
    // (identity + version against content), and on every row here a run
    // is a hit for one exactly when it is a hit for the other.
    let after_measured = front.stats();
    // Fit for the next run: a clean invocation on the same instance (the
    // service front checks the one it just restored back out).
    let next = front.run(false, None);
    assert_eq!(summary(&next), Some(row.follow_up), "{what}: follow-up");
    let (checksum, _) = next.expect("summarized above");
    assert!(close(checksum, golden), "{what}: instance left dirty");
    if !row.follow_up.0 {
        assert_eq!(checksum.to_bits(), golden.to_bits(), "{what}: follow-up");
    }
    after_measured
}

#[test]
fn the_two_front_doors_agree_fault_class_by_fault_class() {
    failpoint::silence_injected_panics();
    let pool = ThreadPool::new(2);
    for row in rows() {
        let kernel = kernel_by_name(row.kernel).expect("registry kernel");
        let make = |token: &Arc<CancelToken>| -> Box<dyn KernelInstance> {
            let mut inner = kernel.prepare("test");
            if row.script.tampered {
                assert!(inner.tamper_index_arrays());
            }
            Box::new(Scripted {
                inner,
                script: row.script,
                token: Arc::clone(token),
                step: Cell::new(0),
            })
        };
        let golden = {
            let mut twin = make(&Arc::new(CancelToken::new()));
            twin.run_serial();
            twin.checksum()
        };

        let token = Arc::new(CancelToken::new());
        let mut harness = HarnessFront {
            harness: GuardedHarness::new(kernel.as_ref(), AlgorithmLevel::New),
            inst: make(&token),
            pool: &pool,
        };
        let by_harness = play(&row, &mut harness, &token, golden);

        let token = Arc::new(CancelToken::new());
        let entry = KernelEntry::new(row.kernel, "test", AlgorithmLevel::New).expect("entry");
        entry.adopt(make(&token));
        let mut service = ServiceFront { entry, pool: &pool };
        let by_service = play(&row, &mut service, &token, golden);

        assert_eq!(by_harness, by_service, "{}: GuardStats", row.name);
    }
}
