//! Concurrency and tamper stress tests for the analysis service.
//!
//! The properties the service's soundness rests on (that a tampered
//! index array never gets a stale verdict is held at the `KernelEntry`,
//! in `exec.rs`'s unit tests):
//! * repeated requests are answered from the executor memos, and
//!   `ServiceStats::cache` says so;
//! * an injected worker death degrades the service without wedging the
//!   queue;
//! * a faulting kernel is kept serial on its own clock — eight denied
//!   `Execute`s of *that* kernel, then a trial — while every other
//!   kernel keeps running parallel.

use std::time::Duration;
use subsub_failpoint::{self as failpoint, Arm, FailPlan, Fire};
use subsub_rtcheck::ExecError;
use subsub_service::{
    AnalysisService, Outcome, Payload, QuarantineConfig, Request, ServiceConfig, ServiceError,
    ShedReason,
};

fn execute_kernel(kernel: &str, client: &str) -> Request {
    Request::new(
        client,
        Payload::Execute {
            kernel: kernel.into(),
            dataset: "test".into(),
        },
    )
}

fn execute_request(client: &str) -> Request {
    execute_kernel("AMGmk", client)
}

/// Submits, waits, and returns why the run did not finish parallel and
/// whether the service says it kept the run serial by policy.
fn outcome_of(service: &AnalysisService, request: Request) -> (Option<ExecError>, bool) {
    let response = service.submit(request).expect("admitted").wait();
    match response.result {
        Ok(Outcome::Executed { degraded, .. }) => (degraded, response.telemetry.serialized),
        other => panic!("expected an execution outcome, got {other:?}"),
    }
}

/// Opens AMGmk's breaker: two `Execute`s whose attempt and retry both
/// fault are four consecutive faults, one more than it takes. Armed for
/// these two runs only; the caller arms its own plan afterwards (an
/// empty one keeps a sibling test's faults out of the rest).
fn open_amgmk_breaker(service: &AnalysisService) {
    failpoint::silence_injected_panics();
    let _chaos =
        failpoint::arm(FailPlan::new().with("service.kernel.parallel", Arm::Panic, Fire::always()));
    for run in 0..2 {
        let (degraded, serialized) = outcome_of(service, execute_request("faulty"));
        assert!(
            matches!(degraded, Some(ExecError::ParallelFault { .. })),
            "run {run}: {degraded:?}"
        );
        assert!(!serialized, "a rescued fault was not kept serial by policy");
    }
}

fn small_config() -> ServiceConfig {
    ServiceConfig {
        workers: 4,
        pool_threads: 2,
        ..ServiceConfig::default()
    }
}

/// The quantity `benchmark/` requires of `service.cache_hit_share`:
/// AMGmk has one index array, so its first `Execute` is the memo's one
/// miss and every later one a hit, summed into `ServiceStats::cache`.
#[test]
fn repeated_requests_are_answered_from_the_executor_memo() {
    // An empty plan, for the scope lock: a sibling's armed fault landing
    // here would end a run before its lookup.
    let _quiet = failpoint::arm(FailPlan::new());
    let service = AnalysisService::start(small_config());
    assert_eq!(
        outcome_of(&service, execute_request("first")),
        (None, false)
    );
    let first = service.stats().cache;
    assert_eq!((first.hits, first.misses), (0, 1));
    const N: u64 = 5;
    for i in 0..N {
        let again = execute_request(&format!("again-{i}"));
        assert_eq!(outcome_of(&service, again), (None, false));
    }
    let cache = service.stats().cache;
    assert_eq!((cache.hits, cache.misses), (N, 1), "N requests × 1 array");
    assert_eq!((cache.warm_hits, cache.coalesced), (0, 0));
    assert_eq!(cache.hit_rate(), N as f64 / (N + 1) as f64);
    service.shutdown();
}

/// Kill-a-worker chaos: an injected panic in an omprt pool worker while
/// requests are in flight must degrade (serial rescue, self-healed
/// pool) without wedging the queue — every ticket completes, and every
/// completed execution still matches the golden checksum.
#[test]
fn worker_death_degrades_without_wedging_the_queue() {
    failpoint::silence_injected_panics();
    let _chaos =
        failpoint::arm(FailPlan::new().with("omprt.worker.wake", Arm::Panic, Fire::nth(5)));
    let service = AnalysisService::start(small_config());
    let golden = service.golden_checksum("AMGmk", "test").expect("golden");
    let tickets: Vec<_> = (0..12)
        .map(|i| {
            service
                .submit(execute_request(&format!("chaos-{i}")))
                .expect("admitted")
        })
        .collect();
    let mut completed = 0;
    for t in tickets {
        let response = t
            .wait_timeout(Duration::from_secs(120))
            .expect("queue wedged under worker death");
        let Ok(Outcome::Executed { checksum, .. }) = response.result else {
            panic!("request failed terminally under a recoverable fault");
        };
        assert!(
            subsub_kernels::common::close(checksum, golden),
            "divergence under chaos: {checksum} vs {golden}"
        );
        completed += 1;
    }
    assert_eq!(completed, 12);
    assert_eq!(service.stats().completed, 12);
    service.shutdown();
}

/// One heavy caller cannot starve the queue: submissions beyond the
/// fairness cap shed `FairnessCap` while another client stays admitted.
#[test]
fn fairness_cap_sheds_the_heavy_caller_only() {
    let service = AnalysisService::start(ServiceConfig {
        workers: 1,
        fairness_cap: 2,
        pool_threads: 2,
        ..ServiceConfig::default()
    });
    let mut hog_tickets = Vec::new();
    let mut hog_sheds = 0;
    for _ in 0..6 {
        match service.submit(execute_request("hog")) {
            Ok(t) => hog_tickets.push(t),
            Err(ShedReason::FairnessCap) => hog_sheds += 1,
            Err(other) => panic!("unexpected shed reason {other:?}"),
        }
    }
    // The worker may drain a slot mid-loop, so the exact split varies,
    // but the cap must have bitten at least once and at most two of the
    // six can ever be in flight together.
    assert_eq!(hog_tickets.len() + hog_sheds, 6);
    assert!(hog_sheds >= 1, "cap never enforced");
    // The queue still has room for a polite client.
    let polite = service.submit(execute_request("mouse")).expect("starved");
    for t in hog_tickets {
        t.wait().result.expect("executed");
    }
    polite.wait().result.expect("executed");
    let stats = service.stats();
    assert!(stats.shed[1] >= 1, "fairness sheds must be counted");
    service.shutdown();
}

/// Regression for the abandoned-ticket leak: a client whose tickets are
/// dropped (or time out) without ever receiving their responses must
/// not hold its fairness slots forever. Each round saturates the cap
/// and abandons everything; with the old accounting (slot released only
/// by a worker completing the job it still thinks someone wants) the
/// client's budget would be exhausted after one round and every later
/// submission would shed `FairnessCap`.
#[test]
fn abandoned_tickets_free_their_fairness_slots() {
    // Best-effort wedge: the first dispatch sleeps so the early rounds
    // abandon *queued* jobs (exercising the reap path, not just
    // completion). The property below holds regardless of timing.
    let _chaos = failpoint::arm(FailPlan::new().with(
        "service.worker.dispatch",
        Arm::Delay(300),
        Fire::nth(0),
    ));
    let service = AnalysisService::start(ServiceConfig {
        workers: 1,
        fairness_cap: 2,
        pool_threads: 2,
        ..ServiceConfig::default()
    });
    let slow = service
        .submit(execute_request("slowpoke"))
        .expect("admitted");
    for round in 0..5 {
        let mut held = Vec::new();
        for _ in 0..64 {
            match service.submit(execute_request("gone")) {
                Ok(t) => held.push(t),
                Err(ShedReason::FairnessCap) => break,
                Err(other) => panic!("unexpected shed reason {other:?}"),
            }
            if held.len() >= 8 {
                break; // worker draining faster than we fill; enough held
            }
        }
        assert!(!held.is_empty(), "round {round} admitted nothing");
        // A timed-out wait abandons exactly like a drop.
        if let Some(t) = held.pop() {
            if t.wait_timeout(Duration::ZERO).is_some() {
                // Already completed — fine, slot released by the worker.
            }
        }
        drop(held);
    }
    // After five rounds of abandoned tickets, the client's budget must
    // be whole again.
    let fresh = service
        .submit(execute_request("gone"))
        .expect("abandoned tickets leaked fairness slots");
    drop(fresh);
    drop(slow);
    let stats = service.stats();
    assert!(
        stats.abandoned + stats.completed > 0,
        "lifecycle accounting recorded nothing"
    );
    service.shutdown();
}

/// Deadlines are enforced server-side: an already-expired request is
/// answered with a typed `Expired` error (never executed, never
/// wedged), and a deadline that trips mid-run cancels the kernel at a
/// cooperative boundary within a bounded interval.
#[test]
fn expired_requests_resolve_typed_and_bounded() {
    let service = AnalysisService::start(ServiceConfig {
        workers: 2,
        pool_threads: 2,
        ..ServiceConfig::default()
    });
    // (a) Expired before any worker touches it.
    let t = service
        .submit(execute_request("doomed").with_deadline(Duration::ZERO))
        .expect("admitted");
    let started = std::time::Instant::now();
    let response = t.wait_timeout(Duration::from_secs(30)).expect("wedged");
    assert!(
        matches!(response.result, Err(ServiceError::Expired)),
        "zero-deadline request must expire, got {:?}",
        response.result.map(|_| ())
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "expiry must resolve promptly"
    );
    // (b) Expired mid-run: the dispatch stalls past the deadline; the
    // janitor trips the job's token and the guard layer discards the
    // partial run instead of serving it.
    let _chaos = failpoint::arm(FailPlan::new().with(
        "service.kernel.parallel",
        Arm::Delay(150),
        Fire::always(),
    ));
    let t = service
        .submit(execute_request("mid-run").with_deadline(Duration::from_millis(15)))
        .expect("admitted");
    let started = std::time::Instant::now();
    let response = t.wait_timeout(Duration::from_secs(30)).expect("wedged");
    assert!(
        matches!(response.result, Err(ServiceError::Expired)),
        "mid-run deadline must surface as Expired"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "cancellation must stop the run within a bounded interval"
    );
    let stats = service.stats();
    assert!(stats.expired >= 2, "expired responses must be counted");
    // A deadline-free request on the same service still succeeds.
    let ok = service
        .submit(execute_request("healthy"))
        .expect("admitted")
        .wait();
    assert!(ok.result.is_ok(), "service wedged after expiries");
    service.shutdown();
}

/// Poison quarantine end-to-end: a payload identity that keeps faulting
/// workers is quarantined (shed with a typed reason while its backoff
/// runs), re-admitted only as a serial single-flight probe, and fully
/// released after the probe completes clean.
#[test]
fn quarantine_isolates_poison_payload_and_releases_on_clean_probe() {
    failpoint::silence_injected_panics();
    let service = AnalysisService::start(ServiceConfig {
        workers: 2,
        pool_threads: 2,
        quarantine: QuarantineConfig {
            strikes: 2,
            window: Duration::from_secs(30),
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(2),
        },
        ..ServiceConfig::default()
    });
    let poison = Payload::Execute {
        kernel: "AMGmk".into(),
        dataset: "test".into(),
    };
    let _chaos =
        failpoint::arm(FailPlan::new().with("service.kernel.parallel", Arm::Panic, Fire::always()));
    // Two faulting completions of the same identity = two strikes (the
    // kernel's breaker opens on the second run's first fault, after the
    // run was admitted). The guard rescues each serially, so the
    // responses still execute — but the fault class is recorded against
    // the payload.
    for strike in 0..2 {
        let r = service
            .submit(execute_request(&format!("striker-{strike}")))
            .expect("admitted")
            .wait();
        assert!(
            matches!(
                r.result,
                Ok(Outcome::Executed {
                    degraded: Some(ExecError::ParallelFault { .. }),
                    ..
                })
            ),
            "strike run must degrade, not fail terminally"
        );
    }
    assert!(
        service.is_quarantined(&poison),
        "two strikes must quarantine the identity"
    );
    // Inside the backoff window the identity is refused outright.
    match service.submit(execute_request("victim")) {
        Err(ShedReason::Quarantined) => {}
        Err(other) => panic!("expected a quarantine shed, got {other:?}"),
        Ok(_) => panic!("quarantined identity admitted inside its backoff"),
    }
    // Past the backoff, exactly one serial probe is admitted. Serial
    // execution never touches the armed parallel site, so the probe
    // completes clean and releases the identity — even though the
    // chaos plan is still armed.
    std::thread::sleep(Duration::from_millis(150));
    let probe = service
        .submit(execute_request("prober"))
        .expect("probe must be admitted after backoff")
        .wait();
    assert!(
        matches!(
            probe.result,
            Ok(Outcome::Executed {
                degraded: Some(ExecError::Serialized),
                ..
            })
        ),
        "serial probe must complete, and say it was kept serial: {:?}",
        probe.result
    );
    assert!(
        !service.is_quarantined(&poison),
        "a clean probe must release the quarantine"
    );
    let r = service
        .submit(execute_request("released"))
        .expect("released identity must admit normally")
        .wait();
    assert!(r.result.is_ok());
    let q = service.stats().quarantine;
    assert!(q.strikes >= 2 && q.quarantined >= 1 && q.probes >= 1 && q.released >= 1);
    assert!(
        service.stats().shed[4] >= 1,
        "quarantine sheds must be counted"
    );
    service.shutdown();
}

/// One cooldown clock, and it is the kernel's own: after the faults that
/// open AMGmk's breaker, exactly eight `Execute`s of AMGmk are denied up
/// front and the ninth is the half-open trial — however many requests
/// for other kernels run in between, and all of those run parallel.
#[test]
fn a_faulting_kernel_gets_its_trial_after_exactly_eight_of_its_own_denials() {
    let service = AnalysisService::start(ServiceConfig {
        workers: 1,
        pool_threads: 2,
        ..ServiceConfig::default()
    });
    open_amgmk_breaker(&service);
    let _quiet = failpoint::arm(FailPlan::new());
    let bystander = || {
        assert_eq!(
            outcome_of(&service, execute_kernel("CG", "bystander")),
            (None, false),
            "another kernel's faults must not serialize this one"
        );
    };
    bystander();
    for denial in 0..8 {
        let remaining = 7 - denial;
        assert_eq!(
            outcome_of(&service, execute_request("faulty")),
            (Some(ExecError::BreakerOpen { remaining }), true)
        );
        bystander();
        bystander();
    }
    // The trial: admitted, and the fault is gone.
    for client in ["trial", "closed"] {
        assert_eq!(outcome_of(&service, execute_request(client)), (None, false));
    }
    let stats = service.stats();
    assert_eq!(stats.serialized_requests, 8);
    assert_eq!(stats.total_shed(), 0);
    service.shutdown();
}

/// `Degraded` is shed when, and only when, some kernel is being kept
/// serial *and* the queue is at half capacity: the same fill of the same
/// queue is admitted whole while every breaker is closed.
#[test]
fn a_half_full_queue_sheds_degraded_only_while_a_breaker_is_not_closed() {
    for breaker_open in [false, true] {
        let service = AnalysisService::start(ServiceConfig {
            workers: 1,
            pool_threads: 2,
            queue_capacity: 4,
            ..ServiceConfig::default()
        });
        if breaker_open {
            open_amgmk_breaker(&service);
        }
        // Every dispatch sleeps, so the queue cannot drain while it is
        // being filled: one request for the worker and three behind it
        // is two or three queued under a capacity of four — at half,
        // never full.
        let _wedge = failpoint::arm(FailPlan::new().with(
            "service.worker.dispatch",
            Arm::Delay(100),
            Fire::always(),
        ));
        let fill: Vec<_> = (0..4)
            .map(|i| service.submit(execute_kernel("CG", &format!("fill-{i}"))))
            .collect();
        let shed: Vec<_> = fill.iter().filter_map(|r| r.as_ref().err()).collect();
        if breaker_open {
            assert!(fill[0].is_ok() && fill[1].is_ok(), "below half capacity");
            assert_eq!(fill[3].as_ref().err(), Some(&ShedReason::Degraded));
            assert!(shed.iter().all(|r| **r == ShedReason::Degraded), "{shed:?}");
        } else {
            assert!(shed.is_empty(), "healthy service shed {shed:?}");
        }
        let degraded_sheds = service.stats().shed[(ShedReason::Degraded.code() - 1) as usize];
        assert_eq!(degraded_sheds, shed.len() as u64);
        for ticket in fill.into_iter().flatten() {
            ticket.wait().result.expect("a queued request still runs");
        }
        service.shutdown();
    }
}

/// Shutdown drains queued requests as structured shed responses instead
/// of leaving callers blocked forever.
#[test]
fn shutdown_fulfills_pending_tickets() {
    let service = AnalysisService::start(ServiceConfig {
        workers: 1,
        pool_threads: 2,
        ..ServiceConfig::default()
    });
    let tickets: Vec<_> = (0..4)
        .filter_map(|i| service.submit(execute_request(&format!("c{i}"))).ok())
        .collect();
    service.shutdown();
    for t in tickets {
        // Completed or shed-at-shutdown — but never wedged.
        let response = t.wait_timeout(Duration::from_secs(30)).expect("wedged");
        if let Err(e) = response.result {
            assert!(
                matches!(e, subsub_service::ServiceError::Shed(ShedReason::Shutdown)),
                "unexpected terminal error: {e}"
            );
        }
    }
    assert!(service.submit(execute_request("late")).is_err());
}

/// Malformed source is the client's own bad input: every submission
/// resolves to a typed `Rejected` (stable code + diagnostic), the worker
/// never faults, and the payload identity never accrues quarantine
/// strikes no matter how many times it is resubmitted.
#[test]
fn malformed_source_rejects_typed_without_quarantine() {
    let service = AnalysisService::start(small_config());
    let payload = Payload::AnalyzeSource {
        source: "void f( {".into(),
        level: subsub_core::AlgorithmLevel::New,
    };
    for round in 0..4 {
        let r = service
            .submit(Request::new(format!("mal-{round}"), payload.clone()))
            .expect("malformed source must be admitted, not shed")
            .wait();
        match r.result {
            Err(ServiceError::Rejected { code, detail }) => {
                assert!(!code.is_empty(), "rejection must carry a stable code");
                assert!(!detail.is_empty());
            }
            other => panic!("expected a typed rejection, got {other:?}"),
        }
    }
    assert!(
        !service.is_quarantined(&payload),
        "client-side bad input must never strike the quarantine ladder"
    );
    // A well-formed source on the same connection still analyzes.
    let ok = service
        .submit(Request::new(
            "mal-ok",
            Payload::AnalyzeSource {
                source: "void f(int n, double *x) { int i; for (i = 0; i < n; i++) x[i] = 0.0; }"
                    .into(),
                level: subsub_core::AlgorithmLevel::New,
            },
        ))
        .expect("admitted")
        .wait();
    assert!(matches!(ok.result, Ok(Outcome::Analyzed(_))));
    service.shutdown();
}

/// Oversized sources shed `OverBudget` at admission (before queueing);
/// in-budget sources that exceed structural limits reject deterministically
/// with the typed `budget-*` diagnostic.
#[test]
fn over_budget_sources_shed_or_reject_deterministically() {
    let mut cfg = small_config();
    cfg.parse_budget.max_input_bytes = 1024;
    cfg.parse_budget.max_depth = 16;
    let service = AnalysisService::start(cfg);
    // Admission rung: too many bytes → typed shed, counted.
    let huge = Payload::AnalyzeSource {
        source: "x".repeat(4096),
        level: subsub_core::AlgorithmLevel::New,
    };
    match service.submit(Request::new("big", huge)) {
        Err(ShedReason::OverBudget) => {}
        Err(other) => panic!("expected an over-budget shed, got {other:?}"),
        Ok(_) => panic!("oversized source must not be admitted"),
    }
    assert!(
        service.stats().shed[(ShedReason::OverBudget.code() - 1) as usize] >= 1,
        "over-budget sheds must be counted"
    );
    // Worker rung: within byte budget but hostile nesting → the same
    // typed diagnostic on every resubmission.
    let deep = format!("void f() {{ x = {}1{}; }}", "(".repeat(64), ")".repeat(64));
    let mut details = Vec::new();
    for round in 0..2 {
        let r = service
            .submit(Request::new(
                format!("deep-{round}"),
                Payload::AnalyzeSource {
                    source: deep.clone(),
                    level: subsub_core::AlgorithmLevel::New,
                },
            ))
            .expect("admitted")
            .wait();
        match r.result {
            Err(ServiceError::Rejected { code, detail }) => {
                assert_eq!(code, "budget-depth");
                details.push(detail);
            }
            other => panic!("expected a budget rejection, got {other:?}"),
        }
    }
    assert_eq!(
        details[0], details[1],
        "budget rejections must be deterministic"
    );
    service.shutdown();
}
