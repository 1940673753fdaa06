//! Chaos at the service layer: seeded failpoint schedules over the
//! multi-client serve workload, exercising the request lifecycle end to
//! end — admission faults, worker dispatch deaths, kernel-body panics
//! and frontend lex/parse faults — while clients mix plain requests with
//! short deadlines, abandoned tickets, and a fuzz client streaming
//! malformed C sources through `AnalyzeSource` (which must always
//! settle as typed `Rejected`, never as a worker fault or a quarantine
//! strike).
//!
//! The acceptance invariant mirrors the kernel-level chaos sweep one
//! layer up. Whatever fires, every submitted request must settle in one
//! of the typed terminal states (`Ok`, `Shed`, `Expired`, `Abandoned`,
//! or a *classified* `Failed`) within a bounded interval:
//!
//! * no wedge — no kept ticket waits out its 60 s harness timeout;
//! * no divergence — every `Ok` execution matches the kernel's serial
//!   golden checksum;
//! * no lockout — once the storm ends, a fresh client is admitted for
//!   every mix entry (quarantined identities must re-admit via their
//!   serial probe within the backoff ladder's bounded delay);
//! * no dead arm — every site the storm's plan names was reached, so a
//!   site deleted from the code cannot survive as a row that injects
//!   nothing.
//!
//! Every run is reproducible from its seed (`ci.sh full` step
//! `chaos-serve` sweeps [`CHAOS_SERVE_SEEDS`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use subsub_core::AlgorithmLevel;
use subsub_failpoint::{self as failpoint, Arm, FailPlan};
use subsub_kernels::common::close;
use subsub_service::{
    AnalysisService, Outcome, Payload, QuarantineConfig, Request, ServiceConfig, ServiceError,
    ShedReason,
};
use subsub_sparse::rng::Rng64;

use crate::serve::SERVE_MIX;

/// Service-layer failpoint sites with the arms a schedule may legally
/// draw. Panic arms are allowed only where a `catch_unwind` is
/// guaranteed above the site (worker dispatch, kernel body — under the
/// worker's or executor's containment); the client-thread site is
/// restricted to error/delay, which its caller absorbs as a typed shed.
pub const CHAOS_SERVE_SITES: &[(&str, &[Arm])] = &[
    // Admission path, hit on the client thread under the queue lock.
    ("service.queue.push", &[Arm::Error, Arm::Delay(1)]),
    // Worker dispatch boundary (under the worker's catch_unwind).
    ("service.worker.dispatch", &[Arm::Panic, Arm::Delay(1)]),
    // Parallel kernel body (under the executor's catch_unwind).
    ("service.kernel.parallel", &[Arm::Panic, Arm::Delay(1)]),
    // Frontend lex/parse, hit on a worker thread while it analyzes an
    // `AnalyzeSource` payload. Error injects a typed `injected-fault`
    // diagnostic (a Rejected response, never a worker fault); Panic is
    // deliberately excluded — the frontend's contract is that it never
    // panics, so an injected panic would fail the storm for the wrong
    // reason.
    ("cfront.lex", &[Arm::Error, Arm::Delay(1)]),
    ("cfront.parse", &[Arm::Error, Arm::Delay(1)]),
];

/// Sources the frontend fuzz client streams during the storm, tagged
/// with whether the frontend accepts them when no fault is injected.
const FUZZ_SOURCES: &[(&str, bool)] = &[
    (
        "void f(int n, int *a) { int i; for (i = 0; i < n; i++) a[i] = i; }",
        true,
    ),
    ("void f() { x = 1; }", true),
    ("void f( {", false),
    ("void f() { x = ; }", false),
    ("void f() { /* unterminated", false),
    ("void f() { x = 1e999; }", false),
    ("}{)(", false),
];

/// The pinned seeds CI sweeps (`ci.sh full` step `chaos-serve`).
pub const CHAOS_SERVE_SEEDS: &[u64] = &[29, 8181, 424_243];

/// Shape of one chaos-serve storm.
#[derive(Debug, Clone)]
pub struct ChaosServeConfig {
    /// Storm seed (failpoint schedule + client streams derive from it).
    pub seed: u64,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests per client.
    pub requests_per_client: usize,
}

impl Default for ChaosServeConfig {
    fn default() -> ChaosServeConfig {
        ChaosServeConfig {
            seed: CHAOS_SERVE_SEEDS[0],
            clients: 6,
            requests_per_client: 12,
        }
    }
}

/// Everything one storm produced.
#[derive(Debug, Clone)]
pub struct ChaosServeReport {
    /// The storm's seed.
    pub seed: u64,
    /// Requests that completed `Ok` with a golden-matching checksum.
    pub ok: u64,
    /// Requests shed at admission (typed, immediate).
    pub shed: u64,
    /// Typed `Expired` responses.
    pub expired: u64,
    /// Tickets deliberately abandoned by their clients.
    pub abandoned: u64,
    /// Classified terminal `Failed` responses (injected faults that
    /// exhausted the serial rescue — typed, not violations).
    pub classified_failures: u64,
    /// Fuzz-client sources answered `Ok(Analyzed)`.
    pub sources_ok: u64,
    /// Fuzz-client sources answered with a typed `Rejected` (the
    /// expected state for malformed input and injected frontend faults).
    pub sources_rejected: u64,
    /// Sites whose rules actually fired during the storm.
    pub fired_sites: Vec<String>,
    /// Wall-clock of the armed storm phase.
    pub storm: Duration,
    /// Invariant violations; empty means the storm passed.
    pub violations: Vec<String>,
}

impl ChaosServeReport {
    /// Did the storm uphold every invariant?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        let fired: Vec<String> = self
            .fired_sites
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect();
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| format!("\"{}\"", v.replace('"', "'")))
            .collect();
        format!(
            "{{\n  \"seed\": {},\n  \"ok\": {},\n  \"shed\": {},\n  \"expired\": {},\n  \
             \"abandoned\": {},\n  \"classified_failures\": {},\n  \"sources_ok\": {},\n  \
             \"sources_rejected\": {},\n  \"fired_sites\": [{}],\n  \
             \"storm_ms\": {},\n  \"violations\": [{}]\n}}",
            self.seed,
            self.ok,
            self.shed,
            self.expired,
            self.abandoned,
            self.classified_failures,
            self.sources_ok,
            self.sources_rejected,
            fired.join(", "),
            self.storm.as_millis(),
            violations.join(", ")
        )
    }
}

fn sub_seed(seed: u64, tag: &str) -> u64 {
    tag.bytes().fold(seed ^ 0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn execute(kernel: &str, dataset: &str, client: &str) -> Request {
    Request::new(
        client,
        Payload::Execute {
            kernel: kernel.into(),
            dataset: dataset.into(),
        },
    )
}

struct StormCounters {
    ok: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    abandoned: AtomicU64,
    classified_failures: AtomicU64,
    divergences: AtomicU64,
    wedged: AtomicU64,
    unclassified: AtomicU64,
    sources_ok: AtomicU64,
    sources_rejected: AtomicU64,
    source_misroutes: AtomicU64,
}

/// Runs one seeded chaos-serve storm.
pub fn chaos_serve_storm(cfg: &ChaosServeConfig) -> ChaosServeReport {
    failpoint::silence_injected_panics();
    let seed = cfg.seed;
    let mut violations = Vec::new();

    let service = Arc::new(AnalysisService::start(ServiceConfig {
        workers: 3,
        pool_threads: 2,
        queue_capacity: 32,
        fairness_cap: 4,
        quarantine: QuarantineConfig {
            backoff_base: Duration::from_millis(20),
            ..QuarantineConfig::default()
        },
        ..ServiceConfig::default()
    }));
    // Goldens are computed unarmed: chaos targets the service machinery,
    // not the reference results.
    let goldens: HashMap<(String, String), f64> = SERVE_MIX
        .iter()
        .map(|(k, d)| {
            let golden = service.golden_checksum(k, d).expect("registered kernel");
            ((k.to_string(), d.to_string()), golden)
        })
        .collect();

    let counters = Arc::new(StormCounters {
        ok: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        expired: AtomicU64::new(0),
        abandoned: AtomicU64::new(0),
        classified_failures: AtomicU64::new(0),
        divergences: AtomicU64::new(0),
        wedged: AtomicU64::new(0),
        unclassified: AtomicU64::new(0),
        sources_ok: AtomicU64::new(0),
        sources_rejected: AtomicU64::new(0),
        source_misroutes: AtomicU64::new(0),
    });

    let plan = FailPlan::seeded(sub_seed(seed, "serve-storm"), CHAOS_SERVE_SITES);
    let planned = plan.sites();
    let storm_started = Instant::now();
    let fired_sites: Vec<String> = {
        let _armed = failpoint::arm(plan);
        let handles: Vec<_> = (0..cfg.clients)
            .map(|c| {
                let service = Arc::clone(&service);
                let counters = Arc::clone(&counters);
                let goldens = goldens.clone();
                let requests = cfg.requests_per_client;
                let mut rng = Rng64::seed_from_u64(sub_seed(seed, &format!("client-{c}")));
                std::thread::spawn(move || {
                    let client = format!("chaos-client-{c}");
                    for _ in 0..requests {
                        let (kernel, dataset) = SERVE_MIX[rng.gen_usize(0, SERVE_MIX.len() - 1)];
                        let style = rng.gen_usize(0, 3);
                        let mut request = execute(kernel, dataset, &client);
                        // Style 1: a deadline tight enough that some
                        // requests expire mid-flight under injected
                        // delays; style 2: an abandoned ticket.
                        if style == 1 {
                            request = request
                                .with_deadline(Duration::from_millis(rng.gen_usize(1, 20) as u64));
                        }
                        let ticket = match service.submit(request) {
                            Ok(t) => t,
                            Err(_) => {
                                counters.shed.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                        };
                        if style == 2 {
                            // Abandon: drop without receiving. The
                            // lifecycle must settle it without us.
                            counters.abandoned.fetch_add(1, Ordering::Relaxed);
                            drop(ticket);
                            continue;
                        }
                        let Some(response) = ticket.wait_timeout(Duration::from_secs(60)) else {
                            counters.wedged.fetch_add(1, Ordering::Relaxed);
                            continue;
                        };
                        match response.result {
                            Ok(Outcome::Executed { checksum, .. }) => {
                                let golden = goldens[&(kernel.to_string(), dataset.to_string())];
                                if close(checksum, golden) {
                                    counters.ok.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    counters.divergences.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Ok(_) => {
                                counters.ok.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ServiceError::Expired) => {
                                counters.expired.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ServiceError::Shed(_)) => {
                                counters.shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ServiceError::Failed(_)) => {
                                counters.classified_failures.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(
                                ServiceError::Abandoned
                                | ServiceError::Canceled
                                | ServiceError::Rejected { .. }
                                | ServiceError::UnknownKernel { .. },
                            ) => {
                                // A kept ticket must never see these.
                                counters.unclassified.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
            })
            .collect();
        // Frontend fuzz client: streams malformed and well-formed
        // sources through `AnalyzeSource` while the storm rages. Every
        // response must be a typed terminal state; `Failed` on a source
        // payload would mean the client's own bad input read as a
        // worker fault.
        let fuzz_handle = {
            let service = Arc::clone(&service);
            let counters = Arc::clone(&counters);
            let mut rng = Rng64::seed_from_u64(sub_seed(seed, "fuzz-client"));
            let rounds = cfg.requests_per_client * 2;
            std::thread::spawn(move || {
                for _ in 0..rounds {
                    let (source, _ok) = FUZZ_SOURCES[rng.gen_usize(0, FUZZ_SOURCES.len() - 1)];
                    let request = Request::new(
                        "chaos-fuzz",
                        Payload::AnalyzeSource {
                            source: source.to_string(),
                            level: AlgorithmLevel::New,
                        },
                    );
                    let ticket = match service.submit(request) {
                        Ok(t) => t,
                        Err(_) => {
                            counters.shed.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                    };
                    let Some(response) = ticket.wait_timeout(Duration::from_secs(60)) else {
                        counters.wedged.fetch_add(1, Ordering::Relaxed);
                        continue;
                    };
                    match response.result {
                        Ok(_) => {
                            counters.sources_ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServiceError::Rejected { code, .. }) => {
                            if code.is_empty() {
                                counters.source_misroutes.fetch_add(1, Ordering::Relaxed);
                            } else {
                                counters.sources_rejected.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(ServiceError::Expired) => {
                            counters.expired.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServiceError::Shed(_)) => {
                            counters.shed.fetch_add(1, Ordering::Relaxed);
                        }
                        // An injected *service* fault (worker dispatch
                        // panic) can fail any payload mid-storm; the
                        // "bad input never reads as a worker fault"
                        // invariant is asserted disarmed, post-storm.
                        Err(ServiceError::Failed(_)) => {
                            counters.classified_failures.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            counters.source_misroutes.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        };
        for h in handles.into_iter().chain(std::iter::once(fuzz_handle)) {
            if h.join().is_err() {
                violations.push(format!("[seed {seed}] a client thread panicked"));
            }
        }
        for site in planned.iter().filter(|s| failpoint::hits(s) == 0) {
            violations.push(format!(
                "[seed {seed}] {site}: named by the plan, never reached (a dead arm)"
            ));
        }
        planned
            .into_iter()
            .filter(|s| failpoint::fired(s) > 0)
            .collect()
    };
    let storm = storm_started.elapsed();

    // Post-storm (disarmed): no lockout. Every mix identity must
    // re-admit for a fresh client — quarantined ones via their serial
    // probe within the backoff ladder's bounded delay.
    for (kernel, dataset) in SERVE_MIX {
        let golden = goldens[&(kernel.to_string(), dataset.to_string())];
        let mut settled = false;
        for _attempt in 0..200 {
            match service.submit(execute(kernel, dataset, "post-storm")) {
                Ok(t) => {
                    let Some(response) = t.wait_timeout(Duration::from_secs(60)) else {
                        violations
                            .push(format!("[seed {seed}] {kernel}: post-storm ticket wedged"));
                        settled = true;
                        break;
                    };
                    match response.result {
                        Ok(Outcome::Executed { checksum, .. }) => {
                            if !close(checksum, golden) {
                                violations.push(format!(
                                    "[seed {seed}] {kernel}: post-storm divergence \
                                     ({checksum} != {golden})"
                                ));
                            }
                            settled = true;
                            break;
                        }
                        Ok(_) => {
                            settled = true;
                            break;
                        }
                        Err(e) => {
                            violations.push(format!(
                                "[seed {seed}] {kernel}: post-storm request failed: {e}"
                            ));
                            settled = true;
                            break;
                        }
                    }
                }
                Err(ShedReason::Quarantined) => {
                    // Expected for identities struck during the storm:
                    // wait out the probe backoff and retry.
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(other) => {
                    violations.push(format!(
                        "[seed {seed}] {kernel}: post-storm shed {other:?} after disarm"
                    ));
                    settled = true;
                    break;
                }
            }
        }
        if !settled {
            violations.push(format!(
                "[seed {seed}] {kernel}: still locked out 200 attempts after the storm"
            ));
        }
    }

    // Post-storm frontend trust boundary (disarmed): malformed source
    // rejects typed, strikes nothing, and leaves the client admitted;
    // an oversized body is shed at the door; a valid source analyzes.
    let bad_payload = Payload::AnalyzeSource {
        source: "void f( {".to_string(),
        level: AlgorithmLevel::New,
    };
    for round in 0..2 {
        match service
            .submit(Request::new("post-storm-frontend", bad_payload.clone()))
            .ok()
            .and_then(|t| t.wait_timeout(Duration::from_secs(60)))
        {
            Some(response) => match response.result {
                Err(ServiceError::Rejected { code, .. }) if !code.is_empty() => {}
                other => violations.push(format!(
                    "[seed {seed}] malformed source round {round} not typed-rejected: {other:?}"
                )),
            },
            None => violations.push(format!(
                "[seed {seed}] malformed source round {round} shed or wedged after disarm"
            )),
        }
    }
    if service.is_quarantined(&bad_payload) {
        violations.push(format!(
            "[seed {seed}] malformed source was quarantined (client input read as worker fault)"
        ));
    }
    let oversized = Request::new(
        "post-storm-frontend",
        Payload::AnalyzeSource {
            source: "x".repeat(ServiceConfig::default().parse_budget.max_input_bytes + 1),
            level: AlgorithmLevel::New,
        },
    );
    match service.submit(oversized) {
        Err(ShedReason::OverBudget) => {}
        other => violations.push(format!(
            "[seed {seed}] oversized source not shed OverBudget: {:?}",
            other.map(|_| "admitted")
        )),
    }
    match service
        .submit(Request::new(
            "post-storm-frontend",
            Payload::AnalyzeSource {
                source: FUZZ_SOURCES[0].0.to_string(),
                level: AlgorithmLevel::New,
            },
        ))
        .ok()
        .and_then(|t| t.wait_timeout(Duration::from_secs(60)))
    {
        Some(response) => {
            if !matches!(response.result, Ok(Outcome::Analyzed(_))) {
                violations.push(format!(
                    "[seed {seed}] valid source failed to analyze after disarm"
                ));
            }
        }
        None => violations.push(format!(
            "[seed {seed}] valid source shed or wedged after disarm"
        )),
    }

    service.shutdown();

    let divergences = counters.divergences.load(Ordering::Relaxed);
    if divergences > 0 {
        violations.push(format!(
            "[seed {seed}] {divergences} checksum divergences from the golden path"
        ));
    }
    let wedged = counters.wedged.load(Ordering::Relaxed);
    if wedged > 0 {
        violations.push(format!("[seed {seed}] {wedged} kept tickets wedged"));
    }
    let unclassified = counters.unclassified.load(Ordering::Relaxed);
    if unclassified > 0 {
        violations.push(format!(
            "[seed {seed}] {unclassified} kept tickets saw lifecycle errors meant for \
             abandoned or doomed requests"
        ));
    }
    if counters.ok.load(Ordering::Relaxed) == 0 {
        violations.push(format!("[seed {seed}] no request completed successfully"));
    }
    let source_misroutes = counters.source_misroutes.load(Ordering::Relaxed);
    if source_misroutes > 0 {
        violations.push(format!(
            "[seed {seed}] {source_misroutes} source payloads settled outside the typed \
             reject/analyze states"
        ));
    }

    ChaosServeReport {
        seed,
        ok: counters.ok.load(Ordering::Relaxed),
        shed: counters.shed.load(Ordering::Relaxed),
        expired: counters.expired.load(Ordering::Relaxed),
        abandoned: counters.abandoned.load(Ordering::Relaxed),
        classified_failures: counters.classified_failures.load(Ordering::Relaxed),
        sources_ok: counters.sources_ok.load(Ordering::Relaxed),
        sources_rejected: counters.sources_rejected.load(Ordering::Relaxed),
        fired_sites,
        storm,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_table_restricts_unprotected_paths() {
        for (site, arms) in CHAOS_SERVE_SITES {
            if site.starts_with("service.queue") {
                assert!(
                    !arms.contains(&Arm::Panic),
                    "{site} is hit outside a guaranteed catch_unwind; Panic would abort"
                );
            }
            if site.starts_with("cfront.") {
                assert!(
                    !arms.contains(&Arm::Panic),
                    "{site}: the frontend's contract is panic-freedom; inject typed faults only"
                );
            }
        }
    }

    #[test]
    fn sub_seeds_differ_per_tag() {
        assert_ne!(sub_seed(3, "client-0"), sub_seed(3, "client-1"));
        assert_eq!(sub_seed(3, "serve-storm"), sub_seed(3, "serve-storm"));
    }

    /// One pinned-seed storm end to end (small enough for the tier-1
    /// test suite; the full sweep runs in `ci.sh full`).
    #[test]
    fn pinned_seed_storm_upholds_the_invariants() {
        let report = chaos_serve_storm(&ChaosServeConfig {
            seed: CHAOS_SERVE_SEEDS[0],
            clients: 4,
            requests_per_client: 6,
        });
        assert!(
            report.ok(),
            "chaos-serve violations: {:?}",
            report.violations
        );
    }
}
