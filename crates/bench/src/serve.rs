//! Seeded multi-client closed-loop workload against the
//! [`AnalysisService`] — the service-layer counterpart of the chaos
//! sweep.
//!
//! N client threads each issue a deterministic stream of mixed kernel
//! requests (subscripted-subscript kernels on their small datasets) in
//! a closed loop: submit, wait, record latency, repeat. The workload
//! runs in two phases over the same request mix — a **cold** phase that
//! populates the kernels' executor memos and a **warm** phase that must
//! be served from them — with an optional mid-run kill-a-worker fault
//! injection during the warm phase. Every response's checksum is
//! compared against the kernel's serial golden checksum; any divergence
//! is an incorrect dispatch and fails the run.
//!
//! The report carries throughput, latency quantiles, per-phase cache
//! hit rates, shed/degradation counters, and the in-flight high-water
//! mark (the acceptance bar asks for ≥8 requests genuinely in flight).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use subsub_failpoint::{self as failpoint, Arm, FailPlan, Fire};
use subsub_kernels::common::close;
use subsub_service::{AnalysisService, Outcome, Payload, Request, ServiceConfig, ShardStats};
use subsub_sparse::rng::Rng64;

/// The request mix: subscripted-subscript kernels whose guarded path
/// exercises inspection, plus one regular kernel for contrast. All on
/// the small `test` datasets so a smoke run stays fast.
pub const SERVE_MIX: &[(&str, &str)] = &[
    ("AMGmk", "test"),
    ("CHOLMOD-Supernodal", "test"),
    ("SDDMM", "test"),
    ("UA(transf)", "test"),
    ("CG", "test"),
    ("heat-3d", "test"),
];

/// Workload shape.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Workload seed (client streams derive from it).
    pub seed: u64,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests per client per phase.
    pub requests_per_client: usize,
    /// Inject a worker-killing panic mid-way through the warm phase.
    pub kill_worker: bool,
    /// Service tunables.
    pub service: ServiceConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            seed: 0x5eed_5e47,
            clients: 12,
            requests_per_client: 16,
            kill_worker: true,
            service: ServiceConfig::default(),
        }
    }
}

/// Latency quantiles in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyQuantiles {
    /// Median.
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
}

fn quantiles(mut samples: Vec<u64>) -> LatencyQuantiles {
    if samples.is_empty() {
        return LatencyQuantiles::default();
    }
    samples.sort_unstable();
    let at = |q: f64| samples[((samples.len() - 1) as f64 * q) as usize];
    LatencyQuantiles {
        p50_us: at(0.50),
        p90_us: at(0.90),
        p99_us: at(0.99),
    }
}

/// Per-phase accounting.
#[derive(Debug, Clone, Default)]
pub struct PhaseReport {
    /// Requests completed.
    pub completed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Wall-clock duration of the phase.
    pub duration: Duration,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Latency quantiles over completed requests.
    pub latency: LatencyQuantiles,
    /// Share of the phase's verdict lookups served from an executor
    /// memo.
    pub hit_rate: f64,
}

/// Full workload report.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The seed the workload ran under.
    pub seed: u64,
    /// Cold phase (cache population).
    pub cold: PhaseReport,
    /// Warm phase (cache service, optional chaos).
    pub warm: PhaseReport,
    /// Checksum divergences from the serial golden path (must be 0).
    pub divergences: u64,
    /// Tickets that timed out (wedged queue; must be 0).
    pub wedged: u64,
    /// Requests that failed terminally (must be 0).
    pub failures: u64,
    /// In-flight high-water mark across the whole run.
    pub max_inflight: u64,
    /// Requests kept serial by policy (quarantine probes, open
    /// breakers).
    pub serialized_requests: u64,
    /// Final verdict-lookup counters, summed over the executor memos.
    pub cache: ShardStats,
}

impl ServeReport {
    /// The invariants a passing run must uphold. Returns violations as
    /// human-readable strings (empty = pass).
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.divergences > 0 {
            v.push(format!(
                "{} checksum divergences from the serial golden path",
                self.divergences
            ));
        }
        if self.wedged > 0 {
            v.push(format!("{} tickets timed out (queue wedged)", self.wedged));
        }
        if self.failures > 0 {
            v.push(format!("{} requests failed terminally", self.failures));
        }
        if self.cold.completed == 0 || self.warm.completed == 0 {
            v.push("a phase completed zero requests".into());
        }
        if self.warm.hit_rate < 0.90 {
            v.push(format!(
                "warm-phase hit rate {:.1}% below the 90% bar",
                self.warm.hit_rate * 100.0
            ));
        }
        if self.max_inflight < 8 {
            v.push(format!(
                "max in-flight {} never reached 8 concurrent requests",
                self.max_inflight
            ));
        }
        v
    }

    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        fn phase(p: &PhaseReport) -> String {
            format!(
                "{{\"completed\": {}, \"shed\": {}, \"duration_ms\": {}, \"throughput_rps\": {:.1}, \
                 \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"hit_rate\": {:.4}}}",
                p.completed,
                p.shed,
                p.duration.as_millis(),
                p.throughput_rps,
                p.latency.p50_us,
                p.latency.p90_us,
                p.latency.p99_us,
                p.hit_rate,
            )
        }
        format!(
            "{{\n  \"seed\": {},\n  \"cold\": {},\n  \"warm\": {},\n  \"divergences\": {},\n  \
             \"wedged\": {},\n  \"failures\": {},\n  \"max_inflight\": {},\n  \
             \"serialized_requests\": {},\n  \
             \"cache\": {{\"hits\": {}, \"misses\": {}}}\n}}",
            self.seed,
            phase(&self.cold),
            phase(&self.warm),
            self.divergences,
            self.wedged,
            self.failures,
            self.max_inflight,
            self.serialized_requests,
            self.cache.hits,
            self.cache.misses,
        )
    }
}

struct PhaseCounters {
    completed: AtomicU64,
    shed: AtomicU64,
    divergences: AtomicU64,
    wedged: AtomicU64,
    failures: AtomicU64,
    latencies_us: Mutex<Vec<u64>>,
}

impl PhaseCounters {
    fn new() -> PhaseCounters {
        PhaseCounters {
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            divergences: AtomicU64::new(0),
            wedged: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            latencies_us: Mutex::new(Vec::new()),
        }
    }
}

fn run_phase(
    service: &Arc<AnalysisService>,
    cfg: &ServeConfig,
    goldens: &HashMap<(String, String), f64>,
    phase_tag: u64,
) -> (PhaseReport, PhaseCounters) {
    let counters = Arc::new(PhaseCounters::new());
    let before = service.stats().cache;
    let started = Instant::now();
    let handles: Vec<_> = (0..cfg.clients)
        .map(|c| {
            let service = Arc::clone(service);
            let counters = Arc::clone(&counters);
            let goldens = goldens.clone();
            let requests = cfg.requests_per_client;
            let mut rng = Rng64::seed_from_u64(
                cfg.seed ^ (c as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ phase_tag,
            );
            std::thread::spawn(move || {
                let client = format!("client-{c}");
                for _ in 0..requests {
                    let (kernel, dataset) = SERVE_MIX[rng.gen_usize(0, SERVE_MIX.len() - 1)];
                    let submitted = Instant::now();
                    let ticket = match service.submit(Request {
                        client: client.clone(),
                        deadline: None,
                        payload: Payload::Execute {
                            kernel: kernel.into(),
                            dataset: dataset.into(),
                        },
                    }) {
                        Ok(t) => t,
                        Err(_) => {
                            counters.shed.fetch_add(1, Ordering::Relaxed);
                            // Closed loop under shed: brief backoff keeps
                            // the loop from spinning on a full queue.
                            std::thread::sleep(Duration::from_millis(1));
                            continue;
                        }
                    };
                    let Some(response) = ticket.wait_timeout(Duration::from_secs(120)) else {
                        counters.wedged.fetch_add(1, Ordering::Relaxed);
                        continue;
                    };
                    let latency_us = submitted.elapsed().as_micros() as u64;
                    match response.result {
                        Ok(Outcome::Executed { checksum, .. }) => {
                            counters.completed.fetch_add(1, Ordering::Relaxed);
                            let golden = goldens[&(kernel.to_string(), dataset.to_string())];
                            if !close(checksum, golden) {
                                counters.divergences.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Ok(_) => {
                            counters.completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            counters.failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    counters
                        .latencies_us
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(latency_us);
                }
            })
        })
        .collect();
    for h in handles {
        let _ = h.join();
    }
    let duration = started.elapsed();
    let s = service.stats().cache;
    let reused = s.hits - before.hits;
    let lookups = reused + s.misses - before.misses;
    let completed = counters.completed.load(Ordering::Relaxed);
    let latencies = std::mem::take(
        &mut *counters
            .latencies_us
            .lock()
            .unwrap_or_else(|e| e.into_inner()),
    );
    let report = PhaseReport {
        completed,
        shed: counters.shed.load(Ordering::Relaxed),
        duration,
        throughput_rps: completed as f64 / duration.as_secs_f64().max(1e-9),
        latency: quantiles(latencies),
        hit_rate: if lookups == 0 {
            0.0
        } else {
            reused as f64 / lookups as f64
        },
    };
    let counters = Arc::try_unwrap(counters)
        .unwrap_or_else(|_| panic!("phase threads joined, counters uniquely owned"));
    (report, counters)
}

/// Runs the full two-phase workload against a fresh service.
pub fn run_serve_workload(cfg: &ServeConfig) -> ServeReport {
    let service = Arc::new(AnalysisService::start(cfg.service.clone()));
    // Golden serial checksums, computed once up front on dedicated
    // instances — the divergence oracle for every response.
    let mut goldens = HashMap::new();
    for (kernel, dataset) in SERVE_MIX {
        let g = service
            .golden_checksum(kernel, dataset)
            .unwrap_or_else(|e| panic!("golden for {kernel}:{dataset}: {e}"));
        goldens.insert((kernel.to_string(), dataset.to_string()), g);
    }

    let (cold, cold_counters) = run_phase(&service, cfg, &goldens, 0xc01d);

    // Warm phase, optionally under chaos: one omprt pool worker is
    // killed mid-phase; the pool self-heals and the service serializes
    // briefly, but every ticket must still complete correctly.
    let chaos = cfg.kill_worker.then(|| {
        failpoint::silence_injected_panics();
        failpoint::arm(FailPlan::new().with("omprt.worker.wake", Arm::Panic, Fire::nth(20)))
    });
    let (warm, warm_counters) = run_phase(&service, cfg, &goldens, 0x3a4b);
    drop(chaos);

    let stats = service.stats();
    service.shutdown();
    ServeReport {
        seed: cfg.seed,
        cold,
        warm,
        divergences: cold_counters.divergences.load(Ordering::Relaxed)
            + warm_counters.divergences.load(Ordering::Relaxed),
        wedged: cold_counters.wedged.load(Ordering::Relaxed)
            + warm_counters.wedged.load(Ordering::Relaxed),
        failures: cold_counters.failures.load(Ordering::Relaxed)
            + warm_counters.failures.load(Ordering::Relaxed),
        max_inflight: stats.max_inflight,
        serialized_requests: stats.serialized_requests,
        cache: stats.cache,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature workload upholds the correctness invariants (the
    /// concurrency/hit-rate bars are the full bin's job).
    #[test]
    fn mini_workload_has_no_divergences() {
        let cfg = ServeConfig {
            seed: 7,
            clients: 4,
            requests_per_client: 3,
            kill_worker: false,
            ..ServeConfig::default()
        };
        let report = run_serve_workload(&cfg);
        assert_eq!(report.divergences, 0);
        assert_eq!(report.wedged, 0);
        assert_eq!(report.failures, 0);
        assert!(report.warm.hit_rate > 0.0, "warm phase must reuse verdicts");
    }
}
