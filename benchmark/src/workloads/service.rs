//! What the four service workloads share: the accounting every
//! `Response` carries, and the service-level per-layer metrics.

use crate::engine::{Layers, Mode, OpTrace, Recorder};
use crate::stats;
use std::time::Instant;
use subsub_service::{RequestTelemetry, ServiceStats};

/// The client's samples of the service's own accounting, in ns.
#[derive(Debug, Default)]
pub struct ServiceSamples {
    queued: Vec<u64>,
    worker: Vec<u64>,
    handoff: Vec<u64>,
}

impl ServiceSamples {
    /// Takes one response's accounting. `keep` is set in the plain
    /// segments of a traced run: in traced segments the replay competes
    /// with the service for the cores and the caches. When the op is
    /// traced, its request span is rebuilt too — the service reports
    /// durations, not instants, so queueing is placed at submit and the
    /// worker right after it.
    pub fn record(
        &mut self,
        telemetry: &RequestTelemetry,
        start: Instant,
        end: Instant,
        keep: bool,
        at: Option<OpTrace>,
        rec: &mut Recorder,
    ) {
        let (q, s) = (telemetry.queued, telemetry.service);
        if keep {
            self.queued.push(q.as_nanos() as u64);
            self.worker.push(s.as_nanos() as u64);
            self.handoff
                .push((end - start).saturating_sub(q + s).as_nanos() as u64);
        }
        if let Some(at) = at {
            let t = &mut rec.tracer;
            let request = t.span("service.request", at.op_id, at.root, start, end, 0);
            let handed = (start + q).min(end);
            t.span("service.queued", at.op_id, request, start, handed, 0);
            t.span(
                "service.worker",
                at.op_id,
                request,
                handed,
                (handed + s).min(end),
                0,
            );
        }
    }
}

/// The metrics every service workload reports: the p50s of the service's
/// accounting, the tail of the client latency, and the counters that
/// must stay 0.
pub fn put_service_metrics(
    out: &mut Layers,
    workload: &str,
    samples: &ServiceSamples,
    rec: &Recorder,
    stats_now: &ServiceStats,
) {
    out.put_median("service.queue_us_p50", &samples.queued, 1e-3);
    out.put_median("service.worker_us_p50", &samples.worker, 1e-3);
    out.put_median("service.handoff_us_p50", &samples.handoff, 1e-3);
    let mut all: Vec<u64> = rec.lat[Mode::Plain as usize]
        .iter()
        .flatten()
        .copied()
        .collect();
    if let Some((_, v)) = stats::tail(&mut all) {
        out.put(
            format!("service.request_p99_us.{workload}"),
            v as f64 / 1e3,
            all.len() as u64,
        );
    }
    out.put(
        "service.shed",
        stats_now.total_shed() as f64,
        stats_now.admitted,
    );
    out.put(
        "service.serialized",
        stats_now.serialized_requests as f64,
        stats_now.admitted,
    );
}
