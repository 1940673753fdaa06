//! Flight-recorder trace capture for one guarded kernel run.
//!
//! [`capture_trace`] arms the telemetry subsystem, drives one kernel
//! from the registry through the full guarded pipeline (analysis
//! decision → breaker admission → scalar check → cached inspection →
//! tamper gate → dispatch) on a real thread pool, and additionally runs
//! one pool-sized synthetic inspection so the fork-join machinery is
//! exercised even for kernels whose own index arrays sit below the
//! parallel-inspection threshold (or that are analysis-serial and never
//! reach the guard's inspector at all).
//!
//! The captured events are rendered to the Chrome `trace_event` format
//! and validated with the strict parser before being reported — the CI
//! smoke step fails on any malformed trace or any missing span family.

use crate::guarded::GuardedHarness;
use subsub_core::AlgorithmLevel;
use subsub_kernels::kernel_by_name;
use subsub_omprt::{Schedule, ThreadPool};
use subsub_rtcheck::{Bindings, GuardedExecutor, IndexArrayView, MonotoneReq, PAR_THRESHOLD};
use subsub_telemetry as telemetry;
use subsub_telemetry::{EventKind, TraceSummary};

/// Everything one capture produced.
#[derive(Debug, Clone)]
pub struct TraceArtifacts {
    /// The Chrome `trace_event` JSON document.
    pub chrome_json: String,
    /// The `subsub-telemetry/v1` metrics snapshot document.
    pub snapshot_json: String,
    /// The validator's summary of the (validated) trace.
    pub summary: TraceSummary,
    /// Flight-recorder events captured during the armed scope.
    pub events: usize,
}

/// Span families every capture must contain. Each entry is (event-name
/// prefix in the trace, human description).
const REQUIRED_FAMILIES: &[(&str, &str)] = &[
    ("region", "fork-join region span"),
    ("region_fork", "region fork instant"),
    ("region_join", "region join instant"),
    ("inspect", "inspector scan span"),
    ("guard_decide", "guard decision span"),
    ("dispatch", "guarded dispatch span"),
    ("guard_verdict", "guard verdict instant"),
];

/// Captures, renders, validates, and checks completeness; any failure
/// is a human-readable string the CLI prints before exiting nonzero.
pub fn capture_trace(
    kernel_name: &str,
    dataset: Option<&str>,
    threads: usize,
) -> Result<TraceArtifacts, String> {
    let kernel =
        kernel_by_name(kernel_name).ok_or_else(|| format!("unknown kernel {kernel_name:?}"))?;
    let dataset = match dataset {
        Some(d) => d.to_string(),
        None => kernel
            .datasets()
            .first()
            .copied()
            .ok_or_else(|| format!("kernel {kernel_name:?} has no datasets"))?
            .to_string(),
    };
    let pool = ThreadPool::new(threads.max(1));

    let armed = telemetry::arm();
    let harness = GuardedHarness::new(kernel.as_ref(), AlgorithmLevel::New);
    let mut inst = kernel.prepare(&dataset);
    // Two invocations: the second exercises the inspector cache's hit
    // path, so the trace shows both a miss+scan and a revalidation.
    harness.run(inst.as_mut(), &pool, Schedule::static_default());
    inst.reset();
    harness.run(inst.as_mut(), &pool, Schedule::static_default());
    synthetic_pooled_inspection(&pool);
    let events = armed.events();
    drop(armed);

    let chrome_json = telemetry::chrome_trace(&events);
    let snapshot_json = telemetry::snapshot_json();
    let summary = telemetry::validate_chrome_trace(&chrome_json)
        .map_err(|e| format!("emitted trace failed validation: {e}"))?;
    for (prefix, what) in REQUIRED_FAMILIES {
        if !summary.has_name_prefix(prefix) {
            return Err(format!(
                "trace is missing a {what} (no event named {prefix}*); captured names: {:?}",
                summary.names
            ));
        }
    }
    Ok(TraceArtifacts {
        chrome_json,
        snapshot_json,
        summary,
        events: events.len(),
    })
}

/// One guarded decision over a synthetic strictly-monotone index array
/// large enough to push the inspector onto the thread pool
/// (`PAR_THRESHOLD` elements engage the fork-join path), so every
/// capture contains region/claim events regardless of which kernel was
/// requested.
fn synthetic_pooled_inspection(pool: &ThreadPool) {
    let ramp: Vec<usize> = (0..PAR_THRESHOLD * 2).collect();
    let view = IndexArrayView {
        name: "synthetic-ramp",
        data: &ramp,
        version: 0,
        required: MonotoneReq::Strict,
    };
    let executor = match GuardedExecutor::new(None) {
        Ok(e) => e,
        Err(_) => return, // unreachable: no check to compile
    };
    let decision = executor.decide_recoverable(view.name, &Bindings::new(), &[view], Some(pool));
    let _ = executor.execute_admitted(
        view.name,
        &decision,
        &[view.version],
        None,
        || Ok(()),
        || {},
        || (),
    );
}

/// Validates an already-rendered Chrome-trace document from disk (the
/// `trace --validate` mode): strict parse plus the per-tid invariants —
/// no completeness check, since an external trace may legitimately hold
/// a subset of the event families.
pub fn validate_trace_file(doc: &str) -> Result<TraceSummary, String> {
    telemetry::validate_chrome_trace(doc)
}

/// Formats a one-line human summary of a validated trace.
pub fn summarize(summary: &TraceSummary, events: usize) -> String {
    format!(
        "{events} events captured: {} spans, {} instants across {} threads; {} distinct names",
        summary.spans,
        summary.instants,
        summary.threads,
        summary.names.len()
    )
}

/// The per-kind counter lines the `trace` CLI prints under the summary.
pub fn counter_lines() -> Vec<String> {
    EventKind::all()
        .iter()
        .map(|k| format!("{:20} {}", k.name(), telemetry::metrics::kind_count(*k)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amgmk_capture_contains_every_required_family() {
        let art = capture_trace("AMGmk", Some("test"), 2).expect("capture should succeed");
        assert!(art.events > 0);
        assert!(art.summary.spans > 0);
        assert!(art.summary.instants > 0);
        // The snapshot document must also be valid machine-readable JSON.
        let snap = telemetry::json::parse(&art.snapshot_json).expect("snapshot parses");
        assert_eq!(
            snap.get("schema").and_then(telemetry::json::Json::as_str),
            Some("subsub-telemetry/v1")
        );
    }

    #[test]
    fn analysis_serial_kernel_still_traces_fork_join_and_guard() {
        // IS never consults the guard or the pool on its own — the
        // synthetic inspection must still produce region + guard spans.
        let art = capture_trace("IS", None, 2).expect("capture should succeed");
        assert!(art.summary.has_name_prefix("region"));
        assert!(art.summary.has_name_prefix("guard_decide"));
        assert!(art.summary.has_name_prefix("inspect"));
    }

    #[test]
    fn unknown_kernel_is_a_clean_error() {
        let err = capture_trace("NoSuchKernel", None, 1).expect_err("must fail");
        assert!(err.contains("unknown kernel"), "{err}");
    }
}
