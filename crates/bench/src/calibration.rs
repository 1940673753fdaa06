//! Structural validation of `BENCH_forkjoin.json` calibration files.
//!
//! The simulator's own `MachineCalibration::from_json` reads three
//! top-level keys; it cannot notice a calibration file that was
//! measured at the *wrong thread counts* (e.g. CI requests
//! `--threads 1,2,4` but a stale file measured at `1,2` is lying
//! around). [`validate_calibration_doc`] parses the document once,
//! checks the scalar constants the simulator needs, and — when the
//! caller says which thread counts it asked for — verifies the measured
//! `series` matches them exactly, in order.

use subsub_omprt::MachineCalibration;
use subsub_telemetry::json::{parse, Json};

/// Fork-join latency of the mutex/condvar pool this runtime replaced in
/// PR 2, per team size, as `forkjoin_calibrate` last measured it (on the
/// 4-core host of PR 3) before that pool was deleted. Recorded constants:
/// the calibration file keeps carrying them so the improvement stays on
/// record, but nothing can re-measure them.
pub const LEGACY_FORK_JOIN_NS: &[(usize, f64)] = &[(1, 2423.1), (2, 3298.2), (4, 6256.9)];

/// The recorded legacy latency for a team of `threads`: the entry at the
/// largest recorded team size not above it.
pub fn legacy_fork_join_ns(threads: usize) -> f64 {
    LEGACY_FORK_JOIN_NS
        .iter()
        .rev()
        .find(|(t, _)| *t <= threads)
        .unwrap_or(&LEGACY_FORK_JOIN_NS[0])
        .1
}

/// The team sizes a calibration run measures when `requested` was asked
/// for on a host with `cores` cores: never more threads than cores (an
/// oversubscribed team times the scheduler, not the pool), in order,
/// without the repeats the cap creates.
pub fn measured_threads(requested: &[usize], cores: usize) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::with_capacity(requested.len());
    for &t in requested {
        let t = t.clamp(1, cores.max(1));
        if !out.contains(&t) {
            out.push(t);
        }
    }
    out
}

/// Where a `BENCH_*.json` file's numbers were taken, as a JSON object:
/// the host's cores, the team sizes actually run, and the compiler and
/// flags (`-C target-cpu=…` among them) that built the binary.
pub fn host_facts_json(threads_used: &[usize]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    format!(
        "{{\"nproc\":{nproc},\"threads_used\":{threads_used:?},\"rustflags\":\"{}\",\"rustc\":\"{}\"}}",
        env!("SUBSUB_BENCH_RUSTFLAGS").replace('"', "'"),
        env!("SUBSUB_BENCH_RUSTC").replace('"', "'"),
    )
}

/// What a valid calibration document said.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationSummary {
    /// Median empty fork-join latency, nanoseconds.
    pub fork_join_ns: f64,
    /// Per-claim dynamic dispatch overhead, nanoseconds.
    pub dispatch_ns: f64,
    /// Thread count the calibration point was measured at.
    pub cal_threads: usize,
    /// Thread counts of the measured series, in document order.
    pub series_threads: Vec<usize>,
}

/// Validates a calibration document: strict JSON, expected schema,
/// finite/positive constants, a usable simulator parse, and — when
/// `requested` is given — a `series` measured at exactly those thread
/// counts (the caller caps them with [`measured_threads`] first, as
/// the calibration run did) with the calibration point taken at the
/// last of them.
pub fn validate_calibration_doc(
    doc: &str,
    requested: Option<&[usize]>,
) -> Result<CalibrationSummary, String> {
    let root = parse(doc).map_err(|e| format!("not valid JSON: {e}"))?;
    match root.get("schema").and_then(Json::as_str) {
        Some("subsub-forkjoin/v1") => {}
        other => return Err(format!("unexpected schema {other:?}")),
    }
    let cal = MachineCalibration::from_json(&root)
        .ok_or("not a valid forkjoin calibration document (simulator parse failed)")?;
    if !(cal.fork_join_ns.is_finite() && cal.fork_join_ns > 0.0) {
        return Err(format!(
            "fork_join_ns={} not finite/positive",
            cal.fork_join_ns
        ));
    }
    if !(cal.dispatch_ns.is_finite() && cal.dispatch_ns > 0.0) {
        return Err(format!(
            "dispatch_ns={} not finite/positive",
            cal.dispatch_ns
        ));
    }
    let series = root
        .get("series")
        .and_then(Json::as_array)
        .ok_or("document has no \"series\" array")?;
    let mut series_threads = Vec::with_capacity(series.len());
    for point in series {
        let t = point
            .get("threads")
            .and_then(Json::as_u64)
            .ok_or("series point missing integer \"threads\"")?;
        series_threads.push(t as usize);
    }
    if series_threads.is_empty() {
        return Err("series is empty".to_string());
    }
    if let Some(requested) = requested {
        if series_threads != requested {
            return Err(format!(
                "series measured at thread counts {series_threads:?} but {requested:?} was \
                 requested — stale or mismatched calibration file"
            ));
        }
        if series_threads.last() != Some(&cal.threads) {
            return Err(format!(
                "cal_threads={} is not the last requested thread count {:?}",
                cal.threads,
                series_threads.last()
            ));
        }
    }
    Ok(CalibrationSummary {
        fork_join_ns: cal.fork_join_ns,
        dispatch_ns: cal.dispatch_ns,
        cal_threads: cal.threads,
        series_threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(cal_threads: usize, series: &[usize]) -> String {
        let points = series
            .iter()
            .map(|t| {
                format!(
                    "{{\"threads\":{t},\"new_ns\":100.0,\"legacy_ns\":400.0,\"improvement\":4.00}}"
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"schema\":\"subsub-forkjoin/v1\",\"quick\":true,\"cal_threads\":{cal_threads},\
             \"fork_join_ns\":100.0,\"dispatch_ns\":5.00,\"legacy_fork_join_ns\":400.0,\
             \"improvement\":4.00,\"series\":[{points}]}}"
        )
    }

    #[test]
    fn valid_document_passes_with_and_without_request() {
        let d = doc(4, &[1, 2, 4]);
        let s = validate_calibration_doc(&d, None).expect("structurally valid");
        assert_eq!(s.series_threads, vec![1, 2, 4]);
        assert_eq!(s.cal_threads, 4);
        validate_calibration_doc(&d, Some(&[1, 2, 4])).expect("matches request");
    }

    #[test]
    fn thread_count_mismatch_is_rejected() {
        // A stale file measured at 1,2 when CI asked for 1,2,4.
        let d = doc(2, &[1, 2]);
        validate_calibration_doc(&d, None).expect("fine when nothing was requested");
        let err = validate_calibration_doc(&d, Some(&[1, 2, 4])).expect_err("must mismatch");
        assert!(err.contains("[1, 2]") && err.contains("[1, 2, 4]"), "{err}");
    }

    #[test]
    fn wrong_calibration_point_is_rejected() {
        // Series matches the request but the constants were measured at
        // a different team size than the last requested count.
        let d = doc(2, &[1, 2, 4]);
        let err = validate_calibration_doc(&d, Some(&[1, 2, 4])).expect_err("must reject");
        assert!(err.contains("cal_threads=2"), "{err}");
    }

    #[test]
    fn a_team_is_never_wider_than_the_host() {
        assert_eq!(measured_threads(&[1, 2, 4], 2), vec![1, 2]);
        assert_eq!(measured_threads(&[1, 4], 2), vec![1, 2]);
        assert_eq!(measured_threads(&[1, 2, 4], 8), vec![1, 2, 4]);
        assert_eq!(measured_threads(&[4], 1), vec![1]);
        assert_eq!(legacy_fork_join_ns(2), 3298.2);
        assert_eq!(legacy_fork_join_ns(3), 3298.2);
        assert_eq!(legacy_fork_join_ns(16), 6256.9);
        let facts = parse(&host_facts_json(&[1, 2])).expect("host facts are JSON");
        assert!(facts.get("nproc").and_then(Json::as_u64).is_some());
        assert!(facts.get("rustc").and_then(Json::as_str).is_some());
    }

    #[test]
    fn structural_defects_are_rejected() {
        assert!(validate_calibration_doc("not json", None).is_err());
        assert!(validate_calibration_doc("{\"schema\":\"other/v1\"}", None).is_err());
        let no_series = "{\"schema\":\"subsub-forkjoin/v1\",\"cal_threads\":2,\
                         \"fork_join_ns\":100.0,\"dispatch_ns\":5.0}";
        let err = validate_calibration_doc(no_series, None).expect_err("no series");
        assert!(err.contains("series"), "{err}");
        let bad_const = doc(4, &[4]).replace("\"fork_join_ns\":100.0", "\"fork_join_ns\":-1.0");
        assert!(validate_calibration_doc(&bad_const, None).is_err());
    }
}
