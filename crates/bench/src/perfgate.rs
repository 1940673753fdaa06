//! Perf-regression gate: a pinned micro-suite compared against a
//! committed baseline.
//!
//! The suite is small and deterministic by construction — fixed dataset
//! seeds, fixed thread count, serial kernel variants — so its medians
//! move only when the code's constant factors move. [`run_suite`] times
//! each entry with the adaptive [`crate::microbench::bench`] harness;
//! [`compare`] checks every median against `BENCH_baseline.json` with a
//! symmetric relative tolerance. CI fails on any *regression* (median
//! above baseline × (1 + tol)); an *improvement* beyond the band is
//! reported as a warning suggesting a baseline refresh, because a stale
//! too-slow baseline would mask future regressions.
//!
//! The tolerance is deliberately wide (±25%): the suite gates against
//! structural slowdowns (an accidentally-armed telemetry path, a lock on
//! the claim fast path), not scheduler jitter on shared CI hardware.

use crate::microbench::{bench, BenchStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use subsub_kernels::common::{det_sum_on, restore};
use subsub_kernels::kernel_by_name;
use subsub_omprt::{CachePadded, Schedule, SendPtr, ThreadPool};
use subsub_rtcheck::{
    composed_verdict, inspect_serial, BlockSummaries, Provenance, ValidatedIndexArray,
};
use subsub_service::{AnalysisService, Payload, Request, ServiceConfig};
use subsub_telemetry::json::{parse, Json};

/// Symmetric relative tolerance band around each baseline median.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Threads of the fork-join and pooled-epilogue entries' team, capped
/// at the host's cores (pinned so the baseline is comparable across
/// runs on one host).
pub const FORKJOIN_THREADS: usize = 4;

/// Elements of `forkjoin/region-192`'s panel: CHOLMOD-Supernodal's.
pub const FORKJOIN_PANEL: usize = 192;

/// Panels of the factor `forkjoin/region-192` walks (12 MiB of `f64`).
pub const FORKJOIN_PANELS: usize = 8192;

/// Nonzeros of `forkjoin/reduce-7`'s row: AMGmk's 7-point stencil.
pub const FORKJOIN_ROW: usize = 7;

/// Elements scanned by the inspector-throughput entries.
pub const INSPECT_LEN: usize = 65_536;

/// Elements in the incremental re-inspection entry's array (1 Mi).
pub const REINSPECT_LEN: usize = 1 << 20;

/// Kernels timed serially (first dataset of each), chosen to cover the
/// structural families: sparse gather (AMGmk), sampled dense product
/// (SDDMM), a dense stencil (heat-3d), the two-level composed gather
/// (CSRoCSR), and the strided-recurrence scatter (StridedScatter).
pub const SUITE_KERNELS: &[&str] = &["AMGmk", "SDDMM", "heat-3d", "CSRoCSR", "StridedScatter"];

/// Elements in the epilogue entries' arrays (8 Mi `f64`, 64 MiB: past
/// every cache, the size of CHOLMOD `spal_004`'s factor).
pub const EPILOGUE_LEN: usize = 8 << 20;

/// Requests per burst in the service-throughput entry.
pub const SERVICE_BURST: usize = 16;

/// Rows that measure what the host charges, for the rows beside them to
/// be read against: reported with their baseline, never a failure.
pub const REFERENCE_ROWS: &[&str] = &["forkjoin/flag-round-trip"];

/// Runs the pinned suite and returns one stats row per entry.
pub fn run_suite() -> Vec<BenchStats> {
    let mut out = Vec::new();

    // Fork-join rows, on a team capped at the host's cores (a wider one
    // times the scheduler). Each names the call, the body and therefore
    // who executes the tids: an empty body is over before a worker sees
    // its slot, so the coordinator absorbs the region; the CHOLMOD-shaped
    // panel scale and the AMGmk-shaped row reduction are the two regions
    // `exec-inner` opens tens of thousands of times per request. They
    // are held against the first row: what this host charges two threads
    // for moving one cache line out and one back, measured in this run
    // (before the team exists: its idle workers would share the cores).
    out.push(flag_round_trip());
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let team = ThreadPool::new(FORKJOIN_THREADS.min(cores));
    out.push(bench("forkjoin/empty-region", || {
        team.parallel_for(team.threads(), Schedule::static_default(), |_| {});
    }));
    // Panel after panel of a factor too large for L2, as the kernel walks
    // its own: each region's elements are new to both threads.
    let mut factor = vec![1.0f64; FORKJOIN_PANEL * FORKJOIN_PANELS];
    let l = SendPtr::new(factor.as_mut_ptr());
    let mut panel = 0;
    out.push(bench("forkjoin/region-192", || {
        let lo = panel * FORKJOIN_PANEL;
        panel = (panel + 1) % FORKJOIN_PANELS;
        let d = std::hint::black_box(1.000_000_1f64);
        team.parallel_for(FORKJOIN_PANEL, Schedule::static_default(), |i| {
            // SAFETY: iteration `i` writes element `lo + i` only, inside
            // panel `lo / FORKJOIN_PANEL` of the factor.
            unsafe { *l.get().add(lo + i) *= d };
        });
    }));
    std::hint::black_box(&factor);
    let values = [0.5f64; FORKJOIN_ROW];
    let x = [2.0f64; FORKJOIN_ROW];
    out.push(bench("forkjoin/reduce-7", || {
        std::hint::black_box(team.parallel_for_reduce(
            FORKJOIN_ROW,
            Schedule::static_default(),
            0.0f64,
            |acc, k| acc + values[k] * x[k],
            |p, q| p + q,
        ));
    }));

    let ramp: Vec<usize> = (0..INSPECT_LEN).collect();
    out.push(bench("inspect/serial-65536", || {
        std::hint::black_box(inspect_serial(std::hint::black_box(&ramp)));
    }));

    // Fused ingest: domain compare + block fingerprint + monotonicity
    // flags from one loop per block (what `ingest` pays).
    out.push(bench("ingest/fused-65536", || {
        let s = BlockSummaries::build(std::hint::black_box(&ramp), INSPECT_LEN)
            .expect("ramp is in domain");
        std::hint::black_box(s.checksum());
    }));

    // The tamper gate: fingerprint + domain recomputed from raw data,
    // once per array of every service decision and `decide_ingested`.
    let verified = ValidatedIndexArray::ingest(
        "perfgate-verify",
        ramp.clone(),
        INSPECT_LEN,
        Provenance::Generated { seed: 0x5eed },
    )
    .expect("ramp is in domain");
    out.push(bench("verify/65536", || {
        std::hint::black_box(std::hint::black_box(&verified).verify()).expect("untampered");
    }));

    // Composed two-level verdict over two pre-ingested 65 Ki arrays:
    // O(blocks) summary recombination per level plus the domain-chain
    // test — the inspection cost the CSR-of-CSR rule pays per execution
    // once both levels are resident.
    let two_outer = ValidatedIndexArray::ingest(
        "perfgate-two-level-outer",
        (0..INSPECT_LEN).map(|i| 2 * i).collect::<Vec<usize>>(),
        2 * INSPECT_LEN,
        Provenance::Generated { seed: 0x5eed },
    )
    .expect("strided ramp is in domain");
    let two_inner = ValidatedIndexArray::ingest(
        "perfgate-two-level-inner",
        (0..INSPECT_LEN).collect::<Vec<usize>>(),
        INSPECT_LEN,
        Provenance::Generated { seed: 0x5eed },
    )
    .expect("ramp is in domain");
    out.push(bench("inspect/two-level-65536", || {
        std::hint::black_box(composed_verdict(
            std::hint::black_box(&two_outer),
            std::hint::black_box(&two_inner),
        ));
    }));

    // O(Δ) re-inspection: single-element mutate_range into a 1 Mi-element
    // array, checksum patched, verdict recombined from summaries. Rewriting the
    // resident value keeps every iteration identical while still paying
    // the full dirty-window bookkeeping.
    let n = REINSPECT_LEN;
    let mut big = ValidatedIndexArray::ingest(
        "perfgate-1Mi",
        (0..n).collect::<Vec<usize>>(),
        n,
        Provenance::Generated { seed: 0x5eed },
    )
    .expect("ramp is in domain");
    out.push(bench("reinspect/delta-1Mi", || {
        let at = n / 2;
        let v = big.data()[at];
        big.mutate_range(at..at + 1, |w| w[0] = v)
            .expect("rewrite stays in domain");
        std::hint::black_box(big.summary_verdict());
    }));

    for name in SUITE_KERNELS {
        let kernel = kernel_by_name(name)
            .unwrap_or_else(|| panic!("suite kernel {name:?} missing from registry"));
        let dataset = kernel.datasets()[0];
        let mut inst = kernel.prepare(dataset);
        out.push(bench(&format!("kernel/{name}-serial"), || {
            inst.run_serial();
        }));
    }

    // The epilogue every `Execute` pays after its kernel: the result
    // digest (8·n bytes read) and the restore (16·n bytes moved), inline
    // and pooled. The team is capped at the host's cores: two memory-bound
    // runs per core take turns being descheduled mid-run, and the
    // oversubscribed rows swung 2x between runs on a 2-core host.
    let pristine: Vec<f64> = (0..EPILOGUE_LEN).map(|i| (i % 9) as f64 * 0.1).collect();
    let mut live = pristine.clone();
    for (tag, team) in [("serial", None), ("pooled", Some(&team))] {
        out.push(
            bench(&format!("epilogue/checksum-8Mi-{tag}"), || {
                std::hint::black_box(det_sum_on(team, std::hint::black_box(&live)));
            })
            .moving(8 * EPILOGUE_LEN),
        );
        out.push(
            bench(&format!("epilogue/reset-8Mi-{tag}"), || {
                restore(team, std::hint::black_box(&mut live), &pristine);
            })
            .moving(16 * EPILOGUE_LEN),
        );
    }

    // Frontend throughput: lex + parse every kernel source in the
    // registry under the default budget. Guards the constant factors of
    // the hardened lexer/parser loops (span tracking, budget checks,
    // cancellation polls) against structural slowdowns.
    let sources: Vec<&'static str> = subsub_kernels::all_kernels()
        .iter()
        .map(|k| k.source())
        .collect();
    out.push(bench("cfront/parse-throughput", || {
        for src in &sources {
            let prog = subsub_cfront::parse_program_with(
                std::hint::black_box(src),
                &subsub_cfront::ParseBudget::DEFAULT,
            )
            .expect("registry kernel sources parse");
            std::hint::black_box(&prog);
        }
    }));

    // Service front-door entries, pinned small: one worker and a
    // single-thread pool so the medians track the submit → memo hit →
    // dispatch constant factors, not scheduler jitter.
    let service = AnalysisService::start(ServiceConfig {
        workers: 1,
        pool_threads: 1,
        ..ServiceConfig::default()
    });
    let request = |client: String| Request {
        client,
        payload: Payload::Execute {
            kernel: "AMGmk".into(),
            dataset: "test".into(),
        },
        deadline: None,
    };
    // Warm the registry entry and the verdict cache so the timed path
    // is the steady-state hot hit.
    let warmup = service
        .submit(request("perfgate".into()))
        .expect("admitted")
        .wait();
    warmup.result.expect("warmup request must execute");
    out.push(bench("service/hot-hit", || {
        let response = service
            .submit(request("perfgate".into()))
            .expect("admitted")
            .wait();
        std::hint::black_box(&response);
    }));
    // Same hot hit with a (generous) deadline attached: the lifecycle
    // machinery — doom stamping, cancel-token plumbing, janitor
    // coexistence — must not tax the steady-state path.
    out.push(bench("service/hot-hit-deadline", || {
        let response = service
            .submit(request("perfgate".into()).with_deadline(Duration::from_secs(30)))
            .expect("admitted")
            .wait();
        std::hint::black_box(&response);
    }));
    out.push(bench("service/throughput-16", || {
        let tickets: Vec<_> = (0..SERVICE_BURST)
            .map(|i| {
                service
                    .submit(request(format!("burst-{}", i % 4)))
                    .expect("admitted")
            })
            .collect();
        for t in tickets {
            std::hint::black_box(&t.wait());
        }
    }));
    service.shutdown();
    out
}

/// The reference row of the `forkjoin/*` entries: one cache line handed
/// to a second thread and one handed back, the least two threads can pay
/// to start a region and to join it. Both sides wait as the pool does
/// (spin, then yield), so a host that takes the second core away
/// mid-run still finishes.
fn flag_round_trip() -> BenchStats {
    /// Ends the exchange.
    const STOP: u64 = u64::MAX;
    fn await_turn(flag: &AtomicU64, turn: u64) -> u64 {
        let mut polls = 0u32;
        loop {
            let v = flag.load(Ordering::Acquire);
            if v == turn || v == STOP {
                return v;
            }
            polls += 1;
            if polls < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
    let ping = CachePadded::new(AtomicU64::new(0));
    let pong = CachePadded::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        s.spawn(|| {
            for turn in 1.. {
                let seen = await_turn(&ping, turn);
                pong.store(seen, Ordering::Release);
                if seen == STOP {
                    return;
                }
            }
        });
        let mut turn = 0u64;
        let stats = bench("forkjoin/flag-round-trip", || {
            turn += 1;
            ping.store(turn, Ordering::Release);
            await_turn(&pong, turn);
        });
        ping.store(STOP, Ordering::Release);
        await_turn(&pong, STOP);
        stats
    })
}

/// Renders suite results as the committed baseline document.
pub fn baseline_json(results: &[BenchStats]) -> String {
    let entries = results
        .iter()
        .map(|s| {
            let rate = s
                .bytes_per_s()
                .map_or(String::new(), |r| format!(",\"bytes_per_s\":{r}"));
            format!(
                "{{\"name\":\"{}\",\"median_ns\":{}{rate}}}",
                s.name, s.median_ns
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!("{{\"schema\":\"subsub-perfgate/v1\",\"tolerance\":{DEFAULT_TOLERANCE},\"benches\":[{entries}]}}")
}

/// Parses a baseline document into `(name, median_ns)` rows.
pub fn parse_baseline(doc: &str) -> Result<Vec<(String, u64)>, String> {
    let root = parse(doc).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    match root.get("schema").and_then(Json::as_str) {
        Some("subsub-perfgate/v1") => {}
        other => return Err(format!("unexpected baseline schema {other:?}")),
    }
    let benches = root
        .get("benches")
        .and_then(Json::as_array)
        .ok_or("baseline has no \"benches\" array")?;
    let mut out = Vec::with_capacity(benches.len());
    for b in benches {
        let name = b
            .get("name")
            .and_then(Json::as_str)
            .ok_or("bench entry missing \"name\"")?;
        let median = b
            .get("median_ns")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("bench {name:?} missing integer \"median_ns\""))?;
        out.push((name.to_string(), median));
    }
    Ok(out)
}

/// Outcome of one suite entry against the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateStatus {
    /// Within the tolerance band.
    Ok,
    /// Faster than baseline × (1 − tol): not a failure, but the
    /// baseline is stale enough to mask future regressions.
    Improved,
    /// Slower than baseline × (1 + tol): fails the gate.
    Regressed,
    /// Present in the suite but absent from the baseline: fails the
    /// gate (the baseline must be refreshed when the suite grows).
    Missing,
    /// A [`REFERENCE_ROWS`] entry: times the host, not this code, so it
    /// is printed beside the rows held against it and never gated.
    Reference,
}

/// One row of the gate report.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// Suite entry name.
    pub name: String,
    /// Baseline median (ns/iter), when the entry was found.
    pub baseline_ns: Option<u64>,
    /// Measured median (ns/iter).
    pub current_ns: u64,
    /// Verdict for this entry.
    pub status: GateStatus,
}

impl GateRow {
    /// current / baseline, when a baseline exists.
    pub fn ratio(&self) -> Option<f64> {
        self.baseline_ns
            .map(|b| self.current_ns as f64 / (b.max(1)) as f64)
    }
}

/// Compares measured medians against the baseline with a symmetric
/// relative tolerance.
pub fn compare(results: &[BenchStats], baseline: &[(String, u64)], tolerance: f64) -> Vec<GateRow> {
    results
        .iter()
        .map(|s| {
            let current_ns = u64::try_from(s.median_ns).unwrap_or(u64::MAX);
            let baseline_ns = baseline.iter().find(|(n, _)| *n == s.name).map(|(_, m)| *m);
            let status = match baseline_ns {
                _ if REFERENCE_ROWS.contains(&s.name.as_str()) => GateStatus::Reference,
                None => GateStatus::Missing,
                Some(base) => {
                    let base = base.max(1) as f64;
                    let cur = current_ns as f64;
                    if cur > base * (1.0 + tolerance) {
                        GateStatus::Regressed
                    } else if cur < base * (1.0 - tolerance) {
                        GateStatus::Improved
                    } else {
                        GateStatus::Ok
                    }
                }
            };
            GateRow {
                name: s.name.clone(),
                baseline_ns,
                current_ns,
                status,
            }
        })
        .collect()
}

/// Whether a comparison passes the gate (regressions and missing
/// baselines fail; improvements only warn).
pub fn passes(rows: &[GateRow]) -> bool {
    rows.iter()
        .all(|r| !matches!(r.status, GateStatus::Regressed | GateStatus::Missing))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(name: &str, median_ns: u128) -> BenchStats {
        BenchStats {
            name: name.to_string(),
            iters: 1,
            min_ns: median_ns,
            median_ns,
            p90_ns: median_ns,
            samples_ns: vec![median_ns],
            bytes: None,
        }
    }

    #[test]
    fn baseline_roundtrips_through_the_parser() {
        let doc = baseline_json(&[stats("a", 100), stats("b", 2_000_000)]);
        let parsed = parse_baseline(&doc).expect("roundtrip");
        assert_eq!(
            parsed,
            vec![("a".to_string(), 100), ("b".to_string(), 2_000_000)]
        );
    }

    #[test]
    fn tolerance_band_classifies_all_four_ways() {
        let baseline = vec![
            ("ok".to_string(), 1000u64),
            ("fast".to_string(), 1000),
            ("slow".to_string(), 1000),
        ];
        let rows = compare(
            &[
                stats("ok", 1100),
                stats("fast", 500),
                stats("slow", 1500),
                stats("new", 10),
            ],
            &baseline,
            0.25,
        );
        assert_eq!(rows[0].status, GateStatus::Ok);
        assert_eq!(rows[1].status, GateStatus::Improved);
        assert_eq!(rows[2].status, GateStatus::Regressed);
        assert_eq!(rows[3].status, GateStatus::Missing);
        assert!(!passes(&rows));
        assert!(passes(&rows[..2]));
        // A reference row is never held against its baseline.
        let host = compare(
            &[stats(REFERENCE_ROWS[0], 3000)],
            &[(REFERENCE_ROWS[0].into(), 200)],
            0.25,
        );
        assert_eq!(host[0].status, GateStatus::Reference);
        assert!(passes(&host));
    }

    #[test]
    fn band_edges_are_inclusive() {
        let baseline = vec![("x".to_string(), 1000u64)];
        // Exactly on the upper edge (1250) and lower edge (750): inside.
        assert_eq!(
            compare(&[stats("x", 1250)], &baseline, 0.25)[0].status,
            GateStatus::Ok
        );
        assert_eq!(
            compare(&[stats("x", 750)], &baseline, 0.25)[0].status,
            GateStatus::Ok
        );
    }

    #[test]
    fn malformed_baseline_is_rejected() {
        assert!(parse_baseline("not json").is_err());
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("{\"schema\":\"other/v9\",\"benches\":[]}").is_err());
        assert!(parse_baseline(
            "{\"schema\":\"subsub-perfgate/v1\",\"benches\":[{\"name\":\"a\"}]}"
        )
        .is_err());
    }
}
