//! The benchmark's names: six workloads, the end-to-end metrics, and the
//! per-layer ledger. `BENCHMARK.json` lists exactly these (a test holds
//! the two together); later issues quote them verbatim.

use crate::json::Json;

/// One workload: its name and the one-line reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Why it was chosen (one line, also in `BENCHMARK.json`).
    pub why: &'static str,
}

/// Compiler-user requests: everything is cold, the runtime idles.
pub const ANALYZE_COLD: &str = "analyze-cold";
/// Tiny kernels through a warm service: service overhead dominates.
pub const SERVE_HOT: &str = "serve-hot";
/// Large kernels, outer-parallel: kernels and omprt dominate.
pub const EXEC_LARGE: &str = "exec-large";
/// The same kernels forked per outer iteration: fork-join dominates.
pub const EXEC_INNER: &str = "exec-inner";
/// Never-seen index arrays through ingest and the guard.
pub const GUARD_COLD: &str = "guard-cold";
/// Small writes into one big validated array, reads beside them.
pub const REINSPECT_DELTA: &str = "reinspect-delta";

/// The six workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: ANALYZE_COLD,
        why: "time to verdict for uncached C sources: cfront, ir, symbolic and core do all the work, omprt and kernels idle",
    },
    WorkloadSpec {
        name: SERVE_HOT,
        why: "one client-worker pair pinned to one CPU, us-sized kernels, warm cache, 1-thread pool: the service's CPU cost per request; queue and shard contention is covered by no workload",
    },
    WorkloadSpec {
        name: EXEC_LARGE,
        why: "the paper's headline (Figs 14-16): guarded outer-parallel runs of large datasets, kernels and omprt static chunks dominate; bypasses frontend and service changes",
    },
    WorkloadSpec {
        name: EXEC_INNER,
        why: "Figure 13's anomaly: classical level forks a team per outer iteration, so thousands of tiny regions per op expose fork-join latency",
    },
    WorkloadSpec {
        name: GUARD_COLD,
        why: "never-seen index arrays, cache-resident and 4x-LLC sized: ingest, fingerprint, scan and guard decide do everything; no frontend, kernels or service",
    },
    WorkloadSpec {
        name: REINSPECT_DELTA,
        why: "small mutate_range writes beside whole-array guard reads on one 4x-LLC sized array: the O(delta)/O(blocks) path that an O(n) ingest gain could tax",
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Where a metric is measured and how it is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// From the untraced pass of every workload; has a regression bound.
    EndToEnd,
    /// From the traced pass; a timing or a ratio.
    Layer,
    /// From the traced pass; must repeat exactly for a fixed seed.
    Count,
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// The name, exactly as printed and as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end, per-layer timing, or exact count.
    pub kind: Kind,
    /// Share of the first reading by which the second may be worse: the
    /// `bound` of `BENCHMARK.json` for end-to-end metrics, and the bound
    /// `repeat.sh` holds a workload's headline per-layer metric to.
    pub bound: Option<f64>,
    /// The workloads whose runs must produce it (it reads 0 elsewhere).
    pub on: Vec<&'static str>,
}

/// Kernel slugs of the six `exec-large` instances; the first four are
/// also the `exec-inner` instances. `serve-hot` reports the same six on
/// their `test` datasets.
pub const KERNEL_SLUGS: [(&str, &str); 6] = [
    ("AMGmk", "amgmk"),
    ("SDDMM", "sddmm"),
    ("UA(transf)", "ua-transf"),
    ("CHOLMOD-Supernodal", "cholmod-supernodal"),
    ("CG", "cg"),
    ("heat-3d", "heat-3d"),
];

/// How many of [`KERNEL_SLUGS`] `exec-inner` runs.
pub const INNER_KERNELS: usize = 4;

const ALL: [&str; 6] = [
    ANALYZE_COLD,
    SERVE_HOT,
    EXEC_LARGE,
    EXEC_INNER,
    GUARD_COLD,
    REINSPECT_DELTA,
];
const SERVICE: [&str; 4] = [ANALYZE_COLD, SERVE_HOT, EXEC_LARGE, EXEC_INNER];
const EXEC: [&str; 3] = [SERVE_HOT, EXEC_LARGE, EXEC_INNER];

/// Every metric, end-to-end first, in the order they are printed.
pub fn metrics() -> Vec<MetricSpec> {
    use Better::{Higher, Lower};
    let mut out: Vec<MetricSpec> = Vec::new();
    let mut add = |name: String, unit, better, kind, bound, on: &[&'static str]| {
        out.push(MetricSpec {
            name,
            unit,
            better,
            kind,
            bound,
            on: on.to_vec(),
        });
    };
    let e2e = Kind::EndToEnd;
    add("setup_s".into(), "s", Lower, e2e, Some(0.25), &ALL);
    add("ops_per_s".into(), "1/s", Higher, e2e, Some(0.10), &ALL);
    add("op_p50_us".into(), "us", Lower, e2e, Some(0.10), &ALL);
    add("peak_rss_mib".into(), "MiB", Lower, e2e, Some(0.15), &ALL);

    let l = Kind::Layer;
    let c = Kind::Count;
    // Each workload's headline, and the share of ops that failed.
    // `BENCHMARK.json` wants every end-to-end metric from every workload
    // and never 0, so these live here and `repeat.sh` holds them to a
    // bound of its own.
    add(
        "source_kib_per_s".into(),
        "KiB/s",
        Higher,
        l,
        Some(0.10),
        &[ANALYZE_COLD],
    );
    add(
        "index_gb_per_s".into(),
        "GB/s",
        Higher,
        l,
        Some(0.10),
        &[GUARD_COLD],
    );
    add(
        "outer_speedup".into(),
        "ratio",
        Higher,
        l,
        Some(0.10),
        &[EXEC_LARGE],
    );
    add(
        "inner_slowdown".into(),
        "ratio",
        Lower,
        l,
        Some(0.10),
        &[EXEC_INNER],
    );
    add("failed_share".into(), "ratio", Lower, l, Some(0.0), &ALL);

    let an = &[ANALYZE_COLD][..];
    add("cfront.lex_us_per_kib".into(), "us/KiB", Lower, l, None, an);
    add(
        "cfront.parse_us_per_kib".into(),
        "us/KiB",
        Lower,
        l,
        None,
        an,
    );
    add("cfront.tokens".into(), "count", Lower, c, None, an);
    add("cfront.reject_us".into(), "us", Lower, l, None, an);
    add("ir.lower_us_per_fn".into(), "us", Lower, l, None, an);
    add("ir.loops".into(), "count", Lower, c, None, an);
    add("core.analyze_function_us".into(), "us", Lower, l, None, an);
    add("core.decide_loop_us".into(), "us", Lower, l, None, an);
    add("core.compile_check_us".into(), "us", Lower, l, None, an);
    for level in ["classic", "base", "new"] {
        add(format!("core.analyze_us.{level}"), "us", Lower, l, None, an);
    }
    add("core.loops_parallel".into(), "count", Higher, c, None, an);
    add(
        "core.loops_outer_parallel".into(),
        "count",
        Higher,
        c,
        None,
        an,
    );
    add("core.checks_emitted".into(), "count", Lower, c, None, an);
    add(
        "analyze.layer_sum_ratio".into(),
        "ratio",
        Lower,
        l,
        None,
        an,
    );

    let gc = &[GUARD_COLD][..];
    for size in ["resident", "stream"] {
        add(
            format!("rtcheck.ingest_gb_per_s.{size}"),
            "GB/s",
            Higher,
            l,
            None,
            gc,
        );
        add(
            format!("rtcheck.scan_gb_per_s.{size}"),
            "GB/s",
            Higher,
            l,
            None,
            gc,
        );
        add(
            format!("rtcheck.verify_gb_per_s.{size}"),
            "GB/s",
            Higher,
            l,
            None,
            gc,
        );
        add(
            format!("roofline.read_gb_per_s.{size}"),
            "GB/s",
            Higher,
            l,
            None,
            gc,
        );
    }
    add(
        "rtcheck.scan_par_gb_per_s.stream".into(),
        "GB/s",
        Higher,
        l,
        None,
        gc,
    );
    add(
        "rtcheck.ingest_roofline_share".into(),
        "ratio",
        Higher,
        l,
        None,
        gc,
    );

    let rd = &[REINSPECT_DELTA][..];
    for delta in ["d1", "d64", "d4096"] {
        add(
            format!("rtcheck.mutate_range_us.{delta}"),
            "us",
            Lower,
            l,
            None,
            rd,
        );
    }
    add(
        "rtcheck.summary_verdict_ns".into(),
        "ns",
        Lower,
        l,
        None,
        rd,
    );
    add(
        "rtcheck.composed_verdict_ns".into(),
        "ns",
        Lower,
        l,
        None,
        rd,
    );

    let guard = &[
        SERVE_HOT,
        EXEC_LARGE,
        EXEC_INNER,
        GUARD_COLD,
        REINSPECT_DELTA,
    ][..];
    add(
        "rtcheck.decide_ingested_us".into(),
        "us",
        Lower,
        l,
        None,
        guard,
    );
    add(
        "rtcheck.check_eval_ns".into(),
        "ns",
        Lower,
        l,
        None,
        &[SERVE_HOT, EXEC_LARGE, GUARD_COLD],
    );
    add(
        "rtcheck.guard_parallel_share".into(),
        "ratio",
        Higher,
        l,
        None,
        guard,
    );
    add(
        "rtcheck.cache_hit_share".into(),
        "ratio",
        Higher,
        l,
        None,
        guard,
    );

    let om = &[EXEC_LARGE, EXEC_INNER][..];
    add("omprt.forkjoin_ns.t1".into(), "ns", Lower, l, None, om);
    add("omprt.forkjoin_ns.tmax".into(), "ns", Lower, l, None, om);
    for sched in ["static", "dynamic", "guided"] {
        add(
            format!("omprt.dispatch_ns_per_iter.{sched}"),
            "ns",
            Lower,
            l,
            None,
            om,
        );
    }
    add("omprt.reduce_ns.tmax".into(), "ns", Lower, l, None, om);
    add(
        "omprt.degradation_events".into(),
        "count",
        Lower,
        c,
        None,
        &EXEC,
    );

    for (_, slug) in KERNEL_SLUGS {
        add(
            format!("kernels.serial_ms.{slug}"),
            "ms",
            Lower,
            l,
            None,
            &[SERVE_HOT, EXEC_LARGE],
        );
        add(
            format!("kernels.outer_ms.{slug}"),
            "ms",
            Lower,
            l,
            None,
            &[SERVE_HOT, EXEC_LARGE],
        );
        add(
            format!("kernels.reset_us.{slug}"),
            "us",
            Lower,
            l,
            None,
            &[SERVE_HOT, EXEC_LARGE],
        );
    }
    for (_, slug) in &KERNEL_SLUGS[..INNER_KERNELS] {
        add(
            format!("kernels.inner_ms.{slug}"),
            "ms",
            Lower,
            l,
            None,
            &[EXEC_INNER],
        );
    }
    add("kernels.prepare_ms".into(), "ms", Lower, l, None, &EXEC);

    add(
        "service.queue_us_p50".into(),
        "us",
        Lower,
        l,
        None,
        &SERVICE,
    );
    add(
        "service.worker_us_p50".into(),
        "us",
        Lower,
        l,
        None,
        &SERVICE,
    );
    add(
        "service.handoff_us_p50".into(),
        "us",
        Lower,
        l,
        None,
        &SERVICE,
    );
    for (_, slug) in KERNEL_SLUGS {
        add(
            format!("service.request_p50_us.{slug}"),
            "us",
            Lower,
            l,
            None,
            &[SERVE_HOT, EXEC_LARGE],
        );
        add(
            format!("service.dispatch_overhead_us.{slug}"),
            "us",
            Lower,
            l,
            None,
            &[SERVE_HOT, EXEC_LARGE],
        );
    }
    for w in SERVICE {
        add(
            format!("service.request_p99_us.{w}"),
            "us",
            Lower,
            l,
            None,
            &[w],
        );
    }
    add(
        "service.cache_hit_share".into(),
        "ratio",
        Higher,
        l,
        None,
        &EXEC,
    );
    add("service.shed".into(), "count", Lower, c, None, &SERVICE);
    add(
        "service.serialized".into(),
        "count",
        Lower,
        c,
        None,
        &SERVICE,
    );
    add("service.cold_entry_ms".into(), "ms", Lower, l, None, &EXEC);

    add(
        "telemetry.armed_overhead_share".into(),
        "ratio",
        Lower,
        l,
        None,
        &[SERVE_HOT],
    );
    for w in ALL {
        add(
            format!("bench.trace_overhead_share.{w}"),
            "ratio",
            Lower,
            l,
            None,
            &[w],
        );
    }
    add(
        "bench.generator_share".into(),
        "ratio",
        Lower,
        l,
        None,
        &ALL,
    );
    out
}

/// The document `BENCHMARK.json` must equal.
pub fn benchmark_json(run_seconds: u64) -> Json {
    let all = metrics();
    let entry = |m: &MetricSpec, with_bound: bool| {
        let mut pairs = vec![
            ("name", Json::str(&m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.word())),
        ];
        if with_bound {
            pairs.push((
                "bound",
                Json::Num(m.bound.expect("end-to-end metrics have a bound")),
            ));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(run_seconds as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                all.iter()
                    .filter(|m| m.kind == Kind::EndToEnd)
                    .map(|m| entry(m, true))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                all.iter()
                    .filter(|m| m.kind != Kind::EndToEnd)
                    .map(|m| entry(m, false))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        let all = metrics();
        let names: BTreeSet<&str> = all.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
        for m in &all {
            assert!(name_ok(&m.name), "{}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
            assert!(!m.on.is_empty(), "{} is measured nowhere", m.name);
            if m.kind == Kind::EndToEnd {
                assert!(m.bound.is_some_and(|b| b <= 0.25), "{}", m.name);
                assert_eq!(m.on.len(), WORKLOADS.len(), "{}", m.name);
            }
        }
        let e2e = all.iter().filter(|m| m.kind == Kind::EndToEnd).count();
        assert!((1..=16).contains(&e2e));
        assert!(
            (1..=128).contains(&(all.len() - e2e)),
            "{}",
            all.len() - e2e
        );
        let setup = all.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            all.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        for w in WORKLOADS {
            assert!(
                name_ok(w.name) && w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn committed_benchmark_json_matches_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = subsub_telemetry::json::parse(&text).unwrap();
        let run_seconds = doc.get("run_seconds").and_then(|s| s.as_u64()).unwrap();
        assert!((1..=60).contains(&run_seconds));
        assert!(
            text == benchmark_json(run_seconds).pretty(),
            "BENCHMARK.json is not what `subsub-benchmark benchmark-json {run_seconds}` prints"
        );
    }
}
