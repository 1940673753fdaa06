//! A minimal self-contained micro-benchmark harness (criterion substitute,
//! so the workspace builds without registry access). Adaptive iteration
//! counts, warmup, and median-of-samples reporting — enough fidelity for
//! the relative comparisons the bench binaries make.

use std::time::{Duration, Instant};

/// Target measurement time per sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(20);
/// Number of measured samples per benchmark.
const SAMPLES: usize = 7;

/// Summary statistics for one benchmark, in nanoseconds per iteration.
///
/// Returned by [`bench()`] so callers can act on measurements (emit JSON,
/// compare variants, gate CI) instead of scraping stdout.
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// Benchmark name as printed.
    pub name: String,
    /// Iterations per sample (adaptively chosen).
    pub iters: u64,
    /// Fastest sample (ns/iter).
    pub min_ns: u128,
    /// Median sample (ns/iter) — the headline number.
    pub median_ns: u128,
    /// 90th-percentile sample (ns/iter).
    pub p90_ns: u128,
    /// All samples (ns/iter), sorted ascending.
    pub samples_ns: Vec<u128>,
    /// Bytes one iteration moves, for a bandwidth-bound entry: computed
    /// from its sizes, not measured.
    pub bytes: Option<usize>,
}

impl BenchStats {
    /// Records the bytes one iteration moves and prints the rate beside
    /// the latency [`bench()`] printed.
    pub fn moving(mut self, bytes: usize) -> BenchStats {
        self.bytes = Some(bytes);
        let rate = self.bytes_per_s().unwrap_or(0) as f64 / 1e9;
        println!("{:<48} {rate:>9.2} GB/s", "");
        self
    }

    /// Bytes per second at the median, when [`BenchStats::bytes`] is set.
    pub fn bytes_per_s(&self) -> Option<u64> {
        let per_s = self.bytes? as u128 * 1_000_000_000 / self.median_ns.max(1);
        Some(u64::try_from(per_s).unwrap_or(u64::MAX))
    }

    /// The stats as one flat JSON object (hand-rolled: the workspace has
    /// no serde). The key names match what `MachineCalibration`-style
    /// scanners and the `BENCH_*.json` consumers expect.
    pub fn to_json(&self) -> String {
        let samples = self
            .samples_ns
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"name\":\"{}\",\"iters\":{},\"min_ns\":{},\"median_ns\":{},\"p90_ns\":{},\"samples_ns\":[{}]}}",
            self.name.replace('"', "'"),
            self.iters,
            self.min_ns,
            self.median_ns,
            self.p90_ns,
            samples
        )
    }
}

/// Times one closure, prints the median per-iteration latency, and
/// returns the full stats.
pub fn bench(name: &str, mut f: impl FnMut()) -> BenchStats {
    // Warmup + calibration: find an iteration count filling the sample
    // window.
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let el = t.elapsed();
        if el >= SAMPLE_TARGET / 4 || iters >= 1 << 20 {
            let per = el.as_nanos().max(1) / iters as u128;
            let want = (SAMPLE_TARGET.as_nanos() / per).max(1);
            iters = want.min(1 << 20) as u64;
            break;
        }
        iters *= 4;
    }
    let mut samples: Vec<u128> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() / iters as u128
        })
        .collect();
    samples.sort_unstable();
    let stats = BenchStats {
        name: name.to_string(),
        iters,
        min_ns: samples[0],
        median_ns: samples[SAMPLES / 2],
        p90_ns: samples[(SAMPLES * 9) / 10],
        samples_ns: samples,
        bytes: None,
    };
    println!(
        "{name:<48} {:>12}/iter  ({iters} iters/sample)",
        fmt_ns(stats.median_ns)
    );
    stats
}

/// Runs a set of named benchmarks and returns them as one JSON document
/// (`{"benches":[...]}`), suitable for writing to a `BENCH_*.json` file.
pub fn bench_json(benches: Vec<BenchStats>) -> String {
    let items = benches
        .iter()
        .map(BenchStats::to_json)
        .collect::<Vec<_>>()
        .join(",");
    format!("{{\"benches\":[{items}]}}")
}

fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        // Smoke test: must terminate quickly for a trivial closure.
        let mut n = 0u64;
        let stats = bench("noop", || n = n.wrapping_add(1));
        assert!(n > 0);
        assert_eq!(stats.samples_ns.len(), SAMPLES);
        assert!(stats.min_ns <= stats.median_ns);
        assert!(stats.median_ns <= stats.p90_ns);
        assert!(stats.iters > 0);
    }

    #[test]
    fn bench_json_is_machine_readable() {
        let stats = BenchStats {
            name: "x".into(),
            iters: 10,
            min_ns: 1,
            median_ns: 2,
            p90_ns: 3,
            samples_ns: vec![1, 2, 3],
            bytes: None,
        };
        let doc = bench_json(vec![stats]);
        assert!(doc.starts_with("{\"benches\":["));
        assert!(doc.contains("\"median_ns\":2"));
        assert!(doc.contains("\"samples_ns\":[1,2,3]"));
    }

    #[test]
    fn fmt_ns_scales_units() {
        assert_eq!(fmt_ns(5), "5 ns");
        assert_eq!(fmt_ns(1_500), "1.500 µs");
        assert_eq!(fmt_ns(2_000_000), "2.000 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000 s");
    }
}
