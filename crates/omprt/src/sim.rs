//! Deterministic scheduling cost model.
//!
//! Replays OpenMP loop-scheduling policies over a vector of per-iteration
//! costs and charges a calibrated fork-join overhead per parallel region.
//! Because the model consumes the *real* per-iteration work distribution
//! of the *real* generated workloads, it reproduces the phenomena the
//! paper's figures hinge on — load imbalance under static scheduling
//! (Figure 16), fork-join-dominated inner-loop parallelization
//! (Figure 13's 58× anomaly), and efficiency decline with core count
//! (Figure 15) — without requiring a 20-core machine.

use crate::schedule::{dynamic_batch, guided_claim, static_chunks, Schedule};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::OnceLock;
use subsub_telemetry::json::{self, Json};

/// Cost-model parameters. Units are arbitrary but consistent (the figure
/// harnesses use nanoseconds calibrated against real single-thread runs).
#[derive(Debug, Clone, Copy)]
pub struct SimParams {
    /// Cost of forking and joining one parallel region (thread wake-up,
    /// barrier). OpenMP fork-join on a multi-socket Xeon is on the order
    /// of microseconds.
    pub fork_join: f64,
    /// Per-chunk cost of dynamic/guided self-scheduling (the shared
    /// counter's atomic update plus cache traffic).
    pub dispatch: f64,
    /// Fraction of the region's work bound by shared memory bandwidth
    /// (0.0 = fully compute-bound). Parallel time cannot drop below
    /// `mem_frac · total_work / mem_scale` — the roofline that caps
    /// SpMV-style kernels at a few× regardless of core count (the paper's
    /// AMGmk saturates at 3.43×).
    pub mem_frac: f64,
    /// Aggregate memory-bandwidth speedup of the machine over one core
    /// (≈3–4 on a dual-socket Xeon for streaming access).
    pub mem_scale: f64,
}

impl Default for SimParams {
    fn default() -> SimParams {
        SimParams {
            fork_join: 5_000.0,
            dispatch: 80.0,
            mem_frac: 0.0,
            mem_scale: 3.5,
        }
    }
}

/// Result of simulating one parallel region.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Simulated wall time of the region (max thread finish time plus
    /// fork-join overhead).
    pub time: f64,
    /// Per-thread busy time.
    pub per_thread: Vec<f64>,
}

impl SimResult {
    /// Load imbalance: max over mean of thread busy time (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let max = self.per_thread.iter().cloned().fold(0.0, f64::max);
        let mean = self.per_thread.iter().sum::<f64>() / self.per_thread.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Simulates `parallel for` over `costs` (one entry per iteration) on
/// `threads` threads with the given schedule.
pub fn simulate_parallel_for(
    costs: &[f64],
    threads: usize,
    sched: Schedule,
    params: &SimParams,
) -> SimResult {
    let threads = threads.max(1);
    let n = costs.len();
    let mut per_thread = vec![0.0f64; threads];
    match sched {
        Schedule::Static { chunk } => {
            for (tid, t) in per_thread.iter_mut().enumerate() {
                for (s, e) in static_chunks(n, threads, chunk, tid) {
                    *t += costs[s..e].iter().sum::<f64>();
                }
            }
        }
        Schedule::Dynamic { chunk } => {
            // Event-driven self-scheduling: the earliest-finishing thread
            // grabs the next claim. Claims are batched exactly like the
            // real pool's (`dynamic_batch`), so the per-claim dispatch
            // charge models the same number of shared-counter updates
            // the runtime performs.
            let claim = dynamic_batch(n, threads, chunk);
            let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
                (0..threads).map(|t| Reverse((0u64, t))).collect();
            let mut s = 0usize;
            while s < n {
                let Reverse((busy_bits, tid)) = heap.pop().expect("nonempty");
                let busy = f64::from_bits(busy_bits);
                let work: f64 = costs[s..(s + claim).min(n)].iter().sum::<f64>() + params.dispatch;
                let new_busy = busy + work;
                per_thread[tid] = new_busy;
                heap.push(Reverse((new_busy.to_bits(), tid)));
                s += claim;
            }
        }
        Schedule::Guided { min_chunk } => {
            let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
                (0..threads).map(|t| Reverse((0u64, t))).collect();
            let mut s = 0usize;
            while s < n {
                let Reverse((busy_bits, tid)) = heap.pop().expect("nonempty");
                let busy = f64::from_bits(busy_bits);
                let c = guided_claim(n - s, threads, min_chunk);
                let work: f64 = costs[s..s + c].iter().sum::<f64>() + params.dispatch;
                let new_busy = busy + work;
                per_thread[tid] = new_busy;
                heap.push(Reverse((new_busy.to_bits(), tid)));
                s += c;
            }
        }
    }
    let max = per_thread.iter().cloned().fold(0.0, f64::max);
    // Progressive memory-bandwidth roofline: the bandwidth-bound share of
    // the work scales with the *effective* bandwidth speedup
    // bw(p) = mem_scale·p / (p + mem_scale − 1) (1 at one core, saturating
    // at mem_scale), while the compute share scales with p. The region
    // cannot run faster than that sum, regardless of load balance.
    //
    // Load imbalance still costs wall time when the floor binds: a thread
    // finishing late extends the region even if aggregate bandwidth is
    // saturated, so the schedule's excess over a perfectly balanced
    // partition (max − total/p) rides on top of the floor rather than
    // being absorbed by it.
    let total: f64 = costs.iter().sum();
    let busy: f64 = per_thread.iter().sum();
    let floor = if threads > 1 && params.mem_scale > 1.0 && params.mem_frac > 0.0 {
        let p = threads as f64;
        let bw = params.mem_scale * p / (p + params.mem_scale - 1.0);
        params.mem_frac * total / bw + (1.0 - params.mem_frac) * total / p
    } else {
        0.0
    };
    let excess = (max - busy / threads as f64).max(0.0);
    SimResult {
        time: max.max(floor + excess) + params.fork_join,
        per_thread,
    }
}

/// Simulates the *inner-loop parallelization* strategy the classical
/// baseline produces: the outer loop runs serially and forks a team for
/// each iteration's inner loop. `inner_costs[i]` holds the per-iteration
/// costs of outer iteration `i`'s inner loop; `outer_overhead[i]` is the
/// serial work of outer iteration `i` outside the inner loop.
pub fn simulate_inner_parallel(
    inner_costs: &[Vec<f64>],
    outer_overhead: &[f64],
    threads: usize,
    sched: Schedule,
    params: &SimParams,
) -> f64 {
    inner_costs
        .iter()
        .enumerate()
        .map(|(i, costs)| {
            let extra = outer_overhead.get(i).copied().unwrap_or(0.0);
            extra + simulate_parallel_for(costs, threads, sched, params).time
        })
        .sum()
}

/// Serial time: the plain sum.
pub fn serial_time(costs: &[f64]) -> f64 {
    costs.iter().sum()
}

/// Fork-join constants measured on *this* machine by the
/// `forkjoin_calibrate` binary (`BENCH_forkjoin.json`), replacing the
/// hard-coded defaults in the figure harnesses' cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineCalibration {
    /// Median latency of one empty fork-join region, nanoseconds.
    pub fork_join_ns: f64,
    /// Per-claim overhead of dynamic self-scheduling, nanoseconds.
    pub dispatch_ns: f64,
    /// Thread count the constants were measured at.
    pub threads: usize,
}

impl MachineCalibration {
    /// Parses a `BENCH_forkjoin.json` document, the object
    /// `forkjoin_calibrate` emits.
    pub fn parse_json(doc: &str) -> Option<MachineCalibration> {
        MachineCalibration::from_json(&json::parse(doc).ok()?)
    }

    /// Reads the three scalar keys at the top level of a parsed
    /// calibration document; the same names inside its `host` and
    /// `series` objects are not looked at.
    pub fn from_json(root: &Json) -> Option<MachineCalibration> {
        let fork_join_ns = root.get("fork_join_ns")?.as_f64()?;
        let dispatch_ns = root.get("dispatch_ns")?.as_f64()?;
        let threads = root.get("cal_threads")?.as_u64()? as usize;
        (fork_join_ns.is_finite() && fork_join_ns > 0.0 && dispatch_ns.is_finite()).then_some(
            MachineCalibration {
                fork_join_ns,
                dispatch_ns: dispatch_ns.max(0.0),
                threads: threads.max(1),
            },
        )
    }

    /// Reads a calibration file from disk.
    pub fn load(path: &std::path::Path) -> Option<MachineCalibration> {
        MachineCalibration::parse_json(&std::fs::read_to_string(path).ok()?)
    }

    /// The process-wide calibration, loaded once from
    /// `$SUBSUB_FORKJOIN_CAL` or `./BENCH_forkjoin.json`. `None` when no
    /// calibration file exists — callers fall back to the hard-coded
    /// defaults.
    pub fn load_default() -> Option<MachineCalibration> {
        static CAL: OnceLock<Option<MachineCalibration>> = OnceLock::new();
        *CAL.get_or_init(|| {
            let path = std::env::var("SUBSUB_FORKJOIN_CAL")
                .unwrap_or_else(|_| "BENCH_forkjoin.json".to_string());
            MachineCalibration::load(std::path::Path::new(&path))
        })
    }

    /// Measured dispatch-to-fork-join cost ratio, clamped to a sane
    /// range (a noisy measurement must not turn the dispatch charge
    /// negative or larger than the whole region overhead).
    pub fn dispatch_ratio(&self) -> f64 {
        (self.dispatch_ns / self.fork_join_ns).clamp(1e-4, 1.0)
    }
}

impl SimParams {
    /// Defaults overridden by this machine's measured constants when a
    /// calibration file is present: `fork_join` and `dispatch` become
    /// real nanoseconds instead of the canonical 5000/80.
    pub fn calibrated() -> SimParams {
        match MachineCalibration::load_default() {
            Some(c) => SimParams {
                fork_join: c.fork_join_ns,
                dispatch: c.dispatch_ns,
                ..SimParams::default()
            },
            None => SimParams::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize, c: f64) -> Vec<f64> {
        vec![c; n]
    }

    #[test]
    fn static_uniform_scales() {
        let p = SimParams {
            fork_join: 0.0,
            dispatch: 0.0,
            ..SimParams::default()
        };
        let costs = uniform(1600, 10.0);
        let t1 = simulate_parallel_for(&costs, 1, Schedule::static_default(), &p).time;
        let t16 = simulate_parallel_for(&costs, 16, Schedule::static_default(), &p).time;
        assert!((t1 / t16 - 16.0).abs() < 1e-9);
    }

    #[test]
    fn total_work_conserved() {
        let p = SimParams {
            fork_join: 0.0,
            dispatch: 0.0,
            ..SimParams::default()
        };
        let costs: Vec<f64> = (0..257).map(|i| (i % 7) as f64 + 1.0).collect();
        for sched in [
            Schedule::static_default(),
            Schedule::Static { chunk: Some(4) },
            Schedule::dynamic_default(),
            Schedule::Guided { min_chunk: 1 },
        ] {
            let r = simulate_parallel_for(&costs, 5, sched, &p);
            let total: f64 = r.per_thread.iter().sum();
            assert!(
                (total - costs.iter().sum::<f64>()).abs() < 1e-6,
                "{sched}: {total}"
            );
        }
    }

    #[test]
    fn dynamic_beats_static_on_skewed_work() {
        // One heavy tail at the end of the iteration space: the static
        // blocked schedule loads the last thread with all heavy items.
        let p = SimParams {
            fork_join: 0.0,
            dispatch: 1.0,
            ..SimParams::default()
        };
        let mut costs = uniform(1000, 10.0);
        for c in costs.iter_mut().skip(900) {
            *c = 500.0;
        }
        let st = simulate_parallel_for(&costs, 8, Schedule::static_default(), &p).time;
        let dy = simulate_parallel_for(&costs, 8, Schedule::dynamic_default(), &p).time;
        assert!(dy < st, "dynamic {dy} should beat static {st}");
    }

    #[test]
    fn static_wins_on_uniform_work_with_dispatch_cost() {
        let p = SimParams {
            fork_join: 0.0,
            dispatch: 50.0,
            ..SimParams::default()
        };
        let costs = uniform(10_000, 10.0);
        let st = simulate_parallel_for(&costs, 8, Schedule::static_default(), &p).time;
        let dy = simulate_parallel_for(&costs, 8, Schedule::dynamic_default(), &p).time;
        assert!(
            st < dy,
            "static {st} should beat dynamic {dy} on uniform work"
        );
    }

    #[test]
    fn inner_parallel_pays_fork_join_per_outer_iteration() {
        let params = SimParams {
            fork_join: 1_000.0,
            dispatch: 0.0,
            ..SimParams::default()
        };
        // 100 outer iterations, each with a tiny inner loop.
        let inner: Vec<Vec<f64>> = (0..100).map(|_| uniform(4, 1.0)).collect();
        let inner_time =
            simulate_inner_parallel(&inner, &[], 8, Schedule::static_default(), &params);
        // Outer-parallel: one region over 100 iterations of cost 4 each.
        let outer_costs = uniform(100, 4.0);
        let outer_time =
            simulate_parallel_for(&outer_costs, 8, Schedule::static_default(), &params).time;
        let serial: f64 = 400.0;
        assert!(inner_time > serial, "fork-join swamps the inner strategy");
        assert!(outer_time < inner_time / 50.0);
    }

    #[test]
    fn more_threads_never_slower_static_uniform() {
        let p = SimParams::default();
        let costs = uniform(4096, 25.0);
        let mut last = f64::INFINITY;
        for t in [1, 2, 4, 8, 16] {
            let r = simulate_parallel_for(&costs, t, Schedule::static_default(), &p);
            assert!(r.time <= last + 1e-9);
            last = r.time;
        }
    }

    #[test]
    fn imbalance_metric() {
        let p = SimParams {
            fork_join: 0.0,
            dispatch: 0.0,
            ..SimParams::default()
        };
        let costs = vec![100.0, 1.0];
        let r = simulate_parallel_for(&costs, 2, Schedule::static_default(), &p);
        assert!(r.imbalance() > 1.5);
    }

    #[test]
    fn bandwidth_floor_caps_speedup() {
        let p = SimParams {
            fork_join: 0.0,
            dispatch: 0.0,
            mem_frac: 1.0,
            mem_scale: 3.5,
        };
        let costs = uniform(1600, 10.0);
        let serial: f64 = costs.iter().sum();
        // Fully bandwidth-bound: speedup follows bw(p) and saturates
        // below mem_scale, growing monotonically with p.
        let mut last = 0.0;
        for cores in [4usize, 8, 16] {
            let t = simulate_parallel_for(&costs, cores, Schedule::static_default(), &p).time;
            let sp = serial / t;
            assert!(sp > last, "speedup should grow with cores");
            assert!(sp < 3.5, "speedup stays below mem_scale");
            last = sp;
        }
        // Single thread: no floor.
        let t1 = simulate_parallel_for(&costs, 1, Schedule::static_default(), &p).time;
        assert!((t1 - serial).abs() < 1e-9);
    }

    #[test]
    fn empty_loop() {
        let p = SimParams::default();
        let r = simulate_parallel_for(&[], 8, Schedule::dynamic_default(), &p);
        assert_eq!(r.time, p.fork_join);
    }

    #[test]
    fn calibration_parses_the_emitted_format() {
        let doc = r#"{
  "schema": "subsub-forkjoin/v1",
  "quick": false,
  "cal_threads": 4,
  "fork_join_ns": 1234.5,
  "dispatch_ns": 42.0,
  "legacy_fork_join_ns": 4200.0,
  "improvement": 3.4
}"#;
        let c = MachineCalibration::parse_json(doc).expect("parses");
        assert_eq!(c.threads, 4);
        assert!((c.fork_join_ns - 1234.5).abs() < 1e-9);
        assert!((c.dispatch_ns - 42.0).abs() < 1e-9);
        assert!(c.dispatch_ratio() > 0.0 && c.dispatch_ratio() <= 1.0);
    }

    /// `series` points and `host` may carry the top-level names; only the
    /// top level is the calibration.
    #[test]
    fn calibration_ignores_decoy_keys_in_nested_objects() {
        let doc = r#"{
  "schema": "subsub-forkjoin/v1",
  "host": {"nproc": 2, "cal_threads": 64},
  "series": [{"threads": 1, "fork_join_ns": 59.5, "dispatch_ns": 0.5}],
  "cal_threads": 2,
  "fork_join_ns": 201.0,
  "dispatch_ns": 28.99
}"#;
        let c = MachineCalibration::parse_json(doc).expect("parses");
        assert_eq!(
            (c.threads, c.fork_join_ns, c.dispatch_ns),
            (2, 201.0, 28.99)
        );
        let nested_only =
            r#"{"series": [{"cal_threads": 2, "fork_join_ns": 59.5, "dispatch_ns": 0.5}]}"#;
        assert!(MachineCalibration::parse_json(nested_only).is_none());
    }

    #[test]
    fn calibration_rejects_garbage() {
        assert!(MachineCalibration::parse_json("{}").is_none());
        assert!(MachineCalibration::parse_json(
            r#"{"cal_threads": 4, "fork_join_ns": -1, "dispatch_ns": 2}"#
        )
        .is_none());
        assert!(MachineCalibration::parse_json(
            r#"{"cal_threads": 4, "fork_join_ns": "nope", "dispatch_ns": 2}"#
        )
        .is_none());
    }

    #[test]
    fn dynamic_batching_conserves_work_in_sim() {
        // Large n with chunk 1: batched claims must still cover every
        // iteration's cost exactly once.
        let p = SimParams {
            fork_join: 0.0,
            dispatch: 0.0,
            ..SimParams::default()
        };
        let costs: Vec<f64> = (0..100_000).map(|i| ((i % 5) + 1) as f64).collect();
        let r = simulate_parallel_for(&costs, 4, Schedule::dynamic_default(), &p);
        let total: f64 = costs.iter().sum();
        let busy: f64 = r.per_thread.iter().sum();
        assert!((busy - total).abs() < 1e-6 * total);
    }
}
