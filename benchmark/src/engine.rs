//! The part every workload shares: one closed-loop client running seeded
//! rounds of checked ops until the clock says stop, and the end-to-end
//! numbers that fall out of its latencies.
//!
//! A *round* is one fixed mix of ops in a seeded order, so whole rounds
//! make throughput comparable from run to run. A *segment* is a quarter
//! second of rounds in one [`Mode`]; the untraced run is all plain
//! segments, the traced run alternates plain and traced ones so the two
//! are compared under the same drift.

use crate::host::{Host, ThreadPlan};
use crate::stats;
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// A latency class needs this many samples before its median counts.
pub const MIN_CLASS_SAMPLES: usize = 30;

/// Length of a segment. Short, so that a traced run interleaves its
/// modes finely and compares them under the same drift.
const SEGMENT: Duration = Duration::from_millis(250);

/// What a segment records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Ops only: the numbers end-to-end metrics come from.
    Plain = 0,
    /// Ops, then the same work replayed on the library under spans.
    Traced = 1,
    /// Ops with `subsub_telemetry` armed (only `serve-hot` asks).
    Armed = 2,
}

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Op streams derive from this.
    pub seed: u64,
    /// Length of the measured pass.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Smoke mode: one set-up, small stream buffers, no sample floor.
    pub quick: bool,
    /// The host and the team size.
    pub host: Host,
}

impl Config {
    /// Elements of a stream-sized index array (shrunk in quick mode,
    /// whose numbers are not for comparison).
    pub fn stream_elems(&self) -> usize {
        if self.quick {
            self.host.stream_elems / 16
        } else {
            self.host.stream_elems
        }
    }
}

/// The client's samples.
#[derive(Debug)]
pub struct Recorder {
    /// The mode of the running segment (set by the engine).
    pub mode: Mode,
    /// Rounds finished.
    pub rounds: u64,
    /// Op latencies in ns, `[mode][class]`.
    pub lat: [Vec<Vec<u64>>; 3],
    /// Summed op latencies per mode: the time spent inside the system.
    pub busy_ns: [u64; 3],
    /// Wall time of the segments of each mode.
    pub wall_ns: [u64; 3],
    /// Correct ops per mode.
    pub correct: [u64; 3],
    /// Payload bytes of correct ops per mode (source or index bytes).
    pub bytes: [u64; 3],
    /// Ops attempted.
    pub attempted: u64,
    /// Ops with a wrong or missing answer.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Span store for traced segments.
    pub tracer: Tracer,
}

impl Recorder {
    /// An empty recorder for a workload with `classes` latency classes.
    pub fn new(classes: usize, epoch: Instant) -> Recorder {
        Recorder {
            mode: Mode::Plain,
            rounds: 0,
            lat: std::array::from_fn(|_| vec![Vec::new(); classes]),
            busy_ns: [0; 3],
            wall_ns: [0; 3],
            correct: [0; 3],
            bytes: [0; 3],
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            tracer: Tracer::new(epoch),
        }
    }

    /// Records one op: its class, its latency as the client saw it, and
    /// either the payload bytes of a correct answer or what was wrong.
    pub fn op(&mut self, class: usize, latency: Duration, outcome: Result<u64, String>) {
        let m = self.mode as usize;
        let ns = latency.as_nanos() as u64;
        self.attempted += 1;
        self.busy_ns[m] += ns;
        match outcome {
            Ok(bytes) => {
                self.lat[m][class].push(ns);
                self.correct[m] += 1;
                self.bytes[m] += bytes;
            }
            Err(why) => self.note_failure(why),
        }
    }
}

impl Recorder {
    /// Records a failed check that belongs to no single op.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.note_failure(why);
    }

    fn note_failure(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// Where the spans of one traced op hang: the op's id and its root span.
#[derive(Debug, Clone, Copy)]
pub struct OpTrace {
    /// Shared by every span of the op.
    pub op_id: u64,
    /// The reserved id of the op's root span.
    pub root: u64,
}

impl Recorder {
    /// Starts a traced op. `None` in other modes, and once the trace
    /// file has its fill of ops.
    pub fn begin_traced_op(&mut self) -> Option<OpTrace> {
        if self.mode != Mode::Traced {
            return None;
        }
        let op_id = self.tracer.begin_op()?;
        Some(OpTrace {
            op_id,
            root: self.tracer.reserve(),
        })
    }

    /// Closes a traced op with its root span.
    pub fn end_traced_op(&mut self, at: Option<OpTrace>, start: Instant, end: Instant) {
        if let Some(at) = at {
            self.tracer
                .record(at.root, "op", at.op_id, 0, start, end, 0);
        }
    }

    /// Times one call into a layer, as a child of `parent` when the op
    /// is being kept. Returns the call's result, its span id (0 when
    /// not kept) and its duration in ns.
    pub fn call<R>(
        &mut self,
        at: Option<OpTrace>,
        parent: u64,
        name: &'static str,
        count: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64, u64) {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        let id = at.map_or(0, |at| {
            self.tracer.span(name, at.op_id, parent, start, end, count)
        });
        (result, id, (end - start).as_nanos() as u64)
    }
}

/// One workload: seeded set-up, a client round, and what its traced
/// rounds add up to.
pub trait Workload: Sized {
    /// The client's state (its direct instances, its samples, …).
    type Client;

    /// The name in `BENCHMARK.json`.
    const NAME: &'static str;

    /// Whether the traced run also measures with telemetry armed.
    const ARMED: bool = false;

    /// Whether the whole run is pinned to one CPU
    /// ([`crate::host::pin_to_one_cpu`]).
    const PINNED: bool = false;

    /// The thread counts this workload configures for a team of `t`.
    fn threads(t: usize) -> ThreadPlan;

    /// Identifies the op stream of a seed without running it.
    fn stream_hash(cfg: &Config) -> u64;

    /// Builds everything and warms it up. Timed as `setup_s`.
    fn setup(cfg: &Config) -> Result<(Self, Self::Client), String>;

    /// Names of the latency classes, indexed as `Recorder::op` expects.
    fn classes(&self) -> Vec<String>;

    /// Runs one round of ops.
    fn round(&self, client: &mut Self::Client, round: u64, rec: &mut Recorder);

    /// Stops what set-up started and turns the traced samples into
    /// per-layer metrics.
    fn finish(self, client: Self::Client, rec: &Recorder, cfg: &Config) -> Layers;
}

/// What a workload hands back when it finishes.
#[derive(Debug, Default)]
pub struct Layers {
    /// Per-layer metrics of the run: `(name, value, samples)`.
    pub metrics: Vec<(String, f64, u64)>,
    /// Checks that failed outside any op (each counts as a failed op).
    pub failures: Vec<String>,
}

impl Layers {
    /// Adds a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, samples: u64) {
        self.metrics.push((name.into(), value, samples));
    }

    /// Adds the median of `samples` scaled by `scale`, if there are any.
    pub fn put_median(&mut self, name: impl Into<String>, samples: &[u64], scale: f64) {
        let mut s = samples.to_vec();
        if let Some(m) = stats::median(&mut s) {
            self.put(name, m as f64 * scale, s.len() as u64);
        }
    }
}

/// Runs rounds in `mode` until `until` (the last round is finished).
fn segment<W: Workload>(
    w: &W,
    client: &mut W::Client,
    rec: &mut Recorder,
    mode: Mode,
    until: Instant,
) {
    let _armed = (mode == Mode::Armed).then(subsub_telemetry::arm);
    let start = Instant::now();
    rec.mode = mode;
    loop {
        w.round(client, rec.rounds, rec);
        rec.rounds += 1;
        if Instant::now() >= until {
            break;
        }
    }
    rec.wall_ns[mode as usize] += start.elapsed().as_nanos() as u64;
}

/// The measured pass: short segments until the time is up, all plain in
/// an untraced run, cycling through the modes in a traced one.
pub fn measure<W: Workload>(w: &W, client: &mut W::Client, rec: &mut Recorder, cfg: &Config) {
    let modes: &[Mode] = match (cfg.trace, W::ARMED) {
        (false, _) => &[Mode::Plain],
        (true, false) => &[Mode::Plain, Mode::Traced],
        (true, true) => &[Mode::Plain, Mode::Traced, Mode::Armed],
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let mut segments = 0;
    // Every mode runs at least once, however long a round is.
    while Instant::now() < deadline || segments < modes.len() {
        let until = (Instant::now() + SEGMENT).min(deadline);
        segment(w, client, rec, modes[segments % modes.len()], until);
        segments += 1;
    }
    // On a slow host the longest ops may not have reached the sample
    // floor yet: keep going, round by round, for at most as long again.
    let thin = |rec: &Recorder| !thin_classes(rec, Mode::Plain, MIN_CLASS_SAMPLES).is_empty();
    while !cfg.trace && !cfg.quick && thin(rec) && Instant::now() < deadline + (deadline - start) {
        segment(w, client, rec, Mode::Plain, Instant::now());
    }
}

/// Warm-up: `rounds` plain rounds whose samples are thrown away (their
/// round numbers count down from `u64::MAX`, apart from the measured
/// stream). A wrong answer during warm-up fails set-up.
pub fn warm_up<W: Workload>(w: &W, client: &mut W::Client, rounds: u64) -> Result<(), String> {
    let mut scratch = Recorder::new(w.classes().len(), Instant::now());
    for r in 0..rounds {
        w.round(client, u64::MAX - r, &mut scratch);
    }
    if scratch.failed > 0 {
        return Err(format!("warm-up: {}", scratch.failures.join("; ")));
    }
    Ok(())
}

/// Median latency per class in ns, with its sample count. A class with
/// no samples is absent.
pub fn class_medians(rec: &Recorder, mode: Mode) -> Vec<Option<(u64, usize)>> {
    rec.lat[mode as usize]
        .iter()
        .map(|samples| {
            let mut s = samples.clone();
            stats::median(&mut s).map(|m| (m, s.len()))
        })
        .collect()
}

/// Indices of the latency classes of `mode` that have fewer than
/// `min_samples` correct ops over the whole pass.
pub fn thin_classes(rec: &Recorder, mode: Mode, min_samples: usize) -> Vec<usize> {
    class_medians(rec, mode)
        .iter()
        .enumerate()
        .filter(|(_, m)| m.is_none_or(|(_, n)| n < min_samples))
        .map(|(class, _)| class)
        .collect()
}

/// Geometric mean over the latency classes that have samples of the
/// class's median latency, in µs, with the samples behind it.
pub fn op_p50_us(rec: &Recorder, mode: Mode) -> Option<(f64, u64)> {
    let medians = class_medians(rec, mode);
    let us: Vec<f64> = medians
        .iter()
        .flatten()
        .map(|(m, _)| *m as f64 / 1e3)
        .collect();
    let samples = medians.iter().flatten().map(|(_, n)| *n as u64).sum();
    stats::geomean(&us).map(|g| (g, samples))
}

/// Closed-loop throughput with zero think time: correct ops over the
/// time spent inside the system.
pub fn ops_per_s(rec: &Recorder, mode: Mode) -> f64 {
    let m = mode as usize;
    rec.correct[m] as f64 / (rec.busy_ns[m].max(1) as f64 / 1e9)
}

/// Payload bytes of correct ops per second of in-system time.
pub fn bytes_per_s(rec: &Recorder, mode: Mode) -> f64 {
    let m = mode as usize;
    rec.bytes[m] as f64 / (rec.busy_ns[m].max(1) as f64 / 1e9)
}

/// Share of the plain segments' wall time the client spent outside the
/// system: generating inputs and checking answers.
pub fn generator_share(rec: &Recorder) -> f64 {
    let m = Mode::Plain as usize;
    let (wall, busy) = (rec.wall_ns[m], rec.busy_ns[m]);
    if wall == 0 {
        0.0
    } else {
        1.0 - (busy.min(wall) as f64 / wall as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Host;

    /// Three classes, one op each per round; class 2 fails on odd rounds
    /// of a client that was told to.
    struct Fake;

    impl Workload for Fake {
        /// Whether class 2 fails on odd rounds.
        type Client = bool;
        const NAME: &'static str = "fake";
        const ARMED: bool = true;

        fn threads(_t: usize) -> ThreadPlan {
            ThreadPlan {
                workers: 0,
                pool_threads: 0,
            }
        }
        fn stream_hash(cfg: &Config) -> u64 {
            cfg.seed
        }
        fn setup(_cfg: &Config) -> Result<(Fake, bool), String> {
            Ok((Fake, true))
        }
        fn classes(&self) -> Vec<String> {
            vec!["a".into(), "b".into(), "c".into()]
        }
        fn round(&self, failing: &mut bool, round: u64, rec: &mut Recorder) {
            for class in 0..3 {
                let at = rec.begin_traced_op();
                let start = Instant::now();
                let ((), _, ns) = rec.call(
                    at,
                    at.map_or(0, |a| a.root),
                    "fake.work",
                    class as u64,
                    || {
                        std::hint::black_box((0..200u64).sum::<u64>());
                    },
                );
                rec.end_traced_op(at, start, Instant::now());
                let outcome = if class == 2 && *failing && round % 2 == 1 {
                    Err(format!("round {round}"))
                } else {
                    Ok(8)
                };
                rec.op(class, Duration::from_nanos(ns.max(1)), outcome);
            }
        }
        fn finish(self, _failing: bool, _rec: &Recorder, _cfg: &Config) -> Layers {
            Layers::default()
        }
    }

    fn run(trace: bool) -> Recorder {
        let cfg = Config {
            seed: 1,
            seconds: 0.02,
            trace,
            quick: true,
            host: Host::detect(),
        };
        let (w, mut failing) = Fake::setup(&cfg).unwrap();
        let mut rec = Recorder::new(3, Instant::now());
        measure(&w, &mut failing, &mut rec, &cfg);
        rec
    }

    #[test]
    fn an_untraced_pass_is_whole_plain_rounds() {
        let rec = run(false);
        assert!(rec.rounds >= 1);
        assert_eq!(
            rec.attempted,
            3 * rec.rounds,
            "a pass ends on a round boundary"
        );
        assert!(rec.tracer.spans.is_empty(), "no spans without tracing");
        let traced: usize = rec.lat[Mode::Traced as usize].iter().map(Vec::len).sum();
        assert_eq!(traced, 0);
        assert_eq!(rec.failed, rec.rounds / 2);
        assert!(ops_per_s(&rec, Mode::Plain) > 0.0);
        assert!(op_p50_us(&rec, Mode::Plain).unwrap().0 > 0.0);
        assert!(bytes_per_s(&rec, Mode::Plain) > 0.0);
        assert!((0.0..=1.0).contains(&generator_share(&rec)));
    }

    #[test]
    fn a_traced_pass_cycles_through_every_mode() {
        let rec = run(true);
        for mode in [Mode::Plain, Mode::Traced, Mode::Armed] {
            assert!(op_p50_us(&rec, mode).is_some(), "{mode:?}");
            assert!(rec.wall_ns[mode as usize] > 0, "{mode:?}");
        }
        let spans = &rec.tracer.spans;
        assert!(spans.iter().any(|s| s.name == "op" && s.parent == 0));
        let text = crate::trace::chrome_json(spans).to_string();
        crate::trace::validate(&subsub_telemetry::json::parse(&text).unwrap()).unwrap();
    }

    #[test]
    fn thin_classes_are_found() {
        let rec = run(false);
        assert!(thin_classes(&rec, Mode::Plain, 1).is_empty());
        assert_eq!(thin_classes(&rec, Mode::Plain, usize::MAX), [0, 1, 2]);
    }

    #[test]
    fn warm_up_reports_a_wrong_answer() {
        // Warm-up rounds count down from u64::MAX, which is odd.
        assert!(warm_up(&Fake, &mut false, 2).is_ok());
        let err = warm_up(&Fake, &mut true, 2).unwrap_err();
        assert!(err.starts_with("warm-up: round"), "{err}");
    }
}
