//! The three `Execute` workloads: `serve-hot`, `exec-large` and
//! `exec-inner`. They share one shape — a closed-loop client sending
//! `Payload::Execute` to an [`AnalysisService`] and checking each
//! checksum against a golden taken from a plain `run_serial` in this
//! process — and differ in datasets, analysis level and team sizes.
//!
//! In traced rounds each request is followed by the same work replayed
//! directly on the library (`decide_ingested` → the decided variant →
//! `checksum` → `reset`) and by a plain serial run: the replay is what
//! the service worker's time is compared against, the serial run is the
//! baseline of `outer_speedup` and `inner_slowdown`. Only a traced run
//! holds the copies of the instances this takes; in an untraced run the
//! service's are the only ones alive, so `setup_s` and `peak_rss_mib`
//! are the service's.

use crate::engine::{self, Config, Layers, Mode, Recorder, Workload};
use crate::expected::{self, Variant};
use crate::host::ThreadPlan;
use crate::rng::{Rng, StreamHash};
use crate::spec::{self, INNER_KERNELS, KERNEL_SLUGS};
use crate::stats;
use crate::workloads::guard::check_eval_ns;
use crate::workloads::service::{put_service_metrics, ServiceSamples};
use std::hint::black_box;
use std::marker::PhantomData;
use std::time::{Duration, Instant};
use subsub_core::AlgorithmLevel;
use subsub_kernels::{kernel_by_name, KernelInstance};
use subsub_omprt::{Schedule, ThreadPool};
use subsub_rtcheck::{
    parse_check, GuardPath, GuardedExecutor, MonotoneReq, Provenance, ValidatedIndexArray,
};
use subsub_service::{AnalysisService, Outcome, Payload, Request, Response, ServiceConfig};

/// What tells the three workloads apart.
pub struct ExecSpec {
    /// Level the service analyzes kernels at.
    pub level: AlgorithmLevel,
    /// `(kernel, dataset)` pairs; also the latency classes.
    pub instances: Vec<(&'static str, &'static str)>,
    /// Thread counts.
    pub threads: ThreadPlan,
    /// Times each instance appears in one round.
    pub reps: usize,
    /// Rounds of warm-up.
    pub warmup_rounds: u64,
}

/// One of the three workloads.
pub trait ExecKind: 'static {
    /// Name in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Whether traced runs also measure with telemetry armed.
    const ARMED: bool = false;
    /// Whether the run is pinned to one CPU.
    const PINNED: bool = false;
    /// Its datasets and team sizes for a team of `t`.
    fn spec(t: usize) -> ExecSpec;
}

/// `serve-hot`.
pub struct ServeHot;
/// `exec-large`.
pub struct ExecLarge;
/// `exec-inner`.
pub struct ExecInner;

const LARGE: [(&str, &str); 6] = [
    ("AMGmk", "MATRIX5"),
    ("SDDMM", "af_shell1"),
    ("UA(transf)", "CLASS C"),
    ("CHOLMOD-Supernodal", "spal_004"),
    ("CG", "CLASS B"),
    ("heat-3d", "LARGE"),
];

const INNER: [(&str, &str); INNER_KERNELS] = [
    ("AMGmk", "MATRIX3"),
    ("SDDMM", "af_shell1"),
    ("UA(transf)", "CLASS B"),
    ("CHOLMOD-Supernodal", "spal_004"),
];

impl ExecKind for ServeHot {
    const NAME: &'static str = spec::SERVE_HOT;
    const ARMED: bool = true;
    const PINNED: bool = true;
    fn spec(_t: usize) -> ExecSpec {
        let mut instances: Vec<(&str, &str)> = expected::decisions()
            .iter()
            .filter(|e| e.class != "corpus" && e.level == AlgorithmLevel::New)
            .map(|e| (kernel_static(&e.source), "test"))
            .collect();
        instances.dedup();
        ExecSpec {
            level: AlgorithmLevel::New,
            instances,
            // One client-worker pair: they hand a request back and forth,
            // so together they keep one CPU busy, and the run is pinned
            // to one (see `host::pin_to_one_cpu` for what two cores did).
            threads: ThreadPlan {
                workers: 1,
                pool_threads: 1,
            },
            reps: 4,
            warmup_rounds: 100,
        }
    }
}

impl ExecKind for ExecLarge {
    const NAME: &'static str = spec::EXEC_LARGE;
    fn spec(t: usize) -> ExecSpec {
        ExecSpec {
            level: AlgorithmLevel::New,
            instances: LARGE.to_vec(),
            threads: ThreadPlan {
                workers: 1,
                pool_threads: t,
            },
            reps: 1,
            warmup_rounds: 3,
        }
    }
}

impl ExecKind for ExecInner {
    const NAME: &'static str = spec::EXEC_INNER;
    fn spec(t: usize) -> ExecSpec {
        ExecSpec {
            level: AlgorithmLevel::Classic,
            instances: INNER.to_vec(),
            threads: ThreadPlan {
                workers: 1,
                pool_threads: t,
            },
            reps: 1,
            warmup_rounds: 2,
        }
    }
}

/// The registry's `&'static str` for a kernel named in the TSV.
fn kernel_static(name: &str) -> &'static str {
    kernel_by_name(name)
        .unwrap_or_else(|| panic!("decisions.tsv names {name}, the registry does not"))
        .name()
}

fn slug_of(kernel: &str) -> Option<&'static str> {
    KERNEL_SLUGS
        .iter()
        .find(|(k, _)| *k == kernel)
        .map(|(_, s)| *s)
}

/// Relative agreement of two checksums (parallel reductions reorder
/// floating-point sums).
fn close(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1e-12);
    ((a - b) / scale).abs() < 1e-6
}

/// The instance order of one round: every instance `reps` times,
/// shuffled.
pub fn order(seed: u64, round: u64, instances: usize, reps: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 0x6578_0000 ^ round);
    let mut ids: Vec<usize> = (0..instances)
        .flat_map(|i| std::iter::repeat_n(i, reps))
        .collect();
    rng.shuffle(&mut ids);
    ids
}

/// Shared state: the service under test and the reference answers.
pub struct Exec<K> {
    seed: u64,
    spec: ExecSpec,
    service: AnalysisService,
    variants: Vec<Variant>,
    checks: Vec<Option<String>>,
    goldens: Vec<f64>,
    prepare_ms: f64,
    cold_entry_ms: f64,
    kind: PhantomData<K>,
}

/// Traced samples of one instance, in ns.
#[derive(Default)]
struct InstSamples {
    worker: Vec<u64>,
    decide: Vec<u64>,
    run: Vec<u64>,
    checksum: Vec<u64>,
    reset: Vec<u64>,
    serial: Vec<u64>,
}

/// One instance held for replay and baseline runs.
struct Direct {
    inst: Box<dyn KernelInstance>,
    ingested: Vec<(ValidatedIndexArray, MonotoneReq)>,
    executor: GuardedExecutor,
    samples: InstSamples,
}

/// What a traced run holds beside the service: its own copy of every
/// instance, and the team they run on.
struct Replay {
    direct: Vec<Direct>,
    pool: ThreadPool,
    decisions: u64,
    parallel: u64,
}

/// The closed-loop client.
pub struct Client {
    service: ServiceSamples,
    /// `None` in an untraced run.
    replay: Option<Replay>,
}

impl Direct {
    /// Ingests the index arrays of a prepared instance and compiles its
    /// check, as the service does for its own copy.
    fn new(
        kernel: &str,
        dataset: &str,
        inst: Box<dyn KernelInstance>,
        check: Option<&str>,
    ) -> Result<Direct, String> {
        let ingested = inst
            .index_arrays()
            .iter()
            .map(|view| {
                ValidatedIndexArray::ingest(
                    view.name,
                    view.data.to_vec(),
                    usize::MAX,
                    Provenance::Dataset {
                        name: format!("{kernel}:{dataset}"),
                    },
                )
                .map(|arr| (arr, view.required))
                .map_err(|e| format!("{kernel}:{dataset}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let check = check
            .map(|text| parse_check(text).map_err(|e| format!("{kernel}: check {text:?}: {e}")))
            .transpose()?;
        let executor =
            GuardedExecutor::new(check.as_ref()).map_err(|e| format!("{kernel}: {e}"))?;
        Ok(Direct {
            inst,
            ingested,
            executor,
            samples: InstSamples::default(),
        })
    }
}

impl<K: ExecKind> Exec<K> {
    fn check(&self, i: usize, response: &Option<Response>) -> Result<u64, String> {
        let (kernel, dataset) = self.spec.instances[i];
        let Some(response) = response else {
            return Err(format!("{kernel}:{dataset}: shed at admission"));
        };
        match &response.result {
            Ok(Outcome::Executed {
                path,
                checksum,
                degraded,
            }) => {
                let parallel = self.variants[i] != Variant::Serial;
                if !close(*checksum, self.goldens[i]) {
                    Err(format!(
                        "{kernel}:{dataset}: checksum {checksum} differs from the serial golden {}",
                        self.goldens[i]
                    ))
                } else if (*path == GuardPath::Parallel) != parallel {
                    Err(format!(
                        "{kernel}:{dataset}: ran {path:?} ({degraded:?}), decisions.tsv says {:?}",
                        self.variants[i]
                    ))
                } else if response.telemetry.serialized {
                    Err(format!("{kernel}:{dataset}: ran under serialized mode"))
                } else {
                    Ok(0)
                }
            }
            other => Err(format!("{kernel}:{dataset}: {other:?}")),
        }
    }

    fn request(&self, client: &str, i: usize) -> Request {
        let (kernel, dataset) = self.spec.instances[i];
        Request::new(
            client,
            Payload::Execute {
                kernel: kernel.to_string(),
                dataset: dataset.to_string(),
            },
        )
    }

    /// Replays instance `i` on the library and runs its serial baseline,
    /// under spans when the op is kept.
    fn replay(
        &self,
        r: &mut Replay,
        i: usize,
        at: Option<engine::OpTrace>,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let (kernel, dataset) = self.spec.instances[i];
        let Replay { direct, pool, .. } = r;
        let pool = &*pool;
        let d = &mut direct[i];
        let root = at.map_or(0, |a| a.root);
        let sched = Schedule::Static { chunk: None };

        let replay_start = Instant::now();
        let replay = at.map_or(0, |_| rec.tracer.reserve());
        let bindings = d.inst.runtime_bindings();
        let arrays: Vec<(&ValidatedIndexArray, MonotoneReq)> =
            d.ingested.iter().map(|(a, r)| (a, *r)).collect();
        let (decision, _, ns) = rec.call(at, replay, "rtcheck.decide_ingested", 0, || {
            d.executor
                .decide_ingested(kernel, &bindings, &arrays, Some(pool))
        });
        d.samples.decide.push(ns);
        let inst = &mut d.inst;
        let (_, _, ns) = match self.variants[i] {
            Variant::Outer => rec.call(at, replay, "kernels.run_outer", 0, || {
                inst.run_outer(pool, sched)
            }),
            Variant::Inner => rec.call(at, replay, "kernels.run_inner", 0, || {
                inst.run_inner(pool, sched)
            }),
            Variant::Serial => rec.call(at, replay, "kernels.run_serial", 0, || inst.run_serial()),
        };
        d.samples.run.push(ns);
        let (sum, _, ns) = rec.call(at, replay, "kernels.checksum", 0, || inst.checksum());
        d.samples.checksum.push(ns);
        let (_, _, ns) = rec.call(at, replay, "kernels.reset", 0, || inst.reset());
        d.samples.reset.push(ns);
        if let Some(at) = at {
            rec.tracer.record(
                replay,
                "replay",
                at.op_id,
                root,
                replay_start,
                Instant::now(),
                0,
            );
        }

        let baseline_start = Instant::now();
        let baseline = at.map_or(0, |_| rec.tracer.reserve());
        let (_, _, ns) = rec.call(at, baseline, "kernels.run_serial", 0, || inst.run_serial());
        d.samples.serial.push(ns);
        let serial_sum = inst.checksum();
        rec.call(at, baseline, "kernels.reset", 0, || inst.reset());
        if let Some(at) = at {
            rec.tracer.record(
                baseline,
                "baseline",
                at.op_id,
                root,
                baseline_start,
                Instant::now(),
                0,
            );
        }

        r.decisions += 1;
        r.parallel += u64::from(decision.verdict.path == GuardPath::Parallel);
        let parallel = self.variants[i] != Variant::Serial;
        if (decision.verdict.path == GuardPath::Parallel) != parallel && parallel {
            return Err(format!(
                "{kernel}:{dataset}: direct guard decided {:?} ({:?})",
                decision.verdict.path, decision.verdict.reason
            ));
        }
        if !close(sum, self.goldens[i]) || !close(serial_sum, self.goldens[i]) {
            return Err(format!(
                "{kernel}:{dataset}: replay checksum {sum} / serial {serial_sum}, golden {}",
                self.goldens[i]
            ));
        }
        Ok(())
    }
}

impl<K: ExecKind> Workload for Exec<K> {
    type Client = Client;
    const NAME: &'static str = K::NAME;
    const ARMED: bool = K::ARMED;
    const PINNED: bool = K::PINNED;

    fn threads(t: usize) -> ThreadPlan {
        K::spec(t).threads
    }

    fn stream_hash(cfg: &Config) -> u64 {
        let spec = K::spec(cfg.host.threads);
        let mut h = StreamHash::default();
        h.eat(format!("{:?}", spec.instances).as_bytes());
        for round in 0..4 {
            for i in order(cfg.seed, round, spec.instances.len(), spec.reps) {
                h.eat_u64(i as u64);
            }
        }
        h.value()
    }

    fn setup(cfg: &Config) -> Result<(Exec<K>, Client), String> {
        let spec = K::spec(cfg.host.threads);
        let decisions = expected::decisions();
        let expect: Vec<expected::Expected> = spec
            .instances
            .iter()
            .map(|(kernel, _)| expected::decision_for(&decisions, kernel, spec.level))
            .collect();

        // Goldens: a plain serial run of each instance, here and now. A
        // traced run keeps the instance for its replays; an untraced one
        // lets it go before the next is made.
        let mut prepare = Duration::ZERO;
        let mut goldens = Vec::new();
        let mut direct = Vec::new();
        for ((kernel, dataset), e) in spec.instances.iter().zip(&expect) {
            let k = kernel_by_name(kernel).ok_or_else(|| format!("no kernel {kernel}"))?;
            let t = Instant::now();
            let mut inst = k.prepare(dataset);
            prepare += t.elapsed();
            inst.run_serial();
            goldens.push(inst.checksum());
            inst.reset();
            if cfg.trace {
                direct.push(Direct::new(kernel, dataset, inst, e.check.as_deref())?);
            }
        }
        // The service starts on the heap a process without goldens has.
        crate::host::release_free_memory();
        let mut client = Client {
            service: ServiceSamples::default(),
            replay: cfg.trace.then(|| Replay {
                direct,
                pool: ThreadPool::new(spec.threads.pool_threads),
                decisions: 0,
                parallel: 0,
            }),
        };

        let service = AnalysisService::start(ServiceConfig {
            workers: spec.threads.workers,
            pool_threads: spec.threads.pool_threads,
            level: spec.level,
            ..ServiceConfig::default()
        });
        let mut w = Exec {
            seed: cfg.seed,
            variants: expect.iter().map(|e| e.variant).collect(),
            checks: expect.iter().map(|e| e.check.clone()).collect(),
            goldens,
            prepare_ms: prepare.as_secs_f64() * 1e3,
            cold_entry_ms: 0.0,
            spec,
            service,
            kind: PhantomData,
        };
        // The first Execute of an instance builds its service entry:
        // prepare, compile-time analysis, ingest.
        let mut cold = Duration::ZERO;
        for i in 0..w.spec.instances.len() {
            let t = Instant::now();
            let response = w
                .service
                .submit(w.request("cold", i))
                .ok()
                .map(|t| t.wait());
            cold += t.elapsed();
            w.check(i, &response)
                .map_err(|e| format!("cold entry: {e}"))?;
        }
        w.cold_entry_ms = cold.as_secs_f64() * 1e3;
        let rounds = if cfg.quick { 1 } else { w.spec.warmup_rounds };
        engine::warm_up(&w, &mut client, rounds)?;
        // Warm-up requests are not samples.
        client.service = ServiceSamples::default();
        for d in client.replay.iter_mut().flat_map(|r| &mut r.direct) {
            d.samples = InstSamples::default();
        }
        Ok((w, client))
    }

    fn classes(&self) -> Vec<String> {
        self.spec
            .instances
            .iter()
            .map(|(k, d)| format!("{k}:{d}"))
            .collect()
    }

    fn round(&self, c: &mut Client, round: u64, rec: &mut Recorder) {
        let traced = rec.mode == Mode::Traced;
        for i in order(self.seed, round, self.spec.instances.len(), self.spec.reps) {
            let request = self.request("client", i);
            let at = rec.begin_traced_op();
            let start = Instant::now();
            let response = self.service.submit(request).ok().map(|t| t.wait());
            let end = Instant::now();
            let mut outcome = self.check(i, &response);
            if let Some(r) = &response {
                // A traced run keeps the service's own accounting of its
                // plain segments.
                let kept = c.replay.as_mut().filter(|_| rec.mode == Mode::Plain);
                c.service
                    .record(&r.telemetry, start, end, kept.is_some(), at, rec);
                if let Some(replay) = kept {
                    let worker_ns = r.telemetry.service.as_nanos() as u64;
                    replay.direct[i].samples.worker.push(worker_ns);
                }
            }
            if traced {
                let replay = c
                    .replay
                    .as_mut()
                    .expect("only traced runs, which hold replay copies, have traced segments");
                if let (Ok(_), Err(e)) = (&outcome, self.replay(replay, i, at, rec)) {
                    outcome = Err(e);
                }
                rec.end_traced_op(at, start, Instant::now());
            }
            rec.op(i, end - start, outcome);
        }
    }

    fn finish(self, c: Client, rec: &Recorder, _cfg: &Config) -> Layers {
        let mut out = Layers::default();
        let stats_now = self.service.stats();
        let service_health = self.service.pool().health();
        self.service.shutdown();
        let Some(replay) = c.replay else {
            return out;
        };
        put_service_metrics(&mut out, K::NAME, &c.service, rec, &stats_now);
        out.put("service.cache_hit_share", stats_now.cache.hit_rate(), {
            let c = stats_now.cache;
            c.hits + c.warm_hits + c.coalesced + c.misses
        });
        out.put(
            "service.cold_entry_ms",
            self.cold_entry_ms,
            self.spec.instances.len() as u64,
        );
        out.put(
            "kernels.prepare_ms",
            self.prepare_ms,
            self.spec.instances.len() as u64,
        );

        let plain = engine::class_medians(rec, Mode::Plain);
        let median_of =
            |v: &[u64]| stats::median(&mut v.to_vec()).map(|m| (m as f64, v.len() as u64));
        let mut ratios = Vec::new();
        let mut decide_all = Vec::new();
        for (i, (kernel, _)) in self.spec.instances.iter().enumerate() {
            let s = &replay.direct[i].samples;
            let serial = median_of(&s.serial);
            let run = median_of(&s.run);
            let reset = median_of(&s.reset);
            let decide = median_of(&s.decide);
            let checksum = median_of(&s.checksum);
            let worker = median_of(&s.worker);
            decide_all.extend(&s.decide);
            if let (Some((serial, _)), Some((request, _))) = (serial, plain[i]) {
                ratios.push(serial / request as f64);
            }
            let Some(slug) = slug_of(kernel) else {
                continue;
            };
            if let Some((request, n)) = plain[i] {
                out.put(
                    format!("service.request_p50_us.{slug}"),
                    request as f64 / 1e3,
                    n as u64,
                );
            }
            if let Some((v, n)) = serial {
                out.put(format!("kernels.serial_ms.{slug}"), v / 1e6, n);
            }
            if let Some((v, n)) = run {
                let which = if K::NAME == spec::EXEC_INNER {
                    "inner_ms"
                } else {
                    "outer_ms"
                };
                out.put(format!("kernels.{which}.{slug}"), v / 1e6, n);
            }
            if let Some((v, n)) = reset {
                out.put(format!("kernels.reset_us.{slug}"), v / 1e3, n);
            }
            if let (Some(w), Some(d), Some(r), Some(c), Some(z)) =
                (worker, decide, run, checksum, reset)
            {
                out.put(
                    format!("service.dispatch_overhead_us.{slug}"),
                    (w.0 - d.0 - r.0 - c.0 - z.0) / 1e3,
                    w.1,
                );
            }
        }
        if let Some(g) = stats::geomean(&ratios) {
            let n = ratios.len() as u64;
            match K::NAME {
                spec::EXEC_LARGE => out.put("outer_speedup", g, n),
                spec::EXEC_INNER => out.put("inner_slowdown", 1.0 / g, n),
                _ => {}
            }
        }
        out.put_median("rtcheck.decide_ingested_us", &decide_all, 1e-3);
        if replay.decisions > 0 {
            out.put(
                "rtcheck.guard_parallel_share",
                replay.parallel as f64 / replay.decisions as f64,
                replay.decisions,
            );
        }
        let (hits, misses) = replay
            .direct
            .iter()
            .map(|d| d.executor.stats().cache)
            .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
        if hits + misses > 0 {
            out.put(
                "rtcheck.cache_hit_share",
                hits as f64 / (hits + misses) as f64,
                hits + misses,
            );
        }
        if let Some(check) = self.checks.iter().flatten().next() {
            if let Some((ns, n)) = check_eval_ns(check, 1000) {
                out.put("rtcheck.check_eval_ns", ns, n);
            }
        }

        let mut degraded = service_health.degradation_events();
        if K::NAME != spec::SERVE_HOT {
            degraded += omprt_probes(&replay.pool, &mut out);
        }
        degraded += replay.pool.health().degradation_events();
        out.put(
            "omprt.degradation_events",
            degraded as f64,
            service_health.regions,
        );
        out
    }
}

/// Empty regions per fork-join sample.
const REGIONS_PER_SAMPLE: u32 = 1000;
const FORKJOIN_SAMPLES: usize = 30;
/// Trivial iterations per dispatch sample.
const DISPATCH_ITERS: usize = 1 << 20;
const DISPATCH_SAMPLES: usize = 15;

fn per_region_ns(pool: &ThreadPool, region: impl Fn(&ThreadPool)) -> Option<f64> {
    let mut samples: Vec<f64> = (0..FORKJOIN_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..REGIONS_PER_SAMPLE {
                region(pool);
            }
            t.elapsed().as_nanos() as f64 / f64::from(REGIONS_PER_SAMPLE)
        })
        .collect();
    stats::median_f64(&mut samples)
}

/// Times the pool primitives the kernels are built on, with a team of
/// one and with the client's team of `T`. Returns the degradation
/// events the probe pools saw.
fn omprt_probes(team: &ThreadPool, out: &mut Layers) -> u64 {
    let sched = Schedule::Static { chunk: None };
    let n = u64::from(REGIONS_PER_SAMPLE) * FORKJOIN_SAMPLES as u64;
    let one = ThreadPool::new(1);
    for (pool, name) in [(&one, "t1"), (team, "tmax")] {
        let threads = pool.threads();
        if let Some(ns) = per_region_ns(pool, |p| {
            p.parallel_for(threads, sched, |i| {
                black_box(i);
            })
        }) {
            out.put(format!("omprt.forkjoin_ns.{name}"), ns, n);
        }
    }
    let threads = team.threads();
    if let Some(ns) = per_region_ns(team, |p| {
        black_box(p.parallel_for_reduce(threads, sched, 0usize, |acc, i| acc + i, |a, b| a + b));
    }) {
        out.put("omprt.reduce_ns.tmax", ns, n);
    }
    for (sched, name) in [
        (sched, "static"),
        (Schedule::Dynamic { chunk: 1 }, "dynamic"),
        (Schedule::Guided { min_chunk: 1 }, "guided"),
    ] {
        let mut samples: Vec<f64> = (0..DISPATCH_SAMPLES)
            .map(|_| {
                let t = Instant::now();
                team.parallel_for(DISPATCH_ITERS, sched, |i| {
                    black_box(i);
                });
                t.elapsed().as_nanos() as f64 / DISPATCH_ITERS as f64
            })
            .collect();
        if let Some(ns) = stats::median_f64(&mut samples) {
            out.put(
                format!("omprt.dispatch_ns_per_iter.{name}"),
                ns,
                (DISPATCH_SAMPLES * DISPATCH_ITERS) as u64,
            );
        }
    }
    one.health().degradation_events()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_holds_every_instance_reps_times() {
        let ids = order(3, 0, 16, 4);
        assert_eq!(ids.len(), 64);
        for i in 0..16 {
            assert_eq!(ids.iter().filter(|x| **x == i).count(), 4);
        }
        assert_ne!(order(3, 0, 16, 4), order(3, 1, 16, 4));
        assert_ne!(order(3, 0, 16, 4), order(4, 0, 16, 4));
        assert_eq!(order(3, 7, 16, 4), order(3, 7, 16, 4));
    }

    #[test]
    fn specs_name_registry_kernels_and_fit_the_team() {
        for t in [1, 2, 4] {
            for spec in [ServeHot::spec(t), ExecLarge::spec(t), ExecInner::spec(t)] {
                assert!(spec.threads.check(t).is_ok());
                for (kernel, _) in &spec.instances {
                    assert!(kernel_by_name(kernel).is_some(), "{kernel}");
                }
            }
        }
        assert_eq!(ServeHot::spec(2).instances.len(), 16);
        for (kernel, _) in LARGE {
            assert!(slug_of(kernel).is_some());
        }
    }
}
