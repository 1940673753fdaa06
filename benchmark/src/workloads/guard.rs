//! `guard-cold`: never-seen index arrays from a raw `Vec` to a guard
//! verdict.
//!
//! Every op generates a fresh array with a known answer
//! ([`crate::indexgen`]), holds that answer against the brute-force scan,
//! and only then times `ValidatedIndexArray::ingest` followed by
//! `GuardedExecutor::decide_ingested`. Two thirds of the ops use a
//! cache-resident array, one third an array of at least four times the
//! summed last-level caches. Generation, the brute-force scan and the
//! release of the array are outside the timed region.

use crate::engine::{Config, Layers, Mode, Recorder, Workload};
use crate::host::{ThreadPlan, RESIDENT_ELEMS};
use crate::indexgen::{brute_force, generate, Known, Shape, SHAPES};
use crate::rng::{Rng, StreamHash};
use crate::spec;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use subsub_omprt::ThreadPool;
use subsub_rtcheck::{
    inspect_monotone, inspect_serial, parse_check, Bindings, CompiledCheck, ExecError, GuardPath,
    GuardedExecutor, MonotoneReq, MonotoneVerdict, Provenance, ValidatedIndexArray,
    ValidationError,
};

/// The scalar check every decision evaluates (AMGmk's, from
/// `expected/decisions.tsv`), bound so that it holds.
const CHECK: &str = "num_rownnz - 1 <= irownnz_max";

const RESIDENT: usize = 0;
const STREAM: usize = 1;
const SIZE_NAMES: [&str; 2] = ["resident", "stream"];

/// One op of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// The shape to generate.
    pub shape: Shape,
    /// `RESIDENT` or `STREAM`.
    pub size: usize,
    /// What the guard must establish.
    pub req: MonotoneReq,
    /// Seeds the shape's parameters.
    pub params: u64,
}

/// The ops of one round: each shape twice resident and once stream, in
/// a seeded order.
pub fn plan(seed: u64, round: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0x6775_0000 ^ round);
    let mut ops: Vec<Op> = SHAPES
        .iter()
        .flat_map(|shape| [RESIDENT, RESIDENT, STREAM].map(|size| (*shape, size)))
        .map(|(shape, size)| Op {
            shape,
            size,
            req: if rng.next_u64() & 1 == 0 {
                MonotoneReq::Strict
            } else {
                MonotoneReq::NonStrict
            },
            params: rng.next_u64(),
        })
        .collect();
    rng.shuffle(&mut ops);
    ops
}

/// A lighter mix for warm-up: a round with only the ramp's and the
/// violation's stream ops left in (the same work for every seed).
fn warmup_plan(seed: u64) -> Vec<Op> {
    let mut ops = plan(seed, u64::MAX);
    ops.retain(|op| op.size == RESIDENT || matches!(op.shape, Shape::Ramp | Shape::Violation));
    ops
}

/// Shared state: the guard under test and the team for parallel scans.
pub struct GuardCold {
    seed: u64,
    elems: [usize; 2],
    executor: GuardedExecutor,
    pool: ThreadPool,
}

/// Per-size traced samples, in ns.
#[derive(Default)]
struct SizeSamples {
    roofline: Vec<u64>,
    scan: Vec<u64>,
    scan_par: Vec<u64>,
    ingest: Vec<u64>,
    decide: Vec<u64>,
    verify: Vec<u64>,
}

/// The client's counters.
#[derive(Default)]
pub struct Client {
    sizes: [SizeSamples; 2],
    decisions: u64,
    parallel: u64,
}

fn satisfies(known: &Known, req: MonotoneReq) -> bool {
    match req {
        MonotoneReq::NonStrict => known.nonstrict,
        MonotoneReq::Strict => known.strict,
    }
}

/// The benchmark's own bandwidth reference: a wrapping sum over the
/// buffer the scans are about to read.
fn wrapping_sum(data: &[usize]) -> usize {
    data.iter().fold(0usize, |acc, x| acc.wrapping_add(*x))
}

impl GuardCold {
    fn run_op(&self, op: Op, c: &mut Client, rec: &mut Recorder) {
        let n = self.elems[op.size];
        let bytes = 8 * n as u64;
        let traced = rec.mode == Mode::Traced;
        let g = generate(op.shape, n, &mut Rng::new(op.params, 0));
        let scanned = brute_force(&g.data, g.domain);
        let known = g.known;
        // A name no earlier array of this process had. The guard's memo
        // keys on name, address, length and version; a fresh buffer that
        // lands on a freed one's address under a reused name would be
        // served the old array's verdict (README.md, "Findings").
        static NEXT_ARRAY: AtomicU64 = AtomicU64::new(0);
        let name = format!("idx-{}", NEXT_ARRAY.fetch_add(1, Ordering::Relaxed));
        let mut bindings = Bindings::new();
        bindings
            .set_var("num_rownnz", n as i64)
            .set_post_max("irownnz", n as i64);

        let at = rec.begin_traced_op();
        let root = at.map_or(0, |a| a.root);
        let op_start = Instant::now();
        let samples = &mut c.sizes[op.size];
        let mut serial_scan: Option<MonotoneVerdict> = None;
        let mut parallel_scan: Option<MonotoneVerdict> = None;
        if traced {
            let (_, _, ns) = rec.call(at, root, "roofline.read", bytes, || {
                black_box(wrapping_sum(black_box(&g.data)))
            });
            samples.roofline.push(ns);
            let (v, _, ns) = rec.call(at, root, "rtcheck.inspect_serial", bytes, || {
                inspect_serial(&g.data)
            });
            samples.scan.push(ns);
            serial_scan = Some(v);
            if op.size == STREAM {
                let (v, _, ns) = rec.call(at, root, "rtcheck.inspect_monotone", bytes, || {
                    inspect_monotone(&g.data, Some(&self.pool))
                });
                samples.scan_par.push(ns);
                parallel_scan = Some(v);
            }
        }

        // The timed region: raw Vec → validated array → guard verdict.
        let start = Instant::now();
        let (ingested, _, ingest_ns) = rec.call(at, root, "rtcheck.ingest", bytes, || {
            ValidatedIndexArray::ingest(
                name,
                g.data,
                g.domain,
                Provenance::Generated { seed: op.params },
            )
        });
        let (decision, _, decide_ns) = rec.call(at, root, "rtcheck.decide_ingested", bytes, || {
            ingested.as_ref().ok().map(|arr| {
                self.executor
                    .decide_ingested(Self::NAME, &bindings, &[(arr, op.req)], None)
            })
        });
        let end = Instant::now();

        let mut outcome = if scanned != known {
            Err(format!(
                "{:?}: generator claims {known:?}, brute force finds {scanned:?}",
                op.shape
            ))
        } else {
            match (known.out_of_domain, &ingested, &decision) {
                (Some(want), Err(ValidationError::OutOfDomain { index, .. }), _)
                    if *index == want =>
                {
                    Ok(bytes)
                }
                (None, Ok(_), Some(d)) => {
                    c.decisions += 1;
                    c.parallel += u64::from(d.verdict.path == GuardPath::Parallel);
                    match (satisfies(&known, op.req), d.verdict.path, &d.verdict.reason) {
                        (true, GuardPath::Parallel, None) => Ok(bytes),
                        (
                            false,
                            GuardPath::Serial,
                            Some(ExecError::NotMonotone {
                                first_violation, ..
                            }),
                        ) if *first_violation == known.first_violation => Ok(bytes),
                        (_, path, reason) => Err(format!(
                            "{:?} needing {:?}: decided {path:?} ({reason:?}), known {known:?}",
                            op.shape, op.req
                        )),
                    }
                }
                (want, got, _) => Err(format!(
                    "{:?}: ingest gave {:?}, known out-of-domain {want:?}",
                    op.shape,
                    got.as_ref()
                        .map(|_| "an array")
                        .map_err(ToString::to_string)
                )),
            }
        };
        if traced {
            samples.ingest.push(ingest_ns);
            if let Ok(arr) = &ingested {
                samples.decide.push(decide_ns);
                let (verified, _, ns) =
                    rec.call(at, root, "rtcheck.verify", bytes, || arr.verify());
                samples.verify.push(ns);
                if let (Ok(_), Err(e)) = (&outcome, verified) {
                    outcome = Err(format!("verify after ingest: {e}"));
                }
            }
            // The scans read the raw data, spike included, as the brute
            // force did. The parallel scan may name a later violation.
            let serial_ok = serial_scan.is_none_or(|v| {
                (v.nonstrict, v.strict, v.first_violation)
                    == (known.nonstrict, known.strict, known.first_violation)
            });
            let parallel_ok = parallel_scan.is_none_or(|v| v.nonstrict == known.nonstrict);
            if outcome.is_ok() && !(serial_ok && parallel_ok) {
                outcome = Err(format!(
                    "{:?}: scans {serial_scan:?} / {parallel_scan:?}, known {known:?}",
                    op.shape
                ));
            }
        }
        rec.end_traced_op(at, op_start, Instant::now());
        rec.op(op.size, end - start, outcome);
    }
}

impl Workload for GuardCold {
    type Client = Client;
    const NAME: &'static str = spec::GUARD_COLD;

    fn threads(t: usize) -> ThreadPlan {
        ThreadPlan {
            workers: 0,
            pool_threads: t,
        }
    }

    fn stream_hash(cfg: &Config) -> u64 {
        let mut h = StreamHash::default();
        for round in 0..4 {
            h.eat(format!("{:?}", plan(cfg.seed, round)).as_bytes());
        }
        h.value()
    }

    fn setup(cfg: &Config) -> Result<(GuardCold, Client), String> {
        let check = parse_check(CHECK).map_err(|e| format!("{CHECK}: {e}"))?;
        let w = GuardCold {
            seed: cfg.seed,
            elems: [RESIDENT_ELEMS, cfg.stream_elems()],
            executor: GuardedExecutor::new(Some(&check)).map_err(|e| e.to_string())?,
            pool: ThreadPool::new(cfg.host.threads),
        };
        let mut client = Client::default();
        let mut scratch = Recorder::new(2, Instant::now());
        for op in warmup_plan(cfg.seed) {
            w.run_op(op, &mut client, &mut scratch);
        }
        if scratch.failed > 0 {
            return Err(format!("warm-up: {}", scratch.failures.join("; ")));
        }
        Ok((w, Client::default()))
    }

    fn classes(&self) -> Vec<String> {
        SIZE_NAMES.iter().map(|s| s.to_string()).collect()
    }

    fn round(&self, c: &mut Client, round: u64, rec: &mut Recorder) {
        for op in plan(self.seed, round) {
            self.run_op(op, c, rec);
        }
    }

    fn finish(self, c: Client, rec: &Recorder, cfg: &Config) -> Layers {
        let mut out = Layers::default();
        // Median bandwidth of one call over `elems` elements; bytes per ns
        // are GB/s.
        let gbps = |out: &mut Layers, name: String, ns: &[u64], elems: usize| -> Option<f64> {
            let m = crate::stats::median(&mut ns.to_vec())?;
            let rate = (8 * elems) as f64 / m as f64;
            out.put(name, rate, ns.len() as u64);
            Some(rate)
        };
        let mut stream_rates = (None, None);
        for (size, name) in SIZE_NAMES.iter().enumerate() {
            let s = &c.sizes[size];
            let n = self.elems[size];
            let roof = gbps(
                &mut out,
                format!("roofline.read_gb_per_s.{name}"),
                &s.roofline,
                n,
            );
            gbps(
                &mut out,
                format!("rtcheck.scan_gb_per_s.{name}"),
                &s.scan,
                n,
            );
            let ingest = gbps(
                &mut out,
                format!("rtcheck.ingest_gb_per_s.{name}"),
                &s.ingest,
                n,
            );
            gbps(
                &mut out,
                format!("rtcheck.verify_gb_per_s.{name}"),
                &s.verify,
                n,
            );
            if size == STREAM {
                stream_rates = (ingest, roof);
            }
        }
        let stream = &c.sizes[STREAM];
        gbps(
            &mut out,
            "rtcheck.scan_par_gb_per_s.stream".into(),
            &stream.scan_par,
            self.elems[STREAM],
        );
        if let (Some(ingest), Some(roof)) = stream_rates {
            out.put(
                "rtcheck.ingest_roofline_share",
                ingest / roof,
                stream.ingest.len() as u64,
            );
        }
        out.put_median(
            "rtcheck.decide_ingested_us",
            &c.sizes[RESIDENT].decide,
            1e-3,
        );
        if c.decisions > 0 {
            out.put(
                "rtcheck.guard_parallel_share",
                c.parallel as f64 / c.decisions as f64,
                c.decisions,
            );
        }
        let cache = self.executor.stats().cache;
        let lookups = cache.hits + cache.misses;
        if lookups > 0 {
            out.put(
                "rtcheck.cache_hit_share",
                cache.hits as f64 / lookups as f64,
                lookups,
            );
        }
        if cfg.trace {
            if let Some((ns, samples)) = check_eval_ns(CHECK, self.elems[RESIDENT] as i64) {
                out.put("rtcheck.check_eval_ns", ns, samples);
            }
        }
        out.put(
            "index_gb_per_s",
            crate::engine::bytes_per_s(rec, Mode::Plain) / 1e9,
            rec.correct[Mode::Plain as usize],
        );
        out
    }
}

/// Median time of one evaluation of the compiled `check` with every
/// symbol it reads bound to `n`, from batches of 1000 (one evaluation
/// is below the clock's resolution).
pub fn check_eval_ns(check: &str, n: i64) -> Option<(f64, u64)> {
    const BATCH: u64 = 1000;
    const SAMPLES: usize = 50;
    let compiled = CompiledCheck::compile(&parse_check(check).ok()?).ok()?;
    let mut b = Bindings::new();
    for symbol in compiled.required_symbols() {
        b.set(symbol.clone(), n);
    }
    compiled.eval(&b).ok()?;
    let mut per_eval: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BATCH {
                black_box(compiled.eval(black_box(&b)).ok());
            }
            t.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    crate::stats::median_f64(&mut per_eval).map(|m| (m, BATCH * SAMPLES as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_is_two_thirds_resident() {
        let ops = plan(1, 0);
        assert_eq!(ops.len(), 18);
        assert_eq!(ops.iter().filter(|o| o.size == STREAM).count(), 6);
        for shape in SHAPES {
            assert_eq!(ops.iter().filter(|o| o.shape == shape).count(), 3);
        }
        assert_eq!(
            warmup_plan(1).iter().filter(|o| o.size == STREAM).count(),
            2
        );
    }

    #[test]
    fn plans_follow_the_seed() {
        assert_eq!(plan(5, 3), plan(5, 3));
        assert_ne!(plan(5, 3), plan(6, 3));
        assert_ne!(plan(5, 3), plan(5, 4));
    }
}
