//! `reinspect-delta`: small writes beside whole-array reads on one big
//! validated index array.
//!
//! The array is stream-sized (at least four times the last-level
//! caches): a 32 MiB array sat on the edge of a shared L3, and its
//! whole-array reads ran 20 % faster or slower with the neighbours'
//! appetite for cache. It is the ramp `a[i] = 2i + 1`. Mutations come in pairs on a
//! seeded window of Δ ∈ {1, 64, 4096} elements: the first zeroes the
//! window (a violation exactly at its start), the second writes the
//! ramp back (content, and therefore fingerprint, as before). After
//! every seventh mutation comes a read-only guard decision, so decisions
//! alternately meet a broken and a clean array. What each call must
//! answer follows from the construction; every 64th op the summaries
//! are also held against a from-scratch `inspect_serial`.

use crate::engine::{self, Config, Layers, Mode, Recorder, Workload};
use crate::host::ThreadPlan;
use crate::rng::{Rng, StreamHash};
use crate::spec;
use std::time::Instant;
use subsub_rtcheck::{
    composed_verdict, inspect_serial, Bindings, ExecError, GuardPath, GuardedExecutor, MonotoneReq,
    MonotoneVerdict, Provenance, ValidatedIndexArray,
};

/// Window sizes; also the mutation latency classes, in this order.
const DELTAS: [usize; 3] = [1, 64, 4096];

/// Latency class of the guard decisions.
const DECIDE: usize = 3;

/// Mutation pairs per Δ in one round (so 42 mutations, 6 decisions).
const PAIRS_PER_DELTA: usize = 7;

/// Mutations between two decisions.
const MUTATIONS_PER_DECIDE: usize = 7;

/// Every this many ops the summaries are checked from scratch.
const SCRATCH_CHECK_EVERY: u64 = 64;

const WARMUP_ROUNDS: u64 = 2;

/// One op of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Zero `at..at + DELTAS[class]`.
    Break { class: usize, at: usize },
    /// Write the ramp back over the same window.
    Restore { class: usize, at: usize },
    /// Read-only guard decision over the whole array.
    Decide,
}

/// The ops of one round on an array of `elems` elements: a pure function
/// of the seed and round number.
pub fn plan(seed: u64, round: u64, elems: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0x7265_0000 ^ round);
    let mut classes: Vec<usize> = (0..DELTAS.len())
        .flat_map(|c| std::iter::repeat_n(c, PAIRS_PER_DELTA))
        .collect();
    rng.shuffle(&mut classes);
    let mut ops = Vec::new();
    let mut mutations = 0;
    let mut push = |ops: &mut Vec<Op>, op: Op| {
        ops.push(op);
        mutations += 1;
        if mutations % MUTATIONS_PER_DECIDE == 0 {
            ops.push(Op::Decide);
        }
    };
    for class in classes {
        // `at >= 1` keeps a predecessor (>= 1) above the zeroed window.
        let at = rng.range(1, elems - DELTAS[class]);
        push(&mut ops, Op::Break { class, at });
        push(&mut ops, Op::Restore { class, at });
    }
    ops
}

fn ramp(i: usize) -> usize {
    2 * i + 1
}

/// Shared state: the guard under test.
pub struct Reinspect {
    seed: u64,
    elems: usize,
    executor: GuardedExecutor,
}

/// The client's array and its traced samples.
pub struct Client {
    arr: ValidatedIndexArray,
    /// A small array indexing into `arr`, for the composed verdict.
    inner: ValidatedIndexArray,
    pristine: u64,
    broken_at: Option<usize>,
    ops: u64,
    mutate_ns: [Vec<u64>; 3],
    summary_ns: Vec<u64>,
    composed_ns: Vec<u64>,
    decide_ns: Vec<u64>,
    decisions: u64,
    parallel: u64,
}

fn clean(len: usize) -> MonotoneVerdict {
    MonotoneVerdict {
        nonstrict: true,
        strict: true,
        first_violation: None,
        len,
    }
}

fn broken(at: usize, len: usize) -> MonotoneVerdict {
    MonotoneVerdict {
        nonstrict: false,
        strict: false,
        first_violation: Some(at),
        len,
    }
}

impl Client {
    fn expected(&self) -> MonotoneVerdict {
        let len = self.arr.len();
        self.broken_at.map_or(clean(len), |at| broken(at, len))
    }

    fn scratch_check(&self) -> Result<(), String> {
        let scratch = inspect_serial(self.arr.data());
        if scratch == self.arr.summary_verdict() {
            Ok(())
        } else {
            Err(format!(
                "summaries say {:?}, a from-scratch scan says {scratch:?}",
                self.arr.summary_verdict()
            ))
        }
    }
}

impl Workload for Reinspect {
    type Client = Client;
    const NAME: &'static str = spec::REINSPECT_DELTA;

    fn threads(_t: usize) -> ThreadPlan {
        ThreadPlan {
            workers: 0,
            pool_threads: 0,
        }
    }

    fn stream_hash(cfg: &Config) -> u64 {
        let mut h = StreamHash::default();
        for round in 0..4 {
            h.eat(format!("{:?}", plan(cfg.seed, round, cfg.stream_elems())).as_bytes());
        }
        h.value()
    }

    fn setup(cfg: &Config) -> Result<(Reinspect, Client), String> {
        let ingest = |name: &str, data: Vec<usize>, domain: usize| {
            ValidatedIndexArray::ingest(
                name,
                data,
                domain,
                Provenance::Generated { seed: cfg.seed },
            )
            .map_err(|e| format!("set-up ingest of {name}: {e}"))
        };
        let elems = cfg.stream_elems();
        let arr = ingest("resident", (0..elems).map(ramp).collect(), ramp(elems))?;
        let inner = ingest("inner", (0..65_536).collect(), elems)?;
        let w = Reinspect {
            seed: cfg.seed,
            elems,
            executor: GuardedExecutor::new(None).map_err(|e| e.to_string())?,
        };
        let mut client = Client {
            pristine: arr.checksum(),
            arr,
            inner,
            broken_at: None,
            ops: 0,
            mutate_ns: Default::default(),
            summary_ns: Vec::new(),
            composed_ns: Vec::new(),
            decide_ns: Vec::new(),
            decisions: 0,
            parallel: 0,
        };
        engine::warm_up(&w, &mut client, WARMUP_ROUNDS)?;
        Ok((w, client))
    }

    fn classes(&self) -> Vec<String> {
        vec!["d1".into(), "d64".into(), "d4096".into(), "decide".into()]
    }

    fn round(&self, c: &mut Client, round: u64, rec: &mut Recorder) {
        let traced = rec.mode == Mode::Traced;
        for op in plan(self.seed, round, self.elems) {
            c.ops += 1;
            let at = rec.begin_traced_op();
            let root = at.map_or(0, |a| a.root);
            let start = Instant::now();
            let (class, mut outcome) = match op {
                Op::Break { class, at: pos } | Op::Restore { class, at: pos } => {
                    let window = pos..pos + DELTAS[class];
                    let restoring = matches!(op, Op::Restore { .. });
                    let arr = &mut c.arr;
                    let (wrote, _, mutate_ns) = rec.call(
                        at,
                        root,
                        "rtcheck.mutate_range",
                        DELTAS[class] as u64,
                        || {
                            arr.mutate_range(window, |w| {
                                if restoring {
                                    for (k, x) in w.iter_mut().enumerate() {
                                        *x = ramp(pos + k);
                                    }
                                } else {
                                    w.fill(0);
                                }
                            })
                        },
                    );
                    let (verdict, _, summary_ns) =
                        rec.call(at, root, "rtcheck.summary_verdict", 0, || {
                            c.arr.summary_verdict()
                        });
                    let (checksum, _, _) =
                        rec.call(at, root, "rtcheck.checksum", 0, || c.arr.checksum());
                    c.broken_at = (!restoring).then_some(pos);
                    if traced {
                        c.mutate_ns[class].push(mutate_ns);
                        c.summary_ns.push(summary_ns);
                    }
                    let want = c.expected();
                    let outcome = if let Err(e) = wrote {
                        Err(format!("mutate_range refused an in-domain write: {e}"))
                    } else if verdict != want {
                        Err(format!("summary verdict {verdict:?}, expected {want:?}"))
                    } else if restoring != (checksum == c.pristine) {
                        Err(format!(
                            "checksum {checksum:#x} after a {} (pristine {:#x})",
                            if restoring { "restore" } else { "break" },
                            c.pristine
                        ))
                    } else {
                        Ok(8 * DELTAS[class] as u64)
                    };
                    (class, outcome)
                }
                Op::Decide => {
                    let arrays = [(&c.arr, MonotoneReq::Strict)];
                    let (decision, _, ns) = rec.call(
                        at,
                        root,
                        "rtcheck.decide_ingested",
                        8 * self.elems as u64,
                        || {
                            self.executor.decide_ingested(
                                Self::NAME,
                                &Bindings::new(),
                                &arrays,
                                None,
                            )
                        },
                    );
                    c.decisions += 1;
                    c.parallel += u64::from(decision.verdict.path == GuardPath::Parallel);
                    if traced {
                        c.decide_ns.push(ns);
                    }
                    let outcome =
                        match (c.broken_at, decision.verdict.path, &decision.verdict.reason) {
                            (None, GuardPath::Parallel, None) => Ok(0),
                            (
                                Some(pos),
                                GuardPath::Serial,
                                Some(ExecError::NotMonotone {
                                    first_violation: Some(v),
                                    ..
                                }),
                            ) if *v == pos => Ok(0),
                            (state, path, reason) => Err(format!(
                                "decision {path:?} ({reason:?}) with the array broken at {state:?}"
                            )),
                        };
                    (DECIDE, outcome)
                }
            };
            let end = Instant::now();
            rec.end_traced_op(at, start, end);
            if traced && op == Op::Decide {
                let t = Instant::now();
                let composed = composed_verdict(&c.arr, &c.inner);
                c.composed_ns.push(t.elapsed().as_nanos() as u64);
                if outcome.is_ok() && composed.strict != c.broken_at.is_none() {
                    outcome = Err(format!(
                        "composed verdict {composed:?} with {:?}",
                        c.broken_at
                    ));
                }
            }
            if outcome.is_ok() && c.ops.is_multiple_of(SCRATCH_CHECK_EVERY) {
                outcome = c.scratch_check().map(|()| 0);
            }
            rec.op(class, end - start, outcome);
        }
    }

    fn finish(self, c: Client, _rec: &Recorder, _cfg: &Config) -> Layers {
        let mut out = Layers::default();
        // The last op too is held against a from-scratch scan.
        if let Err(e) = c.scratch_check() {
            out.failures.push(format!("after the last op: {e}"));
        }
        for (class, name) in ["d1", "d64", "d4096"].iter().enumerate() {
            out.put_median(
                format!("rtcheck.mutate_range_us.{name}"),
                &c.mutate_ns[class],
                1e-3,
            );
        }
        out.put_median("rtcheck.summary_verdict_ns", &c.summary_ns, 1.0);
        out.put_median("rtcheck.composed_verdict_ns", &c.composed_ns, 1.0);
        out.put_median("rtcheck.decide_ingested_us", &c.decide_ns, 1e-3);
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
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_pairs_every_break_with_its_restore() {
        const ELEMS: usize = 1 << 20;
        let ops = plan(11, 0, ELEMS);
        assert_eq!(ops.len(), 2 * 3 * PAIRS_PER_DELTA + 6);
        let mutations: Vec<&Op> = ops.iter().filter(|o| **o != Op::Decide).collect();
        for pair in mutations.chunks(2) {
            match (pair[0], pair[1]) {
                (Op::Break { class: a, at: p }, Op::Restore { class: b, at: q }) => {
                    assert_eq!((a, p), (b, q));
                    assert!(*p >= 1 && p + DELTAS[*a] <= ELEMS);
                }
                other => panic!("unpaired {other:?}"),
            }
        }
        // Decisions alternate between a broken and a clean array.
        let mut broken = false;
        let mut seen = Vec::new();
        for op in &ops {
            match op {
                Op::Break { .. } => broken = true,
                Op::Restore { .. } => broken = false,
                Op::Decide => seen.push(broken),
            }
        }
        assert_eq!(seen, [true, false, true, false, true, false]);
    }

    #[test]
    fn plans_follow_the_seed() {
        assert_eq!(plan(5, 3, 1 << 20), plan(5, 3, 1 << 20));
        assert_ne!(plan(5, 3, 1 << 20), plan(6, 3, 1 << 20));
        assert_ne!(plan(5, 3, 1 << 20), plan(5, 4, 1 << 20));
    }
}
