//! `analyze-cold`: one client sending C sources to the service for a
//! parallelization verdict.
//!
//! One round holds a fixed mix in a seeded order: the 16 registry kernel
//! sources at each of the three levels, nine conformance-corpus files,
//! five synthetic translation units that together contain every registry
//! function twice (four units of 4 functions, one of 16), and four
//! hostile sources that must be refused. Every source carries a unique
//! tag comment, so no two ops ever send the same text: every op stays
//! cold whatever caches the system grows. Verdicts are held against
//! `expected/decisions.tsv`, refusals against `expected/rejects.tsv`.

use crate::engine::{self, Config, Layers, Mode, OpTrace, Recorder, Workload};
use crate::expected::{self, Expected, Variant, LEVELS};
use crate::host::ThreadPlan;
use crate::rng::{Rng, StreamHash};
use crate::spec;
use crate::workloads::service::{put_service_metrics, ServiceSamples};
use std::time::Instant;
use subsub_cfront::{lex_with, parse_program_with, ParseBudget};
use subsub_core::{
    analyze_function, analyze_lowered, analyze_program_with, decide_loop, AlgorithmLevel,
    CompiledCheck, ProgramReport, PropertyDb,
};
use subsub_ir::{lower_function, IrStmt, LoopIr, LoweredFunction};
use subsub_kernels::all_kernels;
use subsub_service::{
    AnalysisService, Outcome, Payload, Request, Response, ServiceConfig, ServiceError,
};
use subsub_symbolic::RangeEnv;

macro_rules! corpus {
    ($($file:literal),* $(,)?) => {
        [$((
            concat!("corpus/", $file),
            include_str!(concat!("../../../crates/bench/corpus/conform/", $file)),
        )),*]
    };
}

/// The conformance-corpus files with a row in `decisions.tsv`.
const CORPUS: [(&str, &str); 9] = corpus![
    "block_periodic_hist.c",
    "csr_gather.c",
    "guarded_recurrence.c",
    "histogram_scatter.c",
    "pointer_walk.c",
    "stencil_pragma.c",
    "strided_update.c",
    "ternary_precedence.c",
    "two_level_gather.c",
];

/// Functions per small synthetic unit; the large one holds all 16.
const SMALL_UNIT: usize = 4;

const WARMUP_ROUNDS: u64 = 5;

/// What the service must answer for one source.
#[derive(Debug, Clone)]
enum Want {
    /// Accepted, with these per-function decisions.
    Decisions(Vec<Expected>),
    /// Refused with this diagnostic code.
    Reject(&'static str),
}

/// One source of a round.
#[derive(Debug, Clone)]
struct Unit {
    class: usize,
    text: String,
    level: AlgorithmLevel,
    want: Want,
}

/// The seed-independent material rounds are built from.
struct Base {
    /// `(source, statement-line ends inside the body)` per registry kernel.
    kernels: Vec<(&'static str, Vec<usize>)>,
    /// Expected decisions, `[kernel][level]`.
    kernel_want: Vec<[Expected; 3]>,
    corpus_want: Vec<Expected>,
    rejects: Vec<(&'static str, &'static str)>,
    classes: Vec<String>,
}

impl Base {
    fn new() -> Base {
        let decisions = expected::decisions();
        let registry = all_kernels();
        let mut classes = Vec::new();
        let mut kernels = Vec::new();
        let mut kernel_want = Vec::new();
        for k in &registry {
            let src = k.source();
            let body = src.find('{').unwrap_or(0);
            // Ends of lines that end a statement: a cut there leaves the
            // input inside a block, whatever the statement was.
            let cuts: Vec<usize> = src
                .match_indices(";\n")
                .map(|(i, _)| i + 2)
                .filter(|i| *i > body && *i < src.trim_end().len())
                .collect();
            assert!(!cuts.is_empty(), "{} has no statement lines", k.name());
            kernels.push((src, cuts));
            kernel_want.push(LEVELS.map(|(level, name)| {
                classes.push(format!("{}@{name}", k.name()));
                expected::decision_for(&decisions, k.name(), level)
            }));
        }
        let corpus_want = CORPUS
            .iter()
            .map(|(name, _)| {
                classes.push(name.to_string());
                expected::decision_for(&decisions, name, AlgorithmLevel::New)
            })
            .collect();
        classes.push(format!("synthetic-k{SMALL_UNIT}"));
        classes.push(format!("synthetic-k{}", registry.len()));
        let rejects = expected::rejects();
        classes.extend(rejects.iter().map(|(recipe, _)| format!("reject:{recipe}")));
        Base {
            kernels,
            kernel_want,
            corpus_want,
            rejects,
            classes,
        }
    }

    /// The sources of one round, in their seeded order.
    fn round(&self, seed: u64, round: u64) -> Vec<Unit> {
        let mut rng = Rng::new(seed, 0x616e_0000 ^ round);
        let n = self.kernels.len();
        let mut units = Vec::new();
        let mut class = 0;
        for (k, (src, _)) in self.kernels.iter().enumerate() {
            for (l, (level, _)) in LEVELS.iter().enumerate() {
                units.push(Unit {
                    class,
                    text: src.to_string(),
                    level: *level,
                    want: Want::Decisions(vec![self.kernel_want[k][l].clone()]),
                });
                class += 1;
            }
        }
        for ((_, src), want) in CORPUS.iter().zip(&self.corpus_want) {
            units.push(Unit {
                class,
                text: src.to_string(),
                level: AlgorithmLevel::New,
                want: Want::Decisions(vec![want.clone()]),
            });
            class += 1;
        }
        // Synthetic units: every registry function once across the small
        // units and once in the large one, so a round's total source is
        // the same for every seed; only grouping and order vary.
        let new = LEVELS.len() - 1;
        let mut synthetic = |members: &[usize], class: usize| {
            units.push(Unit {
                class,
                text: members.iter().map(|k| self.kernels[*k].0).collect(),
                level: AlgorithmLevel::New,
                want: Want::Decisions(
                    members
                        .iter()
                        .map(|k| self.kernel_want[*k][new].clone())
                        .collect(),
                ),
            });
        };
        let mut perm: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut perm);
        for members in perm.chunks(SMALL_UNIT) {
            synthetic(members, class);
        }
        rng.shuffle(&mut perm);
        synthetic(&perm, class + 1);
        class += 2;
        for (recipe, code) in &self.rejects {
            let (src, cuts) = &self.kernels[rng.range(0, n)];
            let cut = cuts[rng.range(0, cuts.len())];
            let text = match *recipe {
                "truncated" => src[..cut].to_string(),
                "stray-char" => format!("{}@\n{}", &src[..cut], &src[cut..]),
                "open-comment" => format!("{}/* never closed\n{}", &src[..cut], &src[cut..]),
                "over-deep" => {
                    let depth = rng.range(150, 401);
                    format!(
                        "void deep(int n, int *a) {{\n    a[0] = {}n{};\n}}\n",
                        "(".repeat(depth),
                        ")".repeat(depth)
                    )
                }
                other => panic!("rejects.tsv names an unknown recipe {other}"),
            };
            units.push(Unit {
                class,
                text,
                level: AlgorithmLevel::New,
                want: Want::Reject(code),
            });
            class += 1;
        }
        // The tag leads, so a truncated source still ends where it was cut.
        for (i, u) in units.iter_mut().enumerate() {
            u.text
                .insert_str(0, &format!("/* op {seed:x}-{round:x}-{i} */\n"));
        }
        rng.shuffle(&mut units);
        units
    }
}

fn variant_of(report: &ProgramReport, function: &str) -> Option<(Variant, Option<String>)> {
    let f = report.function(function)?;
    Some(match f.last_nest_parallel() {
        None => (Variant::Serial, None),
        Some(l) => (
            if l.depth == 0 {
                Variant::Outer
            } else {
                Variant::Inner
            },
            l.decision
                .plan()
                .and_then(|p| p.runtime_check.as_ref())
                .map(ToString::to_string),
        ),
    })
}

fn check(unit: &Unit, response: &Option<Response>) -> Result<u64, String> {
    let Some(response) = response else {
        return Err("shed at admission".into());
    };
    match (&unit.want, &response.result) {
        (Want::Decisions(wants), Ok(Outcome::Analyzed(report))) => {
            for want in wants {
                let got = variant_of(report, &want.function);
                if got != Some((want.variant, want.check.clone())) {
                    return Err(format!(
                        "{} at {:?}: got {got:?}, decisions.tsv says {:?} with check {:?}",
                        want.function, unit.level, want.variant, want.check
                    ));
                }
            }
            Ok(unit.text.len() as u64)
        }
        (Want::Reject(code), Err(ServiceError::Rejected { code: got, .. })) if got == code => Ok(0),
        (want, got) => Err(format!(
            "wanted {want:?}, got {:?}",
            got.as_ref()
                .map(|_| "a report")
                .map_err(ToString::to_string)
        )),
    }
}

fn loops_with_depth<'a>(body: &'a [IrStmt], depth: usize, out: &mut Vec<(&'a LoopIr, usize)>) {
    for s in body {
        match s {
            IrStmt::Loop(l) => {
                out.push((l, depth));
                loops_with_depth(&l.body, depth + 1, out);
            }
            IrStmt::If { then_s, else_s, .. } => {
                loops_with_depth(then_s, depth, out);
                loops_with_depth(else_s, depth, out);
            }
            _ => {}
        }
    }
}

/// Counts over one round; they must repeat exactly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    tokens: u64,
    loops: u64,
    loops_parallel: u64,
    loops_outer_parallel: u64,
    checks: u64,
}

/// Shared state: the service under test.
pub struct AnalyzeCold {
    seed: u64,
    /// A traced run: plain segments keep the service's own accounting.
    trace: bool,
    base: Base,
    service: AnalysisService,
}

/// The client's traced samples.
#[derive(Default)]
pub struct Client {
    service: ServiceSamples,
    lex_ns_per_kib: Vec<u64>,
    parse_ns_per_kib: Vec<u64>,
    lower_ns: Vec<u64>,
    analyze_function_ns: Vec<u64>,
    decide_loop_ns: Vec<u64>,
    compile_check_ns: Vec<u64>,
    reject_ns: Vec<u64>,
    /// Per traced round: `analyze_lowered` over the registry kernels.
    level_ns: [Vec<u64>; 3],
    stage_sum_ns: u64,
    whole_ns: u64,
    whole_ops: u64,
    counts: Option<Counts>,
}

impl AnalyzeCold {
    /// The pipeline of one accepted source, stage by stage, on the
    /// library. Returns what it counted and `analyze_lowered`'s time.
    fn replay(
        &self,
        unit: &Unit,
        c: &mut Client,
        at: Option<OpTrace>,
        rec: &mut Recorder,
    ) -> Result<(Counts, u64), String> {
        let budget = ParseBudget::DEFAULT;
        let env = RangeEnv::new();
        let src = unit.text.as_str();
        let kib = (src.len() as f64 / 1024.0).max(1e-3);
        let root = at.map_or(0, |a| a.root);
        let start = Instant::now();
        let replay = at.map_or(0, |_| rec.tracer.reserve());
        let mut counts = Counts::default();

        let (tokens, _, lex_ns) =
            rec.call(at, replay, "cfront.lex_with", 0, || lex_with(src, &budget));
        counts.tokens = tokens.map_err(|e| e.to_string())?.len() as u64;
        let (program, _, parse_ns) = rec.call(
            at,
            replay,
            "cfront.parse_program_with",
            counts.tokens,
            || parse_program_with(src, &budget),
        );
        let program = program.map_err(|e| e.to_string())?;
        c.lex_ns_per_kib.push((lex_ns as f64 / kib) as u64);
        c.parse_ns_per_kib
            .push((parse_ns.saturating_sub(lex_ns) as f64 / kib) as u64);
        let mut stages = parse_ns;

        let mut lowered: Vec<LoweredFunction> = Vec::new();
        for func in &program.funcs {
            let (l, _, ns) = rec.call(at, replay, "ir.lower_function", 0, || {
                lower_function(func, &program.globals)
            });
            c.lower_ns.push(ns);
            stages += ns;
            lowered.push(l.map_err(|e| format!("{}: {e}", func.name))?);
        }
        for f in &lowered {
            let properties = if unit.level.analyzes_arrays() {
                let (fa, _, ns) = rec.call(at, replay, "core.analyze_function", 0, || {
                    analyze_function(f, unit.level, &env)
                });
                c.analyze_function_ns.push(ns);
                stages += ns;
                fa.properties
            } else {
                PropertyDb::new()
            };
            let mut loops = Vec::new();
            loops_with_depth(&f.body, 0, &mut loops);
            counts.loops += loops.len() as u64;
            for (l, depth) in loops {
                let (decision, _, ns) = rec.call(at, replay, "core.decide_loop", 0, || {
                    decide_loop(l, &f.types, &f.conds, &properties, unit.level, &env)
                });
                c.decide_loop_ns.push(ns);
                stages += ns;
                if let Some(plan) = decision.plan() {
                    counts.loops_parallel += 1;
                    counts.loops_outer_parallel += u64::from(depth == 0);
                    if let Some(check) = &plan.runtime_check {
                        counts.checks += 1;
                        let (compiled, _, ns) =
                            rec.call(at, replay, "rtcheck.compile_check", 0, || {
                                CompiledCheck::compile(check)
                            });
                        c.compile_check_ns.push(ns);
                        compiled.map_err(|e| format!("check {check} does not compile: {e}"))?;
                    }
                }
            }
        }
        let (_, _, lowered_ns) = rec.call(at, replay, "core.analyze_lowered", 0, || {
            analyze_lowered(&lowered, unit.level)
        });
        let (whole, _, whole_ns) = rec.call(at, replay, "core.analyze_program_with", 0, || {
            analyze_program_with(src, unit.level, &budget)
        });
        whole.map_err(|e| e.to_string())?;
        c.stage_sum_ns += stages;
        c.whole_ns += whole_ns;
        c.whole_ops += 1;
        if let Some(at) = at {
            rec.tracer.record(
                replay,
                "replay",
                at.op_id,
                root,
                start,
                Instant::now(),
                counts.tokens,
            );
        }
        Ok((counts, lowered_ns))
    }
}

impl Workload for AnalyzeCold {
    type Client = Client;
    const NAME: &'static str = spec::ANALYZE_COLD;
    // One client and one worker handing a request back and forth: left
    // to roam two cores they ran at 182 or 246 us per op, depending on
    // where the scheduler had put them for the day.
    const PINNED: bool = true;

    fn threads(_t: usize) -> ThreadPlan {
        ThreadPlan {
            workers: 1,
            pool_threads: 1,
        }
    }

    fn stream_hash(cfg: &Config) -> u64 {
        let base = Base::new();
        let mut h = StreamHash::default();
        for round in 0..4 {
            for unit in base.round(cfg.seed, round) {
                h.eat_u64(unit.class as u64);
                h.eat(unit.text.as_bytes());
            }
        }
        h.value()
    }

    fn setup(cfg: &Config) -> Result<(AnalyzeCold, Client), String> {
        let threads = Self::threads(cfg.host.threads);
        let w = AnalyzeCold {
            seed: cfg.seed,
            trace: cfg.trace,
            base: Base::new(),
            service: AnalysisService::start(ServiceConfig {
                workers: threads.workers,
                pool_threads: threads.pool_threads,
                ..ServiceConfig::default()
            }),
        };
        let rounds = if cfg.quick { 1 } else { WARMUP_ROUNDS };
        engine::warm_up(&w, &mut Client::default(), rounds)?;
        // Warm-up requests are not samples.
        Ok((w, Client::default()))
    }

    fn classes(&self) -> Vec<String> {
        self.base.classes.clone()
    }

    fn round(&self, c: &mut Client, round: u64, rec: &mut Recorder) {
        let traced = rec.mode == Mode::Traced;
        let mut counts = Counts::default();
        let mut level_ns = [0u64; 3];
        let registry_classes = self.base.kernels.len() * LEVELS.len();
        for unit in self.base.round(self.seed, round) {
            let request = Request::new(
                "compiler-user",
                Payload::AnalyzeSource {
                    source: unit.text.clone(),
                    level: unit.level,
                },
            );
            let at = rec.begin_traced_op();
            let start = Instant::now();
            let response = self.service.submit(request).ok().map(|t| t.wait());
            let end = Instant::now();
            let mut outcome = check(&unit, &response);
            if let Some(r) = &response {
                let keep = self.trace && rec.mode == Mode::Plain;
                c.service.record(&r.telemetry, start, end, keep, at, rec);
            }
            if traced {
                match &unit.want {
                    Want::Decisions(_) => match self.replay(&unit, c, at, rec) {
                        Ok((n, lowered_ns)) => {
                            counts.tokens += n.tokens;
                            counts.loops += n.loops;
                            counts.loops_parallel += n.loops_parallel;
                            counts.loops_outer_parallel += n.loops_outer_parallel;
                            counts.checks += n.checks;
                            if unit.class < registry_classes {
                                level_ns[unit.class % LEVELS.len()] += lowered_ns;
                            }
                        }
                        Err(e) if outcome.is_ok() => outcome = Err(format!("replay: {e}")),
                        Err(_) => {}
                    },
                    Want::Reject(code) => {
                        let (refused, _, ns) = rec.call(
                            at,
                            at.map_or(0, |a| a.root),
                            "cfront.parse_program_with",
                            0,
                            || parse_program_with(&unit.text, &ParseBudget::DEFAULT),
                        );
                        c.reject_ns.push(ns);
                        if outcome.is_ok()
                            && refused.map_or_else(|d| d.code.name() != *code, |_| true)
                        {
                            outcome = Err(format!("replay: parser did not refuse with {code}"));
                        }
                    }
                }
                rec.end_traced_op(at, start, Instant::now());
            }
            rec.op(unit.class, end - start, outcome);
        }
        if traced {
            for (samples, ns) in c.level_ns.iter_mut().zip(level_ns) {
                samples.push(ns);
            }
            // Every round holds the same functions, so any traced round's
            // counts must equal the first's.
            match c.counts {
                None => c.counts = Some(counts),
                Some(first) if first != counts => {
                    rec.fail(format!(
                        "round counts {counts:?} differ from the first traced round's {first:?}"
                    ));
                }
                Some(_) => {}
            }
        }
    }

    fn finish(self, c: Client, rec: &Recorder, cfg: &Config) -> Layers {
        let mut out = Layers::default();
        let stats_now = self.service.stats();
        self.service.shutdown();
        if !cfg.trace {
            return out;
        }
        out.put(
            "source_kib_per_s",
            engine::bytes_per_s(rec, Mode::Plain) / 1024.0,
            rec.correct[Mode::Plain as usize],
        );
        put_service_metrics(&mut out, Self::NAME, &c.service, rec, &stats_now);
        out.put_median("cfront.lex_us_per_kib", &c.lex_ns_per_kib, 1e-3);
        out.put_median("cfront.parse_us_per_kib", &c.parse_ns_per_kib, 1e-3);
        out.put_median("cfront.reject_us", &c.reject_ns, 1e-3);
        out.put_median("ir.lower_us_per_fn", &c.lower_ns, 1e-3);
        out.put_median("core.analyze_function_us", &c.analyze_function_ns, 1e-3);
        out.put_median("core.decide_loop_us", &c.decide_loop_ns, 1e-3);
        out.put_median("core.compile_check_us", &c.compile_check_ns, 1e-3);
        for ((_, name), samples) in LEVELS.iter().zip(&c.level_ns) {
            out.put_median(format!("core.analyze_us.{name}"), samples, 1e-3);
        }
        if c.whole_ns > 0 {
            out.put(
                "analyze.layer_sum_ratio",
                c.stage_sum_ns as f64 / c.whole_ns as f64,
                c.whole_ops,
            );
        }
        if let Some(n) = c.counts {
            out.put("cfront.tokens", n.tokens as f64, 1);
            out.put("ir.loops", n.loops as f64, 1);
            out.put("core.loops_parallel", n.loops_parallel as f64, 1);
            out.put(
                "core.loops_outer_parallel",
                n.loops_outer_parallel as f64,
                1,
            );
            out.put("core.checks_emitted", n.checks as f64, 1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_is_the_fixed_mix_in_a_seeded_order() {
        let base = Base::new();
        let a = base.round(1, 0);
        assert_eq!(a.len(), 48 + 9 + 5 + 4);
        assert_eq!(base.classes.len(), 48 + 9 + 2 + 4);
        let rejects = a
            .iter()
            .filter(|u| matches!(u.want, Want::Reject(_)))
            .count();
        assert_eq!(rejects, 4);
        // Each registry function: three single-kernel sources, one small
        // synthetic unit, the large one.
        for [want, ..] in &base.kernel_want {
            let holders = a
                .iter()
                .filter(|u| match &u.want {
                    Want::Decisions(d) => d.iter().any(|e| e.function == want.function),
                    Want::Reject(_) => false,
                })
                .count();
            assert_eq!(holders, 5, "{}", want.function);
        }
        // The accepted bytes of a round do not depend on the seed.
        let accepted = |units: &[Unit]| -> usize {
            units
                .iter()
                .filter(|u| matches!(u.want, Want::Decisions(_)))
                .map(|u| u.text.len())
                .sum()
        };
        let b = base.round(2, 0);
        assert!((accepted(&a) as i64 - accepted(&b) as i64).abs() < 64);
        let order = |units: &[Unit]| units.iter().map(|u| u.class).collect::<Vec<_>>();
        assert_ne!(order(&a), order(&b));
        assert_eq!(order(&a), order(&base.round(1, 0)));
    }

    #[test]
    fn no_two_ops_send_the_same_text() {
        let base = Base::new();
        let mut seen = std::collections::BTreeSet::new();
        for round in 0..3 {
            for u in base.round(9, round) {
                assert!(seen.insert(u.text), "a source repeats");
            }
        }
    }

    #[test]
    fn hostile_sources_are_built_as_the_recipes_say() {
        let base = Base::new();
        for seed in 0..8 {
            for u in base.round(seed, 0) {
                let Want::Reject(code) = u.want else { continue };
                match code {
                    "parse-unexpected-eof" => assert!(u.text.ends_with(";\n")),
                    "lex-unexpected-char" => assert!(u.text.contains("\n@\n")),
                    "lex-unterminated-comment" => assert!(u.text.contains("/* never closed\n")),
                    "budget-depth" => assert!(u.text.contains(&"(".repeat(150))),
                    other => panic!("{other}"),
                }
            }
        }
    }
}
