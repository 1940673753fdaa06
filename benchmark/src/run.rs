//! Running: one workload once (the `BENCHMARK.json` command), or the
//! full set of six workloads, each untraced and then traced, each in a
//! process of its own.

use crate::engine::{self, Config, Mode, Recorder, Workload, MIN_CLASS_SAMPLES};
use crate::host::{self, Host};
use crate::json::Json;
use crate::report::{self, Reading, RunResult};
use crate::spec::{self, Kind};
use crate::stats;
use crate::trace;
use crate::workloads::analyze::AnalyzeCold;
use crate::workloads::exec::{Exec, ExecInner, ExecLarge, ServeHot};
use crate::workloads::guard::GuardCold;
use crate::workloads::reinspect::Reinspect;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;
use subsub_telemetry::json;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// `analyze.layer_sum_ratio` outside this band is a measurement bug.
const LAYER_SUM_BAND: (f64, f64) = (0.9, 1.1);

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Args {
    /// One workload, or `None` for the full set.
    pub workload: Option<String>,
    /// `--seed` (default `0x5eed`).
    pub seed: u64,
    /// `--seconds`: length of the untraced pass (traced passes of a full
    /// set run half as long).
    pub seconds: f64,
    /// `--trace 1`.
    pub trace: bool,
    /// `--quick`: a smoke run, 1/20 of the time, every answer checked.
    pub quick: bool,
    /// `--out`: where result and trace files go.
    pub out: PathBuf,
}

/// Exit code for a configuration that uses more threads than cores.
pub const EXIT_OVERSUBSCRIBED: i32 = 2;

/// Geomean over the classes sampled in both modes of the ratio of their
/// median latencies.
fn p50_ratio(rec: &Recorder, num: Mode, den: Mode) -> Option<(f64, u64)> {
    let a = engine::class_medians(rec, num);
    let b = engine::class_medians(rec, den);
    let ratios: Vec<f64> = a
        .iter()
        .zip(&b)
        .filter_map(|(x, y)| Some(x.as_ref()?.0 as f64 / y.as_ref()?.0 as f64))
        .collect();
    let samples = a.iter().flatten().map(|(_, n)| *n as u64).sum();
    stats::geomean(&ratios).map(|g| (g, samples))
}

/// Runs workload `W` once and reports it.
fn run_workload<W: Workload>(cfg: &Config, out: &Path) -> Result<RunResult, String> {
    let plan = W::threads(cfg.host.threads);
    if let Err(why) = plan.check(cfg.host.nproc) {
        eprintln!("{}: refusing to run: {why}", W::NAME);
        std::process::exit(EXIT_OVERSUBSCRIBED);
    }
    let pinned = if W::PINNED {
        host::pin_to_one_cpu()
    } else {
        None
    };
    if W::PINNED && pinned.is_none() {
        eprintln!("{}: could not pin to one CPU; running unpinned", W::NAME);
    }
    let process_start = Instant::now();
    let (w, mut client) = W::setup(cfg)?;
    let mut setups = vec![process_start.elapsed().as_secs_f64()];
    let classes = w.classes();
    let mut rec = Recorder::new(classes.len(), process_start);

    let measure_start = Instant::now();
    engine::measure(&w, &mut client, &mut rec, cfg);
    let measured_s = measure_start.elapsed().as_secs_f64();
    // The peak of one set-up and one pass, as a process that serves from
    // its start would see it: the repeated set-ups come after.
    let peak_rss = host::peak_rss_mib();
    let layers = w.finish(client, &rec, cfg);
    // Only the untraced run reports `setup_s`, as the median of
    // `SETUP_REPS` set-ups, each on a heap the one before has left.
    if !(cfg.quick || cfg.trace) {
        for _ in 1..SETUP_REPS {
            host::release_free_memory();
            let t = Instant::now();
            let again = W::setup(cfg)?;
            setups.push(t.elapsed().as_secs_f64());
            drop(again);
        }
    }

    let attempted = rec.attempted + layers.failures.len() as u64;
    let failed = rec.failed + layers.failures.len() as u64;
    let mut problems: Vec<String> = rec
        .failures
        .iter()
        .chain(&layers.failures)
        .map(|f| format!("failed op: {f}"))
        .collect();
    let plain_ops = rec.correct[Mode::Plain as usize];

    let min_samples = if cfg.quick { 1 } else { MIN_CLASS_SAMPLES };
    let mut measured: Vec<(String, f64, u64)> = Vec::new();
    if cfg.trace {
        measured.extend(layers.metrics);
        measured.push((
            "failed_share".into(),
            failed as f64 / attempted.max(1) as f64,
            attempted,
        ));
        measured.push((
            "bench.generator_share".into(),
            engine::generator_share(&rec),
            plain_ops,
        ));
        if let Some((ratio, n)) = p50_ratio(&rec, Mode::Traced, Mode::Plain) {
            measured.push((
                format!("bench.trace_overhead_share.{}", W::NAME),
                ratio - 1.0,
                n,
            ));
        }
        if let Some((ratio, n)) = p50_ratio(&rec, Mode::Armed, Mode::Plain) {
            measured.push(("telemetry.armed_overhead_share".into(), ratio - 1.0, n));
        }
    } else {
        let mut s = setups.clone();
        measured.push((
            "setup_s".into(),
            stats::median_f64(&mut s).unwrap_or(0.0),
            s.len() as u64,
        ));
        measured.push((
            "ops_per_s".into(),
            engine::ops_per_s(&rec, Mode::Plain),
            plain_ops,
        ));
        let thin = engine::thin_classes(&rec, Mode::Plain, min_samples);
        if !thin.is_empty() {
            let names: Vec<&str> = thin.iter().map(|c| classes[*c].as_str()).collect();
            problems.push(format!(
                "op_p50_us: latency classes with fewer than {min_samples} samples: {}",
                names.join(", ")
            ));
        } else if let Some((v, n)) = engine::op_p50_us(&rec, Mode::Plain) {
            measured.push(("op_p50_us".into(), v, n));
        }
        if let Some(mib) = peak_rss {
            measured.push(("peak_rss_mib".into(), mib, 1));
        }
    }

    // Every metric of this run kind is reported; one this workload does
    // not exercise reads 0 with 0 samples, one it should have produced
    // and did not is a problem.
    let specs = spec::metrics();
    let mut readings = Vec::new();
    for m in specs
        .iter()
        .filter(|m| (m.kind == Kind::EndToEnd) != cfg.trace)
    {
        let found = measured.iter().find(|(name, _, _)| *name == m.name);
        let (value, samples) = found.map_or((0.0, 0), |(_, v, n)| (*v, *n));
        if m.on.contains(&W::NAME) && (samples == 0 || !value.is_finite()) {
            problems.push(format!("missing metric: {}", m.name));
        }
        readings.push(Reading {
            name: m.name.clone(),
            value,
            unit: m.unit.into(),
            samples,
        });
    }
    if let Some(r) = readings
        .iter()
        .find(|r| r.name == "analyze.layer_sum_ratio" && r.samples > 0)
    {
        if !(LAYER_SUM_BAND.0..=LAYER_SUM_BAND.1).contains(&r.value) {
            problems.push(format!(
                "analyze.layer_sum_ratio = {:.3} is outside [{}, {}]: the stages do not add up to the whole",
                r.value, LAYER_SUM_BAND.0, LAYER_SUM_BAND.1
            ));
        }
    }

    let mut host_json = cfg.host.to_json();
    if let Json::Obj(pairs) = &mut host_json {
        pairs.push(("threads_used".into(), plan.to_json()));
        pairs.push(("quick".into(), Json::Bool(cfg.quick)));
        pairs.push((
            "pinned_cpu".into(),
            pinned.map_or(Json::Null, |c| Json::Num(c as f64)),
        ));
    }
    let result = RunResult {
        workload: W::NAME.into(),
        trace: cfg.trace,
        seed: cfg.seed,
        stream_hash: W::stream_hash(cfg),
        attempted,
        failed,
        measured_s,
        readings,
        problems,
        host: host_json,
    };

    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    if cfg.trace {
        // The file's own text is what gets validated.
        let text = trace::chrome_json(&rec.tracer.spans).to_string();
        json::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|doc| trace::validate(&doc))
            .map_err(|why| format!("the recorded trace does not validate: {why}"))?;
        let path = out.join(format!("trace-{}.json", W::NAME));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let path = out.join(run_file(W::NAME, cfg.trace));
    std::fs::write(&path, result.to_json().pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(result)
}

fn read_json(path: &Path) -> Result<json::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_file(workload: &str, trace: bool) -> String {
    format!("run-{workload}-trace{}.json", u8::from(trace))
}

fn print_run(result: &RunResult, cfg: &Config) {
    let h = &cfg.host;
    println!(
        "== {}  seed {:#x}  trace {}  measured {:.2} s  op stream {:#018x} ==",
        result.workload,
        result.seed,
        u8::from(result.trace),
        result.measured_s,
        result.stream_hash
    );
    println!(
        "host: nproc {}, T {}, threads used {}, caches (L2 x cores + L3) {:.1} MiB, stream buffer {:.0} MiB, resident buffer {} KiB",
        h.nproc,
        h.threads,
        result.host.get("threads_used").map_or(String::new(), Json::to_string),
        h.llc_bytes as f64 / (1 << 20) as f64,
        (cfg.stream_elems() * 8) as f64 / (1 << 20) as f64,
        host::RESIDENT_ELEMS * 8 / 1024
    );
    println!(
        "host: {}, rustflags [{}], commit {}",
        h.rustc, h.rustflags, h.commit
    );
    print!("{}", result.table(&spec::metrics()));
    println!(
        "ops: {} attempted, {} failed",
        result.attempted, result.failed
    );
    for p in &result.problems {
        println!("PROBLEM: {p}");
    }
}

/// Runs one workload by name; the last line printed is the driver's JSON.
pub fn single(args: &Args, name: &str) -> Result<bool, String> {
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        host: Host::detect(),
    };
    let result = match name {
        spec::ANALYZE_COLD => run_workload::<AnalyzeCold>(&cfg, &args.out),
        spec::SERVE_HOT => run_workload::<Exec<ServeHot>>(&cfg, &args.out),
        spec::EXEC_LARGE => run_workload::<Exec<ExecLarge>>(&cfg, &args.out),
        spec::EXEC_INNER => run_workload::<Exec<ExecInner>>(&cfg, &args.out),
        spec::GUARD_COLD => run_workload::<GuardCold>(&cfg, &args.out),
        spec::REINSPECT_DELTA => run_workload::<Reinspect>(&cfg, &args.out),
        other => {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {other}; choose one of {}",
                names.join(", ")
            ));
        }
    }?;
    print_run(&result, &cfg);
    println!("{}", result.driver_line());
    Ok(result.correct())
}

/// Runs the full set: each workload untraced, then traced for half as
/// long, each in its own process; writes `results.json`.
pub fn full_set(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut all_ok = true;
    let start = Instant::now();
    for w in spec::WORKLOADS {
        for trace in [false, true] {
            let seconds = if trace {
                args.seconds / 2.0
            } else {
                args.seconds
            };
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out);
            if args.quick {
                cmd.arg("--quick");
            }
            let status = cmd
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            if status.code() == Some(EXIT_OVERSUBSCRIBED) {
                std::process::exit(EXIT_OVERSUBSCRIBED);
            }
            all_ok &= status.success();
            runs.push(RunResult::from_json(&read_json(
                &args.out.join(run_file(w.name, trace)),
            )?)?);
            println!();
        }
    }
    let path = args.out.join("results.json");
    std::fs::write(&path, report::set_json(&runs, args.quick).pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let problems: usize = runs.iter().map(|r| r.problems.len()).sum();
    println!(
        "full set: {} runs in {:.0} s, {failed} failed ops, {problems} problems -> {}",
        runs.len(),
        start.elapsed().as_secs_f64(),
        path.display()
    );
    Ok(all_ok && runs.iter().all(RunResult::correct))
}

/// Compares two `results.json` files; prints the spread table.
pub fn compare_files(first: &Path, second: &Path) -> Result<bool, String> {
    let load = |p: &Path| report::set_from_json(&read_json(p)?);
    let rows = report::compare(&load(first)?, &load(second)?, &spec::metrics())?;
    print!("{}", report::spread_table(&rows));
    let bad = rows.iter().filter(|r| !r.ok).count();
    println!("\n{} rows, {bad} outside their bound", rows.len());
    Ok(bad == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> Config {
        Config {
            seed,
            seconds: 0.05,
            trace: true,
            quick: true,
            host: Host::detect(),
        }
    }

    #[test]
    fn op_streams_follow_the_seed() {
        fn check<W: Workload>() {
            assert_eq!(
                W::stream_hash(&cfg(7)),
                W::stream_hash(&cfg(7)),
                "{}",
                W::NAME
            );
            assert_ne!(
                W::stream_hash(&cfg(7)),
                W::stream_hash(&cfg(8)),
                "{}",
                W::NAME
            );
        }
        check::<AnalyzeCold>();
        check::<Exec<ServeHot>>();
        check::<Exec<ExecLarge>>();
        check::<Exec<ExecInner>>();
        check::<GuardCold>();
        check::<Reinspect>();
    }

    /// A traced `analyze-cold` run end to end: every per-layer metric of
    /// the workload is there, counts repeat exactly (for another seed
    /// too: a round always holds the same functions), the trace file
    /// validates, and the result file reads back.
    #[test]
    fn a_traced_run_reports_repeats_and_validates() {
        let out = std::env::temp_dir().join(format!("subsub-bench-run-{}", std::process::id()));
        let specs = spec::metrics();
        let counts = |r: &RunResult| -> Vec<(String, f64)> {
            r.readings
                .iter()
                .filter(|x| {
                    specs
                        .iter()
                        .any(|m| m.name == x.name && m.kind == Kind::Count)
                })
                .map(|x| (x.name.clone(), x.value))
                .collect()
        };
        let first = run_workload::<AnalyzeCold>(&cfg(7), &out).unwrap();
        assert!(first.correct(), "{:?}", first.problems);
        assert!(first.attempted >= 66);
        for m in specs.iter().filter(|m| m.kind != Kind::EndToEnd) {
            let r = first
                .readings
                .iter()
                .find(|r| r.name == m.name)
                .expect("every metric is reported");
            assert_eq!(
                r.samples > 0,
                m.on.contains(&spec::ANALYZE_COLD),
                "{}",
                m.name
            );
        }
        let tokens = counts(&first)
            .iter()
            .find(|(n, _)| n == "cfront.tokens")
            .unwrap()
            .1;
        assert!(tokens > 1000.0);

        let again = run_workload::<AnalyzeCold>(&cfg(7), &out).unwrap();
        assert_eq!(counts(&first), counts(&again));
        assert_eq!(first.stream_hash, again.stream_hash);
        let other = run_workload::<AnalyzeCold>(&cfg(8), &out).unwrap();
        assert_eq!(counts(&first), counts(&other));
        assert_ne!(first.stream_hash, other.stream_hash);

        let summary = trace::validate(&read_json(&out.join("trace-analyze-cold.json")).unwrap());
        let summary = summary.unwrap();
        assert!(summary.ops >= 66 && summary.spans > summary.ops);
        let file = read_json(&out.join(run_file(spec::ANALYZE_COLD, true))).unwrap();
        let back = RunResult::from_json(&file).unwrap();
        assert_eq!(back.host.get("nproc"), other.host.get("nproc"));
        // Host facts come back in key order; the rest as written.
        assert_eq!(
            RunResult {
                host: Json::Null,
                ..back
            },
            RunResult {
                host: Json::Null,
                ..other
            }
        );
        std::fs::remove_dir_all(&out).unwrap();
    }
}
