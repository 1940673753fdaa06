//! Result documents: one run, a full set (`results.json`), and the
//! comparison of two sets that `repeat.sh` prints.

use crate::json::Json;
use crate::spec::{Better, Kind, MetricSpec};
use std::fmt::Write as _;
use subsub_telemetry::json::Json as Parsed;

/// Schema tag of every result file.
pub const SCHEMA: &str = "subsub-benchmark/v1";

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Samples behind it (0: this workload does not exercise it).
    pub samples: u64,
}

/// The outcome of one `--workload W --trace T` run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Traced (per-layer) or untraced (end-to-end).
    pub trace: bool,
    /// The seed.
    pub seed: u64,
    /// Hash of the op stream the seed produced.
    pub stream_hash: u64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops with a wrong or missing answer.
    pub failed: u64,
    /// Wall time of the measured pass in seconds.
    pub measured_s: f64,
    /// The metrics of this run, in spec order.
    pub readings: Vec<Reading>,
    /// Why the run does not count (failed ops, missing metrics, a layer
    /// sum outside its band). Empty for a good run.
    pub problems: Vec<String>,
    /// Host facts and thread counts.
    pub host: Json,
}

fn hex(v: u64) -> Json {
    Json::Str(format!("{v:#x}"))
}

fn unhex(j: Option<&Parsed>) -> Option<u64> {
    u64::from_str_radix(j?.as_str()?.trim_start_matches("0x"), 16).ok()
}

impl RunResult {
    /// True when every op was right and nothing is missing.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The last line of a run's standard output.
    pub fn driver_line(&self) -> Json {
        let metrics = self.readings.iter().map(|r| {
            (
                r.name.clone(),
                Json::obj([("value", Json::Num(r.value)), ("unit", Json::str(&r.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The run as a result document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("workload", Json::str(&self.workload)),
            ("trace", Json::Bool(self.trace)),
            ("seed", hex(self.seed)),
            ("stream_hash", hex(self.stream_hash)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("measured_s", Json::Num(self.measured_s)),
            (
                "problems",
                Json::Arr(self.problems.iter().map(Json::str).collect()),
            ),
            ("host", self.host.clone()),
            (
                "metrics",
                Json::Arr(
                    self.readings
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("name", Json::str(&r.name)),
                                ("value", Json::Num(r.value)),
                                ("unit", Json::str(&r.unit)),
                                ("samples", Json::Num(r.samples as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Reads a run back from its parsed document (the host facts come
    /// back in key order).
    pub fn from_json(doc: &Parsed) -> Result<RunResult, String> {
        if doc.get("schema").and_then(Parsed::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} document"));
        }
        let text = |d: &Parsed, k: &str| {
            d.get(k)
                .and_then(Parsed::as_str)
                .map(String::from)
                .ok_or_else(|| format!("no string {k}"))
        };
        let count = |d: &Parsed, k: &str| {
            d.get(k)
                .and_then(Parsed::as_u64)
                .ok_or_else(|| format!("no count {k}"))
        };
        let num = |d: &Parsed, k: &str| {
            d.get(k)
                .and_then(Parsed::as_f64)
                .ok_or_else(|| format!("no number {k}"))
        };
        let items = |k: &str| {
            doc.get(k)
                .and_then(Parsed::as_array)
                .ok_or_else(|| format!("no array {k}"))
        };
        Ok(RunResult {
            workload: text(doc, "workload")?,
            trace: match doc.get("trace") {
                Some(Parsed::Bool(b)) => *b,
                _ => return Err("no trace".into()),
            },
            seed: unhex(doc.get("seed")).ok_or("no seed")?,
            stream_hash: unhex(doc.get("stream_hash")).ok_or("no stream_hash")?,
            attempted: count(doc, "attempted")?,
            failed: count(doc, "failed")?,
            measured_s: num(doc, "measured_s")?,
            problems: items("problems")?
                .iter()
                .filter_map(|s| s.as_str().map(String::from))
                .collect(),
            host: doc.get("host").map_or(Json::Null, Json::from),
            readings: items("metrics")?
                .iter()
                .map(|m| {
                    Ok(Reading {
                        name: text(m, "name")?,
                        value: num(m, "value")?,
                        unit: text(m, "unit")?,
                        samples: count(m, "samples")?,
                    })
                })
                .collect::<Result<_, String>>()?,
        })
    }

    /// The metric table a run prints.
    pub fn table(&self, specs: &[MetricSpec]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<46} {:>16} {:<7} {:<7} {:>10}",
            "metric", "value", "unit", "better", "samples"
        );
        for r in &self.readings {
            let Some(m) = specs.iter().find(|m| m.name == r.name) else {
                continue;
            };
            if r.samples == 0 && !m.on.contains(&self.workload.as_str()) {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<46} {:>16.6} {:<7} {:<7} {:>10}",
                r.name,
                r.value,
                m.unit,
                m.better.word(),
                r.samples
            );
        }
        out
    }
}

/// A full set: every workload's untraced and traced run, as
/// `results.json`.
pub fn set_json(runs: &[RunResult], quick: bool) -> Json {
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("quick", Json::Bool(quick)),
        (
            "runs",
            Json::Arr(runs.iter().map(RunResult::to_json).collect()),
        ),
    ])
}

/// Reads the runs of a parsed `results.json`.
pub fn set_from_json(doc: &Parsed) -> Result<Vec<RunResult>, String> {
    doc.get("runs")
        .and_then(Parsed::as_array)
        .ok_or("no runs array")?
        .iter()
        .map(RunResult::from_json)
        .collect()
}

/// One row of the comparison of two sets.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// First set's value.
    pub first: f64,
    /// Second set's value.
    pub second: f64,
    /// Share of the first value by which the second is worse (negative:
    /// better).
    pub worse_by: f64,
    /// The bound it is held to (`None`: count, must be equal).
    pub bound: Option<f64>,
    /// Whether the row passes.
    pub ok: bool,
}

/// Share of `first` by which `second` is worse in the metric's direction.
pub fn worse_by(first: f64, second: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => second - first,
        Better::Higher => first - second,
    };
    if first == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            f64::INFINITY * delta.signum()
        }
    } else {
        delta / first.abs()
    }
}

/// Holds a second set against a first: every bounded metric within its
/// bound, every count equal. Rows come back in spec order per workload.
pub fn compare(
    first: &[RunResult],
    second: &[RunResult],
    specs: &[MetricSpec],
) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for a in first {
        let b = second
            .iter()
            .find(|b| b.workload == a.workload && b.trace == a.trace)
            .ok_or_else(|| format!("second set has no {} trace={} run", a.workload, a.trace))?;
        if a.stream_hash != b.stream_hash {
            return Err(format!(
                "{}: the two sets ran different op streams",
                a.workload
            ));
        }
        for m in specs {
            let wanted = m.on.contains(&a.workload.as_str())
                && (m.kind == Kind::EndToEnd) != a.trace
                && (m.bound.is_some() || m.kind == Kind::Count);
            if !wanted {
                continue;
            }
            let value = |run: &RunResult| {
                run.readings
                    .iter()
                    .find(|r| r.name == m.name)
                    .map(|r| r.value)
                    .ok_or_else(|| format!("{}: no reading of {}", run.workload, m.name))
            };
            let (x, y) = (value(a)?, value(b)?);
            let worse = worse_by(x, y, m.better);
            let (bound, ok) = match m.kind {
                Kind::Count => (None, x == y),
                _ => (m.bound, worse <= m.bound.unwrap_or(0.0)),
            };
            rows.push(Row {
                workload: a.workload.clone(),
                metric: m.name.clone(),
                first: x,
                second: y,
                worse_by: worse,
                bound,
                ok,
            });
        }
    }
    Ok(rows)
}

/// The spread table `repeat.sh` prints (Markdown, as committed in the
/// README).
pub fn spread_table(rows: &[Row]) -> String {
    let mut out = String::from(
        "| workload | metric | first | second | worse by | bound | |\n|---|---|---:|---:|---:|---:|---|\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {:.6} | {:.6} | {:+.2} % | {} | {} |",
            r.workload,
            r.metric,
            r.first,
            r.second,
            r.worse_by * 100.0,
            r.bound
                .map_or("equal".to_string(), |b| format!("{:.0} %", b * 100.0)),
            if r.ok { "ok" } else { "FAIL" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{self, metrics as specs};
    use subsub_telemetry::json::parse;

    fn sample(trace: bool, scale: f64) -> RunResult {
        let readings = specs()
            .iter()
            .filter(|m| (m.kind == Kind::EndToEnd) != trace)
            .enumerate()
            .map(|(i, m)| Reading {
                name: m.name.clone(),
                value: if m.kind == Kind::Count {
                    7.0
                } else if m.name == "failed_share" {
                    0.0
                } else {
                    (1.0 + i as f64 / 3.0) * scale
                },
                unit: m.unit.into(),
                samples: 30 + i as u64,
            })
            .collect();
        RunResult {
            workload: spec::EXEC_LARGE.into(),
            trace,
            seed: 0x5eed,
            stream_hash: 0xdead_beef_0123_4567,
            attempted: 1000,
            failed: 0,
            measured_s: 10.25,
            readings,
            problems: vec![],
            host: Json::obj([("nproc", Json::Num(2.0))]),
        }
    }

    #[test]
    fn results_round_trip_and_hold_every_benchmark_json_metric() {
        let runs = vec![sample(false, 1.0), sample(true, 1.0)];
        let doc = set_json(&runs, false);
        let back = set_from_json(&parse(&doc.pretty()).unwrap()).unwrap();
        assert_eq!(back, runs);
        let benchmark = parse(&spec::benchmark_json(10).pretty()).unwrap();
        for (section, run) in [("end_to_end", &back[0]), ("per_layer", &back[1])] {
            for m in benchmark.get(section).and_then(Parsed::as_array).unwrap() {
                let reading = run
                    .readings
                    .iter()
                    .find(|r| Some(r.name.as_str()) == m.get("name").and_then(Parsed::as_str))
                    .unwrap_or_else(|| panic!("{m:?} missing from results"));
                assert_eq!(
                    Some(reading.unit.as_str()),
                    m.get("unit").and_then(Parsed::as_str)
                );
            }
        }
    }

    #[test]
    fn the_driver_line_has_exactly_the_contract_keys() {
        let run = sample(false, 1.0);
        let text = run.driver_line().to_string();
        assert!(!text.contains('\n'));
        let line = parse(&text).unwrap();
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap();
        assert_eq!(metrics.as_object().unwrap().len(), 4);
        let setup = metrics.get("setup_s").unwrap();
        assert_eq!(setup.get("unit").and_then(Parsed::as_str), Some("s"));
        assert!(setup.get("value").and_then(Parsed::as_f64).is_some());
    }

    #[test]
    fn comparison_holds_bounds_and_exact_counts() {
        let specs = specs();
        let first = vec![sample(false, 1.0), sample(true, 1.0)];
        let same = compare(&first, &first, &specs).unwrap();
        assert!(same.iter().all(|r| r.ok && r.worse_by == 0.0));
        assert!(
            same.iter().any(|r| r.bound.is_none()),
            "counts are compared"
        );
        assert!(same.iter().any(|r| r.metric == "outer_speedup"));

        // 12 % worse everywhere: inside the bounds of setup_s (25 %) and
        // peak_rss_mib (15 %), outside the 10 % of the rest.
        let mut second = vec![sample(false, 1.0), sample(true, 1.0)];
        for r in second.iter_mut().flat_map(|run| run.readings.iter_mut()) {
            let m = specs.iter().find(|m| m.name == r.name).unwrap();
            if m.kind != Kind::Count {
                r.value *= if m.better == Better::Lower {
                    1.12
                } else {
                    1.0 / 1.12
                };
            }
        }
        let rows = compare(&first, &second, &specs).unwrap();
        let failing: Vec<&str> = rows
            .iter()
            .filter(|r| !r.ok)
            .map(|r| r.metric.as_str())
            .collect();
        assert_eq!(failing, ["ops_per_s", "op_p50_us", "outer_speedup"]);

        let mut counted = first.clone();
        counted[1]
            .readings
            .iter_mut()
            .find(|r| r.name == "omprt.degradation_events")
            .unwrap()
            .value = 8.0;
        let rows = compare(&first, &counted, &specs).unwrap();
        assert!(rows
            .iter()
            .any(|r| r.metric == "omprt.degradation_events" && !r.ok));

        let mut other_stream = first.clone();
        other_stream[0].stream_hash ^= 1;
        assert!(compare(&first, &other_stream, &specs).is_err());
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 0.0, Better::Lower), 0.0);
        assert!(worse_by(0.0, 1.0, Better::Lower).is_infinite());
    }
}
