//! Perf-regression CI gate.
//!
//! ```text
//! perfgate [--baseline PATH] [--tolerance FRAC]   # compare, exit 1 on regression
//! perfgate --update [--baseline PATH]             # (re)write the baseline
//! ```
//!
//! Runs the pinned micro-suite (fork-join latency, inspector
//! throughput, representative serial kernels, the `Execute` epilogue
//! inline and pooled, with bytes/s beside ns) and compares each
//! median against the committed `BENCH_baseline.json`. A median beyond
//! baseline × (1 + tolerance) fails the gate; one beyond the band in
//! the fast direction only warns, with a suggestion to refresh the
//! baseline. Run with `--update` after an intentional perf change and
//! commit the new baseline alongside it.

use std::process;
use subsub_bench::perfgate::{
    baseline_json, compare, parse_baseline, passes, run_suite, GateStatus, DEFAULT_TOLERANCE,
};

fn main() {
    let mut baseline_path = "BENCH_baseline.json".to_string();
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut update = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", args[i]))
                .clone()
        };
        match args[i].as_str() {
            "--baseline" => {
                baseline_path = need(i);
                i += 2;
            }
            "--tolerance" => {
                tolerance = need(i).parse().expect("--tolerance must be a number");
                i += 2;
            }
            "--update" => {
                update = true;
                i += 1;
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    assert!(
        tolerance > 0.0 && tolerance < 1.0,
        "--tolerance must be in (0, 1)"
    );

    let results = run_suite();

    if update {
        let doc = baseline_json(&results);
        if let Err(e) = std::fs::write(&baseline_path, format!("{doc}\n")) {
            eprintln!("perfgate: cannot write {baseline_path}: {e}");
            process::exit(1);
        }
        println!(
            "perfgate: wrote {} entries to {baseline_path}",
            results.len()
        );
        return;
    }

    let doc = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        eprintln!("perfgate: cannot read {baseline_path}: {e} (run `perfgate --update` once)");
        process::exit(1);
    });
    let baseline = parse_baseline(&doc).unwrap_or_else(|e| {
        eprintln!("perfgate: {baseline_path}: {e}");
        process::exit(1);
    });

    let rows = compare(&results, &baseline, tolerance);
    println!();
    println!(
        "perfgate vs {baseline_path} (tolerance ±{:.0}%)",
        tolerance * 100.0
    );
    for row in &rows {
        let ratio = row
            .ratio()
            .map(|r| format!("{r:>6.2}x"))
            .unwrap_or_else(|| "     —".to_string());
        let base = row
            .baseline_ns
            .map(|b| b.to_string())
            .unwrap_or_else(|| "—".to_string());
        let tag = match row.status {
            GateStatus::Ok => "ok",
            GateStatus::Improved => "IMPROVED (refresh baseline?)",
            GateStatus::Regressed => "REGRESSED",
            GateStatus::Missing => "MISSING FROM BASELINE",
            GateStatus::Reference => "reference (the host, not gated)",
        };
        println!(
            "  {:<28} base {:>12} ns  now {:>12} ns  {ratio}  {tag}",
            row.name, base, row.current_ns
        );
    }
    if passes(&rows) {
        println!("perfgate: PASS ({} entries)", rows.len());
    } else {
        eprintln!("perfgate: FAIL — regression or stale baseline (see rows above)");
        process::exit(1);
    }
}
