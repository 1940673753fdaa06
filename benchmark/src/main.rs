//! Command line of the benchmark. `run.sh` builds and calls this.
//!
//! ```text
//! subsub-benchmark --workload W --seed N --seconds S --trace 0|1   one run (BENCHMARK.json)
//! subsub-benchmark [--seed N] [--seconds S] [--quick]              the full set
//! subsub-benchmark compare FIRST.json SECOND.json                  repeat.sh's check
//! subsub-benchmark benchmark-json [SECONDS]                        prints BENCHMARK.json
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use subsub_benchmark::run::{self, Args};
use subsub_benchmark::spec;

const DEFAULT_SEED: u64 = 0x5eed;
const DEFAULT_SECONDS: f64 = 10.0;
/// `--quick` divides the run length by this.
const QUICK_DIVISOR: f64 = 20.0;

fn parse_u64(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|e| format!("{text}: {e}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut seconds_given = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()).filter(|w| w != "all"),
            "--seed" => args.seed = parse_u64(value()?)?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => args.trace = parse_u64(value()?)? != 0,
            "--out" => args.out = PathBuf::from(value()?),
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", args.seconds));
    }
    if args.quick && !seconds_given {
        args.seconds = DEFAULT_SECONDS / QUICK_DIVISOR;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [first, second] => run::compare_files(Path::new(first), Path::new(second)),
            _ => Err("usage: compare FIRST.json SECOND.json".into()),
        },
        Some("benchmark-json") => {
            let seconds = argv
                .get(1)
                .map_or(Ok(DEFAULT_SECONDS as u64), |s| parse_u64(s));
            seconds.map(|s| {
                print!("{}", spec::benchmark_json(s).pretty());
                true
            })
        }
        _ => parse_args(&argv).and_then(|args| match args.workload.clone() {
            Some(name) => run::single(&args, &name),
            None => run::full_set(&args),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("subsub-benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}
