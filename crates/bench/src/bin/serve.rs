//! Analysis-service workload CLI: seeded multi-client closed-loop
//! benchmark with cold/warm memo phases and mid-run fault injection.
//!
//! Usage:
//!   cargo run -p subsub-bench --bin serve [--seed N] [--clients N]
//!       [--requests N] [--no-chaos] [--light]
//!
//! Runs the workload and asserts the acceptance invariants: zero
//! checksum divergences from the serial golden path, zero wedged
//! tickets, warm-phase hit rate ≥ 90% (verdict lookups served from the
//! executor memos), and ≥ 8 requests concurrently in flight. `--light`
//! drops the concurrency/hit-rate bars (for constrained smoke
//! environments) while keeping the correctness ones. Exit code is
//! nonzero on any violation, so CI can gate on it directly.

use subsub_bench::serve::{run_serve_workload, ServeConfig};

fn parse_flag_value(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{flag} expects a number, got {v:?}"))
        })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = parse_flag_value(&args, "--seed").unwrap_or(0x5eed_5e47);

    let light = args.iter().any(|a| a == "--light");
    let cfg = ServeConfig {
        seed,
        clients: parse_flag_value(&args, "--clients").unwrap_or(12) as usize,
        requests_per_client: parse_flag_value(&args, "--requests").unwrap_or(16) as usize,
        kill_worker: !args.iter().any(|a| a == "--no-chaos"),
        ..ServeConfig::default()
    };
    let report = run_serve_workload(&cfg);
    println!("{}", report.to_json());

    let violations: Vec<String> = report
        .violations()
        .into_iter()
        .filter(|v| !light || (!v.contains("in-flight") && !v.contains("hit rate")))
        .collect();
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("VIOLATION: {v}");
        }
        eprintln!("serve workload FAILED (seed {seed})");
        std::process::exit(1);
    }
    println!(
        "serve workload passed (seed {seed}): {} requests, warm hit rate {:.1}%, max in-flight {}",
        report.cold.completed + report.warm.completed,
        report.warm.hit_rate * 100.0,
        report.max_inflight
    );
}
