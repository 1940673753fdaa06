//! Service-layer chaos CLI: seeded failpoint storms over the
//! multi-client serve workload — deadlines, abandonment, worker deaths
//! — asserting the request-lifecycle invariants (typed terminal states
//! only, bounded completion, no divergence, no post-storm lockout, no
//! site in a plan that the storm never reached).
//!
//! Usage: `cargo run -p subsub-bench --bin chaos_serve [seed...]`
//! (defaults to the pinned CI seeds).

use subsub_bench::chaos_serve::{chaos_serve_storm, ChaosServeConfig, CHAOS_SERVE_SEEDS};

fn main() {
    let seeds: Vec<u64> = {
        let args: Vec<u64> = std::env::args()
            .skip(1)
            .map(|a| {
                a.parse()
                    .unwrap_or_else(|_| panic!("seed must be a u64, got {a:?}"))
            })
            .collect();
        if args.is_empty() {
            CHAOS_SERVE_SEEDS.to_vec()
        } else {
            args
        }
    };
    let mut failed = false;
    for seed in seeds {
        let report = chaos_serve_storm(&ChaosServeConfig {
            seed,
            ..ChaosServeConfig::default()
        });
        println!("{}", report.to_json());
        for v in &report.violations {
            eprintln!("  VIOLATION: {v}");
            failed = true;
        }
    }
    if failed {
        eprintln!("chaos-serve sweep FAILED");
        std::process::exit(1);
    }
    println!("chaos-serve sweep passed");
}
