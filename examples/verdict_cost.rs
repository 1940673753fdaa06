//! What a verdict costs, for every index array the benchmark's service
//! workloads (`serve-hot`, `exec-large`, `exec-inner`) inspect: the
//! O(blocks) recombination of the summaries the array carries
//! (`summary_verdict`), a hit in the memo that stands in front of it
//! (`InspectorCache::verdict_ingested`), and the `verify()` that must
//! run before either. DESIGN.md §6 carries the table this prints.
//!
//! Run with: `cargo run --release --example verdict_cost`

use std::hint::black_box;
use std::time::Instant;
use subsub::kernels::kernel_by_name;
use subsub::rtcheck::{InspectorCache, Provenance, ValidatedIndexArray, BLOCK_LEN};

const INSTANCES: [(&str, &str); 7] = [
    ("AMGmk", "test"),
    ("SDDMM", "test"),
    ("CHOLMOD-Supernodal", "test"),
    ("AMGmk", "MATRIX3"),
    ("AMGmk", "MATRIX5"),
    ("SDDMM", "af_shell1"),
    ("CHOLMOD-Supernodal", "spal_004"),
];

/// Median over 7 batches of the mean ns per call; the clock is read
/// once per 256 calls.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut batches: Vec<f64> = (0..7)
        .map(|_| {
            let (mut calls, start) = (0u32, Instant::now());
            while start.elapsed().as_millis() < 20 {
                (0..256).for_each(|_| f());
                calls += 256;
            }
            start.elapsed().as_nanos() as f64 / f64::from(calls)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[3]
}

fn main() {
    println!(
        "{:32} {:>8} {:>6} {:>17} {:>11} {:>10}",
        "array", "len", "blocks", "summary_verdict ns", "memo hit ns", "verify ns"
    );
    for (kernel, dataset) in INSTANCES {
        let inst = kernel_by_name(kernel)
            .expect("registry kernel")
            .prepare(dataset);
        for view in inst.index_arrays() {
            let provenance = Provenance::Dataset {
                name: format!("{kernel}:{dataset}"),
            };
            let array =
                ValidatedIndexArray::ingest(view.name, view.data.to_vec(), usize::MAX, provenance)
                    .expect("usize::MAX domain admits any subscript");
            let memo = InspectorCache::new();
            memo.verdict_ingested(&array);
            println!(
                "{:32} {:>8} {:>6} {:>17.1} {:>11.1} {:>10.0}",
                format!("{kernel}:{dataset} {}", view.name),
                array.len(),
                array.len().div_ceil(BLOCK_LEN),
                ns_per_call(|| {
                    black_box(black_box(&array).summary_verdict());
                }),
                ns_per_call(|| {
                    black_box(memo.verdict_ingested(black_box(&array)));
                }),
                ns_per_call(|| black_box(&array).verify().expect("untouched")),
            );
        }
    }
}
