//! Replays every committed corpus entry — the regression half of the
//! differential oracle. Any failure here means a previously-shrunk
//! adversarial case regressed.

use std::path::Path;
use subsub_omprt::ThreadPool;
use subsub_oracle::corpus::{load_dir, replay, CorpusEntry};

fn corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

#[test]
fn corpus_is_nonempty_and_well_formed() {
    let entries = load_dir(&corpus_dir()).expect("corpus loads");
    assert!(
        entries.len() >= 15,
        "expected the committed corpus, found {} entries",
        entries.len()
    );
    let arrays = entries
        .iter()
        .filter(|e| matches!(e, CorpusEntry::Array { .. }))
        .count();
    let predicates = entries
        .iter()
        .filter(|e| matches!(e, CorpusEntry::Predicate { .. }))
        .count();
    let kernels = entries
        .iter()
        .filter(|e| matches!(e, CorpusEntry::Kernel { .. }))
        .count();
    assert!(arrays >= 5, "array entries: {arrays}");
    assert!(predicates >= 5, "predicate entries: {predicates}");
    assert!(kernels >= 3, "kernel entries: {kernels}");
}

#[test]
fn every_fingerprint_length_class_has_a_committed_entry() {
    let entries = load_dir(&corpus_dir()).expect("corpus loads");
    let lens: Vec<usize> = entries
        .iter()
        .filter_map(|e| match e {
            CorpusEntry::Fingerprint { data, .. } => Some(data.len()),
            _ => None,
        })
        .collect();
    for len in subsub_oracle::FINGERPRINT_LENGTHS {
        assert!(lens.contains(&len), "no fingerprint entry of length {len}");
    }
}

#[test]
fn every_corpus_entry_replays_clean() {
    let entries = load_dir(&corpus_dir()).expect("corpus loads");
    let pool = ThreadPool::new(3);
    let mut failures = Vec::new();
    for entry in &entries {
        failures.extend(replay(entry, &pool));
    }
    assert!(
        failures.is_empty(),
        "{} corpus regression(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn long_boundary_entry_actually_exercises_the_parallel_scan() {
    let entries = load_dir(&corpus_dir()).expect("corpus loads");
    let long = entries.iter().find_map(|e| match e {
        CorpusEntry::Array { name, data, .. } if name == "duplicate-at-chunk-join-long" => {
            Some(data)
        }
        _ => None,
    });
    let data = long.expect("the long chunk-join entry is committed");
    assert!(
        data.len() >= subsub_rtcheck::PAR_THRESHOLD,
        "entry must be long enough for the pooled inspector to split ({} < {})",
        data.len(),
        subsub_rtcheck::PAR_THRESHOLD
    );
}
