//! Differential fuzzing oracle for the inspect/guard/dispatch trust
//! boundary.
//!
//! The runtime subsystem (PR 2's `rtcheck`) decides, per execution, to
//! take an `unsafe` parallel path on the strength of three artifacts: an
//! inspector verdict over subscript arrays, a compiled scalar predicate,
//! and a guard that combines them. This crate cross-examines each
//! artifact against an independent ground truth:
//!
//! | checked artifact | ground truth |
//! |---|---|
//! | ingestion accept/reject ([`ValidatedIndexArray`]) | the generator's domain bookkeeping |
//! | `inspect_serial` / pooled `inspect_monotone` | definitional brute-force scan |
//! | [`CompiledCheck`](subsub_rtcheck::CompiledCheck) (`i64`, checked) | checked-`i128` interpreter over canonical forms |
//! | guarded parallel kernel output | serial golden run |
//! | incremental re-inspection (`mutate_range` + block summaries) | `inspect_serial` + the reference fingerprint |
//! | content fingerprint (`checksum()`, patched or fresh, and `verify()`) | one-word-at-a-time reference of `subsub-fingerprint/v3` ([`fingerprint::reference_fingerprint`]) |
//! | C frontend on mutated sources ([`srcgen::check_frontend`]) | panic-freedom, replay determinism, canonical round-trip identity |
//!
//! The trust model is asymmetric (see [`refeval::compare`]): the fast
//! path may *conservatively deny* (e.g. `i64` overflow), but must never
//! admit where the sound evaluator would not, and admitted parallel runs
//! must be bit-for-bit trustworthy up to floating-point reduction order.
//!
//! Campaigns ([`fuzz::run_campaign`]) are seeded and deterministic;
//! failures shrink ([`shrink::shrink_array`]) to minimal reproducers;
//! shrunk cases are committed to `crates/oracle/corpus/` and replayed by
//! CI ([`corpus::load_dir`] + [`corpus::replay_all`]).

pub mod corpus;
pub mod diff;
pub mod fingerprint;
pub mod fuzz;
pub mod gen;
pub mod refeval;
pub mod shrink;
pub mod srcgen;

pub use corpus::{load_dir, parse_corpus, replay, replay_all, CorpusEntry, CorpusError};
pub use diff::{
    check_composed, check_index_array, check_kernel, check_predicate, check_reinspect, Divergence,
};
pub use fingerprint::{check_fingerprint, reference_fingerprint, FINGERPRINT_LENGTHS};
pub use fuzz::{run_campaign, FuzzConfig, FuzzReport};
pub use gen::{
    brute_force_block_monotone, brute_force_monotone, gen_array, gen_bindings, gen_check,
    gen_inner_index, gen_mutation_plan, ArrayShape, MutationStep, ALL_SHAPES,
};
pub use refeval::{compare, ref_eval, PredicateAgreement, RefEvalError};
pub use shrink::shrink_array;
pub use srcgen::{check_frontend, gen_source_case, SourceCase, FUZZ_BUDGET};
// Re-export the ingestion types so oracle consumers name one crate.
pub use subsub_rtcheck::{Provenance, ValidatedIndexArray, ValidationError};
