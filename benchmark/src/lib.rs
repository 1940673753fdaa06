//! The repo's benchmark: six workloads over the whole request path,
//! end-to-end metrics from an untraced pass and a per-layer ledger from
//! a traced one, every layer measured from outside through its public
//! functions. See `README.md` for the metric glossary and how to run it.

pub mod engine;
pub mod expected;
pub mod host;
pub mod indexgen;
pub mod json;
pub mod report;
pub mod rng;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
