//! The six workloads.

pub mod analyze;
pub mod exec;
pub mod guard;
pub mod reinspect;
pub mod service;
