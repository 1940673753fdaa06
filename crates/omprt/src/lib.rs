//! An OpenMP-like parallel runtime plus a deterministic scheduling
//! cost-model simulator.
//!
//! The paper's evaluation hinges on runtime behaviour that off-the-shelf
//! data-parallel libraries hide:
//!
//! * **fork-join overhead** — Figure 13's "anomaly" (58× for AMGmk) comes
//!   from classical parallelization forking a team for every iteration of
//!   the outer loop;
//! * **loop scheduling policy** — Figure 16 compares OpenMP `static` and
//!   `dynamic` schedules under load imbalance.
//!
//! This crate therefore implements a persistent worker [`ThreadPool`] with
//! OpenMP-style `static` / `dynamic` / `guided` loop scheduling
//! ([`Schedule`]) and reductions, and — because wall-clock speedups cannot
//! materialize on a single-core CI container — a deterministic
//! [`sim`] module that replays the same scheduling policies over measured
//! per-iteration costs, charging a calibrated fork-join overhead. All
//! figure harnesses use the simulator for the paper's 4/8/16-core series
//! and real execution for validation.

pub mod barrier;
pub mod cancel;
pub mod measure;
pub mod pool;
pub mod schedule;
pub mod sendptr;
pub mod sim;

pub use barrier::CachePadded;
pub use cancel::CancelToken;
pub use measure::{time_once, time_repeat, Measurement};
pub use pool::{PoolHealth, RegionError, RegionReport, ThreadPool};
pub use schedule::Schedule;
pub use sendptr::SendPtr;
pub use sim::{
    simulate_inner_parallel, simulate_parallel_for, MachineCalibration, SimParams, SimResult,
};
