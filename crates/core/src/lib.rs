//! The paper's contribution: compile-time recurrence analysis determining
//! monotonicity of subscript arrays, plus the dependence tests and the
//! parallelization driver that consume the properties.
//!
//! * [`mod@phase1`] — symbolic execution of one arbitrary loop iteration
//!   over the loop-body CFG (Section 2.3).
//! * [`mod@phase2`] — aggregation over the iteration space: SSR/SRA (the base
//!   algorithm of Bhosale & Eigenmann, ICS'21), intermittent monotonicity
//!   (LEMMA 1) and multi-dimensional range monotonicity (LEMMA 2)
//!   (Sections 2.4–2.5).
//! * [`properties`] — the derived array properties and the property DB.
//! * [`nest`] — inside-out loop-nest analysis with loop collapsing and the
//!   function-level driver.
//! * [`classic`] — the classical automatic-parallelization baseline
//!   (dependence tests, privatization, reduction recognition).
//! * [`deptest`] — the extended dependence test using subscript-array
//!   properties, including runtime-check generation.
//! * [`driver`] — whole-program driver with the three algorithm levels
//!   compared in the paper's Figure 17 (Cetus / +BaseAlgo / +NewAlgo).

pub mod classic;
pub mod collapse;
pub mod deptest;
pub mod driver;
pub mod nest;
pub mod phase1;
pub mod phase2;
pub mod properties;
pub mod value;

pub use classic::{classic_analyze_loop, Access, ArrayDep, ClassicAnalysis};
pub use collapse::{CollapsedArrayWrite, CollapsedLoop, CollapsedMap, CollapsedScalar};
pub use deptest::{decide_loop, LoopDecision, ParallelPlan};
pub use driver::{
    analyze_lowered, analyze_program, analyze_program_with, AnalyzeError, FunctionReport,
    LoopReport, ProgramReport,
};
pub use nest::{analyze_function, FunctionAnalysis, LoopAnalysis};
pub use phase1::{phase1, Phase1Result};
pub use phase2::{phase2, Phase2Result, SsrInfo};
pub use properties::{AlgorithmLevel, ArrayProperty, Monotonicity, PropertyDb, PropertyKind};
pub use value::{ArrayWrite, Guard, Svd, TaggedVal, Val, ValueSet};

// The runtime-check IR lives in `subsub-rtcheck`; re-export the pieces a
// consumer of [`ParallelPlan`] needs to inspect or execute the check.
pub use subsub_rtcheck::{Bindings, CheckExpr, CompiledCheck};
