//! End-to-end decision matrix: for every registry benchmark, the
//! analysis pipeline must reproduce the expected parallelization outcome
//! (the paper's Figure 17 for the original twelve, the widened pattern
//! language for the extensions):
//!
//! * plain **Cetus** (classical) improves CG, heat-3d, fdtd-2d,
//!   gramschmidt, syrk and MG;
//! * **Cetus+BaseAlgo** additionally handles CHOLMOD-Supernodal and the
//!   strided-recurrence scatter (constant-step SRA);
//! * **Cetus+NewAlgo** additionally promotes AMGmk, SDDMM and UA(transf)
//!   to outer-loop parallelism, proves the CSR-of-CSR two-level
//!   composition, and licenses the guarded prefix recurrence under its
//!   runtime guard;
//! * IS, Incomplete Cholesky and the block-periodic histogram stay
//!   serial everywhere (BlockHist's block parallelism is a runtime
//!   license, not a compile-time decision).
//!
//! A recognition regression on any kernel is a diff in this matrix, not
//! a silent serial fallback.

use subsub::core::{analyze_program, AlgorithmLevel};
use subsub::kernels::{all_kernels, Variant};

/// Maps a program report to the execution variant the harness would pick.
fn variant_for(src: &str, func: &str, level: AlgorithmLevel) -> Variant {
    let report = analyze_program(src, level).unwrap_or_else(|e| panic!("{func}: {e}"));
    let f = report
        .function(func)
        .unwrap_or_else(|| panic!("function {func} not found"));
    match f.last_nest_parallel() {
        None => Variant::Serial,
        Some(l) if l.depth == 0 => Variant::OuterParallel,
        Some(_) => Variant::InnerParallel,
    }
}

/// The expected decision matrix (kernel name → variant per level),
/// transcribing Figure 17.
fn expected(name: &str, level: AlgorithmLevel) -> Variant {
    use AlgorithmLevel::*;
    use Variant::*;
    match (name, level) {
        // Only the new algorithm parallelizes the outer loops of the three
        // headline applications; classical gets the inner loops.
        ("AMGmk" | "SDDMM" | "UA(transf)", New) => OuterParallel,
        ("AMGmk" | "SDDMM" | "UA(transf)", Classic | Base) => InnerParallel,
        // The base algorithm's benchmark.
        ("CHOLMOD-Supernodal", Base | New) => OuterParallel,
        ("CHOLMOD-Supernodal", Classic) => InnerParallel,
        // Classically parallel at the outermost loop.
        ("CG" | "syrk", _) => OuterParallel,
        // Classically parallel at inner (spatial / column) loops.
        ("heat-3d" | "fdtd-2d" | "gramschmidt" | "MG", _) => InnerParallel,
        // No technique helps.
        ("IS" | "Incomplete-Cholesky", _) => Serial,
        // Pattern-language extensions. The composed two-level gather
        // needs LEMMA 1 for its inner level; its use loop has no inner
        // nest, so lower levels get nothing.
        ("CSRoCSR", New) => OuterParallel,
        ("CSRoCSR", Classic | Base) => Serial,
        // Constant-step SRA is a base-algorithm concept.
        ("StridedScatter", Base | New) => OuterParallel,
        ("StridedScatter", Classic) => Serial,
        // The guarded recurrence is a novel concept; classical analysis
        // still parallelizes the affine inner segment loop.
        ("GuardedPrefix", New) => OuterParallel,
        ("GuardedPrefix", Classic | Base) => InnerParallel,
        // Block-monotonicity is a runtime property: serial at compile
        // time at every level.
        ("BlockHist", _) => Serial,
        (other, _) => panic!("unexpected kernel {other}"),
    }
}

#[test]
fn figure17_decision_matrix() {
    let mut failures = Vec::new();
    for k in all_kernels() {
        for level in [
            AlgorithmLevel::Classic,
            AlgorithmLevel::Base,
            AlgorithmLevel::New,
        ] {
            let got = variant_for(k.source(), k.func_name(), level);
            // The mapper every harness shares (`service::exec::Plan`),
            // held against this file's own.
            assert_eq!(subsub_bench::variant_for(k.as_ref(), level), got);
            let want = expected(k.name(), level);
            if got != want {
                let report = analyze_program(k.source(), level).unwrap();
                failures.push(format!(
                    "{} @ {level}: expected {want}, got {got}\n{report}",
                    k.name()
                ));
            }
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// The AMGmk decision at the New level carries the paper's runtime check.
#[test]
fn amgmk_new_emits_paper_runtime_check() {
    let k = subsub::kernels::kernel_by_name("AMGmk").unwrap();
    let report = analyze_program(k.source(), AlgorithmLevel::New).unwrap();
    let f = report.function(k.func_name()).unwrap();
    let l = f.last_nest_parallel().unwrap();
    let plan = l.decision.plan().unwrap();
    let check = plan.runtime_check.as_ref().expect("runtime check");
    assert_eq!(check.to_string(), "num_rownnz - 1 <= irownnz_max");
    // The structured check round-trips through its display form.
    assert_eq!(
        subsub::rtcheck::parse_check(&check.to_string()).unwrap(),
        *check
    );
}

/// SDDMM's check matches Section 3.2.
#[test]
fn sddmm_new_emits_paper_runtime_check() {
    let k = subsub::kernels::kernel_by_name("SDDMM").unwrap();
    let report = analyze_program(k.source(), AlgorithmLevel::New).unwrap();
    let f = report.function(k.func_name()).unwrap();
    let l = f.last_nest_parallel().unwrap();
    let plan = l.decision.plan().unwrap();
    let check = plan.runtime_check.as_ref().expect("runtime check");
    assert_eq!(check.to_string(), "n_cols - 1 <= holder_max");
    assert_eq!(
        subsub::rtcheck::parse_check(&check.to_string()).unwrap(),
        *check
    );
}

/// UA(transf) requires no runtime check: the idel bounds are compile-time.
#[test]
fn ua_new_needs_no_runtime_check() {
    let k = subsub::kernels::kernel_by_name("UA(transf)").unwrap();
    let report = analyze_program(k.source(), AlgorithmLevel::New).unwrap();
    let f = report.function(k.func_name()).unwrap();
    let l = f.last_nest_parallel().unwrap();
    assert_eq!(l.depth, 0);
    let plan = l.decision.plan().unwrap();
    assert_eq!(plan.runtime_check, None);
}
