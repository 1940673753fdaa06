//! Analysis-to-variant mapping: runs the compile-time pipeline on a
//! kernel's C source and selects the execution strategy its decision
//! implies.

use subsub_core::{analyze_program, AlgorithmLevel, ProgramReport};
use subsub_kernels::{Kernel, Variant};
use subsub_service::Plan;

/// Runs the analysis at `level` and maps the decision for the kernel's
/// compute nest (the last top-level nest — fills precede it under the
/// paper's inline-expansion methodology) to a [`Variant`].
pub fn variant_for(kernel: &dyn Kernel, level: AlgorithmLevel) -> Variant {
    Plan::new(kernel, level)
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()))
        .variant
}

/// The full analysis report (for the `analyze` binary and examples).
pub fn decision_report(kernel: &dyn Kernel, level: AlgorithmLevel) -> ProgramReport {
    analyze_program(kernel.source(), level).unwrap_or_else(|e| panic!("{}: {e}", kernel.name()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsub_kernels::kernel_by_name;

    #[test]
    fn amgmk_variants_per_level() {
        let k = kernel_by_name("AMGmk").unwrap();
        assert_eq!(
            variant_for(k.as_ref(), AlgorithmLevel::Classic),
            Variant::InnerParallel
        );
        assert_eq!(
            variant_for(k.as_ref(), AlgorithmLevel::Base),
            Variant::InnerParallel
        );
        assert_eq!(
            variant_for(k.as_ref(), AlgorithmLevel::New),
            Variant::OuterParallel
        );
    }
}
