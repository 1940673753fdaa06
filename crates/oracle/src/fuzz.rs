//! The seeded campaign driver: generate adversarial cases, run every
//! differential check, shrink what fails, and summarize.
//!
//! A campaign is fully determined by its [`FuzzConfig`] — the same seed
//! replays the same cases in the same order, so a CI failure reproduces
//! locally with nothing but the seed.

use crate::diff::{
    check_composed, check_index_array, check_kernel, check_predicate, check_reinspect, Divergence,
};
use crate::fingerprint::{
    check_fingerprint, fingerprint_diverges, gen_fingerprint_data, FINGERPRINT_LENGTHS,
};
use crate::gen::{
    brute_force_monotone, gen_array, gen_bindings, gen_check, gen_inner_index, gen_mutation_plan,
    ArrayShape, GeneratedArray, ALL_SHAPES,
};
use crate::shrink::shrink_array;
use crate::srcgen::{check_frontend, gen_source_case, FUZZ_BUDGET};
use std::fmt;
use subsub_kernels::all_kernels;
use subsub_omprt::ThreadPool;
use subsub_rtcheck::{inspect_monotone, inspect_serial};
use subsub_sparse::Rng64;

/// Knobs for one campaign.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Arrays generated per shape in [`ALL_SHAPES`].
    pub arrays_per_shape: usize,
    /// Number of (check, bindings) pairs generated.
    pub predicates: usize,
    /// Mutated C sources driven through the frontend differential
    /// check ([`crate::srcgen::check_frontend`]): no panics ever,
    /// deterministic span-correct rejection, round-trip identity on
    /// acceptance.
    pub sources: usize,
    /// Whether to sweep the full kernel registry (slow; CI does, unit
    /// tests usually don't).
    pub kernels: bool,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 7,
            arrays_per_shape: 8,
            predicates: 200,
            sources: 160,
            kernels: false,
        }
    }
}

/// What a campaign did and what it found.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The seed that drove it.
    pub seed: u64,
    /// Index arrays checked.
    pub array_cases: usize,
    /// Mutate-then-reinspect plans checked (one per accepted non-empty
    /// array, diffing incremental block summaries against full scans).
    pub reinspect_cases: usize,
    /// Composed (two-level) index-array pairs checked against the
    /// materialized composition.
    pub composed_cases: usize,
    /// Arrays (one per length class of the format, per round) whose
    /// content checksum was held against the reference fingerprint.
    pub fingerprint_cases: usize,
    /// Predicate pairs checked.
    pub predicate_cases: usize,
    /// Mutated sources checked through the frontend leg.
    pub source_cases: usize,
    /// Kernel × variant executions checked.
    pub kernel_cases: usize,
    /// Every divergence found, arrays shrunk to minimal reproducers.
    pub divergences: Vec<Divergence>,
}

impl FuzzReport {
    /// True when the campaign found no divergence.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "seed {}: {} arrays, {} reinspect plans, {} composed pairs, {} fingerprints, \
             {} predicates, {} sources, {} kernel runs -> {} divergence(s)",
            self.seed,
            self.array_cases,
            self.reinspect_cases,
            self.composed_cases,
            self.fingerprint_cases,
            self.predicate_cases,
            self.source_cases,
            self.kernel_cases,
            self.divergences.len()
        )?;
        for d in &self.divergences {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// True when either inspector disagrees with the brute-force scan —
/// the shrink predicate for inspector divergences.
fn inspector_diverges(data: &[usize], pool: &ThreadPool) -> bool {
    let expected = brute_force_monotone(data);
    let s = inspect_serial(data);
    let p = inspect_monotone(data, Some(pool));
    (s.nonstrict, s.strict) != expected || (p.nonstrict, p.strict) != expected
}

/// Runs one campaign under `cfg` on `pool`.
pub fn run_campaign(cfg: &FuzzConfig, pool: &ThreadPool) -> FuzzReport {
    let mut rng = Rng64::seed_from_u64(cfg.seed);
    let mut report = FuzzReport {
        seed: cfg.seed,
        array_cases: 0,
        reinspect_cases: 0,
        composed_cases: 0,
        fingerprint_cases: 0,
        predicate_cases: 0,
        source_cases: 0,
        kernel_cases: 0,
        divergences: Vec::new(),
    };

    // Leg 1: index arrays through ingestion and both inspectors.
    for shape in ALL_SHAPES {
        for _ in 0..cfg.arrays_per_shape {
            let g = gen_array(&mut rng, shape);
            report.array_cases += 1;
            for d in check_index_array(&g, pool) {
                report.divergences.push(match d {
                    Divergence::InspectorMismatch { label, data, .. }
                        if inspector_diverges(&data, pool) =>
                    {
                        let minimal = shrink_array(&data, |c| inspector_diverges(c, pool));
                        let serial = inspect_serial(&minimal);
                        let pooled = inspect_monotone(&minimal, Some(pool));
                        Divergence::InspectorMismatch {
                            label: format!("{label} (shrunk from {} elems)", data.len()),
                            expected: brute_force_monotone(&minimal),
                            data: minimal,
                            serial,
                            pooled,
                        }
                    }
                    other => other,
                });
            }
            // Leg 1b: for arrays ingestion accepts, drive a seeded
            // mutation plan through the incremental re-inspection path
            // and diff it against full-scan ground truth at every step.
            let plan = gen_mutation_plan(&mut rng, &g);
            if !plan.is_empty() {
                report.reinspect_cases += 1;
                report.divergences.extend(check_reinspect(
                    &g.shape.to_string(),
                    &g.data,
                    g.domain,
                    &plan,
                ));
            }
        }
    }

    // Leg 1c: composed (two-level) pairs — the outer drawn from the
    // always-accepted monotone-family shapes, the inner indexing into
    // it — against the materialized composition's ground truth.
    for shape in [
        ArrayShape::StrictRamp,
        ArrayShape::StridedRamp,
        ArrayShape::Plateau,
    ] {
        for _ in 0..cfg.arrays_per_shape {
            let outer = gen_array(&mut rng, shape);
            let inner = gen_inner_index(&mut rng, outer.data.len());
            report.composed_cases += 1;
            report.divergences.extend(check_composed(
                &format!("composed-{shape}"),
                &outer.data,
                outer.domain,
                &inner,
            ));
        }
    }

    // Leg 1d: the content fingerprint against the naive reference of
    // the format, at every length class, after ingest and along a seeded
    // write plan. On its own rng stream, like the sources below. A
    // divergence on the fresh ingest is shrunk to a minimal array.
    let mut fp_rng = Rng64::seed_from_u64(cfg.seed ^ 0x46_50_33);
    for _ in 0..cfg.arrays_per_shape.div_ceil(4) {
        for len in FINGERPRINT_LENGTHS {
            let domain = fp_rng.gen_usize(1, 1 << 40);
            let g = GeneratedArray {
                shape: ArrayShape::RandomUniform,
                data: gen_fingerprint_data(len, fp_rng.next_u64(), domain),
                domain,
                expect_reject: false,
            };
            let plan = gen_mutation_plan(&mut fp_rng, &g);
            report.fingerprint_cases += 1;
            let label = format!("fingerprint-len-{len}");
            let found = check_fingerprint(&label, &g.data, domain, &plan);
            if !found.is_empty() && fingerprint_diverges(&g.data, domain) {
                let minimal = shrink_array(&g.data, |c| fingerprint_diverges(c, domain));
                let shrunk = format!("{label} (shrunk from {len} elems: {minimal:?})");
                report
                    .divergences
                    .extend(check_fingerprint(&shrunk, &minimal, domain, &[]));
            } else {
                report.divergences.extend(found);
            }
        }
    }

    // Leg 2: compiled predicate vs checked-i128 reference.
    for _ in 0..cfg.predicates {
        let check = gen_check(&mut rng);
        let bindings = gen_bindings(&mut rng, &check);
        report.predicate_cases += 1;
        report
            .divergences
            .extend(check_predicate(&check, &bindings));
    }

    // Leg 3: mutated C sources through the frontend differential
    // check (panic-freedom, deterministic rejection, round-trip
    // identity). Runs on its own rng stream so changing the other
    // legs' case counts doesn't reshuffle the sources replayed here.
    let mut src_rng = Rng64::seed_from_u64(cfg.seed ^ 0x50_55_52_43_45);
    for i in 0..cfg.sources {
        let case = gen_source_case(&mut src_rng, i, &FUZZ_BUDGET);
        report.source_cases += 1;
        report
            .divergences
            .extend(check_frontend(&case.label, &case.source, &FUZZ_BUDGET));
    }

    // Leg 4: guarded kernel executions vs serial goldens.
    if cfg.kernels {
        for kernel in all_kernels() {
            report.kernel_cases += 1;
            report
                .divergences
                .extend(check_kernel(kernel.as_ref(), cfg.seed));
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ThreadPool {
        ThreadPool::new(3)
    }

    #[test]
    fn pinned_seed_campaign_is_clean() {
        let cfg = FuzzConfig {
            seed: 7,
            arrays_per_shape: 3,
            predicates: 60,
            sources: 16,
            kernels: false,
        };
        let report = run_campaign(&cfg, &pool());
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.array_cases, 3 * ALL_SHAPES.len());
        assert_eq!(report.predicate_cases, 60);
        assert_eq!(report.source_cases, 16);
        // Every accepted non-empty array gets a reinspect plan: all
        // shapes except empty, near-max and out-of-domain.
        assert_eq!(report.reinspect_cases, 3 * (ALL_SHAPES.len() - 3));
        // Three outer shapes feed the composed leg.
        assert_eq!(report.composed_cases, 3 * 3);
        // One round over the length classes of the fingerprint format.
        assert_eq!(report.fingerprint_cases, FINGERPRINT_LENGTHS.len());
    }

    #[test]
    fn campaigns_are_deterministic() {
        let cfg = FuzzConfig {
            seed: 31337,
            arrays_per_shape: 2,
            predicates: 30,
            sources: 8,
            kernels: false,
        };
        let p = pool();
        let a = run_campaign(&cfg, &p);
        let b = run_campaign(&cfg, &p);
        assert_eq!(a.array_cases, b.array_cases);
        assert_eq!(a.reinspect_cases, b.reinspect_cases);
        assert_eq!(a.composed_cases, b.composed_cases);
        assert_eq!(a.fingerprint_cases, b.fingerprint_cases);
        assert_eq!(a.predicate_cases, b.predicate_cases);
        assert_eq!(a.source_cases, b.source_cases);
        assert_eq!(
            a.divergences
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>(),
            b.divergences
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
        );
    }
}
