//! CHOLMOD-Supernodal (SuiteSparse): panel-wise column scaling of the
//! supernodal factor.
//!
//! The supernodal layout uses a column-pointer array built by an
//! *unconditional* prefix-sum recurrence — the continuous SRA pattern of
//! the paper's Figure 2(b) that the **base** algorithm (ICS'21) already
//! handles. This is the one benchmark Figure 17 attributes to
//! Cetus+BaseAlgo. Our synthetic supernodal factor uses a uniform panel
//! width, making the prefix-sum increment a compile-time constant (the
//! analyzable form; see DESIGN.md).

use crate::common::{det_sum_on, restore, InnerGroup, Kernel, KernelInfo, KernelInstance};
use subsub_omprt::{Schedule, SendPtr, ThreadPool};
use subsub_rtcheck::{IndexArrayView, MonotoneReq, Provenance, ValidatedIndexArray};

/// Panel (supernode) width of the synthetic factor.
pub const PANEL: usize = 192;

/// Inline-expanded source: prefix-sum `colptr` fill + panel scaling loop.
pub const SOURCE: &str = r#"
void cholmod_sn(int n_super, int *colptr, double *L_x, double *diag) {
    int j; int p;
    colptr[0] = 0;
    for (j = 0; j < n_super; j++) {
        colptr[j+1] = colptr[j] + 192;
    }
    for (j = 0; j < n_super; j++) {
        for (p = colptr[j]; p < colptr[j+1]; p++) {
            L_x[p] = L_x[p] * diag[j];
        }
    }
}
"#;

/// The CHOLMOD-Supernodal benchmark.
pub struct Cholmod;

fn supernodes_for(dataset: &str) -> usize {
    match dataset {
        "spal_004" => 40000,
        "test" => 20,
        other => panic!("unknown CHOLMOD dataset {other}"),
    }
}

impl Kernel for Cholmod {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "CHOLMOD-Supernodal",
            source: SOURCE,
            func_name: "cholmod_sn",
            datasets: &["spal_004"],
        }
    }

    fn prepare(&self, dataset: &str) -> Box<dyn KernelInstance> {
        let n_super = supernodes_for(dataset);
        let l0: Vec<f64> = (0..n_super * PANEL)
            .map(|i| 1.0 + (i % 9) as f64 * 0.1)
            .collect();
        // Defense in depth: even though the prefix-sum fill is
        // compile-time analyzable, the panel boundaries still pass the
        // ingestion trust boundary (domain = |L_x| + 1, since the last
        // boundary equals the element count).
        let colptr = ValidatedIndexArray::ingest(
            "colptr",
            (0..=n_super).map(|j| j * PANEL).collect(),
            l0.len() + 1,
            Provenance::Dataset {
                name: dataset.to_string(),
            },
        )
        .expect("prefix-sum panel boundaries are bounded by the factor size");
        let diag: Vec<f64> = (0..n_super).map(|j| 0.5 + (j % 3) as f64 * 0.25).collect();
        Box::new(CholmodInstance {
            l: l0.clone(),
            colptr,
            l0,
            diag,
        })
    }
}

struct CholmodInstance {
    /// Panel boundaries behind the ingestion trust boundary (validated
    /// against the factor length).
    colptr: ValidatedIndexArray,
    l: Vec<f64>,
    l0: Vec<f64>,
    diag: Vec<f64>,
}

const COST_PER_ELEM: f64 = 2.0;
const COST_PER_PANEL: f64 = 15.0;

impl KernelInstance for CholmodInstance {
    fn run_serial(&mut self) {
        for j in 0..self.diag.len() {
            let d = self.diag[j];
            for p in self.colptr.data()[j]..self.colptr.data()[j + 1] {
                self.l[p] *= d;
            }
        }
    }

    fn run_outer(&mut self, pool: &ThreadPool, sched: Schedule) {
        let l = SendPtr::new(self.l.as_mut_ptr());
        let l_len = self.l.len();
        let this: &CholmodInstance = self;
        pool.parallel_for(this.diag.len(), sched, |j| {
            let d = this.diag[j];
            for p in this.colptr.data()[j]..this.colptr.data()[j + 1] {
                // SAFETY: ingestion validated the boundaries against the
                // factor length, and colptr is strictly monotone (prefix
                // sum of a positive constant), so panels are disjoint.
                debug_assert!(p < l_len, "panel element {p} out of L_x[0, {l_len})");
                unsafe {
                    *l.get().add(p) *= d;
                }
            }
        });
    }

    fn run_inner(&mut self, pool: &ThreadPool, sched: Schedule) {
        let l = SendPtr::new(self.l.as_mut_ptr());
        let l_len = self.l.len();
        for j in 0..self.diag.len() {
            let d = self.diag[j];
            let lo = self.colptr.data()[j];
            let len = self.colptr.data()[j + 1].saturating_sub(lo);
            pool.parallel_for(len, sched, |i| {
                debug_assert!(lo + i < l_len, "panel element out of L_x bounds");
                unsafe {
                    *l.get().add(lo + i) *= d;
                }
            });
        }
    }

    fn outer_costs(&self) -> Vec<f64> {
        (0..self.diag.len())
            .map(|_| COST_PER_PANEL + COST_PER_ELEM * PANEL as f64)
            .collect()
    }

    fn inner_groups(&self) -> Vec<InnerGroup> {
        (0..self.diag.len())
            .map(|_| InnerGroup {
                serial: COST_PER_PANEL,
                inner: vec![COST_PER_ELEM; PANEL],
            })
            .collect()
    }

    fn mem_bound_fraction(&self) -> f64 {
        0.55 // panel scaling is a streaming update
    }

    fn index_arrays(&self) -> Vec<IndexArrayView<'_>> {
        // Strict monotonicity makes panels disjoint; the compile-time
        // analysis already proves this for the constant prefix sum, so the
        // runtime view is defense in depth rather than a licensing
        // requirement.
        vec![self.colptr.view(MonotoneReq::Strict)]
    }

    fn checksum_on(&self, pool: Option<&ThreadPool>) -> f64 {
        det_sum_on(pool, &self.l)
    }

    fn reset_on(&mut self, pool: Option<&ThreadPool>) {
        restore(pool, &mut self.l, &self.l0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::close;

    #[test]
    fn variants_agree() {
        let pool = ThreadPool::new(2);
        let mut inst = Cholmod.prepare("test");
        inst.run_serial();
        let reference = inst.checksum();

        inst.reset();
        inst.run_outer(&pool, Schedule::static_default());
        assert!(close(inst.checksum(), reference));

        inst.reset();
        inst.run_inner(&pool, Schedule::dynamic_default());
        assert!(close(inst.checksum(), reference));
    }

    #[test]
    fn panels_are_uniform() {
        let inst = Cholmod.prepare("test");
        let costs = inst.outer_costs();
        assert!(costs.windows(2).all(|w| w[0] == w[1]));
    }
}
