//! Strided scatter: a gather/scatter whose subscript array is a
//! non-unit-stride prefix recurrence (`p = p + 2`) — the strided-monotone
//! SRA pattern of the precursor paper (arXiv 1911.05839).
//!
//! The constant step ≥ 2 proves `off` strided-monotone (`#SMA+2`):
//! strictly monotone, hence injective, with every pair of written indices
//! at least the gap apart. SRA is a **base**-algorithm concept, so both
//! Cetus+BaseAlgo and Cetus+NewAlgo parallelize the scatter loop — with
//! no runtime check, since the property's symbolic bounds are resolved at
//! compile time.

use crate::common::{
    det_sum_on, duplicate_first_entry, restore, InnerGroup, Kernel, KernelInfo, KernelInstance,
};
use subsub_omprt::{Schedule, SendPtr, ThreadPool};
use subsub_rtcheck::{IndexArrayView, MonotoneReq, Provenance, ValidatedIndexArray};

/// The recurrence step (and hence the guaranteed index gap).
pub const GAP: usize = 2;

/// Inline-expanded source: strided fill + scatter-update use loop.
pub const SOURCE: &str = r#"
void sscatter(int n, int *off, double *y, double *g) {
    int i; int p;
    p = 0;
    for (i = 0; i < n; i++) {
        off[i] = p;
        p = p + 2;
    }
    for (i = 0; i < n; i++) {
        y[off[i]] = y[off[i]] + g[i];
    }
}
"#;

/// The strided-scatter benchmark.
pub struct StridedScatter;

fn size_for(dataset: &str) -> usize {
    match dataset {
        "n256k" => 262_144,
        "test" => 300,
        other => panic!("unknown StridedScatter dataset {other}"),
    }
}

impl Kernel for StridedScatter {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "StridedScatter",
            source: SOURCE,
            func_name: "sscatter",
            datasets: &["n256k"],
        }
    }

    fn prepare(&self, dataset: &str) -> Box<dyn KernelInstance> {
        let n = size_for(dataset);
        let y0: Vec<f64> = (0..n * GAP).map(|i| (i % 9) as f64 * 0.125).collect();
        let g: Vec<f64> = (0..n).map(|i| 1.0 + (i % 11) as f64 * 0.5).collect();
        let off = ValidatedIndexArray::ingest(
            "off",
            (0..n).map(|i| i * GAP).collect(),
            y0.len(),
            Provenance::Dataset {
                name: dataset.to_string(),
            },
        )
        .expect("strided offsets are bounded by |y|");
        Box::new(StridedScatterInstance {
            y: y0.clone(),
            off,
            g,
            y0,
        })
    }
}

struct StridedScatterInstance {
    /// Strided-monotone offsets behind the ingestion trust boundary.
    off: ValidatedIndexArray,
    g: Vec<f64>,
    y: Vec<f64>,
    y0: Vec<f64>,
}

const COST_PER_SCATTER: f64 = 5.0;

impl KernelInstance for StridedScatterInstance {
    fn run_serial(&mut self) {
        for i in 0..self.off.len() {
            let t = self.off.data()[i];
            self.y[t] += self.g[i];
        }
    }

    fn run_outer(&mut self, pool: &ThreadPool, sched: Schedule) {
        let y = SendPtr::new(self.y.as_mut_ptr());
        let y_len = self.y.len();
        let this: &StridedScatterInstance = self;
        pool.parallel_for(this.off.len(), sched, |i| {
            let t = this.off.data()[i];
            // SAFETY: ingestion validated t < y.len(), and off is
            // strictly (strided) monotone, so distinct iterations write
            // distinct elements.
            debug_assert!(t < y_len, "off[{i}] = {t} out of y[0, {y_len})");
            unsafe {
                *y.get().add(t) += this.g[i];
            }
        });
    }

    fn outer_costs(&self) -> Vec<f64> {
        vec![COST_PER_SCATTER; self.off.len()]
    }

    fn inner_groups(&self) -> Vec<InnerGroup> {
        (0..self.off.len())
            .map(|_| InnerGroup {
                serial: COST_PER_SCATTER,
                inner: vec![],
            })
            .collect()
    }

    fn mem_bound_fraction(&self) -> f64 {
        0.95 // pure strided read-modify-write stream
    }

    fn index_arrays(&self) -> Vec<IndexArrayView<'_>> {
        vec![self.off.view(MonotoneReq::Strict)]
    }

    fn tamper_index_arrays(&mut self) -> bool {
        // Collapses the first gap: the scatter would race on the shared
        // target.
        duplicate_first_entry(&mut self.off)
    }

    fn checksum_on(&self, pool: Option<&ThreadPool>) -> f64 {
        det_sum_on(pool, &self.y)
    }

    fn reset_on(&mut self, pool: Option<&ThreadPool>) {
        restore(pool, &mut self.y, &self.y0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::close;

    #[test]
    fn variants_agree() {
        let pool = ThreadPool::new(2);
        let mut inst = StridedScatter.prepare("test");
        inst.run_serial();
        let reference = inst.checksum();
        assert!(reference.is_finite() && reference != 0.0);

        inst.reset();
        inst.run_outer(&pool, Schedule::static_default());
        assert!(close(inst.checksum(), reference));

        inst.reset();
        inst.run_inner(&pool, Schedule::dynamic_default());
        assert!(close(inst.checksum(), reference));
    }

    #[test]
    fn offsets_keep_the_advertised_gap() {
        let inst = StridedScatter.prepare("test");
        let views = inst.index_arrays();
        let off = &views[0];
        assert!(off.data.windows(2).all(|w| w[1] - w[0] == GAP));
    }
}
