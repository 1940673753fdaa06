//! CSR-of-CSR two-level gather: a row-offset table addressed *through* an
//! active-row list — the multi-level indirection pattern `y[ind1[ind2[j]]]`
//! of the precursor paper (arXiv 1911.05839).
//!
//! Two subscript arrays chain: `row_start` is a strided prefix recurrence
//! (`p = p + 2`, strided-monotone SRA), `act` is an intermittent
//! compaction (LEMMA 1, strictly monotone). Injective ∘ injective is
//! injective, so distinct iterations of the use loop scatter to distinct
//! elements of `y` — but the inner level needs the intermittent concept,
//! so only the **new** algorithm proves the composition, with the runtime
//! check `num_act - 1 <= m_max` bounding the loop range inside the inner
//! array's proven domain.

use crate::common::{
    det_sum_on, duplicate_first_entry, restore, InnerGroup, Kernel, KernelInfo, KernelInstance,
};
use subsub_omprt::{Schedule, SendPtr, ThreadPool};
use subsub_rtcheck::{Bindings, IndexArrayView, MonotoneReq, Provenance, ValidatedIndexArray};

/// Offset stride of the `row_start` recurrence.
pub const STRIDE: usize = 2;

/// Inline-expanded source: strided `row_start` fill, intermittent `act`
/// compaction, then the composed-gather use loop.
pub const SOURCE: &str = r#"
void csrocsr(int num_rows, int num_act, int *row_start, int *act,
             double *y, double *g) {
    int i; int m; int p;
    p = 0;
    for (i = 0; i < num_rows; i++) {
        row_start[i] = p;
        p = p + 2;
    }
    m = 0;
    for (i = 0; i < num_rows; i++) {
        if (g[i] > 0.0) {
            act[m++] = i;
        }
    }
    for (i = 0; i < num_act; i++) {
        y[row_start[act[i]]] = y[row_start[act[i]]] + g[i];
    }
}
"#;

/// The CSR-of-CSR two-level gather benchmark.
pub struct CsrOfCsr;

fn rows_for(dataset: &str) -> usize {
    match dataset {
        "rows64k" => 65_536,
        "test" => 48,
        other => panic!("unknown CSRoCSR dataset {other}"),
    }
}

impl Kernel for CsrOfCsr {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "CSRoCSR",
            source: SOURCE,
            func_name: "csrocsr",
            datasets: &["rows64k"],
        }
    }

    fn prepare(&self, dataset: &str) -> Box<dyn KernelInstance> {
        let num_rows = rows_for(dataset);
        let y0: Vec<f64> = (0..num_rows * STRIDE)
            .map(|i| (i % 5) as f64 * 0.5)
            .collect();
        // g drives the compaction: every 3rd row is inactive.
        let g: Vec<f64> = (0..num_rows)
            .map(|i| {
                if i % 3 == 1 {
                    -0.5
                } else {
                    0.5 + (i % 7) as f64 * 0.25
                }
            })
            .collect();
        // Outer level: strided prefix offsets into y.
        let row_start = ValidatedIndexArray::ingest(
            "row_start",
            (0..num_rows).map(|i| i * STRIDE).collect(),
            y0.len(),
            Provenance::Dataset {
                name: dataset.to_string(),
            },
        )
        .expect("strided offsets are bounded by |y|");
        // Inner level: active rows, ingested against the *outer* array's
        // length — the chained-domain premise of the composed verdict.
        let act = ValidatedIndexArray::ingest(
            "act",
            (0..num_rows).filter(|i| g[*i] > 0.0).collect(),
            row_start.len(),
            Provenance::Dataset {
                name: dataset.to_string(),
            },
        )
        .expect("active rows are row indices");
        Box::new(CsrOfCsrInstance {
            y: y0.clone(),
            row_start,
            act,
            g,
            y0,
        })
    }
}

struct CsrOfCsrInstance {
    /// Outer level of the composition (strided-monotone offsets).
    row_start: ValidatedIndexArray,
    /// Inner level (intermittent active-row list), domain-chained to
    /// `row_start.len()`.
    act: ValidatedIndexArray,
    g: Vec<f64>,
    y: Vec<f64>,
    y0: Vec<f64>,
}

const COST_PER_GATHER: f64 = 9.0;

impl KernelInstance for CsrOfCsrInstance {
    fn run_serial(&mut self) {
        for j in 0..self.act.len() {
            let m = self.act.data()[j];
            let t = self.row_start.data()[m];
            self.y[t] += self.g[j];
        }
    }

    fn run_outer(&mut self, pool: &ThreadPool, sched: Schedule) {
        let y = SendPtr::new(self.y.as_mut_ptr());
        let y_len = self.y.len();
        let this: &CsrOfCsrInstance = self;
        pool.parallel_for(this.act.len(), sched, |j| {
            let m = this.act.data()[j];
            let t = this.row_start.data()[m];
            // SAFETY: both levels passed the ingestion trust boundary
            // (act entries index row_start, row_start entries index y)
            // and both are strictly monotone, so the composed subscripts
            // are pairwise distinct — distinct iterations write distinct
            // elements.
            debug_assert!(t < y_len, "row_start[act[{j}]] = {t} out of y[0, {y_len})");
            unsafe {
                *y.get().add(t) += this.g[j];
            }
        });
    }

    fn outer_costs(&self) -> Vec<f64> {
        vec![COST_PER_GATHER; self.act.len()]
    }

    fn inner_groups(&self) -> Vec<InnerGroup> {
        (0..self.act.len())
            .map(|_| InnerGroup {
                serial: COST_PER_GATHER,
                inner: vec![],
            })
            .collect()
    }

    fn mem_bound_fraction(&self) -> f64 {
        0.9 // two dependent gathers per element: latency/bandwidth bound
    }

    fn runtime_bindings(&self) -> Bindings {
        // The compaction leaves m == |act|; the use loop runs to num_act,
        // which the harness sets to the same count.
        let mut b = Bindings::new();
        b.set_var("num_act", self.act.len() as i64)
            .set_post_max("m", self.act.len() as i64);
        b
    }

    fn index_arrays(&self) -> Vec<IndexArrayView<'_>> {
        // Both levels must be injective for the composition to scatter
        // to pairwise-distinct targets.
        vec![
            self.row_start.view(MonotoneReq::Strict),
            self.act.view(MonotoneReq::Strict),
        ]
    }

    fn tamper_index_arrays(&mut self) -> bool {
        // On the inner level: the composed scatter would race, so the
        // guard must reject and rescue serially.
        duplicate_first_entry(&mut self.act)
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
    use subsub_rtcheck::composed_verdict;

    #[test]
    fn variants_agree() {
        let pool = ThreadPool::new(3);
        let mut inst = CsrOfCsr.prepare("test");
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
    fn composition_is_strict_until_tampered() {
        let kernel = CsrOfCsr;
        let num_rows = 48;
        // Rebuild the same levels prepare() ingests and check the
        // composed verdict both ways.
        let g: Vec<f64> = (0..num_rows)
            .map(|i| if i % 3 == 1 { -0.5 } else { 1.0 })
            .collect();
        let row_start = ValidatedIndexArray::ingest(
            "row_start",
            (0..num_rows).map(|i| i * STRIDE).collect(),
            num_rows * STRIDE,
            Provenance::Dataset {
                name: "test".into(),
            },
        )
        .unwrap();
        let mut act = ValidatedIndexArray::ingest(
            "act",
            (0..num_rows).filter(|i| g[*i] > 0.0).collect(),
            row_start.len(),
            Provenance::Dataset {
                name: "test".into(),
            },
        )
        .unwrap();
        assert!(composed_verdict(&row_start, &act).strict);
        act.mutate_range(0..2, |w| w[1] = w[0]).unwrap();
        let c = composed_verdict(&row_start, &act);
        assert!(!c.strict && c.nonstrict);
        let _ = kernel;
    }

    #[test]
    fn tamper_breaks_injectivity_but_serial_stays_deterministic() {
        let mut inst = CsrOfCsr.prepare("test");
        assert!(inst.tamper_index_arrays());
        inst.run_serial();
        let a = inst.checksum();
        inst.reset();
        inst.run_serial();
        assert!(close(inst.checksum(), a));
    }
}
