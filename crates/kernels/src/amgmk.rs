//! AMGmk (CORAL suite): sparse matrix–vector multiply over the rows with
//! nonzeros, addressed through the `A_rownnz` subscript array
//! (paper Figures 8 and 9, Section 3.1).
//!
//! `A_rownnz` is filled by an intermittent recurrence (LEMMA 1): only the
//! new algorithm proves it strictly monotonic and parallelizes the outer
//! SpMV loop; classical analysis parallelizes the per-row reduction loop,
//! paying one fork-join per matrix row (the Figure-13 anomaly).

use crate::common::{
    det_sum_on, duplicate_first_entry, restore, InnerGroup, Kernel, KernelInfo, KernelInstance,
};
use subsub_omprt::{Schedule, SendPtr, ThreadPool};
use subsub_rtcheck::{Bindings, IndexArrayView, MonotoneReq, Provenance, ValidatedIndexArray};
use subsub_sparse::{gen, Csr};

/// Inline-expanded AMGmk kernel source (fill + use loop), as analyzed by
/// the compiler pipeline.
pub const SOURCE: &str = r#"
void amgmk(int num_rows, int num_rownnz, int *A_i, int *A_j,
           double *A_data, double *x_data, double *y_data, int *A_rownnz) {
    int i; int adiag; int irownnz; int jj; int m; double tempx;
    irownnz = 0;
    for (i = 0; i < num_rows; i++) {
        adiag = A_i[i+1] - A_i[i];
        if (adiag > 0)
            A_rownnz[irownnz++] = i;
    }
    for (i = 0; i < num_rownnz; i++) {
        m = A_rownnz[i];
        tempx = y_data[m];
        for (jj = A_i[m]; jj < A_i[m+1]; jj++)
            tempx += A_data[jj] * x_data[A_j[jj]];
        y_data[m] = tempx;
    }
}
"#;

/// The AMGmk benchmark.
pub struct Amgmk;

/// Grid edge lengths for the five CORAL matrices (MATRIX1–5 scale up).
fn grid_for(dataset: &str) -> usize {
    match dataset {
        "MATRIX1" => 20,
        "MATRIX2" => 25,
        "MATRIX3" => 32,
        "MATRIX4" => 40,
        "MATRIX5" => 48,
        "test" => 5,
        other => panic!("unknown AMGmk dataset {other}"),
    }
}

impl Kernel for Amgmk {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "AMGmk",
            source: SOURCE,
            func_name: "amgmk",
            datasets: &["MATRIX2", "MATRIX1", "MATRIX3", "MATRIX4", "MATRIX5"],
        }
    }

    fn prepare(&self, dataset: &str) -> Box<dyn KernelInstance> {
        let n = grid_for(dataset);
        let mut a = gen::laplacian_3d(n);
        // AMG operators have empty rows after coarsening; clear every 4th
        // row so A_rownnz is a proper (intermittent) subset.
        clear_rows(&mut a, |r| r % 4 == 3);
        // Ingestion trust boundary: every A_rownnz entry must index a
        // real row of A before any verdict licenses `unsafe` scatter.
        let rownnz = ValidatedIndexArray::ingest(
            "A_rownnz",
            a.rownnz(),
            a.rows,
            Provenance::Dataset {
                name: dataset.to_string(),
            },
        )
        .expect("generated A_rownnz entries are row indices of A");
        let dim = a.rows;
        let x: Vec<f64> = (0..dim).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
        let y0: Vec<f64> = (0..dim).map(|i| (i % 5) as f64 * 0.5).collect();
        Box::new(AmgmkInstance {
            y: y0.clone(),
            a,
            rownnz,
            x,
            y0,
        })
    }
}

fn clear_rows(a: &mut Csr, pred: impl Fn(usize) -> bool) {
    let mut rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(a.rows);
    for r in 0..a.rows {
        if pred(r) {
            rows.push(Vec::new());
        } else {
            rows.push(
                (a.row_ptr[r]..a.row_ptr[r + 1])
                    .map(|k| (a.col_idx[k], a.values[k]))
                    .collect(),
            );
        }
    }
    *a = Csr::from_rows(a.rows, a.cols, rows);
}

struct AmgmkInstance {
    a: Csr,
    /// The subscript array behind the ingestion trust boundary: entries
    /// validated against `a.rows`, mutations tracked by version (for the
    /// inspector cache) and checksum (for the out-of-band-writer gate).
    rownnz: ValidatedIndexArray,
    x: Vec<f64>,
    y: Vec<f64>,
    y0: Vec<f64>,
}

impl AmgmkInstance {
    #[inline]
    fn row_update(&self, m: usize) -> f64 {
        let mut tempx = self.y[m];
        for k in self.a.row_ptr[m]..self.a.row_ptr[m + 1] {
            tempx += self.a.values[k] * self.x[self.a.col_idx[k]];
        }
        tempx
    }
}

/// Abstract per-nonzero and per-row costs of the work model (arbitrary
/// units; the harness calibrates them against a serial run).
const COST_PER_NNZ: f64 = 6.0;
const COST_PER_ROW: f64 = 20.0;

impl KernelInstance for AmgmkInstance {
    fn run_serial(&mut self) {
        for idx in 0..self.rownnz.len() {
            let m = self.rownnz.data()[idx];
            self.y[m] = self.row_update(m);
        }
    }

    fn run_outer(&mut self, pool: &ThreadPool, sched: Schedule) {
        let y = SendPtr::new(self.y.as_mut_ptr());
        let y_len = self.y.len();
        let this: &AmgmkInstance = self;
        pool.parallel_for(this.rownnz.len(), sched, |idx| {
            let m = this.rownnz.data()[idx];
            let v = this.row_update(m);
            // SAFETY: ingestion validated m < a.rows == y.len(), and
            // A_rownnz is strictly monotonic (the property the analysis
            // proves), so distinct iterations write distinct rows.
            debug_assert!(m < y_len, "A_rownnz[{idx}] = {m} out of y[0, {y_len})");
            unsafe {
                *y.get().add(m) = v;
            }
        });
    }

    fn run_inner(&mut self, pool: &ThreadPool, sched: Schedule) {
        // Classical strategy: serial outer loop, fork a reduction team for
        // every row's dot product.
        for idx in 0..self.rownnz.len() {
            let m = self.rownnz.data()[idx];
            let lo = self.a.row_ptr[m];
            let n = self.a.row_ptr[m + 1] - lo;
            let a = &self.a;
            let x = &self.x;
            let sum = pool.parallel_for_reduce(
                n,
                sched,
                0.0f64,
                |acc, k| acc + a.values[lo + k] * x[a.col_idx[lo + k]],
                |p, q| p + q,
            );
            self.y[m] += sum;
        }
    }

    fn outer_costs(&self) -> Vec<f64> {
        self.rownnz
            .data()
            .iter()
            .map(|&m| COST_PER_ROW + COST_PER_NNZ * self.a.row_nnz(m) as f64)
            .collect()
    }

    fn inner_groups(&self) -> Vec<InnerGroup> {
        self.rownnz
            .data()
            .iter()
            .map(|&m| InnerGroup {
                serial: COST_PER_ROW,
                inner: vec![COST_PER_NNZ; self.a.row_nnz(m)],
            })
            .collect()
    }

    fn mem_bound_fraction(&self) -> f64 {
        0.95 // SpMV: streaming A + gathered x, bandwidth-bound
    }

    fn runtime_bindings(&self) -> Bindings {
        // The fill loop leaves irownnz == |rownnz|; the use loop runs to
        // num_rownnz, which the harness sets to the same count.
        let mut b = Bindings::new();
        b.set_var("num_rownnz", self.rownnz.len() as i64)
            .set_post_max("irownnz", self.rownnz.len() as i64);
        b
    }

    fn index_arrays(&self) -> Vec<IndexArrayView<'_>> {
        // Distinct iterations must write distinct rows: injectivity,
        // i.e. strict monotonicity.
        vec![self.rownnz.view(MonotoneReq::Strict)]
    }

    fn tamper_index_arrays(&mut self) -> bool {
        // The serial variant just updates that row twice, deterministically.
        duplicate_first_entry(&mut self.rownnz)
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
        let pool = ThreadPool::new(3);
        let mut inst = Amgmk.prepare("test");
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
    fn reset_restores_initial_state() {
        let mut inst = Amgmk.prepare("test");
        let before = inst.checksum();
        inst.run_serial();
        assert!(!close(inst.checksum(), before));
        inst.reset();
        assert!(close(inst.checksum(), before));
    }

    #[test]
    fn work_models_are_consistent() {
        let inst = Amgmk.prepare("test");
        let outer: f64 = inst.outer_costs().iter().sum();
        let inner: f64 = crate::common::serial_cost(&inst.inner_groups());
        assert!((outer - inner).abs() < 1e-9);
    }

    #[test]
    fn rownnz_is_proper_subset() {
        let inst = Amgmk.prepare("test");
        // Downcast-free check via the cost model: number of outer
        // iterations equals the rownnz count, less than the matrix rows.
        assert!(inst.outer_costs().len() < 125);
        assert!(!inst.outer_costs().is_empty());
    }
}
