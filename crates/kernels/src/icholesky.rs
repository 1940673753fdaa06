//! Incomplete Cholesky, C version (SparseLib++): IC(0) factorization on
//! the fixed sparsity pattern of the input matrix. The subscript arrays
//! (`row_ptr`, `col_idx`) hold *input data*, so their properties "depend on
//! the program input" (paper, Section 4.3) — no compile-time configuration
//! parallelizes the factorization; Figure 17 shows no improvement.

use crate::common::{det_sum_on, restore, InnerGroup, Kernel, KernelInfo, KernelInstance};
use subsub_omprt::ThreadPool;
use subsub_sparse::{gen, Csr};

/// IC(0) source: the column elimination loop with input-defined pattern
/// arrays (note the pattern arrays are parameters, never filled here —
/// there is nothing for the analysis to prove).
pub const SOURCE: &str = r#"
void icholesky(int n, int *row_ptr, int *col_idx, double *val, double *diag) {
    int j; int k; int p; double djj;
    for (j = 0; j < n; j++) {
        djj = diag[j];
        for (p = row_ptr[j]; p < row_ptr[j+1]; p++) {
            k = col_idx[p];
            diag[k] = diag[k] - val[p] * val[p] / djj;
            val[p] = val[p] / djj;
        }
    }
}
"#;

/// The Incomplete Cholesky benchmark.
pub struct ICholesky;

fn size_for(dataset: &str) -> usize {
    match dataset {
        "crankseg_1" => 6000,
        "test" => 24,
        other => panic!("unknown icholesky dataset {other}"),
    }
}

impl Kernel for ICholesky {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "Incomplete-Cholesky",
            source: SOURCE,
            func_name: "icholesky",
            datasets: &["crankseg_1"],
        }
    }

    #[allow(clippy::needless_range_loop)]
    fn prepare(&self, dataset: &str) -> Box<dyn KernelInstance> {
        let n = size_for(dataset);
        // A banded SPD-ish matrix; only the strictly-upper part is kept
        // (the pattern the elimination touches).
        let a = gen::banded(n, 10);
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for r in 0..n {
            for k in a.row_ptr[r]..a.row_ptr[r + 1] {
                let c = a.col_idx[k];
                if c > r {
                    rows[r].push((c, 0.1));
                }
            }
        }
        let upper = Csr::from_rows(n, n, rows);
        let diag0: Vec<f64> = (0..n).map(|i| 25.0 + (i % 3) as f64).collect();
        let val0 = upper.values.clone();
        Box::new(IcInstance {
            diag: diag0.clone(),
            val: val0.clone(),
            upper,
            diag0,
            val0,
        })
    }
}

struct IcInstance {
    upper: Csr,
    diag: Vec<f64>,
    val: Vec<f64>,
    diag0: Vec<f64>,
    val0: Vec<f64>,
}

impl KernelInstance for IcInstance {
    fn run_serial(&mut self) {
        // Repeat the elimination a few times so the kernel has measurable
        // weight (the paper times the full solver setup).
        for _ in 0..8 {
            for j in 0..self.upper.rows {
                let djj = self.diag[j].max(1e-9);
                for p in self.upper.row_ptr[j]..self.upper.row_ptr[j + 1] {
                    let k = self.upper.col_idx[p];
                    self.diag[k] -= self.val[p] * self.val[p] / djj;
                    self.val[p] /= djj;
                }
            }
        }
    }

    fn outer_costs(&self) -> Vec<f64> {
        vec![self.upper.nnz() as f64 * 6.0 * 8.0]
    }

    fn inner_groups(&self) -> Vec<InnerGroup> {
        vec![InnerGroup {
            serial: self.upper.nnz() as f64 * 6.0 * 8.0,
            inner: vec![],
        }]
    }

    fn checksum_on(&self, pool: Option<&ThreadPool>) -> f64 {
        det_sum_on(pool, &self.diag) + det_sum_on(pool, &self.val)
    }

    fn reset_on(&mut self, pool: Option<&ThreadPool>) {
        restore(pool, &mut self.diag, &self.diag0);
        restore(pool, &mut self.val, &self.val0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorization_changes_state_and_resets() {
        let mut inst = ICholesky.prepare("test");
        let before = inst.checksum();
        inst.run_serial();
        let after = inst.checksum();
        assert!(after != before);
        inst.reset();
        assert_eq!(inst.checksum(), before);
    }

    #[test]
    fn diag_stays_finite() {
        let mut inst = ICholesky.prepare("test");
        inst.run_serial();
        assert!(inst.checksum().is_finite());
    }
}
