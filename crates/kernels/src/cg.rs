//! CG (NAS Parallel Benchmarks): the conjugate-gradient iteration's
//! dominant SpMV plus vector updates. All subscripted subscripts are
//! *reads* (`p[colidx[k]]`), so classical analysis already parallelizes
//! the row loop — CG is one of the six benchmarks Figure 17 credits to
//! plain Cetus.

use crate::common::{det_sum_on, restore, zero, InnerGroup, Kernel, KernelInfo, KernelInstance};
use subsub_omprt::{Schedule, SendPtr, ThreadPool};
use subsub_sparse::{gen, Csr};

/// CG iteration source (SpMV + axpy + dot).
pub const SOURCE: &str = r#"
void cg_iter(int n, int *rowstr, int *colidx, double *a,
             double *p, double *q, double *z, double alpha) {
    int i; int k; double sum;
    for (i = 0; i < n; i++) {
        sum = 0.0;
        for (k = rowstr[i]; k < rowstr[i+1]; k++) {
            sum += a[k] * p[colidx[k]];
        }
        q[i] = sum;
    }
    for (i = 0; i < n; i++) {
        z[i] = z[i] + alpha * p[i];
    }
}
"#;

/// The CG benchmark.
pub struct Cg;

/// Number of CG iterations per run.
pub const ITERS: usize = 12;

fn grid_for(dataset: &str) -> usize {
    match dataset {
        "CLASS A" => 24,
        "CLASS B" => 34,
        "test" => 5,
        other => panic!("unknown CG dataset {other}"),
    }
}

impl Kernel for Cg {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "CG",
            source: SOURCE,
            func_name: "cg_iter",
            datasets: &["CLASS B", "CLASS A"],
        }
    }

    fn prepare(&self, dataset: &str) -> Box<dyn KernelInstance> {
        let a = gen::laplacian_3d(grid_for(dataset));
        let n = a.rows;
        let p: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + (i % 17) as f64)).collect();
        let z0 = vec![0.0; n];
        Box::new(CgInstance {
            q: vec![0.0; n],
            z: z0.clone(),
            z0,
            a,
            p,
        })
    }
}

struct CgInstance {
    a: Csr,
    p: Vec<f64>,
    q: Vec<f64>,
    z: Vec<f64>,
    z0: Vec<f64>,
}

const COST_PER_NNZ: f64 = 6.0;
const COST_PER_ROW: f64 = 12.0;

impl CgInstance {
    #[inline]
    fn row(&self, i: usize) -> f64 {
        let mut sum = 0.0;
        for k in self.a.row_ptr[i]..self.a.row_ptr[i + 1] {
            sum += self.a.values[k] * self.p[self.a.col_idx[k]];
        }
        sum
    }
}

impl KernelInstance for CgInstance {
    fn run_serial(&mut self) {
        for _ in 0..ITERS {
            for i in 0..self.a.rows {
                self.q[i] = self.row(i);
            }
            for i in 0..self.a.rows {
                self.z[i] += 0.3 * self.p[i] + 1e-3 * self.q[i];
            }
        }
    }

    fn run_outer(&mut self, pool: &ThreadPool, sched: Schedule) {
        let n = self.a.rows;
        for _ in 0..ITERS {
            {
                let q = SendPtr::new(self.q.as_mut_ptr());
                let this: &CgInstance = self;
                pool.parallel_for(n, sched, |i| {
                    debug_assert!(i < this.q.len(), "row index {i} out of q bounds");
                    unsafe {
                        *q.get().add(i) = this.row(i);
                    }
                });
            }
            {
                let z = SendPtr::new(self.z.as_mut_ptr());
                let this: &CgInstance = self;
                pool.parallel_for(n, sched, |i| {
                    debug_assert!(i < this.z.len(), "row index {i} out of z bounds");
                    unsafe {
                        *z.get().add(i) += 0.3 * this.p[i] + 1e-3 * this.q[i];
                    }
                });
            }
        }
    }

    fn run_inner(&mut self, pool: &ThreadPool, sched: Schedule) {
        // Classical analysis already gets the outer row loop; the inner
        // strategy is identical.
        self.run_outer(pool, sched);
    }

    fn outer_costs(&self) -> Vec<f64> {
        // Per CG iteration the parallel region covers all rows; flatten to
        // one cost entry per row per iteration.
        let mut out = Vec::with_capacity(self.a.rows * ITERS);
        for _ in 0..ITERS {
            for i in 0..self.a.rows {
                out.push(COST_PER_ROW + COST_PER_NNZ * self.a.row_nnz(i) as f64);
            }
        }
        out
    }

    fn inner_groups(&self) -> Vec<InnerGroup> {
        // One region per CG iteration (fork-join amortized over n rows).
        (0..ITERS)
            .map(|_| InnerGroup {
                serial: 0.0,
                inner: (0..self.a.rows)
                    .map(|i| COST_PER_ROW + COST_PER_NNZ * self.a.row_nnz(i) as f64)
                    .collect(),
            })
            .collect()
    }

    fn mem_bound_fraction(&self) -> f64 {
        0.8 // SpMV-dominated
    }

    fn checksum_on(&self, pool: Option<&ThreadPool>) -> f64 {
        det_sum_on(pool, &self.z) + det_sum_on(pool, &self.q)
    }

    fn reset_on(&mut self, pool: Option<&ThreadPool>) {
        restore(pool, &mut self.z, &self.z0);
        zero(pool, &mut self.q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::close;

    #[test]
    fn variants_agree() {
        let pool = ThreadPool::new(3);
        let mut inst = Cg.prepare("test");
        inst.run_serial();
        let reference = inst.checksum();

        inst.reset();
        inst.run_outer(&pool, Schedule::static_default());
        assert!(close(inst.checksum(), reference));
    }
}
