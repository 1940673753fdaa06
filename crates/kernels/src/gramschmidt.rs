//! gramschmidt (PolyBench 4.2): modified Gram–Schmidt QR factorization.
//! The `k`-loop is inherently sequential; the column-update `j`-loop is
//! classically parallel (Figure 17 credits plain Cetus, with modest
//! speedup because of the shrinking inner loop).

use crate::common::{det_sum_on, restore, zero, InnerGroup, Kernel, KernelInfo, KernelInstance};
use subsub_omprt::{Schedule, SendPtr, ThreadPool};

/// gramschmidt source with 2-D arrays (the normalization uses sqrt, an
/// analyzable side-effect-free call).
pub const SOURCE: &str = r#"
void gramschmidt(int m, int n, double A[600][600], double R[600][600],
                 double Q[600][600]) {
    int i; int j; int k; double nrm;
    for (k = 0; k < n; k++) {
        nrm = 0.0;
        for (i = 0; i < m; i++) {
            nrm = nrm + A[i][k] * A[i][k];
        }
        R[k][k] = sqrt(nrm);
        for (i = 0; i < m; i++) {
            Q[i][k] = A[i][k] / R[k][k];
        }
        for (j = k + 1; j < n; j++) {
            R[k][j] = 0.0;
            for (i = 0; i < m; i++) {
                R[k][j] = R[k][j] + Q[i][k] * A[i][j];
            }
            for (i = 0; i < m; i++) {
                A[i][j] = A[i][j] - Q[i][k] * R[k][j];
            }
        }
    }
}
"#;

/// The gramschmidt benchmark.
pub struct Gramschmidt;

fn size_for(dataset: &str) -> usize {
    match dataset {
        "LARGE" => 300,
        "EXTRALARGE" => 420,
        "test" => 14,
        other => panic!("unknown gramschmidt dataset {other}"),
    }
}

impl Kernel for Gramschmidt {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "gramschmidt",
            source: SOURCE,
            func_name: "gramschmidt",
            datasets: &["EXTRALARGE", "LARGE"],
        }
    }

    fn prepare(&self, dataset: &str) -> Box<dyn KernelInstance> {
        let n = size_for(dataset);
        let a0: Vec<f64> = (0..n * n)
            .map(|i| ((i % 23) as f64 - 11.0) * 0.07 + if i % (n + 1) == 0 { 4.0 } else { 0.0 })
            .collect();
        Box::new(GsInstance {
            n,
            a: a0.clone(),
            q: vec![0.0; n * n],
            r: vec![0.0; n * n],
            a0,
        })
    }
}

struct GsInstance {
    n: usize,
    a: Vec<f64>,
    q: Vec<f64>,
    r: Vec<f64>,
    a0: Vec<f64>,
}

impl GsInstance {
    /// One column update: `R[k][j] = Q[:,k]·A[:,j]; A[:,j] -= Q[:,k]·R[k][j]`.
    #[inline]
    fn update(&self, k: usize, j: usize, a: *mut f64, r: *mut f64) {
        let n = self.n;
        // k and j in range bound every pointer offset below by n*n, the
        // length of the a/q/r buffers.
        debug_assert!(k < n && j < n, "column pair ({k}, {j}) out of [0, {n})");
        let mut dot = 0.0;
        for i in 0..n {
            // SAFETY: column j is written only by iteration j of the
            // parallel loop; reads of column k are shared and immutable
            // within the region.
            unsafe {
                dot += self.q[i * n + k] * *a.add(i * n + j);
            }
        }
        unsafe {
            *r.add(k * n + j) = dot;
            for i in 0..n {
                *a.add(i * n + j) -= self.q[i * n + k] * dot;
            }
        }
    }

    fn head(&mut self, k: usize) {
        let n = self.n;
        let mut nrm = 0.0;
        for i in 0..n {
            nrm += self.a[i * n + k] * self.a[i * n + k];
        }
        let d = nrm.sqrt().max(1e-12);
        self.r[k * n + k] = d;
        for i in 0..n {
            self.q[i * n + k] = self.a[i * n + k] / d;
        }
    }
}

impl KernelInstance for GsInstance {
    fn run_serial(&mut self) {
        for k in 0..self.n {
            self.head(k);
            let a = self.a.as_mut_ptr();
            let r = self.r.as_mut_ptr();
            for j in k + 1..self.n {
                self.update(k, j, a, r);
            }
        }
    }

    fn run_inner(&mut self, pool: &ThreadPool, sched: Schedule) {
        for k in 0..self.n {
            self.head(k);
            let a = SendPtr::new(self.a.as_mut_ptr());
            let r = SendPtr::new(self.r.as_mut_ptr());
            let this: &GsInstance = self;
            let len = this.n - k - 1;
            pool.parallel_for(len, sched, |jj| {
                this.update(k, k + 1 + jj, a.get(), r.get());
            });
        }
    }

    fn inner_groups(&self) -> Vec<InnerGroup> {
        let col = self.n as f64 * 4.0;
        (0..self.n)
            .map(|k| InnerGroup {
                serial: self.n as f64 * 3.0,
                inner: vec![col; self.n - k - 1],
            })
            .collect()
    }

    fn mem_bound_fraction(&self) -> f64 {
        0.3 // repeated column passes
    }

    fn checksum_on(&self, pool: Option<&ThreadPool>) -> f64 {
        det_sum_on(pool, &self.q) + det_sum_on(pool, &self.r)
    }

    fn reset_on(&mut self, pool: Option<&ThreadPool>) {
        restore(pool, &mut self.a, &self.a0);
        zero(pool, &mut self.q);
        zero(pool, &mut self.r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::close;

    #[test]
    fn parallel_matches_serial() {
        let pool = ThreadPool::new(3);
        let mut inst = Gramschmidt.prepare("test");
        inst.run_serial();
        let reference = inst.checksum();
        inst.reset();
        inst.run_inner(&pool, Schedule::static_default());
        assert!(close(inst.checksum(), reference));
    }

    #[test]
    fn q_columns_are_orthonormal_ish() {
        let mut inst = GsInstance {
            n: 8,
            a: (0..64)
                .map(|i| ((i % 9) as f64 - 4.0) + if i % 9 == 0 { 8.0 } else { 0.0 })
                .collect(),
            q: vec![0.0; 64],
            r: vec![0.0; 64],
            a0: vec![0.0; 64],
        };
        inst.a0 = inst.a.clone();
        inst.run_serial();
        let n = 8;
        for k in 0..n {
            let norm: f64 = (0..n).map(|i| inst.q[i * n + k] * inst.q[i * n + k]).sum();
            assert!((norm - 1.0).abs() < 1e-6, "column {k} norm {norm}");
        }
    }
}
