//! syrk (PolyBench 4.2): symmetric rank-k update `C = α·A·Aᵀ + β·C`.
//! The outer row loop is classically parallel — plain affine subscripts
//! (Figure 17 credits plain Cetus).

use crate::common::{det_sum_on, restore, InnerGroup, Kernel, KernelInfo, KernelInstance};
use subsub_omprt::{Schedule, SendPtr, ThreadPool};

/// syrk source with 2-D arrays.
pub const SOURCE: &str = r#"
void syrk(int n, int m, double alpha, double beta,
          double C[1200][1200], double A[1200][1000]) {
    int i; int j; int k;
    for (i = 0; i < n; i++) {
        for (j = 0; j <= i; j++) {
            C[i][j] = C[i][j] * beta;
        }
        for (k = 0; k < m; k++) {
            for (j = 0; j <= i; j++) {
                C[i][j] = C[i][j] + alpha * A[i][k] * A[j][k];
            }
        }
    }
}
"#;

/// The syrk benchmark.
pub struct Syrk;

fn size_for(dataset: &str) -> (usize, usize) {
    match dataset {
        "LARGE" => (500, 400),
        "EXTRALARGE" => (700, 550),
        "test" => (12, 9),
        other => panic!("unknown syrk dataset {other}"),
    }
}

impl Kernel for Syrk {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "syrk",
            source: SOURCE,
            func_name: "syrk",
            datasets: &["EXTRALARGE", "LARGE"],
        }
    }

    fn prepare(&self, dataset: &str) -> Box<dyn KernelInstance> {
        let (n, m) = size_for(dataset);
        let a: Vec<f64> = (0..n * m).map(|i| ((i % 19) as f64 - 9.0) * 0.05).collect();
        let c0: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64 * 0.1).collect();
        Box::new(SyrkInstance {
            n,
            m,
            a,
            c: c0.clone(),
            c0,
        })
    }
}

struct SyrkInstance {
    n: usize,
    m: usize,
    a: Vec<f64>,
    c: Vec<f64>,
    c0: Vec<f64>,
}

impl SyrkInstance {
    #[inline]
    fn row(&self, i: usize, c: *mut f64) {
        let (n, m) = (self.n, self.m);
        for j in 0..=i {
            // SAFETY: row i is written only by iteration i.
            unsafe {
                *c.add(i * n + j) *= 0.9;
            }
        }
        for k in 0..m {
            let aik = self.a[i * m + k];
            for j in 0..=i {
                unsafe {
                    *c.add(i * n + j) += 1.1 * aik * self.a[j * m + k];
                }
            }
        }
    }
}

impl KernelInstance for SyrkInstance {
    fn run_serial(&mut self) {
        let c = self.c.as_mut_ptr();
        for i in 0..self.n {
            self.row(i, c);
        }
    }

    fn run_outer(&mut self, pool: &ThreadPool, sched: Schedule) {
        let c = SendPtr::new(self.c.as_mut_ptr());
        let this: &SyrkInstance = self;
        pool.parallel_for(this.n, sched, |i| {
            this.row(i, c.get());
        });
    }

    fn run_inner(&mut self, pool: &ThreadPool, sched: Schedule) {
        self.run_outer(pool, sched);
    }

    fn outer_costs(&self) -> Vec<f64> {
        // Triangular work: row i costs ~ (i+1)·(m+1).
        (0..self.n)
            .map(|i| (i + 1) as f64 * (self.m + 1) as f64 * 3.0)
            .collect()
    }

    fn inner_groups(&self) -> Vec<InnerGroup> {
        vec![InnerGroup {
            serial: 0.0,
            inner: self.outer_costs(),
        }]
    }

    fn mem_bound_fraction(&self) -> f64 {
        0.2 // O(n³) compute over O(n²) data
    }

    fn checksum_on(&self, pool: Option<&ThreadPool>) -> f64 {
        det_sum_on(pool, &self.c)
    }

    fn reset_on(&mut self, pool: Option<&ThreadPool>) {
        restore(pool, &mut self.c, &self.c0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::close;

    #[test]
    fn parallel_matches_serial() {
        let pool = ThreadPool::new(4);
        let mut inst = Syrk.prepare("test");
        inst.run_serial();
        let reference = inst.checksum();
        inst.reset();
        // Triangular row costs are imbalanced: exercise dynamic.
        inst.run_outer(&pool, Schedule::dynamic_default());
        assert!(close(inst.checksum(), reference));
    }

    #[test]
    fn triangular_costs_grow() {
        let inst = Syrk.prepare("test");
        let costs = inst.outer_costs();
        assert!(costs.first().unwrap() < costs.last().unwrap());
    }
}
