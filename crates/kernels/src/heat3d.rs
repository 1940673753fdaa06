//! heat-3d (PolyBench 4.2): 3-D heat-equation stencil with a serial time
//! loop and classically parallel spatial sweeps. The parallel loop sits at
//! depth 1 (inside the time loop) but covers a whole `n²`-deep plane per
//! iteration, so fork-join is amortized — classical parallelization wins
//! here and the subscript-array analysis adds nothing (Figure 17).

use crate::common::{det_sum_on, restore, zero, InnerGroup, Kernel, KernelInfo, KernelInstance};
use subsub_omprt::{Schedule, SendPtr, ThreadPool};

/// heat-3d source: time loop with two Jacobi sweeps.
pub const SOURCE: &str = r#"
void heat3d(int tsteps, int n, double A[120][120][120], double B[120][120][120]) {
    int t; int i; int j; int k;
    for (t = 0; t < tsteps; t++) {
        for (i = 1; i < n - 1; i++) {
            for (j = 1; j < n - 1; j++) {
                for (k = 1; k < n - 1; k++) {
                    B[i][j][k] = 0.125 * (A[i+1][j][k] - 2.0 * A[i][j][k] + A[i-1][j][k])
                               + 0.125 * (A[i][j+1][k] - 2.0 * A[i][j][k] + A[i][j-1][k])
                               + 0.125 * (A[i][j][k+1] - 2.0 * A[i][j][k] + A[i][j][k-1])
                               + A[i][j][k];
                }
            }
        }
        for (i = 1; i < n - 1; i++) {
            for (j = 1; j < n - 1; j++) {
                for (k = 1; k < n - 1; k++) {
                    A[i][j][k] = 0.125 * (B[i+1][j][k] - 2.0 * B[i][j][k] + B[i-1][j][k])
                               + 0.125 * (B[i][j+1][k] - 2.0 * B[i][j][k] + B[i][j-1][k])
                               + 0.125 * (B[i][j][k+1] - 2.0 * B[i][j][k] + B[i][j][k-1])
                               + B[i][j][k];
                }
            }
        }
    }
}
"#;

/// The heat-3d benchmark.
pub struct Heat3d;

fn size_for(dataset: &str) -> (usize, usize) {
    // (n, tsteps)
    match dataset {
        "LARGE" => (72, 20),
        "EXTRALARGE" => (96, 20),
        "test" => (10, 3),
        other => panic!("unknown heat-3d dataset {other}"),
    }
}

impl Kernel for Heat3d {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "heat-3d",
            source: SOURCE,
            func_name: "heat3d",
            datasets: &["EXTRALARGE", "LARGE"],
        }
    }

    fn prepare(&self, dataset: &str) -> Box<dyn KernelInstance> {
        let (n, tsteps) = size_for(dataset);
        let a0: Vec<f64> = (0..n * n * n)
            .map(|i| (i % 13) as f64 * 0.1 + ((i / 7) % 5) as f64 * 0.02)
            .collect();
        Box::new(Heat3dInstance {
            n,
            tsteps,
            a: a0.clone(),
            b: vec![0.0; n * n * n],
            a0,
        })
    }
}

struct Heat3dInstance {
    n: usize,
    tsteps: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    a0: Vec<f64>,
}

impl Heat3dInstance {
    #[inline]
    fn sweep_plane(src: &[f64], dst: *mut f64, n: usize, i: usize) {
        let at = |x: usize, y: usize, z: usize| (x * n + y) * n + z;
        for j in 1..n - 1 {
            for k in 1..n - 1 {
                let c = src[at(i, j, k)];
                let v = 0.125 * (src[at(i + 1, j, k)] - 2.0 * c + src[at(i - 1, j, k)])
                    + 0.125 * (src[at(i, j + 1, k)] - 2.0 * c + src[at(i, j - 1, k)])
                    + 0.125 * (src[at(i, j, k + 1)] - 2.0 * c + src[at(i, j, k - 1)])
                    + c;
                // SAFETY: plane i is written only by iteration i.
                unsafe {
                    *dst.add(at(i, j, k)) = v;
                }
            }
        }
    }
}

impl KernelInstance for Heat3dInstance {
    fn run_serial(&mut self) {
        let n = self.n;
        for _ in 0..self.tsteps {
            for i in 1..n - 1 {
                Heat3dInstance::sweep_plane(&self.a, self.b.as_mut_ptr(), n, i);
            }
            for i in 1..n - 1 {
                Heat3dInstance::sweep_plane(&self.b, self.a.as_mut_ptr(), n, i);
            }
        }
    }

    fn run_inner(&mut self, pool: &ThreadPool, sched: Schedule) {
        let n = self.n;
        for _ in 0..self.tsteps {
            {
                let b = SendPtr::new(self.b.as_mut_ptr());
                let a = &self.a;
                pool.parallel_for(n - 2, sched, |ii| {
                    Heat3dInstance::sweep_plane(a, b.get(), n, ii + 1);
                });
            }
            {
                let a = SendPtr::new(self.a.as_mut_ptr());
                let b = &self.b;
                pool.parallel_for(n - 2, sched, |ii| {
                    Heat3dInstance::sweep_plane(b, a.get(), n, ii + 1);
                });
            }
        }
    }

    fn inner_groups(&self) -> Vec<InnerGroup> {
        let plane_cost = ((self.n - 2) * (self.n - 2)) as f64 * 13.0;
        (0..self.tsteps * 2)
            .map(|_| InnerGroup {
                serial: 0.0,
                inner: vec![plane_cost; self.n - 2],
            })
            .collect()
    }

    fn mem_bound_fraction(&self) -> f64 {
        0.5 // 7-point stencil, moderate reuse
    }

    fn checksum_on(&self, pool: Option<&ThreadPool>) -> f64 {
        det_sum_on(pool, &self.a) + det_sum_on(pool, &self.b)
    }

    fn reset_on(&mut self, pool: Option<&ThreadPool>) {
        restore(pool, &mut self.a, &self.a0);
        zero(pool, &mut self.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::close;

    #[test]
    fn parallel_matches_serial() {
        let pool = ThreadPool::new(4);
        let mut inst = Heat3d.prepare("test");
        inst.run_serial();
        let reference = inst.checksum();

        inst.reset();
        inst.run_inner(&pool, Schedule::static_default());
        assert!(close(inst.checksum(), reference));
    }

    #[test]
    fn stencil_diffuses() {
        let mut inst = Heat3d.prepare("test");
        let before = inst.checksum();
        inst.run_serial();
        assert!(inst.checksum() != before);
    }
}
