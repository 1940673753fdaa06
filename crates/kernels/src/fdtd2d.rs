//! fdtd-2d (PolyBench 4.2): 2-D finite-difference time-domain kernel.
//! Serial time loop, classically parallel field sweeps (Figure 17 credits
//! plain Cetus).

use crate::common::{det_sum_on, restore, InnerGroup, Kernel, KernelInfo, KernelInstance};
use subsub_omprt::{Schedule, SendPtr, ThreadPool};

/// fdtd-2d source: time loop updating ey, ex and hz.
pub const SOURCE: &str = r#"
void fdtd2d(int tmax, int nx, int ny, double ex[1000][1000],
            double ey[1000][1000], double hz[1000][1000], double *fict) {
    int t; int i; int j;
    for (t = 0; t < tmax; t++) {
        for (j = 0; j < ny; j++) {
            ey[0][j] = fict[t];
        }
        for (i = 1; i < nx; i++) {
            for (j = 0; j < ny; j++) {
                ey[i][j] = ey[i][j] - 0.5 * (hz[i][j] - hz[i-1][j]);
            }
        }
        for (i = 0; i < nx; i++) {
            for (j = 1; j < ny; j++) {
                ex[i][j] = ex[i][j] - 0.5 * (hz[i][j] - hz[i][j-1]);
            }
        }
        for (i = 0; i < nx - 1; i++) {
            for (j = 0; j < ny - 1; j++) {
                hz[i][j] = hz[i][j] - 0.7 * (ex[i][j+1] - ex[i][j] + ey[i+1][j] - ey[i][j]);
            }
        }
    }
}
"#;

/// The fdtd-2d benchmark.
pub struct Fdtd2d;

fn size_for(dataset: &str) -> (usize, usize) {
    // (n, tmax)
    match dataset {
        "LARGE" => (700, 30),
        "EXTRALARGE" => (1000, 30),
        "test" => (16, 3),
        other => panic!("unknown fdtd-2d dataset {other}"),
    }
}

impl Kernel for Fdtd2d {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "fdtd-2d",
            source: SOURCE,
            func_name: "fdtd2d",
            datasets: &["EXTRALARGE", "LARGE"],
        }
    }

    fn prepare(&self, dataset: &str) -> Box<dyn KernelInstance> {
        let (n, tmax) = size_for(dataset);
        let init =
            |s: usize| -> Vec<f64> { (0..n * n).map(|i| ((i + s) % 9) as f64 * 0.05).collect() };
        Box::new(Fdtd2dInstance {
            n,
            tmax,
            ex: init(0),
            ey: init(3),
            hz: init(5),
            ex0: init(0),
            ey0: init(3),
            hz0: init(5),
        })
    }
}

struct Fdtd2dInstance {
    n: usize,
    tmax: usize,
    ex: Vec<f64>,
    ey: Vec<f64>,
    hz: Vec<f64>,
    ex0: Vec<f64>,
    ey0: Vec<f64>,
    hz0: Vec<f64>,
}

impl KernelInstance for Fdtd2dInstance {
    fn run_serial(&mut self) {
        let n = self.n;
        let at = |i: usize, j: usize| i * n + j;
        for t in 0..self.tmax {
            for j in 0..n {
                self.ey[at(0, j)] = t as f64 * 0.01;
            }
            for i in 1..n {
                for j in 0..n {
                    self.ey[at(i, j)] -= 0.5 * (self.hz[at(i, j)] - self.hz[at(i - 1, j)]);
                }
            }
            for i in 0..n {
                for j in 1..n {
                    self.ex[at(i, j)] -= 0.5 * (self.hz[at(i, j)] - self.hz[at(i, j - 1)]);
                }
            }
            for i in 0..n - 1 {
                for j in 0..n - 1 {
                    self.hz[at(i, j)] -= 0.7
                        * (self.ex[at(i, j + 1)] - self.ex[at(i, j)] + self.ey[at(i + 1, j)]
                            - self.ey[at(i, j)]);
                }
            }
        }
    }

    fn run_inner(&mut self, pool: &ThreadPool, sched: Schedule) {
        let n = self.n;
        for t in 0..self.tmax {
            for j in 0..n {
                self.ey[j] = t as f64 * 0.01;
            }
            {
                let ey = SendPtr::new(self.ey.as_mut_ptr());
                let ey_len = self.ey.len();
                let hz = &self.hz;
                pool.parallel_for(n - 1, sched, |ii| {
                    let i = ii + 1;
                    for j in 0..n {
                        debug_assert!(i * n + j < ey_len, "ey index out of bounds");
                        unsafe {
                            *ey.get().add(i * n + j) -= 0.5 * (hz[i * n + j] - hz[(i - 1) * n + j]);
                        }
                    }
                });
            }
            {
                let ex = SendPtr::new(self.ex.as_mut_ptr());
                let ex_len = self.ex.len();
                let hz = &self.hz;
                pool.parallel_for(n, sched, |i| {
                    for j in 1..n {
                        debug_assert!(i * n + j < ex_len, "ex index out of bounds");
                        unsafe {
                            *ex.get().add(i * n + j) -= 0.5 * (hz[i * n + j] - hz[i * n + j - 1]);
                        }
                    }
                });
            }
            {
                let hz = SendPtr::new(self.hz.as_mut_ptr());
                let hz_len = self.hz.len();
                let ex = &self.ex;
                let ey = &self.ey;
                pool.parallel_for(n - 1, sched, |i| {
                    for j in 0..n - 1 {
                        debug_assert!(i * n + j < hz_len, "hz index out of bounds");
                        unsafe {
                            *hz.get().add(i * n + j) -= 0.7
                                * (ex[i * n + j + 1] - ex[i * n + j] + ey[(i + 1) * n + j]
                                    - ey[i * n + j]);
                        }
                    }
                });
            }
        }
    }

    fn inner_groups(&self) -> Vec<InnerGroup> {
        let row_cost = self.n as f64 * 5.0;
        (0..self.tmax * 3)
            .map(|_| InnerGroup {
                serial: 0.0,
                inner: vec![row_cost; self.n - 1],
            })
            .collect()
    }

    fn mem_bound_fraction(&self) -> f64 {
        0.6 // three streaming field sweeps
    }

    fn checksum_on(&self, pool: Option<&ThreadPool>) -> f64 {
        det_sum_on(pool, &self.ex) + det_sum_on(pool, &self.ey) + det_sum_on(pool, &self.hz)
    }

    fn reset_on(&mut self, pool: Option<&ThreadPool>) {
        restore(pool, &mut self.ex, &self.ex0);
        restore(pool, &mut self.ey, &self.ey0);
        restore(pool, &mut self.hz, &self.hz0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::close;

    #[test]
    fn parallel_matches_serial() {
        let pool = ThreadPool::new(3);
        let mut inst = Fdtd2d.prepare("test");
        inst.run_serial();
        let reference = inst.checksum();
        inst.reset();
        inst.run_inner(&pool, Schedule::static_default());
        assert!(close(inst.checksum(), reference));
    }
}
