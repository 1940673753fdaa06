//! MG (NAS Parallel Benchmarks / SPEC OMP2012): multigrid V-cycle on a 3-D
//! grid — smoothing, restriction and prolongation sweeps. All subscripts
//! are affine; classical parallelization handles the spatial loops
//! (Figure 17 credits plain Cetus).

use crate::common::{det_sum_on, zero, InnerGroup, Kernel, KernelInfo, KernelInstance};
use subsub_omprt::{Schedule, SendPtr, ThreadPool};

/// MG smoother source (representative sweep; the full V-cycle repeats it
/// at each level).
pub const SOURCE: &str = r#"
void mg_relax(int cycles, int n, double u[260][260][260],
              double v[260][260][260], double r[260][260][260]) {
    int it; int i; int j; int k;
    for (it = 0; it < cycles; it++) {
        for (i = 1; i < n - 1; i++) {
            for (j = 1; j < n - 1; j++) {
                for (k = 1; k < n - 1; k++) {
                    u[i][j][k] = v[i][j][k] + 0.166 * (r[i-1][j][k] + r[i+1][j][k]
                               + r[i][j-1][k] + r[i][j+1][k] + r[i][j][k-1] + r[i][j][k+1]);
                }
            }
        }
    }
}
"#;

/// The MG benchmark.
pub struct Mg;

fn size_for(dataset: &str) -> (usize, usize) {
    // (finest n, v-cycles)
    match dataset {
        "CLASS A" => (64, 4),
        "CLASS B" => (96, 4),
        "test" => (12, 2),
        other => panic!("unknown MG dataset {other}"),
    }
}

impl Kernel for Mg {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "MG",
            source: SOURCE,
            func_name: "mg_relax",
            datasets: &["CLASS B", "CLASS A"],
        }
    }

    fn prepare(&self, dataset: &str) -> Box<dyn KernelInstance> {
        let (n, cycles) = size_for(dataset);
        // Levels: n, n/2, n/4 (≥ 8).
        let mut levels = Vec::new();
        let mut s = n;
        while s >= 8 {
            levels.push(s);
            s /= 2;
        }
        let grids: Vec<Grid> = levels.iter().map(|&s| Grid::new(s)).collect();
        Box::new(MgInstance { cycles, grids })
    }
}

struct Grid {
    n: usize,
    u: Vec<f64>,
    v: Vec<f64>,
    r: Vec<f64>,
}

impl Grid {
    fn new(n: usize) -> Grid {
        let size = n * n * n;
        Grid {
            n,
            u: vec![0.0; size],
            v: (0..size).map(|i| (i % 11) as f64 * 0.1).collect(),
            r: (0..size).map(|i| ((i + 3) % 7) as f64 * 0.1).collect(),
        }
    }

    #[inline]
    fn relax_plane(&self, i: usize, u: *mut f64) {
        let n = self.n;
        let at = |x: usize, y: usize, z: usize| (x * n + y) * n + z;
        for j in 1..n - 1 {
            for k in 1..n - 1 {
                let val = self.v[at(i, j, k)]
                    + 0.166
                        * (self.r[at(i - 1, j, k)]
                            + self.r[at(i + 1, j, k)]
                            + self.r[at(i, j - 1, k)]
                            + self.r[at(i, j + 1, k)]
                            + self.r[at(i, j, k - 1)]
                            + self.r[at(i, j, k + 1)]);
                // SAFETY: plane i written only by iteration i.
                unsafe {
                    *u.add(at(i, j, k)) = val;
                }
            }
        }
    }
}

struct MgInstance {
    cycles: usize,
    grids: Vec<Grid>,
}

impl KernelInstance for MgInstance {
    fn run_serial(&mut self) {
        for _ in 0..self.cycles {
            for g in &mut self.grids {
                let u = g.u.as_mut_ptr();
                for i in 1..g.n - 1 {
                    g.relax_plane(i, u);
                }
            }
        }
    }

    fn run_inner(&mut self, pool: &ThreadPool, sched: Schedule) {
        for _ in 0..self.cycles {
            for g in &mut self.grids {
                let u = SendPtr::new(g.u.as_mut_ptr());
                let gg: &Grid = g;
                pool.parallel_for(gg.n - 2, sched, |ii| {
                    gg.relax_plane(ii + 1, u.get());
                });
            }
        }
    }

    fn inner_groups(&self) -> Vec<InnerGroup> {
        let mut out = Vec::new();
        for _ in 0..self.cycles {
            for g in &self.grids {
                let plane = ((g.n - 2) * (g.n - 2)) as f64 * 9.0;
                out.push(InnerGroup {
                    serial: 0.0,
                    inner: vec![plane; g.n - 2],
                });
            }
        }
        out
    }

    fn mem_bound_fraction(&self) -> f64 {
        0.5 // stencil sweeps across levels
    }

    fn checksum_on(&self, pool: Option<&ThreadPool>) -> f64 {
        self.grids
            .iter()
            .fold(0.0, |sum, g| sum + det_sum_on(pool, &g.u))
    }

    fn reset_on(&mut self, pool: Option<&ThreadPool>) {
        for g in &mut self.grids {
            zero(pool, &mut g.u);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::close;

    #[test]
    fn parallel_matches_serial() {
        let pool = ThreadPool::new(4);
        let mut inst = Mg.prepare("test");
        inst.run_serial();
        let reference = inst.checksum();
        inst.reset();
        inst.run_inner(&pool, Schedule::static_default());
        assert!(close(inst.checksum(), reference));
    }

    #[test]
    fn has_multiple_levels() {
        let inst = Mg.prepare("test");
        assert!(inst.inner_groups().len() >= 2);
    }
}
