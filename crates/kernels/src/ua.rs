//! UA `transf` kernel (NAS Parallel Benchmarks 3.3, Unstructured
//! Adaptive): per-element gather/scatter between the mortar-point vector
//! and element-local storage, addressed through the four-dimensional
//! `idel` subscript array (paper Figure 12, Section 3.3).
//!
//! `idel` is range-monotonic w.r.t. its first dimension (LEMMA 2): element
//! `iel`'s entries all fall in `[125·iel : 125·iel + 124]`, so slices of
//! distinct elements are disjoint and the new algorithm parallelizes the
//! outer element loop. Classical analysis only parallelizes the tiny 5-wide
//! gather loops inside each element — the fork-join-dominated strategy of
//! Figure 13.

use crate::common::{det_sum_on, restore, InnerGroup, Kernel, KernelInfo, KernelInstance};
use subsub_omprt::{Schedule, SendPtr, ThreadPool};

/// Faces per element (the six `idel` facets).
pub const FACES: usize = 6;
/// Points per face edge.
pub const Q: usize = 5;
/// Mortar points per element (`125·iel` stride).
pub const PTS: usize = 125;

/// Inline-expanded source: the idel fill nest plus a gather/scatter use
/// nest (tmp is indexed by the element to keep the source in the
/// analyzable subset; Cetus would privatize a per-element temporary).
pub const SOURCE: &str = r#"
void transf(int LELT, int idel[4096][6][5][5], double *tx, double *tmort,
            double tmp[4096][5][5], double *w) {
    int iel; int j; int i; int f; int ntemp; int il1; int il2;
    for (iel = 0; iel < LELT; iel++) {
        ntemp = 125 * iel;
        for (j = 0; j < 5; j++) {
            for (i = 0; i < 5; i++) {
                idel[iel][0][j][i] = ntemp + i*5 + j*25 + 4;
                idel[iel][1][j][i] = ntemp + i*5 + j*25;
                idel[iel][2][j][i] = ntemp + i + j*25 + 20;
                idel[iel][3][j][i] = ntemp + i + j*25;
                idel[iel][4][j][i] = ntemp + i + j*5 + 100;
                idel[iel][5][j][i] = ntemp + i + j*5;
            }
        }
    }
    for (iel = 0; iel < LELT; iel++) {
        for (j = 0; j < 5; j++) {
            for (i = 0; i < 5; i++) {
                il1 = idel[iel][1][j][i];
                tmp[iel][j][i] = tmort[il1] * w[i];
            }
        }
        for (f = 0; f < 6; f++) {
            for (j = 0; j < 5; j++) {
                for (i = 0; i < 5; i++) {
                    il2 = idel[iel][f][j][i];
                    tx[il2] = tx[il2] + tmp[iel][j][i] * w[j];
                }
            }
        }
    }
}
"#;

/// The UA(transf) benchmark.
pub struct UaTransf;

fn elements_for(dataset: &str) -> usize {
    match dataset {
        "CLASS A" => 4_000,
        "CLASS B" => 16_000,
        "CLASS C" => 48_000,
        "CLASS D" => 160_000,
        "test" => 12,
        other => panic!("unknown UA dataset {other}"),
    }
}

impl Kernel for UaTransf {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "UA(transf)",
            source: SOURCE,
            func_name: "transf",
            datasets: &["CLASS A", "CLASS B", "CLASS C", "CLASS D"],
        }
    }

    fn prepare(&self, dataset: &str) -> Box<dyn KernelInstance> {
        Box::new(UaInstance::new(elements_for(dataset)))
    }
}

struct UaInstance {
    lelt: usize,
    idel: Vec<usize>,
    tx: Vec<f64>,
    tx0: Vec<f64>,
    tmort: Vec<f64>,
    /// Scratch, not state: every variant's gather stage writes all 25
    /// entries of element `iel` before its scatter stage reads them, and
    /// the digest leaves it out — so `reset_on` does too.
    tmp: Vec<f64>,
    w: [f64; Q],
}

impl UaInstance {
    fn new(lelt: usize) -> UaInstance {
        // idel fill mirrors the Figure-12 loop.
        let mut idel = vec![0usize; lelt * FACES * Q * Q];
        for iel in 0..lelt {
            let ntemp = PTS * iel;
            for j in 0..Q {
                for i in 0..Q {
                    let at = |f: usize| ((iel * FACES + f) * Q + j) * Q + i;
                    idel[at(0)] = ntemp + i * 5 + j * 25 + 4;
                    idel[at(1)] = ntemp + i * 5 + j * 25;
                    idel[at(2)] = ntemp + i + j * 25 + 20;
                    idel[at(3)] = ntemp + i + j * 25;
                    idel[at(4)] = ntemp + i + j * 5 + 100;
                    idel[at(5)] = ntemp + i + j * 5;
                }
            }
        }
        let tx0: Vec<f64> = (0..lelt * PTS).map(|i| (i % 7) as f64 * 0.1).collect();
        let tmort: Vec<f64> = (0..lelt * PTS)
            .map(|i| 1.0 + (i % 5) as f64 * 0.2)
            .collect();
        let w = [0.2, 0.4, 0.6, 0.4, 0.2];
        UaInstance {
            lelt,
            idel,
            tx: tx0.clone(),
            tx0,
            tmort,
            tmp: vec![0.0; lelt * Q * Q],
            w,
        }
    }

    #[inline]
    fn element(&self, iel: usize, tx: *mut f64, tmp: *mut f64) {
        // Gather stage.
        for j in 0..Q {
            for i in 0..Q {
                let il1 = self.idel[((iel * FACES + 1) * Q + j) * Q + i];
                let t = (iel * Q + j) * Q + i;
                // SAFETY: tmp slices are indexed by iel — disjoint.
                debug_assert!(t < self.tmp.len(), "tmp index {t} out of bounds");
                unsafe {
                    *tmp.add(t) = self.tmort[il1] * self.w[i];
                }
            }
        }
        // Scatter stage over all six faces.
        for f in 0..FACES {
            for j in 0..Q {
                for i in 0..Q {
                    let il2 = self.idel[((iel * FACES + f) * Q + j) * Q + i];
                    let ti = (iel * Q + j) * Q + i;
                    // SAFETY: idel is range-monotonic w.r.t. dimension 0
                    // (LEMMA 2): all il2 for this iel lie in
                    // [125·iel, 125·iel+124], disjoint across elements.
                    debug_assert!(
                        il2 < self.tx.len() && ti < self.tmp.len(),
                        "idel scatter target {il2} out of tx[0, {})",
                        self.tx.len()
                    );
                    unsafe {
                        let t = *tmp.add(ti);
                        *tx.add(il2) += t * self.w[j];
                    }
                }
            }
        }
    }
}

const COST_GATHER_PER_J: f64 = 5.0 * 4.0; // Q muls+adds per j row
const COST_SCATTER_PER_ELEM: f64 = (FACES * Q * Q) as f64 * 4.0;

impl KernelInstance for UaInstance {
    fn run_serial(&mut self) {
        let tx = self.tx.as_mut_ptr();
        let tmp = self.tmp.as_mut_ptr();
        for iel in 0..self.lelt {
            self.element(iel, tx, tmp);
        }
    }

    fn run_outer(&mut self, pool: &ThreadPool, sched: Schedule) {
        let tx = SendPtr::new(self.tx.as_mut_ptr());
        let tmp = SendPtr::new(self.tmp.as_mut_ptr());
        let this: &UaInstance = self;
        pool.parallel_for(this.lelt, sched, |iel| {
            this.element(iel, tx.get(), tmp.get());
        });
    }

    fn run_inner(&mut self, pool: &ThreadPool, sched: Schedule) {
        // Classical strategy: only the 5-iteration gather loops fork; the
        // scatter stays serial.
        let tmp = SendPtr::new(self.tmp.as_mut_ptr());
        for iel in 0..self.lelt {
            let this: &UaInstance = self;
            pool.parallel_for(Q, sched, |j| {
                for i in 0..Q {
                    let il1 = this.idel[((iel * FACES + 1) * Q + j) * Q + i];
                    let t = (iel * Q + j) * Q + i;
                    debug_assert!(t < this.tmp.len(), "tmp index {t} out of bounds");
                    unsafe {
                        *tmp.get().add(t) = this.tmort[il1] * this.w[i];
                    }
                }
            });
            for f in 0..FACES {
                for j in 0..Q {
                    for i in 0..Q {
                        let il2 = self.idel[((iel * FACES + f) * Q + j) * Q + i];
                        self.tx[il2] += self.tmp[(iel * Q + j) * Q + i] * self.w[j];
                    }
                }
            }
        }
    }

    fn outer_costs(&self) -> Vec<f64> {
        (0..self.lelt)
            .map(|_| Q as f64 * COST_GATHER_PER_J + COST_SCATTER_PER_ELEM)
            .collect()
    }

    fn inner_groups(&self) -> Vec<InnerGroup> {
        (0..self.lelt)
            .map(|_| InnerGroup {
                serial: COST_SCATTER_PER_ELEM,
                inner: vec![COST_GATHER_PER_J; Q],
            })
            .collect()
    }

    fn mem_bound_fraction(&self) -> f64 {
        0.25 // gather/scatter with per-point arithmetic
    }

    fn checksum_on(&self, pool: Option<&ThreadPool>) -> f64 {
        det_sum_on(pool, &self.tx)
    }

    fn reset_on(&mut self, pool: Option<&ThreadPool>) {
        restore(pool, &mut self.tx, &self.tx0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::close;

    #[test]
    fn idel_slices_are_disjoint_per_element() {
        let inst = UaTransf.prepare("test");
        // Verify through the checksum invariants: run twice must differ
        // deterministically (accumulation), but the construction invariant
        // is directly checkable on idel.
        drop(inst);
        let lelt = 4;
        let k = UaTransf.prepare("test");
        drop(k);
        // Direct check of the fill formula bounds.
        for iel in 0..lelt {
            let ntemp = PTS * iel;
            for j in 0..Q {
                for i in 0..Q {
                    for v in [
                        ntemp + i * 5 + j * 25 + 4,
                        ntemp + i * 5 + j * 25,
                        ntemp + i + j * 25 + 20,
                        ntemp + i + j * 25,
                        ntemp + i + j * 5 + 100,
                        ntemp + i + j * 5,
                    ] {
                        assert!(v >= PTS * iel && v < PTS * (iel + 1));
                    }
                }
            }
        }
    }

    #[test]
    fn variants_agree() {
        let pool = ThreadPool::new(3);
        let mut inst = UaTransf.prepare("test");
        inst.run_serial();
        let reference = inst.checksum();

        inst.reset();
        inst.run_outer(&pool, Schedule::static_default());
        assert!(close(inst.checksum(), reference));

        inst.reset();
        inst.run_inner(&pool, Schedule::static_default());
        assert!(close(inst.checksum(), reference));
    }

    #[test]
    fn tmp_is_written_before_it_is_read() {
        use crate::common::Variant;
        let pool = ThreadPool::new(3);
        let mut inst = UaInstance::new(elements_for("test"));
        inst.run_serial();
        let golden = inst.checksum();
        for variant in [
            Variant::Serial,
            Variant::OuterParallel,
            Variant::InnerParallel,
        ] {
            inst.reset();
            inst.tmp.fill(f64::NAN);
            inst.run(variant, &pool, Schedule::static_default());
            assert_eq!(inst.checksum().to_bits(), golden.to_bits(), "{variant}");
        }
    }

    #[test]
    fn inner_strategy_forks_tiny_loops() {
        let inst = UaTransf.prepare("test");
        let groups = inst.inner_groups();
        assert!(groups.iter().all(|g| g.inner.len() == Q));
        assert!(groups.iter().all(|g| g.serial > 0.0));
    }
}
