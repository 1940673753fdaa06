//! SDDMM (Nisa et al.): sampled dense–dense matrix multiplication over the
//! nonzeros of a sparse matrix in CSC layout (paper Figures 10 and 11,
//! Section 3.2).
//!
//! The `col_ptr` array is filled intermittently (LEMMA 1); non-strict
//! monotonicity makes per-column nonzero segments disjoint, so the new
//! algorithm parallelizes the outer column loop. Column work follows the
//! nonzero distribution — the dataset with skewed columns is also the
//! subject of the paper's dynamic-vs-static scheduling study (Figure 16).

use crate::common::{det_sum_on, zero, InnerGroup, Kernel, KernelInfo, KernelInstance};
use subsub_omprt::{Schedule, SendPtr, ThreadPool};
use subsub_rtcheck::{Bindings, IndexArrayView, MonotoneReq, Provenance, ValidatedIndexArray};
use subsub_sparse::{Csc, MatrixSpec};

/// Inline-expanded SDDMM source (CSC build loop + compute loop).
pub const SOURCE: &str = r#"
void sddmm(int n_cols, int nonzeros, int k, int *col_val, int *col_ptr,
           int *row_ind, double *W, double *H, double *nnz_val, double *p) {
    int i; int holder; int r; int ind; int t; double sm;
    holder = 1; col_ptr[0] = 0; r = col_val[0];
    for (i = 0; i < nonzeros; i++) {
        if (col_val[i] != r) {
            col_ptr[holder++] = i;
            r = col_val[i];
        }
    }
    for (r = 0; r < n_cols; r++) {
        for (ind = col_ptr[r]; ind < col_ptr[r+1]; ind++) {
            sm = 0.0;
            for (t = 0; t < k; t++) {
                sm += W[r*k + t] * H[row_ind[ind]*k + t];
            }
            p[ind] = sm * nnz_val[ind];
        }
    }
}
"#;

/// Dense-factor rank (the paper uses machine-learning factor matrices).
pub const RANK: usize = 16;

/// The SDDMM benchmark.
pub struct Sddmm;

/// Matrix recipes standing in for the four SuiteSparse inputs. The key
/// preserved characteristic is the column-degree distribution: `af_shell1`
/// is balanced (static scheduling competitive), the others are skewed.
pub fn spec_for(dataset: &str) -> MatrixSpec {
    match dataset {
        "gsm_106857" => MatrixSpec::PowerLaw {
            n: 3200,
            avg_deg: 24,
            alpha: 1.2,
            seed: 11,
        },
        "dielFilterV2clx" => MatrixSpec::PowerLaw {
            n: 3600,
            avg_deg: 20,
            alpha: 0.9,
            seed: 12,
        },
        "af_shell1" => MatrixSpec::Banded {
            n: 4000,
            half_bw: 11,
        },
        "inline_1" => MatrixSpec::PowerLaw {
            n: 3400,
            avg_deg: 22,
            alpha: 1.0,
            seed: 13,
        },
        "test" => MatrixSpec::PowerLaw {
            n: 60,
            avg_deg: 4,
            alpha: 1.0,
            seed: 1,
        },
        other => panic!("unknown SDDMM dataset {other}"),
    }
}

impl Kernel for Sddmm {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "SDDMM",
            source: SOURCE,
            func_name: "sddmm",
            datasets: &["dielFilterV2clx", "gsm_106857", "af_shell1", "inline_1"],
        }
    }

    fn prepare(&self, dataset: &str) -> Box<dyn KernelInstance> {
        let a = spec_for(dataset).build();
        let m = Csc::from_csr(&a);
        let n = m.cols;
        let w: Vec<f64> = (0..n * RANK)
            .map(|i| ((i % 13) as f64 - 6.0) * 0.1)
            .collect();
        let h: Vec<f64> = (0..m.rows * RANK)
            .map(|i| ((i % 11) as f64 - 5.0) * 0.1)
            .collect();
        let p = vec![0.0; m.nnz()];
        // Ingestion trust boundary: every column boundary must stay within
        // [0, nnz] — segment iteration `col_ptr[r]..col_ptr[r+1]` then
        // never produces a nonzero index past the p/values arrays.
        let col_ptr = ValidatedIndexArray::ingest(
            "col_ptr",
            m.col_ptr.clone(),
            m.nnz() + 1,
            Provenance::Dataset {
                name: dataset.to_string(),
            },
        )
        .expect("CSC column boundaries are bounded by nnz");
        Box::new(SddmmInstance {
            m,
            col_ptr,
            w,
            h,
            p,
        })
    }
}

struct SddmmInstance {
    m: Csc,
    /// The column-boundary subscript array behind the ingestion trust
    /// boundary (validated against nnz+1); all loops read this copy, not
    /// `m.col_ptr`, so dispatch only ever sees validated boundaries.
    col_ptr: ValidatedIndexArray,
    w: Vec<f64>,
    h: Vec<f64>,
    p: Vec<f64>,
}

impl SddmmInstance {
    #[inline]
    fn column(&self, r: usize, p: *mut f64) {
        for ind in self.col_ptr.data()[r]..self.col_ptr.data()[r + 1] {
            let row = self.m.row_ind[ind];
            let mut sm = 0.0;
            for t in 0..RANK {
                sm += self.w[r * RANK + t] * self.h[row * RANK + t];
            }
            // SAFETY (in parallel contexts): ingestion validated the
            // boundaries against nnz (so ind < nnz), and col_ptr is
            // monotone, so the segments [col_ptr[r], col_ptr[r+1]) of
            // distinct columns are disjoint — the property the analysis
            // proves.
            debug_assert!(ind < self.m.values.len(), "nnz index {ind} out of bounds");
            unsafe {
                *p.add(ind) = sm * self.m.values[ind];
            }
        }
    }
}

const COST_PER_NNZ: f64 = 4.0 * RANK as f64;
const COST_PER_COL: f64 = 30.0;

impl KernelInstance for SddmmInstance {
    fn run_serial(&mut self) {
        let p = self.p.as_mut_ptr();
        for r in 0..self.m.cols {
            self.column(r, p);
        }
    }

    fn run_outer(&mut self, pool: &ThreadPool, sched: Schedule) {
        let p = SendPtr::new(self.p.as_mut_ptr());
        let this: &SddmmInstance = self;
        pool.parallel_for(this.m.cols, sched, |r| {
            this.column(r, p.get());
        });
    }

    fn run_inner(&mut self, pool: &ThreadPool, sched: Schedule) {
        // Classical strategy: serial column loop, fork over each column's
        // nonzero segment.
        let p = SendPtr::new(self.p.as_mut_ptr());
        for r in 0..self.m.cols {
            let lo = self.col_ptr.data()[r];
            let hi = self.col_ptr.data()[r + 1];
            let len = hi.saturating_sub(lo);
            let this: &SddmmInstance = self;
            pool.parallel_for(len, sched, |i| {
                let ind = lo + i;
                let row = this.m.row_ind[ind];
                let mut sm = 0.0;
                for t in 0..RANK {
                    sm += this.w[r * RANK + t] * this.h[row * RANK + t];
                }
                debug_assert!(ind < this.m.values.len(), "nnz index {ind} out of bounds");
                unsafe {
                    *p.get().add(ind) = sm * this.m.values[ind];
                }
            });
        }
    }

    fn outer_costs(&self) -> Vec<f64> {
        (0..self.m.cols)
            .map(|c| COST_PER_COL + COST_PER_NNZ * self.m.col_nnz(c) as f64)
            .collect()
    }

    fn inner_groups(&self) -> Vec<InnerGroup> {
        (0..self.m.cols)
            .map(|c| InnerGroup {
                serial: COST_PER_COL,
                inner: vec![COST_PER_NNZ; self.m.col_nnz(c)],
            })
            .collect()
    }

    fn mem_bound_fraction(&self) -> f64 {
        0.25 // rank-16 dot products add compute per nonzero
    }

    fn runtime_bindings(&self) -> Bindings {
        // The CSC build loop leaves holder == n_cols (every column
        // boundary written), which is what admits the outer loop.
        let mut b = Bindings::new();
        b.set_var("n_cols", self.m.cols as i64)
            .set_post_max("holder", self.m.cols as i64);
        b
    }

    fn index_arrays(&self) -> Vec<IndexArrayView<'_>> {
        // Segments [col_ptr[r], col_ptr[r+1]) need only be disjoint:
        // non-strict monotonicity (empty columns allowed).
        vec![self.col_ptr.view(MonotoneReq::NonStrict)]
    }

    fn tamper_index_arrays(&mut self) -> bool {
        // Swap the first unequal adjacent boundary pair: the larger value
        // now precedes the smaller, breaking (non-strict) monotonicity
        // while keeping every entry bounded by nnz — all segment accesses
        // stay in bounds and the serial variant stays deterministic
        // (the inverted segment is just an empty Rust range).
        // `mutate_range` keeps the array validated and bumps the
        // version, snapshotting only the two touched entries.
        let ptr = self.col_ptr.data();
        let Some(r) = (1..ptr.len()).find(|&r| ptr[r] > ptr[r - 1]) else {
            return false;
        };
        self.col_ptr
            .mutate_range(r - 1..r + 1, |w| w.swap(0, 1))
            .expect("swapping in-domain entries stays in domain");
        true
    }

    fn checksum_on(&self, pool: Option<&ThreadPool>) -> f64 {
        det_sum_on(pool, &self.p)
    }

    fn reset_on(&mut self, pool: Option<&ThreadPool>) {
        zero(pool, &mut self.p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::close;
    use subsub_sparse::DegreeStats;

    #[test]
    fn variants_agree() {
        let pool = ThreadPool::new(4);
        let mut inst = Sddmm.prepare("test");
        inst.run_serial();
        let reference = inst.checksum();
        assert!(reference.is_finite());

        inst.reset();
        inst.run_outer(&pool, Schedule::dynamic_default());
        assert!(close(inst.checksum(), reference));

        inst.reset();
        inst.run_inner(&pool, Schedule::static_default());
        assert!(close(inst.checksum(), reference));
    }

    #[test]
    fn af_shell_is_balanced_others_skewed() {
        let bal = Csc::from_csr(&spec_for("af_shell1").build());
        let skew = Csc::from_csr(&spec_for("gsm_106857").build());
        assert!(DegreeStats::of_cols(&bal).imbalance() < 1.2);
        assert!(DegreeStats::of_cols(&skew).imbalance() > 2.0);
    }

    #[test]
    fn cost_models_consistent() {
        let inst = Sddmm.prepare("test");
        let outer: f64 = inst.outer_costs().iter().sum();
        let inner = crate::common::serial_cost(&inst.inner_groups());
        assert!((outer - inner).abs() < 1e-9);
    }
}
