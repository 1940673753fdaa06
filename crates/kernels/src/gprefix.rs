//! Guard-updated prefix recurrence: a segment kernel whose column-pointer
//! fill uses a *symbolic* step of statically unknown sign — the
//! conditionally-monotone recurrence of *Inductive Loop Analysis*
//! (arXiv 2511.06052).
//!
//! `off[i+1] = off[i] + gstep` is monotone only when `gstep >= 1`, a fact
//! no compile-time analysis can establish. The new algorithm records the
//! property *conditionally* (`PropertyKind::Guarded`) and the dependence
//! test conjoins the validity guard `1 <= gstep` into the parallel plan's
//! runtime check, so the segment loop dispatches parallel exactly when the
//! runtime bindings prove the premise.

use crate::common::{det_sum_on, restore, InnerGroup, Kernel, KernelInfo, KernelInstance};
use subsub_omprt::{Schedule, SendPtr, ThreadPool};
use subsub_rtcheck::{Bindings, IndexArrayView, MonotoneReq, Provenance, ValidatedIndexArray};

/// Runtime value of the symbolic step (positive: the guard holds).
pub const GSTEP: usize = 3;

/// Inline-expanded source: guarded prefix fill + segment scaling loop.
pub const SOURCE: &str = r#"
void gprefix(int n, int gstep, int *off, double *vals) {
    int i; int j;
    off[0] = 0;
    for (i = 0; i < n; i++) {
        off[i+1] = off[i] + gstep;
    }
    for (i = 0; i < n; i++) {
        for (j = off[i]; j < off[i+1]; j++) {
            vals[j] = vals[j] * 2.0;
        }
    }
}
"#;

/// The guarded-prefix benchmark.
pub struct GuardedPrefix;

fn segments_for(dataset: &str) -> usize {
    match dataset {
        "seg96k" => 98_304,
        "test" => 40,
        other => panic!("unknown GuardedPrefix dataset {other}"),
    }
}

impl Kernel for GuardedPrefix {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "GuardedPrefix",
            source: SOURCE,
            func_name: "gprefix",
            datasets: &["seg96k"],
        }
    }

    fn prepare(&self, dataset: &str) -> Box<dyn KernelInstance> {
        let n = segments_for(dataset);
        let vals0: Vec<f64> = (0..n * GSTEP)
            .map(|i| 1.0 + (i % 13) as f64 * 0.125)
            .collect();
        // The fill loop materialized with the positive runtime step; the
        // last boundary equals the element count, hence domain + 1.
        let off = ValidatedIndexArray::ingest(
            "off",
            (0..=n).map(|i| i * GSTEP).collect(),
            vals0.len() + 1,
            Provenance::Dataset {
                name: dataset.to_string(),
            },
        )
        .expect("prefix boundaries are bounded by |vals|");
        Box::new(GuardedPrefixInstance {
            vals: vals0.clone(),
            off,
            vals0,
        })
    }
}

struct GuardedPrefixInstance {
    /// Segment boundaries behind the ingestion trust boundary.
    off: ValidatedIndexArray,
    vals: Vec<f64>,
    vals0: Vec<f64>,
}

const COST_PER_ELEM: f64 = 2.0;
const COST_PER_SEGMENT: f64 = 10.0;

impl KernelInstance for GuardedPrefixInstance {
    fn run_serial(&mut self) {
        for i in 0..self.off.len() - 1 {
            for j in self.off.data()[i]..self.off.data()[i + 1] {
                self.vals[j] *= 2.0;
            }
        }
    }

    fn run_outer(&mut self, pool: &ThreadPool, sched: Schedule) {
        let vals = SendPtr::new(self.vals.as_mut_ptr());
        let v_len = self.vals.len();
        let this: &GuardedPrefixInstance = self;
        pool.parallel_for(this.off.len() - 1, sched, |i| {
            for j in this.off.data()[i]..this.off.data()[i + 1] {
                // SAFETY: ingestion validated the boundaries against the
                // value length, and with the guard `1 <= gstep` holding
                // the prefix sum is monotone, so segments are disjoint.
                debug_assert!(j < v_len, "segment element {j} out of vals[0, {v_len})");
                unsafe {
                    *vals.get().add(j) *= 2.0;
                }
            }
        });
    }

    fn run_inner(&mut self, pool: &ThreadPool, sched: Schedule) {
        let vals = SendPtr::new(self.vals.as_mut_ptr());
        let v_len = self.vals.len();
        for i in 0..self.off.len() - 1 {
            let lo = self.off.data()[i];
            let len = self.off.data()[i + 1].saturating_sub(lo);
            pool.parallel_for(len, sched, |k| {
                debug_assert!(lo + k < v_len, "segment element out of vals bounds");
                unsafe {
                    *vals.get().add(lo + k) *= 2.0;
                }
            });
        }
    }

    fn outer_costs(&self) -> Vec<f64> {
        (0..self.off.len() - 1)
            .map(|_| COST_PER_SEGMENT + COST_PER_ELEM * GSTEP as f64)
            .collect()
    }

    fn inner_groups(&self) -> Vec<InnerGroup> {
        (0..self.off.len() - 1)
            .map(|_| InnerGroup {
                serial: COST_PER_SEGMENT,
                inner: vec![COST_PER_ELEM; GSTEP],
            })
            .collect()
    }

    fn mem_bound_fraction(&self) -> f64 {
        0.6 // short-segment streaming scale
    }

    fn runtime_bindings(&self) -> Bindings {
        // The guard `1 <= gstep` must be decidable at dispatch time: the
        // harness binds the materialized step value.
        let mut b = Bindings::new();
        b.set_var("gstep", GSTEP as i64);
        b
    }

    fn index_arrays(&self) -> Vec<IndexArrayView<'_>> {
        // Segment disjointness needs only non-strict monotonicity.
        vec![self.off.view(MonotoneReq::NonStrict)]
    }

    fn checksum_on(&self, pool: Option<&ThreadPool>) -> f64 {
        det_sum_on(pool, &self.vals)
    }

    fn reset_on(&mut self, pool: Option<&ThreadPool>) {
        restore(pool, &mut self.vals, &self.vals0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::close;

    #[test]
    fn variants_agree() {
        let pool = ThreadPool::new(2);
        let mut inst = GuardedPrefix.prepare("test");
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
    fn bindings_satisfy_the_guard() {
        use subsub_symbolic::Symbol;
        let inst = GuardedPrefix.prepare("test");
        let b = inst.runtime_bindings();
        assert_eq!(b.get(&Symbol::var("gstep")), Some(GSTEP as i64));
    }
}
