//! Block-periodic histogram: keys restart a strictly increasing ramp at
//! every block of `B` elements — the block-monotone/periodic index-array
//! pattern of *Inductive Loop Analysis* (arXiv 2511.06052).
//!
//! Globally the key array is *not* monotone (the ramp restarts), so — as
//! with IS — no compile-time configuration parallelizes the flat loop and
//! the analysis verdict is serial at every level. The parallelism here is
//! *block-structured* and self-guarded at the kernel layer: within each
//! block the keys are strictly increasing (pairwise-distinct scatter
//! targets), which `BlockSummaries::block_verdict` proves in O(blocks)
//! from the maintained summaries. The block-parallel path runs blocks
//! serially and iterations within a block in parallel, and demotes itself
//! to the serial reference whenever the block-monotone verdict fails.

use crate::common::{
    det_sum_on, duplicate_first_entry, restore, InnerGroup, Kernel, KernelInfo, KernelInstance,
};
use subsub_omprt::{Schedule, SendPtr, ThreadPool};
use subsub_rtcheck::{
    inspect_block_monotone, IndexArrayView, Provenance, ValidatedIndexArray, BLOCK_LEN,
};

/// The block (period) length. Equal to the summary block length so the
/// block-monotone verdict recombines from summaries in O(blocks) rather
/// than rescanning O(n) elements.
pub const B: usize = BLOCK_LEN;

/// Flat histogram source — data-dependent subscripts, serial at every
/// analysis level (the block structure is a runtime property).
pub const SOURCE: &str = r#"
void bhist(int n, int *key, double *y, double *g) {
    int i;
    for (i = 0; i < n; i++) {
        y[key[i]] = y[key[i]] + g[i];
    }
}
"#;

/// The block-periodic histogram benchmark.
pub struct BlockHist;

fn blocks_for(dataset: &str) -> usize {
    match dataset {
        "blk64" => 64,
        "test" => 2,
        other => panic!("unknown BlockHist dataset {other}"),
    }
}

impl Kernel for BlockHist {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "BlockHist",
            source: SOURCE,
            func_name: "bhist",
            datasets: &["blk64"],
        }
    }

    fn prepare(&self, dataset: &str) -> Box<dyn KernelInstance> {
        let nblocks = blocks_for(dataset);
        let n = nblocks * B;
        let domain = 2 * B;
        // key[i] = 2*(i mod B) + parity(block): strictly increasing
        // within every block, restarting (hence globally non-monotone)
        // at each block boundary. Adjacent blocks interleave on odd/even
        // targets, so the serial cross-block order matters — exactly the
        // hazard the block-serial dispatch preserves.
        let keys: Vec<usize> = (0..n).map(|i| 2 * (i % B) + (i / B) % 2).collect();
        let key = ValidatedIndexArray::ingest(
            "key",
            keys,
            domain,
            Provenance::Dataset {
                name: dataset.to_string(),
            },
        )
        .expect("periodic keys are bounded by the bucket count");
        let y0: Vec<f64> = (0..domain).map(|i| (i % 3) as f64 * 0.25).collect();
        let g: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64 * 0.5).collect();
        Box::new(BlockHistInstance {
            y: y0.clone(),
            key,
            g,
            y0,
        })
    }
}

struct BlockHistInstance {
    /// Periodic keys behind the ingestion trust boundary.
    key: ValidatedIndexArray,
    g: Vec<f64>,
    y: Vec<f64>,
    y0: Vec<f64>,
}

const COST_PER_KEY: f64 = 4.0;

impl BlockHistInstance {
    /// The block-monotone license: strict-within-blocks, recombined from
    /// summaries when `B` aligns, ground-truth scanned otherwise.
    fn block_strict(&self) -> bool {
        match self.key.summaries().block_verdict(B) {
            Some(v) => v.strict,
            None => inspect_block_monotone(self.key.data(), B).strict,
        }
    }
}

impl KernelInstance for BlockHistInstance {
    fn run_serial(&mut self) {
        for i in 0..self.key.len() {
            let t = self.key.data()[i];
            self.y[t] += self.g[i];
        }
    }

    fn run_outer(&mut self, pool: &ThreadPool, sched: Schedule) {
        // Self-guarded block-parallel dispatch: blocks run serially (two
        // blocks may share targets), iterations within a block run in
        // parallel (within-block strictness makes targets distinct).
        if !self.block_strict() {
            self.run_serial();
            return;
        }
        let y = SendPtr::new(self.y.as_mut_ptr());
        let y_len = self.y.len();
        let this: &BlockHistInstance = self;
        for (k, block) in this.key.data().chunks(B).enumerate() {
            let base = k * B;
            pool.parallel_for(block.len(), sched, |i| {
                let t = block[i];
                // SAFETY: ingestion validated t < y.len(), and the
                // block-monotone verdict proved within-block strictness,
                // so iterations of this block write distinct elements.
                debug_assert!(t < y_len, "key[{base} + {i}] = {t} out of y[0, {y_len})");
                unsafe {
                    *y.get().add(t) += this.g[base + i];
                }
            });
        }
    }

    fn run_inner(&mut self, pool: &ThreadPool, sched: Schedule) {
        // The block-parallel strategy *is* the inner strategy (serial
        // over blocks, parallel within).
        self.run_outer(pool, sched);
    }

    fn outer_costs(&self) -> Vec<f64> {
        self.key
            .data()
            .chunks(B)
            .map(|b| COST_PER_KEY * b.len() as f64)
            .collect()
    }

    fn inner_groups(&self) -> Vec<InnerGroup> {
        self.key
            .data()
            .chunks(B)
            .map(|b| InnerGroup {
                serial: 0.0,
                inner: vec![COST_PER_KEY; b.len()],
            })
            .collect()
    }

    fn mem_bound_fraction(&self) -> f64 {
        0.85 // scattered read-modify-write over a small bucket set
    }

    fn index_arrays(&self) -> Vec<IndexArrayView<'_>> {
        // Deliberately empty: the whole-array monotone requirement the
        // guard would impose is false by construction (the ramp
        // restarts). The block-monotone license is checked by the
        // kernel's own dispatch above.
        Vec::new()
    }

    fn tamper_index_arrays(&mut self) -> bool {
        // A duplicate *within* the first block: within-block strictness
        // breaks, so the block-parallel path must demote itself to serial.
        duplicate_first_entry(&mut self.key)
    }

    fn checksum_on(&self, pool: Option<&ThreadPool>) -> f64 {
        det_sum_on(pool, &self.y)
    }

    fn reset_on(&mut self, pool: Option<&ThreadPool>) {
        restore(pool, &mut self.y, &self.y0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::close;

    #[test]
    fn variants_agree() {
        let pool = ThreadPool::new(3);
        let mut inst = BlockHist.prepare("test");
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
    fn keys_are_block_monotone_but_not_globally() {
        let inst = BlockHist.prepare("test");
        // Reconstruct the periodic keys the instance ingested.
        let n = 2 * B;
        let keys: Vec<usize> = (0..n).map(|i| 2 * (i % B) + (i / B) % 2).collect();
        assert!(inspect_block_monotone(&keys, B).strict);
        assert!(!subsub_rtcheck::inspect_serial(&keys).nonstrict);
        let _ = inst;
    }

    #[test]
    fn tampered_keys_demote_to_the_serial_path() {
        let pool = ThreadPool::new(2);
        // Golden: serial on the tampered instance.
        let mut golden = BlockHist.prepare("test");
        assert!(golden.tamper_index_arrays());
        golden.run_serial();
        let reference = golden.checksum();
        // The block-parallel path must detect the broken license and
        // produce the identical (serial) result.
        let mut inst = BlockHist.prepare("test");
        assert!(inst.tamper_index_arrays());
        inst.run_outer(&pool, Schedule::static_default());
        assert_eq!(inst.checksum(), reference, "demotion must be bit-identical");
    }
}
