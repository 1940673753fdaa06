//! Common kernel abstractions shared by the benchmark harnesses, and the
//! epilogue every kernel shares: the result digest ([`det_sum`]) and the
//! restore ([`restore`] / [`zero`]), each in one fixed shape that runs
//! inline or on the pool with the same bits.

use std::sync::Mutex;
use subsub_omprt::{RegionError, Schedule, ThreadPool};
use subsub_rtcheck::{Bindings, IndexArrayView, ValidatedIndexArray};

/// Which implementation strategy a parallelizer's decision selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// No parallel loop found: run the serial implementation.
    Serial,
    /// Parallelism only at inner-loop level (classical decision on the
    /// subscripted-subscript benchmarks): fork a team per outer iteration.
    InnerParallel,
    /// The outermost loop is parallel (the paper's analysis, or classical
    /// analysis on regular benchmarks).
    OuterParallel,
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Variant::Serial => write!(f, "serial"),
            Variant::InnerParallel => write!(f, "inner-parallel"),
            Variant::OuterParallel => write!(f, "outer-parallel"),
        }
    }
}

/// The inner-parallel work structure of one outer iteration: a serial
/// prologue cost plus the per-iteration costs of the inner parallel loop.
#[derive(Debug, Clone)]
pub struct InnerGroup {
    /// Work outside the inner parallel loop (always serial).
    pub serial: f64,
    /// Per-iteration costs of the inner loop.
    pub inner: Vec<f64>,
}

/// A benchmark's metadata, stated once per kernel file.
#[derive(Debug, Clone, Copy)]
pub struct KernelInfo {
    /// Benchmark name as in the paper's Table 1.
    pub name: &'static str,
    /// The inline-expanded C-subset source the analysis pipeline consumes.
    pub source: &'static str,
    /// The function within `source` to analyze.
    pub func_name: &'static str,
    /// Available dataset names (first is the Experiment-2 default).
    pub datasets: &'static [&'static str],
}

/// A benchmark: metadata plus an instance factory.
pub trait Kernel: Sync {
    /// The benchmark's metadata.
    fn info(&self) -> KernelInfo;

    /// [`KernelInfo::name`].
    fn name(&self) -> &'static str {
        self.info().name
    }

    /// [`KernelInfo::source`].
    fn source(&self) -> &'static str {
        self.info().source
    }

    /// [`KernelInfo::func_name`].
    fn func_name(&self) -> &'static str {
        self.info().func_name
    }

    /// [`KernelInfo::datasets`].
    fn datasets(&self) -> Vec<&'static str> {
        self.info().datasets.to_vec()
    }

    /// Builds a concrete problem instance for a dataset. Panics on an
    /// unknown dataset name.
    fn prepare(&self, dataset: &str) -> Box<dyn KernelInstance>;
}

/// One materialized problem instance.
pub trait KernelInstance: Send {
    /// Runs the serial reference implementation.
    fn run_serial(&mut self);

    /// Runs the outer-parallel implementation. Kernels without outer
    /// parallelism leave this to the inner strategy.
    fn run_outer(&mut self, pool: &ThreadPool, sched: Schedule) {
        self.run_inner(pool, sched);
    }

    /// Runs the inner-parallel implementation. Kernels without an inner
    /// strategy leave this to the serial one.
    fn run_inner(&mut self, _pool: &ThreadPool, _sched: Schedule) {
        self.run_serial();
    }

    /// Work model for the outer-parallel strategy: one abstract cost per
    /// outer-loop iteration (units are calibrated by the harness against a
    /// serial run). Kernels without an outer strategy leave this to the
    /// inner one: an entry per inner iteration.
    fn outer_costs(&self) -> Vec<f64> {
        self.inner_groups()
            .into_iter()
            .flat_map(|g| g.inner)
            .collect()
    }

    /// Work model for the inner-parallel strategy.
    fn inner_groups(&self) -> Vec<InnerGroup>;

    /// Fraction of the kernel's work bound by shared memory bandwidth
    /// (feeds the simulator's roofline; 0.0 = compute-bound). Defaults to
    /// a middle-of-the-road 0.5.
    fn mem_bound_fraction(&self) -> f64 {
        0.5
    }

    /// Scalar values for the symbols of the kernel's runtime check
    /// (loop bounds, post-loop counter values). Kernels whose decision
    /// carries no check return an empty environment.
    fn runtime_bindings(&self) -> Bindings {
        Bindings::new()
    }

    /// The runtime index arrays whose monotonicity the outer-parallel
    /// variant relies on, for inspection by a guarded executor. Empty for
    /// kernels without subscripted subscripts.
    fn index_arrays(&self) -> Vec<IndexArrayView<'_>> {
        Vec::new()
    }

    /// Corrupts one index array in a way that breaks its required
    /// monotonicity, bumping its version so cached verdicts invalidate.
    /// Returns `false` when the kernel has nothing to tamper with. The
    /// serial variant must stay deterministic on the tampered instance.
    fn tamper_index_arrays(&mut self) -> bool {
        false
    }

    /// The result digest, a value derived from the output for
    /// cross-variant validation: the [`det_sum_on`] of each output array,
    /// added in the order the kernel states them. `Some(pool)` sums large
    /// arrays on the team; the bits are the same either way.
    ///
    /// Work: Θ(n) over the summed arrays. Span: Θ(n/p + n/BLOCK).
    fn checksum_on(&self, pool: Option<&ThreadPool>) -> f64;

    /// Restores the instance to its initial state so another variant can
    /// run on identical input: every array a run can read before writing,
    /// or that feeds the digest, is [`restore`]d from its pristine twin or
    /// [`zero`]ed. `Some(pool)` splits large arrays over the team; the
    /// instance is fully reset on return whatever happened to the region.
    ///
    /// Work: Θ(n) over the restored arrays. Span: Θ(n/p).
    fn reset_on(&mut self, pool: Option<&ThreadPool>);

    /// [`KernelInstance::checksum_on`] inline on the caller.
    ///
    /// Work: Θ(n). Span: Θ(n).
    fn checksum(&self) -> f64 {
        self.checksum_on(None)
    }

    /// [`KernelInstance::reset_on`] inline on the caller.
    ///
    /// Work: Θ(n). Span: Θ(n).
    fn reset(&mut self) {
        self.reset_on(None);
    }

    /// Runs the chosen variant.
    fn run(&mut self, variant: Variant, pool: &ThreadPool, sched: Schedule) {
        let label = match variant {
            Variant::Serial => "serial",
            Variant::InnerParallel => "inner-parallel",
            Variant::OuterParallel => "outer-parallel",
        };
        let _run_span = subsub_telemetry::span_labeled(subsub_telemetry::Phase::KernelRun, label);
        match variant {
            Variant::Serial => self.run_serial(),
            Variant::InnerParallel => self.run_inner(pool, sched),
            Variant::OuterParallel => self.run_outer(pool, sched),
        }
    }
}

/// Lanes of the digest: element `i` of a block goes to lane `i % LANES`.
pub const LANES: usize = 8;
/// Elements per digest block; block partials are added in block order.
pub const BLOCK: usize = 4096;
/// Shortest array the pooled forms split over a team. Below it a
/// fork-join costs more than it saves, so they run inline and open no
/// region.
pub const PAR_MIN: usize = 64 * 1024;

/// One block of the digest: `LANES` running sums, halved into each other
/// (lane `i` takes lane `i + w`, for `w` = 4, 2, 1), then the ragged tail
/// left to right. With this tree the loop compiles to packed 128-bit adds
/// and nothing wider, so `test`-sized arrays on the µs path run no
/// 512-bit code.
fn block_sum(block: &[f64]) -> f64 {
    let mut lanes = [0.0f64; LANES];
    let mut groups = block.chunks_exact(LANES);
    for group in &mut groups {
        for (lane, x) in lanes.iter_mut().zip(group) {
            *lane += x;
        }
    }
    let mut width = LANES;
    while width > 1 {
        width /= 2;
        for i in 0..width {
            lanes[i] += lanes[i + width];
        }
    }
    groups.remainder().iter().fold(lanes[0], |sum, x| sum + x)
}

/// The fixed-shape sum every result digest is built from: `block_sum`
/// over blocks of [`BLOCK`] elements, the partials added in block order.
/// The value is defined by that arithmetic — not by the instructions the
/// compiler picks or by how many threads computed the partials — and is
/// *not* the left-to-right sum: it agrees with it to rounding, which is
/// all a cross-variant check under [`close`] needs.
///
/// Work: Θ(n). Span: Θ(n).
pub fn det_sum(xs: &[f64]) -> f64 {
    xs.chunks(BLOCK)
        .fold(0.0, |sum, block| sum + block_sum(block))
}

/// [`det_sum`] with the block partials computed on the team, a contiguous
/// run of blocks per tid, and folded in block order by the caller:
/// bit-identical to [`det_sum`] for every team size. Runs inline without
/// a pool, on a one-thread pool, below [`PAR_MIN`], and when the region
/// faults (the sum only reads, so starting over is always sound).
///
/// Work: Θ(n). Span: Θ(n/p + n/BLOCK).
pub fn det_sum_on(pool: Option<&ThreadPool>, xs: &[f64]) -> f64 {
    let Some(pool) = team(pool, xs.len()) else {
        return det_sum(xs);
    };
    let mut partials = vec![0.0f64; xs.len().div_ceil(BLOCK)];
    let filled = split_over(pool, &mut partials, |first, run| {
        for (partial, block) in run.iter_mut().zip(xs[first * BLOCK..].chunks(BLOCK)) {
            *partial = block_sum(block);
        }
    });
    match filled {
        Ok(()) => partials.iter().fold(0.0, |sum, partial| sum + partial),
        Err(_) => det_sum(xs),
    }
}

/// Copies `src` over `dst`, a contiguous run per tid on the team. `dst`
/// equals `src` on return: a faulted region is redone inline.
///
/// Work: Θ(n). Span: Θ(n/p).
pub fn restore(pool: Option<&ThreadPool>, dst: &mut [f64], src: &[f64]) {
    assert_eq!(dst.len(), src.len(), "pristine twin of another length");
    overwrite(pool, dst, |at, run| {
        run.copy_from_slice(&src[at..at + run.len()]);
    });
}

/// Zero-fills `dst`, a contiguous run per tid on the team. `dst` is all
/// zero on return: a faulted region is redone inline.
///
/// Work: Θ(n). Span: Θ(n/p).
pub fn zero(pool: Option<&ThreadPool>, dst: &mut [f64]) {
    overwrite(pool, dst, |_, run| run.fill(0.0));
}

/// `put(offset, run)` over every run of `dst` on the team, or over all
/// of `dst` inline when there is no team or its region faulted (`put`
/// overwrites, so redoing the runs that did complete is harmless).
fn overwrite(pool: Option<&ThreadPool>, dst: &mut [f64], put: impl Fn(usize, &mut [f64]) + Sync) {
    let done = team(pool, dst.len()).is_some_and(|pool| split_over(pool, dst, &put).is_ok());
    if !done {
        put(0, dst);
    }
}

/// The team an epilogue over `len` elements is split over, if any.
fn team(pool: Option<&ThreadPool>, len: usize) -> Option<&ThreadPool> {
    pool.filter(|pool| pool.threads() > 1 && len >= PAR_MIN)
}

/// Cuts `data` into one contiguous run per tid and calls
/// `job(offset of the run, run)` for each in one region. `try_run` takes
/// no cancel token, ambient or explicit: a tripped job token makes
/// `parallel_for` skip iterations silently, and an epilogue that skipped
/// a run would hand back a half-reset instance or a short sum.
fn split_over(
    pool: &ThreadPool,
    data: &mut [f64],
    job: impl Fn(usize, &mut [f64]) + Sync,
) -> Result<(), RegionError> {
    let per = data.len().div_ceil(pool.threads());
    let runs: Vec<Mutex<&mut [f64]>> = data.chunks_mut(per).map(Mutex::new).collect();
    pool.try_run(|tid| {
        if let Some(run) = runs.get(tid) {
            let mut run = run.lock().unwrap_or_else(|e| e.into_inner());
            job(tid * per, &mut run);
        }
    })
    .map(drop)
}

/// The tamper most subscripted-subscript kernels share: duplicates the
/// first entry, which stays sorted and in-domain but is no longer
/// injective. Going through `mutate_range` keeps the array validated and
/// bumps its version (so cached verdicts invalidate) at O(Δ). Returns
/// `false` on an array too short to hold a duplicate.
pub fn duplicate_first_entry(arr: &mut ValidatedIndexArray) -> bool {
    if arr.len() < 2 {
        return false;
    }
    arr.mutate_range(0..2, |w| w[1] = w[0])
        .expect("duplicating an in-domain entry stays in domain");
    true
}

/// Total work of the serial execution under the cost model.
pub fn serial_cost(groups: &[InnerGroup]) -> f64 {
    groups
        .iter()
        .map(|g| g.serial + g.inner.iter().sum::<f64>())
        .sum()
}

/// Relative checksum agreement for cross-variant validation (parallel
/// reductions reorder floating-point sums).
pub fn close(a: f64, b: f64) -> bool {
    let denom = a.abs().max(b.abs()).max(1e-12);
    ((a - b) / denom).abs() < 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_cost_sums_groups() {
        let gs = vec![
            InnerGroup {
                serial: 1.0,
                inner: vec![2.0, 3.0],
            },
            InnerGroup {
                serial: 0.5,
                inner: vec![],
            },
        ];
        assert!((serial_cost(&gs) - 6.5).abs() < 1e-12);
    }

    #[test]
    fn close_tolerates_reordering_noise() {
        assert!(close(1.0, 1.0 + 1e-9));
        assert!(!close(1.0, 1.1));
        assert!(close(0.0, 0.0));
    }
}
