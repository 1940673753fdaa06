//! A persistent worker thread pool with OpenMP-style `parallel for`,
//! self-healing against worker faults.
//!
//! Workers are spawned once and a region is one epoch. The whole
//! fork-join protocol is **one word per tid**: a cache-line-padded
//! `Slot` holding `(epoch << 18) | (who << 2) | state` next to the
//! region's erased job pointer, and moving
//!
//! ```text
//!   DONE(e-1) --open--> OPEN(e) --claim--> CLAIMED(e, who)
//!                                  --start--> STARTED(e, who) --finish--> DONE(e)
//! ```
//!
//! * **fork** — the coordinator writes the job pointer into each slot's
//!   line and stores `OPEN(e)` there; worker `w` waits on slot `w`, its
//!   home tid, and on nothing else;
//! * **claim** — one CAS `OPEN(e) → CLAIMED(e, who)` on that line, so a
//!   tid is never claimed without being attributed. Worker `w` claims
//!   only tid `w`; the coordinating caller claims, in tid order, every
//!   slot still open once it has published them all. On an
//!   oversubscribed machine (or a 1-thread pool) it so absorbs the whole
//!   region with zero context switches, while on a multicore machine the
//!   spinning workers win their home slots and the region runs in
//!   parallel — fork-join overhead adapts to what the hardware can
//!   actually overlap. A worker that keeps losing its tid backs off;
//! * **join** — whoever ran a tid moves its slot `STARTED(e, who) →
//!   DONE(e)` by CAS, which can never land on a newer epoch; the
//!   coordinator scans the slots, and only the region's last completion
//!   wakes a parked coordinator.
//!
//! A region with no panic, no dead worker and no parked thread
//! allocates nothing and takes no lock (DESIGN.md §5b lists its atomics).
//!
//! All waits are spin-then-park ([`crate::barrier`]): bounded spinning
//! keeps back-to-back regions syscall-free, parking keeps an idle pool
//! off the CPU. Measured fork-join latency is reported by the
//! `forkjoin_calibrate` binary and committed in `BENCH_forkjoin.json`.
//!
//! Because tids may execute on fewer OS threads than `threads()`, jobs
//! must not synchronize *between* tids (no intra-region barriers) — the
//! same restriction the rest of this crate's `parallel for` API already
//! satisfies by construction.
//!
//! **Nested/concurrent regions.** A `run` (or `parallel_for`) issued
//! while another region is active on the same pool — from inside a
//! worker's job or from a second coordinating thread — degrades to
//! inline serial execution of the job on the calling thread (`job(tid)`
//! for every tid), preserving the exactly-once iteration contract. This
//! mirrors OpenMP's behaviour with nested parallelism disabled.
//!
//! # Fault model and self-healing
//!
//! While the coordinator waits for the join it runs a **watchdog** every
//! [`WATCHDOG_TICK`] over the same slot words (DESIGN.md §5c): a slot a
//! dead worker left `CLAIMED` had no effect yet, so the coordinator
//! *reclaims* it — runs the job itself — and the region completes
//! ([`PoolHealth::reclaimed_tids`]); one left `STARTED` can no longer be
//! run exactly once, so it is forced to `DONE` and the region *aborts
//! cleanly* with [`RegionError::WorkerLost`]. Dead workers are respawned
//! before the next region ([`PoolHealth::respawned_workers`]).
//!
//! **Panics.** A panicking job does not deadlock the pool: the claimer
//! catches the unwind, records the first payload, reports completion,
//! and the region returns [`RegionError::Panicked`] (the `run` wrapper
//! re-raises it). The pool stays usable afterwards.
//!
//! **Deadlines.** [`ThreadPool::run_with_deadline`] and
//! [`ThreadPool::parallel_for_deadline`] trip the caller's
//! [`CancelToken`] once the deadline passes, drain cooperatively, and
//! return [`RegionError::DeadlineExceeded`]. Cancellation is
//! cooperative: a job that never polls the token is waited for (the
//! region borrows the caller's frame, so abandoning it would dangle).
//!
//! Chaos tests drive these paths deterministically through the
//! `subsub-failpoint` sites `omprt.worker.wake`, `omprt.worker.claim`,
//! `omprt.worker.job`, `omprt.region.fork`, `omprt.region.join` and
//! `omprt.reduce.slot`.

use crate::barrier::{CachePadded, Parker};
use crate::cancel::{with_ambient, CancelToken};
use crate::schedule::{dynamic_batch, guided_claim, static_chunks, Schedule};
use crate::sendptr::SendPtr;
use std::cell::UnsafeCell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use subsub_failpoint as failpoint;
use subsub_telemetry as telemetry;
use subsub_telemetry::{EventKind, Phase};

/// The erased fork-join job: a pointer to a closure borrowed for the
/// duration of exactly one region.
type RawJob = *const (dyn Fn(usize) + Sync);

/// What a slot's job cell holds before the first region.
const NO_JOB: &(dyn Fn(usize) + Sync) = &|_| {};

/// How often the joining coordinator interleaves a watchdog scan with
/// its park. Healthy regions never reach the first tick: the join
/// completes inside the spin budget.
pub const WATCHDOG_TICK: Duration = Duration::from_millis(2);

/// Claimer id of the coordinating caller in a slot word.
const COORD: u16 = u16::MAX;

/// Slot states (low two bits of the slot word), in protocol order.
const OPEN: u64 = 0;
const CLAIMED: u64 = 1;
const STARTED: u64 = 2;
const DONE: u64 = 3;
const WHO_SHIFT: u32 = 2;
const WHO_MASK: u64 = 0xFFFF;
const EPOCH_SHIFT: u32 = 18;
/// Epochs are truncated to the 46 bits above the claimer id and compared
/// for equality only, so a wrap (two years of back-to-back microsecond
/// regions away) is harmless.
const EPOCH_MASK: u64 = u64::MAX >> EPOCH_SHIFT;

fn word(epoch: u64, who: u16, state: u64) -> u64 {
    (epoch << EPOCH_SHIFT) | (u64::from(who) << WHO_SHIFT) | state
}

fn epoch_of(word: u64) -> u64 {
    word >> EPOCH_SHIFT
}

fn who_of(word: u64) -> u16 {
    ((word >> WHO_SHIFT) & WHO_MASK) as u16
}

fn state_of(word: u64) -> u64 {
    word & 0b11
}

/// One tid's whole share of the fork-join protocol, on a cache line of
/// its own: the epoch-stamped state word and the region's job pointer.
/// One method per edge of the module docs' diagram; every access to the
/// word is `SeqCst` except the `Release` in `open`, which the
/// coordinator follows with a `SeqCst` fence.
#[repr(align(64))]
struct Slot {
    word: AtomicU64,
    /// Written by `open`, read between a successful `claim` and that
    /// claim's `finish`.
    job: UnsafeCell<RawJob>,
}

// SAFETY: `job` is written only by the single coordinator while the
// word is `DONE` (the previous region joined, so no claim is live and
// nobody can reach the cell) and read only under a live claim; the
// `Release` store of `OPEN` after the write and the claimer's `SeqCst`
// CAS that read it order the write before every read. The pointee is
// `Sync` and outlives the region (see `ThreadPool::region`).
unsafe impl Send for Slot {}
unsafe impl Sync for Slot {}

impl Slot {
    fn new() -> Slot {
        Slot {
            word: AtomicU64::new(word(0, COORD, DONE)),
            job: UnsafeCell::new(NO_JOB),
        }
    }

    fn load(&self) -> u64 {
        self.word.load(Ordering::SeqCst)
    }

    /// Publishes `job` as region `epoch`'s work for this tid.
    /// Coordinator only, and only once the previous region has joined.
    fn open(&self, epoch: u64, job: RawJob) {
        // SAFETY: the word is `DONE`, so no claim is live (see the
        // `Sync` impl).
        unsafe { *self.job.get() = job };
        self.word.store(word(epoch, 0, OPEN), Ordering::Release);
    }

    fn cas(&self, from: u64, to: u64) -> bool {
        self.word
            .compare_exchange(from, to, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Claims the tid for `who`, given the `OPEN` word it saw. Fails if
    /// anything happened to the slot since — somebody else claimed it,
    /// or the region `seen` belongs to is over.
    fn claim(&self, seen: u64, who: u16) -> bool {
        state_of(seen) == OPEN && self.cas(seen, word(epoch_of(seen), who, CLAIMED))
    }

    /// Marks the claimed tid as running: from here its job may have had
    /// effects. Claimer only.
    fn start(&self, epoch: u64, who: u16) {
        self.word.store(word(epoch, who, STARTED), Ordering::SeqCst);
    }

    /// Reports the tid complete. A CAS, not a store: a straggler
    /// finishing a tid the watchdog already abandoned must not touch the
    /// word of the region the coordinator has since moved on to.
    fn finish(&self, epoch: u64, who: u16) -> bool {
        self.cas(word(epoch, who, STARTED), word(epoch, who, DONE))
    }

    /// Watchdog: takes over a tid a dead worker claimed and never
    /// started. Fails if the worker did start it before dying.
    fn reclaim(&self, claimed: u64) -> bool {
        self.cas(claimed, word(epoch_of(claimed), COORD, STARTED))
    }

    /// Watchdog: forces a tid whose executor died mid-job to `DONE` so
    /// the join terminates.
    fn abandon(&self, epoch: u64) {
        self.word.store(word(epoch, COORD, DONE), Ordering::SeqCst);
    }

    fn is_done(&self, epoch: u64) -> bool {
        let w = self.load();
        epoch_of(w) == epoch && state_of(w) == DONE
    }
}

/// Why a fork-join region could not complete normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionError {
    /// At least one tid's job panicked; `detail` carries the first
    /// payload (injected failpoint panics keep their site name).
    Panicked {
        /// Rendering of the first panic payload observed.
        detail: String,
    },
    /// A worker thread died after *starting* a job, so exactly-once
    /// execution cannot be guaranteed; the region was aborted cleanly.
    WorkerLost {
        /// The orphaned tid.
        tid: usize,
    },
    /// The region's deadline elapsed; remaining work was cancelled
    /// cooperatively. Side effects of completed iterations remain.
    DeadlineExceeded,
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionError::Panicked { detail } => {
                write!(f, "a job panicked inside a parallel region: {detail}")
            }
            RegionError::WorkerLost { tid } => {
                write!(f, "worker executing tid {tid} died mid-job; region aborted")
            }
            RegionError::DeadlineExceeded => write!(f, "region deadline exceeded"),
        }
    }
}

impl std::error::Error for RegionError {}

/// Recovery work one region performed (all zero on the healthy path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionReport {
    /// Tids reclaimed from dead workers and executed by the coordinator.
    pub reclaimed_tids: u32,
    /// Dead worker threads replaced around this region.
    pub respawned_workers: u32,
}

/// Cumulative self-healing counters for one pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolHealth {
    /// Fork-join regions coordinated (inline-degraded ones included).
    pub regions: u64,
    /// Regions in which at least one job panicked (and was contained).
    pub job_panics: u64,
    /// Tids reclaimed from dead workers by the coordinator.
    pub reclaimed_tids: u64,
    /// Worker threads respawned after dying.
    pub respawned_workers: u64,
    /// Regions aborted because a worker died mid-job.
    pub aborted_regions: u64,
    /// Regions whose deadline tripped the cancel token.
    pub deadline_cancels: u64,
}

impl PoolHealth {
    /// Total degradation events recorded: everything except the plain
    /// region count. Monotone.
    pub fn degradation_events(&self) -> u64 {
        self.job_panics
            + self.reclaimed_tids
            + self.respawned_workers
            + self.aborted_regions
            + self.deadline_cancels
    }
}

#[derive(Debug, Default)]
struct HealthCounters {
    regions: AtomicU64,
    job_panics: AtomicU64,
    reclaimed_tids: AtomicU64,
    respawned_workers: AtomicU64,
    aborted_regions: AtomicU64,
    deadline_cancels: AtomicU64,
}

struct Shared {
    /// One slot per tid; worker `w`'s home is `slots[w]`.
    slots: Box<[Slot]>,
    /// Workers parked between regions.
    idle: Parker,
    /// The coordinator parked inside a join.
    join: Parker,
    shutdown: AtomicBool,
    /// Some tid's job panicked and `panic_detail` holds its payload: set
    /// by the claimer that caught it; a healthy region only loads it.
    panicked: AtomicBool,
    /// Rendering of the first panic payload of the current region.
    panic_detail: Mutex<Option<String>>,
}

impl Shared {
    fn joined(&self, epoch: u64) -> bool {
        self.slots.iter().all(|s| s.is_done(epoch))
    }

    /// Runs `job(tid)`, containing a panic.
    ///
    /// # Safety
    ///
    /// `job` must point to a live closure: the caller holds a claim on
    /// `tid` in the region that published it, or is that region's
    /// coordinator.
    unsafe fn run_tid(&self, job: RawJob, tid: usize) {
        // SAFETY: live per this function's contract.
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*job)(tid) }));
        if let Err(p) = r {
            lock(&self.panic_detail).get_or_insert_with(|| payload_detail(p.as_ref()));
            // Before the `finish` that lets the coordinator past the
            // join, which then acquires this.
            self.panicked.store(true, Ordering::Release);
        }
    }

    /// The first panic payload since the last call, if any job panicked.
    fn take_panic(&self) -> Option<String> {
        if !self.panicked.load(Ordering::Acquire) {
            return None;
        }
        self.panicked.store(false, Ordering::Relaxed);
        lock(&self.panic_detail).take()
    }
}

/// A fixed-size team of worker threads executing fork-join parallel
/// regions, with watchdog-based recovery from dead workers.
pub struct ThreadPool {
    shared: Arc<Shared>,
    /// `None` marks a slot whose respawn failed; retried each region.
    /// Locked only by the coordinator (under `region_active`) and `drop`.
    workers: Mutex<Vec<Option<JoinHandle<()>>>>,
    threads: usize,
    /// Guards against nested/concurrent `run` on the same pool.
    region_active: AtomicBool,
    /// Set when a worker death was observed; makes the region that saw
    /// it sweep and respawn after its join instead of waiting for the
    /// periodic sweep.
    suspect: AtomicBool,
    health: HealthCounters,
}

impl ThreadPool {
    /// Spawns a pool with `threads` workers (the calling thread is not
    /// part of the team; it coordinates).
    pub fn new(threads: usize) -> ThreadPool {
        // tid and claimer ids must fit their 16-bit field, with
        // `u16::MAX` reserved for the coordinator.
        let threads = threads.clamp(1, 65_534);
        let shared = Arc::new(Shared {
            slots: (0..threads).map(|_| Slot::new()).collect(),
            idle: Parker::default(),
            join: Parker::default(),
            shutdown: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            panic_detail: Mutex::new(None),
        });
        let workers = (0..threads).map(|w| spawn_worker(&shared, w, 0)).collect();
        ThreadPool {
            shared,
            workers: Mutex::new(workers),
            threads,
            region_active: AtomicBool::new(false),
            suspect: AtomicBool::new(false),
            health: HealthCounters::default(),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of the pool's self-healing counters.
    pub fn health(&self) -> PoolHealth {
        PoolHealth {
            regions: self.health.regions.load(Ordering::Relaxed),
            job_panics: self.health.job_panics.load(Ordering::Relaxed),
            reclaimed_tids: self.health.reclaimed_tids.load(Ordering::Relaxed),
            respawned_workers: self.health.respawned_workers.load(Ordering::Relaxed),
            aborted_regions: self.health.aborted_regions.load(Ordering::Relaxed),
            deadline_cancels: self.health.deadline_cancels.load(Ordering::Relaxed),
        }
    }

    /// Runs `job(tid)` on every worker and waits for all to finish —
    /// one fork-join region. Nested or concurrent calls degrade to
    /// inline serial execution (see the module docs). Panics (with a
    /// [`RegionError`] payload) if the region faulted; use
    /// [`ThreadPool::try_run`] to handle faults as values.
    ///
    /// Work: O(T) + Σ job(tid). Span: O(T) + max job(tid) — the
    /// coordinator's T publishing stores and T join loads; O(1) in
    /// anything the job iterates over.
    pub fn run<F>(&self, job: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        if let Err(e) = self.try_run(job) {
            std::panic::panic_any(e);
        }
    }

    /// Runs one fork-join region, reporting faults (job panics, lost
    /// workers) as a [`RegionError`] instead of panicking. The pool
    /// remains usable after any error.
    pub fn try_run<F>(&self, job: F) -> Result<RegionReport, RegionError>
    where
        F: Fn(usize) + Send + Sync,
    {
        self.region(&job, None, None)
    }

    /// Runs one fork-join region with a deadline: once `deadline`
    /// elapses, `cancel` is tripped so cooperative jobs drain, and the
    /// region returns [`RegionError::DeadlineExceeded`]. Jobs must poll
    /// the token (as every `parallel_for` body does) for the deadline to
    /// take effect.
    pub fn run_with_deadline<F>(
        &self,
        cancel: &CancelToken,
        deadline: Duration,
        job: F,
    ) -> Result<RegionReport, RegionError>
    where
        F: Fn(usize) + Send + Sync,
    {
        self.region(&job, Some(cancel), Some(Instant::now() + deadline))
    }

    /// OpenMP-style `parallel for` over `0..n` with the given schedule.
    ///
    /// Work: O(n + T + claims), claims = 0 (static), n / batch
    /// (dynamic), O(T log n) (guided). Span: O(T) fork-join + the
    /// largest per-tid share, n / T iterations under `static`.
    pub fn parallel_for<F>(&self, n: usize, sched: Schedule, body: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        if let Err(e) = self.parallel_for_impl(n, sched, None, None, &body) {
            std::panic::panic_any(e);
        }
    }

    /// [`ThreadPool::parallel_for`] reporting region faults as values.
    pub fn try_parallel_for<F>(
        &self,
        n: usize,
        sched: Schedule,
        body: F,
    ) -> Result<RegionReport, RegionError>
    where
        F: Fn(usize) + Send + Sync,
    {
        self.parallel_for_impl(n, sched, None, None, &body)
    }

    /// [`ThreadPool::parallel_for`] with cooperative cancellation: once
    /// any thread calls `cancel.cancel()` (typically from inside `body`),
    /// no further iteration starts on any thread. Iterations already in
    /// flight finish; every executed iteration runs at most once.
    pub fn parallel_for_cancel<F>(&self, n: usize, sched: Schedule, cancel: &CancelToken, body: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        if let Err(e) = self.parallel_for_impl(n, sched, Some(cancel), None, &body) {
            std::panic::panic_any(e);
        }
    }

    /// [`ThreadPool::parallel_for_cancel`] reporting region faults as
    /// values instead of panicking — the form fault-tolerant callers
    /// (the rtcheck inspector) build on.
    pub fn try_parallel_for_cancel<F>(
        &self,
        n: usize,
        sched: Schedule,
        cancel: &CancelToken,
        body: F,
    ) -> Result<RegionReport, RegionError>
    where
        F: Fn(usize) + Send + Sync,
    {
        self.parallel_for_impl(n, sched, Some(cancel), None, &body)
    }

    /// [`ThreadPool::parallel_for_cancel`] with a deadline: iterations
    /// stop starting once `deadline` elapses (the token is tripped) and
    /// the call reports [`RegionError::DeadlineExceeded`]. Side effects
    /// of iterations that completed before the trip remain.
    pub fn parallel_for_deadline<F>(
        &self,
        n: usize,
        sched: Schedule,
        cancel: &CancelToken,
        deadline: Duration,
        body: F,
    ) -> Result<RegionReport, RegionError>
    where
        F: Fn(usize) + Send + Sync,
    {
        let dl = Instant::now() + deadline;
        let report = self.parallel_for_impl(n, sched, Some(cancel), Some(dl), &body)?;
        if cancel.is_cancelled() && Instant::now() >= dl {
            self.health.deadline_cancels.fetch_add(1, Ordering::Relaxed);
            return Err(RegionError::DeadlineExceeded);
        }
        Ok(report)
    }

    fn parallel_for_impl<F>(
        &self,
        n: usize,
        sched: Schedule,
        cancel: Option<&CancelToken>,
        deadline: Option<Instant>,
        body: &F,
    ) -> Result<RegionReport, RegionError>
    where
        F: Fn(usize) + Send + Sync,
    {
        // An explicit token always wins; otherwise the coordinating
        // thread's ambient scope (installed by a host via
        // `cancel::with_ambient_cancel`) lends one for the region, so
        // cancellation reaches regions opened by code that never learned
        // about tokens (kernel bodies calling plain `parallel_for`).
        with_ambient(cancel, |cancel| {
            // Padded so the shared cursor never false-shares with the
            // coordinator's stack around it.
            let cursor = CachePadded::new(AtomicUsize::new(0));
            let threads = self.threads;
            let deadline_hit = AtomicBool::new(false);
            let check_deadline = || {
                if past(deadline, cancel) {
                    deadline_hit.store(true, Ordering::Relaxed);
                }
            };
            let report = self.region(
                &|tid| {
                    drive(sched, n, threads, tid, &cursor, cancel, |s, e| {
                        check_deadline();
                        // The loop's invariants in locals: behind the opaque
                        // `body` call they are not hoisted out of the captures.
                        let (cancel, timed) = (cancel, deadline.is_some());
                        for i in s..e {
                            if cancel.is_some_and(CancelToken::is_cancelled) {
                                return false;
                            }
                            // Deadlines are polled between claimed ranges and
                            // every 128 iterations within one, so one huge
                            // static chunk cannot overshoot unboundedly.
                            if timed && (i - s) % 128 == 127 {
                                check_deadline();
                            }
                            body(i);
                        }
                        true
                    });
                },
                cancel,
                deadline,
            )?;
            if deadline_hit.load(Ordering::Relaxed) {
                self.health.deadline_cancels.fetch_add(1, Ordering::Relaxed);
                return Err(RegionError::DeadlineExceeded);
            }
            Ok(report)
        })
    }

    /// `parallel for` with a `+`-style reduction: each thread folds its
    /// iterations locally with `fold` into a cache-line-padded private
    /// slot (no locks anywhere), and partials are combined with
    /// `combine` in tid order after the join.
    ///
    /// Work: as [`ThreadPool::parallel_for`] plus T `identity` clones
    /// and T `combine`s. Span: the same plus the O(T) serial combine.
    pub fn parallel_for_reduce<T, F, C>(
        &self,
        n: usize,
        sched: Schedule,
        identity: T,
        fold: F,
        combine: C,
    ) -> T
    where
        T: Clone + Send + Sync,
        F: Fn(T, usize) -> T + Send + Sync,
        C: Fn(T, T) -> T,
    {
        // Partials live on this frame for the team sizes the hosts run;
        // only a wider team pays for a heap block.
        let mut inline: [CachePadded<Option<T>>; INLINE_PARTIALS] =
            std::array::from_fn(|_| CachePadded::new(None));
        let mut spilled: Vec<CachePadded<Option<T>>> = Vec::new();
        let threads = self.threads;
        let partials = if threads <= INLINE_PARTIALS {
            &mut inline[..threads]
        } else {
            spilled.resize_with(threads, || CachePadded::new(None));
            &mut spilled[..]
        };
        let slots = SendPtr::new(partials.as_mut_ptr());
        let cursor = CachePadded::new(AtomicUsize::new(0));
        // Reductions honour the coordinator's ambient cancel scope the
        // same way `parallel_for` does: a cancelled reduction stops
        // claiming and folds only the iterations that already ran (the
        // host discards the partial result).
        with_ambient(None, |cancel| {
            self.run(|tid| {
                let mut acc = Some(identity.clone());
                drive(sched, n, threads, tid, &cursor, cancel, |s, e| {
                    for i in s..e {
                        if cancel.is_some_and(CancelToken::is_cancelled) {
                            return false;
                        }
                        // The accumulator is always re-seated below; if it
                        // ever were empty, restarting from the identity is
                        // the only sound continuation (never panic here).
                        let cur = acc.take().unwrap_or_else(|| identity.clone());
                        acc = Some(fold(cur, i));
                    }
                    true
                });
                failpoint::hit("omprt.reduce.slot");
                // SAFETY: slot `tid` is written by exactly one claimer (and by
                // the inline-serial fallback strictly sequentially), and the
                // coordinator reads only after the region's join.
                unsafe { **slots.get().add(tid) = acc };
            })
        });
        partials
            .iter_mut()
            .fold(identity, |a, slot| match slot.take() {
                Some(p) => combine(a, p),
                None => a,
            })
    }

    /// The region engine behind every public entry point: fork, claim
    /// participation, watchdog-interleaved join, recovery, respawn.
    ///
    /// Work: O(T) + Σ job(tid). Span: O(T) + max job(tid): T stores to
    /// fork, T loads to join, one claim pass; O(1) in the job's size.
    fn region(
        &self,
        job: &(dyn Fn(usize) + Sync),
        cancel: Option<&CancelToken>,
        deadline: Option<Instant>,
    ) -> Result<RegionReport, RegionError> {
        if self.region_active.swap(true, Ordering::Acquire) {
            // Another region is in flight on this pool: run the job
            // inline, serialized, preserving the per-tid contract.
            return self.inline_region(job, cancel, deadline);
        }
        let mut report = RegionReport::default();
        let _region_span = telemetry::span(Phase::Region, 0);
        self.health.regions.fetch_add(1, Ordering::Relaxed);
        // Erase the borrow: the closure lives on (or below) this frame
        // and the region cannot outlive this call because we block until
        // every slot is `DONE` in the region's epoch.
        let raw: RawJob = unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), RawJob>(
                job as *const (dyn Fn(usize) + Sync),
            )
        };
        failpoint::hit("omprt.region.fork");
        telemetry::instant(EventKind::RegionFork, Phase::Region, 0, self.threads as u64);
        let sh = &*self.shared;
        // Between regions every slot is `DONE` in the last one's epoch.
        let epoch = (epoch_of(sh.slots[0].load()) + 1) & EPOCH_MASK;
        for slot in sh.slots.iter() {
            slot.open(epoch, raw);
        }
        // Dekker, publisher side: every `OPEN` store above is ordered
        // before the load of the sleepers' flag in `wake`, against a
        // sleeper's `SeqCst` advertise-then-recheck.
        fence(Ordering::SeqCst);
        sh.idle.wake(|| true);
        // Participate: claim and execute, in tid order, whatever tids no
        // worker has taken yet, instead of blocking while workers wake.
        for (tid, slot) in sh.slots.iter().enumerate() {
            let seen = slot.load();
            if state_of(seen) == OPEN {
                execute(sh, tid, seen, COORD);
            }
        }
        failpoint::hit("omprt.region.join");
        let mut lost: Vec<usize> = Vec::new();
        while !sh.join.wait(Some(WATCHDOG_TICK), || sh.joined(epoch)) {
            past(deadline, cancel);
            self.watchdog(epoch, raw, &mut report, &mut lost);
        }
        telemetry::instant(
            EventKind::RegionJoin,
            Phase::Region,
            0,
            u64::from(report.reclaimed_tids),
        );
        let panic = sh.take_panic();
        report.respawned_workers = self.ensure_workers();
        self.region_active.store(false, Ordering::Release);
        if let Some(&tid) = lost.first() {
            self.health.aborted_regions.fetch_add(1, Ordering::Relaxed);
            return Err(RegionError::WorkerLost { tid });
        }
        if let Some(detail) = panic {
            self.health.job_panics.fetch_add(1, Ordering::Relaxed);
            return Err(RegionError::Panicked { detail });
        }
        Ok(report)
    }

    /// The nested/concurrent fallback: every tid inline on this thread.
    fn inline_region(
        &self,
        job: &(dyn Fn(usize) + Sync),
        cancel: Option<&CancelToken>,
        deadline: Option<Instant>,
    ) -> Result<RegionReport, RegionError> {
        let mut first_panic: Option<String> = None;
        for tid in 0..self.threads {
            past(deadline, cancel);
            if let Err(p) = std::panic::catch_unwind(AssertUnwindSafe(|| job(tid))) {
                first_panic.get_or_insert_with(|| payload_detail(p.as_ref()));
            }
        }
        match first_panic {
            Some(detail) => Err(RegionError::Panicked { detail }),
            None => Ok(RegionReport::default()),
        }
    }

    /// Reaps dead worker threads and respawns replacements. Cheap
    /// (per-slot `is_finished` loads under an uncontended, coordinator-
    /// only mutex), but still gated: a full sweep runs when a death was
    /// observed (`suspect`) or every 64th region — so back-to-back
    /// microscopic regions pay two flag loads.
    fn ensure_workers(&self) -> u32 {
        let periodic = self.health.regions.load(Ordering::Relaxed) % 64 == 1;
        let suspect =
            self.suspect.load(Ordering::Relaxed) && self.suspect.swap(false, Ordering::Relaxed);
        if !periodic && !suspect {
            return 0;
        }
        let mut respawned = 0;
        let mut workers = lock(&self.workers);
        for (w, slot) in workers.iter_mut().enumerate() {
            if !slot.as_ref().is_none_or(JoinHandle::is_finished) {
                continue;
            }
            if let Some(h) = slot.take() {
                let _ = h.join(); // reap; a panicked worker is expected here
            }
            *slot = spawn_worker(&self.shared, w, respawned + 1);
            if slot.is_some() {
                respawned += 1;
            }
        }
        self.health
            .respawned_workers
            .fetch_add(u64::from(respawned), Ordering::Relaxed);
        respawned
    }

    /// One watchdog pass over an incomplete join: recover every tid a
    /// dead worker left behind. See the module docs for the policy.
    fn watchdog(&self, epoch: u64, raw: RawJob, report: &mut RegionReport, lost: &mut Vec<usize>) {
        let sh = &*self.shared;
        // Which workers are dead right now? (Coordinator-only lock.)
        let dead: Vec<bool> = lock(&self.workers)
            .iter()
            .map(|handle| handle.as_ref().is_none_or(JoinHandle::is_finished))
            .collect();
        let dead_count = dead.iter().filter(|&&d| d).count();
        if dead_count == 0 {
            return;
        }
        self.suspect.store(true, Ordering::Relaxed);
        telemetry::instant(EventKind::WatchdogScan, Phase::Region, 0, dead_count as u64);
        for (tid, (slot, &dead)) in sh.slots.iter().zip(&dead).enumerate() {
            // Only its home worker and the coordinator ever claim a tid,
            // and the coordinator claimed whatever was still open before
            // it joined: an unfinished slot is one of theirs.
            let seen = slot.load();
            if !dead || who_of(seen) == COORD {
                continue; // a live worker still executing, or ours
            }
            match state_of(seen) {
                // Dead before starting: the job has had no effect on
                // this tid, so the coordinator reclaims it — unless the
                // CAS finds the worker did start, which the next tick
                // sees as `STARTED`.
                CLAIMED if slot.reclaim(seen) => {
                    // SAFETY: `raw` is this region's job and we are
                    // inside `region`'s frame.
                    unsafe { sh.run_tid(raw, tid) };
                    slot.finish(epoch, COORD);
                    report.reclaimed_tids += 1;
                    self.health.reclaimed_tids.fetch_add(1, Ordering::Relaxed);
                }
                // Started and the executor died: exactly-once is
                // unrecoverable. Force the slot so the join terminates,
                // and abort the region.
                STARTED => {
                    lost.push(tid);
                    slot.abandon(epoch);
                }
                _ => {}
            }
        }
    }
}

/// Reduction partials kept on `parallel_for_reduce`'s frame.
const INLINE_PARTIALS: usize = 8;

/// Trips `cancel` once `deadline` has passed, and says whether it has.
fn past(deadline: Option<Instant>, cancel: Option<&CancelToken>) -> bool {
    let past = deadline.is_some_and(|dl| Instant::now() >= dl);
    if let (true, Some(c)) = (past, cancel) {
        c.cancel();
    }
    past
}

fn spawn_worker(shared: &Arc<Shared>, w: usize, generation: u32) -> Option<JoinHandle<()>> {
    let sh = Arc::clone(shared);
    let name = if generation == 0 {
        format!("omprt-{w}")
    } else {
        format!("omprt-{w}-r{generation}")
    };
    std::thread::Builder::new()
        .name(name)
        .spawn(move || worker_loop(sh, w))
        .ok()
}

/// One worker's share of a scheduled loop: claims ranges according to
/// `sched` and feeds them to `on_range` until the space is exhausted,
/// `on_range` returns `false`, or the cancel token trips. All three
/// schedules go through here, so `parallel_for` and
/// `parallel_for_reduce` have identical scheduling behaviour by
/// construction.
///
/// Work: O(ranges handed to this tid), no allocation. Span: the same;
/// `dynamic` and `guided` contend on one cursor line per claim.
fn drive(
    sched: Schedule,
    n: usize,
    threads: usize,
    tid: usize,
    cursor: &AtomicUsize,
    cancel: Option<&CancelToken>,
    mut on_range: impl FnMut(usize, usize) -> bool,
) {
    let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
    match sched {
        Schedule::Static { chunk } => {
            for (s, e) in static_chunks(n, threads, chunk, tid) {
                if cancelled() || !on_range(s, e) {
                    return;
                }
            }
        }
        Schedule::Dynamic { chunk } => {
            // Batched claiming: one fetch_add grabs up to 64 chunks so
            // `chunk: 1` no longer serializes the team on one RMW per
            // iteration.
            let claim = dynamic_batch(n, threads, chunk);
            loop {
                if cancelled() {
                    return;
                }
                let s = cursor.fetch_add(claim, Ordering::Relaxed);
                if s >= n {
                    return;
                }
                if !on_range(s, (s + claim).min(n)) {
                    return;
                }
            }
        }
        Schedule::Guided { min_chunk } => loop {
            if cancelled() {
                return;
            }
            let s = cursor.load(Ordering::Relaxed);
            if s >= n {
                return;
            }
            let c = guided_claim(n - s, threads, min_chunk);
            if cursor
                .compare_exchange(s, s + c, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            if !on_range(s, s + c) {
                return;
            }
        },
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.idle.wake(|| true);
        let mut workers = lock(&self.workers);
        for w in workers.drain(..).flatten() {
            let _ = w.join();
        }
    }
}

/// Renders a panic payload for [`RegionError::Panicked`], keeping
/// injected-failpoint panics identifiable by their site name.
fn payload_detail(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(inj) = p.downcast_ref::<failpoint::InjectedPanic>() {
        return inj.to_string();
    }
    if let Some(s) = p.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = p.downcast_ref::<String>() {
        return s.clone();
    }
    "non-string panic payload".to_string()
}

/// Locks a mutex, ignoring poisoning (every guarded value here is
/// recovery metadata that stays consistent across an unwinding writer).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Claims tid `tid` for `who` off the `OPEN` word it saw and, if the
/// claim holds, runs the region's job on it and reports it done: worker
/// `tid` on its home slot, the coordinator between fork and join.
///
/// A successful claim pins the region open: `region` cannot pass its
/// join — return, or reopen the slot with another job — until this slot
/// is `DONE`, which only the `finish` below makes it, so the pointer read
/// between claim and finish can never dangle or observe a torn rewrite.
fn execute(sh: &Shared, tid: usize, seen: u64, who: u16) -> bool {
    let slot = &sh.slots[tid];
    if !slot.claim(seen, who) {
        return false;
    }
    let epoch = epoch_of(seen);
    let is_worker = who != COORD;
    telemetry::instant(EventKind::ClaimBatch, Phase::Claim, 0, tid as u64);
    if is_worker {
        // Worker-death window (claimed, not yet started): an
        // injected panic here escapes `worker_loop`, kills the
        // thread, and exercises the watchdog's reclaim path.
        failpoint::hit("omprt.worker.claim");
    }
    slot.start(epoch, who);
    if is_worker {
        // Worker-death window (started): an injected panic here kills
        // the thread after the tid is attributed as running, so the
        // watchdog cannot reclaim it — this exercises the clean-abort
        // (`RegionError::WorkerLost`) path instead.
        failpoint::hit("omprt.worker.job");
    }
    // SAFETY: claim-pinned as described above; the CAS that won the
    // claim read the `OPEN` the coordinator stored after writing the
    // cell, and the pointee lives on the coordinator's `region` frame,
    // which is blocked until our `finish`.
    unsafe { sh.run_tid(*slot.job.get(), tid) };
    // Fails only when the watchdog abandoned this tid meanwhile.
    slot.finish(epoch, who);
    if is_worker {
        // The `finish` CAS is the `SeqCst` publication `wake` asks for.
        sh.join.wake(|| sh.joined(epoch));
    }
    true
}

/// A worker that keeps losing its tid stays away from its slot for at
/// most `2^MAX_LOSS_BACKOFF` yields at a time: that is how late it can be
/// for the first region long enough to want it.
const MAX_LOSS_BACKOFF: u32 = 6;

fn worker_loop(sh: Arc<Shared>, w: usize) {
    let slot = &sh.slots[w];
    // A region is news once: a worker wakes for every epoch its home
    // slot goes through, whether or not the tid is still there to claim.
    let mut served = epoch_of(slot.load());
    let mut lost = 0u32;
    loop {
        sh.idle.wait(None, || {
            epoch_of(slot.load()) != served || sh.shutdown.load(Ordering::SeqCst)
        });
        if sh.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let seen = slot.load();
        served = epoch_of(seen);
        // Idle-death window (no claim held): an injected panic here
        // kills the worker without stranding any tid; the coordinator
        // absorbs the open slot and the periodic sweep respawns.
        failpoint::hit("omprt.worker.wake");
        // The slot may already be taken (the coordinator absorbs tids
        // while workers wake). A worker that keeps losing its tid is not
        // needed — the regions are over before it can help, or the
        // coordinator always gets there first, as it does for tid 0 —
        // and each look it takes at the line costs the coordinator a
        // transfer to write it again. So it stays away for twice as many
        // yields each time, and polls at full speed again once it wins.
        if execute(&sh, w, seen, w as u16) {
            lost = 0;
        } else {
            lost = (lost + 1).min(MAX_LOSS_BACKOFF);
            for _ in 0..1u32 << lost {
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    fn all_schedules() -> Vec<Schedule> {
        vec![
            Schedule::static_default(),
            Schedule::Static { chunk: Some(3) },
            Schedule::dynamic_default(),
            Schedule::Dynamic { chunk: 8 },
            Schedule::Guided { min_chunk: 2 },
        ]
    }

    #[test]
    fn every_iteration_exactly_once() {
        let pool = ThreadPool::new(4);
        for sched in all_schedules() {
            for n in [0usize, 1, 17, 256] {
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                pool.parallel_for(n, sched, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "{sched} n={n}"
                );
            }
        }
    }

    #[test]
    fn reduction_matches_serial() {
        let pool = ThreadPool::new(3);
        let n = 1000usize;
        for sched in all_schedules() {
            let sum = pool.parallel_for_reduce(n, sched, 0u64, |a, i| a + i as u64, |a, b| a + b);
            assert_eq!(sum, (n as u64 - 1) * n as u64 / 2, "{sched}");
        }
    }

    #[test]
    fn pool_reusable_across_regions() {
        let pool = ThreadPool::new(2);
        let total = AtomicU64::new(0);
        for _ in 0..50 {
            pool.parallel_for(10, Schedule::dynamic_default(), |i| {
                total.fetch_add(i as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 50 * 45);
    }

    #[test]
    fn run_gives_each_thread_its_id() {
        let pool = ThreadPool::new(4);
        let seen: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.run(|tid| {
            seen[tid].fetch_add(1, Ordering::Relaxed);
        });
        assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = ThreadPool::new(1);
        let mut out = vec![0u32; 8];
        let ptr = crate::sendptr::SendPtr::new(out.as_mut_ptr());
        pool.parallel_for(8, Schedule::static_default(), |i| unsafe {
            *ptr.get().add(i) = i as u32;
        });
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    /// `parallel_for` and `parallel_for_reduce` share `drive`, so their
    /// schedule behaviour is identical by construction; this pins the
    /// guided path specifically (it used to silently degrade to
    /// `Dynamic { chunk: min_chunk }` in the reduce).
    #[test]
    fn reduce_and_for_share_guided_claims() {
        // Single worker: the claim sequence is deterministic. Record the
        // ranges `drive` hands out and check they shrink geometrically.
        let n = 1024usize;
        let cursor = AtomicUsize::new(0);
        let mut ranges = Vec::new();
        drive(
            Schedule::Guided { min_chunk: 2 },
            n,
            4,
            0,
            &cursor,
            None,
            |s, e| {
                ranges.push((s, e));
                true
            },
        );
        assert!(ranges.len() > 4, "guided must issue many shrinking claims");
        let first = ranges[0].1 - ranges[0].0;
        assert_eq!(first, guided_claim(n, 4, 2), "first claim is remaining/2t");
        assert!(first > 2, "first claim is far above min_chunk");
        let mut last = usize::MAX;
        let mut covered = 0;
        for &(s, e) in &ranges {
            assert_eq!(s, covered, "claims are contiguous");
            assert!(e - s <= last);
            last = e - s;
            covered = e;
        }
        assert_eq!(covered, n);
        // And the public reduce over guided still folds every index once.
        let pool = ThreadPool::new(4);
        let sum = pool.parallel_for_reduce(
            n,
            Schedule::Guided { min_chunk: 2 },
            0u64,
            |a, i| a + i as u64,
            |a, b| a + b,
        );
        assert_eq!(sum, (n as u64 - 1) * n as u64 / 2);
    }

    #[test]
    fn dynamic_batching_still_covers_exactly_once() {
        // Large n with chunk 1 exercises the batched-claim path.
        let pool = ThreadPool::new(4);
        let n = 100_000usize;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(n, Schedule::dynamic_default(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn try_run_reports_job_panics_as_values() {
        let pool = ThreadPool::new(2);
        let err = pool
            .try_run(|tid| {
                if tid == 1 {
                    panic!("kaboom {tid}");
                }
            })
            .expect_err("must report the panic");
        match err {
            RegionError::Panicked { detail } => assert!(detail.contains("kaboom"), "{detail}"),
            other => panic!("wrong error: {other:?}"),
        }
        assert_eq!(pool.health().job_panics, 1);
        // Still healthy afterwards.
        assert!(pool.try_run(|_| {}).is_ok());
    }

    #[test]
    fn deadline_cancels_cooperative_loops() {
        let pool = ThreadPool::new(2);
        let cancel = CancelToken::new();
        let done = AtomicUsize::new(0);
        let err = pool.parallel_for_deadline(
            1_000_000,
            Schedule::Dynamic { chunk: 1 },
            &cancel,
            Duration::from_millis(5),
            |_| {
                done.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(50));
            },
        );
        assert_eq!(err, Err(RegionError::DeadlineExceeded));
        assert!(cancel.is_cancelled());
        let ran = done.load(Ordering::Relaxed);
        assert!(ran > 0, "some iterations ran before the trip");
        assert!(ran < 1_000_000, "the deadline pruned the space");
        assert_eq!(pool.health().deadline_cancels, 1);
    }

    #[test]
    fn generous_deadline_is_not_an_error() {
        let pool = ThreadPool::new(2);
        let cancel = CancelToken::new();
        let r = pool.parallel_for_deadline(
            100,
            Schedule::static_default(),
            &cancel,
            Duration::from_secs(60),
            |_| {},
        );
        assert!(r.is_ok(), "{r:?}");
        assert!(!cancel.is_cancelled());
    }

    #[test]
    fn slot_words_round_trip() {
        for (epoch, who, state) in [
            (7u64, 3u16, STARTED),
            (EPOCH_MASK, COORD, DONE),
            ((1 << 46) - 1, 65_000, OPEN),
        ] {
            let w = word(epoch, who, state);
            assert_eq!(epoch_of(w), epoch);
            assert_eq!(who_of(w), who);
            assert_eq!(state_of(w), state);
        }
        assert_eq!(std::mem::align_of::<Slot>(), 64);
        assert_eq!(std::mem::size_of::<Slot>(), 64);
    }

    /// One slot between two atomic accesses of its opener-and-stealer
    /// (next step `coord`: open, look, claim, start, run-and-finish, join)
    /// and its home worker (`worker`: watch, claim, start, run, finish).
    #[derive(Clone, Default, PartialEq, Eq, Hash, Debug)]
    struct Model {
        word: u64,
        coord: u8,
        epoch: usize,
        coord_seen: u64,
        worker: u8,
        worker_seen: u64,
        served: u64,
        /// Per epoch: times the job ran, and whether it was given up.
        ran: [u8; 3],
        lost: [bool; 3],
    }

    const HOME: u16 = 0;
    const EPOCHS: usize = 2;
    const JOIN: u8 = 5;
    const END: u8 = 6;
    const DEAD: u8 = 5;

    fn done(w: u64, epoch: usize) -> bool {
        epoch_of(w) == epoch as u64 && state_of(w) == DONE
    }

    /// Every state one step of either party leads to, each step applying
    /// the real `Slot` operation to the model's word.
    fn successors(m: &Model, slot: &Slot) -> Vec<Model> {
        let mut out = Vec::new();
        let mut step = |f: &dyn Fn(&mut Model)| {
            slot.word.store(m.word, Ordering::SeqCst);
            let mut next = m.clone();
            f(&mut next);
            next.word = slot.load();
            assert!(epoch_of(next.word) >= epoch_of(m.word), "{m:?}");
            assert!(next.ran.iter().all(|&r| r <= 1), "a tid ran twice: {m:?}");
            out.push(next);
        };
        let e = m.epoch as u64;
        match m.coord {
            0 => step(&|n| {
                slot.open(e, NO_JOB);
                n.coord = 1;
            }),
            1 => step(&|n| {
                n.coord_seen = slot.load();
                n.coord = if state_of(n.coord_seen) == OPEN {
                    2
                } else {
                    JOIN
                };
            }),
            2 => step(&|n| {
                n.coord = if slot.claim(n.coord_seen, COORD) {
                    3
                } else {
                    JOIN
                }
            }),
            3 => step(&|n| {
                slot.start(e, COORD);
                n.coord = 4;
            }),
            4 => step(&|n| {
                n.ran[n.epoch] += 1;
                assert!(slot.finish(e, COORD), "nobody else moves our slot: {n:?}");
                n.coord = JOIN;
            }),
            JOIN => {
                if done(m.word, m.epoch) {
                    step(&|n| {
                        assert!(
                            n.ran[n.epoch] == 1 || n.lost[n.epoch],
                            "joined unrun: {n:?}"
                        );
                        n.epoch += 1;
                        n.coord = if n.epoch > EPOCHS { END } else { 0 };
                    });
                }
                // The watchdog's two edges. It reclaims only from a dead
                // worker (a live one would go on to `start`); it may give
                // a started tid up on a live one too — a false verdict
                // the word protocol must survive, and the only way to
                // get a straggler.
                if who_of(m.word) == HOME && state_of(m.word) == CLAIMED && m.worker == DEAD {
                    step(&|n| {
                        assert!(slot.reclaim(n.word));
                        n.coord = 4;
                    });
                }
                if who_of(m.word) == HOME && state_of(m.word) == STARTED {
                    step(&|n| {
                        slot.abandon(e);
                        n.lost[n.epoch] = true;
                    });
                }
            }
            _ => {}
        }
        let we = epoch_of(m.worker_seen);
        match m.worker {
            0 if epoch_of(m.word) != m.served => step(&|n| {
                n.worker_seen = slot.load();
                n.served = epoch_of(n.worker_seen);
                n.worker = u8::from(state_of(n.worker_seen) == OPEN);
            }),
            1 => step(&|n| {
                let stale = epoch_of(n.word) != we;
                n.worker = if slot.claim(n.worker_seen, HOME) {
                    2
                } else {
                    0
                };
                assert!(
                    !(stale && n.worker == 2),
                    "claimed into a dead region: {n:?}"
                );
            }),
            2 => step(&|n| {
                slot.start(we, HOME);
                n.worker = 3;
            }),
            3 => step(&|n| {
                n.ran[we as usize] += 1;
                n.worker = 4;
            }),
            4 => step(&|n| {
                let landed = slot.finish(we, HOME);
                assert_eq!(landed, !n.lost[we as usize], "{n:?}");
                n.worker = 0;
            }),
            _ => {}
        }
        // The three windows a worker can die in: claimed, started, and
        // run but not yet reported.
        if (2..=4).contains(&m.worker) {
            step(&|n| n.worker = DEAD);
        }
        out
    }

    /// Every order of the loads, stores and CASes of an opener that also
    /// steals, and of the slot's home worker, over two consecutive
    /// epochs, with the worker free to die in any fault window: exactly
    /// one claimer runs each epoch's job, a claim against a stale epoch
    /// fails, a `DONE` of epoch e never lands on epoch e+1, and the
    /// coordinator always gets to the end.
    #[test]
    fn slot_protocol_holds_under_every_interleaving() {
        let slot = Slot::new();
        let start = Model {
            word: slot.load(),
            epoch: 1,
            ..Model::default()
        };
        let mut seen = std::collections::HashSet::new();
        let mut todo = vec![start];
        // Among what the walk must reach: an epoch given up on a worker
        // that lives to see the next one joined cleanly.
        let mut straggled = false;
        while let Some(m) = todo.pop() {
            if !seen.insert(m.clone()) {
                continue;
            }
            let next = successors(&m, &slot);
            if next.is_empty() {
                assert_eq!(m.coord, END, "stuck before the end: {m:?}");
                assert!(done(m.word, EPOCHS), "{m:?}");
                straggled |= m.lost[1] && !m.lost[2] && m.worker == 0;
            }
            todo.extend(next);
        }
        assert!(straggled);
    }
}
