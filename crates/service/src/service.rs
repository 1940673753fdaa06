//! The long-lived analysis service: bounded admission queue and worker
//! threads multiplexed over one shared omprt pool.
//!
//! ## Request lifecycle
//!
//! `submit` walks the admission ladder under the queue lock —
//! shutdown → queue bound → per-client fairness cap → poison
//! quarantine → degradation shed — and either returns a [`ShedReason`]
//! immediately or enqueues the job and hands back a [`Ticket`]. A
//! worker dequeues, stamps the queue wait, executes the payload (a
//! quarantine probe serial-only) with the job's cancel token
//! installed as the ambient token, and fulfills the ticket with a
//! [`Response`] carrying per-request telemetry. Kernel executions flow
//! through [`KernelRegistry`], whose entries hold the only verdict state
//! there is (each plan's executor memo); every parallel region of every
//! request shares the single omprt pool, whose nested-region degradation
//! makes concurrent multiplexing safe by construction.
//!
//! Full state machine (see DESIGN.md §8):
//!
//! ```text
//! submit ──shed──────────────────────────────▶ Shed(reason)
//!   │
//!   ▼
//! Queued ──reaped (janitor / ticket drop)────▶ Expired | Abandoned
//!   │
//!   ▼
//! Running ──token tripped, worker settles────▶ Expired | Abandoned
//!   │
//!   ▼
//! Done (Ok | Rejected | Failed)  [probe: settles the quarantine]
//! ```
//!
//! ## Deadlines, abandonment, and the janitor
//!
//! Every [`crate::Request`] may carry a deadline; the absolute doom
//! instant is stamped at admission. A dedicated *janitor* thread ticks
//! every 2 ms (the bound on how stale a deadline trip or queued-job
//! reap can be): it trips the cancel token of
//! any running job past its deadline (the ambient-token plumbing stops
//! the job's parallel regions at the next cooperative boundary), reaps
//! doomed jobs still in the queue (typed response, fairness slot
//! freed). Ticket abandonment (drop or timed-out wait) additionally
//! reaps synchronously, so a saturated queue of abandoned tickets frees
//! its slots without waiting a tick.
//!
//! ## Degradation
//!
//! The service keeps no degradation state of its own. A kernel whose
//! parallel path keeps faulting is kept serial by *its own* health word
//! (`subsub_rtcheck::Health`, inside the kernel's `GuardedExecutor`):
//! three consecutive faults open it, its next eight `Execute`s are
//! denied up front and say so (`degraded: Some(ExecError::BreakerOpen)`,
//! counted in [`ServiceStats::serialized_requests`]), then a trial
//! decides. Other kernels run parallel throughout. No cooldown follows a
//! worker death either: the pool's `ensure_workers` respawns
//! synchronously after the join that saw it, so the next region already
//! has its team. What the service adds is admission: while any
//! registered kernel's health is not closed, a queue at half capacity
//! sheds new work as `Degraded` instead of letting latency balloon
//! behind serial runs. Identities that keep *causing* faults are handled
//! by the [`Quarantine`] ladder; which completions strike, clear or
//! leave an identity alone is one table, `ExecError::settle`
//! (DESIGN.md §5c).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};
use subsub_cfront::ParseBudget;
use subsub_core::{analyze_lowered, analyze_program_with, AlgorithmLevel, AnalyzeError};
use subsub_failpoint::{self as failpoint, Action};
use subsub_omprt::cancel::with_ambient_cancel;
use subsub_omprt::ThreadPool;
use subsub_rtcheck::{ExecError, Settle};
use subsub_telemetry as telemetry;
use subsub_telemetry::{EventKind, Phase, SpanGuard};

use crate::exec::KernelRegistry;
use crate::lifecycle::{Doom, JobControl, RunningSet};
use crate::quarantine::{Admission, Quarantine, QuarantineConfig, QuarantineStats};
use crate::request::{
    Outcome, Payload, Request, RequestTelemetry, Response, ServiceError, ShedReason,
    NUM_SHED_REASONS,
};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Janitor scan period: the bound on how stale a deadline trip or
/// queued-job reap can be.
const JANITOR_TICK: Duration = Duration::from_millis(2);

/// Tunables for one [`AnalysisService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads draining the queue (≥1).
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it shed `QueueFull`.
    pub queue_capacity: usize,
    /// Max in-flight (queued + executing) requests per client id;
    /// submissions beyond it shed `FairnessCap`.
    pub fairness_cap: usize,
    /// Analysis level for kernel requests.
    pub level: AlgorithmLevel,
    /// Threads in the shared omprt pool.
    pub pool_threads: usize,
    /// Poison-quarantine ladder tunables.
    pub quarantine: QuarantineConfig,
    /// Frontend resource limits applied to `AnalyzeSource` payloads:
    /// oversized sources shed [`ShedReason::OverBudget`] at admission,
    /// and the lexer/parser enforce the token/depth/node bounds while
    /// the request runs.
    pub parse_budget: ParseBudget,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            fairness_cap: 8,
            level: AlgorithmLevel::New,
            pool_threads: 3,
            quarantine: QuarantineConfig::default(),
            parse_budget: ParseBudget::DEFAULT,
        }
    }
}

/// Cumulative service counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests completed (fulfilled tickets).
    pub completed: u64,
    /// Requests shed at admission, by reason code order (queue-full,
    /// fairness, degraded, shutdown, quarantined, over-budget).
    pub shed: [u64; NUM_SHED_REASONS],
    /// High-water mark of concurrently in-flight requests.
    pub max_inflight: u64,
    /// Requests kept serial by policy: quarantine probes, and
    /// `Execute`s denied by their kernel's open breaker.
    pub serialized_requests: u64,
    /// Requests answered [`ServiceError::Expired`].
    pub expired: u64,
    /// Requests answered [`ServiceError::Abandoned`].
    pub abandoned: u64,
    /// Doomed jobs reaped from the queue before reaching a worker.
    pub reaped_queued: u64,
    /// Quarantine-ladder counters.
    pub quarantine: QuarantineStats,
    /// Verdict-memo lookups, summed over every registered kernel's
    /// executor (`GuardStats::cache`).
    pub cache: ShardStats,
}

/// How the verdict lookups of [`ServiceStats::cache`] were answered.
/// The name and the two fields that always read 0 are pinned by
/// `benchmark/README.md`'s API-surface manifest: `warm_hits` counted
/// snapshot-loaded entries and `coalesced` single-flight waits, neither
/// of which exists any more (ROADMAP has the follow-up).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Lookups served from an executor's memo.
    pub hits: u64,
    /// Always 0.
    pub warm_hits: u64,
    /// Always 0.
    pub coalesced: u64,
    /// Lookups that recombined an array's block summaries.
    pub misses: u64,
}

impl ShardStats {
    /// Fraction of lookups served from a memo (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        match self.hits + self.misses {
            0 => 0.0,
            total => self.hits as f64 / total as f64,
        }
    }
}

impl ServiceStats {
    /// Total shed count.
    pub fn total_shed(&self) -> u64 {
        self.shed.iter().sum()
    }
}

/// One completed response slot, fulfilled exactly once.
struct ResponseSlot {
    state: Mutex<Option<Response>>,
    cv: Condvar,
}

impl ResponseSlot {
    fn new() -> ResponseSlot {
        ResponseSlot {
            state: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn fulfill(&self, response: Response) {
        let mut st = lock(&self.state);
        if st.is_none() {
            *st = Some(response);
        }
        self.cv.notify_all();
    }
}

/// Handle to a submitted request. Dropping the ticket without receiving
/// its response *abandons* the request: the job's cancel token trips, a
/// queued job is reaped immediately (fairness slot freed), and a
/// running one stops at its next cooperative boundary — its typed
/// [`ServiceError::Abandoned`] response goes to no one, but the
/// accounting is always settled.
pub struct Ticket {
    slot: Arc<ResponseSlot>,
    control: Arc<JobControl>,
    inner: Weak<Inner>,
    received: bool,
}

impl Ticket {
    /// Blocks until the response is ready. An expired request resolves
    /// with [`ServiceError::Expired`] within a janitor tick plus one
    /// cooperative cancellation interval — never unboundedly.
    pub fn wait(mut self) -> Response {
        let mut st = lock(&self.slot.state);
        loop {
            if let Some(r) = st.take() {
                drop(st);
                self.received = true;
                return r;
            }
            st = self.slot.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocks up to `timeout`; `None` abandons the request (see the
    /// type docs) — the job stops consuming service time and its
    /// fairness slot frees, so a caller that gave up cannot wedge
    /// admission for its client id.
    pub fn wait_timeout(mut self, timeout: Duration) -> Option<Response> {
        let deadline = Instant::now() + timeout;
        let mut st = lock(&self.slot.state);
        loop {
            if let Some(r) = st.take() {
                drop(st);
                self.received = true;
                return Some(r);
            }
            let now = Instant::now();
            if now >= deadline {
                // Dropping `self` below runs the abandonment path.
                return None;
            }
            let (guard, _) = self
                .slot
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if self.received {
            return;
        }
        self.control.abandon();
        if let Some(inner) = self.inner.upgrade() {
            inner.reap_queued(&self.control);
        }
    }
}

struct Job {
    request: Request,
    slot: Arc<ResponseSlot>,
    enqueued_at: Instant,
    control: Arc<JobControl>,
    /// Quarantine-probe job: forced serial, settles the probe slot.
    probe: bool,
    poison_key: u64,
    /// Taken and dropped at dequeue: records the queue wait into the
    /// telemetry histogram for `Phase::Queue`.
    queue_span: Option<SpanGuard>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// In-flight (queued + executing) per client id.
    per_client: HashMap<String, usize>,
    inflight: u64,
    shutdown: bool,
}

struct Inner {
    cfg: ServiceConfig,
    queue: Mutex<QueueState>,
    jobs_cv: Condvar,
    registry: KernelRegistry,
    pool: Arc<ThreadPool>,
    running: RunningSet,
    quarantine: Quarantine,
    admitted: AtomicU64,
    completed: AtomicU64,
    shed: [AtomicU64; NUM_SHED_REASONS],
    max_inflight: AtomicU64,
    serialized_requests: AtomicU64,
    expired: AtomicU64,
    abandoned: AtomicU64,
    reaped_queued: AtomicU64,
    draining: AtomicBool,
    janitor_stop: Mutex<bool>,
    janitor_cv: Condvar,
}

impl Inner {
    fn note_shed(&self, reason: ShedReason) {
        let idx = (reason.code() - 1) as usize;
        self.shed[idx].fetch_add(1, Ordering::Relaxed);
        telemetry::instant(EventKind::ServiceShed, Phase::Service, 0, reason.code());
    }

    fn note_doom(&self, doom: Doom) {
        match doom {
            Doom::Expired => self.expired.fetch_add(1, Ordering::Relaxed),
            Doom::Abandoned => self.abandoned.fetch_add(1, Ordering::Relaxed),
        };
        telemetry::instant(EventKind::RequestExpired, Phase::Service, 0, doom.code());
    }

    /// Releases one job's admission accounting (in-flight count +
    /// per-client fairness slot). Called exactly once per admitted job:
    /// by the worker that settled it, or by the reaper that removed it
    /// from the queue.
    fn release_accounting(&self, client: &str) {
        let mut q = lock(&self.queue);
        q.inflight = q.inflight.saturating_sub(1);
        if let Some(n) = q.per_client.get_mut(client) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                q.per_client.remove(client);
            }
        }
    }

    /// Fulfills a doomed job's slot with its typed error and settles
    /// all accounting. The job must already be out of the queue.
    fn finish_doomed(&self, job: &Job, doom: Doom, queued: Duration) {
        self.note_doom(doom);
        if job.probe {
            self.quarantine.abort_probe(job.poison_key);
        }
        // Counted before it is handed over: a client that holds its
        // response finds it in `stats().completed`.
        self.completed.fetch_add(1, Ordering::Relaxed);
        job.slot.fulfill(Response {
            result: Err(doom.error()),
            telemetry: RequestTelemetry {
                queued,
                ..RequestTelemetry::default()
            },
        });
        self.release_accounting(&job.request.client);
    }

    /// Removes a specific still-queued job (abandoned-ticket path) and
    /// settles it. No-op if a worker already claimed it.
    fn reap_queued(&self, control: &Arc<JobControl>) {
        let job = {
            let mut q = lock(&self.queue);
            let at = q.jobs.iter().position(|j| Arc::ptr_eq(&j.control, control));
            at.and_then(|i| q.jobs.remove(i))
        };
        if let Some(job) = job {
            let doom = job.control.doom().unwrap_or(Doom::Abandoned);
            self.reaped_queued.fetch_add(1, Ordering::Relaxed);
            self.finish_doomed(&job, doom, job.enqueued_at.elapsed());
        }
    }

    /// Janitor sweep: removes every doomed job from the queue.
    fn reap_doomed_queue(&self) {
        loop {
            let job = {
                let mut q = lock(&self.queue);
                let at = q.jobs.iter().position(|j| j.control.doom().is_some());
                at.and_then(|i| q.jobs.remove(i))
            };
            let Some(job) = job else { break };
            let doom = job.control.doom().unwrap_or(Doom::Expired);
            self.reaped_queued.fetch_add(1, Ordering::Relaxed);
            self.finish_doomed(&job, doom, job.enqueued_at.elapsed());
        }
    }

    fn execute_payload(&self, job: &Job) -> Result<Outcome, ServiceError> {
        // Chaos site: a worker faulting at dispatch — before the payload
        // machinery runs. Panic arms land in the worker's catch_unwind
        // and surface as a classified Failed response.
        failpoint::hit("service.worker.dispatch");
        let cancel = Some(job.control.cancel_token());
        match &job.request.payload {
            Payload::AnalyzeSource { source, level } => {
                // Ambient cancel makes the job's deadline reach the
                // lex/parse loops, which poll it cooperatively.
                let analyzed = with_ambient_cancel(job.control.cancel_token(), || {
                    analyze_program_with(source, *level, &self.cfg.parse_budget)
                });
                match analyzed {
                    Ok(report) => Ok(Outcome::Analyzed(report)),
                    // A parse abandoned because the deadline fired is the
                    // service's timeout, not the client's bad input.
                    Err(AnalyzeError::Parse(d)) if d.is_cancelled() => Err(ServiceError::Expired),
                    Err(e) => {
                        let arg = match &e {
                            AnalyzeError::Parse(d) => u64::from(d.code.code()),
                            AnalyzeError::Lower { .. } => 0,
                        };
                        telemetry::instant(EventKind::FrontendReject, Phase::Service, 0, arg);
                        Err(ServiceError::Rejected {
                            code: e.code().to_string(),
                            detail: e.to_string(),
                        })
                    }
                }
            }
            Payload::AnalyzeLowered { funcs, level } => {
                Ok(Outcome::Analyzed(analyze_lowered(funcs, *level)))
            }
            // A quarantine probe is serial by construction.
            Payload::Execute { kernel, dataset } => self
                .registry
                .entry(kernel, dataset)
                .and_then(|e| e.execute(&self.pool, job.probe, cancel)),
        }
    }

    /// How a settled (non-doomed) completion moves the quarantine
    /// ladder. A run that ended serial settles by its reason's row of
    /// `ExecError::settle`; beyond that table, terminal failures strike,
    /// deterministic results (including rejections, which cost nothing
    /// parallel) are clean, and cancelled runs prove nothing.
    fn classify_settle(result: &Result<Outcome, ServiceError>) -> Settle {
        match result {
            Ok(Outcome::Executed {
                degraded: Some(reason),
                ..
            }) => reason.settle(),
            Ok(_) => Settle::Clean,
            Err(ServiceError::Failed(_)) => Settle::Strike,
            Err(ServiceError::Rejected { .. } | ServiceError::UnknownKernel { .. }) => {
                Settle::Clean
            }
            Err(
                ServiceError::Canceled
                | ServiceError::Expired
                | ServiceError::Abandoned
                | ServiceError::Shed(_),
            ) => Settle::Neutral,
        }
    }

    fn settle_quarantine(&self, job: &Job, settle: &Settle) {
        match settle {
            Settle::Clean => self.quarantine.record_clean(job.poison_key),
            Settle::Strike => {
                self.quarantine
                    .record_strike(job.poison_key, Instant::now());
            }
            Settle::Neutral => {
                if job.probe {
                    self.quarantine.abort_probe(job.poison_key);
                }
            }
        }
    }

    fn worker_loop(&self) {
        loop {
            let mut job = {
                let mut q = lock(&self.queue);
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        break job;
                    }
                    if q.shutdown {
                        return;
                    }
                    q = self.jobs_cv.wait(q).unwrap_or_else(|e| e.into_inner());
                }
            };
            let queued = job.enqueued_at.elapsed();
            drop(job.queue_span.take());
            // Doomed at dequeue (expired in the queue between janitor
            // ticks, or abandoned racing the pop): settle without
            // spending any worker time.
            if let Some(doom) = job.control.doom() {
                self.finish_doomed(&job, doom, queued);
                continue;
            }
            let started = Instant::now();
            let _service_span =
                telemetry::span_labeled(Phase::Service, job.request.payload.label());
            self.running.register(&job.control);
            // A panicking payload must not take the worker down with it:
            // the queue would lose a drainer and eventually wedge.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.execute_payload(&job)
            }))
            .unwrap_or_else(|_| {
                Err(ServiceError::Failed(ExecError::ParallelFault {
                    detail: "request processing panicked".into(),
                }))
            });
            self.running.unregister(&job.control);
            // Kept serial by policy, not by the data: a probe, or a run
            // its kernel's open breaker denied.
            let serialized = job.probe
                || matches!(
                    outcome,
                    Ok(Outcome::Executed {
                        degraded: Some(ExecError::BreakerOpen { .. }),
                        ..
                    })
                );
            if serialized {
                self.serialized_requests.fetch_add(1, Ordering::Relaxed);
            }
            // A doomed run's result — even a successful one — is
            // replaced by the typed lifecycle error: the waiter is gone
            // or the budget is spent, and partial work must never be
            // mistaken for an answer.
            let (result, settle) = match job.control.doom() {
                Some(doom) => {
                    self.note_doom(doom);
                    (Err(doom.error()), Settle::Neutral)
                }
                None => {
                    let settle = Inner::classify_settle(&outcome);
                    (outcome, settle)
                }
            };
            self.settle_quarantine(&job, &settle);
            let response = Response {
                result,
                telemetry: RequestTelemetry {
                    queued,
                    service: started.elapsed(),
                    serialized,
                },
            };
            self.completed.fetch_add(1, Ordering::Relaxed);
            job.slot.fulfill(response);
            self.release_accounting(&job.request.client);
        }
    }

    /// One janitor tick: trip deadlines of running jobs, reap doomed
    /// queued jobs.
    fn janitor_tick(&self) {
        self.running.trip_doomed();
        self.reap_doomed_queue();
    }

    fn janitor_loop(&self) {
        let mut stop = lock(&self.janitor_stop);
        loop {
            if *stop {
                return;
            }
            drop(stop);
            self.janitor_tick();
            stop = lock(&self.janitor_stop);
            if *stop {
                return;
            }
            let (guard, _) = self
                .janitor_cv
                .wait_timeout(stop, JANITOR_TICK)
                .unwrap_or_else(|e| e.into_inner());
            stop = guard;
        }
    }
}

/// The concurrent analysis front door. See the module docs.
pub struct AnalysisService {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl AnalysisService {
    /// Starts the service: spawns the worker threads and the shared
    /// omprt pool.
    pub fn start(cfg: ServiceConfig) -> AnalysisService {
        let pool = Arc::new(ThreadPool::new(cfg.pool_threads.max(1)));
        AnalysisService::start_with_pool(cfg, pool)
    }

    /// Starts the service over a caller-provided pool (shared with
    /// other subsystems).
    pub fn start_with_pool(cfg: ServiceConfig, pool: Arc<ThreadPool>) -> AnalysisService {
        let inner = Arc::new(Inner {
            registry: KernelRegistry::new(cfg.level),
            pool,
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                per_client: HashMap::new(),
                inflight: 0,
                shutdown: false,
            }),
            jobs_cv: Condvar::new(),
            running: RunningSet::default(),
            quarantine: Quarantine::new(cfg.quarantine.clone()),
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: Default::default(),
            max_inflight: AtomicU64::new(0),
            serialized_requests: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            abandoned: AtomicU64::new(0),
            reaped_queued: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            janitor_stop: Mutex::new(false),
            janitor_cv: Condvar::new(),
            cfg,
        });
        let mut workers: Vec<_> = (0..inner.cfg.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || inner.worker_loop())
            })
            .collect();
        {
            let inner = Arc::clone(&inner);
            workers.push(std::thread::spawn(move || inner.janitor_loop()));
        }
        AnalysisService {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Submits a request, returning a [`Ticket`] or the shed reason.
    pub fn submit(&self, request: Request) -> Result<Ticket, ShedReason> {
        let inner = &self.inner;
        if inner.draining.load(Ordering::Acquire) {
            inner.note_shed(ShedReason::Shutdown);
            return Err(ShedReason::Shutdown);
        }
        // Frontend budget rung: an oversized source is refused before it
        // can occupy queue space or a worker — the lexer would reject it
        // anyway, but only after the bytes sat in the queue.
        if let Payload::AnalyzeSource { source, .. } = &request.payload {
            if source.len() > inner.cfg.parse_budget.max_input_bytes {
                inner.note_shed(ShedReason::OverBudget);
                return Err(ShedReason::OverBudget);
            }
        }
        let poison_key = request.payload.poison_key();
        let mut q = lock(&inner.queue);
        if q.shutdown {
            drop(q);
            inner.note_shed(ShedReason::Shutdown);
            return Err(ShedReason::Shutdown);
        }
        if q.jobs.len() >= inner.cfg.queue_capacity {
            drop(q);
            inner.note_shed(ShedReason::QueueFull);
            return Err(ShedReason::QueueFull);
        }
        let client_load = q.per_client.get(&request.client).copied().unwrap_or(0);
        if client_load >= inner.cfg.fairness_cap {
            drop(q);
            inner.note_shed(ShedReason::FairnessCap);
            return Err(ShedReason::FairnessCap);
        }
        // Poison-quarantine rung: a quarantined identity is admitted
        // only as its single-flight serial probe.
        let probe = match inner.quarantine.admit(poison_key, Instant::now()) {
            Admission::Normal => false,
            Admission::Probe => true,
            Admission::Refused => {
                drop(q);
                inner.note_shed(ShedReason::Quarantined);
                return Err(ShedReason::Quarantined);
            }
        };
        // Degradation shed: while some kernel is being kept serial,
        // refuse to let the queue grow past half capacity — serial
        // execution drains slowly.
        if q.jobs.len() >= inner.cfg.queue_capacity.div_ceil(2) && inner.registry.any_kept_serial()
        {
            drop(q);
            if probe {
                inner.quarantine.abort_probe(poison_key);
            }
            inner.note_shed(ShedReason::Degraded);
            return Err(ShedReason::Degraded);
        }
        // Chaos site: an admission-path fault (allocator pressure, a
        // poisoned queue) modelled as a queue-full shed. Held under the
        // queue lock, so Delay arms model slow admission.
        if !matches!(failpoint::hit("service.queue.push"), Action::Proceed) {
            drop(q);
            if probe {
                inner.quarantine.abort_probe(poison_key);
            }
            inner.note_shed(ShedReason::QueueFull);
            return Err(ShedReason::QueueFull);
        }
        let deadline = request.deadline.map(|d| Instant::now() + d);
        let control = JobControl::new(deadline);
        let slot = Arc::new(ResponseSlot::new());
        let depth = q.jobs.len() as u64 + 1;
        *q.per_client.entry(request.client.clone()).or_insert(0) += 1;
        q.jobs.push_back(Job {
            queue_span: Some(telemetry::span_labeled(Phase::Queue, &request.client)),
            request,
            slot: Arc::clone(&slot),
            enqueued_at: Instant::now(),
            control: Arc::clone(&control),
            probe,
            poison_key,
        });
        q.inflight += 1;
        let inflight = q.inflight;
        drop(q);
        inner.admitted.fetch_add(1, Ordering::Relaxed);
        inner.max_inflight.fetch_max(inflight, Ordering::Relaxed);
        telemetry::instant(EventKind::ServiceAdmit, Phase::Service, 0, depth);
        inner.jobs_cv.notify_one();
        Ok(Ticket {
            slot,
            control,
            inner: Arc::downgrade(&self.inner),
            received: false,
        })
    }

    /// Whether a payload identity is currently quarantined (harness
    /// introspection).
    pub fn is_quarantined(&self, payload: &Payload) -> bool {
        self.inner.quarantine.is_quarantined(payload.poison_key())
    }

    /// The shared omprt pool (for harnesses that co-schedule work).
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.inner.pool
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        let inner = &self.inner;
        let (hits, misses) = inner.registry.memo_lookups();
        let mut shed = [0u64; NUM_SHED_REASONS];
        for (slot, counter) in shed.iter_mut().zip(inner.shed.iter()) {
            *slot = counter.load(Ordering::Relaxed);
        }
        ServiceStats {
            admitted: inner.admitted.load(Ordering::Relaxed),
            completed: inner.completed.load(Ordering::Relaxed),
            shed,
            max_inflight: inner.max_inflight.load(Ordering::Relaxed),
            serialized_requests: inner.serialized_requests.load(Ordering::Relaxed),
            expired: inner.expired.load(Ordering::Relaxed),
            abandoned: inner.abandoned.load(Ordering::Relaxed),
            reaped_queued: inner.reaped_queued.load(Ordering::Relaxed),
            quarantine: inner.quarantine.stats(),
            cache: ShardStats {
                hits,
                misses,
                ..ShardStats::default()
            },
        }
    }

    /// The serial reference checksum for a kernel request (divergence
    /// oracle for harnesses).
    pub fn golden_checksum(&self, kernel: &str, dataset: &str) -> Result<f64, ServiceError> {
        Ok(self
            .inner
            .registry
            .entry(kernel, dataset)?
            .golden_checksum(&self.inner.pool))
    }

    /// Stops admissions, drains queued jobs as `Shed(Shutdown)` errors,
    /// and joins the workers and the janitor.
    pub fn shutdown(&self) {
        self.inner.draining.store(true, Ordering::Release);
        let drained: Vec<Job> = {
            let mut q = lock(&self.inner.queue);
            q.shutdown = true;
            q.per_client.clear();
            q.jobs.drain(..).collect()
        };
        self.inner.jobs_cv.notify_all();
        for job in drained {
            job.slot.fulfill(Response {
                result: Err(ServiceError::Shed(ShedReason::Shutdown)),
                telemetry: RequestTelemetry::default(),
            });
        }
        {
            let mut stop = lock(&self.inner.janitor_stop);
            *stop = true;
        }
        self.inner.janitor_cv.notify_all();
        let handles: Vec<_> = lock(&self.workers).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for AnalysisService {
    fn drop(&mut self) {
        self.shutdown();
    }
}
