//! Request/response surface of the analysis service.
//!
//! A request either asks for *analysis only* (hand back the program
//! report for C source or pre-lowered IR) or for a *guarded kernel
//! execution* (analyze → inspect → guard
//! → dispatch, returning the executed variant and result checksum).
//! Every response carries a [`RequestTelemetry`] so callers can see
//! where their time went without scraping the global trace ring.

use std::time::Duration;
use subsub_core::{AlgorithmLevel, ProgramReport};
use subsub_rtcheck::{ExecError, GuardPath};

/// What the caller wants done.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Parse + lower + analyze a C-subset translation unit.
    AnalyzeSource {
        /// The C-subset source text.
        source: String,
        /// Analysis level to run at.
        level: AlgorithmLevel,
    },
    /// Analyze pre-lowered IR nests (no parse step).
    AnalyzeLowered {
        /// The lowered functions.
        funcs: Vec<subsub_ir::LoweredFunction>,
        /// Analysis level to run at.
        level: AlgorithmLevel,
    },
    /// Run a registered kernel dataset through the full
    /// analyze → inspect → guard → dispatch path.
    Execute {
        /// Registered kernel name (see [`crate::KernelRegistry`]).
        kernel: String,
        /// Dataset name within the kernel.
        dataset: String,
    },
}

impl Payload {
    /// Short label for telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            Payload::AnalyzeSource { .. } => "analyze-source",
            Payload::AnalyzeLowered { .. } => "analyze-lowered",
            Payload::Execute { .. } => "execute",
        }
    }

    /// Content fingerprint identifying this payload for the poison
    /// quarantine ([`crate::quarantine::Quarantine`]): resubmissions of
    /// the same hostile input hash to the same key regardless of which
    /// client sends them. FNV-1a over the payload kind and its
    /// identity-bearing content (source text / nest shape / kernel and
    /// dataset names).
    pub fn poison_key(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(self.label().as_bytes());
        match self {
            Payload::AnalyzeSource { source, level } => {
                eat(source.as_bytes());
                eat(format!("{level:?}").as_bytes());
            }
            Payload::AnalyzeLowered { funcs, level } => {
                // Lowered IR carries no canonical serialization; the
                // function names plus nest counts are identity enough
                // to stop verbatim resubmission of a poison input.
                for f in funcs {
                    eat(f.name.as_bytes());
                    eat(&(f.body.len() as u64).to_le_bytes());
                }
                eat(format!("{level:?}").as_bytes());
            }
            Payload::Execute { kernel, dataset } => {
                eat(kernel.as_bytes());
                eat(b":");
                eat(dataset.as_bytes());
            }
        }
        h
    }
}

/// One unit of work submitted by a client.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller identity for fairness accounting. Callers sharing an id
    /// share one in-flight budget.
    pub client: String,
    /// The work itself.
    pub payload: Payload,
    /// Lifetime budget, measured from admission. A request still
    /// unfinished when the budget runs out is cancelled at the next
    /// cooperative boundary and answered [`ServiceError::Expired`].
    /// `None`: the request never expires.
    pub deadline: Option<Duration>,
}

impl Request {
    /// A request with no deadline of its own.
    pub fn new(client: impl Into<String>, payload: Payload) -> Request {
        Request {
            client: client.into(),
            payload,
            deadline: None,
        }
    }

    /// Sets the lifetime budget.
    pub fn with_deadline(mut self, deadline: Duration) -> Request {
        self.deadline = Some(deadline);
        self
    }
}

/// Why admission control refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded queue was full.
    QueueFull,
    /// The caller already has its fair share of in-flight requests.
    FairnessCap,
    /// Some kernel is being kept serial by its breaker and the queue is
    /// at half capacity.
    Degraded,
    /// The service is shutting down.
    Shutdown,
    /// The payload's identity is quarantined after repeated faulting
    /// completions and its probe backoff has not elapsed (or a probe is
    /// already in flight).
    Quarantined,
    /// The payload exceeds the frontend parse budget (e.g. source text
    /// larger than `max_input_bytes`) — refused before queueing so an
    /// oversized body can't occupy a worker at all.
    OverBudget,
}

impl ShedReason {
    /// Stable numeric code carried in the `service_shed` telemetry arg.
    pub fn code(self) -> u64 {
        match self {
            ShedReason::QueueFull => 1,
            ShedReason::FairnessCap => 2,
            ShedReason::Degraded => 3,
            ShedReason::Shutdown => 4,
            ShedReason::Quarantined => 5,
            ShedReason::OverBudget => 6,
        }
    }
}

/// Number of shed reasons (sizes the per-reason counters).
pub const NUM_SHED_REASONS: usize = 6;

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::QueueFull => write!(f, "queue full"),
            ShedReason::FairnessCap => write!(f, "fairness cap"),
            ShedReason::Degraded => write!(f, "degraded"),
            ShedReason::Shutdown => write!(f, "shutdown"),
            ShedReason::Quarantined => write!(f, "quarantined"),
            ShedReason::OverBudget => write!(f, "over budget"),
        }
    }
}

/// Terminal failure of a request (distinct from a guarded execution
/// that *degraded* — degradation still yields an [`Outcome::Executed`]
/// with a serial path).
#[derive(Debug, Clone)]
pub enum ServiceError {
    /// Admission control refused the request.
    Shed(ShedReason),
    /// The C front end or lowering rejected the program. This is the
    /// client's own bad input: it never counts as a worker fault and
    /// never contributes a quarantine strike.
    Rejected {
        /// Stable machine-readable code (a `DiagCode` kebab name such
        /// as `"parse-unexpected-token"`, or `"lower"`,
        /// `"missing-function"`, `"check-not-executable"`).
        code: String,
        /// Human-readable diagnostic, rendered with source position
        /// where one exists.
        detail: String,
    },
    /// Unknown kernel or dataset name.
    UnknownKernel {
        /// The offending name.
        name: String,
    },
    /// The guarded execution failed terminally (both parallel and
    /// serial rescue unavailable).
    Failed(ExecError),
    /// The response channel was abandoned (service dropped mid-flight).
    Canceled,
    /// The request's deadline passed before a response was produced;
    /// any partial work was cancelled and discarded.
    Expired,
    /// The waiter abandoned the ticket (dropped it or timed out); the
    /// job was cancelled and its fairness slot released.
    Abandoned,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Shed(r) => write!(f, "request shed: {r}"),
            ServiceError::Rejected { code, detail } => {
                write!(f, "program rejected [{code}]: {detail}")
            }
            ServiceError::UnknownKernel { name } => write!(f, "unknown kernel/dataset: {name}"),
            ServiceError::Failed(e) => write!(f, "execution failed: {e}"),
            ServiceError::Canceled => write!(f, "request canceled"),
            ServiceError::Expired => write!(f, "request deadline expired"),
            ServiceError::Abandoned => write!(f, "request abandoned by its waiter"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// The useful part of a successful response.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Analysis-only request: the program report.
    Analyzed(ProgramReport),
    /// Execution request: what ran and what it produced.
    Executed {
        /// Guard path actually taken.
        path: GuardPath,
        /// Kernel output checksum (for divergence checking).
        checksum: f64,
        /// Why the run did not finish parallel, when it did not: `path`
        /// is `Serial` exactly when this is `Some`. A request the service
        /// itself kept serial — its `Serialized` cooldown, a quarantine
        /// probe — says [`ExecError::Serialized`].
        degraded: Option<ExecError>,
    },
}

/// Per-request accounting returned with every response.
#[derive(Debug, Clone, Default)]
pub struct RequestTelemetry {
    /// Time spent waiting in the admission queue.
    pub queued: Duration,
    /// Time spent in the worker (analysis + inspection + execution).
    pub service: Duration,
    /// True when the request was kept serial by policy rather than by
    /// its data: a quarantine probe, or an `Execute` its kernel's open
    /// breaker denied.
    pub serialized: bool,
}

/// A completed request: outcome or error, plus accounting.
#[derive(Debug, Clone)]
pub struct Response {
    /// What happened.
    pub result: Result<Outcome, ServiceError>,
    /// Where the time went.
    pub telemetry: RequestTelemetry,
}
