//! The traced pass: one span per call into a layer, kept in memory and
//! written as Chrome `trace_event` JSON when the run ends.
//!
//! The spans are recorded by the benchmark around its calls into the
//! crates' public functions; nothing inside the program is instrumented.
//! Every span of one op shares its `op_id`, names the span that caused
//! it (`parent`), and carries the count taken at the same boundary
//! (bytes, tokens, loops — 0 where there is none).

use crate::json::Json;
use std::collections::HashMap;
use std::time::Instant;
use subsub_telemetry::json::Json as Parsed;

/// One recorded span. Times are nanoseconds since the process epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `rtcheck.ingest`.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op_id: u64,
    /// This span's id (unique within the file).
    pub id: u64,
    /// Id of the span that caused this one; 0 for an op's root.
    pub parent: u64,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Count taken at this boundary.
    pub count: u64,
}

/// Ops whose spans are kept for the trace file. Layer numbers
/// use every traced op; the file only needs enough to read.
pub const TRACE_OPS_KEPT: u64 = 256;

/// The client's span store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: u64,
    ops: u64,
    /// The spans kept so far.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty store whose times count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            next: 0,
            ops: 0,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Starts a traced op: returns its id when its spans are to be kept.
    pub fn begin_op(&mut self) -> Option<u64> {
        self.ops += 1;
        (self.ops <= TRACE_OPS_KEPT).then_some(self.ops)
    }

    /// Reserves an id for a span whose end is not known yet (an op's
    /// root is recorded after its children, but must carry a lower id).
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    /// Records a span under a reserved id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        op_id: u64,
        parent: u64,
        start: Instant,
        end: Instant,
        count: u64,
    ) {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            op_id,
            id,
            parent,
            start_ns,
            end_ns: self.ns(end).max(start_ns),
            count,
        });
    }

    /// Records a span and returns its id.
    pub fn span(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: u64,
        start: Instant,
        end: Instant,
        count: u64,
    ) -> u64 {
        let id = self.reserve();
        self.record(id, name, op_id, parent, start, end, count);
        id
    }
}

/// Renders spans as a Chrome `trace_event` document of complete (`X`)
/// events, parents before children.
pub fn chrome_json(spans: &[Span]) -> Json {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    // A parent starts no later and ends no earlier than its child; at a
    // tie the lower id (recorded first, or the enclosing one) leads.
    sorted.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns), s.parent != 0, s.id));
    let events = sorted
        .into_iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str("benchmark")),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                (
                    "args",
                    Json::obj([
                        ("op_id", Json::Num(s.op_id as f64)),
                        ("span_id", Json::Num(s.id as f64)),
                        ("parent", Json::Num(s.parent as f64)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("count", Json::Num(s.count as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([("traceEvents", Json::Arr(events))])
}

/// What a valid trace file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Spans in the file.
    pub spans: usize,
    /// Distinct ops.
    pub ops: usize,
}

/// Checks a trace document as read back from its text: every span ends
/// no earlier than it starts, names a parent that appears before it,
/// shares that parent's `op_id`, and lies inside it.
pub fn validate(doc: &Parsed) -> Result<TraceSummary, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Parsed::as_array)
        .ok_or("no traceEvents array")?;
    let mut seen: HashMap<u64, (u64, u64, u64)> = HashMap::new(); // id → (op, start, end)
    let mut ops = std::collections::BTreeSet::new();
    for (i, e) in events.iter().enumerate() {
        let arg = |k: &str| -> Result<u64, String> {
            e.get("args")
                .and_then(|a| a.get(k))
                .and_then(Parsed::as_u64)
                .ok_or_else(|| format!("event {i}: no args.{k}"))
        };
        if e.get("ph").and_then(Parsed::as_str) != Some("X") {
            return Err(format!("event {i}: not a complete (X) event"));
        }
        let name = e.get("name").and_then(Parsed::as_str).unwrap_or("");
        if name.is_empty() {
            return Err(format!("event {i}: no name"));
        }
        let (op, id, parent, start, end) = (
            arg("op_id")?,
            arg("span_id")?,
            arg("parent")?,
            arg("start_ns")?,
            arg("end_ns")?,
        );
        if end < start {
            return Err(format!("{name} #{id}: ends before it starts"));
        }
        if parent != 0 {
            let Some(&(p_op, p_start, p_end)) = seen.get(&parent) else {
                return Err(format!(
                    "{name} #{id}: parent #{parent} does not precede it"
                ));
            };
            if p_op != op {
                return Err(format!("{name} #{id}: op_id differs from its parent's"));
            }
            if start < p_start || end > p_end {
                return Err(format!("{name} #{id}: not inside its parent"));
            }
        }
        if seen.insert(id, (op, start, end)).is_some() {
            return Err(format!("span id {id} used twice"));
        }
        ops.insert(op);
    }
    Ok(TraceSummary {
        spans: events.len(),
        ops: ops.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample() -> Vec<Span> {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut t = Tracer::new(epoch);
        let op = t.begin_op().unwrap();
        let root = t.span("op", op, 0, at(0), at(100), 0);
        let req = t.span("service.request", op, root, at(0), at(60), 0);
        t.span("service.queued", op, req, at(0), at(10), 0);
        t.span("service.worker", op, req, at(10), at(50), 0);
        let replay = t.span("replay", op, root, at(60), at(100), 0);
        t.span("kernels.run", op, replay, at(60), at(90), 7);
        // Overlapping children are covered once.
        t.span("kernels.checksum", op, replay, at(80), at(95), 0);
        t.spans
    }

    fn check(spans: &[Span]) -> Result<TraceSummary, String> {
        let text = chrome_json(spans).pretty();
        validate(&subsub_telemetry::json::parse(&text).map_err(|e| e.to_string())?)
    }

    #[test]
    fn a_recorded_trace_validates() {
        assert_eq!(check(&sample()), Ok(TraceSummary { spans: 7, ops: 1 }));
    }

    #[test]
    fn broken_traces_are_refused() {
        let good = sample();
        let mut orphan = good.clone();
        orphan[2].parent = 999;
        assert!(check(&orphan).unwrap_err().contains("does not precede"));
        let mut wrong_op = good.clone();
        wrong_op[3].op_id += 1;
        assert!(check(&wrong_op).unwrap_err().contains("op_id differs"));
        let mut escapes = good.clone();
        escapes[3].end_ns = good[1].end_ns + 1;
        assert!(check(&escapes).unwrap_err().contains("not inside"));
        let mut dup = good.clone();
        dup[6].id = dup[5].id;
        assert!(check(&dup).unwrap_err().contains("used twice"));
    }

    #[test]
    fn only_the_first_ops_are_kept() {
        let mut t = Tracer::new(Instant::now());
        let kept = (0..TRACE_OPS_KEPT + 10)
            .filter(|_| t.begin_op().is_some())
            .count();
        assert_eq!(kept as u64, TRACE_OPS_KEPT);
    }
}
