//! In-memory spans, self time and Chrome trace-event export.
//!
//! The benchmark records a span around every call it makes into a layer
//! (name, start, end, the session it served and the lane it ran on), keeps
//! them in memory while the run measures, and only afterwards derives the
//! span tree, each layer's self time and the trace file. Parents are
//! assigned by interval nesting within a lane: every span recorded here
//! comes from one thread, and calls nest properly on one thread.

use ess_service::jsonio::Json;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The benchmark's one clock read. Timing is this crate's purpose; no
/// result it checks depends on the value.
pub fn now() -> Instant {
    // lint: allow(wall-clock) — the benchmark measures wall time; outputs it verifies never depend on it
    Instant::now()
}

/// One recorded interval, in microseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `"scheduler.round"`.
    pub name: &'static str,
    /// Start, µs since the origin.
    pub start_us: f64,
    /// End, µs since the origin.
    pub end_us: f64,
    /// Index of the enclosing span (filled in by [`assign_parents`]).
    pub parent: Option<usize>,
    /// The session the work served, when it served one.
    pub session: Option<u64>,
    /// Which recording thread / phase the span belongs to.
    pub lane: u32,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Microseconds from `origin` to `at` (0 when `at` is earlier).
pub fn us_since(origin: Instant, at: Instant) -> f64 {
    at.saturating_duration_since(origin).as_secs_f64() * 1e6
}

/// A span store shared by the benchmark's hooks (the optimizer and
/// backend shims must be `Send`, hence the mutex).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle the hooks hold.
pub type SharedTracer = Arc<Mutex<Tracer>>;

impl Tracer {
    /// An empty store whose origin is `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// A new shared store.
    pub fn shared(origin: Instant) -> SharedTracer {
        Arc::new(Mutex::new(Self::new(origin)))
    }

    /// Microseconds since the origin.
    pub fn us(&self, at: Instant) -> f64 {
        us_since(self.origin, at)
    }

    /// Records `[start, end]` under `name`.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        session: Option<u64>,
        lane: u32,
    ) {
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.record_us(name, start_us, end_us, session, lane);
    }

    /// Records a span given in µs since the origin.
    pub fn record_us(
        &mut self,
        name: &'static str,
        start_us: f64,
        end_us: f64,
        session: Option<u64>,
        lane: u32,
    ) {
        self.spans.push(Span {
            name,
            start_us,
            end_us: end_us.max(start_us),
            parent: None,
            session,
            lane,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Takes the recorded spans out, leaving the store empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Locks a shared tracer; a poisoned lock means a hook panicked, which
/// already failed the run.
pub fn lock(tracer: &SharedTracer) -> std::sync::MutexGuard<'_, Tracer> {
    tracer
        .lock()
        .expect("tracer lock poisoned by a panicking hook")
}

/// Sets every span's `parent` to the innermost span of the same lane that
/// contains it. Spans are reordered by (lane, start, longest first).
pub fn assign_parents(spans: &mut [Span]) {
    spans.sort_by(|a, b| {
        a.lane
            .cmp(&b.lane)
            .then(a.start_us.total_cmp(&b.start_us))
            .then(b.end_us.total_cmp(&a.end_us))
    });
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        while let Some(&top) = stack.last() {
            let open = &spans[top];
            if open.lane == spans[i].lane && spans[i].end_us <= open.end_us {
                break;
            }
            stack.pop();
        }
        spans[i].parent = stack.last().copied();
        stack.push(i);
    }
}

/// Each span's self time in ms: its duration minus the part of its
/// interval its children cover (children clipped to the parent, overlaps
/// among children counted once). Parents must be assigned.
pub fn self_times_ms(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end_us - s.start_us - covered_us(s.start_us, s.end_us, kids)) / 1e3)
        .collect()
}

/// Microseconds of `[lo, hi]` covered by the union of `intervals`.
pub fn covered_us(lo: f64, hi: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut reach) = (0.0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Per-name totals over the spans `keep` selects: (spans, total ms,
/// self ms), by name. Parents must be assigned.
pub fn self_time_table(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut table = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ms(spans)) {
        if !keep(s) {
            continue;
        }
        let row = table.entry(s.name).or_insert((0, 0.0, 0.0));
        row.0 += 1;
        row.1 += s.ms();
        row.2 += own;
    }
    table
}

/// Chrome trace-event JSON (`{"traceEvents":[...]}`, complete events in
/// µs) — opens offline in Perfetto or `chrome://tracing`.
pub fn chrome_trace(spans: &[Span], lane_names: &[(u32, &str)]) -> Json {
    let mut events: Vec<Json> = lane_names
        .iter()
        .map(|&(lane, name)| {
            Json::obj()
                .field("name", "thread_name")
                .field("ph", "M")
                .field("pid", 1u64)
                .field("tid", u64::from(lane))
                .field("args", Json::obj().field("name", name))
        })
        .collect();
    for (i, s) in spans.iter().enumerate() {
        let mut args = Json::obj().field("span", i);
        if let Some(p) = s.parent {
            args = args.field("parent", p);
        }
        if let Some(id) = s.session {
            args = args.field("session", id);
        }
        events.push(
            Json::obj()
                .field("name", s.name)
                .field("cat", s.name.split('.').next().unwrap_or(s.name))
                .field("ph", "X")
                .field("ts", s.start_us)
                .field("dur", s.end_us - s.start_us)
                .field("pid", 1u64)
                .field("tid", u64::from(s.lane))
                .field("args", args),
        );
    }
    Json::obj()
        .field("traceEvents", Json::Arr(events))
        .field("displayTimeUnit", "ms")
}
