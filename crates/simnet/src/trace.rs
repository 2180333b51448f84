//! Structured tracing keyed to **simulated** time.
//!
//! The paper's claims are observability claims: PIC wins because shuffle
//! and model-update bytes collapse, and because the best-effort phase
//! spends its time in cheap local iterations instead of framework passes.
//! End-of-run aggregates ([`crate::traffic::TrafficSnapshot`], `JobStats`)
//! cannot show *when* bytes moved or *which* phase/iteration spent the
//! time, so this module records a tree of spans and instant events in
//! simulated time. The recorder holds no clock: every record carries the
//! time its caller passes, which in a run is the engine's clock:
//!
//! * **Spans** — `job → phase (map/shuffle/sort/reduce) → task`, and on
//!   the driver side `pic run → best-effort iteration → local solves /
//!   merge → top-off iteration → job …`. Spans nest: every child lies
//!   inside its parent's `[t0, t1]` window.
//! * **Instants** — point events for killed task attempts, injected
//!   faults, DFS writes, quality samples, and *every*
//!   [`crate::traffic::TrafficLedger`] charge (class, bytes and window).
//!   Every charge goes through [`crate::traffic::TrafficLedger::add_over`],
//!   which records its own `traffic` instant, so the bytes attributed in a
//!   trace reconcile **exactly** (`==`) with the ledger's totals. The one
//!   decoder of those instants is [`crate::sweep::collect_charges`].
//!   Instants are kept in recording order; a consumer that orders them
//!   by time (the monitor replay) sorts stably, so instants stamped at
//!   one simulated time keep that order.
//!
//! The trace has one time base, simulated seconds, and records only what
//! the simulated run did: host wall-clock timers live in the engine's
//! `JobStats` and in [`crate::hostprof`], never in span args. A trace is
//! therefore bit-identical across rayon pool widths — the property
//! `tests/trace_invariants.rs` pins with `==`.
//!
//! [`Trace::to_chrome_json_with_counters`] exports the Chrome
//! `about:tracing` / Perfetto JSON format, rendered by hand so the bytes
//! are a pinned function of the trace. [`MetricsRegistry::from_trace`]
//! derives per-phase time, per-class bytes and event counts, and
//! [`check`] holds the reusable trace invariants the test suite asserts.

use crate::sweep::collect_charges;
use crate::traffic::{TrafficClass, TrafficSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Identifier of a recorded span, unique within one [`Tracer`] epoch
/// (i.e. until [`Tracer::clear`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl SpanId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A typed argument value attached to a span or instant event.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Unsigned integer (byte counts, task indices, wave numbers).
    U64(u64),
    /// Floating point (seconds, ratios).
    F64(f64),
    /// Free-form text (paths, labels).
    Str(String),
}

/// Key/value argument list attached to spans and instants.
pub type Args = Vec<(String, Payload)>;

/// A completed (or still-open) span on the simulated timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Human-readable name (`job:kmeans-it3`, `map`, `be-2`, …).
    pub name: String,
    /// Category: `driver`, `be-iteration`, `ic`, `topoff`, `job`,
    /// `phase`, `task`, `transfer`, `merge`.
    pub cat: &'static str,
    /// Display lane (Chrome thread): `driver`, `shuffle`,
    /// `map-slot-3`, …
    pub lane: String,
    /// Start, simulated seconds.
    pub t0: f64,
    /// End, simulated seconds (`NaN` while still open).
    pub t1: f64,
    /// Attached arguments.
    pub args: Args,
}

impl Span {
    /// The `U64` payload stored under `key`, if any.
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        arg_u64(&self.args, key)
    }

    /// Simulated duration in seconds (clamped at zero for open spans).
    pub fn duration_s(&self) -> f64 {
        (self.t1 - self.t0).max(0.0)
    }
}

/// A point event on the simulated timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct InstantEvent {
    /// Enclosing span at the moment of emission, if any.
    pub parent: Option<SpanId>,
    /// Event name (`task-killed`, `node-crash`, a traffic-class label, …).
    pub name: String,
    /// Category: `traffic`, `sched`, `dfs`, `chaos`, `quality`.
    pub cat: &'static str,
    /// Display lane.
    pub lane: String,
    /// Timestamp, simulated seconds.
    pub t: f64,
    /// Attached arguments.
    pub args: Args,
}

impl InstantEvent {
    /// The `U64` payload stored under `key`, if any — the lookup every
    /// rollup shares (`bytes` on traffic instants).
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        arg_u64(&self.args, key)
    }

    /// The `F64` payload stored under `key`, if any (`objective` on
    /// `quality` instants).
    pub fn arg_f64(&self, key: &str) -> Option<f64> {
        self.args.iter().find_map(|(k, v)| match v {
            Payload::F64(f) if k == key => Some(*f),
            _ => None,
        })
    }
}

/// Shared `U64` arg lookup backing [`Span::arg_u64`] and
/// [`InstantEvent::arg_u64`].
fn arg_u64(args: &Args, key: &str) -> Option<u64> {
    args.iter().find_map(|(k, v)| match v {
        Payload::U64(n) if k == key => Some(*n),
        _ => None,
    })
}

/// An immutable snapshot of everything a [`Tracer`] recorded.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// All spans, in recording order; a span's index equals its id.
    pub spans: Vec<Span>,
    /// All instant events, in recording order.
    pub instants: Vec<InstantEvent>,
}

/// The default display lane for driver-side spans and events.
pub const DRIVER_LANE: &str = "driver";

/// The display lane carrying derived counter tracks in the Chrome
/// export ([`Trace::to_chrome_json_with_counters`]).
pub const COUNTER_LANE: &str = "utilization";

/// A derived counter series — `(t_seconds, value)` samples — exported
/// as Chrome `"ph":"C"` counter events on the [`COUNTER_LANE`] lane.
/// [`crate::timeline::UtilizationReport::counter_tracks`] produces one
/// per slot group.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterTrack {
    /// Counter name (one plot track in Chrome, e.g. `slots:map`).
    pub name: String,
    /// `(simulated seconds, value)` samples, ascending in time.
    pub points: Vec<(f64, f64)>,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    instants: Vec<InstantEvent>,
    /// Ids of currently open spans, outermost first.
    stack: Vec<SpanId>,
}

/// A cloneable handle recording spans and events at the simulated times
/// its callers pass. It holds no clock: the engine owns simulated time
/// and stamps every record. A disabled tracer ([`Tracer::disabled`],
/// also the `Default`) makes every call a no-op, so library code can
/// thread the handle unconditionally.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<State>>>,
}

impl Tracer {
    /// A tracer that records.
    pub fn standalone() -> Self {
        Tracer {
            inner: Some(Arc::default()),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// True when this handle records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The recorded state. Every update is a push or a field write that
    /// leaves it valid, so a poisoned lock is recovered: a panic in one
    /// traced call must not wedge every later one.
    fn state(&self) -> Option<MutexGuard<'_, State>> {
        let st = self.inner.as_ref()?;
        Some(st.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Drop everything recorded so far (between independent runs).
    pub fn clear(&self) {
        if let Some(mut st) = self.state() {
            *st = State::default();
        }
    }

    /// Open a span at simulated time `t0` and push it on the span stack;
    /// subsequent spans/instants become its children until
    /// [`Tracer::end_at`].
    pub fn begin_at(&self, name: impl Into<String>, cat: &'static str, t0: f64) -> SpanId {
        let Some(mut st) = self.state() else {
            return SpanId(0);
        };
        let id = SpanId(st.spans.len() as u64);
        let parent = st.stack.last().copied();
        st.spans.push(Span {
            id,
            parent,
            name: name.into(),
            cat,
            lane: DRIVER_LANE.to_string(),
            t0,
            t1: f64::NAN,
            args: Vec::new(),
        });
        st.stack.push(id);
        id
    }

    /// Close `id` at simulated time `t1`. Any spans opened inside `id`
    /// and still open are closed at the same instant.
    pub fn end_at(&self, id: SpanId, t1: f64) {
        let Some(mut st) = self.state() else { return };
        let Some(pos) = st.stack.iter().rposition(|s| *s == id) else {
            return;
        };
        let closing: Vec<SpanId> = st.stack.split_off(pos);
        for sid in closing {
            let span = &mut st.spans[sid.index()];
            if span.t1.is_nan() {
                span.t1 = t1;
            }
        }
    }

    /// Attach an argument to an already-recorded span.
    pub fn set_arg(&self, id: SpanId, key: impl Into<String>, value: Payload) {
        let Some(mut st) = self.state() else { return };
        if let Some(span) = st.spans.get_mut(id.index()) {
            span.args.push((key.into(), value));
        }
    }

    /// Record a completed child span of the current stack top on the
    /// driver lane (does not touch the stack).
    pub fn span_at(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        t0: f64,
        t1: f64,
        args: Args,
    ) -> SpanId {
        self.span_at_in(DRIVER_LANE, name, cat, t0, t1, args)
    }

    /// Record a completed child span of the current stack top on an
    /// explicit display lane.
    pub fn span_at_in(
        &self,
        lane: &str,
        name: impl Into<String>,
        cat: &'static str,
        t0: f64,
        t1: f64,
        args: Args,
    ) -> SpanId {
        let Some(mut st) = self.state() else {
            return SpanId(0);
        };
        let id = SpanId(st.spans.len() as u64);
        let parent = st.stack.last().copied();
        st.spans.push(Span {
            id,
            parent,
            name: name.into(),
            cat,
            lane: lane.to_string(),
            t0,
            t1,
            args,
        });
        id
    }

    /// Record an instant event at simulated time `t` on the driver lane.
    pub fn instant_at(&self, name: impl Into<String>, cat: &'static str, t: f64, args: Args) {
        self.instant_at_in(DRIVER_LANE, name, cat, t, args);
    }

    /// Record an instant event on an explicit display lane.
    pub fn instant_at_in(
        &self,
        lane: &str,
        name: impl Into<String>,
        cat: &'static str,
        t: f64,
        args: Args,
    ) {
        let Some(mut st) = self.state() else { return };
        let parent = st.stack.last().copied();
        st.instants.push(InstantEvent {
            parent,
            name: name.into(),
            cat,
            lane: lane.to_string(),
            t,
            args,
        });
    }

    /// Record one ledger charge whose transfer occupies the simulated
    /// window `[w0, w1]` (`w1 == w0` for an impulse): an instant named
    /// after the traffic class, category `traffic`, carrying `bytes` and
    /// the window as `w0`/`w1` args so `crate::timeline` can spread the
    /// bytes over the interval they actually moved in. Called only by
    /// [`crate::traffic::TrafficLedger::add_over`], which is what makes
    /// traced bytes reconcile exactly with ledger totals.
    /// The instant is stamped at `w0` — the moment the transfer starts —
    /// not at the engine's clock: the engine assembles whole jobs with
    /// the clock parked at the job start, so a charge committed while a
    /// later phase span is open (e.g. chaos recovery during the reduce
    /// phase) would otherwise escape its parent's window.
    pub fn traffic_event_over(&self, class: TrafficClass, bytes: u64, w0: f64, w1: f64) {
        if self.inner.is_none() {
            return;
        }
        self.instant_at(
            class.label(),
            "traffic",
            w0,
            vec![
                ("bytes".to_string(), Payload::U64(bytes)),
                ("w0".to_string(), Payload::F64(w0)),
                ("w1".to_string(), Payload::F64(w1)),
            ],
        );
    }

    /// Snapshot everything recorded so far, as recorded: a span still
    /// open carries `t1 = NaN` (`Engine::trace` closes such spans at the
    /// engine's current time).
    pub fn trace(&self) -> Trace {
        let Some(st) = self.state() else {
            return Trace::default();
        };
        Trace {
            spans: st.spans.clone(),
            instants: st.instants.clone(),
        }
    }

    /// Move everything recorded so far out, as [`Tracer::trace`] would
    /// snapshot it, and leave the tracer empty. Both vectors are shrunk
    /// to their length: a taken trace outlives its run, and the
    /// doubling slack of a large recording is dead weight.
    pub fn take(&self) -> Trace {
        let Some(mut st) = self.state() else {
            return Trace::default();
        };
        let State {
            mut spans,
            mut instants,
            ..
        } = std::mem::take(&mut *st);
        spans.shrink_to_fit();
        instants.shrink_to_fit();
        Trace { spans, instants }
    }
}

impl Trace {
    /// Sum of traced bytes per traffic class (from the ledger charges
    /// [`collect_charges`] decodes).
    pub fn traffic_totals(&self) -> TrafficSnapshot {
        let mut snap = TrafficSnapshot::default();
        for c in collect_charges(self).0 {
            snap.set(c.class, snap.get(c.class) + c.bytes);
        }
        snap
    }

    /// Export in the Chrome `about:tracing` / Perfetto JSON format:
    /// complete (`X`) events for spans, instant (`i`) events, and
    /// `thread_name` metadata naming each lane, plus derived counter
    /// tracks: each [`CounterTrack`] sample becomes a `"ph":"C"` event on
    /// the [`COUNTER_LANE`] lane, so utilization/occupancy series plot as
    /// counter graphs under the trace (pass `&[]` for none). Timestamps
    /// are microseconds of simulated time.
    pub fn to_chrome_json_with_counters(&self, counters: &[CounterTrack]) -> String {
        // Intern lanes in first-appearance order; the driver lane is tid 0.
        fn tid_of(lanes: &mut Vec<String>, lane: &str) -> usize {
            match lanes.iter().position(|l| l == lane) {
                Some(i) => i,
                None => {
                    lanes.push(lane.to_string());
                    lanes.len() - 1
                }
            }
        }
        let mut lanes: Vec<String> = vec![DRIVER_LANE.to_string()];
        let mut events: Vec<String> = Vec::new();
        for s in &self.spans {
            let tid = tid_of(&mut lanes, &s.lane);
            let dur = (s.t1 - s.t0).max(0.0) * 1e6;
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"name\":{},\"cat\":{},\"args\":{}}}",
                s.t0 * 1e6,
                dur,
                json_string(&s.name),
                json_string(s.cat),
                json_args(&s.args),
            ));
        }
        for i in &self.instants {
            let tid = tid_of(&mut lanes, &i.lane);
            // Quality samples render as Chrome *counter* series (one plot
            // track per arg) rather than instant ticks.
            let ph = if i.cat == "quality" { "C" } else { "i" };
            let scope = if ph == "i" { "\"s\":\"t\"," } else { "" };
            events.push(format!(
                "{{\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},{scope}\
                 \"name\":{},\"cat\":{},\"args\":{}}}",
                i.t * 1e6,
                json_string(&i.name),
                json_string(i.cat),
                json_args(&i.args),
            ));
        }
        for track in counters {
            let tid = tid_of(&mut lanes, COUNTER_LANE);
            for (t, v) in &track.points {
                let value = if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_string()
                };
                events.push(format!(
                    "{{\"ph\":\"C\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\
                     \"name\":{},\"cat\":\"counter\",\"args\":{{\"value\":{value}}}}}",
                    t * 1e6,
                    json_string(&track.name),
                ));
            }
        }
        for (tid, lane) in lanes.iter().enumerate() {
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                json_string(lane),
            ));
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&events.join(",\n"));
        out.push_str("\n]}\n");
        out
    }
}

/// Escape and quote a string for JSON (shared with [`crate::report`] and
/// `pic diff`'s notes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render an args list as a JSON object.
fn json_args(args: &Args) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(k));
        out.push(':');
        match v {
            Payload::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Payload::F64(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                } else {
                    out.push_str("null");
                }
            }
            Payload::Str(s) => out.push_str(&json_string(s)),
        }
    }
    out.push('}');
    out
}

/// Metrics derived from one [`Trace`]: per-phase simulated time,
/// per-class bytes, and scheduler/DFS event counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsRegistry {
    /// Total simulated seconds per `cat/name` of every phase-like span
    /// (cats `phase`, `transfer`, `merge`, plus per-iteration cats).
    pub phase_time_s: BTreeMap<String, f64>,
    /// Traced bytes per traffic-class label.
    pub class_bytes: BTreeMap<String, u64>,
    /// Event counts per `sched.*` / `dfs.*` instant name.
    pub counters: BTreeMap<String, u64>,
}

impl MetricsRegistry {
    /// Derive metrics from `trace`.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut m = MetricsRegistry::default();
        for s in &trace.spans {
            let timed = matches!(
                s.cat,
                "phase" | "transfer" | "merge" | "be-iteration" | "ic" | "topoff" | "job"
            );
            if timed {
                *m.phase_time_s
                    .entry(format!("{}/{}", s.cat, s.name))
                    .or_insert(0.0) += (s.t1 - s.t0).max(0.0);
            }
        }
        for c in collect_charges(trace).0 {
            *m.class_bytes
                .entry(c.class.label().to_string())
                .or_insert(0) += c.bytes;
        }
        for i in &trace.instants {
            match i.cat {
                "sched" => {
                    *m.counters.entry(format!("sched.{}", i.name)).or_insert(0) += 1;
                }
                "dfs" => {
                    *m.counters.entry(format!("dfs.{}", i.name)).or_insert(0) += 1;
                }
                _ => {}
            }
        }
        m
    }

    /// Plain-text rendering for reports and smoke-run logs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("phase time (simulated seconds)\n");
        for (k, v) in &self.phase_time_s {
            let _ = writeln!(out, "  {k:<40} {v:>14.3}");
        }
        out.push_str("traffic (bytes)\n");
        for (k, v) in &self.class_bytes {
            let _ = writeln!(out, "  {k:<40} {v:>14}");
        }
        out.push_str("counters\n");
        for (k, v) in &self.counters {
            let _ = writeln!(out, "  {k:<40} {v:>14}");
        }
        out
    }
}

/// Reusable trace invariants. Every function returns `Ok(())` or the
/// list of violations, so test failures show all problems at once and
/// `pic report --check` can print them.
pub mod check {
    use super::{Span, Trace};
    use crate::traffic::{TrafficClass, TrafficSnapshot};
    use std::collections::BTreeMap;

    /// `a <= b` with a relative epsilon, for simulated-time sums that
    /// accumulate floating-point error.
    fn le(a: f64, b: f64) -> bool {
        a <= b + 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    /// `Ok(())` when a check found no violation, else all of them.
    pub fn verdict(errs: Vec<String>) -> Result<(), Vec<String>> {
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    fn span_label(s: &Span) -> String {
        format!("{}:{} [{:.6}, {:.6}]", s.cat, s.name, s.t0, s.t1)
    }

    /// Every span lies inside its parent's window, every span is
    /// well-formed (`t0 <= t1`), and every instant with a parent lies
    /// inside that parent's window.
    pub fn spans_nest(trace: &Trace) -> Result<(), Vec<String>> {
        let mut errs = Vec::new();
        for s in &trace.spans {
            if !le(s.t0, s.t1) {
                errs.push(format!("span ends before it starts: {}", span_label(s)));
            }
            if let Some(pid) = s.parent {
                let p = &trace.spans[pid.0 as usize];
                if !le(p.t0, s.t0) || !le(s.t1, p.t1) {
                    errs.push(format!(
                        "span escapes parent: child {} not inside parent {}",
                        span_label(s),
                        span_label(p)
                    ));
                }
            }
        }
        for i in &trace.instants {
            if let Some(pid) = i.parent {
                let p = &trace.spans[pid.0 as usize];
                if !le(p.t0, i.t) || !le(i.t, p.t1) {
                    errs.push(format!(
                        "instant escapes parent: {}:{} at {:.6} not inside {}",
                        i.cat,
                        i.name,
                        i.t,
                        span_label(p)
                    ));
                }
            }
        }
        verdict(errs)
    }

    /// Every span of category `cat_before` ends no later than every
    /// span of category `cat_after` starts (e.g. best-effort iterations
    /// strictly precede top-off iterations).
    pub fn span_order(trace: &Trace, cat_before: &str, cat_after: &str) -> Result<(), Vec<String>> {
        let last_before = trace
            .spans
            .iter()
            .filter(|s| s.cat == cat_before)
            .map(|s| s.t1)
            .fold(f64::NEG_INFINITY, f64::max);
        let mut errs = Vec::new();
        for s in trace.spans.iter().filter(|s| s.cat == cat_after) {
            if !le(last_before, s.t0) {
                errs.push(format!(
                    "{cat_after} span starts at {:.6} before the last {cat_before} span ends \
                     at {last_before:.6}: {}",
                    s.t0,
                    span_label(s)
                ));
            }
        }
        verdict(errs)
    }

    /// No two `task` spans overlap within one display lane (a simulated
    /// slot executes at most one task attempt at a time).
    pub fn no_overlap_per_slot(trace: &Trace) -> Result<(), Vec<String>> {
        let mut by_lane: BTreeMap<&str, Vec<&Span>> = BTreeMap::new();
        for s in trace.spans.iter().filter(|s| s.cat == "task") {
            by_lane.entry(s.lane.as_str()).or_default().push(s);
        }
        let mut errs = Vec::new();
        for (lane, mut spans) in by_lane {
            spans.sort_by(|a, b| {
                a.t0.partial_cmp(&b.t0)
                    .expect("span times are finite")
                    .then(a.t1.partial_cmp(&b.t1).expect("span times are finite"))
            });
            for pair in spans.windows(2) {
                if !le(pair[0].t1, pair[1].t0) {
                    errs.push(format!(
                        "slot lane {lane} runs two tasks at once: {} overlaps {}",
                        span_label(pair[0]),
                        span_label(pair[1])
                    ));
                }
            }
        }
        verdict(errs)
    }

    /// Traced bytes reconcile **exactly** with the ledger: summing the
    /// `traffic` instants per class equals `ledger` for every class.
    pub fn bytes_attributed(trace: &Trace, ledger: &TrafficSnapshot) -> Result<(), Vec<String>> {
        let totals = trace.traffic_totals();
        let mut errs = Vec::new();
        for c in TrafficClass::ALL {
            if totals.get(c) != ledger.get(c) {
                errs.push(format!(
                    "class {}: trace attributes {} bytes, ledger recorded {}",
                    c.label(),
                    totals.get(c),
                    ledger.get(c)
                ));
            }
        }
        verdict(errs)
    }

    /// Span categories that may enclose a `quality` instant: the three
    /// iteration kinds both drivers sample at.
    const QUALITY_PARENT_CATS: [&str; 3] = ["be-iteration", "ic", "topoff"];

    /// Every `quality` instant parents to an iteration span
    /// (best-effort, IC, or top-off), lands inside that span's window,
    /// and the sequence of quality timestamps is strictly monotone in
    /// simulated time (each sample is taken after the previous one).
    pub fn quality_samples(trace: &Trace) -> Result<(), Vec<String>> {
        let mut errs = Vec::new();
        let mut prev_t: Option<f64> = None;
        for i in trace.instants.iter().filter(|i| i.cat == "quality") {
            match i.parent {
                None => errs.push(format!(
                    "quality sample at {:.6} has no enclosing span",
                    i.t
                )),
                Some(pid) => {
                    let p = &trace.spans[pid.0 as usize];
                    if !QUALITY_PARENT_CATS.contains(&p.cat) {
                        errs.push(format!(
                            "quality sample at {:.6} parents to a non-iteration span {}",
                            i.t,
                            span_label(p)
                        ));
                    } else if !le(p.t0, i.t) || !le(i.t, p.t1) {
                        errs.push(format!(
                            "quality sample at {:.6} outside its iteration span {}",
                            i.t,
                            span_label(p)
                        ));
                    }
                }
            }
            if let Some(prev) = prev_t {
                if i.t <= prev {
                    errs.push(format!(
                        "quality samples not strictly monotone: {:.6} after {:.6}",
                        i.t, prev
                    ));
                }
            }
            prev_t = Some(i.t);
        }
        verdict(errs)
    }

    /// The monitor's recovery series reconciles **exactly** with the
    /// ledger: replaying the trace through the
    /// [`crate::monitor::Monitor`] yields a recovery series integrating
    /// to `recovery_total()`. No series reads the spec, so the small
    /// preset is used.
    pub fn monitor_reconciles(trace: &Trace, ledger: &TrafficSnapshot) -> Result<(), Vec<String>> {
        let cfg = crate::monitor::MonitorConfig::new(crate::topology::ClusterSpec::small());
        let report = crate::monitor::Monitor::replay(cfg, trace).map_err(|e| vec![e])?;
        report.reconcile(ledger)
    }

    /// Run the whole structural suite: nesting, slot non-overlap, exact
    /// byte attribution against `ledger`, quality-sample placement, the
    /// chaos checks (crash clear of merge barriers, degradation
    /// windows inside the run), and the monitor window-integral
    /// reconciliation.
    pub fn validate(trace: &Trace, ledger: &TrafficSnapshot) -> Result<(), Vec<String>> {
        let mut errs = Vec::new();
        for r in [
            spans_nest(trace),
            no_overlap_per_slot(trace),
            bytes_attributed(trace, ledger),
            quality_samples(trace),
            crate::chaos::check_chaos(trace),
            monitor_reconciles(trace, ledger),
        ] {
            if let Err(mut e) = r {
                errs.append(&mut e);
            }
        }
        verdict(errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_a_no_op() {
        // Every entry point must record nothing — and (by inspection of
        // the early returns) skip the name/lane String builds entirely.
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let id = t.begin_at("y", "phase", 1.0);
        t.set_arg(id, "k", Payload::U64(1));
        t.instant_at("e2", "sched", 0.5, Vec::new());
        t.instant_at_in("lane", "e3", "dfs", 0.5, Vec::new());
        t.span_at("s", "phase", 0.0, 1.0, Vec::new());
        t.span_at_in("lane", "s2", "task", 0.0, 1.0, Vec::new());
        t.traffic_event_over(TrafficClass::Merge, 99, 0.0, 1.0);
        t.end_at(id, 2.0);
        t.clear();
        let tr = t.trace();
        assert!(tr.spans.is_empty());
        assert!(tr.instants.is_empty());
        assert_eq!(tr.traffic_totals(), TrafficSnapshot::default());
    }

    #[test]
    fn arg_u64_finds_typed_payloads_only() {
        let t = Tracer::standalone();
        t.span_at(
            "s",
            "phase",
            0.0,
            1.0,
            vec![
                ("label".into(), Payload::Str("nope".into())),
                ("ratio".into(), Payload::F64(0.5)),
                ("bytes".into(), Payload::U64(77)),
            ],
        );
        t.instant_at("c", "sched", 0.0, vec![("value".into(), Payload::U64(3))]);
        let tr = t.trace();
        assert_eq!(tr.spans[0].arg_u64("bytes"), Some(77));
        assert_eq!(tr.spans[0].arg_u64("ratio"), None, "F64 is not U64");
        assert_eq!(tr.spans[0].arg_u64("label"), None);
        assert_eq!(tr.spans[0].arg_u64("missing"), None);
        assert_eq!(tr.instants[0].arg_u64("value"), Some(3));
    }

    #[test]
    fn spans_nest_and_parent_links() {
        let t = Tracer::standalone();
        let outer = t.begin_at("outer", "job", 0.0);
        let inner = t.begin_at("inner", "phase", 1.0);
        t.instant_at("tick", "sched", 1.0, Vec::new());
        t.end_at(inner, 2.0);
        t.end_at(outer, 3.0);
        let tr = t.trace();
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[1].parent, Some(outer));
        assert_eq!(tr.spans[0].parent, None);
        assert_eq!(tr.instants[0].parent, Some(inner));
        assert_eq!(tr.spans[0].t0, 0.0);
        assert_eq!(tr.spans[0].t1, 3.0);
        assert_eq!(tr.spans[1].t0, 1.0);
        assert_eq!(tr.spans[1].t1, 2.0);
        check::spans_nest(&tr).unwrap();
    }

    #[test]
    fn end_closes_abandoned_children() {
        let t = Tracer::standalone();
        let outer = t.begin_at("outer", "job", 0.0);
        let _inner = t.begin_at("inner", "phase", 0.0);
        t.end_at(outer, 2.0); // inner never ended explicitly
        let tr = t.trace();
        assert_eq!(tr.spans[1].t1, 2.0);
        // The stack is empty again: a new span is a root.
        let root = t.begin_at("next", "job", 2.0);
        assert_eq!(t.trace().spans[root.index()].parent, None);
    }

    #[test]
    fn open_spans_snapshot_as_recorded() {
        // The tracer keeps no time of its own: an open span has no end
        // until its caller passes one (`Engine::trace` closes open spans
        // at the engine's clock).
        let t = Tracer::standalone();
        let id = t.begin_at("open", "job", 1.0);
        assert!(t.trace().spans[0].t1.is_nan());
        t.end_at(id, 5.0);
        assert_eq!(t.trace().spans[0].t1, 5.0);
    }

    #[test]
    fn traffic_events_reconcile_exactly() {
        let t = Tracer::standalone();
        t.traffic_event_over(TrafficClass::Broadcast, 100, 0.0, 0.0);
        t.traffic_event_over(TrafficClass::Broadcast, 23, 0.5, 1.5);
        t.traffic_event_over(TrafficClass::Merge, 7, 1.0, 1.0);
        let tr = t.trace();
        let mut expect = TrafficSnapshot::default();
        expect.set(TrafficClass::Broadcast, 123);
        expect.set(TrafficClass::Merge, 7);
        assert_eq!(tr.traffic_totals(), expect);
        check::bytes_attributed(&tr, &expect).unwrap();
        expect.set(TrafficClass::Merge, 8);
        assert!(check::bytes_attributed(&tr, &expect).is_err());
    }

    #[test]
    fn nesting_violation_is_reported() {
        let t = Tracer::standalone();
        let outer = t.begin_at("outer", "job", 0.0);
        // Child claims to run past its parent's end.
        t.span_at("escapee", "phase", 0.5, 9.0, Vec::new());
        t.end_at(outer, 1.0);
        let errs = check::spans_nest(&t.trace()).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("escapee"), "{errs:?}");
    }

    #[test]
    fn slot_overlap_is_reported() {
        let t = Tracer::standalone();
        t.span_at_in("map-slot-0", "t0", "task", 0.0, 2.0, Vec::new());
        t.span_at_in("map-slot-0", "t1", "task", 1.0, 3.0, Vec::new());
        t.span_at_in("map-slot-1", "t2", "task", 1.0, 3.0, Vec::new());
        let errs = check::no_overlap_per_slot(&t.trace()).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("map-slot-0"));
        // Touching endpoints are fine.
        let t2 = Tracer::standalone();
        t2.span_at_in("s", "a", "task", 0.0, 1.0, Vec::new());
        t2.span_at_in("s", "b", "task", 1.0, 2.0, Vec::new());
        check::no_overlap_per_slot(&t2.trace()).unwrap();
    }

    #[test]
    fn span_order_detects_interleaving() {
        let t = Tracer::standalone();
        t.span_at("be-1", "be-iteration", 0.0, 1.0, Vec::new());
        t.span_at("topoff-1", "topoff", 1.0, 2.0, Vec::new());
        check::span_order(&t.trace(), "be-iteration", "topoff").unwrap();
        t.span_at("be-2", "be-iteration", 2.0, 3.0, Vec::new());
        assert!(check::span_order(&t.trace(), "be-iteration", "topoff").is_err());
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let t = Tracer::standalone();
        let job = t.begin_at("job:\"quoted\"\n", "job", 0.0);
        t.span_at_in("map-slot-0", "task-0", "task", 0.0, 0.5, Vec::new());
        t.instant_at(
            "task-killed",
            "sched",
            0.0,
            vec![("task".into(), Payload::U64(3))],
        );
        t.end_at(job, 1.0);
        let json = t.trace().to_chrome_json_with_counters(&[]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("map-slot-0"));
        // Escaping: the quote and newline must not appear raw.
        assert!(json.contains("job:\\\"quoted\\\"\\n"));
        // Span duration is 1 s = 1e6 µs.
        assert!(json.contains("\"dur\":1000000.000"));
        // Balanced braces/brackets (cheap structural sanity).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn counter_tracks_export_on_their_own_lane() {
        let t = Tracer::standalone();
        let job = t.begin_at("job", "job", 0.0);
        t.end_at(job, 2.0);
        let tracks = vec![CounterTrack {
            name: "slots:map".to_string(),
            points: vec![(0.0, 0.5), (1.0, 1.0), (2.0, f64::NAN)],
        }];
        let json = t.trace().to_chrome_json_with_counters(&tracks);
        assert!(json.contains("\"name\":\"slots:map\""));
        assert!(json.contains("\"args\":{\"value\":0.5}"));
        assert!(json.contains("\"args\":{\"value\":null}"), "NaN -> null");
        assert!(json.contains(&format!("\"name\":{}", json_string(COUNTER_LANE))));
        // Without tracks there is no counter lane.
        let plain = t.trace().to_chrome_json_with_counters(&[]);
        assert!(!plain.contains(&format!("\"name\":{}", json_string(COUNTER_LANE))));
    }

    #[test]
    fn quality_instants_export_as_counter_events() {
        let t = Tracer::standalone();
        let it = t.begin_at("ic-1", "ic", 0.0);
        t.instant_at(
            "sample",
            "quality",
            1.0,
            vec![
                ("iteration".into(), Payload::U64(1)),
                ("objective".into(), Payload::F64(0.25)),
            ],
        );
        t.end_at(it, 2.0);
        let tr = t.trace();
        assert_eq!(tr.instants[0].arg_f64("objective"), Some(0.25));
        assert_eq!(tr.instants[0].arg_f64("iteration"), None, "U64 is not F64");
        let json = tr.to_chrome_json_with_counters(&[]);
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert!(
            !json.contains("\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":1000000.000,\"s\""),
            "counter events carry no instant scope: {json}"
        );
        check::quality_samples(&tr).unwrap();
    }

    #[test]
    fn quality_samples_accepts_monotone_in_window_sequences() {
        let t = Tracer::standalone();
        let be = t.begin_at("be-1", "be-iteration", 0.0);
        t.instant_at("sample", "quality", 1.0, Vec::new());
        t.end_at(be, 2.0);
        let ic = t.begin_at("topoff-1", "topoff", 2.0);
        t.instant_at("sample", "quality", 3.0, Vec::new());
        t.end_at(ic, 4.0);
        check::quality_samples(&t.trace()).unwrap();
        check::validate(&t.trace(), &TrafficSnapshot::default()).unwrap();
    }

    #[test]
    fn metrics_registry_rolls_up() {
        let t = Tracer::standalone();
        t.span_at("map", "phase", 0.0, 2.0, Vec::new());
        t.span_at("map", "phase", 2.0, 3.0, Vec::new());
        t.traffic_event_over(TrafficClass::MapSpill, 10, 0.0, 3.0);
        t.instant_at("task-killed", "sched", 0.0, Vec::new());
        t.instant_at("task-killed", "sched", 0.0, Vec::new());
        let m = MetricsRegistry::from_trace(&t.trace());
        assert_eq!(m.phase_time_s.get("phase/map").copied(), Some(3.0));
        assert_eq!(m.class_bytes.get("map-spill").copied(), Some(10));
        assert_eq!(m.counters.get("sched.task-killed").copied(), Some(2));
        let rendered = m.render();
        assert!(rendered.contains("phase/map"));
        assert!(rendered.contains("map-spill"));
        assert!(rendered.contains("sched.task-killed"));
    }
}
