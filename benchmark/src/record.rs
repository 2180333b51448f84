//! The harness's own tracing: a span around every call into a layer's
//! public functions, kept in memory and written out when the run ends.
//!
//! The harness calls the program from one thread, so spans nest like the
//! call stack: a span's parent is whichever span was open when it began.
//! With tracing off [`Recorder::span`] reads no clock and stores nothing —
//! end-to-end metrics come from such a run. Harness checks go through
//! [`Recorder::check`] in both modes: their time is kept apart so that it
//! can be taken out of the repetition's wall and CPU time.

use crate::stats::{Stamp, Usage};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The three kinds of root span a run is made of.
pub const SETUP: &str = "harness.setup";
pub const REP: &str = "harness.rep";
pub const PROBES: &str = "harness.probes";
/// A correctness check by the harness; never part of a timed section.
pub const CHECK: &str = "harness.check";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover. Children of one parent never overlap (one thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_ns();
        }
    }
    own
}

pub struct Recorder {
    tracing: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    excluded: Usage,
    values: BTreeMap<String, f64>,
}

impl Recorder {
    pub fn new(tracing: bool) -> Self {
        Recorder {
            tracing,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            excluded: Usage::default(),
            values: BTreeMap::new(),
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.tracing {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Run a harness check. Its wall and CPU time accumulate until
    /// [`Recorder::take_excluded`] collects them.
    pub fn check<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Stamp::now();
        let out = self.span(CHECK, |_| f());
        self.excluded += t.elapsed();
        out
    }

    pub fn take_excluded(&mut self) -> Usage {
        std::mem::take(&mut self.excluded)
    }

    /// Report a per-layer metric that is not a span's self time.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    fn root_of(&self, mut i: usize) -> usize {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        i
    }

    fn roots_named(&self, name: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .count()
    }

    /// Seconds of self time in spans called `name`, per root span of the
    /// kind they ran under: per set-up for a set-up span, per repetition for
    /// a span of the timed section. Zero when no such span was recorded.
    pub fn self_seconds(&self, name: &str) -> f64 {
        let own = self_times_ns(&self.spans);
        let mut total = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                let roots = self.roots_named(self.spans[self.root_of(i)].name);
                total += own[i] as f64 * 1e-9 / roots as f64;
            }
        }
        total
    }

    /// The duration in seconds of every span called `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Names of the spans recorded anywhere under a [`REP`] root.
    pub fn names_in_reps(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_some() && self.spans[self.root_of(i)].name == REP)
            .map(|i| self.spans[i].name)
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// The spans as one JSON document (name, start, end, parent).
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_back_to_back_children() {
        // rep [0, 100) holds a [10, 40) and b [40, 90) back to back; b holds
        // c [50, 60) and d [60, 85) back to back; d holds e [61, 62).
        let spans = vec![
            span("rep", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 40, 90, Some(0)),
            span("c", 50, 60, Some(2)),
            span("d", 60, 85, Some(2)),
            span("e", 61, 62, Some(4)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 15, 10, 24, 1]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root's duration");
    }

    #[test]
    fn self_time_of_childless_and_fully_covered_spans() {
        let spans = vec![span("only", 5, 9, None)];
        assert_eq!(self_times_ns(&spans), vec![4]);
        let spans = vec![span("p", 0, 10, None), span("c", 0, 10, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![0, 10]);
    }

    #[test]
    fn recorder_nests_spans_and_averages_per_root() {
        let mut rec = Recorder::new(true);
        for _ in 0..2 {
            rec.span(REP, |r| {
                r.span("layer.call_s", |r| r.span("layer.inner_s", |_| ()));
                r.span("layer.call_s", |_| ());
            });
        }
        assert_eq!(rec.spans.len(), 8);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[2].parent, Some(1));
        assert_eq!(rec.spans[3].parent, Some(0));
        assert_eq!(rec.spans[4].parent, None);
        assert_eq!(rec.durations("layer.call_s").len(), 4);
        assert_eq!(rec.names_in_reps(), vec!["layer.call_s", "layer.inner_s"]);
        // Per repetition: half of the summed self time.
        let own = self_times_ns(&rec.spans);
        let sum: u64 = [1, 3, 5, 7].iter().map(|&i| own[i]).sum();
        assert!((rec.self_seconds("layer.call_s") - sum as f64 * 0.5e-9).abs() < 1e-12);
        assert_eq!(rec.self_seconds("never.recorded_s"), 0.0);
        assert!(rec.spans_json().contains("\"name\": \"layer.inner_s\""));
    }

    #[test]
    fn untraced_recorder_stores_nothing_but_still_separates_checks() {
        let mut rec = Recorder::new(false);
        let v = rec.span(REP, |r| r.span("layer.call_s", |_| 7));
        assert_eq!(v, 7);
        assert!(rec.spans.is_empty());
        rec.check(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        let ex = rec.take_excluded();
        assert!(ex.wall_s >= 0.005);
        assert_eq!(rec.take_excluded(), Usage::default());
    }
}
