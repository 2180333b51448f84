//! The charge-sweep kernel: the one place that knows how a recorded
//! [`Trace`] encodes traffic and work, shared by every derivation
//! ([`crate::report`], [`crate::timeline`], [`crate::whatif`],
//! [`crate::monitor`]).
//!
//! * [`collect_charges`] turns `traffic` instants (with the `w0`/`w1`
//!   windows [`crate::traffic::TrafficLedger::add_over`] records) into
//!   [`Charge`]s and the timeline horizon — the one decoder of those
//!   instants, also behind [`Trace::traffic_totals`],
//!   [`crate::trace::MetricsRegistry::from_trace`] and
//!   [`crate::report::PerfReport::from_trace`];
//! * [`apportion`] and [`spread_busy`] put bytes and task busy-seconds
//!   onto a uniform grid (a series of `n` buckets of `dt` simulated
//!   seconds from `t = 0`) — the 60-interval utilization report and the
//!   monitor's quarter-window buckets are the same code at two `dt`s;
//! * [`phase_key`] and [`slot_group`] name a span's rollup group and a
//!   task lane's slot group;
//! * [`phase_waves`] groups task spans into scheduler waves, per phase.

use crate::trace::{Span, SpanId, Trace};
use crate::traffic::TrafficClass;
use std::collections::BTreeMap;

/// One ledger charge with its attribution window (`w1 == w0` for
/// impulse charges).
#[derive(Debug, Clone, PartialEq)]
pub struct Charge {
    /// The traffic class billed.
    pub class: TrafficClass,
    /// Bytes moved.
    pub bytes: u64,
    /// Window start, simulated seconds.
    pub w0: f64,
    /// Window end, simulated seconds (`== w0` for impulses).
    pub w1: f64,
    /// The span enclosing the charge when it was recorded, if any.
    pub parent: Option<SpanId>,
}

/// Extract every ledger charge from `trace` (the `traffic` instants
/// recorded by [`crate::traffic::TrafficLedger`]) along with the
/// timeline horizon (max over span ends, instant timestamps and
/// charge-window ends). Un-windowed or malformed charges become
/// impulses at their timestamp.
pub fn collect_charges(trace: &Trace) -> (Vec<Charge>, f64) {
    let mut charges: Vec<Charge> = Vec::new();
    let mut horizon = 0.0f64;
    for s in &trace.spans {
        horizon = horizon.max(s.t1).max(s.t0);
    }
    for i in &trace.instants {
        horizon = horizon.max(i.t);
        if i.cat != "traffic" {
            continue;
        }
        let Some(class) = TrafficClass::from_label(&i.name) else {
            continue;
        };
        let bytes = i.arg_u64("bytes").unwrap_or(0);
        let (w0, w1) = match (i.arg_f64("w0"), i.arg_f64("w1")) {
            (Some(a), Some(b)) if b >= a => (a, b),
            _ => (i.t, i.t),
        };
        horizon = horizon.max(w1);
        charges.push(Charge {
            class,
            bytes,
            w0,
            w1,
            parent: i.parent,
        });
    }
    (charges, horizon)
}

/// Spread `charge` over the grid buckets its window covers by
/// cumulative rounding: bucket `i` receives
/// `round(B·F(i)) − round(B·F(i−1))` where `F` is the fraction of the
/// window covered up to the bucket's right edge — shares are
/// non-negative and sum to exactly `B`, so every series built here
/// integrates to the ledger total. Impulses land whole in the bucket
/// containing them.
pub fn apportion(series: &mut [u64], charge: &Charge, dt: f64) {
    let n = series.len();
    if n == 0 || charge.bytes == 0 {
        return;
    }
    let clamp_idx = |t: f64| -> usize {
        if dt <= 0.0 {
            return 0;
        }
        ((t / dt).floor() as isize).clamp(0, n as isize - 1) as usize
    };
    let (a, b) = (charge.w0.max(0.0), charge.w1.max(0.0));
    // `b > a` (not `b - a > 0`) so a NaN window degrades to an impulse.
    let windowed = b > a && dt > 0.0;
    if !windowed {
        // Impulse: the whole charge lands in the interval containing it.
        series[clamp_idx(a)] += charge.bytes;
        return;
    }
    let first = clamp_idx(a);
    let last = clamp_idx(b - f64::MIN_POSITIVE).max(first);
    let bytes = charge.bytes as f64;
    let mut cum_prev = 0u64;
    for (i, slot) in series.iter_mut().enumerate().take(last + 1).skip(first) {
        let right = ((i + 1) as f64 * dt).min(b);
        let frac = ((right - a) / (b - a)).clamp(0.0, 1.0);
        let cum = if i == last {
            charge.bytes // the window ends here: assign the exact remainder
        } else {
            (bytes * frac).round() as u64
        };
        *slot += cum.saturating_sub(cum_prev);
        cum_prev = cum.max(cum_prev);
    }
}

/// Add the busy seconds of `[t0, t1]` to every grid bucket the interval
/// overlaps (bucket `i` covers `[i·dt, (i+1)·dt)`).
pub fn spread_busy(series: &mut [f64], t0: f64, t1: f64, dt: f64) {
    if dt <= 0.0 || series.is_empty() {
        return;
    }
    let (t0, t1) = (t0.max(0.0), t1.max(0.0));
    let first = ((t0 / dt).floor() as usize).min(series.len() - 1);
    for (i, busy) in series.iter_mut().enumerate().skip(first) {
        let left = i as f64 * dt;
        if left >= t1 {
            break;
        }
        *busy += (t1.min((i + 1) as f64 * dt) - t0.max(left)).max(0.0);
    }
}

/// Rollup group of a span: `cat/name` for `phase` / `transfer` /
/// `merge` spans, the bare category for iteration-level spans and the
/// driver root, `None` for everything else (tasks).
pub fn phase_key(s: &Span) -> Option<String> {
    match s.cat {
        "phase" | "transfer" | "merge" => Some(format!("{}/{}", s.cat, s.name)),
        "job" | "be-iteration" | "ic" | "topoff" | "driver" => Some(s.cat.to_string()),
        _ => None,
    }
}

/// Slot-group name of a task lane (`map-slot-3` → `map`), if the lane
/// follows the scheduler's `{group}-slot-{n}` convention.
pub fn slot_group(lane: &str) -> Option<&str> {
    lane.split_once("-slot-").map(|(g, _)| g)
}

/// Closed `task` spans grouped into scheduler waves: parent (phase) span
/// index → `wave` arg → the wave's spans in recording order. The
/// scheduler numbers waves per schedule call, one call per phase, so a
/// wave means something only under its phase: the no-stragglers
/// projection of [`crate::whatif`] reads these groups. A task without a
/// parent span is skipped; one without a `wave` arg counts as wave 0.
pub fn phase_waves(trace: &Trace) -> BTreeMap<usize, BTreeMap<u64, Vec<&Span>>> {
    let mut phases: BTreeMap<usize, BTreeMap<u64, Vec<&Span>>> = BTreeMap::new();
    for s in &trace.spans {
        if let (Some(p), "task", true) = (s.parent, s.cat, s.t1.is_finite()) {
            let wave = s.arg_u64("wave").unwrap_or(0);
            phases
                .entry(p.index())
                .or_default()
                .entry(wave)
                .or_default()
                .push(s);
        }
    }
    phases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_seconds_spread_exactly_over_the_buckets_they_overlap() {
        let mut series = vec![0.0; 5];
        spread_busy(&mut series, 0.5, 3.25, 1.0);
        assert_eq!(series, vec![0.5, 1.0, 1.0, 0.25, 0.0]);
        // Past the grid's end the tail is dropped; a degenerate grid and
        // an inverted interval add nothing.
        spread_busy(&mut series, 4.5, 9.0, 1.0);
        assert_eq!(series[4], 0.5);
        spread_busy(&mut series, 0.0, 5.0, 0.0);
        spread_busy(&mut series, 3.0, 1.0, 1.0);
        assert_eq!(series.iter().sum::<f64>(), 3.25);
    }

    /// The scheduler numbers waves per phase, so two phases that both
    /// have a wave 0 form two groups, not one pooled wave; a task with
    /// no parent span is skipped.
    #[test]
    fn waves_are_grouped_per_phase() {
        let tracer = crate::trace::Tracer::standalone();
        let wave = |w: u64| vec![("wave".to_string(), crate::trace::Payload::U64(w))];
        let map = tracer.begin_at("map", "phase", 0.0);
        for (slot, w) in [0, 0, 1].into_iter().enumerate() {
            let lane = format!("map-slot-{slot}");
            tracer.span_at_in(&lane, "t", "task", 0.0, 1.0, wave(w));
        }
        tracer.end_at(map, 2.0);
        let reduce = tracer.begin_at("reduce", "phase", 2.0);
        tracer.span_at_in("red-slot-0", "t", "task", 2.0, 3.0, wave(0));
        tracer.end_at(reduce, 3.0);
        tracer.span_at("orphan", "task", 0.0, 1.0, wave(0));
        let trace = tracer.trace();
        let groups: Vec<(&str, u64, usize)> = phase_waves(&trace)
            .into_iter()
            .flat_map(|(phase, waves)| {
                let name = trace.spans[phase].name.as_str();
                waves
                    .into_iter()
                    .map(move |(w, tasks)| (name, w, tasks.len()))
            })
            .collect();
        assert_eq!(groups, [("map", 0, 2), ("map", 1, 1), ("reduce", 0, 1)]);
    }

    #[test]
    fn group_names_follow_the_recording_conventions() {
        assert_eq!(slot_group("map-slot-3"), Some("map"));
        assert_eq!(slot_group("driver"), None);
        let tracer = crate::trace::Tracer::standalone();
        for (name, cat) in [
            ("map", "phase"),
            ("be-2", "be-iteration"),
            ("pic:kmeans", "driver"),
            ("t", "task"),
        ] {
            tracer.span_at(name, cat, 0.0, 1.0, Vec::new());
        }
        let keys: Vec<Option<String>> = tracer.trace().spans.iter().map(phase_key).collect();
        let keys: Vec<Option<&str>> = keys.iter().map(Option::as_deref).collect();
        let expected = [
            Some("phase/map"),
            Some("be-iteration"),
            Some("driver"),
            None,
        ];
        assert_eq!(keys, expected);
    }
}
