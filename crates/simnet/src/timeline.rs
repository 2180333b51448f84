//! Time-resolved utilization telemetry.
//!
//! The ledger and the perf report answer *how many* bytes crossed each
//! traffic class; this module answers *when*. From one [`Trace`] plus
//! the [`ClusterSpec`]'s slot counts it derives:
//!
//! * **per-interval byte series per traffic class** — every windowed
//!   ledger charge (`w0`/`w1` args on `traffic` instants, recorded by
//!   [`crate::traffic::TrafficLedger::add_over`]) is spread over the
//!   grid intervals its window covers using cumulative integer
//!   rounding, so the per-class series sums **exactly** (`==`) to the
//!   ledger total; un-windowed charges land as an impulse in the
//!   interval containing their timestamp;
//! * **slot-pool occupancy** — busy slot-seconds per interval per slot
//!   group (`map` / `red` / `solve` lanes), whose integral reconciles
//!   with the summed `task`-span durations within 1e-9 relative, with
//!   the busy fraction and peak occupancy per group.
//!
//! Link utilization is not modelled here: at the suite's scale no link
//! ever came near its capacity (DESIGN.md §11), and the traffic result
//! the paper reports is Table II's bytes, which the ledger holds.
//!
//! Everything is a pure function of simulated time and byte counts, so
//! the whole report — JSON, counter tracks, every series — is
//! byte-identical across rayon pool widths.

use crate::report::{fmt_f64, peak, JsonWriter};
use crate::sweep::{apportion, collect_charges, slot_group, spread_busy};
use crate::topology::ClusterSpec;
use crate::trace::{check, CounterTrack, Trace};
use crate::traffic::{TrafficClass, TrafficSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default number of grid intervals for utilization series.
pub const DEFAULT_INTERVALS: usize = 60;

/// Per-interval occupancy series for one slot group (`map`, `red`,
/// `solve`).
#[derive(Debug, Clone, PartialEq)]
pub struct SlotSeries {
    /// Cluster-wide slot count for this group, from the topology.
    pub slots: usize,
    /// Busy slot-seconds within each grid interval.
    pub busy_s: Vec<f64>,
    /// `busy_s[i] / dt` — mean slots in use per interval.
    pub occupancy: Vec<f64>,
    /// Integral of `busy_s` (== summed task-span durations, 1e-9 rel).
    pub busy_integral_s: f64,
    /// Summed `task`-span durations on this group's lanes (the
    /// reconciliation target for `busy_integral_s`).
    pub task_span_s: f64,
    /// `busy_integral_s / (slots × horizon)`.
    pub busy_util: f64,
    /// Maximum of `occupancy`, in slots.
    pub peak_occupancy: f64,
}

/// The full time-resolved utilization report for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationReport {
    /// End of the timeline, simulated seconds (max over span ends,
    /// instant timestamps and charge-window ends).
    pub horizon_s: f64,
    /// Number of grid intervals.
    pub intervals: usize,
    /// Per-traffic-class byte series (keyed by class label); each sums
    /// exactly to the ledger total for that class.
    pub class_bytes: BTreeMap<&'static str, Vec<u64>>,
    /// Per-slot-group series (keyed by group name).
    pub slots: BTreeMap<String, SlotSeries>,
}

/// Seconds per grid interval (0 when the horizon is empty).
fn grid_dt(horizon_s: f64, intervals: usize) -> f64 {
    if horizon_s > 0.0 {
        horizon_s / intervals as f64
    } else {
        0.0
    }
}

/// Cluster-wide slot count for a group name. Solve tasks run on map
/// slots (the PIC driver schedules them with `map_slots_per_node`).
fn slots_for(spec: &ClusterSpec, group: &str) -> usize {
    match group {
        "red" | "reduce" => spec.reduce_slots,
        _ => spec.map_slots,
    }
}

impl UtilizationReport {
    /// Derive the report from `trace` on `spec` with
    /// [`DEFAULT_INTERVALS`] grid intervals.
    pub fn from_trace(trace: &Trace, spec: &ClusterSpec) -> UtilizationReport {
        UtilizationReport::with_intervals(trace, spec, DEFAULT_INTERVALS)
    }

    /// Derive the report from `trace` on `spec` over an `intervals`-cell
    /// grid spanning `[0, horizon]`.
    ///
    /// # Panics
    /// Panics if `intervals == 0`.
    pub fn with_intervals(
        trace: &Trace,
        spec: &ClusterSpec,
        intervals: usize,
    ) -> UtilizationReport {
        assert!(intervals > 0, "need at least one grid interval");

        // ---- Collect charges and the horizon. ---------------------------
        let (charges, horizon) = collect_charges(trace);
        let dt = grid_dt(horizon, intervals);

        // ---- Per-class byte series (exact apportionment). ---------------
        let mut class_bytes: BTreeMap<&'static str, Vec<u64>> = TrafficClass::ALL
            .into_iter()
            .map(|c| (c.label(), vec![0u64; intervals]))
            .collect();
        for ch in &charges {
            let series = class_bytes
                .get_mut(ch.class.label())
                .expect("every class is pre-seeded");
            apportion(series, ch, dt);
        }

        // ---- Slot occupancy. --------------------------------------------
        let mut slots: BTreeMap<String, SlotSeries> = BTreeMap::new();
        for s in trace.spans.iter().filter(|s| s.cat == "task") {
            let Some(group) = slot_group(&s.lane) else {
                continue;
            };
            let entry = slots
                .entry(group.to_string())
                .or_insert_with(|| SlotSeries {
                    slots: slots_for(spec, group),
                    busy_s: vec![0.0; intervals],
                    occupancy: vec![0.0; intervals],
                    busy_integral_s: 0.0,
                    task_span_s: 0.0,
                    busy_util: 0.0,
                    peak_occupancy: 0.0,
                });
            entry.task_span_s += s.duration_s();
            spread_busy(&mut entry.busy_s, s.t0, s.t1, dt);
        }
        for series in slots.values_mut() {
            series.busy_integral_s = series.busy_s.iter().sum();
            if dt > 0.0 {
                series.occupancy = series.busy_s.iter().map(|b| b / dt).collect();
            }
            if series.slots > 0 && horizon > 0.0 {
                series.busy_util = series.busy_integral_s / (series.slots as f64 * horizon);
            }
            series.peak_occupancy = peak(&series.occupancy);
        }

        UtilizationReport {
            horizon_s: horizon,
            intervals,
            class_bytes,
            slots,
        }
    }

    /// Seconds per grid interval.
    pub fn dt_s(&self) -> f64 {
        grid_dt(self.horizon_s, self.intervals)
    }

    /// Reconcile against the run's ledger and topology: per-class byte
    /// integrals must equal the ledger **exactly**, slot busy integrals
    /// must match the summed task-span durations within 1e-9 relative,
    /// and occupancy must never exceed the group's slot count. Returns
    /// every violation found.
    pub fn reconcile(&self, ledger: &TrafficSnapshot) -> Result<(), Vec<String>> {
        let mut errs = Vec::new();
        for class in TrafficClass::ALL {
            let total: u64 = self.class_bytes[class.label()].iter().sum();
            if total != ledger.get(class) {
                errs.push(format!(
                    "class {}: timeline integral {} bytes, ledger recorded {}",
                    class.label(),
                    total,
                    ledger.get(class)
                ));
            }
        }
        for (group, s) in &self.slots {
            let tol = 1e-9 * s.task_span_s.abs().max(s.busy_integral_s.abs()).max(1.0);
            if (s.busy_integral_s - s.task_span_s).abs() > tol {
                errs.push(format!(
                    "slots {group}: busy integral {} s != task-span total {} s",
                    s.busy_integral_s, s.task_span_s
                ));
            }
            let cap = s.slots as f64;
            for (i, occ) in s.occupancy.iter().enumerate() {
                if *occ > cap + 1e-9 * cap.max(1.0) {
                    errs.push(format!(
                        "slots {group}: occupancy {occ} exceeds {cap} slots in interval {i}"
                    ));
                }
            }
        }
        check::verdict(errs)
    }

    /// Chrome counter tracks (`"ph":"C"`) for the trace export: one
    /// occupancy track per slot group, with a point per grid interval.
    pub fn counter_tracks(&self) -> Vec<CounterTrack> {
        let dt = self.dt_s();
        self.slots
            .iter()
            .map(|(group, s)| CounterTrack {
                name: format!("slots:{group}"),
                points: s
                    .occupancy
                    .iter()
                    .enumerate()
                    .map(|(i, o)| (i as f64 * dt, *o))
                    .collect(),
            })
            .collect()
    }

    /// JSON for the `"utilization"` section of `BENCH_pic.json`
    /// (DESIGN.md §11 documents the fields and tolerance bands): the
    /// horizon, the grid and each slot group's scalar rollups. The full
    /// series live in the CSV artifact and the Chrome counter tracks.
    pub fn to_json(&self, indent: usize) -> String {
        JsonWriter::document(indent, |w| self.write_json(w))
    }

    /// The fields of [`UtilizationReport::to_json`], written into the
    /// caller's open object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.field("horizon_s", &fmt_f64(self.horizon_s));
        w.field("intervals", &self.intervals.to_string());
        w.open_key("slots", "{");
        for (group, s) in &self.slots {
            w.open_key(group, "{");
            w.field("slots", &s.slots.to_string());
            w.field("busy_s", &fmt_f64(s.busy_integral_s));
            w.field("busy_util", &fmt_f64(s.busy_util));
            w.field("peak_occupancy_util", &fmt_f64(s.peak_occupancy));
            w.close("}");
        }
        w.close("}");
    }

    /// `(label, cells)` heat rows of the side-by-side view
    /// ([`render_side_by_side`]): every slot group's occupancy fraction.
    fn heat_rows(&self, width: usize) -> Vec<(String, String)> {
        self.slots
            .iter()
            .map(|(group, s)| {
                let frac: Vec<f64> = s
                    .occupancy
                    .iter()
                    .map(|o| o / (s.slots as f64).max(1.0))
                    .collect();
                (format!("slots:{group}"), heat_bar(&frac, width))
            })
            .collect()
    }
}

/// Render a `[0, 1]` series as `width` heat cells (values above 1 clip
/// to the darkest cell). Shared with the [`crate::monitor`] dashboard
/// sparklines so `pic timeline` and `pic watch` read the same way.
pub(crate) fn heat_bar(series: &[f64], width: usize) -> String {
    const RAMP: [char; 9] = [' ', '.', ':', '-', '=', '+', '*', '#', '@'];
    if series.is_empty() || width == 0 {
        return String::new();
    }
    let mut out = String::with_capacity(width);
    for cell in 0..width {
        // Average the series points falling in this cell.
        let lo = cell * series.len() / width;
        let hi = (((cell + 1) * series.len()).div_ceil(width)).clamp(lo + 1, series.len());
        let mean = series[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
        let level = ((mean * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
        out.push(RAMP[level]);
    }
    out
}

/// Two runs' heat rows side by side (IC left, PIC right), `width` cells
/// per side — the `pic timeline` terminal view.
pub fn render_side_by_side(
    ic: &UtilizationReport,
    pic: &UtilizationReport,
    width: usize,
) -> String {
    let left = ic.heat_rows(width);
    let right = pic.heat_rows(width);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<width$}   {:<width$}",
        "",
        format!("IC ({:.1}s)", ic.horizon_s),
        format!("PIC ({:.1}s)", pic.horizon_s),
        width = width + 2,
    );
    let labels: Vec<&String> = left
        .iter()
        .map(|(l, _)| l)
        .chain(right.iter().map(|(l, _)| l))
        .collect();
    let mut seen: Vec<&String> = Vec::new();
    for l in labels {
        if !seen.contains(&l) {
            seen.push(l);
        }
    }
    let blank = " ".repeat(width);
    for label in seen {
        let lrow = left
            .iter()
            .find(|(l, _)| l == label)
            .map_or(blank.as_str(), |(_, r)| r.as_str());
        let rrow = right
            .iter()
            .find(|(l, _)| l == label)
            .map_or(blank.as_str(), |(_, r)| r.as_str());
        let _ = writeln!(out, "{label:<14} |{lrow}|   |{rrow}|");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Charge;
    use crate::trace::Tracer;
    use crate::traffic::TrafficLedger;

    fn traced_ledger() -> (Tracer, TrafficLedger) {
        let tracer = Tracer::standalone();
        let ledger = TrafficLedger::traced(tracer.clone());
        (tracer, ledger)
    }

    #[test]
    fn apportionment_is_exact_for_awkward_windows() {
        // 7 bytes over a window covering 3.5 of 10 intervals: shares must
        // still sum to exactly 7.
        let mut series = vec![0u64; 10];
        let charge = Charge {
            class: TrafficClass::Merge,
            bytes: 7,
            w0: 1.3,
            w1: 4.8,
            parent: None,
        };
        apportion(&mut series, &charge, 1.0);
        assert_eq!(series.iter().sum::<u64>(), 7, "{series:?}");
        assert_eq!(series[0], 0);
        assert!(series[5..].iter().all(|&b| b == 0));
    }

    #[test]
    fn impulse_lands_in_one_interval() {
        let mut series = vec![0u64; 4];
        let charge = Charge {
            class: TrafficClass::Merge,
            bytes: 100,
            w0: 2.5,
            w1: 2.5,
            parent: None,
        };
        apportion(&mut series, &charge, 1.0);
        assert_eq!(series, vec![0, 0, 100, 0]);
    }

    #[test]
    fn windowed_charges_land_in_their_class_series_and_reconcile() {
        let (tracer, ledger) = traced_ledger();
        let root = tracer.begin_at("root", "job", 0.0);
        ledger.add_over(TrafficClass::ShuffleBisection, 1_500_000_000, 2.0, 6.0);
        ledger.add_over(TrafficClass::Merge, 1234, 0.0, 0.0); // impulse at t = 0
        tracer.end_at(root, 10.0);
        let spec = ClusterSpec::small();
        let report = UtilizationReport::with_intervals(&tracer.trace(), &spec, 10);
        report.reconcile(&ledger.snapshot()).unwrap();
        assert_eq!(report.horizon_s, 10.0);
        let shuffle = &report.class_bytes[TrafficClass::ShuffleBisection.label()];
        assert_eq!(
            shuffle,
            &[
                0,
                0,
                375_000_000,
                375_000_000,
                375_000_000,
                375_000_000,
                0,
                0,
                0,
                0
            ],
            "1.5 GB over 2..6 s: a quarter per covered interval"
        );
        let merge = &report.class_bytes[TrafficClass::Merge.label()];
        assert_eq!(merge[0], 1234);
        assert_eq!(merge.iter().sum::<u64>(), 1234);
        // A corrupted ledger is caught, naming the class.
        let mut bad = ledger.snapshot();
        bad.set(TrafficClass::Merge, 1235);
        let errs = report.reconcile(&bad).unwrap_err();
        assert!(errs[0].contains("class merge"), "{errs:?}");
    }

    #[test]
    fn slot_occupancy_reconciles_and_respects_capacity() {
        let tracer = Tracer::standalone();
        let root = tracer.begin_at("root", "job", 0.0);
        tracer.span_at_in("map-slot-0", "t0", "task", 0.0, 3.0, vec![]);
        tracer.span_at_in("map-slot-1", "t1", "task", 1.0, 4.0, vec![]);
        tracer.span_at_in("red-slot-0", "r0", "task", 5.0, 8.0, vec![]);
        tracer.end_at(root, 10.0);
        let spec = ClusterSpec::small();
        let r = UtilizationReport::with_intervals(&tracer.trace(), &spec, 20);
        r.reconcile(&TrafficSnapshot::default()).unwrap();
        let map = &r.slots["map"];
        assert_eq!(map.slots, spec.map_slots);
        assert!((map.busy_integral_s - 6.0).abs() < 1e-9);
        assert!((map.peak_occupancy - 2.0).abs() < 1e-9, "two concurrent");
        let red = &r.slots["red"];
        assert_eq!(red.slots, spec.reduce_slots);
        assert!((red.busy_integral_s - 3.0).abs() < 1e-9);
        // Busy slot-seconds over the slots' capacity across the horizon.
        let capacity = spec.map_slots as f64 * r.horizon_s;
        assert!((map.busy_util - 6.0 / capacity).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_produces_a_zero_report() {
        let r = UtilizationReport::from_trace(&Trace::default(), &ClusterSpec::small());
        assert_eq!(r.horizon_s, 0.0);
        assert!(r.slots.is_empty());
        assert!(r.class_bytes.values().flatten().all(|&b| b == 0));
        r.reconcile(&TrafficSnapshot::default()).unwrap();
        // Degenerate reports still serialize.
        assert!(r.to_json(0).contains("\"horizon_s\""));
    }

    #[test]
    fn json_is_balanced_and_free_of_host_keys() {
        let (tracer, ledger) = traced_ledger();
        let root = tracer.begin_at("root", "job", 0.0);
        tracer.span_at_in("map-slot-0", "t0", "task", 0.0, 3.0, vec![]);
        ledger.add_over(TrafficClass::ShuffleBisection, 500, 0.0, 2.0);
        tracer.end_at(root, 4.0);
        let r = UtilizationReport::from_trace(&tracer.trace(), &ClusterSpec::small());
        let json = r.to_json(2);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains("host_"));
        assert!(json.contains("\"peak_occupancy_util\""));
    }

    #[test]
    fn counter_tracks_cover_every_slot_group() {
        let (tracer, ledger) = traced_ledger();
        let root = tracer.begin_at("root", "job", 0.0);
        tracer.span_at_in("solve-slot-0", "s0", "task", 0.0, 2.0, vec![]);
        ledger.add_over(TrafficClass::Broadcast, 500, 0.0, 1.0);
        tracer.end_at(root, 4.0);
        let r = UtilizationReport::with_intervals(&tracer.trace(), &ClusterSpec::small(), 8);
        let tracks = r.counter_tracks();
        let names: Vec<&str> = tracks.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["slots:solve"]);
        assert!(tracks.iter().all(|t| t.points.len() == 8));
    }

    #[test]
    fn side_by_side_render_names_both_runs() {
        let tracer = Tracer::standalone();
        let root = tracer.begin_at("root", "job", 0.0);
        tracer.span_at_in("map-slot-0", "t0", "task", 0.0, 2.0, vec![]);
        tracer.end_at(root, 4.0);
        let spec = ClusterSpec::small();
        let r = UtilizationReport::from_trace(&tracer.trace(), &spec);
        let text = render_side_by_side(&r, &r, 20);
        assert!(text.contains("IC (4.0s)"));
        assert!(text.contains("PIC (4.0s)"));
        assert_eq!(text.lines().count(), 2, "header plus one slot row:\n{text}");
        assert!(text.lines().nth(1).unwrap().starts_with("slots:map"));
    }
}
