//! Time-resolved resource-utilization telemetry.
//!
//! The ledger and the perf report answer *how many* bytes crossed each
//! traffic class; this module answers *when* — the lens the paper's
//! bisection argument actually needs (§I: the bisection is "a resource
//! that is both scarce and difficult to scale", and PIC wins by keeping
//! it idle during the best-effort phase). From one [`Trace`] plus the
//! [`ClusterSpec`]'s capacities it derives:
//!
//! * **per-interval byte series per traffic class** — every windowed
//!   ledger charge (`w0`/`w1` args on `traffic` instants, recorded by
//!   [`crate::traffic::TrafficLedger::add_over`]) is spread over the
//!   grid intervals its window covers using cumulative integer
//!   rounding, so the per-class series sums **exactly** (`==`) to the
//!   ledger total; un-windowed charges land as an impulse in the
//!   interval containing their timestamp;
//! * **link utilization** — class series rolled up onto the four link
//!   classes ([`LinkClass`]) and divided by topology capacity;
//! * **slot-pool occupancy** — busy slot-seconds per interval per slot
//!   group (`map` / `red` / `solve` lanes), whose integral reconciles
//!   with the summed `task`-span durations within 1e-9 relative;
//! * **bisection saturated-seconds** — an exact breakpoint sweep over
//!   the charge windows (resolution-independent, unlike the grid),
//!   split by the enclosing iteration kind (best-effort vs IC vs
//!   top-off) — the paper's claim, quantified;
//! * rollups: busy/idle fraction per slot group, compute↔comms
//!   overlap, peak/p95/mean utilization per link class.
//!
//! Everything is a pure function of simulated time and byte counts, so
//! the whole report — JSON, counter tracks, every series — is
//! byte-identical across rayon pool widths.

use crate::report::{fmt_f64, json_f64s, peak, percentile, JsonWriter};
use crate::sweep::{
    apportion, collect_charges, rate_steps, slot_group, spread_busy, utilization, Charge, LinkClass,
};
use crate::topology::ClusterSpec;
use crate::trace::{check, CounterTrack, Trace};
use crate::traffic::{TrafficClass, TrafficSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default number of grid intervals for utilization series.
pub const DEFAULT_INTERVALS: usize = 60;

/// Utilization at or above this fraction of link capacity counts as
/// saturated in [`Saturation`] accounting.
pub const SATURATION_THRESHOLD: f64 = 0.95;

/// Per-interval byte and utilization series for one [`LinkClass`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSeries {
    /// Aggregate capacity, bytes/second.
    pub capacity_bw: f64,
    /// Bytes attributed to each grid interval.
    pub bytes: Vec<u64>,
    /// `bytes[i] / (capacity_bw * dt)` per interval.
    pub util: Vec<f64>,
    /// Sum of `bytes` (== the ledger totals of the member classes).
    pub total_bytes: u64,
    /// Maximum of `util`.
    pub peak_util: f64,
    /// Nearest-rank 95th percentile of `util`.
    pub p95_util: f64,
    /// Mean of `util` (equals the integral over capacity × horizon).
    pub mean_util: f64,
}

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
    /// `1 − busy_util`.
    pub idle_util: f64,
    /// Maximum of `occupancy`, in slots.
    pub peak_occupancy: f64,
}

/// Saturated-seconds accounting for one link, split by the enclosing
/// iteration kind (an exact sweep over charge windows, not the grid).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Saturation {
    /// Utilization threshold that counts as saturated.
    pub threshold_util: f64,
    /// Total saturated seconds over the whole run.
    pub total_s: f64,
    /// Saturated seconds inside `be-iteration` spans.
    pub be_s: f64,
    /// Saturated seconds inside `ic` spans.
    pub ic_s: f64,
    /// Saturated seconds inside `topoff` spans.
    pub topoff_s: f64,
    /// Saturated seconds outside every iteration span.
    pub outside_s: f64,
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
    /// Per-link-class series (keyed by link label).
    pub links: BTreeMap<&'static str, LinkSeries>,
    /// Per-slot-group series (keyed by group name).
    pub slots: BTreeMap<String, SlotSeries>,
    /// Bisection saturated-seconds, split by iteration kind.
    pub bisection_saturation: Saturation,
    /// Seconds during which some task runs *and* some network link
    /// (NIC / rack uplink / bisection) moves bytes — the compute↔comms
    /// overlap, measured on the grid.
    pub overlap_s: f64,
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

        // ---- Link rollups. ----------------------------------------------
        let mut links: BTreeMap<&'static str, LinkSeries> = BTreeMap::new();
        for link in LinkClass::ALL {
            let capacity = link.capacity(spec);
            let mut bytes = vec![0u64; intervals];
            for class in TrafficClass::ALL {
                if LinkClass::of(class) == link {
                    for (b, c) in bytes.iter_mut().zip(&class_bytes[class.label()]) {
                        *b += c;
                    }
                }
            }
            let util = utilization(&bytes, capacity, dt);
            let total_bytes = bytes.iter().sum();
            let peak_util = peak(&util);
            let p95_util = percentile(&util, 95.0);
            let mean_util = util.iter().sum::<f64>() / intervals as f64;
            links.insert(
                link.label(),
                LinkSeries {
                    capacity_bw: capacity,
                    bytes,
                    util,
                    total_bytes,
                    peak_util,
                    p95_util,
                    mean_util,
                },
            );
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
                    idle_util: 1.0,
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
                series.idle_util = 1.0 - series.busy_util;
            }
            series.peak_occupancy = peak(&series.occupancy);
        }

        // ---- Bisection saturation (exact breakpoint sweep). -------------
        let bisection_saturation = saturation_sweep(trace, &charges, spec);

        // ---- Compute↔comms overlap on the grid. -------------------------
        let mut overlap_s = 0.0;
        for i in 0..intervals {
            let compute = slots.values().any(|s| s.busy_s[i] > 0.0);
            let comms = [LinkClass::Nic, LinkClass::RackUplink, LinkClass::Bisection]
                .into_iter()
                .any(|l| links[l.label()].bytes[i] > 0);
            if compute && comms {
                overlap_s += dt;
            }
        }

        UtilizationReport {
            horizon_s: horizon,
            intervals,
            class_bytes,
            links,
            slots,
            bisection_saturation,
            overlap_s,
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
    /// utilization track per link class and one occupancy track per slot
    /// group, each with a point per grid interval.
    pub fn counter_tracks(&self) -> Vec<CounterTrack> {
        let dt = self.dt_s();
        let mut tracks = Vec::new();
        for link in LinkClass::ALL {
            let s = &self.links[link.label()];
            tracks.push(CounterTrack {
                name: format!("util:{}", link.label()),
                points: s
                    .util
                    .iter()
                    .enumerate()
                    .map(|(i, u)| (i as f64 * dt, *u))
                    .collect(),
            });
        }
        for (group, s) in &self.slots {
            tracks.push(CounterTrack {
                name: format!("slots:{group}"),
                points: s
                    .occupancy
                    .iter()
                    .enumerate()
                    .map(|(i, o)| (i as f64 * dt, *o))
                    .collect(),
            });
        }
        tracks
    }

    /// JSON for the `"utilization"` section of `BENCH_pic.json`
    /// (DESIGN.md §11 documents the fields and tolerance bands). The
    /// bisection utilization series is included in full; the other
    /// links carry scalar rollups only — the full series live in the
    /// CSV artifact and the Chrome counter tracks.
    pub fn to_json(&self, indent: usize) -> String {
        JsonWriter::document(indent, |w| self.write_json(w))
    }

    /// The fields of [`UtilizationReport::to_json`], written into the
    /// caller's open object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.field("horizon_s", &fmt_f64(self.horizon_s));
        w.field("intervals", &self.intervals.to_string());
        w.field("overlap_s", &fmt_f64(self.overlap_s));
        w.open_key("links", "{");
        for link in LinkClass::ALL {
            let s = &self.links[link.label()];
            w.open_key(link.label(), "{");
            w.field("capacity_bw", &fmt_f64(s.capacity_bw));
            w.field("total_bytes", &s.total_bytes.to_string());
            w.field("peak_util", &fmt_f64(s.peak_util));
            w.field("p95_util", &fmt_f64(s.p95_util));
            w.field("mean_util", &fmt_f64(s.mean_util));
            w.close("}");
        }
        w.close("}");
        w.open_key("slots", "{");
        for (group, s) in &self.slots {
            w.open_key(group, "{");
            w.field("slots", &s.slots.to_string());
            w.field("busy_s", &fmt_f64(s.busy_integral_s));
            w.field("busy_util", &fmt_f64(s.busy_util));
            w.field("idle_util", &fmt_f64(s.idle_util));
            w.field("peak_occupancy_util", &fmt_f64(s.peak_occupancy));
            w.close("}");
        }
        w.close("}");
        w.open_key("bisection_saturated", "{");
        let sat = &self.bisection_saturation;
        w.field("threshold_util", &fmt_f64(sat.threshold_util));
        w.field("total_s", &fmt_f64(sat.total_s));
        w.field("be_s", &fmt_f64(sat.be_s));
        w.field("ic_s", &fmt_f64(sat.ic_s));
        w.field("topoff_s", &fmt_f64(sat.topoff_s));
        w.field("outside_s", &fmt_f64(sat.outside_s));
        w.close("}");
        let bisection = &self.links[LinkClass::Bisection.label()];
        w.field("bisection_util", &json_f64s(&bisection.util));
    }

    /// `(label, cells)` heat rows of the side-by-side view
    /// ([`render_side_by_side`]): every link's utilization then every
    /// slot group's occupancy fraction.
    fn heat_rows(&self, width: usize) -> Vec<(String, String)> {
        let mut rows = Vec::new();
        for link in LinkClass::ALL {
            rows.push((
                link.label().to_string(),
                heat_bar(&self.links[link.label()].util, width),
            ));
        }
        for (group, s) in &self.slots {
            let frac: Vec<f64> = s
                .occupancy
                .iter()
                .map(|o| o / (s.slots as f64).max(1.0))
                .collect();
            rows.push((format!("slots:{group}"), heat_bar(&frac, width)));
        }
        rows
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
    let _ = writeln!(
        out,
        "{:<14} bisection saturated: IC {:.1}s vs PIC {:.1}s",
        "", ic.bisection_saturation.total_s, pic.bisection_saturation.total_s,
    );
    out
}

/// Exact saturated-seconds sweep for the bisection, a filter over its
/// [`rate_steps`]: every step whose rate is at or above
/// [`SATURATION_THRESHOLD`] × the bisection's capacity on `spec`
/// contributes its length, attributed to the iteration span kind
/// enclosing it. Impulse charges have zero width and cannot contribute.
fn saturation_sweep(trace: &Trace, charges: &[Charge], spec: &ClusterSpec) -> Saturation {
    let link = LinkClass::Bisection;
    let mut sat = Saturation {
        threshold_util: SATURATION_THRESHOLD,
        ..Saturation::default()
    };
    let capacity = link.capacity(spec);
    if capacity <= 0.0 {
        return sat;
    }
    for (p, q, rate) in rate_steps(charges, link) {
        // `>=` with a one-ulp-scale slack: a transfer windowed at exactly
        // its serialization time computes to 1.0 up to rounding.
        if rate < SATURATION_THRESHOLD * capacity * (1.0 - 1e-12) {
            continue;
        }
        let len = q - p;
        sat.total_s += len;
        let mut inside = 0.0;
        for (cat, bucket) in [
            ("be-iteration", &mut sat.be_s),
            ("ic", &mut sat.ic_s),
            ("topoff", &mut sat.topoff_s),
        ] {
            let overlap: f64 = trace
                .spans
                .iter()
                .filter(|s| s.cat == cat)
                .map(|s| (q.min(s.t1) - p.max(s.t0)).max(0.0))
                .sum();
            *bucket += overlap;
            inside += overlap;
        }
        sat.outside_s += (len - inside).max(0.0);
    }
    sat
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn windowed_charges_reconcile_and_utilize() {
        let (tracer, ledger) = traced_ledger();
        let root = tracer.begin_at("root", "job", 0.0);
        // Saturate the single-rack bisection (3 GbE = 375 MB/s) for 4 s.
        ledger.add_over(TrafficClass::ShuffleBisection, 1_500_000_000, 2.0, 6.0);
        ledger.add_over(TrafficClass::Merge, 1234, 0.0, 0.0); // impulse at t = 0
        tracer.end_at(root, 10.0);
        let spec = ClusterSpec::small();
        let report = UtilizationReport::with_intervals(&tracer.trace(), &spec, 10);
        report.reconcile(&ledger.snapshot()).unwrap();
        assert_eq!(report.horizon_s, 10.0);
        let bisection = &report.links["bisection"];
        assert_eq!(bisection.total_bytes, 1_500_000_000);
        assert!(
            (bisection.peak_util - 1.0).abs() < 1e-9,
            "375 MB/s for 4 of 10 s: peak {}",
            bisection.peak_util
        );
        assert_eq!(report.links["nic"].total_bytes, 1234);
    }

    #[test]
    fn saturation_sweep_is_resolution_independent() {
        let (tracer, ledger) = traced_ledger();
        let it = tracer.begin_at("ic-1", "ic", 0.0);
        // Exactly saturated for 3 s inside the ic span.
        let spec = ClusterSpec::small();
        let bytes = (3.0 * spec.bisection_bw) as u64;
        ledger.add_over(TrafficClass::ShuffleBisection, bytes, 1.0, 4.0);
        tracer.end_at(it, 8.0);
        let trace = tracer.trace();
        for intervals in [3, 7, 100] {
            let r = UtilizationReport::with_intervals(&trace, &spec, intervals);
            let sat = &r.bisection_saturation;
            assert!(
                (sat.total_s - 3.0).abs() < 1e-9,
                "intervals {intervals}: {sat:?}"
            );
            assert!((sat.ic_s - 3.0).abs() < 1e-9, "{sat:?}");
            assert_eq!(sat.be_s, 0.0);
            assert_eq!(sat.outside_s, 0.0);
        }
    }

    #[test]
    fn below_threshold_windows_do_not_saturate() {
        let (tracer, ledger) = traced_ledger();
        let spec = ClusterSpec::small();
        // Half the capacity: never saturated.
        let bytes = (0.5 * 3.0 * spec.bisection_bw) as u64;
        ledger.add_over(TrafficClass::ShuffleBisection, bytes, 0.0, 3.0);
        let r = UtilizationReport::with_intervals(&tracer.trace(), &spec, 10);
        assert_eq!(r.bisection_saturation.total_s, 0.0);
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
        // Busy + idle fractions are complementary.
        assert!((map.busy_util + map.idle_util - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_counts_only_simultaneous_compute_and_comms() {
        let (tracer, ledger) = traced_ledger();
        let root = tracer.begin_at("root", "job", 0.0);
        tracer.span_at_in("map-slot-0", "t0", "task", 0.0, 4.0, vec![]);
        // Network active 2..6: overlap with the task is 2..4.
        ledger.add_over(TrafficClass::ShuffleRack, 1_000_000, 2.0, 6.0);
        // Disk traffic is not comms: never creates overlap on its own.
        ledger.add_over(TrafficClass::MapSpill, 1_000_000, 8.0, 10.0);
        tracer.end_at(root, 10.0);
        let r = UtilizationReport::with_intervals(&tracer.trace(), &ClusterSpec::small(), 10);
        assert!((r.overlap_s - 2.0).abs() < 1e-9, "overlap {}", r.overlap_s);
    }

    #[test]
    fn empty_trace_produces_a_zero_report() {
        let r = UtilizationReport::from_trace(&Trace::default(), &ClusterSpec::small());
        assert_eq!(r.horizon_s, 0.0);
        assert!(r.slots.is_empty());
        assert_eq!(r.links["bisection"].total_bytes, 0);
        assert_eq!(r.bisection_saturation.total_s, 0.0);
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
        assert!(json.contains("\"bisection_util\": ["));
        assert!(json.contains("\"peak_util\""));
    }

    #[test]
    fn counter_tracks_cover_every_series() {
        let (tracer, ledger) = traced_ledger();
        let root = tracer.begin_at("root", "job", 0.0);
        tracer.span_at_in("solve-slot-0", "s0", "task", 0.0, 2.0, vec![]);
        ledger.add_over(TrafficClass::Broadcast, 500, 0.0, 1.0);
        tracer.end_at(root, 4.0);
        let r = UtilizationReport::with_intervals(&tracer.trace(), &ClusterSpec::small(), 8);
        let tracks = r.counter_tracks();
        assert_eq!(tracks.len(), 5);
        assert!(tracks.iter().any(|t| t.name == "util:nic"));
        assert!(tracks.iter().any(|t| t.name == "slots:solve"));
        assert!(tracks.iter().all(|t| t.points.len() == 8));
    }

    #[test]
    fn side_by_side_render_names_both_runs() {
        let (tracer, ledger) = traced_ledger();
        let root = tracer.begin_at("root", "job", 0.0);
        ledger.add_over(TrafficClass::ShuffleBisection, 500, 0.0, 2.0);
        tracer.end_at(root, 4.0);
        let spec = ClusterSpec::small();
        let r = UtilizationReport::from_trace(&tracer.trace(), &spec);
        let text = render_side_by_side(&r, &r, 20);
        assert!(text.contains("IC (4.0s)"));
        assert!(text.contains("PIC (4.0s)"));
        assert!(text.contains("bisection saturated: IC"));
    }
}
