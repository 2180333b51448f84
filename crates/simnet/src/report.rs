//! Trace-driven performance analysis: critical paths, rollups, reports.
//!
//! The PR-2 trace layer records *what happened*; this module explains
//! *where the simulated time went* — the paper's own argument is exactly
//! such a decomposition (Fig. 2: shuffle bytes vs model-update bytes vs
//! compute per iteration). Three consumers share it:
//!
//! * [`CriticalPath`] — the longest simulated-time chain through the span
//!   tree (job → phase → task on the engine side, pic → BE-iteration →
//!   solve/merge → top-off on the driver side), with per-segment slack
//!   against the runner-up sibling. The path's segments tile the root
//!   span's window contiguously, so their durations telescope to the root
//!   duration — `tests/report_invariants.rs` pins that to 1e-9 relative.
//! * [`PerfReport`] — per-phase percentile rollups, per-slot straggler /
//!   skew statistics, and per-iteration traffic attribution mirroring the
//!   paper's Fig. 2 decomposition; embeds a [`MetricsRegistry`]. Traffic
//!   instants are charged to the nearest enclosing iteration span (cats
//!   `be-iteration` / `ic` / `topoff`), anything outside goes to an
//!   `outside` bucket, and the per-class sums reconcile **exactly**
//!   (`==`) with the [`crate::traffic::TrafficLedger`] totals —
//!   [`PerfReport::reconcile`] asserts it.
//! * [`PerfReport::to_json`] — a deterministic, schema-versioned JSON
//!   rendering (written by hand: key order and number formatting are part
//!   of the byte-identity contract) that
//!   `bench`'s `BENCH_pic.json` embeds and the `regress` gate diffs. The
//!   JSON contains no host wall-clock values, so it is byte-identical
//!   across rayon pool widths. DESIGN.md §9 documents the schema.

use crate::sweep::{collect_charges, phase_key, slot_group};
use crate::trace::{check, json_string, MetricsRegistry, Span, SpanId, Trace};
use crate::traffic::{human_bytes, TrafficClass, TrafficSnapshot};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version stamp for [`PerfReport::to_json`]; bump on any breaking field
/// change (see DESIGN.md §9 for the policy). Version 2 added the per-app
/// `quality` section (DESIGN.md §10); version 3 added the per-app
/// `utilization` section (DESIGN.md §11); version 4 added the top-level
/// `quality_under_failure` campaign matrix (DESIGN.md §12); version 5
/// added the top-level `tenancy` section — multi-tenant p50/p95/p99
/// time-to-quality and packing density (DESIGN.md §13); version 6 added
/// the top-level `host_profile` section — per-stage host wall-clock from
/// [`crate::hostprof`], skipped by the differ like every `host_` key
/// (DESIGN.md §14); version 7 added the per-app `sensitivity` section —
/// the ranked counterfactual bottleneck table from [`crate::whatif`]
/// (DESIGN.md §15); version 8 added the per-app `monitor` section —
/// online incident counts (exact) and open durations (banded seconds)
/// from [`crate::monitor`], plus per-cell `incidents` /
/// `clean_incidents` in `quality_under_failure` (DESIGN.md §16); version
/// 9 removed `lower_bound_s`, `clamped` and `binding` from `sensitivity`
/// rows, and `window_s` and the `saturation` and `straggler-tail` counts
/// from `monitor`; version 10 removed `overlap_s`, `links`,
/// `bisection_saturated` and `bisection_util` from `utilization`, which
/// keeps the horizon, the grid and the slot-group rollups.
pub const REPORT_SCHEMA_VERSION: u64 = 10;

/// Span categories that mark one driver-level iteration; traffic is
/// attributed to the nearest enclosing span with one of these cats.
const ITERATION_CATS: [&str; 3] = ["be-iteration", "ic", "topoff"];

/// `a <= b` up to the relative epsilon used throughout the trace layer.
fn le(a: f64, b: f64) -> bool {
    a <= b + 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// One segment of a critical path: a maximal stretch of simulated time
/// attributed to a single span.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalSegment {
    /// The span this stretch of time is charged to.
    pub span: SpanId,
    /// Its name.
    pub name: String,
    /// Its category.
    pub cat: &'static str,
    /// Its display lane.
    pub lane: String,
    /// Tree depth below the path's root (root = 0).
    pub depth: usize,
    /// Segment start, simulated seconds.
    pub t0: f64,
    /// Segment end, simulated seconds.
    pub t1: f64,
    /// True when the span has children but none of them covers this
    /// stretch — time the span spent in its own code between children.
    pub is_self: bool,
    /// How much later this span finished than the runner-up sibling
    /// competing for the path (`None` for self segments and only
    /// children). Large slack = this span alone gates the parent.
    pub slack_s: Option<f64>,
}

impl CriticalSegment {
    /// Simulated seconds covered by this segment.
    pub fn duration_s(&self) -> f64 {
        self.t1 - self.t0
    }

    /// Rollup key: the category, suffixed for self time.
    pub fn cat_key(&self) -> String {
        if self.is_self {
            format!("{} (self)", self.cat)
        } else {
            self.cat.to_string()
        }
    }
}

/// The longest root (parentless) span, ties going to the
/// earliest-recorded one; `None` for an empty trace. The run that the
/// critical path and the what-if projection both measure.
pub(crate) fn longest_root(trace: &Trace) -> Option<&Span> {
    let roots = trace.spans.iter().filter(|s| s.parent.is_none());
    roots.max_by(|a, b| {
        a.duration_s()
            .partial_cmp(&b.duration_s())
            .expect("span times are finite")
            .then(b.id.cmp(&a.id))
    })
}

/// The longest simulated-time chain through one span tree.
///
/// Extracted by walking backwards from the root's end: at each cursor,
/// descend into the child that finished last at-or-before the cursor,
/// recursively; gaps no child covers become `self` segments of the
/// parent. The resulting segments tile `[root.t0, root.t1]` contiguously
/// in chronological order, so [`CriticalPath::total_s`] equals the root
/// span's duration (up to float summation error ≪ 1e-9 relative).
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// The root span the path spans.
    pub root: SpanId,
    /// Root span's name (`pic:kmeans`, `job:kmeans-it3`, …).
    pub root_name: String,
    /// Sum of segment durations == root duration.
    pub total_s: f64,
    /// Chronologically ordered, contiguously tiling segments.
    pub segments: Vec<CriticalSegment>,
}

impl CriticalPath {
    /// Extract the critical path of the longest root (parentless) span,
    /// or `None` for an empty trace.
    pub fn from_trace(trace: &Trace) -> Option<CriticalPath> {
        Some(Self::for_span(trace, longest_root(trace)?.id))
    }

    /// Extract the critical path rooted at `root`.
    pub fn for_span(trace: &Trace, root: SpanId) -> CriticalPath {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); trace.spans.len()];
        for (i, s) in trace.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p.index()].push(i);
            }
        }
        let root_span = &trace.spans[root.index()];
        let mut segments = Vec::new();
        descend(
            trace,
            &children,
            root.index(),
            0,
            root_span.t1,
            None,
            &mut segments,
        );
        segments.reverse();
        let total_s = segments.iter().map(CriticalSegment::duration_s).sum();
        CriticalPath {
            root,
            root_name: root_span.name.clone(),
            total_s,
            segments,
        }
    }

    /// Simulated seconds on the path per [`CriticalSegment::cat_key`].
    pub fn by_cat_s(&self) -> BTreeMap<String, f64> {
        let mut by_cat: BTreeMap<String, f64> = BTreeMap::new();
        for seg in &self.segments {
            *by_cat.entry(seg.cat_key()).or_insert(0.0) += seg.duration_s();
        }
        by_cat
    }

    /// Plain-text rendering; at most `limit` segment lines are printed
    /// (0 = unlimited), the rest summarized.
    pub fn render(&self, limit: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path — {} ({} segments, {:.6} s total)",
            self.root_name,
            self.segments.len(),
            self.total_s
        );
        let _ = writeln!(
            out,
            "  {:>12} {:>12} {:>10}  span",
            "t0 (s)", "dur (s)", "slack (s)"
        );
        let shown = if limit == 0 {
            self.segments.len()
        } else {
            limit.min(self.segments.len())
        };
        for seg in &self.segments[..shown] {
            let slack = match seg.slack_s {
                Some(s) => format!("{s:>10.6}"),
                None => format!("{:>10}", "-"),
            };
            let _ = writeln!(
                out,
                "  {:>12.6} {:>12.6} {}  {}{} [{}]{}",
                seg.t0,
                seg.duration_s(),
                slack,
                "  ".repeat(seg.depth),
                seg.name,
                seg.cat,
                if seg.is_self { " (self)" } else { "" },
            );
        }
        if shown < self.segments.len() {
            let _ = writeln!(out, "  … {} more segments", self.segments.len() - shown);
        }
        out.push_str("  time on path by category:\n");
        for (cat, secs) in self.by_cat_s() {
            let pct = if self.total_s > 0.0 {
                100.0 * secs / self.total_s
            } else {
                0.0
            };
            let _ = writeln!(out, "    {cat:<24} {secs:>12.6} s  ({pct:>5.1}%)");
        }
        out
    }
}

/// Back-walk one span: starting from `window_end`, repeatedly pick the
/// child that finished last at-or-before the cursor, pushing segments in
/// reverse chronological order.
fn descend(
    trace: &Trace,
    children: &[Vec<usize>],
    idx: usize,
    depth: usize,
    window_end: f64,
    slack_s: Option<f64>,
    out: &mut Vec<CriticalSegment>,
) {
    let span = &trace.spans[idx];
    // Zero-width children can never advance the cursor; dropping them up
    // front guarantees termination and keeps the path free of noise
    // (e.g. the zero-width `sort` marker span).
    let mut kids: Vec<&Span> = children[idx]
        .iter()
        .map(|&c| &trace.spans[c])
        .filter(|c| c.duration_s() > 0.0)
        .collect();
    kids.sort_by(|a, b| {
        b.t1.partial_cmp(&a.t1)
            .expect("span times are finite")
            // Ties prefer the later-starting (shorter) child, then the
            // recording order, so the walk is deterministic.
            .then(b.t0.partial_cmp(&a.t0).expect("span times are finite"))
            .then(a.id.cmp(&b.id))
    });

    if kids.is_empty() {
        // Leaf: the whole window is the span's own time.
        out.push(segment(span, depth, span.t0, window_end, false, slack_s));
        return;
    }

    let seg_self = |t0: f64, t1: f64| segment(span, depth, t0, t1, true, None);
    let mut cursor = window_end;
    let mut j = 0;
    while j < kids.len() && !le(cursor, span.t0) {
        let k = kids[j];
        // A child still running at the cursor (it ends after it) cannot
        // be the one whose completion the cursor waited on; once skipped
        // it stays invalid because the cursor only moves backwards.
        if !le(k.t1, cursor) {
            j += 1;
            continue;
        }
        if k.t1 < cursor {
            out.push(seg_self(k.t1, cursor));
        }
        let child_end = k.t1.min(cursor);
        let child_slack = kids.get(j + 1).map(|n| k.t1 - n.t1);
        descend(
            trace,
            children,
            k.id.index(),
            depth + 1,
            child_end,
            child_slack,
            out,
        );
        cursor = k.t0.max(span.t0);
        j += 1;
    }
    if cursor > span.t0 {
        out.push(seg_self(span.t0, cursor));
    }
}

fn segment(
    span: &Span,
    depth: usize,
    t0: f64,
    t1: f64,
    is_self: bool,
    slack_s: Option<f64>,
) -> CriticalSegment {
    CriticalSegment {
        span: span.id,
        name: span.name.clone(),
        cat: span.cat,
        lane: span.lane.clone(),
        depth,
        t0,
        t1,
        is_self,
        slack_s,
    }
}

/// Duration statistics over one group of spans (nearest-rank
/// percentiles).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseStats {
    /// Number of spans in the group.
    pub count: usize,
    /// Sum of simulated durations.
    pub total_s: f64,
    /// Median duration.
    pub p50_s: f64,
    /// 95th-percentile duration.
    pub p95_s: f64,
    /// Longest duration.
    pub max_s: f64,
}

impl PhaseStats {
    fn from_sorted(durations: &[f64]) -> PhaseStats {
        PhaseStats {
            count: durations.len(),
            total_s: durations.iter().sum(),
            p50_s: nearest_rank(durations, 50.0),
            p95_s: nearest_rank(durations, 95.0),
            max_s: durations.last().copied().unwrap_or(0.0),
        }
    }
}

/// Straggler / skew statistics for one task group (all `task` spans on
/// lanes `<group>-slot-*`): per-task duration percentiles plus per-slot
/// busy-time imbalance, the trace-side view of wave imbalance.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskGroupStats {
    /// Task-duration percentiles over every task in the group.
    pub durations: PhaseStats,
    /// Distinct slot lanes the group ran on.
    pub slots: usize,
    /// Busy seconds of the busiest slot.
    pub busy_max_s: f64,
    /// Mean busy seconds across the group's slots.
    pub busy_mean_s: f64,
    /// `busy_max_s / busy_mean_s` (1.0 = perfectly balanced waves).
    pub imbalance_x: f64,
}

/// Simulated time and exact byte attribution for one driver iteration
/// span — one bar of the paper's Fig. 2 decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRollup {
    /// `be-iteration`, `ic`, or `topoff`.
    pub cat: &'static str,
    /// 1-based iteration index (from the span's `iteration` arg, falling
    /// back to the numeric suffix of its name).
    pub index: u64,
    /// The span's name (`be-2`, `topoff-5`, …).
    pub name: String,
    /// The iteration's simulated duration.
    pub time_s: f64,
    /// Bytes charged while this iteration span enclosed the charge.
    pub bytes: TrafficSnapshot,
}

/// Everything derived from one run's trace: critical path, rollups,
/// iteration decomposition, and the flat [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Root span duration (0 for an empty trace).
    pub total_s: f64,
    /// Critical path of the longest root span.
    pub critical_path: Option<CriticalPath>,
    /// Percentile rollups keyed `cat/name` for phase-like cats
    /// (`phase`, `transfer`, `merge`) and bare `cat` for the rest.
    pub phases: BTreeMap<String, PhaseStats>,
    /// Straggler stats per task group (`map`, `red`, `solve`, …).
    pub tasks: BTreeMap<String, TaskGroupStats>,
    /// Per-iteration time + bytes, chronological.
    pub iterations: Vec<IterationRollup>,
    /// Bytes charged outside any iteration span (startup loads, final
    /// writes); `iterations` + `outside_bytes` reconcile exactly with
    /// the ledger.
    pub outside_bytes: TrafficSnapshot,
    /// Flat per-phase / per-class / counter rollups.
    pub metrics: MetricsRegistry,
}

impl PerfReport {
    /// Analyse `trace`.
    pub fn from_trace(trace: &Trace) -> PerfReport {
        let critical_path = CriticalPath::from_trace(trace);
        let total_s = critical_path
            .as_ref()
            .map(|cp| trace.spans[cp.root.index()].duration_s())
            .unwrap_or(0.0);

        // Percentile rollups per phase group.
        let mut groups: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for s in &trace.spans {
            if let Some(key) = phase_key(s) {
                groups.entry(key).or_default().push(s.duration_s());
            }
        }
        let mut phases = BTreeMap::new();
        for (key, mut durations) in groups {
            durations.sort_by(|a, b| a.partial_cmp(b).expect("span times are finite"));
            phases.insert(key, PhaseStats::from_sorted(&durations));
        }

        // Straggler stats per task group, from the `<group>-slot-<n>`
        // lane convention.
        let mut task_durations: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut slot_busy: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
        for s in trace.spans.iter().filter(|s| s.cat == "task") {
            let Some(group) = slot_group(&s.lane) else {
                continue;
            };
            task_durations
                .entry(group.to_string())
                .or_default()
                .push(s.duration_s());
            *slot_busy
                .entry(group.to_string())
                .or_default()
                .entry(s.lane.clone())
                .or_insert(0.0) += s.duration_s();
        }
        let mut tasks = BTreeMap::new();
        for (group, mut durations) in task_durations {
            durations.sort_by(|a, b| a.partial_cmp(b).expect("span times are finite"));
            let busy = &slot_busy[&group];
            let busy_max_s = busy.values().copied().fold(0.0, f64::max);
            let busy_mean_s = busy.values().sum::<f64>() / busy.len() as f64;
            tasks.insert(
                group,
                TaskGroupStats {
                    durations: PhaseStats::from_sorted(&durations),
                    slots: busy.len(),
                    busy_max_s,
                    busy_mean_s,
                    imbalance_x: if busy_mean_s > 0.0 {
                        busy_max_s / busy_mean_s
                    } else {
                        1.0
                    },
                },
            );
        }

        // Per-iteration byte attribution: walk each ledger charge's
        // parent chain to the nearest iteration span.
        let mut iterations: Vec<IterationRollup> = Vec::new();
        let mut slot_of_span: BTreeMap<usize, usize> = BTreeMap::new();
        for s in &trace.spans {
            if ITERATION_CATS.contains(&s.cat) {
                slot_of_span.insert(s.id.index(), iterations.len());
                let index = s.arg_u64("iteration").unwrap_or_else(|| {
                    s.name
                        .rsplit('-')
                        .next()
                        .and_then(|suffix| suffix.parse().ok())
                        .unwrap_or(iterations.len() as u64 + 1)
                });
                iterations.push(IterationRollup {
                    cat: s.cat,
                    index,
                    name: s.name.clone(),
                    time_s: s.duration_s(),
                    bytes: TrafficSnapshot::default(),
                });
            }
        }
        let mut outside_bytes = TrafficSnapshot::default();
        for charge in collect_charges(trace).0 {
            let mut cur = charge.parent;
            let mut slot = None;
            while let Some(pid) = cur {
                if let Some(&s) = slot_of_span.get(&pid.index()) {
                    slot = Some(s);
                    break;
                }
                cur = trace.spans[pid.index()].parent;
            }
            let target = match slot {
                Some(s) => &mut iterations[s].bytes,
                None => &mut outside_bytes,
            };
            target.set(charge.class, target.get(charge.class) + charge.bytes);
        }

        PerfReport {
            total_s,
            critical_path,
            phases,
            tasks,
            iterations,
            outside_bytes,
            metrics: MetricsRegistry::from_trace(trace),
        }
    }

    /// Per-class sum of iteration bytes plus the outside bucket — must
    /// equal the ledger exactly.
    pub fn attributed_bytes(&self) -> TrafficSnapshot {
        self.iterations
            .iter()
            .fold(self.outside_bytes, |acc, it| acc.plus(&it.bytes))
    }

    /// Check that per-iteration attribution reconciles **exactly** with
    /// `ledger` for every class.
    pub fn reconcile(&self, ledger: &TrafficSnapshot) -> Result<(), Vec<String>> {
        let attributed = self.attributed_bytes();
        let errs: Vec<String> = TrafficClass::ALL
            .into_iter()
            .filter(|&c| attributed.get(c) != ledger.get(c))
            .map(|c| {
                format!(
                    "class {}: iterations+outside attribute {} bytes, ledger recorded {}",
                    c.label(),
                    attributed.get(c),
                    ledger.get(c)
                )
            })
            .collect();
        check::verdict(errs)
    }

    /// Human-readable report; the critical path prints at most
    /// `path_limit` segments (0 = unlimited).
    pub fn render(&self, path_limit: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "total simulated time: {:.6} s", self.total_s);
        out.push('\n');
        if let Some(cp) = &self.critical_path {
            out.push_str(&cp.render(path_limit));
            out.push('\n');
        }
        out.push_str(
            "phase rollups (simulated s)\n  \
             group                         count        total          p50          p95          max\n",
        );
        for (key, st) in &self.phases {
            let _ = writeln!(
                out,
                "  {key:<28} {:>6} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
                st.count, st.total_s, st.p50_s, st.p95_s, st.max_s
            );
        }
        if !self.tasks.is_empty() {
            out.push_str(
                "task groups (straggler / skew)\n  \
                 group       tasks  slots          p50          p95          max     busy-max    busy-mean  imbalance\n",
            );
            for (group, st) in &self.tasks {
                let _ = writeln!(
                    out,
                    "  {group:<10} {:>6} {:>6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>9.3}x",
                    st.durations.count,
                    st.slots,
                    st.durations.p50_s,
                    st.durations.p95_s,
                    st.durations.max_s,
                    st.busy_max_s,
                    st.busy_mean_s,
                    st.imbalance_x
                );
            }
        }
        if !self.iterations.is_empty() {
            out.push_str("per-iteration decomposition (paper Fig. 2)\n");
            for it in &self.iterations {
                let _ = writeln!(
                    out,
                    "  {:<14} {:>12.6} s   shuffle {:>12}   model-update {:>12}   broadcast {:>12}",
                    it.name,
                    it.time_s,
                    human_bytes(it.bytes.shuffle_total()),
                    human_bytes(it.bytes.model_update_total()),
                    human_bytes(it.bytes.get(TrafficClass::Broadcast)),
                );
            }
            let _ = writeln!(
                out,
                "  {:<14} {:>14}   shuffle {:>12}   model-update {:>12}   broadcast {:>12}",
                "outside",
                "-",
                human_bytes(self.outside_bytes.shuffle_total()),
                human_bytes(self.outside_bytes.model_update_total()),
                human_bytes(self.outside_bytes.get(TrafficClass::Broadcast)),
            );
        }
        out.push('\n');
        out.push_str(&self.metrics.render());
        out
    }

    /// Deterministic JSON rendering, `indent` spaces of leading indent
    /// per line. One key per line; keys are emitted in a fixed order;
    /// seconds keys end in `_s` and ratio keys in `_x` (the regression
    /// gate compares those with a relative epsilon, everything else
    /// exactly). Contains no host wall-clock values.
    pub fn to_json(&self, indent: usize) -> String {
        JsonWriter::document(indent, |w| self.write_json(w))
    }

    /// The fields of [`PerfReport::to_json`], written into the caller's
    /// open object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.field("schema_version", &REPORT_SCHEMA_VERSION.to_string());
        w.field("total_s", &fmt_f64(self.total_s));
        match &self.critical_path {
            None => w.field("critical_path", "null"),
            Some(cp) => {
                w.open_key("critical_path", "{");
                w.field_str("root", &cp.root_name);
                w.field("total_s", &fmt_f64(cp.total_s));
                w.field("segments", &cp.segments.len().to_string());
                w.open_key("by_cat_s", "{");
                for (cat, secs) in cp.by_cat_s() {
                    w.field(&cat, &fmt_f64(secs));
                }
                w.close("}");
                w.close("}");
            }
        }
        w.open_key("phases", "{");
        for (key, st) in &self.phases {
            w.open_key(key, "{");
            w.field("count", &st.count.to_string());
            w.field("total_s", &fmt_f64(st.total_s));
            w.field("p50_s", &fmt_f64(st.p50_s));
            w.field("p95_s", &fmt_f64(st.p95_s));
            w.field("max_s", &fmt_f64(st.max_s));
            w.close("}");
        }
        w.close("}");
        w.open_key("tasks", "{");
        for (group, st) in &self.tasks {
            w.open_key(group, "{");
            w.field("count", &st.durations.count.to_string());
            w.field("slots", &st.slots.to_string());
            w.field("p50_s", &fmt_f64(st.durations.p50_s));
            w.field("p95_s", &fmt_f64(st.durations.p95_s));
            w.field("max_s", &fmt_f64(st.durations.max_s));
            w.field("busy_max_s", &fmt_f64(st.busy_max_s));
            w.field("busy_mean_s", &fmt_f64(st.busy_mean_s));
            w.field("imbalance_x", &fmt_f64(st.imbalance_x));
            w.close("}");
        }
        w.close("}");
        w.objects("iterations", &self.iterations, |w, it| {
            w.field_str("cat", it.cat);
            w.field("index", &it.index.to_string());
            w.field_str("name", &it.name);
            w.field("time_s", &fmt_f64(it.time_s));
            write_snapshot(w, "bytes", &it.bytes);
        });
        write_snapshot(w, "outside_bytes", &self.outside_bytes);
        w.open_key("phase_time_s", "{");
        for (key, secs) in &self.metrics.phase_time_s {
            w.field(key, &fmt_f64(*secs));
        }
        w.close("}");
        w.open_key("class_bytes", "{");
        for (key, bytes) in &self.metrics.class_bytes {
            w.field(key, &bytes.to_string());
        }
        w.close("}");
        w.open_key("counters", "{");
        for (key, v) in &self.metrics.counters {
            w.field(key, &v.to_string());
        }
        w.close("}");
    }
}

/// One point of a convergence curve: simulated seconds into the run vs
/// the app's error metric at that moment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityPoint {
    /// Simulated seconds since the driver's run start.
    pub t_s: f64,
    /// The app's error metric (distance to reference / residual).
    pub err: f64,
}

impl QualityPoint {
    /// The point in schema order — the one definition behind the curve
    /// JSON objects and the convergence CSV rows.
    pub fn columns(&self) -> Vec<Column> {
        vec![
            Column::num("t_s", fmt_f64(self.t_s)),
            Column::num("err", fmt_f64(self.err)),
        ]
    }
}

/// The `x` values of the *time-to-within-x%-of-final-error* analysis
/// (paper Fig. 12's error-vs-time comparison, read off at fixed levels).
pub const TIME_TO_WITHIN_PCTS: [(&str, f64); 3] = [("1pct", 0.01), ("5pct", 0.05), ("10pct", 0.10)];

/// Quality-of-convergence comparison for one app: the IC and PIC error
/// trajectories on the shared simulated-time axis, iteration counts, and
/// the best-effort handoff error (paper Fig. 12 / Table III).
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// App name (`kmeans`, `pagerank`, …).
    pub app: String,
    /// IC error trajectory (driver-reported, chronological).
    pub ic_curve: Vec<QualityPoint>,
    /// PIC error trajectory: best-effort points then top-off points.
    pub pic_curve: Vec<QualityPoint>,
    /// IC iterations run.
    pub ic_iterations: usize,
    /// PIC best-effort iterations run.
    pub be_iterations: usize,
    /// PIC top-off iterations run.
    pub topoff_iterations: usize,
    /// Error of the merged model at the best-effort → top-off handoff.
    pub be_final_err: f64,
}

impl QualityReport {
    /// Final error of the IC run (last curve point).
    pub fn ic_final_err(&self) -> Option<f64> {
        self.ic_curve.last().map(|p| p.err)
    }

    /// Final error of the PIC run (last curve point).
    pub fn pic_final_err(&self) -> Option<f64> {
        self.pic_curve.last().map(|p| p.err)
    }

    /// The BE-handoff quality gap: how much worse the merged best-effort
    /// model is than the conventional run's final answer (Table III).
    pub fn be_handoff_gap_err(&self) -> Option<f64> {
        self.ic_final_err().map(|ic| self.be_final_err - ic)
    }

    /// Simulated seconds until `curve` first reaches within `x` (relative)
    /// of its own final error: the first point with
    /// `err <= final * (1 + x)`. `None` on an empty curve; the last point
    /// always qualifies, so a non-empty curve always yields a time.
    pub fn time_to_within(curve: &[QualityPoint], x: f64) -> Option<f64> {
        let target = curve.last()?.err * (1.0 + x);
        Self::first_at_or_below(curve, target).map(|i| curve[i].t_s)
    }

    /// Index of the first point of `curve` whose error is at or below
    /// `target` — the one scan behind every time-to-quality reading.
    pub fn first_at_or_below(curve: &[QualityPoint], target: f64) -> Option<usize> {
        curve.iter().position(|p| p.err <= target)
    }

    /// Human-readable quality section.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "quality — {} (ic {} iters, pic {}+{} iters)",
            self.app, self.ic_iterations, self.be_iterations, self.topoff_iterations
        );
        let fmt_opt = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6e}"));
        let _ = writeln!(
            out,
            "  final error: ic {}   pic {}   be-handoff {:.6e} (gap {})",
            fmt_opt(self.ic_final_err()),
            fmt_opt(self.pic_final_err()),
            self.be_final_err,
            fmt_opt(self.be_handoff_gap_err()),
        );
        for (label, x) in TIME_TO_WITHIN_PCTS {
            let ic = Self::time_to_within(&self.ic_curve, x);
            let pic = Self::time_to_within(&self.pic_curve, x);
            let speedup = match (ic, pic) {
                (Some(a), Some(b)) if b > 0.0 => format!("{:.3}x", a / b),
                _ => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "  time to within {label:>5} of final: ic {:>12} s   pic {:>12} s   speedup {speedup}",
                ic.map_or("-".to_string(), |v| format!("{v:.6}")),
                pic.map_or("-".to_string(), |v| format!("{v:.6}")),
            );
        }
        out
    }

    /// Deterministic JSON rendering matching the tolerance-band key
    /// conventions: error values end in `_err`, times in `_s`, ratios in
    /// `_x` (all compared with a relative epsilon by the regression
    /// gate); iteration counts are bare integers compared exactly.
    pub fn to_json(&self, indent: usize) -> String {
        JsonWriter::document(indent, |w| self.write_json(w))
    }

    /// The fields of [`QualityReport::to_json`], written into the
    /// caller's open object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.field_str("app", &self.app);
        w.field("ic_iterations", &self.ic_iterations.to_string());
        w.field("be_iterations", &self.be_iterations.to_string());
        w.field("topoff_iterations", &self.topoff_iterations.to_string());
        let opt = |v: Option<f64>| v.map_or("null".to_string(), fmt_f64);
        w.field("ic_final_err", &opt(self.ic_final_err()));
        w.field("pic_final_err", &opt(self.pic_final_err()));
        w.field("be_final_err", &fmt_f64(self.be_final_err));
        w.field("be_handoff_gap_err", &opt(self.be_handoff_gap_err()));
        w.open_key("time_to_within", "{");
        for (label, x) in TIME_TO_WITHIN_PCTS {
            let ic = Self::time_to_within(&self.ic_curve, x);
            let pic = Self::time_to_within(&self.pic_curve, x);
            w.field(&format!("ic_{label}_s"), &opt(ic));
            w.field(&format!("pic_{label}_s"), &opt(pic));
            let speedup = match (ic, pic) {
                (Some(a), Some(b)) if b > 0.0 => Some(a / b),
                _ => None,
            };
            w.field(&format!("speedup_{label}_x"), &opt(speedup));
        }
        w.close("}");
        for (key, curve) in [("ic_curve", &self.ic_curve), ("pic_curve", &self.pic_curve)] {
            w.objects(key, curve, |w, p| w.columns(&p.columns()));
        }
    }
}

/// Per-job outcome of one multi-tenant stream (see `tenancy` module):
/// when the job arrived, queued, ran and reached its solo-run quality
/// target, plus how much of its bisection traffic overlapped other
/// tenants'.
#[derive(Debug, Clone, PartialEq)]
pub struct TenancyRow {
    /// Job id in arrival order.
    pub id: usize,
    /// Application name (e.g. `kmeans`).
    pub app: String,
    /// Driver: `ic` or `pic`.
    pub driver: String,
    /// Simulated arrival time.
    pub arrival_s: f64,
    /// First admission time (equals `arrival_s` when no queueing).
    pub admitted_s: f64,
    /// Completion time of the job's last iteration.
    pub finish_s: f64,
    /// Total time spent queued (arrival→admission plus any
    /// preemption→re-admission waits).
    pub queue_delay_s: f64,
    /// Arrival→(iteration that reached the solo run's within-5% error
    /// target); the stream-level time-to-quality.
    pub tt_quality_s: f64,
    /// Seconds of this job's bisection transfer windows that overlapped
    /// at least one other tenant's window.
    pub contention_s: f64,
    /// Nodes the job asked for.
    pub requested_nodes: usize,
    /// Nodes the weighted-fair admission actually granted (last grant).
    pub granted_nodes: usize,
    /// Times this job's best-effort iteration was preempted.
    pub preemptions: usize,
}

impl TenancyRow {
    /// The row in schema order — the one definition behind the
    /// `per_job` JSON objects and the tenancy CSV rows.
    pub fn columns(&self) -> Vec<Column> {
        vec![
            Column::num("id", self.id),
            Column::text("app", &self.app),
            Column::text("driver", &self.driver),
            Column::num("arrival_s", fmt_f64(self.arrival_s)),
            Column::num("admitted_s", fmt_f64(self.admitted_s)),
            Column::num("finish_s", fmt_f64(self.finish_s)),
            Column::num("queue_delay_s", fmt_f64(self.queue_delay_s)),
            Column::num("tt_quality_s", fmt_f64(self.tt_quality_s)),
            Column::num("contention_s", fmt_f64(self.contention_s)),
            Column::num("requested_nodes", self.requested_nodes),
            Column::num("granted_nodes", self.granted_nodes),
            Column::num("preemptions", self.preemptions),
        ]
    }
}

/// Aggregate telemetry for one multi-tenant job stream: nearest-rank
/// p50/p95/p99 time-to-quality, queueing delay, and cross-job bisection
/// contention, plus the per-job rows. Exported as the schema-v5 `tenancy`
/// BENCH section (DESIGN.md §13).
#[derive(Debug, Clone, PartialEq)]
pub struct TenancyReport {
    /// Topology preset name the stream ran against (e.g. `1k`).
    pub preset: String,
    /// Node count of that preset.
    pub cluster_nodes: usize,
    /// Per-job rows in arrival order.
    pub rows: Vec<TenancyRow>,
    /// Completion time of the last job.
    pub makespan_s: f64,
}

impl TenancyReport {
    fn sorted(vals: impl Iterator<Item = f64>) -> Vec<f64> {
        let mut v: Vec<f64> = vals.collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("tenancy metrics are never NaN"));
        v
    }

    /// Nearest-rank percentile of per-job time-to-quality.
    pub fn tt_quality_percentile(&self, p: f64) -> f64 {
        nearest_rank(&Self::sorted(self.rows.iter().map(|r| r.tt_quality_s)), p)
    }

    /// Nearest-rank percentile of per-job queueing delay.
    pub fn queue_delay_percentile(&self, p: f64) -> f64 {
        nearest_rank(&Self::sorted(self.rows.iter().map(|r| r.queue_delay_s)), p)
    }

    /// Total bisection-overlap seconds across jobs.
    pub fn contention_total_s(&self) -> f64 {
        self.rows.iter().map(|r| r.contention_s).sum()
    }

    /// Total best-effort preemptions across jobs.
    pub fn preemption_total(&self) -> usize {
        self.rows.iter().map(|r| r.preemptions).sum()
    }

    /// Stable JSON (summary percentiles + per-job rows); byte-identical
    /// across rayon pool widths because every field is simulated.
    pub fn to_json(&self, indent: usize) -> String {
        JsonWriter::document(indent, |w| self.write_json(w))
    }

    /// The fields of [`TenancyReport::to_json`], written into the
    /// caller's open object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.field_str("preset", &self.preset);
        w.field("cluster_nodes", &self.cluster_nodes.to_string());
        w.field("jobs", &self.rows.len().to_string());
        w.field("makespan_s", &fmt_f64(self.makespan_s));
        w.field(
            "p50_tt_quality_s",
            &fmt_f64(self.tt_quality_percentile(50.0)),
        );
        w.field(
            "p95_tt_quality_s",
            &fmt_f64(self.tt_quality_percentile(95.0)),
        );
        w.field(
            "p99_tt_quality_s",
            &fmt_f64(self.tt_quality_percentile(99.0)),
        );
        w.field(
            "p50_queue_delay_s",
            &fmt_f64(self.queue_delay_percentile(50.0)),
        );
        w.field(
            "p99_queue_delay_s",
            &fmt_f64(self.queue_delay_percentile(99.0)),
        );
        w.field("contention_s", &fmt_f64(self.contention_total_s()));
        w.field("preemption_total", &self.preemption_total().to_string());
        w.objects("per_job", &self.rows, |w, r| w.columns(&r.columns()));
    }
}

/// Emit a [`TrafficSnapshot`] as a JSON object keyed by class label,
/// plus the two Table-II totals.
fn write_snapshot(w: &mut JsonWriter, key: &str, snap: &TrafficSnapshot) {
    w.open_key(key, "{");
    for c in TrafficClass::ALL {
        w.field(c.label(), &snap.get(c).to_string());
    }
    w.field("shuffle_total", &snap.shuffle_total().to_string());
    w.field("model_update_total", &snap.model_update_total().to_string());
    w.close("}");
}

/// Nearest-rank percentile over an ascending-sorted slice.
///
/// This is the single percentile definition shared by [`PerfReport`]
/// (per-phase p50/p95) and [`TenancyReport`] (per-stream p50/p95/p99):
/// `rank = ceil(p/100 * n)`, clamped into `1..=n`. An empty slice yields
/// `0.0`; a single sample is every percentile of itself.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// [`nearest_rank`] over an *unsorted* slice: sorts a copy, then applies
/// the shared nearest-rank definition. This is the one percentile helper
/// for callers holding unsorted series (timeline utilization,
/// host-profile samples) — do not hand-roll another.
///
/// # Panics
/// Panics if any value is NaN.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|x, y| x.partial_cmp(y).expect("percentile input must be finite"));
    nearest_rank(&sorted, p)
}

/// Maximum of a (possibly empty) series, `0.0` when empty — the shared
/// "peak" rollup (peak utilization, peak occupancy, max stage time).
pub fn peak(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Format an `f64` as a JSON number (`null` for non-finite values),
/// using Rust's shortest round-trippable `Display` so the output is
/// deterministic across platforms.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Line-oriented JSON writer: one key per line, comma bookkeeping, and
/// 2-space nesting on top of a base indent — shared by the report and
/// the bench suite file so `BENCH_pic.json` has a stable shape.
pub struct JsonWriter {
    out: String,
    base: usize,
    depth: usize,
    /// Whether the current container already has an entry (needs comma).
    has_entry: Vec<bool>,
}

impl JsonWriter {
    /// A writer whose every line is prefixed by `base` spaces.
    pub fn new(base: usize) -> JsonWriter {
        JsonWriter {
            out: String::new(),
            base,
            depth: 0,
            has_entry: Vec::new(),
        }
    }

    fn line_start(&mut self) {
        if let Some(last) = self.has_entry.last_mut() {
            if *last {
                self.out.push(',');
            }
            *last = true;
        }
        if !self.out.is_empty() {
            self.out.push('\n');
        }
        for _ in 0..self.base + 2 * self.depth {
            self.out.push(' ');
        }
    }

    /// Open an anonymous container (`{` or `[`) — for array elements or
    /// the top level.
    pub fn open(&mut self, bracket: &str) {
        self.line_start();
        self.out.push_str(bracket);
        self.depth += 1;
        self.has_entry.push(false);
    }

    /// Open a container under `key`.
    pub fn open_key(&mut self, key: &str, bracket: &str) {
        self.line_start();
        self.out.push_str(&json_string(key));
        self.out.push_str(": ");
        self.out.push_str(bracket);
        self.depth += 1;
        self.has_entry.push(false);
    }

    /// Emit `"key": value` where `value` is already rendered JSON.
    pub fn field(&mut self, key: &str, value: &str) {
        self.line_start();
        self.out.push_str(&json_string(key));
        self.out.push_str(": ");
        self.out.push_str(value);
    }

    /// Emit `"key": "text"`, escaping `text`.
    pub fn field_str(&mut self, key: &str, text: &str) {
        self.field(key, &json_string(text));
    }

    /// Emit `"key": { … }` with the fields written by `body` — how a
    /// document nests a sub-report's `write_json`.
    pub fn object(&mut self, key: &str, body: impl FnOnce(&mut JsonWriter)) {
        self.open_key(key, "{");
        body(self);
        self.close("}");
    }

    /// Emit one field per column into the open object.
    pub fn columns(&mut self, columns: &[Column]) {
        for c in columns {
            if c.is_text {
                self.field_str(&c.key, &c.value);
            } else {
                self.field(&c.key, &c.value);
            }
        }
    }

    /// Emit `"key": [ {…}, … ]`: one object per item, its fields
    /// written by `body`.
    pub fn objects<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut body: impl FnMut(&mut JsonWriter, T),
    ) {
        self.open_key(key, "[");
        for item in items {
            self.open("{");
            body(self, item);
            self.close("}");
        }
        self.close("]");
    }

    /// Close the innermost container with `}` or `]`.
    pub fn close(&mut self, bracket: &str) {
        self.depth -= 1;
        self.has_entry.pop();
        self.out.push('\n');
        for _ in 0..self.base + 2 * self.depth {
            self.out.push(' ');
        }
        self.out.push_str(bracket);
    }

    /// The accumulated JSON text.
    pub fn finish(self) -> String {
        self.out
    }

    /// A complete `{ … }` document at `base` indent whose fields are
    /// written by `body`.
    pub fn document(base: usize, body: impl FnOnce(&mut JsonWriter)) -> String {
        let mut w = JsonWriter::new(base);
        w.open("{");
        body(&mut w);
        w.close("}");
        w.finish()
    }
}

/// One cell of a report row: column name, rendered value, and whether
/// the value is text (JSON-quoted) or an already-rendered JSON literal.
/// A row type lists its columns once; [`JsonWriter::columns`] writes the
/// JSON object from them, and `pic-bench` writes a CSV document whose
/// header is the rows' keys and whose records are their values.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    key: Cow<'static, str>,
    value: String,
    is_text: bool,
}

impl Column {
    /// A numeric / boolean / `null` cell (`value` renders the literal).
    pub fn num(key: impl Into<Cow<'static, str>>, value: impl ToString) -> Column {
        Column {
            key: key.into(),
            value: value.to_string(),
            is_text: false,
        }
    }

    /// A text cell.
    pub fn text(key: impl Into<Cow<'static, str>>, value: &str) -> Column {
        Column {
            key: key.into(),
            value: value.to_string(),
            is_text: true,
        }
    }

    /// The column name.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The rendered value (unquoted, even for a text cell).
    pub fn value(&self) -> &str {
        &self.value
    }
}

/// Render a float series as an inline JSON array.
pub fn json_f64s(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| fmt_f64(*v)).collect();
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Payload, Tracer};

    /// A three-level tree with a known longest chain:
    ///
    /// ```text
    /// root [0,10]
    ///   ├─ a [0,4]      (tasks a1 [0,2], a2 [2,4])
    ///   ├─ b [4,9]      (task  b1 [5,8])   <- gap 4..5 and 8..9 = b self
    ///   └─ (root self 9..10)
    /// ```
    fn known_tree() -> Trace {
        let t = Tracer::standalone();
        let root = t.begin_at("root", "job", 0.0);
        let a = t.begin_at("a", "phase", 0.0);
        t.span_at_in("x-slot-0", "a1", "task", 0.0, 2.0, Vec::new());
        t.span_at_in("x-slot-1", "a2", "task", 2.0, 4.0, Vec::new());
        t.end_at(a, 4.0);
        let b = t.begin_at("b", "phase", 4.0);
        t.span_at_in("x-slot-0", "b1", "task", 5.0, 8.0, Vec::new());
        t.end_at(b, 9.0);
        t.end_at(root, 10.0);
        t.trace()
    }

    #[test]
    fn critical_path_tiles_the_root_window() {
        let tr = known_tree();
        let cp = CriticalPath::from_trace(&tr).unwrap();
        assert_eq!(cp.root_name, "root");
        assert!((cp.total_s - 10.0).abs() < 1e-12, "total {}", cp.total_s);
        // Chronological, contiguous tiling.
        assert_eq!(cp.segments[0].t0, 0.0);
        for pair in cp.segments.windows(2) {
            assert_eq!(pair[0].t1, pair[1].t0, "segments must tile contiguously");
        }
        assert_eq!(cp.segments.last().unwrap().t1, 10.0);
        let names: Vec<(&str, bool)> = cp
            .segments
            .iter()
            .map(|s| (s.name.as_str(), s.is_self))
            .collect();
        assert_eq!(
            names,
            vec![
                ("a1", false),
                ("a2", false),
                ("b", true), // 4..5 waiting inside b
                ("b1", false),
                ("b", true),    // 8..9 inside b after b1
                ("root", true), // 9..10
            ]
        );
    }

    #[test]
    fn slack_measures_the_runner_up() {
        let tr = known_tree();
        let cp = CriticalPath::from_trace(&tr).unwrap();
        // b (ends 9) beats a (ends 4) by 5 seconds.
        let b1 = cp
            .segments
            .iter()
            .find(|s| s.name == "b1" && !s.is_self)
            .unwrap();
        assert_eq!(b1.slack_s, None, "only child has no competitor");
        let a2 = cp.segments.iter().find(|s| s.name == "a2").unwrap();
        assert_eq!(a2.slack_s, Some(2.0), "a2 (t1=4) vs a1 (t1=2)");
    }

    #[test]
    fn zero_width_children_cannot_stall_the_walk() {
        let t = Tracer::standalone();
        let root = t.begin_at("root", "job", 0.0);
        t.span_at("sort", "phase", 1.0, 1.0, Vec::new());
        t.span_at("sort2", "phase", 1.0, 1.0, Vec::new());
        t.end_at(root, 2.0);
        let cp = CriticalPath::from_trace(&t.trace()).unwrap();
        assert!((cp.total_s - 2.0).abs() < 1e-12);
        assert_eq!(cp.segments.len(), 1, "zero-width spans are skipped");
    }

    #[test]
    fn overlapping_children_pick_the_blocking_chain() {
        // c2 overlaps the cursor when c1 is chosen; the walk must skip
        // it rather than loop or double-count.
        let t = Tracer::standalone();
        let root = t.begin_at("root", "job", 0.0);
        t.span_at("c1", "phase", 0.0, 6.0, Vec::new());
        t.span_at("c2", "phase", 2.0, 5.0, Vec::new());
        t.end_at(root, 6.0);
        let cp = CriticalPath::from_trace(&t.trace()).unwrap();
        assert!((cp.total_s - 6.0).abs() < 1e-12);
        assert_eq!(cp.segments.len(), 1);
        assert_eq!(cp.segments[0].name, "c1");
        assert_eq!(cp.segments[0].slack_s, Some(1.0), "c1 (6) vs c2 (5)");
    }

    #[test]
    fn single_child_slack_is_none_but_tied_siblings_get_zero() {
        // A lone child has no competitor (slack None); two siblings that
        // finish at the same instant compete with zero margin (Some(0)).
        let t = Tracer::standalone();
        let root = t.begin_at("root", "job", 0.0);
        let solo = t.begin_at("solo", "phase", 0.0);
        t.span_at_in("x-slot-0", "only", "task", 0.0, 3.0, Vec::new());
        t.end_at(solo, 3.0);
        let tied = t.begin_at("tied", "phase", 3.0);
        t.span_at_in("x-slot-0", "t1", "task", 3.0, 6.0, Vec::new());
        t.span_at_in("x-slot-1", "t2", "task", 3.0, 6.0, Vec::new());
        t.end_at(tied, 6.0);
        t.end_at(root, 6.0);
        let cp = CriticalPath::from_trace(&t.trace()).unwrap();
        let only = cp.segments.iter().find(|s| s.name == "only").unwrap();
        assert_eq!(only.slack_s, None);
        let winner = cp
            .segments
            .iter()
            .find(|s| s.cat == "task" && s.t0 == 3.0)
            .unwrap();
        assert_eq!(winner.slack_s, Some(0.0), "tied siblings, zero margin");
    }

    #[test]
    fn zero_duration_root_yields_an_empty_path() {
        let t = Tracer::standalone();
        let root = t.begin_at("root", "job", 0.0);
        t.span_at("blip", "phase", 0.0, 0.0, Vec::new());
        t.end_at(root, 0.0); // root is zero-duration
        let cp = CriticalPath::from_trace(&t.trace()).unwrap();
        assert_eq!(cp.total_s, 0.0);
        // The zero-width child is skipped; only the (zero-length) root
        // segment survives, contributing nothing to the rollup.
        assert_eq!(cp.segments.len(), 1, "{:?}", cp.segments);
        assert_eq!(cp.segments[0].name, "root");
        assert_eq!(cp.segments[0].duration_s(), 0.0);
        assert_eq!(cp.by_cat_s().get("job"), Some(&0.0));
        // Degenerate paths still render.
        assert!(cp.render(5).contains("critical path"));
    }

    #[test]
    fn by_cat_s_keys_are_stable_across_recording_order() {
        // Pool width only permutes the order concurrent spans are
        // recorded in; the rollup must not depend on it.
        let build = |swap: bool| {
            let t = Tracer::standalone();
            let root = t.begin_at("root", "job", 0.0);
            let a = t.begin_at("a", "phase", 0.0);
            let (first, second) = if swap { ("a2", "a1") } else { ("a1", "a2") };
            t.span_at_in("x-slot-0", first, "task", 0.0, 2.0, Vec::new());
            t.span_at_in("x-slot-1", second, "task", 0.0, 4.0, Vec::new());
            t.end_at(a, 4.0);
            t.end_at(root, 5.0);
            CriticalPath::from_trace(&t.trace()).unwrap().by_cat_s()
        };
        let (fwd, rev) = (build(false), build(true));
        let keys: Vec<&String> = fwd.keys().collect();
        assert_eq!(keys, rev.keys().collect::<Vec<_>>());
        assert_eq!(fwd, rev, "rollup must be order-independent");
        assert!(fwd.contains_key("task"));
        assert!(fwd.contains_key("job (self)"));
    }

    #[test]
    fn percentiles_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&v, 50.0), 2.0);
        assert_eq!(nearest_rank(&v, 95.0), 4.0);
        assert_eq!(nearest_rank(&v, 100.0), 4.0);
        assert_eq!(nearest_rank(&[], 50.0), 0.0);
        assert_eq!(nearest_rank(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn percentile_edge_cases() {
        // 0-sample: every percentile is the 0.0 sentinel.
        assert_eq!(nearest_rank(&[], 99.0), 0.0);
        // 1-sample: every percentile is that sample, including extremes.
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(nearest_rank(&[7.5], p), 7.5);
        }
        // p99 on small n rounds up to the max (nearest-rank, not interp).
        assert_eq!(nearest_rank(&[1.0, 2.0], 99.0), 2.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0], 99.0), 3.0);
        // p0 clamps to the first sample rather than underflowing.
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0], 0.0), 1.0);
        // Exactly at a rank boundary: ceil keeps nearest-rank semantics.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 99.0), 99.0);
        assert_eq!(nearest_rank(&v, 50.0), 50.0);
    }

    #[test]
    fn unsorted_percentile_and_peak_match_nearest_rank_at_small_n() {
        // 0 samples: sentinel zero for both helpers.
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(peak(&[]), 0.0);
        // 1 sample: every percentile and the peak are that sample.
        assert_eq!(percentile(&[4.25], 95.0), 4.25);
        assert_eq!(peak(&[4.25]), 4.25);
        // 2 samples, unsorted input: p50 is the smaller (rank 1), p95
        // the larger (rank 2) — identical to nearest_rank on the sorted
        // pair.
        assert_eq!(percentile(&[9.0, 3.0], 50.0), 3.0);
        assert_eq!(percentile(&[9.0, 3.0], 95.0), 9.0);
        assert_eq!(
            percentile(&[9.0, 3.0], 50.0),
            nearest_rank(&[3.0, 9.0], 50.0)
        );
        assert_eq!(peak(&[9.0, 3.0]), 9.0);
    }

    #[test]
    fn phase_stats_on_zero_and_one_sample_inputs() {
        // 0 samples: everything zero, nothing panics.
        let empty = PhaseStats::from_sorted(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.total_s, 0.0);
        assert_eq!(empty.p50_s, 0.0);
        assert_eq!(empty.p95_s, 0.0);
        assert_eq!(empty.max_s, 0.0);
        // 1 sample: every percentile equals the sample.
        let one = PhaseStats::from_sorted(&[3.25]);
        assert_eq!(one.count, 1);
        assert_eq!(one.total_s, 3.25);
        assert_eq!(one.p50_s, 3.25);
        assert_eq!(one.p95_s, 3.25);
        assert_eq!(one.max_s, 3.25);
    }

    fn quality_fixture() -> QualityReport {
        QualityReport {
            app: "toy".into(),
            ic_curve: vec![
                QualityPoint { t_s: 1.0, err: 8.0 },
                QualityPoint { t_s: 2.0, err: 2.0 },
                QualityPoint { t_s: 3.0, err: 1.0 },
            ],
            pic_curve: vec![
                QualityPoint { t_s: 0.5, err: 4.0 },
                QualityPoint {
                    t_s: 1.0,
                    err: 1.05,
                },
                QualityPoint { t_s: 4.0, err: 1.0 },
            ],
            ic_iterations: 3,
            be_iterations: 2,
            topoff_iterations: 1,
            be_final_err: 1.05,
        }
    }

    #[test]
    fn time_to_within_reads_the_first_qualifying_point() {
        let q = quality_fixture();
        // Final err 1.0: within 1% needs err <= 1.01 — only the last
        // points qualify.
        assert_eq!(QualityReport::time_to_within(&q.ic_curve, 0.01), Some(3.0));
        assert_eq!(QualityReport::time_to_within(&q.pic_curve, 0.01), Some(4.0));
        // Within 10% (err <= 1.1) the PIC curve qualifies at t=1.0.
        assert_eq!(QualityReport::time_to_within(&q.pic_curve, 0.10), Some(1.0));
        // Empty and single-point curves.
        assert_eq!(QualityReport::time_to_within(&[], 0.05), None);
        let single = [QualityPoint { t_s: 2.0, err: 0.5 }];
        assert_eq!(QualityReport::time_to_within(&single, 0.05), Some(2.0));
    }

    #[test]
    fn quality_report_accessors_and_gap() {
        let q = quality_fixture();
        assert_eq!(q.ic_final_err(), Some(1.0));
        assert_eq!(q.pic_final_err(), Some(1.0));
        assert!((q.be_handoff_gap_err().unwrap() - 0.05).abs() < 1e-12);
        let empty = QualityReport {
            ic_curve: vec![],
            pic_curve: vec![],
            ..q
        };
        assert_eq!(empty.ic_final_err(), None);
        assert_eq!(empty.be_handoff_gap_err(), None);
    }

    #[test]
    fn quality_json_is_balanced_and_follows_key_conventions() {
        let q = quality_fixture();
        let a = q.to_json(0);
        assert_eq!(a, q.to_json(0), "rendering twice must be identical");
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
        assert!(a.contains("\"ic_final_err\": 1"));
        assert!(a.contains("\"be_final_err\": 1.05"));
        assert!(a.contains("\"ic_iterations\": 3"));
        assert!(a.contains("\"speedup_10pct_x\""));
        assert!(a.contains("\"pic_1pct_s\": 4"));
        assert!(!a.contains("host_"));
        let text = q.render();
        assert!(text.contains("quality — toy"));
        assert!(text.contains("time to within"));
    }

    #[test]
    fn report_rolls_up_tasks_and_phases() {
        let tr = known_tree();
        let r = PerfReport::from_trace(&tr);
        assert_eq!(r.total_s, 10.0);
        let x = &r.tasks["x"];
        assert_eq!(x.durations.count, 3);
        assert_eq!(x.slots, 2);
        // slot-0 busy 2+3=5, slot-1 busy 2; mean 3.5.
        assert_eq!(x.busy_max_s, 5.0);
        assert!((x.busy_mean_s - 3.5).abs() < 1e-12);
        assert!((x.imbalance_x - 5.0 / 3.5).abs() < 1e-12);
        let phases = &r.phases["phase/a"];
        assert_eq!(phases.count, 1);
        assert_eq!(phases.max_s, 4.0);
        assert_eq!(r.phases["job"].count, 1);
    }

    #[test]
    fn iteration_attribution_reconciles_exactly() {
        let t = Tracer::standalone();
        let root = t.begin_at("pic:app", "driver", 0.0);
        t.traffic_event_over(TrafficClass::DfsRead, 1000, 0.0, 0.0); // outside any iteration
        let be = t.begin_at("be-1", "be-iteration", 0.0);
        t.set_arg(be, "iteration", Payload::U64(1));
        t.traffic_event_over(TrafficClass::Broadcast, 10, 0.0, 0.0);
        t.traffic_event_over(TrafficClass::Merge, 20, 0.0, 1.0);
        t.end_at(be, 1.0);
        let top = t.begin_at("topoff-1", "topoff", 1.0);
        t.traffic_event_over(TrafficClass::ShuffleRack, 30, 1.0, 3.0);
        t.traffic_event_over(TrafficClass::ModelUpdate, 40, 1.0, 1.0);
        t.end_at(top, 3.0);
        t.end_at(root, 3.0);
        let tr = t.trace();
        let r = PerfReport::from_trace(&tr);
        assert_eq!(r.iterations.len(), 2);
        assert_eq!(r.iterations[0].cat, "be-iteration");
        assert_eq!(r.iterations[0].index, 1);
        assert_eq!(r.iterations[0].bytes.get(TrafficClass::Broadcast), 10);
        assert_eq!(r.iterations[0].bytes.get(TrafficClass::Merge), 20);
        assert_eq!(r.iterations[1].time_s, 2.0);
        assert_eq!(r.iterations[1].bytes.shuffle_total(), 30);
        assert_eq!(r.iterations[1].bytes.model_update_total(), 40);
        assert_eq!(r.outside_bytes.get(TrafficClass::DfsRead), 1000);
        // Exact reconciliation against the real ledger totals.
        r.reconcile(&tr.traffic_totals()).unwrap();
        let mut wrong = tr.traffic_totals();
        wrong.set(TrafficClass::Merge, 21);
        let errs = r.reconcile(&wrong).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("class merge"), "{errs:?}");
    }

    #[test]
    fn iteration_index_falls_back_to_name_suffix() {
        let t = Tracer::standalone();
        let it = t.begin_at("topoff-7", "topoff", 0.0);
        t.end_at(it, 1.0);
        let r = PerfReport::from_trace(&t.trace());
        assert_eq!(r.iterations[0].index, 7);
    }

    #[test]
    fn empty_trace_yields_an_empty_report() {
        let r = PerfReport::from_trace(&Trace::default());
        assert_eq!(r.total_s, 0.0);
        assert!(r.critical_path.is_none());
        assert!(r.iterations.is_empty());
        let json = r.to_json(0);
        assert!(json.contains("\"critical_path\": null"));
    }

    #[test]
    fn json_is_stable_and_balanced() {
        let tr = known_tree();
        let r = PerfReport::from_trace(&tr);
        let a = r.to_json(0);
        let b = r.to_json(0);
        assert_eq!(a, b, "rendering twice must be identical");
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
        assert!(a.contains("\"schema_version\": 10"));
        assert!(a.contains("\"total_s\": 10"));
        assert!(a.contains("\"phase/a\""));
        assert!(
            !a.contains("host_"),
            "report JSON must carry no host values"
        );
        // Indent applies to every line.
        let indented = r.to_json(4);
        for line in indented.lines() {
            assert!(line.starts_with("    "), "line {line:?} not indented");
        }
    }

    #[test]
    fn render_mentions_every_section() {
        let t = Tracer::standalone();
        let root = t.begin_at("pic:app", "driver", 0.0);
        let be = t.begin_at("be-1", "be-iteration", 0.0);
        t.traffic_event_over(TrafficClass::Broadcast, 10, 0.0, 0.0);
        t.end_at(be, 1.0);
        t.end_at(root, 1.0);
        let r = PerfReport::from_trace(&t.trace());
        let text = r.render(10);
        assert!(text.contains("total simulated time"));
        assert!(text.contains("critical path — pic:app"));
        assert!(text.contains("per-iteration decomposition"));
        assert!(text.contains("be-1"));
        assert!(text.contains("time on path by category"));
    }

    #[test]
    fn path_limit_truncates_rendering() {
        let tr = known_tree();
        let cp = CriticalPath::from_trace(&tr).unwrap();
        let text = cp.render(2);
        assert!(text.contains("… 4 more segments"), "{text}");
        let full = cp.render(0);
        assert!(!full.contains("more segments"));
    }
}
