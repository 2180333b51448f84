//! Run monitoring: windowed telemetry, alert rules and an incident log
//! (DESIGN.md §16).
//!
//! [`Monitor::replay`] is a pure function of `(MonitorConfig, &Trace)`:
//! it replays a recorded run onto series of [`BUCKET_S`] buckets on the
//! simulated clock:
//!
//! * per-link utilization EWMAs over the §11 [`LinkClass`] mapping,
//! * the quality-improvement rate from the §10 `quality` probes,
//! * the straggler tail ratio (p-max/p50) per phase wave,
//! * the task-queue depth (mean concurrent tasks per bucket),
//! * the recovery-byte rate under chaos.
//!
//! The closed [`Rule`] catalog evaluates those series into an incident
//! log: `stall`, `divergence`, `saturation`, `straggler-tail`,
//! `recovery-storm` and `fault`. Every rule runs, and every sustain or
//! gap test reads the one window [`WINDOW_S`]; `saturation` reads §11's
//! [`SATURATION_THRESHOLD`]. Each [`Incident`] records its rule (and
//! through it the severity), open/close times, the peak value that
//! tripped it, and the deepest trace span enclosing its open time — the
//! span tree gives incidents the same nesting the other views have.
//!
//! **Reconciliation guarantee.** The per-link window series are built by
//! the same [`crate::sweep`] spreader as [`crate::timeline`], so every
//! byte integral equals the [`TrafficLedger`] total for its link class
//! **exactly** (`==`), and the recovery series integrates to
//! `recovery_total()`. [`crate::trace::check::monitor_reconciles`]
//! enforces this for every validated run. Bytes land in fixed
//! simulated-time buckets and point series are stably sorted by time
//! (equal times keep recording order), so the report is byte-identical
//! across rayon pool widths.
//!
//! [`TrafficLedger`]: crate::traffic::TrafficLedger

use crate::report::{fmt_f64, json_f64s, nearest_rank, peak, Column, JsonWriter};
use crate::sweep::{apportion, collect_charges, phase_waves, spread_busy, utilization, LinkClass};
use crate::timeline::{heat_bar, SATURATION_THRESHOLD};
use crate::topology::ClusterSpec;
use crate::trace::{check, Span, Trace};
use crate::traffic::{TrafficClass, TrafficSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Sliding-window length, simulated seconds: every sustain or gap test
/// and the utilization EWMA's time constant.
pub const WINDOW_S: f64 = 5.0;

/// Bucket width, simulated seconds: four buckets per window.
pub const BUCKET_S: f64 = WINDOW_S / 4.0;

/// Most buckets one replay may span: the monitor keeps every bucket of
/// every series, so a run too long for the grid is refused instead of
/// allocated.
pub const MAX_BUCKETS: f64 = 1e6;

/// Names of the alert-rule catalog, in [`Rule::ALL`] order — the
/// incident-log and `by_rule` keys.
pub const CATALOG_RULES: [&str; 6] = [
    "stall",
    "divergence",
    "saturation",
    "straggler-tail",
    "recovery-storm",
    "fault",
];

/// One alert rule of the closed catalog. Every sustain or gap test reads
/// the monitor's one window ([`WINDOW_S`]); the fixed thresholds are
/// documented per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// No quality improvement for more than [`WINDOW_S`] simulated
    /// seconds (measured between strict improvements of the
    /// best-so-far objective; the gap to the run's end counts).
    Stall,
    /// The objective rises across consecutive quality samples for at
    /// least [`WINDOW_S`] simulated seconds.
    Divergence,
    /// Some link's bucket utilization stays at or above §11's
    /// [`SATURATION_THRESHOLD`] for at least [`WINDOW_S`] consecutive
    /// simulated seconds.
    Saturation,
    /// A phase wave's p-max/p50 task-duration ratio reaches 4.
    StragglerTail,
    /// The recovery-byte rate in any bucket reaches 1 byte/second
    /// (contiguous storm buckets merge into one incident).
    RecoveryStorm,
    /// Any injected `chaos`-category fault instant.
    Fault,
}

impl Rule {
    /// The whole catalog, in evaluation order.
    pub const ALL: [Rule; 6] = [
        Rule::Stall,
        Rule::Divergence,
        Rule::Saturation,
        Rule::StragglerTail,
        Rule::RecoveryStorm,
        Rule::Fault,
    ];

    /// The rule's name, its [`CATALOG_RULES`] entry.
    pub fn name(self) -> &'static str {
        CATALOG_RULES[self as usize]
    }

    /// The `severity` column of the rule's incidents: `page` when
    /// someone should look now, `warn` when the run is degraded but
    /// progressing.
    pub fn severity(self) -> &'static str {
        match self {
            Rule::Divergence | Rule::RecoveryStorm | Rule::Fault => "page",
            Rule::Stall | Rule::Saturation | Rule::StragglerTail => "warn",
        }
    }
}

/// Monitor configuration: the cluster whose capacities utilization is
/// measured against.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Capacity model for link utilization.
    pub spec: ClusterSpec,
}

impl MonitorConfig {
    /// The configuration on `spec`.
    pub fn new(spec: ClusterSpec) -> MonitorConfig {
        MonitorConfig { spec }
    }
}

/// One alert-rule firing: open/close on the simulated clock, nested
/// inside the span tree via `span`.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// The rule that fired; its [`Rule::severity`] is the incident's.
    pub rule: Rule,
    /// Which series tripped it (`quality`, `util:bisection`, `wave:map/3`,
    /// `recovery`, `fault:node-crash`).
    pub series: String,
    /// Open time, simulated seconds.
    pub open_s: f64,
    /// Close time, simulated seconds (`== open_s` for point incidents).
    pub close_s: f64,
    /// Peak value of the watched signal while open (gap seconds,
    /// utilization, ratio, bytes/second, …).
    pub peak: f64,
    /// Name of the deepest span enclosing `open_s` — where in the span
    /// tree the incident opened (`-` when no span contains it).
    pub span: String,
}

impl Incident {
    /// Open duration, simulated seconds.
    pub fn duration_s(&self) -> f64 {
        (self.close_s - self.open_s).max(0.0)
    }

    /// The incident in schema order — the `incidents` objects of the
    /// full JSON document.
    fn columns(&self) -> Vec<Column> {
        vec![
            Column::text("rule", self.rule.name()),
            Column::text("severity", self.rule.severity()),
            Column::text("series", &self.series),
            Column::num("open_s", fmt_f64(self.open_s)),
            Column::num("close_s", fmt_f64(self.close_s)),
            Column::num("peak", fmt_f64(self.peak)),
            Column::text("span", &self.span),
        ]
    }
}

/// One link class's windowed byte/utilization series.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorSeries {
    /// Bytes attributed to each bucket (cumulative-rounding exact).
    pub bytes: Vec<u64>,
    /// `bytes[i] / (capacity × BUCKET_S)` per bucket.
    pub util: Vec<f64>,
    /// Exponentially-weighted moving average of `util` with time
    /// constant [`WINDOW_S`].
    pub ewma: Vec<f64>,
    /// Sum of `bytes` — reconciles exactly with the ledger.
    pub total_bytes: u64,
    /// Maximum of `util`.
    pub peak_util: f64,
}

/// Straggler statistics for one scheduler wave of one phase
/// ([`phase_waves`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WaveStat {
    /// Name of the phase span the wave's tasks ran under.
    pub phase: String,
    /// Wave index within the phase (the `wave` arg on task spans).
    pub wave: u64,
    /// Tasks in the wave.
    pub tasks: usize,
    /// Nearest-rank p50 task duration, seconds.
    pub p50_s: f64,
    /// Longest task duration, seconds.
    pub max_s: f64,
    /// `max_s / p50_s` (0 when p50 is 0).
    pub tail_x: f64,
    /// p50 task *completion* time — when the wave's bulk finished.
    pub open_s: f64,
    /// Last task completion time.
    pub close_s: f64,
}

/// The monitor's finished snapshot: every sliding-window series plus the
/// incident log.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorReport {
    /// Run horizon, simulated seconds.
    pub horizon_s: f64,
    /// Number of buckets covering the horizon.
    pub buckets: usize,
    /// Per-link-class series, keyed by [`LinkClass::label`].
    pub links: BTreeMap<&'static str, MonitorSeries>,
    /// Quality samples `(t, objective)`, ordered by time, equal times in
    /// recording order.
    pub quality: Vec<(f64, f64)>,
    /// Best-so-far objective improvement per second, per bucket.
    pub quality_rate: Vec<f64>,
    /// Mean concurrent tasks per bucket (the queue-depth series).
    pub depth: Vec<f64>,
    /// Maximum of `depth`.
    pub peak_depth: f64,
    /// Recovery bytes attributed to each bucket (exact).
    pub recovery_bytes: Vec<u64>,
    /// `recovery_bytes[i] / BUCKET_S` per bucket.
    pub recovery_rate: Vec<f64>,
    /// Per-wave straggler statistics, by phase in recording order, then
    /// ascending by wave.
    pub waves: Vec<WaveStat>,
    /// Injected `chaos` fault instants seen.
    pub faults: u64,
    /// The incident log, ordered by `(open_s, close_s, rule, series)`.
    pub incidents: Vec<Incident>,
}

/// The run monitor. [`Monitor::replay`] is its one entry point (`pic
/// watch`, the bench `monitor` section, the chaos cells and the
/// reconciliation check all call it).
#[derive(Debug)]
pub struct Monitor;

impl Monitor {
    /// Replay `trace` under `cfg`: put every charge, task, quality probe
    /// and fault on a grid of [`BUCKET_S`] buckets covering the run's
    /// horizon, compute EWMAs and rates, evaluate the whole rule catalog
    /// into the incident log, and anchor each incident to the deepest
    /// span enclosing it. A run so long that the grid would exceed
    /// [`MAX_BUCKETS`] is refused.
    pub fn replay(cfg: MonitorConfig, trace: &Trace) -> Result<MonitorReport, String> {
        let dt = BUCKET_S;
        let (charges, horizon) = collect_charges(trace);
        // Counted in f64 first: a long horizon's bucket count overflows
        // `usize` long before it fails the limit.
        let grid = if horizon > 0.0 {
            (horizon / dt).floor() + 1.0
        } else {
            0.0
        };
        if grid > MAX_BUCKETS {
            return Err(format!(
                "monitor: a {horizon:e} s run needs {grid:.1e} buckets of {dt} s, over {MAX_BUCKETS}"
            ));
        }
        let buckets = grid as usize;

        // Per-link byte series (exact apportionment), utilization, EWMA.
        let series_of = |member: &dyn Fn(TrafficClass) -> bool| {
            let mut bytes = vec![0u64; buckets];
            for ch in charges.iter().filter(|c| member(c.class)) {
                apportion(&mut bytes, ch, dt);
            }
            bytes
        };
        let alpha = 1.0 - (-dt / WINDOW_S).exp();
        let mut links = BTreeMap::new();
        for link in LinkClass::ALL {
            let bytes = series_of(&|class| LinkClass::of(class) == link);
            let util = utilization(&bytes, link.capacity(&cfg.spec), dt);
            let mut ewma = Vec::with_capacity(util.len());
            let mut e = 0.0;
            for u in &util {
                e = alpha * u + (1.0 - alpha) * e;
                ewma.push(e);
            }
            let total_bytes = bytes.iter().sum();
            let peak_util = peak(&util);
            links.insert(
                link.label(),
                MonitorSeries {
                    bytes,
                    util,
                    ewma,
                    total_bytes,
                    peak_util,
                },
            );
        }
        let recovery_bytes = series_of(&|class| class == TrafficClass::Recovery);
        let recovery_rate: Vec<f64> = recovery_bytes.iter().map(|&b| b as f64 / dt).collect();

        // Queue depth: busy task-seconds per bucket, accumulated in span
        // recording order.
        let mut busy = vec![0.0; buckets];
        let is_closed_task = |s: &&Span| s.cat == "task" && s.t1.is_finite();
        for s in trace.spans.iter().filter(is_closed_task) {
            spread_busy(&mut busy, s.t0, s.t1, dt);
        }
        let depth: Vec<f64> = busy.iter().map(|s| s / dt).collect();
        let mut waves = Vec::new();
        for (phase, by_wave) in phase_waves(trace) {
            for (wave, tasks) in by_wave {
                let mut durations: Vec<f64> = tasks.iter().map(|s| s.duration_s()).collect();
                durations.sort_by(|x, y| x.partial_cmp(y).expect("finite durations"));
                let mut ends: Vec<f64> = tasks.iter().map(|s| s.t1).collect();
                ends.sort_by(|x, y| x.partial_cmp(y).expect("finite times"));
                let p50_s = nearest_rank(&durations, 50.0);
                let max_s = durations.last().copied().unwrap_or(0.0);
                waves.push(WaveStat {
                    phase: trace.spans[phase].name.clone(),
                    wave,
                    tasks: tasks.len(),
                    p50_s,
                    max_s,
                    tail_x: if p50_s > 0.0 { max_s / p50_s } else { 0.0 },
                    open_s: nearest_rank(&ends, 50.0),
                    close_s: ends.last().copied().unwrap_or(0.0),
                });
            }
        }

        // Quality samples and fault instants in time order; the stable
        // sorts keep equal times in recording order.
        let mut quality: Vec<(f64, f64)> = Vec::new();
        let mut faults: Vec<(f64, String)> = Vec::new();
        for ev in &trace.instants {
            match ev.cat {
                "quality" => quality.extend(ev.arg_f64("objective").map(|o| (ev.t, o))),
                "chaos" => faults.push((ev.t, ev.name.clone())),
                _ => {}
            }
        }
        quality.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        faults.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));

        // Best-so-far improvement rate per bucket.
        let mut quality_rate = vec![0.0; buckets];
        if let Some(&(_, first_obj)) = quality.first() {
            let mut best = first_obj;
            for &(t, obj) in &quality {
                if obj < best {
                    let i = ((t.max(0.0) / dt).floor() as usize).min(buckets.saturating_sub(1));
                    if !quality_rate.is_empty() {
                        quality_rate[i] += (best - obj) / dt;
                    }
                    best = obj;
                }
            }
        }

        let mut report = MonitorReport {
            horizon_s: horizon,
            buckets,
            links,
            quality,
            quality_rate,
            peak_depth: peak(&depth),
            depth,
            recovery_bytes,
            recovery_rate,
            waves,
            faults: faults.len() as u64,
            incidents: Vec::new(),
        };
        report.incidents = evaluate_rules(&report, &faults, trace);
        Ok(report)
    }
}

/// Evaluate the whole rule catalog over the finished series.
fn evaluate_rules(
    report: &MonitorReport,
    faults: &[(f64, String)],
    trace: &Trace,
) -> Vec<Incident> {
    let (dt, window) = (BUCKET_S, WINDOW_S);
    let horizon = report.horizon_s;
    let mut incidents = Vec::new();
    let mut push = |rule: Rule, series: String, open: f64, close: f64, peak: f64| {
        incidents.push(Incident {
            rule,
            series,
            open_s: open,
            close_s: close,
            peak,
            span: String::new(),
        });
    };

    // Maximal runs of consecutive buckets where `hot(i)` holds, as
    // (first, last) inclusive bucket indices.
    let runs = |hot: &dyn Fn(usize) -> bool, n: usize| -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut start: Option<usize> = None;
        for i in 0..n {
            match (hot(i), start) {
                (true, None) => start = Some(i),
                (false, Some(s)) => {
                    out.push((s, i - 1));
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            out.push((s, n - 1));
        }
        out
    };

    for rule in Rule::ALL {
        match rule {
            Rule::Stall => {
                if report.quality.is_empty() {
                    continue;
                }
                // Strict improvements of the best-so-far objective.
                let mut marks = vec![report.quality[0].0];
                let mut best = report.quality[0].1;
                for &(t, obj) in &report.quality[1..] {
                    if obj < best {
                        best = obj;
                        marks.push(t);
                    }
                }
                marks.push(horizon);
                for pair in marks.windows(2) {
                    let gap = pair[1] - pair[0];
                    if gap > window {
                        push(rule, "quality".to_string(), pair[0] + window, pair[1], gap);
                    }
                }
            }
            Rule::Divergence => {
                // Maximal strictly-rising sample runs lasting a window.
                let q = &report.quality;
                let mut i = 0;
                while i + 1 < q.len() {
                    if q[i + 1].1 > q[i].1 {
                        let start = i;
                        while i + 1 < q.len() && q[i + 1].1 > q[i].1 {
                            i += 1;
                        }
                        let (t0, o0) = q[start];
                        let (t1, o1) = q[i];
                        if t1 - t0 >= window {
                            push(rule, "quality".to_string(), t0, t1, o1 - o0);
                        }
                    } else {
                        i += 1;
                    }
                }
            }
            Rule::Saturation => {
                for link in LinkClass::ALL {
                    let s = &report.links[link.label()];
                    let hot = |i: usize| s.util[i] >= SATURATION_THRESHOLD;
                    for (a, b) in runs(&hot, s.util.len()) {
                        let dur = (b - a + 1) as f64 * dt;
                        if dur >= window {
                            let peak = s.util[a..=b].iter().copied().fold(0.0, f64::max);
                            push(
                                rule,
                                format!("util:{}", link.label()),
                                a as f64 * dt,
                                ((b + 1) as f64 * dt).min(horizon),
                                peak,
                            );
                        }
                    }
                }
            }
            Rule::StragglerTail => {
                for w in &report.waves {
                    if w.tail_x >= 4.0 {
                        push(
                            rule,
                            format!("wave:{}/{}", w.phase, w.wave),
                            w.open_s,
                            w.close_s,
                            w.tail_x,
                        );
                    }
                }
            }
            Rule::RecoveryStorm => {
                let hot = |i: usize| report.recovery_rate[i] >= 1.0;
                for (a, b) in runs(&hot, report.recovery_rate.len()) {
                    let peak = report.recovery_rate[a..=b]
                        .iter()
                        .copied()
                        .fold(0.0, f64::max);
                    push(
                        rule,
                        "recovery".to_string(),
                        a as f64 * dt,
                        ((b + 1) as f64 * dt).min(horizon).max(a as f64 * dt),
                        peak,
                    );
                }
            }
            Rule::Fault => {
                for (t, name) in faults {
                    push(rule, format!("fault:{name}"), *t, *t, 1.0);
                }
            }
        }
    }

    // Anchor each incident to the deepest span enclosing its open time.
    let depths: Vec<usize> = trace
        .spans
        .iter()
        .map(|s| {
            let mut d = 0;
            let mut cur = s.parent;
            while let Some(p) = cur {
                d += 1;
                cur = trace.spans[p.index()].parent;
            }
            d
        })
        .collect();
    for inc in &mut incidents {
        let mut best: Option<(usize, f64, usize)> = None;
        let mut name = "-";
        for (s, &d) in trace.spans.iter().zip(&depths) {
            if s.t0 <= inc.open_s && inc.open_s <= s.t1 {
                let key = (d, s.t0, s.id.index());
                if best.is_none_or(|b| key > b) {
                    best = Some(key);
                    name = &s.name;
                }
            }
        }
        inc.span = name.to_string();
    }

    incidents.sort_by(|a, b| {
        (a.open_s, a.close_s, a.rule.name(), &a.series)
            .partial_cmp(&(b.open_s, b.close_s, b.rule.name(), &b.series))
            .expect("finite incident times")
    });
    incidents
}

impl MonitorReport {
    /// Total open-incident seconds across the log.
    pub fn incident_s(&self) -> f64 {
        self.incidents.iter().map(Incident::duration_s).sum()
    }

    /// Longest single incident, seconds.
    pub fn longest_incident_s(&self) -> f64 {
        self.incidents
            .iter()
            .map(Incident::duration_s)
            .fold(0.0, f64::max)
    }

    /// Incidents opened by `rule`.
    pub fn count(&self, rule: Rule) -> usize {
        self.incidents.iter().filter(|i| i.rule == rule).count()
    }

    /// The reconciliation guarantee, enforced exactly (`==`): every
    /// per-link window series integrates to the ledger totals of its
    /// member traffic classes, and the recovery series integrates to
    /// `recovery_total()`.
    pub fn reconcile(&self, ledger: &TrafficSnapshot) -> Result<(), Vec<String>> {
        let mut errs = Vec::new();
        for link in LinkClass::ALL {
            let expected: u64 = TrafficClass::ALL
                .iter()
                .filter(|c| LinkClass::of(**c) == link)
                .map(|c| ledger.get(*c))
                .sum();
            let got = self.links[link.label()].total_bytes;
            if got != expected {
                errs.push(format!(
                    "monitor: {} window integral {got} != ledger total {expected}",
                    link.label()
                ));
            }
        }
        let recovery: u64 = self.recovery_bytes.iter().sum();
        if recovery != ledger.recovery_total() {
            errs.push(format!(
                "monitor: recovery window integral {recovery} != ledger total {}",
                ledger.recovery_total()
            ));
        }
        check::verdict(errs)
    }

    /// The scalar summary the regression gate diffs (`BENCH_pic.json`
    /// schema v8): incident counts exact, durations banded seconds.
    pub fn to_json_summary(&self, indent: usize) -> String {
        JsonWriter::document(indent, |w| self.write_json_summary(w))
    }

    /// The fields of [`MonitorReport::to_json_summary`], written into
    /// the caller's open object.
    pub fn write_json_summary(&self, w: &mut JsonWriter) {
        w.field("incidents", &self.incidents.len().to_string());
        w.field("incident_s", &fmt_f64(self.incident_s()));
        w.field("longest_incident_s", &fmt_f64(self.longest_incident_s()));
        w.open_key("by_rule", "{");
        for rule in Rule::ALL {
            w.field(rule.name(), &self.count(rule).to_string());
        }
        w.close("}");
        w.field("quality_samples", &self.quality.len().to_string());
        w.field("faults", &self.faults.to_string());
        w.field("peak_depth", &fmt_f64(self.peak_depth));
    }

    /// The full machine-readable document behind `pic watch --json`:
    /// config, every series, waves and the incident log. A pure function
    /// of the simulated trace — byte-identical across rayon pool widths.
    pub fn to_json(&self, indent: usize) -> String {
        JsonWriter::document(indent, |w| self.write_json(w))
    }

    /// The fields of [`MonitorReport::to_json`], written into the
    /// caller's open object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.field("window_s", &fmt_f64(WINDOW_S));
        w.field("bucket_s", &fmt_f64(BUCKET_S));
        w.field("horizon_s", &fmt_f64(self.horizon_s));
        w.field("buckets", &self.buckets.to_string());
        w.open_key("links", "{");
        for (label, s) in &self.links {
            let bytes: Vec<String> = s.bytes.iter().map(u64::to_string).collect();
            w.open_key(label, "{");
            w.field("total_bytes", &s.total_bytes.to_string());
            w.field("peak_util", &fmt_f64(s.peak_util));
            w.field("bytes", &format!("[{}]", bytes.join(", ")));
            w.field("ewma_util", &json_f64s(&s.ewma));
            w.close("}");
        }
        w.close("}");
        w.field("quality_samples", &self.quality.len().to_string());
        w.field("quality_rate", &json_f64s(&self.quality_rate));
        w.field("depth", &json_f64s(&self.depth));
        w.field("peak_depth", &fmt_f64(self.peak_depth));
        w.field(
            "recovery_bytes_total",
            &self.recovery_bytes.iter().sum::<u64>().to_string(),
        );
        w.field("recovery_rate", &json_f64s(&self.recovery_rate));
        w.objects("waves", &self.waves, |w, wv| {
            w.field_str("phase", &wv.phase);
            w.field("wave", &wv.wave.to_string());
            w.field("tasks", &wv.tasks.to_string());
            w.field("p50_s", &fmt_f64(wv.p50_s));
            w.field("max_s", &fmt_f64(wv.max_s));
            w.field("tail_x", &fmt_f64(wv.tail_x));
        });
        w.field("faults", &self.faults.to_string());
        w.field("incident_s", &fmt_f64(self.incident_s()));
        w.objects("incidents", &self.incidents, |w, inc| {
            w.columns(&inc.columns())
        });
    }

    /// `(label, sparkline, last, peak)` dashboard rows for every series
    /// over the whole run, `width` cells each.
    fn rows(&self, width: usize) -> Vec<(String, String, f64, f64)> {
        let mut rows = Vec::new();
        for (label, s) in &self.links {
            rows.push((
                format!("util:{label}"),
                heat_bar(&s.ewma, width),
                s.ewma.last().copied().unwrap_or(0.0),
                s.peak_util,
            ));
        }
        let norm = |v: &[f64]| -> Vec<f64> {
            let top = peak(v);
            if top > 0.0 {
                v.iter().map(|x| x / top).collect()
            } else {
                vec![0.0; v.len()]
            }
        };
        for (label, series) in [
            ("quality-rate", &self.quality_rate),
            ("queue-depth", &self.depth),
            ("recovery-rate", &self.recovery_rate),
        ] {
            rows.push((
                label.to_string(),
                heat_bar(&norm(series), width),
                series.last().copied().unwrap_or(0.0),
                peak(series),
            ));
        }
        rows
    }

    /// Render the dashboard panel: one sparkline row per series plus the
    /// incident ticker.
    pub fn render(&self, width: usize) -> String {
        let mut out = format!(
            "  window {WINDOW_S} s, bucket {BUCKET_S} s, horizon {:.3} s, {} waves, {} faults\n",
            self.horizon_s,
            self.waves.len(),
            self.faults
        );
        let rows = self.rows(width);
        // Pad to the widest label, so every sparkline starts in one column.
        let pad = rows.iter().map(|r| r.0.len()).max().unwrap_or(0);
        for (label, bar, last, peak) in rows {
            let _ = writeln!(
                out,
                "  {label:<pad$} |{bar}| last {last:>10.4} peak {peak:>10.4}"
            );
        }
        if self.incidents.is_empty() {
            let _ = writeln!(out, "  incidents: none");
        } else {
            let n = self.incidents.len();
            let _ = writeln!(out, "  incidents: {n} ({:.3} s open)", self.incident_s());
        }
        for inc in &self.incidents {
            let _ = writeln!(
                out,
                "    [{}] {:<14} {:<18} open {:>9.3} close {:>9.3} peak {:>10.4} in {}",
                inc.rule.severity(),
                inc.rule.name(),
                inc.series,
                inc.open_s,
                inc.close_s,
                inc.peak,
                inc.span
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Payload, Tracer};
    use crate::traffic::TrafficLedger;

    fn cfg() -> MonitorConfig {
        MonitorConfig::new(ClusterSpec::small())
    }

    fn quality_at(t: &Tracer, when: f64, obj: f64) {
        t.instant_at(
            "sample",
            "quality",
            when,
            vec![("objective".to_string(), Payload::F64(obj))],
        );
    }

    #[test]
    fn catalog_names_and_severities() {
        let names: Vec<&str> = Rule::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(names, CATALOG_RULES);
        let pages: Vec<Rule> = Rule::ALL
            .into_iter()
            .filter(|r| r.severity() == "page")
            .collect();
        assert_eq!(pages, [Rule::Divergence, Rule::RecoveryStorm, Rule::Fault]);
        assert!(Rule::ALL
            .iter()
            .all(|r| matches!(r.severity(), "warn" | "page")));
    }

    /// A run whose grid would exceed the bucket limit is refused with an
    /// error naming the horizon, not an overflow or an empty report —
    /// also where the bucket count overflows `usize`.
    #[test]
    fn a_run_longer_than_the_bucket_limit_is_refused() {
        for horizon in [2e6, 1e300] {
            let t = Tracer::standalone();
            let root = t.begin_at("run", "driver", 0.0);
            quality_at(&t, 0.5, 10.0);
            t.end_at(root, horizon);
            let err = Monitor::replay(cfg(), &t.trace()).unwrap_err();
            assert!(err.contains(&format!("a {horizon:e} s run")), "{err}");
            assert!(err.contains("over 1000000"), "{err}");
            assert!(err.len() < 160, "{} characters: {err}", err.len());
        }
    }

    /// Quality samples and faults stamped at one simulated time keep the
    /// order they were recorded in; earlier times still sort first.
    #[test]
    fn equal_time_instants_keep_recording_order() {
        let t = Tracer::standalone();
        let root = t.begin_at("run", "driver", 0.0);
        for obj in [3.0, 2.0, 1.0] {
            quality_at(&t, 1.0, obj);
        }
        quality_at(&t, 0.5, 9.0);
        for name in ["b-fault", "a-fault"] {
            t.instant_at_in(crate::chaos::CHAOS_LANE, name, "chaos", 1.0, Vec::new());
        }
        t.end_at(root, 2.0);
        let r = Monitor::replay(cfg(), &t.trace()).unwrap();
        assert_eq!(r.quality, [(0.5, 9.0), (1.0, 3.0), (1.0, 2.0), (1.0, 1.0)]);
        assert_eq!(r.faults, 2);
        assert_eq!(r.count(Rule::Fault), 2);
    }

    /// Satellite edge case: an empty run yields an empty report and no
    /// incidents.
    #[test]
    fn empty_run_is_quiet() {
        let t = Tracer::standalone();
        let r = Monitor::replay(cfg(), &t.trace()).unwrap();
        assert_eq!(r.buckets, 0);
        assert!(r.incidents.is_empty());
        assert_eq!(r.horizon_s, 0.0);
        assert!(r.reconcile(&TrafficSnapshot::default()).is_ok());
    }

    /// Satellite edge case: a single quality sample in a run shorter
    /// than the window fires nothing.
    #[test]
    fn single_sample_and_window_longer_than_run() {
        let t = Tracer::standalone();
        let root = t.begin_at("run", "driver", 0.0);
        quality_at(&t, 0.5, 10.0);
        t.end_at(root, 1.0);
        let r = Monitor::replay(cfg(), &t.trace()).unwrap();
        assert_eq!(r.quality.len(), 1);
        assert!(r.incidents.is_empty(), "{:?}", r.incidents);
        assert_eq!(r.buckets, 1, "one bucket covers the whole run");
    }

    /// Satellite edge case: a rule whose condition never holds opens no
    /// incidents even on a long run.
    #[test]
    fn rule_that_never_fires_stays_quiet() {
        let t = Tracer::standalone();
        let root = t.begin_at("run", "driver", 0.0);
        for i in 0..100 {
            quality_at(&t, i as f64, 100.0 - i as f64); // steady improvement
        }
        t.end_at(root, 100.0);
        let r = Monitor::replay(cfg(), &t.trace()).unwrap();
        assert!(r.incidents.is_empty(), "{:?}", r.incidents);
    }

    #[test]
    fn stall_fires_on_a_quality_gap_and_reports_the_gap() {
        let t = Tracer::standalone();
        let root = t.begin_at("run", "driver", 0.0);
        quality_at(&t, 1.0, 10.0);
        quality_at(&t, 2.0, 9.0);
        quality_at(&t, 20.0, 8.0); // 18 s without improvement
        t.end_at(root, 21.0);
        let r = Monitor::replay(cfg(), &t.trace()).unwrap();
        let stalls: Vec<&Incident> = r
            .incidents
            .iter()
            .filter(|i| i.rule == Rule::Stall)
            .collect();
        assert_eq!(stalls.len(), 1, "{:?}", r.incidents);
        assert_eq!(stalls[0].open_s, 2.0 + WINDOW_S);
        assert_eq!(stalls[0].close_s, 20.0);
        assert_eq!(stalls[0].peak, 18.0);
        assert_eq!(stalls[0].span, "run", "nested in the live span tree");
    }

    /// A gap shorter than the window is no stall: a 3 s gap between
    /// improvements, and 1 s from the last one to the run's end.
    #[test]
    fn a_gap_shorter_than_the_window_is_no_stall() {
        let t = Tracer::standalone();
        let root = t.begin_at("run", "driver", 0.0);
        quality_at(&t, 1.0, 10.0);
        quality_at(&t, 4.0, 9.0); // 3 s without improvement
        t.end_at(root, 5.0);
        let r = Monitor::replay(cfg(), &t.trace()).unwrap();
        assert_eq!(r.count(Rule::Stall), 0, "{:?}", r.incidents);
    }

    #[test]
    fn divergence_fires_on_a_sustained_rise() {
        let t = Tracer::standalone();
        let root = t.begin_at("run", "driver", 0.0);
        quality_at(&t, 0.0, 5.0);
        for i in 0..8 {
            quality_at(&t, 1.0 + i as f64, 6.0 + i as f64); // rising 7 s
        }
        quality_at(&t, 9.0, 1.0);
        t.end_at(root, 10.0);
        let r = Monitor::replay(cfg(), &t.trace()).unwrap();
        let div: Vec<&Incident> = r
            .incidents
            .iter()
            .filter(|i| i.rule == Rule::Divergence)
            .collect();
        assert_eq!(div.len(), 1, "{:?}", r.incidents);
        assert_eq!(div[0].open_s, 0.0);
        assert_eq!(div[0].close_s, 8.0);
        assert_eq!(div[0].peak, 8.0); // rose 5 → 13
    }

    #[test]
    fn saturation_fires_only_when_sustained() {
        let t = Tracer::standalone();
        let ledger = TrafficLedger::traced(t.clone());
        let root = t.begin_at("run", "driver", 0.0);
        let spec = ClusterSpec::small();
        let cap = LinkClass::Bisection.capacity(&spec);
        // Saturate the bisection for 10 s (≥ window), then idle to 20 s.
        ledger.add_over(
            crate::traffic::TrafficClass::ShuffleBisection,
            (cap * 10.0) as u64,
            0.0,
            10.0,
        );
        t.end_at(root, 20.0);
        let r = Monitor::replay(cfg(), &t.trace()).unwrap();
        let sat: Vec<&Incident> = r
            .incidents
            .iter()
            .filter(|i| i.rule == Rule::Saturation)
            .collect();
        assert_eq!(sat.len(), 1, "{:?}", r.incidents);
        assert_eq!(sat[0].series, "util:bisection");
        assert!(sat[0].peak >= SATURATION_THRESHOLD);
        assert!(r.reconcile(&ledger.snapshot()).is_ok());

        // A sub-window burst stays quiet.
        let t = Tracer::standalone();
        let ledger = TrafficLedger::traced(t.clone());
        let root = t.begin_at("run", "driver", 0.0);
        ledger.add_over(
            crate::traffic::TrafficClass::ShuffleBisection,
            (cap * 2.0) as u64,
            0.0,
            2.0,
        );
        t.end_at(root, 20.0);
        let r = Monitor::replay(cfg(), &t.trace()).unwrap();
        assert!(
            r.incidents.iter().all(|i| i.rule != Rule::Saturation),
            "{:?}",
            r.incidents
        );
    }

    #[test]
    fn straggler_tail_fires_per_wave() {
        let t = Tracer::standalone();
        let root = t.begin_at("run", "driver", 0.0);
        let wave_arg = |w: u64| vec![("wave".to_string(), Payload::U64(w))];
        // Wave 0: balanced. Wave 1: one task 5× the p50.
        for slot in 0..4 {
            t.span_at_in(
                &format!("map-slot-{slot}"),
                "t",
                "task",
                0.0,
                1.0,
                wave_arg(0),
            );
        }
        for slot in 0..3 {
            t.span_at_in(
                &format!("map-slot-{slot}"),
                "t",
                "task",
                1.0,
                2.0,
                wave_arg(1),
            );
        }
        t.span_at_in("map-slot-3", "t", "task", 1.0, 6.0, wave_arg(1));
        t.end_at(root, 6.0);
        let r = Monitor::replay(cfg(), &t.trace()).unwrap();
        let tails: Vec<&Incident> = r
            .incidents
            .iter()
            .filter(|i| i.rule == Rule::StragglerTail)
            .collect();
        assert_eq!(tails.len(), 1, "{:?}", r.incidents);
        assert_eq!(tails[0].series, "wave:run/1");
        assert_eq!(tails[0].peak, 5.0);
        assert_eq!(r.waves.len(), 2);
        assert_eq!(r.waves[0].tail_x, 1.0);
    }

    /// The scheduler numbers waves per phase, so wave 0 of one phase is
    /// not wave 0 of the next: a phase of tasks `[1, 1, 1, 1, 5]` s
    /// pages its own tail beside a phase of ten 10 s tasks, which pooled
    /// into one wave would put the p50 at 10 s and hide it.
    #[test]
    fn straggler_tail_is_judged_per_phase() {
        let t = Tracer::standalone();
        let root = t.begin_at("run", "driver", 0.0);
        let wave0 = || vec![("wave".to_string(), Payload::U64(0))];
        let map = t.begin_at("map", "phase", 0.0);
        for (slot, d) in [1.0, 1.0, 1.0, 1.0, 5.0].into_iter().enumerate() {
            t.span_at_in(&format!("map-slot-{slot}"), "t", "task", 0.0, d, wave0());
        }
        t.end_at(map, 5.0);
        let reduce = t.begin_at("reduce", "phase", 5.0);
        for slot in 0..10 {
            t.span_at_in(&format!("red-slot-{slot}"), "t", "task", 5.0, 15.0, wave0());
        }
        t.end_at(reduce, 15.0);
        t.end_at(root, 15.0);
        let r = Monitor::replay(cfg(), &t.trace()).unwrap();
        let phases: Vec<(&str, usize)> = r.waves.iter().map(|w| (&*w.phase, w.tasks)).collect();
        assert_eq!(phases, [("map", 5), ("reduce", 10)]);
        let tails: Vec<&Incident> = r
            .incidents
            .iter()
            .filter(|i| i.rule == Rule::StragglerTail)
            .collect();
        assert_eq!(tails.len(), 1, "{:?}", r.incidents);
        assert_eq!(tails[0].series, "wave:map/0");
        assert_eq!(tails[0].peak, 5.0);
    }

    #[test]
    fn recovery_storm_and_fault_fire_under_chaos() {
        let t = Tracer::standalone();
        let ledger = TrafficLedger::traced(t.clone());
        let root = t.begin_at("run", "driver", 0.0);
        t.instant_at_in(
            crate::chaos::CHAOS_LANE,
            "node-crash",
            "chaos",
            3.0,
            Vec::new(),
        );
        ledger.add_over(crate::traffic::TrafficClass::Recovery, 4096, 3.0, 4.0);
        t.end_at(root, 10.0);
        let r = Monitor::replay(cfg(), &t.trace()).unwrap();
        assert_eq!(r.count(Rule::RecoveryStorm), 1, "{:?}", r.incidents);
        assert_eq!(r.count(Rule::Fault), 1);
        assert_eq!(r.faults, 1);
        let fault = r.incidents.iter().find(|i| i.rule == Rule::Fault).unwrap();
        assert_eq!(fault.series, "fault:node-crash");
        assert_eq!(fault.open_s, fault.close_s);
        assert!(r.reconcile(&ledger.snapshot()).is_ok());

        // The clean twin of the same run opens nothing.
        let t = Tracer::standalone();
        let _ledger = TrafficLedger::traced(t.clone());
        let root = t.begin_at("run", "driver", 0.0);
        t.end_at(root, 10.0);
        let r = Monitor::replay(cfg(), &t.trace()).unwrap();
        assert!(r.incidents.is_empty());
    }

    /// Satellite edge case: two rules closing at the same instant sort
    /// deterministically (by rule name) and both survive.
    #[test]
    fn two_rules_closing_at_the_same_instant() {
        let t = Tracer::standalone();
        let ledger = TrafficLedger::traced(t.clone());
        let root = t.begin_at("run", "driver", 0.0);
        t.instant_at_in(
            crate::chaos::CHAOS_LANE,
            "node-crash",
            "chaos",
            2.5,
            Vec::new(),
        );
        // Recovery burst whose bucket run also closes at 2.5.
        ledger.add_over(crate::traffic::TrafficClass::Recovery, 1 << 20, 1.25, 2.5);
        t.end_at(root, 2.5);
        let r = Monitor::replay(cfg(), &t.trace()).unwrap();
        let closing: Vec<&Incident> = r.incidents.iter().filter(|i| i.close_s == 2.5).collect();
        assert_eq!(closing.len(), 2, "{:?}", r.incidents);
        assert_eq!(
            closing[0].rule,
            Rule::RecoveryStorm,
            "opened earlier sorts first"
        );
        assert_eq!(closing[1].rule, Rule::Fault);
        assert!(
            closing[0].open_s <= closing[1].open_s,
            "deterministic (open, close, rule) order"
        );
    }

    /// Byte integrals reconcile exactly against the ledger, per link
    /// class, on awkward windows.
    #[test]
    fn window_integrals_reconcile_exactly() {
        let t = Tracer::standalone();
        let ledger = TrafficLedger::traced(t.clone());
        let root = t.begin_at("run", "driver", 0.0);
        ledger.add_over(crate::traffic::TrafficClass::ShuffleBisection, 7, 0.1, 9.7);
        ledger.add_over(
            crate::traffic::TrafficClass::ShuffleRack,
            1_000_003,
            2.3,
            2.300001,
        );
        ledger.add_over(crate::traffic::TrafficClass::Recovery, 13, 4.0, 4.0);
        ledger.add_over(crate::traffic::TrafficClass::DfsRead, 999, 0.0, 0.0);
        t.end_at(root, 12.0);
        let r = Monitor::replay(cfg(), &t.trace()).unwrap();
        r.reconcile(&ledger.snapshot()).expect("exact reconcile");
        // And a corrupted ledger is caught.
        let mut bad = ledger.snapshot();
        bad.set(crate::traffic::TrafficClass::DfsRead, 1000);
        let errs = r.reconcile(&bad).unwrap_err();
        assert!(errs[0].contains("nic window integral"), "{errs:?}");
    }

    #[test]
    fn summary_and_full_json_serialize() {
        let t = Tracer::standalone();
        let ledger = TrafficLedger::traced(t.clone());
        let root = t.begin_at("run", "driver", 0.0);
        t.instant_at_in(
            crate::chaos::CHAOS_LANE,
            "preemption",
            "chaos",
            1.0,
            Vec::new(),
        );
        ledger.add_over(crate::traffic::TrafficClass::Recovery, 4096, 1.0, 2.0);
        t.end_at(root, 5.0);
        let r = Monitor::replay(cfg(), &t.trace()).unwrap();
        let doc = r.to_json_summary(0);
        assert!(doc.contains("\"incidents\": 2"), "{doc}");
        assert!(doc.contains("\"fault\": 1"), "{doc}");
        let full = r.to_json(0);
        assert!(full.contains("\"incidents\": ["), "{full}");
    }
}
