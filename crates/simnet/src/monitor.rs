//! Run monitoring: windowed telemetry, alert rules and an incident log
//! (DESIGN.md §16).
//!
//! [`Monitor::replay`] is a pure function of `(MonitorConfig, &Trace)`:
//! it replays a recorded run onto series of [`BUCKET_S`] buckets on the
//! simulated clock:
//!
//! * per-link utilization EWMAs over the §11 [`LinkClass`] mapping,
//! * the quality-improvement rate from the §10 `quality` probes,
//! * the task-queue depth (mean concurrent tasks per bucket),
//! * the recovery-byte rate under chaos.
//!
//! The closed [`Rule`] catalog evaluates those series into an incident
//! log: `stall`, `divergence`, `recovery-storm` and `fault`. Every rule
//! runs, and every sustain or gap test reads the one window
//! [`WINDOW_S`]. Each [`Incident`] records its rule (and
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

use crate::report::{fmt_f64, json_f64s, peak, Column, JsonWriter};
use crate::sweep::{apportion, collect_charges, spread_busy, utilization, LinkClass};
use crate::timeline::heat_bar;
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
pub const CATALOG_RULES: [&str; 4] = ["stall", "divergence", "recovery-storm", "fault"];

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
    /// The recovery-byte rate in any bucket reaches 1 byte/second
    /// (contiguous storm buckets merge into one incident).
    RecoveryStorm,
    /// Any injected `chaos`-category fault instant.
    Fault,
}

impl Rule {
    /// The whole catalog, in evaluation order.
    pub const ALL: [Rule; 4] = [
        Rule::Stall,
        Rule::Divergence,
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
            Rule::Stall => "warn",
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
    /// Which series tripped it (`quality`, `recovery`,
    /// `fault:node-crash`).
    pub series: String,
    /// Open time, simulated seconds.
    pub open_s: f64,
    /// Close time, simulated seconds (`== open_s` for point incidents).
    pub close_s: f64,
    /// Peak value of the watched signal while open (gap seconds,
    /// objective rise, bytes/second, 1 per fault).
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
    /// Exponentially-weighted moving average, with time constant
    /// [`WINDOW_S`], of the bucket utilization
    /// `bytes[i] / (capacity × BUCKET_S)`.
    pub ewma: Vec<f64>,
    /// Sum of `bytes` — reconciles exactly with the ledger.
    pub total_bytes: u64,
    /// Maximum bucket utilization.
    pub peak_util: f64,
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
            Rule::RecoveryStorm => {
                // One incident per maximal run of storm buckets `a..=b`.
                let rate = &report.recovery_rate;
                let mut a = 0;
                while a < rate.len() {
                    if rate[a] < 1.0 {
                        a += 1;
                        continue;
                    }
                    let mut b = a;
                    while b + 1 < rate.len() && rate[b + 1] >= 1.0 {
                        b += 1;
                    }
                    let peak = rate[a..=b].iter().copied().fold(0.0, f64::max);
                    let (open, close) = (a as f64 * dt, (b + 1) as f64 * dt);
                    push(
                        rule,
                        "recovery".to_string(),
                        open,
                        close.min(horizon).max(open),
                        peak,
                    );
                    a = b + 1;
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
    /// schema v9): incident counts exact, durations banded seconds.
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
    /// every series and the incident log. A pure function
    /// of the simulated trace — byte-identical across rayon pool widths.
    pub fn to_json(&self, indent: usize) -> String {
        JsonWriter::document(indent, |w| self.write_json(w))
    }

    /// The fields of [`MonitorReport::to_json`], written into the
    /// caller's open object.
    pub fn write_json(&self, w: &mut JsonWriter) {
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
            "  window {WINDOW_S} s, bucket {BUCKET_S} s, horizon {:.3} s, {} faults\n",
            self.horizon_s, self.faults
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
