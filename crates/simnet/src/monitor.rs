//! Run monitoring: windowed telemetry, alert rules and an incident log
//! (DESIGN.md §16).
//!
//! [`Monitor::replay`] is a pure function of `(MonitorConfig, &Trace)`:
//! it replays a recorded run onto sliding-window series on the simulated
//! clock:
//!
//! * per-link utilization EWMAs over the §11 [`LinkClass`] mapping,
//! * the quality-improvement rate from the §10 `quality` probes,
//! * the straggler tail ratio (p-max/p50) per scheduler wave,
//! * the task-queue depth (mean concurrent tasks per bucket),
//! * the recovery-byte rate under chaos.
//!
//! A validated, declarative [`AlertRule`] catalog evaluates those series
//! into an incident log: `stall`, `divergence`, `saturation`,
//! `straggler-tail`, `recovery-storm` and `fault`. Each [`Incident`]
//! records its rule, severity, open/close times, the peak value that
//! tripped it, and the deepest trace span enclosing its open time — the
//! span tree gives incidents the same nesting the other views have.
//!
//! Every bucketed series is **causal** — a bucket depends only on events
//! at or before its own end, and the EWMA runs forward — so the frame a
//! live dashboard would have shown at simulated time `t` is exactly the
//! prefix of the finished series up to `t` ([`MonitorReport::rows_at`]).
//! A streaming sink on the tracer returns with its first caller (the
//! closed-loop alert→action item); nothing needs one today.
//!
//! **Reconciliation guarantee.** The per-link window series are built by
//! the same [`crate::sweep`] spreader as [`crate::timeline`], so every
//! byte integral equals the [`TrafficLedger`] total for its link class
//! **exactly** (`==`), and the recovery series integrates to
//! `recovery_total()`. [`crate::trace::check::monitor_reconciles`]
//! enforces this for every validated run. Bytes land in fixed
//! simulated-time buckets and point series are sorted by `(t, seq)`, so
//! the report is byte-identical across rayon pool widths.
//!
//! [`TrafficLedger`]: crate::traffic::TrafficLedger

use crate::report::{csv_record, fmt_f64, json_f64s, nearest_rank, peak, Column, JsonWriter};
use crate::sweep::{apportion, collect_charges, spread_busy, utilization, LinkClass};
use crate::timeline::heat_bar;
use crate::topology::ClusterSpec;
use crate::trace::{check, Span, Trace};
use crate::traffic::{TrafficClass, TrafficSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default sliding-window length, simulated seconds.
pub const DEFAULT_WINDOW_S: f64 = 5.0;

/// Buckets per window: the bucket width is `window_s / BUCKETS_PER_WINDOW`.
pub const BUCKETS_PER_WINDOW: usize = 4;

/// Incident severity, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: worth a ticker line, not a page.
    Info,
    /// Degraded but progressing.
    Warn,
    /// Someone should look now.
    Page,
}

impl Severity {
    /// Short label for reports and CSV.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Page => "page",
        }
    }
}

/// What an [`AlertRule`] watches. The rule's `threshold` and the
/// monitor's [`MonitorConfig::window_s`] parameterize each kind as
/// documented per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleKind {
    /// No quality improvement for more than `window_s` simulated
    /// seconds (measured between strict improvements of the
    /// best-so-far objective; the gap to the run's end counts).
    Stall,
    /// The objective rises across consecutive quality samples for at
    /// least `window_s` simulated seconds.
    Divergence,
    /// Some link's bucket utilization stays at or above `threshold`
    /// for at least `window_s` consecutive simulated seconds.
    Saturation,
    /// A scheduler wave's p-max/p50 task-duration ratio reaches
    /// `threshold`.
    StragglerTail,
    /// The recovery-byte rate in any bucket reaches `threshold`
    /// bytes/second (contiguous storm buckets merge into one incident).
    RecoveryStorm,
    /// Any injected `chaos`-category fault instant.
    Fault,
}

/// One declarative alert rule. Construct via [`catalog_rule`] (the
/// default catalog) or literally, then [`AlertRule::validate`] before
/// use — [`Monitor::replay`] refuses invalid rules with pinned messages.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name — the incident-log and catalog key.
    pub name: String,
    /// What the rule watches.
    pub kind: RuleKind,
    /// Kind-specific threshold (utilization fraction, duration ratio,
    /// bytes/second, …). Must be finite and positive.
    pub threshold: f64,
    /// Severity stamped on incidents this rule opens.
    pub severity: Severity,
}

impl AlertRule {
    /// Check the rule is well-formed. Error strings are pinned by tests.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("alert rule: name must be non-empty".to_string());
        }
        if !(self.threshold.is_finite() && self.threshold > 0.0) {
            return Err(format!(
                "alert rule '{}': threshold must be finite and positive",
                self.name
            ));
        }
        Ok(())
    }
}

/// Names in the default rule catalog, in evaluation order.
pub const CATALOG_RULES: [&str; 6] = [
    "stall",
    "divergence",
    "saturation",
    "straggler-tail",
    "recovery-storm",
    "fault",
];

/// The default catalog entry for `name`, or `None` for unknown names.
pub fn catalog_rule(name: &str) -> Option<AlertRule> {
    let (kind, threshold, severity) = match name {
        "stall" => (RuleKind::Stall, 1.0, Severity::Warn),
        "divergence" => (RuleKind::Divergence, 1.0, Severity::Page),
        "saturation" => (RuleKind::Saturation, 0.95, Severity::Warn),
        "straggler-tail" => (RuleKind::StragglerTail, 4.0, Severity::Warn),
        "recovery-storm" => (RuleKind::RecoveryStorm, 1.0, Severity::Page),
        "fault" => (RuleKind::Fault, 1.0, Severity::Page),
        _ => return None,
    };
    Some(AlertRule {
        name: name.to_string(),
        kind,
        threshold,
        severity,
    })
}

/// The full default catalog, in [`CATALOG_RULES`] order.
pub fn default_rules() -> Vec<AlertRule> {
    CATALOG_RULES
        .iter()
        .map(|n| catalog_rule(n).expect("catalog names resolve"))
        .collect()
}

/// Resolve a comma-separated rule-name list against the catalog. An
/// unknown name is an error enumerating the valid set (pinned by the
/// `pic watch --rules` tests).
pub fn parse_rules(list: &str) -> Result<Vec<AlertRule>, String> {
    let mut rules = Vec::new();
    for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match catalog_rule(name) {
            Some(r) => rules.push(r),
            None => {
                return Err(format!(
                    "unknown rule '{name}'; valid rules: {}",
                    CATALOG_RULES.join(", ")
                ))
            }
        }
    }
    Ok(rules)
}

/// Monitor configuration: the cluster whose capacities utilization is
/// measured against, the sliding-window length, and the rule set.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Capacity model for link utilization.
    pub spec: ClusterSpec,
    /// Sliding-window length, simulated seconds.
    pub window_s: f64,
    /// Alert rules to evaluate (empty = telemetry only).
    pub rules: Vec<AlertRule>,
}

impl MonitorConfig {
    /// The default configuration on `spec`: [`DEFAULT_WINDOW_S`] and the
    /// full default catalog.
    pub fn new(spec: ClusterSpec) -> MonitorConfig {
        MonitorConfig {
            spec,
            window_s: DEFAULT_WINDOW_S,
            rules: default_rules(),
        }
    }

    /// Telemetry-only configuration (no rules) — what the reconciliation
    /// check pass uses.
    pub fn telemetry(spec: ClusterSpec) -> MonitorConfig {
        MonitorConfig {
            spec,
            window_s: DEFAULT_WINDOW_S,
            rules: Vec::new(),
        }
    }

    /// Bucket width, simulated seconds.
    pub fn bucket_s(&self) -> f64 {
        self.window_s / BUCKETS_PER_WINDOW as f64
    }

    /// Check the window and every rule; duplicate rule names are
    /// rejected. Error strings are pinned by tests.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.window_s.is_finite() && self.window_s > 0.0) {
            return Err("monitor: window_s must be finite and positive".to_string());
        }
        for (i, rule) in self.rules.iter().enumerate() {
            rule.validate()?;
            if self.rules[..i].iter().any(|r| r.name == rule.name) {
                return Err(format!("monitor: duplicate rule '{}'", rule.name));
            }
        }
        Ok(())
    }
}

/// One alert-rule firing: open/close on the simulated clock, nested
/// inside the span tree via `span`.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// The [`AlertRule::name`] that fired.
    pub rule: String,
    /// Severity inherited from the rule.
    pub severity: Severity,
    /// Which series tripped it (`quality`, `util:bisection`, `wave:3`,
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

    /// The incident in schema order — the one definition behind the
    /// `incidents` JSON objects and the incident CSV records.
    fn columns(&self) -> Vec<Column> {
        vec![
            Column::text("rule", &self.rule),
            Column::text("severity", self.severity.label()),
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
    /// `bytes[i] / (capacity × bucket_s)` per bucket.
    pub util: Vec<f64>,
    /// Exponentially-weighted moving average of `util` with time
    /// constant `window_s`.
    pub ewma: Vec<f64>,
    /// Sum of `bytes` — reconciles exactly with the ledger.
    pub total_bytes: u64,
    /// Maximum of `util`.
    pub peak_util: f64,
}

/// Straggler statistics for one scheduler wave.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveStat {
    /// Wave index (the `wave` arg on task spans).
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
    /// Sliding-window length, simulated seconds.
    pub window_s: f64,
    /// Bucket width, simulated seconds.
    pub bucket_s: f64,
    /// Run horizon, simulated seconds.
    pub horizon_s: f64,
    /// Number of buckets covering the horizon.
    pub buckets: usize,
    /// Per-link-class series, keyed by [`LinkClass::label`].
    pub links: BTreeMap<&'static str, MonitorSeries>,
    /// Quality samples `(t, objective)`, ordered by `(t, seq)`.
    pub quality: Vec<(f64, f64)>,
    /// Best-so-far objective improvement per second, per bucket.
    pub quality_rate: Vec<f64>,
    /// Mean concurrent tasks per bucket (the queue-depth series).
    pub depth: Vec<f64>,
    /// Maximum of `depth`.
    pub peak_depth: f64,
    /// Recovery bytes attributed to each bucket (exact).
    pub recovery_bytes: Vec<u64>,
    /// `recovery_bytes[i] / bucket_s` per bucket.
    pub recovery_rate: Vec<f64>,
    /// Per-wave straggler statistics, ascending by wave.
    pub waves: Vec<WaveStat>,
    /// Injected `chaos` fault instants seen.
    pub faults: u64,
    /// The incident log, ordered by `(open_s, close_s, rule, series)`.
    pub incidents: Vec<Incident>,
}

/// Bucket index containing time `t` on a grid of width `dt`.
fn bucket_of(t: f64, dt: f64) -> usize {
    if dt <= 0.0 {
        return 0;
    }
    (t.max(0.0) / dt).floor() as usize
}

/// The run monitor. [`Monitor::replay`] is its one entry point (`pic
/// watch`, the bench `monitor` section, the chaos cells and the
/// reconciliation check all call it).
#[derive(Debug)]
pub struct Monitor;

impl Monitor {
    /// Replay `trace` under `cfg`: put every charge, task, quality probe
    /// and fault on a grid of `cfg.bucket_s()` buckets covering the
    /// run's horizon, compute EWMAs and rates, evaluate the rule set
    /// into the incident log, and anchor each incident to the deepest
    /// span enclosing it.
    pub fn replay(cfg: MonitorConfig, trace: &Trace) -> Result<MonitorReport, String> {
        cfg.validate()?;
        let dt = cfg.bucket_s();
        let (charges, horizon) = collect_charges(trace);
        let buckets = if horizon > 0.0 {
            bucket_of(horizon, dt) + 1
        } else {
            0
        };

        // Per-link byte series (exact apportionment), utilization, EWMA.
        let series_of = |member: &dyn Fn(TrafficClass) -> bool| {
            let mut bytes = vec![0u64; buckets];
            for ch in charges.iter().filter(|c| member(c.class)) {
                apportion(&mut bytes, ch, dt);
            }
            bytes
        };
        let alpha = 1.0 - (-dt / cfg.window_s).exp();
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

        // Queue depth (busy task-seconds per bucket, accumulated in span
        // recording order) and the per-wave task windows.
        let mut busy = vec![0.0; buckets];
        let mut by_wave: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        let is_closed_task = |s: &&Span| s.cat == "task" && s.t1.is_finite();
        for s in trace.spans.iter().filter(is_closed_task) {
            spread_busy(&mut busy, s.t0, s.t1, dt);
            if let Some(wave) = s.arg_u64("wave") {
                by_wave.entry(wave).or_default().push((s.t0, s.t1));
            }
        }
        let depth: Vec<f64> = busy.iter().map(|s| s / dt).collect();
        let waves: Vec<WaveStat> = by_wave
            .into_iter()
            .map(|(wave, tasks)| {
                let mut durations: Vec<f64> =
                    tasks.iter().map(|&(a, b)| (b - a).max(0.0)).collect();
                durations.sort_by(|x, y| x.partial_cmp(y).expect("finite durations"));
                let mut ends: Vec<f64> = tasks.iter().map(|&(_, b)| b).collect();
                ends.sort_by(|x, y| x.partial_cmp(y).expect("finite times"));
                let p50_s = nearest_rank(&durations, 50.0);
                let max_s = durations.last().copied().unwrap_or(0.0);
                let tail_x = if p50_s > 0.0 { max_s / p50_s } else { 0.0 };
                WaveStat {
                    wave,
                    tasks: tasks.len(),
                    p50_s,
                    max_s,
                    tail_x,
                    open_s: nearest_rank(&ends, 50.0),
                    close_s: ends.last().copied().unwrap_or(0.0),
                }
            })
            .collect();

        // Quality samples and fault instants in deterministic (t, seq)
        // order.
        let mut quality_raw: Vec<(f64, u64, f64)> = Vec::new();
        let mut faults: Vec<(f64, u64, String)> = Vec::new();
        for ev in &trace.instants {
            match ev.cat {
                "quality" => quality_raw.extend(ev.arg_f64("objective").map(|o| (ev.t, ev.seq, o))),
                "chaos" => faults.push((ev.t, ev.seq, ev.name.clone())),
                _ => {}
            }
        }
        quality_raw.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).expect("finite times"));
        faults.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).expect("finite times"));
        let quality: Vec<(f64, f64)> = quality_raw.iter().map(|&(t, _, o)| (t, o)).collect();

        // Best-so-far improvement rate per bucket.
        let mut quality_rate = vec![0.0; buckets];
        if let Some(&(_, first_obj)) = quality.first() {
            let mut best = first_obj;
            for &(t, obj) in &quality {
                if obj < best {
                    let i = bucket_of(t, dt).min(buckets.saturating_sub(1));
                    if !quality_rate.is_empty() {
                        quality_rate[i] += (best - obj) / dt;
                    }
                    best = obj;
                }
            }
        }

        let mut report = MonitorReport {
            window_s: cfg.window_s,
            bucket_s: dt,
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
        report.incidents = evaluate_rules(&cfg, &report, &faults, trace);
        Ok(report)
    }
}

/// Evaluate every configured rule over the finished series.
fn evaluate_rules(
    cfg: &MonitorConfig,
    report: &MonitorReport,
    faults: &[(f64, u64, String)],
    trace: &Trace,
) -> Vec<Incident> {
    let dt = report.bucket_s;
    let horizon = report.horizon_s;
    let window = cfg.window_s;
    let mut incidents = Vec::new();
    let mut push = |rule: &AlertRule, series: String, open: f64, close: f64, peak: f64| {
        incidents.push(Incident {
            rule: rule.name.clone(),
            severity: rule.severity,
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

    for rule in &cfg.rules {
        match rule.kind {
            RuleKind::Stall => {
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
            RuleKind::Divergence => {
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
            RuleKind::Saturation => {
                for link in LinkClass::ALL {
                    let s = &report.links[link.label()];
                    let hot = |i: usize| s.util[i] >= rule.threshold;
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
            RuleKind::StragglerTail => {
                for w in &report.waves {
                    if w.tail_x >= rule.threshold {
                        push(
                            rule,
                            format!("wave:{}", w.wave),
                            w.open_s,
                            w.close_s,
                            w.tail_x,
                        );
                    }
                }
            }
            RuleKind::RecoveryStorm => {
                let hot = |i: usize| report.recovery_rate[i] >= rule.threshold;
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
            RuleKind::Fault => {
                for (t, _, name) in faults {
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
        (a.open_s, a.close_s, &a.rule, &a.series)
            .partial_cmp(&(b.open_s, b.close_s, &b.rule, &b.series))
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
    pub fn count(&self, rule: &str) -> usize {
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
        for name in CATALOG_RULES {
            w.field(name, &self.count(name).to_string());
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
        w.field("window_s", &fmt_f64(self.window_s));
        w.field("bucket_s", &fmt_f64(self.bucket_s));
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

    /// Header of the incident CSV artifact.
    pub fn csv_header() -> &'static str {
        "app,side,rule,severity,series,open_s,close_s,peak,span"
    }

    /// One CSV record per incident, prefixed by `app`/`side`.
    pub fn csv_records(&self, app: &str, side: &str) -> Vec<Vec<String>> {
        self.incidents
            .iter()
            .map(|i| {
                let mut rec = vec![app.to_string(), side.to_string()];
                rec.extend(csv_record(i.columns()));
                rec
            })
            .collect()
    }

    /// `(label, sparkline, last, peak)` dashboard rows for every series,
    /// `width` cells each — what `pic watch` renders.
    pub fn dashboard_rows(&self, width: usize) -> Vec<(String, String, f64, f64)> {
        self.rows_at(f64::INFINITY, width)
    }

    /// Dashboard rows for the run's prefix up to simulated time `t_s` —
    /// the frame a live dashboard shows mid-run. Every bucketed series
    /// is causal (a bucket depends only on events at or before its own
    /// end, and the EWMA runs forward), so slicing the finished series
    /// reproduces the live view exactly.
    pub fn rows_at(&self, t_s: f64, width: usize) -> Vec<(String, String, f64, f64)> {
        let visible = if t_s.is_finite() && self.bucket_s > 0.0 && t_s >= 0.0 {
            (bucket_of(t_s, self.bucket_s) + 1).min(self.buckets)
        } else {
            self.buckets
        };
        let mut rows = Vec::new();
        for (label, s) in &self.links {
            let ewma = &s.ewma[..visible.min(s.ewma.len())];
            let util = &s.util[..visible.min(s.util.len())];
            rows.push((
                format!("util:{label}"),
                heat_bar(ewma, width),
                ewma.last().copied().unwrap_or(0.0),
                util.iter().copied().fold(0.0, f64::max),
            ));
        }
        let norm = |v: &[f64]| -> Vec<f64> {
            let peak = v.iter().copied().fold(0.0, f64::max);
            if peak > 0.0 {
                v.iter().map(|x| x / peak).collect()
            } else {
                vec![0.0; v.len()]
            }
        };
        for (label, series) in [
            ("quality-rate", &self.quality_rate),
            ("queue-depth", &self.depth),
            ("recovery-rate", &self.recovery_rate),
        ] {
            let series = &series[..visible.min(series.len())];
            rows.push((
                label.to_string(),
                heat_bar(&norm(series), width),
                series.last().copied().unwrap_or(0.0),
                series.iter().copied().fold(0.0, f64::max),
            ));
        }
        rows
    }

    /// Render the dashboard panel: one sparkline row per series plus the
    /// incident ticker.
    pub fn render(&self, width: usize) -> String {
        let header = format!(
            "  window {} s, bucket {} s, horizon {:.3} s, {} waves, {} faults",
            self.window_s,
            self.bucket_s,
            self.horizon_s,
            self.waves.len(),
            self.faults
        );
        let open_note = format!(" ({:.3} s open)", self.incident_s());
        self.render_frame(&header, &open_note, f64::INFINITY, width)
    }

    /// Render one live frame at simulated time `t_s`: the dashboard
    /// rows over the elapsed buckets plus the incident ticker of
    /// everything opened by `t_s`. Incidents still open at the frame
    /// time show `close      ...` — that is the live-dashboard view
    /// `pic watch --interval` replays frame by frame.
    pub fn render_at(&self, t_s: f64, width: usize) -> String {
        let (now, horizon) = (t_s.min(self.horizon_s), self.horizon_s);
        let header = format!("  t = {now:.3} s / {horizon:.3} s");
        self.render_frame(&header, "", t_s, width)
    }

    /// The row loop and incident ticker behind [`MonitorReport::render`]
    /// (`t_s` = ∞) and [`MonitorReport::render_at`]; `open_note` trails
    /// the incident count.
    fn render_frame(&self, header: &str, open_note: &str, t_s: f64, width: usize) -> String {
        let mut out = format!("{header}\n");
        for (label, bar, last, peak) in self.rows_at(t_s, width) {
            let _ = writeln!(
                out,
                "  {label:<14} |{bar}| last {last:>10.4} peak {peak:>10.4}"
            );
        }
        let opened: Vec<&Incident> = self.incidents.iter().filter(|i| i.open_s <= t_s).collect();
        if opened.is_empty() {
            let _ = writeln!(out, "  incidents: none");
        } else {
            let _ = writeln!(out, "  incidents: {}{open_note}", opened.len());
        }
        for inc in opened {
            let close = if inc.close_s <= t_s {
                format!("{:>9.3}", inc.close_s)
            } else {
                "      ...".to_string()
            };
            let _ = writeln!(
                out,
                "    [{}] {:<14} {:<18} open {:>9.3} close {close} peak {:>10.4} in {}",
                inc.severity.label(),
                inc.rule,
                inc.series,
                inc.open_s,
                inc.peak,
                inc.span
            );
        }
        out
    }
}

/// What one report contributes to a family: `(extra label, value)`
/// samples.
type Samples = Vec<(Option<(&'static str, &'static str)>, String)>;

/// One OpenMetrics family: name, type, help text, sample extractor.
type Family = (
    &'static str,
    &'static str,
    &'static str,
    fn(&MonitorReport) -> Samples,
);

/// The `pic watch --metrics` families, in export order.
const FAMILIES: [Family; 7] = [
    (
        "pic_link_bytes_total",
        "counter",
        "Bytes moved per link class (reconciles exactly with the ledger).",
        |r| per_link(r, |s| s.total_bytes.to_string()),
    ),
    (
        "pic_link_util_peak",
        "gauge",
        "Peak bucket utilization per link class.",
        |r| per_link(r, |s| fmt_f64(s.peak_util)),
    ),
    (
        "pic_quality_samples_total",
        "counter",
        "Quality probes observed.",
        |r| vec![(None, r.quality.len().to_string())],
    ),
    (
        "pic_queue_depth_peak",
        "gauge",
        "Peak mean concurrent tasks per bucket.",
        |r| vec![(None, fmt_f64(r.peak_depth))],
    ),
    (
        "pic_recovery_bytes_total",
        "counter",
        "Recovery bytes observed under chaos.",
        |r| vec![(None, r.recovery_bytes.iter().sum::<u64>().to_string())],
    ),
    (
        "pic_incidents_total",
        "counter",
        "Incidents opened per alert rule.",
        |r| {
            let rules = CATALOG_RULES.iter();
            rules
                .map(|rule| (Some(("rule", *rule)), r.count(rule).to_string()))
                .collect()
        },
    ),
    (
        "pic_incident_seconds_total",
        "counter",
        "Total open-incident simulated seconds.",
        |r| vec![(None, fmt_f64(r.incident_s()))],
    ),
];

/// One `link`-labelled sample per link class.
fn per_link(r: &MonitorReport, value: fn(&MonitorSeries) -> String) -> Samples {
    let links = r.links.iter();
    links
        .map(|(link, s)| (Some(("link", *link)), value(s)))
        .collect()
}

/// Render an OpenMetrics-style text snapshot for a set of labelled
/// monitor reports (the `pic watch --metrics` export: five apps ×
/// ic/pic). Families are grouped as the format requires; the document
/// ends with `# EOF`.
pub fn openmetrics(entries: &[(Vec<(String, String)>, &MonitorReport)]) -> String {
    let mut out = String::new();
    for (name, kind, help, samples) in FAMILIES {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        let _ = writeln!(out, "# HELP {name} {help}");
        for (labels, report) in entries {
            for (extra, value) in samples(report) {
                let labels = labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
                let parts: Vec<String> = labels
                    .chain(extra)
                    .map(|(k, v)| format!("{k}=\"{v}\""))
                    .collect();
                let _ = writeln!(out, "{name}{{{}}} {value}", parts.join(","));
            }
        }
    }
    out.push_str("# EOF\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::trace::{Payload, Tracer};
    use crate::traffic::TrafficLedger;
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn tracer() -> Tracer {
        Tracer::new(Arc::new(Mutex::new(SimClock::new())))
    }

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
    fn catalog_resolves_and_validates() {
        for name in CATALOG_RULES {
            let rule = catalog_rule(name).expect("catalog entry");
            assert_eq!(rule.name, name);
            rule.validate().expect("catalog rules are valid");
        }
        assert!(catalog_rule("nope").is_none());
        assert_eq!(default_rules().len(), CATALOG_RULES.len());
    }

    #[test]
    fn rule_validation_messages_are_pinned() {
        let mut r = catalog_rule("stall").unwrap();
        r.name = String::new();
        assert_eq!(
            r.validate().unwrap_err(),
            "alert rule: name must be non-empty"
        );
        let mut r = catalog_rule("saturation").unwrap();
        r.threshold = 0.0;
        assert_eq!(
            r.validate().unwrap_err(),
            "alert rule 'saturation': threshold must be finite and positive"
        );
        let mut c = cfg();
        c.window_s = -1.0;
        assert_eq!(
            c.validate().unwrap_err(),
            "monitor: window_s must be finite and positive"
        );
        let mut c = cfg();
        c.rules.push(catalog_rule("stall").unwrap());
        assert_eq!(c.validate().unwrap_err(), "monitor: duplicate rule 'stall'");
    }

    #[test]
    fn parse_rules_rejects_unknown_names_with_the_catalog() {
        let rules = parse_rules("stall, saturation").unwrap();
        assert_eq!(rules.len(), 2);
        let err = parse_rules("stall,bogus").unwrap_err();
        assert_eq!(
            err,
            "unknown rule 'bogus'; valid rules: stall, divergence, saturation, \
             straggler-tail, recovery-storm, fault"
        );
    }

    /// Satellite edge case: an empty run yields an empty report and no
    /// incidents.
    #[test]
    fn empty_run_is_quiet() {
        let t = tracer();
        let r = Monitor::replay(cfg(), &t.trace()).unwrap();
        assert_eq!(r.buckets, 0);
        assert!(r.incidents.is_empty());
        assert_eq!(r.horizon_s, 0.0);
        assert!(r.reconcile(&TrafficSnapshot::default()).is_ok());
    }

    /// Satellite edge case: a single quality sample in a window longer
    /// than the run fires nothing.
    #[test]
    fn single_sample_and_window_longer_than_run() {
        let t = tracer();
        let root = t.begin_at("run", "driver", 0.0);
        quality_at(&t, 0.5, 10.0);
        t.end_at(root, 1.0);
        let mut c = cfg();
        c.window_s = 100.0; // window ≫ run
        let r = Monitor::replay(c, &t.trace()).unwrap();
        assert_eq!(r.quality.len(), 1);
        assert!(r.incidents.is_empty(), "{:?}", r.incidents);
        assert_eq!(r.buckets, 1, "one bucket covers the whole run");
    }

    /// Satellite edge case: a rule whose condition never holds opens no
    /// incidents even on a long run.
    #[test]
    fn rule_that_never_fires_stays_quiet() {
        let t = tracer();
        let root = t.begin_at("run", "driver", 0.0);
        for i in 0..100 {
            quality_at(&t, i as f64, 100.0 - i as f64); // steady improvement
        }
        t.end_at(root, 100.0);
        let mut c = cfg();
        c.rules = vec![
            catalog_rule("stall").unwrap(),
            catalog_rule("divergence").unwrap(),
        ];
        let r = Monitor::replay(c, &t.trace()).unwrap();
        assert!(r.incidents.is_empty(), "{:?}", r.incidents);
    }

    #[test]
    fn stall_fires_on_a_quality_gap_and_reports_the_gap() {
        let t = tracer();
        let root = t.begin_at("run", "driver", 0.0);
        quality_at(&t, 1.0, 10.0);
        quality_at(&t, 2.0, 9.0);
        quality_at(&t, 20.0, 8.0); // 18 s without improvement
        t.end_at(root, 21.0);
        let r = Monitor::replay(cfg(), &t.trace()).unwrap();
        let stalls: Vec<&Incident> = r.incidents.iter().filter(|i| i.rule == "stall").collect();
        assert_eq!(stalls.len(), 1, "{:?}", r.incidents);
        assert_eq!(stalls[0].open_s, 2.0 + DEFAULT_WINDOW_S);
        assert_eq!(stalls[0].close_s, 20.0);
        assert_eq!(stalls[0].peak, 18.0);
        assert_eq!(stalls[0].span, "run", "nested in the live span tree");
    }

    /// The rules read the configured window: a 10 s quality gap stalls
    /// under the default 5 s window but not under a 20 s one.
    #[test]
    fn stall_gap_is_measured_against_the_configured_window() {
        let t = tracer();
        let root = t.begin_at("run", "driver", 0.0);
        quality_at(&t, 1.0, 10.0);
        quality_at(&t, 11.0, 9.0); // 10 s without improvement
        t.end_at(root, 12.0);
        let stalls = |window_s: f64| {
            let mut c = cfg();
            c.window_s = window_s;
            c.rules = vec![catalog_rule("stall").unwrap()];
            Monitor::replay(c, &t.trace()).unwrap().incidents.len()
        };
        assert_eq!(stalls(DEFAULT_WINDOW_S), 1);
        assert_eq!(stalls(20.0), 0, "a gap shorter than the window is no stall");
    }

    #[test]
    fn divergence_fires_on_a_sustained_rise() {
        let t = tracer();
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
            .filter(|i| i.rule == "divergence")
            .collect();
        assert_eq!(div.len(), 1, "{:?}", r.incidents);
        assert_eq!(div[0].open_s, 0.0);
        assert_eq!(div[0].close_s, 8.0);
        assert_eq!(div[0].peak, 8.0); // rose 5 → 13
    }

    #[test]
    fn saturation_fires_only_when_sustained() {
        let t = tracer();
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
            .filter(|i| i.rule == "saturation")
            .collect();
        assert_eq!(sat.len(), 1, "{:?}", r.incidents);
        assert_eq!(sat[0].series, "util:bisection");
        assert!(sat[0].peak >= 0.95);
        assert!(r.reconcile(&ledger.snapshot()).is_ok());

        // A sub-window burst stays quiet.
        let t = tracer();
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
            r.incidents.iter().all(|i| i.rule != "saturation"),
            "{:?}",
            r.incidents
        );
    }

    #[test]
    fn straggler_tail_fires_per_wave() {
        let t = tracer();
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
            .filter(|i| i.rule == "straggler-tail")
            .collect();
        assert_eq!(tails.len(), 1, "{:?}", r.incidents);
        assert_eq!(tails[0].series, "wave:1");
        assert_eq!(tails[0].peak, 5.0);
        assert_eq!(r.waves.len(), 2);
        assert_eq!(r.waves[0].tail_x, 1.0);
    }

    #[test]
    fn recovery_storm_and_fault_fire_under_chaos() {
        let t = tracer();
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
        assert_eq!(r.count("recovery-storm"), 1, "{:?}", r.incidents);
        assert_eq!(r.count("fault"), 1);
        assert_eq!(r.faults, 1);
        let fault = r.incidents.iter().find(|i| i.rule == "fault").unwrap();
        assert_eq!(fault.series, "fault:node-crash");
        assert_eq!(fault.open_s, fault.close_s);
        assert!(r.reconcile(&ledger.snapshot()).is_ok());

        // The clean twin of the same run opens nothing.
        let t = tracer();
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
        let t = tracer();
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
            closing[0].rule, "recovery-storm",
            "opened earlier sorts first"
        );
        assert_eq!(closing[1].rule, "fault");
        assert!(
            closing[0].open_s <= closing[1].open_s,
            "deterministic (open, close, rule) order"
        );
    }

    /// Byte integrals reconcile exactly against the ledger, per link
    /// class, on awkward windows.
    #[test]
    fn window_integrals_reconcile_exactly() {
        let t = tracer();
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
        ledger.add(crate::traffic::TrafficClass::DfsRead, 999);
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
    fn openmetrics_snapshot_has_grouped_families() {
        let t = tracer();
        let root = t.begin_at("run", "driver", 0.0);
        quality_at(&t, 1.0, 10.0);
        t.end_at(root, 2.0);
        let r = Monitor::replay(cfg(), &t.trace()).unwrap();
        let labels = vec![
            ("app".to_string(), "kmeans".to_string()),
            ("side".to_string(), "ic".to_string()),
        ];
        let doc = openmetrics(&[(labels, &r)]);
        assert!(doc.starts_with("# TYPE pic_link_bytes_total counter\n"));
        assert!(
            doc.contains("pic_link_bytes_total{app=\"kmeans\",side=\"ic\",link=\"bisection\"} 0")
        );
        assert!(doc.contains("pic_quality_samples_total{app=\"kmeans\",side=\"ic\"} 1"));
        assert!(doc.contains("# TYPE pic_incidents_total counter"));
        assert!(doc.ends_with("# EOF\n"));
        // One TYPE line per family, no interleaving.
        let type_lines = doc.lines().filter(|l| l.starts_with("# TYPE")).count();
        assert_eq!(type_lines, 7);
    }

    #[test]
    fn summary_json_and_csv_serialize() {
        let t = tracer();
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
        let recs = r.csv_records("kmeans", "ic");
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0][0], "kmeans");
        assert_eq!(
            MonitorReport::csv_header(),
            "app,side,rule,severity,series,open_s,close_s,peak,span"
        );
    }
}
