//! The report suite: run every app's IC-vs-PIC comparison, analyse
//! both traces with [`PerfReport`], validate the structural invariants
//! (`pic report`), and assemble the schema-versioned `BENCH_pic.json`
//! the regression gate writes and diffs (`pic regress`; DESIGN.md §9
//! documents the schema).
//!
//! K-means runs the paper's Figure 2 configuration (medium cluster) —
//! the run the acceptance criteria name; the other four apps run their
//! Fig. 9/10 small-cluster configurations at sizes that stay meaningful
//! down to smoke scales. Every comparison uses analytic `Timing`, so
//! the simulated results — and therefore the whole JSON apart from
//! `host_*` keys — are byte-identical across rayon pool widths.

use super::common::Comparison;
use super::{fig2, speedups, ExperimentCtx};
use crate::table::csv_doc;
use pic_simnet::report::{
    fmt_f64, Column, JsonWriter, PerfReport, QualityReport, REPORT_SCHEMA_VERSION,
};
use pic_simnet::trace::check;
use pic_simnet::whatif::{SensitivityReport, CATALOG};
use pic_simnet::{
    ClusterSpec, Monitor, MonitorConfig, MonitorReport, Trace, TrafficSnapshot, UtilizationReport,
};

/// The five applications, in report order.
pub const APPS: [&str; 5] = ["kmeans", "pagerank", "neuralnet", "linsolve", "smoothing"];

/// One app's collected artifacts: both runs' traces and ledgers plus the
/// headline times.
#[derive(Debug)]
pub struct AppRun {
    /// Application name (one of [`APPS`]).
    pub app: &'static str,
    /// Which paper experiment the configuration mirrors.
    pub experiment: &'static str,
    /// The cluster both runs were simulated on — the slot counts the
    /// utilization timelines are measured against.
    pub spec: ClusterSpec,
    /// Trace of the IC baseline run.
    pub ic_trace: Trace,
    /// Trace of the PIC run.
    pub pic_trace: Trace,
    /// IC engine ledger totals (exact reconciliation target).
    pub ic_traffic: TrafficSnapshot,
    /// PIC engine ledger totals.
    pub pic_traffic: TrafficSnapshot,
    /// IC total simulated seconds.
    pub ic_time_s: f64,
    /// PIC total simulated seconds.
    pub pic_time_s: f64,
    /// Host wall-clock seconds spent producing this comparison.
    pub host_elapsed_s: f64,
    /// Quality-of-convergence comparison (curves, time-to-quality,
    /// BE-handoff gap) — see DESIGN.md §10.
    pub quality: QualityReport,
    /// Both traces' utilization, derived once when the run is collected.
    ic_utilization: UtilizationReport,
    pic_utilization: UtilizationReport,
    /// Both sides' what-if [`CATALOG`] projections, derived once when the
    /// run is collected.
    ic_sensitivity: SensitivityReport,
    pic_sensitivity: SensitivityReport,
}

impl AppRun {
    fn from_cmp<M>(
        app: &'static str,
        experiment: &'static str,
        spec: ClusterSpec,
        cmp: Comparison<M>,
        host_elapsed_s: f64,
    ) -> AppRun {
        // Every report app must define an error metric: a silent `None`
        // here would turn the whole quality section into dead weight.
        let be_final_err = cmp.pic.be_final_error.unwrap_or_else(|| {
            panic!("{app}: be_final_error is None — the app must define an error metric")
        });
        assert!(
            !cmp.ic.trajectory.is_empty() && !cmp.pic.trajectory.is_empty(),
            "{app}: empty error trajectory — the app must define an error metric"
        );
        let quality = QualityReport {
            app: app.to_string(),
            ic_curve: cmp.ic.trajectory,
            pic_curve: cmp.pic.trajectory,
            ic_iterations: cmp.ic.iterations,
            be_iterations: cmp.pic.be_iterations,
            topoff_iterations: cmp.pic.topoff_iterations,
            be_final_err,
        };
        let sensitivity = |trace, curve| {
            SensitivityReport::from_trace(trace, curve, &CATALOG)
                .unwrap_or_else(|| panic!("{app}: a collected run has a root span"))
        };
        AppRun {
            ic_utilization: UtilizationReport::from_trace(&cmp.ic_trace, &spec),
            pic_utilization: UtilizationReport::from_trace(&cmp.pic_trace, &spec),
            ic_sensitivity: sensitivity(&cmp.ic_trace, &quality.ic_curve),
            pic_sensitivity: sensitivity(&cmp.pic_trace, &quality.pic_curve),
            app,
            experiment,
            spec,
            ic_time_s: cmp.ic.total_time_s,
            pic_time_s: cmp.pic.total_time_s,
            ic_trace: cmp.ic_trace,
            pic_trace: cmp.pic_trace,
            ic_traffic: cmp.ic_traffic,
            pic_traffic: cmp.pic_traffic,
            host_elapsed_s,
            quality,
        }
    }

    /// PIC-over-IC speedup.
    pub fn speedup_x(&self) -> f64 {
        pic_core::report::speedup(self.ic_time_s, self.pic_time_s)
    }

    /// Time-resolved utilization of the IC baseline run (DESIGN.md §11).
    pub fn ic_utilization(&self) -> &UtilizationReport {
        &self.ic_utilization
    }

    /// Time-resolved utilization of the PIC run.
    pub fn pic_utilization(&self) -> &UtilizationReport {
        &self.pic_utilization
    }

    /// The what-if [`CATALOG`] projected over the IC baseline run
    /// (DESIGN.md §15).
    pub(crate) fn ic_sensitivity(&self) -> &SensitivityReport {
        &self.ic_sensitivity
    }

    /// The what-if [`CATALOG`] projected over the PIC run.
    pub(crate) fn pic_sensitivity(&self) -> &SensitivityReport {
        &self.pic_sensitivity
    }

    /// Monitor replay of the IC baseline run (DESIGN.md §16); a run too
    /// long for the monitor's bucket grid is refused.
    pub fn ic_monitor(&self) -> Result<MonitorReport, String> {
        Monitor::replay(MonitorConfig::new(self.spec.clone()), &self.ic_trace)
    }

    /// Monitor replay of the PIC run.
    pub fn pic_monitor(&self) -> Result<MonitorReport, String> {
        Monitor::replay(MonitorConfig::new(self.spec.clone()), &self.pic_trace)
    }

    /// Run the full structural suite on both traces (nesting, per-slot
    /// exclusivity, exact byte attribution, BE-before-top-off ordering,
    /// per-iteration reconciliation); returns prefixed violation lines.
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        let mut take = |prefix: &str, r: Result<(), Vec<String>>| {
            if let Err(es) = r {
                errs.extend(
                    es.into_iter()
                        .map(|e| format!("{}/{prefix}: {e}", self.app)),
                );
            }
        };
        take("ic", check::validate(&self.ic_trace, &self.ic_traffic));
        take("pic", check::validate(&self.pic_trace, &self.pic_traffic));
        take(
            "pic",
            check::span_order(&self.pic_trace, "be-iteration", "topoff"),
        );
        take(
            "ic",
            PerfReport::from_trace(&self.ic_trace).reconcile(&self.ic_traffic),
        );
        take(
            "pic",
            PerfReport::from_trace(&self.pic_trace).reconcile(&self.pic_traffic),
        );
        take(
            "ic",
            self.reconcile_quality(&self.ic_trace, &self.quality.ic_curve, "ic"),
        );
        take(
            "pic",
            self.reconcile_quality(&self.pic_trace, &self.quality.pic_curve, "pic"),
        );
        take("ic", self.ic_utilization().reconcile(&self.ic_traffic));
        take("pic", self.pic_utilization().reconcile(&self.pic_traffic));
        errs
    }

    /// The last `quality` instant's `objective` in `trace` must equal the
    /// driver-reported curve's final error **exactly** (`==`): both are
    /// the same probe of the same converged model, so any drift means the
    /// trace and the report no longer describe the same run.
    fn reconcile_quality(
        &self,
        trace: &Trace,
        curve: &[pic_simnet::QualityPoint],
        side: &str,
    ) -> Result<(), Vec<String>> {
        let traced = trace
            .instants
            .iter()
            .filter(|i| i.cat == "quality")
            .filter_map(|i| i.arg_f64("objective"))
            .next_back();
        let reported = curve.last().map(|p| p.err);
        match (traced, reported) {
            (Some(a), Some(b)) if a == b => Ok(()),
            (Some(a), Some(b)) => Err(vec![format!(
                "{side} final quality: trace objective {a} != trajectory error {b}"
            )]),
            (None, _) => Err(vec![format!("{side}: trace has no quality samples")]),
            (_, None) => Err(vec![format!("{side}: empty quality curve")]),
        }
    }

    /// Human-readable report for both runs.
    pub fn render(&self) -> String {
        format!(
            "=== {} ({}) — speedup {:.2}x ===\n\n--- IC baseline ---\n{}\n--- PIC ---\n{}\n{}",
            self.app,
            self.experiment,
            self.speedup_x(),
            PerfReport::from_trace(&self.ic_trace).render(),
            PerfReport::from_trace(&self.pic_trace).render(),
            self.quality.render(),
        )
    }
}

/// Run the comparisons for `apps` (subset of [`APPS`]) at `ctx.scale`.
/// Unknown names are an error listing the valid set.
pub fn collect(ctx: &ExperimentCtx, apps: &[&str]) -> Result<Vec<AppRun>, String> {
    let mut runs = Vec::new();
    for &app in apps {
        let t0 = std::time::Instant::now();
        let run = match app {
            // The acceptance-named run: paper Fig. 2, medium cluster.
            "kmeans" => {
                let cmp = fig2::run_full(ctx);
                let spec = ClusterSpec::medium();
                AppRun::from_cmp("kmeans", "fig2", spec, cmp, t0.elapsed().as_secs_f64())
            }
            "pagerank" => {
                let spec = ClusterSpec::small();
                let cmp = speedups::pagerank_cmp(&spec, ctx.n(20_000, 1_000), 18);
                AppRun::from_cmp("pagerank", "fig9", spec, cmp, t0.elapsed().as_secs_f64())
            }
            "neuralnet" => {
                let spec = ClusterSpec::small();
                let cmp = speedups::neuralnet_cmp(&spec, ctx.n(10_000, 500), 12);
                AppRun::from_cmp("neuralnet", "fig10", spec, cmp, t0.elapsed().as_secs_f64())
            }
            // The paper's exact size; scale-independent.
            "linsolve" => {
                let spec = ClusterSpec::small();
                let cmp = speedups::linsolve_cmp(&spec, 100, 5);
                AppRun::from_cmp("linsolve", "fig9", spec, cmp, t0.elapsed().as_secs_f64())
            }
            "smoothing" => {
                let side = (256.0 * ctx.scale.sqrt()).max(64.0) as usize;
                let spec = ClusterSpec::small();
                let cmp = speedups::smoothing_cmp(&spec, side, 16);
                AppRun::from_cmp("smoothing", "fig11", spec, cmp, t0.elapsed().as_secs_f64())
            }
            other => return Err(format!("unknown app '{other}'; known: {APPS:?}")),
        };
        runs.push(run);
    }
    Ok(runs)
}

/// Run `work` under the host profiler when `on` (DESIGN.md §14):
/// reset, enable, run, disable, snapshot. The one bracket behind `pic
/// report --profile-host` and `pic regress --profile-host`.
pub fn profiled<T>(on: bool, work: impl FnOnce() -> T) -> (T, Option<pic_simnet::HostProfile>) {
    use pic_simnet::hostprof;
    if on {
        hostprof::reset();
        hostprof::enable();
    }
    let out = work();
    let profile = on.then(|| {
        hostprof::disable();
        hostprof::snapshot()
    });
    (out, profile)
}

/// The `pic regress` pipeline: collect all five comparisons, run the
/// chaos campaign and the tenancy section, then write `BENCH_pic.json`
/// to `out` and the five suite CSVs beside it (`convergence.csv`,
/// `utilization.csv`, `chaos.csv`, `tenancy.csv`, `explain.csv`), logging
/// under `[tag]`. Returns the `BENCH_pic.json` text.
pub fn run_suite(
    tag: &str,
    ctx: &ExperimentCtx,
    profile_host: bool,
    out: &str,
) -> Result<String, String> {
    use super::{chaos, explain, tenancy};
    use crate::cli::write_artifact;
    use std::path::Path;

    let t0 = std::time::Instant::now();
    let (suite, host_profile) = profiled(profile_host, || -> Result<_, String> {
        let runs = collect(ctx, &APPS)?;
        let cells = chaos::campaign(ctx, &chaos::SCENARIOS)?;
        Ok((runs, cells, tenancy::section(ctx)?))
    });
    let (runs, cells, tenancy) = suite?;
    eprintln!(
        "[{tag}] suite ran in {:.1}s (host time) at scale {}",
        t0.elapsed().as_secs_f64(),
        ctx.scale
    );

    let json = bench_json(ctx, &runs, &cells, Some(&tenancy), host_profile.as_ref());
    write_artifact(tag, out, &json);
    let dir = Path::new(out).parent().unwrap_or(Path::new(""));
    let sections = explain::sections(&runs, &CATALOG);
    for (name, doc) in [
        ("convergence.csv", quality_csv(&runs)),
        ("utilization.csv", utilization_csv(&runs)),
        ("chaos.csv", chaos::chaos_csv(&cells)),
        ("tenancy.csv", tenancy::tenancy_csv(&tenancy.mixed)),
        ("explain.csv", explain::explain_csv(&sections)),
    ] {
        write_artifact(tag, &dir.join(name).to_string_lossy(), &doc);
    }
    Ok(json)
}

/// Assemble the top-level `BENCH_pic.json` document. Every `host_*` key
/// sits on its own line so determinism checks can strip them; everything
/// else is a pure function of the simulated runs. `chaos` is the
/// quality-under-failure campaign matrix (may be empty when the caller
/// skips the campaign); `tenancy` is the multi-tenant packing section
/// (`null` when the caller skips the stream); `host` is the host-side
/// stage profile captured around the suite (`null` unless the caller ran
/// with profiling enabled). The profile is emitted compactly on a single
/// `host_profile` line so it strips like every other `host_*` key.
pub fn bench_json(
    ctx: &ExperimentCtx,
    runs: &[AppRun],
    chaos: &[super::chaos::ChaosCell],
    tenancy: Option<&super::tenancy::TenancySection>,
    host: Option<&pic_simnet::HostProfile>,
) -> String {
    let doc = JsonWriter::document(0, |w| {
        w.field("schema_version", &REPORT_SCHEMA_VERSION.to_string());
        w.field_str("suite", "pic-report");
        w.field("scale", &fmt_f64(ctx.scale));
        w.field(
            "host_profile",
            &host.map_or("null".to_string(), |p| p.to_json_line()),
        );
        w.objects("apps", runs, write_app);
        w.objects("quality_under_failure", chaos, |w, cell| {
            w.columns(&cell.columns())
        });
        match tenancy {
            Some(section) => w.object("tenancy", |w| section.write_json(w)),
            None => w.field("tenancy", "null"),
        }
    });
    doc + "\n"
}

/// One entry of `bench_json`'s `apps` array: the headline numbers, then
/// each derived report of both runs nested under its section key.
fn write_app(w: &mut JsonWriter, run: &AppRun) {
    w.field_str("app", run.app);
    w.field_str("experiment", run.experiment);
    w.field("speedup_x", &fmt_f64(run.speedup_x()));
    w.field("ic_total_s", &fmt_f64(run.ic_time_s));
    w.field("pic_total_s", &fmt_f64(run.pic_time_s));
    w.field("host_elapsed_s", &fmt_f64(run.host_elapsed_s));
    w.object("ic", |w| {
        PerfReport::from_trace(&run.ic_trace).write_json(w)
    });
    w.object("pic", |w| {
        PerfReport::from_trace(&run.pic_trace).write_json(w)
    });
    w.object("quality", |w| run.quality.write_json(w));
    w.object("utilization", |w| {
        w.object("ic", |w| run.ic_utilization().write_json(w));
        w.object("pic", |w| run.pic_utilization().write_json(w));
    });
    // Schema v7: the ranked counterfactual bottleneck table
    // (DESIGN.md §15). Scalar rows only — the per-phase breakdowns
    // live in the `pic explain --json` artifact, not the gate.
    w.object("sensitivity", |w| {
        w.object("ic", |w| run.ic_sensitivity().write_json(w, false));
        w.object("pic", |w| run.pic_sensitivity().write_json(w, false));
    });
    // Schema v8: the online-monitor summary (DESIGN.md §16) —
    // incident counts exact, open durations banded like every `_s`.
    // The full series live in the `pic watch --json` artifact.
    w.object("monitor", |w| {
        let fits = "a suite run fits the monitor's bucket grid";
        let (ic, pic) = (
            run.ic_monitor().expect(fits),
            run.pic_monitor().expect(fits),
        );
        w.object("ic", |w| ic.write_json_summary(w));
        w.object("pic", |w| pic.write_json_summary(w));
    });
}

/// Concatenate every run's convergence curves into one CSV document —
/// the artifact CI uploads so curves can be plotted without re-running
/// the suite.
pub fn quality_csv(runs: &[AppRun]) -> String {
    csv_doc(runs.iter().flat_map(|run| quality_rows(&run.quality)))
}

/// One row per curve point: `app`, `driver` and the point's index, then
/// the point's own columns.
fn quality_rows(q: &QualityReport) -> impl Iterator<Item = Vec<Column>> + '_ {
    let curves = [("ic", &q.ic_curve), ("pic", &q.pic_curve)];
    curves.into_iter().flat_map(move |(driver, curve)| {
        curve.iter().enumerate().map(move |(i, p)| {
            let mut row = vec![
                Column::text("app", &q.app),
                Column::text("driver", driver),
                Column::num("point", i),
            ];
            row.extend(p.columns());
            row
        })
    })
}

/// Concatenate every run's full slot-occupancy series into one
/// long-form CSV document. `BENCH_pic.json` carries only scalar rollups;
/// this is the artifact with every interval, uploaded by CI next to the
/// quality curves.
pub fn utilization_csv(runs: &[AppRun]) -> String {
    csv_doc(runs.iter().flat_map(|run| {
        let sides = [("ic", run.ic_utilization()), ("pic", run.pic_utilization())];
        sides
            .into_iter()
            .flat_map(|(side, util)| utilization_rows(util, run.app, side))
    }))
}

/// One row per grid interval of every slot-occupancy series
/// (`slots:<group>`).
fn utilization_rows(util: &UtilizationReport, app: &str, side: &str) -> Vec<Vec<Column>> {
    let dt = util.dt_s();
    util.slots
        .iter()
        .flat_map(|(group, s)| {
            let series = format!("slots:{group}");
            s.occupancy.iter().enumerate().map(move |(i, v)| {
                vec![
                    Column::text("app", app),
                    Column::text("side", side),
                    Column::text("series", &series),
                    Column::num("interval", i),
                    Column::num("t0_s", fmt_f64(i as f64 * dt)),
                    Column::num("value", fmt_f64(*v)),
                ]
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use pic_simnet::{QualityPoint, Tracer, TrafficClass, TrafficLedger};

    /// The rendered values of each row, as the CSV records carry them.
    fn records(rows: impl IntoIterator<Item = Vec<Column>>) -> Vec<Vec<String>> {
        let values = |row: Vec<Column>| row.iter().map(|c| c.value().to_string()).collect();
        rows.into_iter().map(values).collect()
    }

    #[test]
    fn quality_csv_lists_every_point() {
        let point = |t_s, err| QualityPoint { t_s, err };
        let q = QualityReport {
            app: "toy".into(),
            ic_curve: vec![point(1.0, 8.0), point(2.0, 2.0), point(3.0, 1.0)],
            pic_curve: vec![point(0.5, 4.0), point(1.0, 1.05), point(4.0, 1.0)],
            ic_iterations: 3,
            be_iterations: 2,
            topoff_iterations: 1,
            be_final_err: 1.05,
        };
        let records = records(quality_rows(&q));
        assert_eq!(records.len(), 6);
        assert_eq!(records[0], ["toy", "ic", "0", "1", "8"]);
        assert!(records.iter().any(|r| r == &["toy", "pic", "2", "4", "1"]));
    }

    #[test]
    fn utilization_csv_covers_every_series() {
        let tracer = Tracer::standalone();
        let ledger = TrafficLedger::traced(tracer.clone());
        let root = tracer.begin_at("root", "job", 0.0);
        tracer.span_at_in("solve-slot-0", "s0", "task", 0.0, 2.0, vec![]);
        ledger.add_over(TrafficClass::Broadcast, 500, 0.0, 1.0);
        tracer.end_at(root, 4.0);
        let r = UtilizationReport::with_intervals(&tracer.trace(), &ClusterSpec::small(), 8);
        let records = records(utilization_rows(&r, "kmeans", "pic"));
        // 1 slot group, 8 intervals; no per-link rows.
        assert_eq!(records.len(), 8);
        assert_eq!(records[0][..4], ["kmeans", "pic", "slots:solve", "0"]);
        assert!(records.iter().all(|rec| rec[2] == "slots:solve"));
    }

    /// One cheap app exercises the full pipeline; the root integration
    /// suite covers kmeans and the cross-pool identity.
    fn linsolve_runs() -> Vec<AppRun> {
        collect(&ExperimentCtx { scale: 0.01 }, &["linsolve"]).unwrap()
    }

    /// Add `by` to the first `key` value in `doc` and assert that the
    /// gate's diff against `doc` flags `key`.
    fn assert_drift_flagged(doc: &str, key: &str, by: f64) {
        let tag = format!("\"{key}\": ");
        let start = doc.find(&tag).unwrap_or_else(|| panic!("{key} in json")) + tag.len();
        let end = start + doc[start..].find([',', '\n']).unwrap();
        let v: f64 = doc[start..end].trim().parse().unwrap();
        let drifted = format!("{}{}{}", &doc[..start], v + by, &doc[end..]);
        let baseline = json::parse(doc).unwrap();
        let diffs = json::diff(&baseline, &json::parse(&drifted).unwrap(), 1e-6);
        assert!(
            diffs.iter().any(|d| d.contains(key)),
            "drifted {key} not flagged: {diffs:?}"
        );
    }

    /// The keys of `obj`, in document order.
    fn keys(obj: &json::Json) -> Vec<&str> {
        let json::Json::Obj(fields) = obj else {
            panic!("not an object: {obj:?}")
        };
        fields.iter().map(|(k, _)| k.as_str()).collect()
    }

    #[test]
    fn collect_validates_cleanly_and_serializes() {
        let ctx = ExperimentCtx { scale: 0.01 };
        let runs = linsolve_runs();
        assert_eq!(runs.len(), 1);
        assert!(runs[0].validate().is_empty());
        assert!(runs[0].speedup_x() > 1.0);

        let doc = bench_json(&ctx, &runs, &[], None, None);
        let parsed = json::parse(&doc).unwrap();
        assert_eq!(
            parsed.get("schema_version").unwrap().as_f64(),
            Some(REPORT_SCHEMA_VERSION as f64)
        );
        assert_eq!(parsed.get("scale").unwrap().as_f64(), Some(0.01));
        let apps = match parsed.get("apps").unwrap() {
            json::Json::Arr(a) => a,
            other => panic!("apps not an array: {other:?}"),
        };
        assert_eq!(apps[0].get("app").unwrap().as_str(), Some("linsolve"));
        // Each run's report, its byte objects and its slot rollups carry
        // only keys that restate no other key.
        let labels: Vec<&str> = TrafficClass::ALL.iter().map(|c| c.label()).collect();
        let util = apps[0].get("utilization").unwrap();
        for side in ["ic", "pic"] {
            let r = apps[0].get(side).unwrap();
            assert_eq!(
                keys(r),
                [
                    "total_s",
                    "phases",
                    "tasks",
                    "iterations",
                    "outside_bytes",
                    "class_bytes",
                ],
                "{side}"
            );
            let json::Json::Arr(iterations) = r.get("iterations").unwrap() else {
                panic!("{side}: iterations is an array")
            };
            assert!(!iterations.is_empty(), "{side}");
            for bytes in iterations
                .iter()
                .map(|it| it.get("bytes").unwrap())
                .chain([r.get("outside_bytes").unwrap()])
            {
                assert_eq!(keys(bytes), labels, "{side}");
            }
            let u = util.get(side).unwrap();
            assert_eq!(keys(u), ["horizon_s", "intervals", "slots"], "{side}");
            assert!(u.get("horizon_s").unwrap().as_f64().unwrap() > 0.0);
            let map = u.get("slots").unwrap().get("map").unwrap();
            assert_eq!(
                keys(map),
                ["slots", "busy_s", "busy_util", "peak_occupancy_util"],
                "{side}"
            );
        }
        // Self-diff passes; a perturbed copy fails.
        assert!(json::diff(&parsed, &parsed, 1e-9).is_empty());
    }

    #[test]
    fn bench_json_host_lines_are_isolated() {
        let ctx = ExperimentCtx { scale: 0.01 };
        let doc = bench_json(&ctx, &linsolve_runs(), &[], None, None);
        let host_lines: Vec<&str> = doc.lines().filter(|l| l.contains("host_")).collect();
        assert_eq!(
            host_lines.len(),
            2,
            "one host key per app run plus the suite host_profile"
        );
        assert!(host_lines[0]
            .trim_start()
            .starts_with("\"host_profile\": null"));
        assert!(host_lines[1].trim_start().starts_with("\"host_elapsed_s\""));

        // With a profile attached, the whole section still occupies a
        // single strippable line and the document stays parseable.
        let profile = pic_simnet::HostProfile {
            stages: vec![pic_simnet::StageProfile {
                stage: pic_simnet::Stage::Map,
                calls: 3,
                bytes: 128,
                total_s: 0.25,
                p50_s: 0.08,
                p95_s: 0.1,
                max_s: 0.1,
            }],
        };
        let doc = bench_json(&ctx, &linsolve_runs(), &[], None, Some(&profile));
        let host_lines: Vec<&str> = doc.lines().filter(|l| l.contains("host_")).collect();
        assert_eq!(host_lines.len(), 2, "profile stays on one line");
        let parsed = json::parse(&doc).unwrap();
        let hp = parsed.get("host_profile").unwrap();
        assert_eq!(
            hp.get("stages")
                .unwrap()
                .get("map")
                .unwrap()
                .get("calls")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
        // host_profile is prefix-skipped like every other host_ key.
        let stripped = bench_json(&ctx, &linsolve_runs(), &[], None, None);
        assert!(json::diff(&json::parse(&stripped).unwrap(), &parsed, 1e-9).is_empty());
    }

    #[test]
    fn quality_csv_covers_every_run_and_curve() {
        let runs = linsolve_runs();
        let doc = quality_csv(&runs);
        let mut lines = doc.lines();
        assert_eq!(lines.next(), Some("app,driver,point,t_s,err"));
        let expected = runs[0].quality.ic_curve.len() + runs[0].quality.pic_curve.len();
        assert_eq!(doc.lines().count(), 1 + expected);
        assert!(lines.next().unwrap().starts_with("linsolve,ic,0,"));
        assert!(doc.contains("\nlinsolve,pic,0,"));
    }

    /// The regression gate must catch quality drift: perturbing a quality
    /// error beyond the relative epsilon, or an iteration count at all,
    /// turns a clean self-diff into a reported regression.
    #[test]
    fn quality_drift_beyond_tolerance_is_a_regression() {
        let ctx = ExperimentCtx { scale: 0.01 };
        let doc = bench_json(&ctx, &linsolve_runs(), &[], None, None);
        let baseline = json::parse(&doc).unwrap();
        assert!(json::diff(&baseline, &baseline, 1e-6).is_empty());

        // Drift the BE-handoff error well past the band (the tolerance is
        // floored at `eps` absolute, so a relative nudge on a near-zero
        // error could legitimately pass — drift by a whole unit instead).
        assert_drift_flagged(&doc, "be_final_err", 1.0);
        // An off-by-one iteration count is exact-gated: always a diff.
        assert_drift_flagged(&doc, "ic_iterations", 1.0);
    }

    /// Schema v7: every app carries a `sensitivity` section with both
    /// sides' ranked scenario tables, and the gate catches drift in a
    /// projected delta.
    #[test]
    fn sensitivity_section_is_present_and_gated() {
        let ctx = ExperimentCtx { scale: 0.01 };
        let doc = bench_json(&ctx, &linsolve_runs(), &[], None, None);
        let baseline = json::parse(&doc).unwrap();
        let apps = match baseline.get("apps").unwrap() {
            json::Json::Arr(a) => a,
            other => panic!("apps not an array: {other:?}"),
        };
        let sens = apps[0].get("sensitivity").unwrap();
        for side in ["ic", "pic"] {
            let t = sens.get(side).unwrap();
            assert!(t.get("baseline_makespan_s").unwrap().as_f64().unwrap() > 0.0);
            let rows = match t.get("scenarios").unwrap() {
                json::Json::Arr(a) => a,
                other => panic!("scenarios not an array: {other:?}"),
            };
            assert_eq!(rows.len(), CATALOG.len());
            // Gate rows are scalar-only: phase breakdowns stay out of
            // BENCH_pic.json.
            for row in rows {
                assert_eq!(
                    keys(row),
                    [
                        "scenario",
                        "projected_makespan_s",
                        "delta_makespan_s",
                        "tt_1pct_s",
                        "tt_5pct_s",
                        "tt_10pct_s",
                        "delta_tt_1pct_s",
                        "delta_tt_5pct_s",
                        "delta_tt_10pct_s",
                    ]
                );
            }
        }

        // Drift a projected delta past the band.
        assert_drift_flagged(&doc, "delta_makespan_s", 1.0);
    }

    /// Schema v8: every app carries a `monitor` section with per-side
    /// incident summaries; incident counts are exact-gated while the
    /// open durations are banded like every `_s` key.
    #[test]
    fn monitor_section_is_present_and_gated() {
        let ctx = ExperimentCtx { scale: 0.01 };
        let doc = bench_json(&ctx, &linsolve_runs(), &[], None, None);
        let baseline = json::parse(&doc).unwrap();
        assert_eq!(
            baseline.get("schema_version").unwrap().as_f64(),
            Some(REPORT_SCHEMA_VERSION as f64)
        );
        let apps = match baseline.get("apps").unwrap() {
            json::Json::Arr(a) => a,
            other => panic!("apps not an array: {other:?}"),
        };
        let mon = apps[0].get("monitor").unwrap();
        assert_eq!(keys(mon), ["ic", "pic"]);
        for side in ["ic", "pic"] {
            let m = mon.get(side).unwrap();
            assert!(m.get("incidents").unwrap().as_f64().is_some());
            assert!(m.get("incident_s").unwrap().as_f64().is_some());
            let Some(json::Json::Obj(by_rule)) = m.get("by_rule") else {
                panic!("{side}: by_rule is an object")
            };
            let rules: Vec<&str> = by_rule.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(rules, ["stall", "divergence", "recovery-storm", "fault"]);
            assert!(by_rule.iter().all(|(_, n)| n.as_f64().is_some()));
            assert_eq!(
                m.get("faults").unwrap().as_f64(),
                Some(0.0),
                "no chaos: no faults"
            );
        }

        // An incident-count drift is an exact-gated regression.
        assert_drift_flagged(&doc, "incidents", 1.0);
    }

    /// The gate must also catch utilization drift: a perturbed
    /// `busy_util` beyond the band is flagged, and a perturbed interval
    /// count is exact-gated.
    #[test]
    fn utilization_drift_is_a_regression() {
        let ctx = ExperimentCtx { scale: 0.01 };
        let doc = bench_json(&ctx, &linsolve_runs(), &[], None, None);
        assert_drift_flagged(&doc, "busy_util", 1.0);
        assert_drift_flagged(&doc, "intervals", 1.0);
    }

    /// The gate must also catch recovery drift in the quality-under-
    /// failure section — under the same band as every `_s` key, so even a
    /// mild drift is flagged — and the recovery byte count is exact-gated.
    #[test]
    fn recovery_drift_beyond_band_is_a_regression() {
        let ctx = ExperimentCtx { scale: 0.01 };
        let cell = crate::experiments::chaos::ChaosCell {
            app: "linsolve",
            scenario: "node-crash",
            driver: "ic",
            clean_s: 100.0,
            faulty_s: 120.0,
            recovery_s: 20.0,
            recovery_bytes: 4096,
            injected_events: 1,
            tt_quality_delta_s: 5.0,
            incidents: 2,
            clean_incidents: 0,
            exact_result: true,
        };
        let doc = bench_json(&ctx, &linsolve_runs(), &[cell], None, None);
        let baseline = json::parse(&doc).unwrap();
        assert!(json::diff(&baseline, &baseline, 1e-6).is_empty());

        // Rel 5e-6 at eps 1e-6: no key gets a wider band, so flagged.
        assert_drift_flagged(&doc, "recovery_s", 1e-4);
        // Far beyond the band: flagged.
        assert_drift_flagged(&doc, "recovery_s", 10.0);
        // Recovery bytes are exact-gated.
        assert_drift_flagged(&doc, "recovery_bytes", 1.0);
    }

    /// The gate must catch tenancy drift: `p99_tt_quality_s` sits in the
    /// standard `_s` band and `packing_x` in the `_x` band, while job
    /// counts and preemptions are exact-gated.
    #[test]
    fn tenancy_drift_beyond_tolerance_is_a_regression() {
        use pic_simnet::report::{TenancyReport, TenancyRow};
        let ctx = ExperimentCtx { scale: 0.01 };
        let rows: Vec<TenancyRow> = (0..4)
            .map(|i| TenancyRow {
                id: i,
                app: "linsolve".to_string(),
                driver: if i % 2 == 0 { "ic" } else { "pic" }.to_string(),
                arrival_s: i as f64 * 10.0,
                admitted_s: i as f64 * 10.0 + 1.0,
                finish_s: i as f64 * 10.0 + 100.0,
                queue_delay_s: 1.0,
                tt_quality_s: 80.0 + i as f64,
                contention_s: 2.0,
                requested_nodes: 64,
                granted_nodes: 64,
                preemptions: 0,
            })
            .collect();
        let section = crate::experiments::tenancy::TenancySection {
            mixed: TenancyReport {
                preset: "1k".to_string(),
                cluster_nodes: 1000,
                rows,
                makespan_s: 130.0,
            },
            ic_p99_tt_quality_s: 120.0,
            pic_p99_tt_quality_s: 80.0,
            packing_x: 1.5,
            exact_models: true,
        };
        let doc = bench_json(&ctx, &linsolve_runs(), &[], Some(&section), None);
        let baseline = json::parse(&doc).unwrap();
        assert!(json::diff(&baseline, &baseline, 1e-6).is_empty());

        for key in ["p99_tt_quality_s", "packing_x"] {
            assert_drift_flagged(&doc, key, 10.0);
        }
        // Preemption counts are exact-gated.
        assert_drift_flagged(&doc, "preemption_total", 1.0);
    }

    #[test]
    fn utilization_csv_covers_both_sides_of_every_run() {
        let runs = linsolve_runs();
        let doc = utilization_csv(&runs);
        let mut lines = doc.lines();
        assert_eq!(lines.next(), Some("app,side,series,interval,t0_s,value"));
        assert!(doc.contains("\nlinsolve,ic,slots:map,"));
        assert!(doc.contains("\nlinsolve,pic,slots:map,"));
        assert!(!doc.contains(",link:"), "no per-link rows");
        // One row per interval of every slot group, both sides.
        let groups = runs[0].ic_utilization().slots.len() + runs[0].pic_utilization().slots.len();
        let intervals = runs[0].ic_utilization().intervals;
        assert_eq!(doc.lines().count(), 1 + groups * intervals);
    }

    #[test]
    fn unknown_app_is_rejected() {
        let err = collect(&ExperimentCtx { scale: 0.01 }, &["nope"]).unwrap_err();
        assert!(err.contains("unknown app 'nope'"), "{err}");
        for app in APPS {
            assert!(err.contains(app), "error must name {app}: {err}");
        }
    }

    #[test]
    fn render_covers_both_sides() {
        let runs = linsolve_runs();
        let text = runs[0].render();
        assert!(text.contains("IC baseline"));
        assert!(text.contains("--- PIC ---"));
        assert!(text.contains("phase rollups"));
        assert!(text.contains("per-iteration decomposition"));
    }
}
