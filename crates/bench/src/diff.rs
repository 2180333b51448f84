//! `pic diff` — differential regression attribution between two
//! `BENCH_pic.json` documents.
//!
//! Where the regression gate (`json::diff`) answers *whether* two reports
//! differ, this module answers *where the time went*, from the gate's own
//! walk and band rule ([`json::compare`]) run over the subtrees it
//! attributes: per-app simulated seconds along the critical-path
//! categories and per-phase rollups, byte deltas by traffic class, the
//! first point at which the convergence curves diverge, and — when both
//! documents carry a `host_profile` section — host-side stage deltas.
//! Results come back ranked (most-regressing segment first) for the CLI
//! table and as a machine-readable JSON document for tooling. Whatever
//! else the gate's walk finds becomes one note, so drift outside those
//! subtrees still fails `pic diff`.

use crate::json::{self, Json, Step};
use crate::table::Table;
use pic_simnet::report::{fmt_f64, JsonWriter};
use pic_simnet::trace::json_string;
use std::fmt::Write as _;

/// One attributed delta along a single axis of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaEntry {
    /// App the segment belongs to (empty for suite-level host stages).
    pub app: String,
    /// Attribution axis: `total`, `critical-path`, `phase`, `traffic`,
    /// or `host-stage`.
    pub axis: &'static str,
    /// Driver side (`ic` / `pic`), empty when the axis has no side.
    pub side: String,
    /// Segment label within the axis (category, phase, class, stage).
    pub label: String,
    /// Baseline value (seconds or bytes depending on the axis).
    pub old: f64,
    /// Fresh value.
    pub new: f64,
}

impl DeltaEntry {
    /// Signed change, positive when the fresh run regressed (grew).
    pub fn delta(&self) -> f64 {
        self.new - self.old
    }

    /// Human-readable segment path, e.g. `kmeans/pic/phase:solve`.
    pub fn segment(&self) -> String {
        let mut s = String::new();
        for part in [&self.app, &self.side]
            .into_iter()
            .filter(|p| !p.is_empty())
        {
            let _ = write!(s, "{part}/");
        }
        let _ = write!(s, "{}:{}", self.axis, self.label);
        s
    }

    fn new(app: &str, axis: &'static str, side: &str, moved: (&str, f64, f64)) -> Self {
        let (label, old, new) = moved;
        let (app, side, label) = (app.to_string(), side.to_string(), label.to_string());
        DeltaEntry {
            app,
            axis,
            side,
            label,
            old,
            new,
        }
    }
}

/// The first point at which an app's convergence curve left the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityDivergence {
    /// App whose curve diverged.
    pub app: String,
    /// Which driver's curve (`ic` / `pic`).
    pub driver: String,
    /// Index of the first diverging point.
    pub index: usize,
    /// Simulated time of that point (baseline side).
    pub t_s: f64,
    /// Baseline error at the point (`NaN` when the point only exists on
    /// one side because the curves have different lengths).
    pub old_err: f64,
    /// Fresh error at the point (`NaN` when missing, as above).
    pub new_err: f64,
}

/// Full attribution between two reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Simulated-seconds deltas (totals, critical-path categories,
    /// phase rollups), sorted most-regressing first.
    pub time: Vec<DeltaEntry>,
    /// Byte deltas by traffic class, sorted by |delta| descending.
    pub bytes: Vec<DeltaEntry>,
    /// Host-stage wall-clock deltas; populated only when both documents
    /// carry a non-null `host_profile` and a stage moved more than the
    /// host noise band (these are machine-dependent, so they never
    /// affect [`DiffReport::is_empty`]).
    pub host: Vec<DeltaEntry>,
    /// First divergence point per app/driver curve that moved.
    pub divergence: Vec<QualityDivergence>,
    /// Structural observations (apps present on one side only, scale
    /// mismatch) that make the attribution partial, and the count and
    /// first path of gated differences outside the attributed sections.
    pub notes: Vec<String>,
}

impl DiffReport {
    /// True when nothing simulated was attributed: no time or byte
    /// deltas, no curve divergence, and no structural notes. Host-stage
    /// deltas are ignored — wall-clock jitter is expected between runs.
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
            && self.bytes.is_empty()
            && self.divergence.is_empty()
            && self.notes.is_empty()
    }

    /// Render the ranked attribution tables (at most `top` rows each;
    /// `0` means all).
    pub fn render(&self, top: usize) -> String {
        let cap = |n: usize| if top == 0 { n } else { n.min(top) };
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("pic diff: no attributed deltas — reports are equivalent\n");
            if !self.host.is_empty() {
                let _ = writeln!(
                    out,
                    "(host-stage wall-clock moved on {} stage(s); simulated results identical)",
                    self.host.len()
                );
            }
            return out;
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        if !self.time.is_empty() {
            let mut t = Table::new(["#", "segment", "old (s)", "new (s)", "delta (s)"]);
            for (i, e) in self.time.iter().take(cap(self.time.len())).enumerate() {
                t.row([
                    (i + 1).to_string(),
                    e.segment(),
                    format!("{:.6}", e.old),
                    format!("{:.6}", e.new),
                    format!("{:+.6}", e.delta()),
                ]);
            }
            let _ = writeln!(out, "top regressing segments (simulated seconds):");
            out.push_str(&t.render());
            out.push('\n');
        }
        if !self.bytes.is_empty() {
            let mut t = Table::new(["#", "segment", "old (B)", "new (B)", "delta (B)"]);
            for (i, e) in self.bytes.iter().take(cap(self.bytes.len())).enumerate() {
                t.row([
                    (i + 1).to_string(),
                    e.segment(),
                    format!("{:.0}", e.old),
                    format!("{:.0}", e.new),
                    format!("{:+.0}", e.delta()),
                ]);
            }
            let _ = writeln!(out, "traffic deltas (bytes by class):");
            out.push_str(&t.render());
            out.push('\n');
        }
        for d in &self.divergence {
            let _ = writeln!(
                out,
                "quality: {}/{} curves diverge at point {} (t={:.6}s): err {} -> {}",
                d.app,
                d.driver,
                d.index,
                d.t_s,
                fmt_f64(d.old_err),
                fmt_f64(d.new_err),
            );
        }
        if !self.host.is_empty() {
            let mut t = Table::new(["#", "stage", "old (s)", "new (s)", "delta (s)"]);
            for (i, e) in self.host.iter().take(cap(self.host.len())).enumerate() {
                t.row([
                    (i + 1).to_string(),
                    e.label.clone(),
                    format!("{:.6}", e.old),
                    format!("{:.6}", e.new),
                    format!("{:+.6}", e.delta()),
                ]);
            }
            let _ = writeln!(out, "host-stage deltas (wall clock, informational):");
            out.push_str(&t.render());
        }
        out
    }

    /// Machine-readable attribution document.
    pub fn to_json(&self) -> String {
        fn entries(w: &mut JsonWriter, key: &str, list: &[DeltaEntry], unit: &str) {
            w.objects(key, list, |w, e| {
                w.field_str("app", &e.app);
                w.field_str("axis", e.axis);
                w.field_str("side", &e.side);
                w.field_str("label", &e.label);
                w.field(&format!("old_{unit}"), &fmt_f64(e.old));
                w.field(&format!("new_{unit}"), &fmt_f64(e.new));
                w.field(&format!("delta_{unit}"), &fmt_f64(e.delta()));
            });
        }
        let notes: Vec<String> = self.notes.iter().map(|n| json_string(n)).collect();
        let mut doc = JsonWriter::document(0, |w| {
            w.field("attributed", &(!self.is_empty()).to_string());
            entries(w, "time_deltas", &self.time, "s");
            entries(w, "byte_deltas", &self.bytes, "bytes");
            entries(w, "host_deltas", &self.host, "s");
            w.objects("quality_divergence", &self.divergence, |w, d| {
                w.field_str("app", &d.app);
                w.field_str("driver", &d.driver);
                w.field("index", &d.index.to_string());
                w.field("t_s", &fmt_f64(d.t_s));
                w.field("old_err", &fmt_f64(d.old_err));
                w.field("new_err", &fmt_f64(d.new_err));
            });
            w.field("notes", &format!("[{}]", notes.join(", ")));
        });
        doc.push('\n');
        doc
    }
}

/// Host stages are reported only when they move more than 5%: host
/// timings jitter even when the simulated work is identical.
const HOST_BAND: f64 = 0.05;

/// What an absent map or total compares as, so that whatever one side
/// has counts as 0 on the other.
static EMPTY: Json = Json::Obj(Vec::new());
static ZERO: Json = Json::Num(0.0, String::new());

/// The value at `path` below `doc`.
fn lookup<'a>(doc: Option<&'a Json>, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(doc?, |v, k| v.get(k))
}

/// An attributed number: the value itself, or an object's `total_s`
/// (phases, host stages); 0 when absent.
fn number(v: Option<&Json>) -> f64 {
    let v = v.map(|v| v.get("total_s").unwrap_or(v));
    v.and_then(Json::as_f64).unwrap_or(0.0)
}

/// Whether the gate's difference `d` changes the [`number`] attribution
/// reads. A key on one side only whose number equals the other side's
/// (absent counts as 0) does not: it is left to the gate-walk note.
fn moves(d: &json::Difference) -> bool {
    number(d.old) != number(d.new)
}

/// `(label, old, new)` for every label of the maps at `path` below `old`
/// and `new` whose [`number`] the gate's walk finds moved.
fn moved<'a>(
    old: Option<&'a Json>,
    new: Option<&'a Json>,
    path: &[&'a str],
    eps: f64,
) -> Vec<(&'a str, f64, f64)> {
    let (a, b) = (lookup(old, path), lookup(new, path));
    let key = path[path.len() - 1];
    let diffs = json::compare(key, a.unwrap_or(&EMPTY), b.unwrap_or(&EMPTY), eps);
    diffs
        .into_iter()
        .filter(moves)
        .filter_map(|d| match d.path[..] {
            [Step::Key(label)] | [Step::Key(label), Step::Key("total_s")] => {
                Some((label, number(d.old), number(d.new)))
            }
            _ => None,
        })
        .collect()
}

/// Whether [`diff_docs`] attributes the gate's difference `d` between two
/// reports whose apps pair up index by index: an app's totals, a label of
/// its critical-path, phase or traffic-class maps (or that label's
/// `total_s`) whose number [`moves`], or a point of its convergence
/// curves (or their lengths).
fn attributed(d: &json::Difference) -> bool {
    use Step::{Index, Key};
    let [Key("apps"), Index(_), rest @ ..] = &d.path[..] else {
        return false;
    };
    match rest {
        [Key("ic_total_s" | "pic_total_s")] => moves(d),
        [Key("quality"), Key("ic_curve" | "pic_curve"), Index(_), ..] => true,
        [Key("quality"), Key("ic_curve" | "pic_curve")] => d.kind == json::DiffKind::Length,
        [Key("ic" | "pic"), map @ ..] => {
            let map = match map {
                [map @ .., Key(_), Key("total_s")] | [map @ .., Key(_)] => map,
                _ => return false,
            };
            let axis = matches!(
                map,
                [Key("critical_path"), Key("by_cat_s")] | [Key("phases")] | [Key("class_bytes")]
            );
            axis && moves(d)
        }
        _ => false,
    }
}

/// Attribute the differences between two parsed `BENCH_pic.json`
/// documents: [`json::compare`] — the gate's walk and band rule at
/// relative band `epsilon` — runs over each attributed subtree of every
/// app both documents name. Errors only on documents that are not
/// reports at all (no `apps` array).
pub fn diff_docs(old: &Json, new: &Json, epsilon: f64) -> Result<DiffReport, String> {
    let (Some(Json::Arr(old_apps)), Some(Json::Arr(new_apps))) = (old.get("apps"), new.get("apps"))
    else {
        let which = match old.get("apps") {
            Some(Json::Arr(_)) => "fresh",
            _ => "baseline",
        };
        return Err(format!("{which} document has no 'apps' array"));
    };
    let mut report = DiffReport::default();
    let notes = &mut report.notes;

    let scale = |doc: &Json| doc.get("scale").and_then(Json::as_f64);
    let (os, ns) = (scale(old), scale(new));
    if os != ns {
        notes.push(format!(
            "scale mismatch: {os:?} vs {ns:?} — deltas span workloads"
        ));
    }
    let scale_notes = notes.len();

    fn name_of(app: &Json) -> Option<&str> {
        app.get("app").and_then(Json::as_str)
    }
    // Apps pair up by name, so a name listed twice on either side would
    // hide its later entries; each such name is one note.
    for (side, apps) in [("baseline", old_apps), ("fresh", new_apps)] {
        let names: Vec<&str> = apps.iter().filter_map(name_of).collect();
        for (i, name) in names.iter().enumerate() {
            let count = names.iter().filter(|n| *n == name).count();
            if count > 1 && !names[..i].contains(name) {
                notes.push(format!(
                    "app '{name}' appears {count} times in the {side} report"
                ));
            }
        }
    }
    for (i, old_app) in old_apps.iter().enumerate() {
        let Some(name) = name_of(old_app) else {
            notes.push(format!("baseline app {i} has no 'app' name"));
            continue;
        };
        let Some(new_app) = new_apps.iter().find(|a| name_of(a) == Some(name)) else {
            notes.push(format!("app '{name}' missing from fresh report"));
            continue;
        };
        for (key, side) in [("ic_total_s", "ic"), ("pic_total_s", "pic")] {
            let (a, b) = (old_app.get(key), new_app.get(key));
            if !json::compare(key, a.unwrap_or(&ZERO), b.unwrap_or(&ZERO), epsilon).is_empty() {
                let total = DeltaEntry::new(name, "total", side, ("total_s", number(a), number(b)));
                report.time.push(total);
            }
        }
        for side in ["ic", "pic"] {
            let (o, n) = (old_app.get(side), new_app.get(side));
            let axes: [(_, &[&str]); 3] = [
                ("critical-path", &["critical_path", "by_cat_s"]),
                ("phase", &["phases"]),
                ("traffic", &["class_bytes"]),
            ];
            for (axis, path) in axes {
                let list = match axis {
                    "traffic" => &mut report.bytes,
                    _ => &mut report.time,
                };
                for m in moved(o, n, path, epsilon) {
                    list.push(DeltaEntry::new(name, axis, side, m));
                }
            }
        }
        for (curve, driver) in [("ic_curve", "ic"), ("pic_curve", "pic")] {
            let curve_of = |app| lookup(Some(app), &["quality", curve]);
            let (Some(oc @ Json::Arr(op)), Some(nc @ Json::Arr(np))) =
                (curve_of(old_app), curve_of(new_app))
            else {
                continue;
            };
            // The first moved point; a length mismatch diverges where the
            // shorter curve ends.
            let diffs = json::compare(curve, oc, nc, epsilon);
            let first = diffs.iter().map(|d| match d.path[..] {
                [Step::Index(i), ..] => i,
                _ => op.len().min(np.len()),
            });
            let Some(index) = first.min() else {
                continue;
            };
            let value = |p: Option<&Json>, key| lookup(p, &[key]).and_then(Json::as_f64);
            report.divergence.push(QualityDivergence {
                app: name.to_string(),
                driver: driver.to_string(),
                index,
                t_s: value(op.get(index).or(np.get(index)), "t_s").unwrap_or(f64::NAN),
                old_err: value(op.get(index), "err").unwrap_or(f64::NAN),
                new_err: value(np.get(index), "err").unwrap_or(f64::NAN),
            });
        }
    }
    for (i, new_app) in new_apps.iter().enumerate() {
        match name_of(new_app) {
            None => notes.push(format!("fresh app {i} has no 'app' name")),
            Some(name) if !old_apps.iter().any(|a| name_of(a) == Some(name)) => {
                notes.push(format!("app '{name}' missing from baseline"));
            }
            Some(_) => {}
        }
    }

    // The gate's walk over the whole documents: the gated lines nothing
    // above stands for — a section this attribution does not walk
    // (`sensitivity`, `monitor`, …) or a field beside the ones it does —
    // make one note, so `pic diff` fails wherever `pic regress` does.
    // Lines under `apps` are left to the app notes when there are any,
    // and are attributed by index only when both sides list the same
    // names in the same order.
    let by_index = old_apps
        .iter()
        .map(name_of)
        .eq(new_apps.iter().map(name_of));
    let app_notes = notes.len() > scale_notes;
    let gated = json::compare("", old, new, epsilon);
    let accounted = |d: &json::Difference| match d.path[..] {
        [Step::Key("scale")] => os != ns,
        [Step::Key("apps"), ..] => app_notes || by_index && attributed(d),
        _ => false,
    };
    let unattributed: Vec<_> = gated.iter().filter(|d| !accounted(d)).collect();
    if let Some(first) = unattributed.first() {
        notes.push(format!(
            "{} gated difference(s) outside the attributed sections, first {}",
            unattributed.len(),
            json::line(first, epsilon)
        ));
    }

    // Host stages, when both sides carry a profile: every stage whose
    // seconds moved at all, kept if beyond the host band.
    if let (Some(o @ Json::Obj(_)), Some(n @ Json::Obj(_))) =
        (old.get("host_profile"), new.get("host_profile"))
    {
        for (stage, a, b) in moved(Some(o), Some(n), &["stages"], 0.0) {
            if (a - b).abs() > HOST_BAND * a.abs().max(b.abs()) {
                let entry = DeltaEntry::new("", "host-stage", "", (stage, a, b));
                report.host.push(entry);
            }
        }
    }

    // Most-regressing first: simulated time ranks by signed delta
    // (growth is a regression), bytes by magnitude.
    report.time.sort_by(|a, b| b.delta().total_cmp(&a.delta()));
    let by_size = |a: &DeltaEntry, b: &DeltaEntry| b.delta().abs().total_cmp(&a.delta().abs());
    report.bytes.sort_by(by_size);
    report.host.sort_by(by_size);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{report as perf, ExperimentCtx};
    use crate::json;

    fn linsolve_doc() -> String {
        let ctx = ExperimentCtx { scale: 0.01 };
        let runs = perf::collect(&ctx, &["linsolve"]).unwrap();
        perf::bench_json(&ctx, &runs, &[], None, None)
    }

    /// Navigate a mutable path; numeric segments index arrays.
    fn at<'j>(doc: &'j mut Json, path: &[&str]) -> &'j mut Json {
        let mut cur = doc;
        for seg in path {
            cur = match cur {
                Json::Obj(fields) => {
                    &mut fields
                        .iter_mut()
                        .find(|(k, _)| k == seg)
                        .unwrap_or_else(|| panic!("no key '{seg}'"))
                        .1
                }
                Json::Arr(items) => &mut items[seg.parse::<usize>().expect("index")],
                other => panic!("cannot descend into {other:?} at '{seg}'"),
            };
        }
        cur
    }

    fn set_num(doc: &mut Json, path: &[&str], f: impl Fn(f64) -> f64) {
        let v = at(doc, path);
        let Json::Num(n, raw) = v else {
            panic!("not a number at {path:?}")
        };
        *n = f(*n);
        *raw = format!("{n}");
    }

    /// Two same-seed runs attribute nothing: every simulated quantity is
    /// deterministic, and only `host_*` wall-clock differs.
    #[test]
    fn same_seed_runs_attribute_zero_delta() {
        let old = json::parse(&linsolve_doc()).unwrap();
        let new = json::parse(&linsolve_doc()).unwrap();
        let report = diff_docs(&old, &new, 1e-9).unwrap();
        assert!(report.is_empty(), "unexpected attribution: {report:?}");
        assert!(report.render(0).contains("no attributed deltas"));
        assert!(report.to_json().contains("\"attributed\": false"));
    }

    /// A perturbed run ranks the perturbed segment and traffic class
    /// first: doubling the pic shuffle-rack bytes tops the byte table,
    /// and the largest injected time delta tops the segment table.
    #[test]
    fn perturbed_run_ranks_injected_segment_first() {
        let old = json::parse(&linsolve_doc()).unwrap();
        let mut new = old.clone();

        set_num(
            &mut new,
            &["apps", "0", "pic", "class_bytes", "shuffle-rack"],
            |v| v * 2.0,
        );
        // Grow one pic phase a lot and one ic critical-path category a
        // little; ranking must put the bigger regression first.
        set_num(
            &mut new,
            &["apps", "0", "pic", "phases", "topoff", "total_s"],
            |v| v + 50.0,
        );
        set_num(
            &mut new,
            &["apps", "0", "ic", "critical_path", "by_cat_s", "task"],
            |v| v + 5.0,
        );

        let report = diff_docs(&old, &new, 1e-9).unwrap();
        assert!(!report.is_empty());

        let top = &report.time[0];
        assert_eq!(
            (
                top.app.as_str(),
                top.side.as_str(),
                top.axis,
                top.label.as_str()
            ),
            ("linsolve", "pic", "phase", "topoff"),
            "biggest time regression first: {:?}",
            report.time
        );
        assert!((top.delta() - 50.0).abs() < 1e-6);
        assert_eq!(report.time[1].label, "task");

        let top_bytes = &report.bytes[0];
        assert_eq!(
            (top_bytes.side.as_str(), top_bytes.label.as_str()),
            ("pic", "shuffle-rack"),
            "perturbed traffic class first: {:?}",
            report.bytes
        );
        assert_eq!(top_bytes.new, top_bytes.old * 2.0);

        let rendered = report.render(5);
        assert!(rendered.contains("phase:topoff"), "{rendered}");
        assert!(rendered.contains("shuffle-rack"), "{rendered}");
        let json_doc = report.to_json();
        assert!(json_doc.contains("\"attributed\": true"));
        // The machine-readable output parses with our own parser.
        assert!(json::parse(&json_doc).is_ok());
    }

    /// Quality-curve perturbation reports the first diverging point.
    #[test]
    fn quality_divergence_reports_first_moved_point() {
        let old = json::parse(&linsolve_doc()).unwrap();
        let mut new = old.clone();
        set_num(
            &mut new,
            &["apps", "0", "quality", "pic_curve", "2", "err"],
            |v| v + 1.0,
        );
        let report = diff_docs(&old, &new, 1e-9).unwrap();
        assert_eq!(report.divergence.len(), 1, "{:?}", report.divergence);
        let d = &report.divergence[0];
        assert_eq!(
            (d.app.as_str(), d.driver.as_str(), d.index),
            ("linsolve", "pic", 2)
        );
        assert!((d.new_err - d.old_err - 1.0).abs() < 1e-9);
    }

    /// Host-stage deltas surface only when both sides carry profiles,
    /// and never make an otherwise-clean diff non-empty.
    #[test]
    fn host_stage_deltas_are_informational() {
        let mk = |map_s: f64| {
            format!(
                r#"{{"scale": 1, "apps": [], "host_profile": {{"total_s": {t}, "stages": {{"map": {{"calls": 4, "bytes": 64, "total_s": {map_s}, "share": 1.0}}}}}}}}"#,
                t = map_s,
                map_s = map_s
            )
        };
        let old = json::parse(&mk(1.0)).unwrap();
        let new = json::parse(&mk(2.0)).unwrap();
        let report = diff_docs(&old, &new, 1e-9).unwrap();
        assert!(report.is_empty(), "host deltas must not attribute");
        assert_eq!(report.host.len(), 1);
        assert_eq!(report.host[0].label, "map");
        assert!(report.render(0).contains("host-stage wall-clock moved"));

        // One side null → no host attribution, no error.
        let null_side = json::parse(r#"{"scale": 1, "apps": [], "host_profile": null}"#).unwrap();
        let report = diff_docs(&null_side, &new, 1e-9).unwrap();
        assert!(report.host.is_empty());

        // Jitter inside the 5% band stays quiet.
        let close = json::parse(&mk(1.03)).unwrap();
        let report = diff_docs(&old, &close, 1e-9).unwrap();
        assert!(report.host.is_empty(), "{:?}", report.host);
    }

    /// Structural mismatches (missing app, scale mismatch) are notes,
    /// which count as attribution but don't crash the differ.
    #[test]
    fn structural_mismatches_become_notes() {
        let a = json::parse(r#"{"scale": 1, "apps": [{"app": "kmeans"}]}"#).unwrap();
        let b = json::parse(r#"{"scale": 2, "apps": []}"#).unwrap();
        let report = diff_docs(&a, &b, 1e-9).unwrap();
        assert!(!report.is_empty());
        assert_eq!(report.notes.len(), 2, "{:?}", report.notes);
        assert!(diff_docs(&Json::Null, &b, 1e-9).is_err());
        // An entry without an `app` name is a note naming its index, on
        // either side.
        let d = json::parse(r#"{"scale": 0.05, "apps": [{"ic_total_s": 5}]}"#).unwrap();
        let e = json::parse(r#"{"scale": 0.05, "apps": []}"#).unwrap();
        for (old, new, note) in [
            (&d, &e, "baseline app 0 has no 'app' name"),
            (&e, &d, "fresh app 0 has no 'app' name"),
        ] {
            let report = diff_docs(old, new, 1e-9).unwrap();
            assert_eq!(report.notes, [note]);
        }
        // A name listed twice is a note naming the name, side and count,
        // even when its first entry matches the other side exactly.
        let once =
            json::parse(r#"{"scale":0.05,"apps":[{"app":"kmeans","ic_total_s":1}]}"#).unwrap();
        let twice = json::parse(
            r#"{"scale":0.05,"apps":[{"app":"kmeans","ic_total_s":1},{"app":"kmeans","ic_total_s":9}]}"#,
        )
        .unwrap();
        for (old, new, note) in [
            (
                &once,
                &twice,
                "app 'kmeans' appears 2 times in the fresh report",
            ),
            (
                &twice,
                &once,
                "app 'kmeans' appears 2 times in the baseline report",
            ),
        ] {
            let report = diff_docs(old, new, 1e-9).unwrap();
            assert_eq!(report.notes, [note]);
            assert!(!report.is_empty());
        }
    }

    /// Drift only in a section the attribution does not walk is still a
    /// note — one, naming the count and the first path — so `pic diff`
    /// fails where the gate fails.
    #[test]
    fn drift_outside_the_attributed_sections_is_a_note() {
        let old = json::parse(&linsolve_doc()).unwrap();
        let mut new = old.clone();
        let path = [
            "apps",
            "0",
            "sensitivity",
            "pic",
            "scenarios",
            "0",
            "delta_makespan_s",
        ];
        set_num(&mut new, &path, |v| v + 1.0);
        assert_eq!(json::diff(&old, &new, json::EPSILON).len(), 1);
        let report = diff_docs(&old, &new, json::EPSILON).unwrap();
        assert!(report.time.is_empty() && report.bytes.is_empty() && report.divergence.is_empty());
        assert_eq!(report.notes.len(), 1, "{:?}", report.notes);
        let note = &report.notes[0];
        assert!(
            note.starts_with(
                "1 gated difference(s) outside the attributed sections, \
                 first $.apps[0].sensitivity.pic.scenarios[0].delta_makespan_s: "
            ),
            "{note}"
        );
        assert!(!report.is_empty());
        assert!(report.render(0).contains(note.as_str()));

        // A field beside the attributed ones counts too; a second line
        // only moves the count.
        set_num(
            &mut new,
            &["apps", "0", "pic", "phases", "driver", "p50_s"],
            |v| v + 1.0,
        );
        let report = diff_docs(&old, &new, json::EPSILON).unwrap();
        assert!(report.time.is_empty(), "{:?}", report.time);
        assert_eq!(report.notes.len(), 1, "{:?}", report.notes);
        assert!(report.notes[0].starts_with("2 gated difference(s)"));
    }

    /// Notes and labels come from the documents' own strings; the JSON
    /// document escapes them and parses back to the same text.
    #[test]
    fn notes_and_labels_round_trip_through_the_json_document() {
        let a = json::parse(
            r#"{"scale": 1, "apps": [{"app": "x\\y"}, {"app": "k", "ic": {"class_bytes": {"q\"uote": 1}}}]}"#,
        )
        .unwrap();
        let b = json::parse(
            r#"{"scale": 1, "apps": [{"app": "k", "ic": {"class_bytes": {"q\"uote": 2}}}]}"#,
        )
        .unwrap();
        let report = diff_docs(&a, &b, json::EPSILON).unwrap();
        let doc = json::parse(&report.to_json()).expect("to_json writes valid JSON");
        let Some(Json::Arr(notes)) = doc.get("notes") else {
            panic!("no notes array: {doc:?}");
        };
        assert_eq!(
            notes[0].as_str(),
            Some("app 'x\\y' missing from fresh report")
        );
        let Some(Json::Arr(bytes)) = doc.get("byte_deltas") else {
            panic!("no byte_deltas array: {doc:?}");
        };
        assert_eq!(
            bytes[0].get("label").and_then(Json::as_str),
            Some("q\"uote")
        );
    }

    /// The gate and the attribution are two views of one comparison: for
    /// every number `diff_docs` attributes, nudged by one ulp or by +1.0,
    /// `json::diff` passes exactly when `diff_docs` attributes nothing.
    #[test]
    fn gate_and_attribution_agree_on_every_attributed_number() {
        fn numbers(v: &Json, path: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
            let mut descend = |seg: String, v: &Json| {
                path.push(seg);
                numbers(v, path, out);
                path.pop();
            };
            match v {
                Json::Num(..) => out.push(path.clone()),
                Json::Obj(fields) => fields.iter().for_each(|(k, v)| descend(k.clone(), v)),
                Json::Arr(items) => items
                    .iter()
                    .enumerate()
                    .for_each(|(i, v)| descend(i.to_string(), v)),
                _ => {}
            }
        }
        let old = json::parse(&linsolve_doc()).unwrap();
        let mut paths = Vec::new();
        numbers(&old, &mut Vec::new(), &mut paths);
        paths.retain(|p| {
            let p: Vec<&str> = p.iter().map(String::as_str).collect();
            matches!(
                p[..],
                ["apps", _, "ic_total_s" | "pic_total_s"]
                    | ["apps", _, "ic" | "pic", "critical_path", "by_cat_s", _]
                    | ["apps", _, "ic" | "pic", "phases", _, "total_s"]
                    | ["apps", _, "ic" | "pic", "class_bytes", _]
                    | ["apps", _, "quality", "ic_curve" | "pic_curve", _, _]
            )
        });
        assert!(paths.len() > 20, "{paths:?}");

        let mut new = old.clone();
        for path in &paths {
            let path: Vec<&str> = path.iter().map(String::as_str).collect();
            let original = at(&mut new, &path).clone();
            for nudge in [f64::next_up, |v: f64| v + 1.0] {
                set_num(&mut new, &path, nudge);
                let gate_passes = json::diff(&old, &new, json::EPSILON).is_empty();
                let report = diff_docs(&old, &new, json::EPSILON).unwrap();
                assert_eq!(
                    gate_passes,
                    report.is_empty(),
                    "{path:?}: gate {gate_passes}, attribution {report:?}"
                );
                *at(&mut new, &path) = original.clone();
            }
            // The key repeated beside itself: `Json::get` would read the
            // first field and the gate's walk both, so the text is refused.
            let (key, parent) = path.split_last().expect("a path ends in its key");
            let mut twice = new.clone();
            let Json::Obj(fields) = at(&mut twice, parent) else {
                panic!("{path:?}: the parent is an object")
            };
            let i = fields.iter().position(|(k, _)| k == key).unwrap();
            fields.insert(i + 1, fields[i].clone());
            let err = json::parse(&render(&twice)).unwrap_err();
            assert!(
                err.starts_with(&format!("repeated key {key:?} at byte ")),
                "{err}"
            );
        }
    }

    /// `v` as compact JSON text, numbers by their raw literals.
    fn render(v: &Json) -> String {
        let join = |parts: Vec<String>| parts.join(",");
        match v {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Num(_, raw) => raw.clone(),
            Json::Str(s) => json_string(s),
            Json::Arr(items) => format!("[{}]", join(items.iter().map(render).collect())),
            Json::Obj(fields) => {
                let fields = fields
                    .iter()
                    .map(|(k, v)| format!("{}:{}", json_string(k), render(v)));
                format!("{{{}}}", join(fields.collect()))
            }
        }
    }

    /// A key on one side only whose number equals the other side's 0 is
    /// no delta: it is the gate-walk note, so the report still fails as
    /// `pic regress` does but ranks no "0 0 +0" row.
    #[test]
    fn a_presence_change_at_an_equal_number_is_the_gate_note() {
        let doc = |ic: &str| {
            let text = format!(r#"{{"scale": 0.05, "apps": [{{"app": "kmeans", {ic}}}]}}"#);
            json::parse(&text).unwrap()
        };
        let cases = [
            (
                r#""ic": {"class_bytes": {"merge": 0}}"#,
                r#""ic": {"class_bytes": {}}"#,
            ),
            (
                r#""ic": {"phases": {"merge": {"total_s": 0}}}"#,
                r#""ic": {"phases": {}}"#,
            ),
            (r#""ic_total_s": 0"#, r#""pic_total_s": 0"#),
        ];
        for (a, b) in cases {
            for (old, new) in [(doc(a), doc(b)), (doc(b), doc(a))] {
                let report = diff_docs(&old, &new, json::EPSILON).unwrap();
                assert!(
                    report.time.is_empty() && report.bytes.is_empty(),
                    "{report:?}"
                );
                let gated = json::diff(&old, &new, json::EPSILON);
                let note = format!(
                    "{} gated difference(s) outside the attributed sections, first {}",
                    gated.len(),
                    gated[0]
                );
                assert_eq!(report.notes, [note], "{a} / {b}");
            }
        }
        // A number that does move is still a ranked delta.
        let (old, new) = (
            doc(r#""ic": {"class_bytes": {"merge": 7}}"#),
            doc(r#""ic": {"class_bytes": {}}"#),
        );
        let report = diff_docs(&old, &new, json::EPSILON).unwrap();
        assert_eq!(
            (report.bytes.len(), report.notes.len()),
            (1, 0),
            "{report:?}"
        );
        assert_eq!((report.bytes[0].old, report.bytes[0].new), (7.0, 0.0));
    }
}
