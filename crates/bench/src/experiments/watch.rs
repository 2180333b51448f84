//! The `pic watch` pipeline: replay recorded runs through the run
//! monitor (DESIGN.md §16) and render the dashboard plus the one
//! machine-readable export, the full monitor JSON document for the five
//! apps × ic/pic.
//!
//! Everything here is pure trace post-processing: the monitor's series
//! live on the simulated clock, so the document is byte-identical across
//! rayon pool widths (pinned by `tests/cli_watch.rs`).

use super::report::AppRun;
use pic_simnet::monitor::WINDOW_S;
use pic_simnet::report::{fmt_f64, JsonWriter};
use pic_simnet::MonitorReport;
use std::fmt::Write as _;

/// One app's pair of monitor reports, IC vs PIC.
#[derive(Debug)]
pub struct WatchSection {
    /// Application name.
    pub app: &'static str,
    /// Which paper experiment the configuration mirrors.
    pub experiment: &'static str,
    /// Monitor replay of the IC baseline trace.
    pub ic: MonitorReport,
    /// Monitor replay of the PIC trace.
    pub pic: MonitorReport,
}

/// Replay every collected run through the monitor — the replay the
/// BENCH `monitor` section reads ([`AppRun::ic_monitor`]). A run too
/// long for the monitor's bucket grid is refused, naming its app.
pub fn sections(runs: &[AppRun]) -> Result<Vec<WatchSection>, String> {
    runs.iter()
        .map(|run| {
            let named = |e: String| format!("{}: {e}", run.app);
            Ok(WatchSection {
                app: run.app,
                experiment: run.experiment,
                ic: run.ic_monitor().map_err(named)?,
                pic: run.pic_monitor().map_err(named)?,
            })
        })
        .collect()
}

/// Render one app's dashboard: the final panel per side, `width`
/// sparkline cells per series.
pub fn render_section(s: &WatchSection, width: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== {} ({}) — online monitor, window {} s ===",
        s.app,
        s.experiment,
        fmt_f64(WINDOW_S)
    );
    for (side, r) in [("ic", &s.ic), ("pic", &s.pic)] {
        let _ = writeln!(out, "\n--- {side} ---");
        let _ = write!(out, "{}", r.render(width));
    }
    out
}

/// The `pic watch --json` document: suite header and the full monitor
/// report (every series and the incident log) per app and side.
pub fn watch_json(scale: f64, sections: &[WatchSection]) -> String {
    let doc = JsonWriter::document(0, |w| {
        w.field_str("suite", "pic-watch");
        w.field("scale", &fmt_f64(scale));
        w.objects("apps", sections, |w, s| {
            w.field_str("app", s.app);
            w.field_str("experiment", s.experiment);
            w.object("ic", |w| s.ic.write_json(w));
            w.object("pic", |w| s.pic.write_json(w));
        });
    });
    doc + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{report as perf, ExperimentCtx};

    fn small_sections(app: &str) -> Vec<WatchSection> {
        let ctx = ExperimentCtx { scale: 0.01 };
        sections(&perf::collect(&ctx, &[app]).unwrap()).unwrap()
    }

    #[test]
    fn watch_renders_dashboard_and_exports() {
        let secs = small_sections("linsolve");
        assert_eq!(secs.len(), 1);
        let s = &secs[0];

        // Final dashboard per side, with every series row present.
        let text = render_section(s, 48);
        assert!(text.contains("=== linsolve"), "{text}");
        assert!(text.contains("--- ic ---") && text.contains("--- pic ---"));
        for row in ["quality-rate", "queue-depth", "recovery-rate"] {
            assert!(text.contains(row), "'{row}' missing from:\n{text}");
        }
        assert!(!text.contains("util:"), "no per-link rows:\n{text}");
        // Every sparkline starts in one column, whatever its label's length.
        let bars: Vec<usize> = text.lines().filter_map(|l| l.find('|')).collect();
        assert_eq!(bars.len(), 6, "{text}");
        assert!(
            bars.iter().all(|&c| c == bars[0]),
            "misaligned rows:\n{text}"
        );

        // JSON carries the suite header and both sides.
        let doc = watch_json(0.01, &secs);
        assert!(doc.starts_with("{\n  \"suite\": \"pic-watch\",\n"));
        assert!(doc.contains("\"ic\": {") && doc.contains("\"pic\": {"));
        crate::json::parse(&doc).expect("watch --json must be valid JSON");
    }

    /// The JSON document is the monitor's whole machine-readable record:
    /// the per-run scalars and every incident's seven columns, per app
    /// and side (incidents per rule are a count over the `incidents`
    /// array). The fixed window, bucket and rule catalog are not
    /// exported, and there are no per-wave or per-link rows.
    #[test]
    fn watch_json_carries_every_exported_value() {
        use crate::json::Json;
        // K-means stalls, so the per-incident check is not vacuous.
        let doc = watch_json(0.01, &small_sections("kmeans"));
        let doc = crate::json::parse(&doc).unwrap();
        for key in ["window_s", "rules", "bucket_s"] {
            assert!(doc.get(key).is_none(), "{key} is a constant");
        }
        let Some(Json::Arr(apps)) = doc.get("apps") else {
            panic!("apps is an array")
        };
        let mut incidents = 0;
        for app in apps {
            for side in ["ic", "pic"] {
                let r = app.get(side).unwrap();
                for key in ["waves", "window_s", "bucket_s", "links"] {
                    assert!(r.get(key).is_none(), "{side}.{key}");
                }
                for key in [
                    "quality_samples",
                    "peak_depth",
                    "recovery_bytes_total",
                    "incident_s",
                ] {
                    assert!(r.get(key).unwrap().as_f64().is_some(), "{side}.{key}");
                }
                let Some(Json::Arr(log)) = r.get("incidents") else {
                    panic!("{side}: incidents is an array")
                };
                for inc in log {
                    let Json::Obj(fields) = inc else {
                        panic!("an incident is an object")
                    };
                    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                    assert_eq!(
                        keys,
                        ["rule", "severity", "series", "open_s", "close_s", "peak", "span"]
                    );
                }
                incidents += log.len();
            }
        }
        assert!(incidents > 0, "no incident to check");
    }
}
