//! The `pic watch` pipeline: replay recorded runs through the run
//! monitor (DESIGN.md §16) and render the dashboard plus the one
//! machine-readable export, the full monitor JSON document for the five
//! apps × ic/pic.
//!
//! Everything here is pure trace post-processing: the monitor's series
//! live on the simulated clock, so the document is byte-identical across
//! rayon pool widths (pinned by `tests/cli_watch.rs`).

use super::report::AppRun;
use crate::cli::Matches;
use pic_simnet::monitor::{Rule, MAX_BUCKETS};
use pic_simnet::report::{fmt_f64, JsonWriter};
use pic_simnet::{Monitor, MonitorConfig, MonitorReport};
use std::fmt::Write as _;

/// How `pic watch` replays a run — the parsed flag set.
#[derive(Debug, Clone)]
pub struct WatchOptions {
    /// Sliding-window length, simulated seconds (`--window`).
    pub window_s: f64,
    /// Alert rules to evaluate (`--rules`, default the full catalog).
    pub rules: Vec<Rule>,
    /// Dashboard frame spacing, simulated seconds (`--interval`);
    /// `0` renders only the final frame.
    pub interval_s: f64,
    /// Sparkline cells per series (`--width`).
    pub width: usize,
}

impl WatchOptions {
    /// The options a parsed `pic watch` argv sets; the command table
    /// states every default.
    pub fn from_matches(m: &Matches) -> WatchOptions {
        // The table validated every `--rules` name against
        // `CATALOG_RULES`, the names of `Rule::ALL`.
        let rule = |name: &str| {
            Rule::ALL
                .into_iter()
                .find(|r| r.name() == name)
                .expect("a rule")
        };
        WatchOptions {
            window_s: m.num("--window"),
            rules: m.names("--rules").into_iter().map(rule).collect(),
            interval_s: m.num("--interval"),
            width: m.num("--width"),
        }
    }
}

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

fn cfg_for(run: &AppRun, opts: &WatchOptions) -> MonitorConfig {
    let mut cfg = MonitorConfig::new(run.spec.clone());
    cfg.window_s = opts.window_s;
    cfg.rules = opts.rules.clone();
    cfg
}

/// Replay every collected run through the monitor with the given
/// options. Errors carry the monitor's pinned validation messages.
pub fn sections(runs: &[AppRun], opts: &WatchOptions) -> Result<Vec<WatchSection>, String> {
    runs.iter()
        .map(|run| {
            // The monitor refuses a window finer than its bucket limit;
            // name the app before any replay starts.
            let buckets = run.ic_time_s.max(run.pic_time_s) / cfg_for(run, opts).bucket_s();
            if buckets > MAX_BUCKETS {
                let (window, app) = (opts.window_s, run.app);
                return Err(format!(
                    "--window {window:e} s is too fine for {app}: {buckets:.1e} buckets, limit {MAX_BUCKETS}"
                ));
            }
            let ic = Monitor::replay(cfg_for(run, opts), &run.ic_trace)?;
            let pic = Monitor::replay(cfg_for(run, opts), &run.pic_trace)?;
            Ok(WatchSection {
                app: run.app,
                experiment: run.experiment,
                ic,
                pic,
            })
        })
        .collect()
}

/// Intermediate frames never flood the terminal: a tiny `--interval`
/// against a long horizon strides up so at most this many frames print
/// per side (the final full dashboard always follows).
pub const MAX_FRAMES: usize = 24;

/// Render one app's dashboard: optional intermediate frames every
/// `interval_s` simulated seconds, then the final panel per side.
pub fn render_section(s: &WatchSection, opts: &WatchOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== {} ({}) — online monitor, window {} s ===",
        s.app,
        s.experiment,
        fmt_f64(opts.window_s)
    );
    for (side, r) in [("ic", &s.ic), ("pic", &s.pic)] {
        let _ = writeln!(out, "\n--- {side} ---");
        if opts.interval_s > 0.0 && r.horizon_s > 0.0 {
            // The frame count saturates for a tiny interval, so the
            // frame index, not the time, bounds the loop.
            let frames = (r.horizon_s / opts.interval_s).ceil() as usize;
            let stride = frames.div_ceil(MAX_FRAMES).max(1);
            for j in 1..=MAX_FRAMES {
                let t = j.saturating_mul(stride) as f64 * opts.interval_s;
                if t >= r.horizon_s {
                    break;
                }
                let _ = write!(out, "{}", r.render_at(t, opts.width));
            }
        }
        let _ = write!(out, "{}", r.render(opts.width));
    }
    out
}

/// The `pic watch --json` document: suite header, the rule set in
/// force, and the full monitor report (every series, waves, incident
/// log) per app and side.
pub fn watch_json(scale: f64, opts: &WatchOptions, sections: &[WatchSection]) -> String {
    let rules: Vec<String> = opts
        .rules
        .iter()
        .map(|r| format!("\"{}\"", r.name()))
        .collect();
    let doc = JsonWriter::document(0, |w| {
        w.field_str("suite", "pic-watch");
        w.field("scale", &fmt_f64(scale));
        w.field("window_s", &fmt_f64(opts.window_s));
        w.field("rules", &format!("[{}]", rules.join(", ")));
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

    /// The options `pic watch <flags>` sets.
    fn watch_opts(flags: &[&str]) -> WatchOptions {
        let watch = crate::cli::COMMANDS.iter().find(|c| c.name == "watch");
        let argv: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
        WatchOptions::from_matches(&crate::cli::parse(&argv, watch.unwrap()).unwrap())
    }

    fn small_sections(opts: &WatchOptions) -> Vec<WatchSection> {
        let ctx = ExperimentCtx { scale: 0.01 };
        let runs = perf::collect(&ctx, &["linsolve"]).unwrap();
        sections(&runs, opts).unwrap()
    }

    #[test]
    fn watch_renders_dashboard_frames_and_exports() {
        let opts = watch_opts(&[]);
        let secs = small_sections(&opts);
        assert_eq!(secs.len(), 1);
        let s = &secs[0];

        // Final dashboard per side, with every series row present.
        let text = render_section(s, &opts);
        assert!(text.contains("=== linsolve"), "{text}");
        assert!(text.contains("--- ic ---") && text.contains("--- pic ---"));
        for row in [
            "util:disk",
            "util:nic",
            "util:rack-uplink",
            "util:bisection",
            "quality-rate",
            "queue-depth",
            "recovery-rate",
        ] {
            assert!(text.contains(row), "'{row}' missing from:\n{text}");
        }
        // Every sparkline starts in one column, whatever its label's length.
        let bars: Vec<usize> = text.lines().filter_map(|l| l.find('|')).collect();
        assert_eq!(bars.len(), 14, "{text}");
        assert!(
            bars.iter().all(|&c| c == bars[0]),
            "misaligned rows:\n{text}"
        );

        // Intermediate frames appear once an interval is requested, and
        // the stride caps them at MAX_FRAMES per side.
        let framed = watch_opts(&["--interval", &(s.ic.horizon_s / 4.0).to_string()]);
        let text = render_section(s, &framed);
        let frames = text.matches("  t = ").count();
        assert!(frames >= 2, "expected intermediate frames:\n{text}");
        // Down to the smallest positive interval, where the frame count
        // saturates.
        for interval_s in [s.ic.horizon_s / 10_000.0, 1e-300, 5e-324] {
            let tiny = watch_opts(&["--interval", &interval_s.to_string()]);
            let frames = render_section(s, &tiny).matches("  t = ").count();
            assert!(frames <= 2 * MAX_FRAMES, "{interval_s}: {frames} frames");
        }

        // JSON carries the suite header, the rule set and both sides.
        let doc = watch_json(0.01, &opts, &secs);
        assert!(doc.starts_with("{\n  \"suite\": \"pic-watch\",\n"));
        assert!(
            doc.contains("\"rules\": [\"stall\", \"divergence\""),
            "{doc}"
        );
        assert!(doc.contains("\"ic\": {") && doc.contains("\"pic\": {"));
        crate::json::parse(&doc).expect("watch --json must be valid JSON");
    }

    /// The JSON document is the monitor's whole machine-readable record:
    /// per-link byte totals and peaks, the per-run scalars and every
    /// incident's seven columns, per app and side (incidents per rule
    /// are a count over the `incidents` array).
    #[test]
    fn watch_json_carries_every_exported_value() {
        use crate::json::Json;
        // A window far shorter than linsolve's quality gaps opens stall
        // incidents, so the per-incident check is not vacuous.
        let opts = watch_opts(&["--window", "0.5"]);
        let doc = watch_json(0.01, &opts, &small_sections(&opts));
        let doc = crate::json::parse(&doc).unwrap();
        let Some(Json::Arr(apps)) = doc.get("apps") else {
            panic!("apps is an array")
        };
        let mut incidents = 0;
        for app in apps {
            for side in ["ic", "pic"] {
                let r = app.get(side).unwrap();
                let Some(Json::Obj(links)) = r.get("links") else {
                    panic!("{side}: links is an object")
                };
                assert_eq!(links.len(), 4, "{side}");
                for (link, series) in links {
                    for key in ["total_bytes", "peak_util"] {
                        assert!(series.get(key).unwrap().as_f64().is_some(), "{link}.{key}");
                    }
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

    #[test]
    fn frame_view_matches_the_final_dashboard_at_the_horizon() {
        let opts = watch_opts(&[]);
        let secs = small_sections(&opts);
        let r = &secs[0].pic;
        // Beyond the horizon every series is fully visible, so the frame
        // rows equal the final dashboard rows exactly.
        let full = r.rows_at(f64::INFINITY, 32);
        assert_eq!(r.rows_at(r.horizon_s + 1.0, 32), full);
        // An early frame shows no more buckets than the full view.
        let early = r.rows_at(r.horizon_s / 3.0, 32);
        assert_eq!(early.len(), full.len());
    }
}
