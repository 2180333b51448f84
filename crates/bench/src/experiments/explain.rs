//! The `pic explain` pipeline: counterfactual bottleneck attribution
//! for the IC and PIC runs of each app (DESIGN.md §15).
//!
//! [`crate::experiments::report::collect`] produces the recorded runs;
//! this module projects the scenario catalog over both traces with
//! [`pic_simnet::whatif`] and renders the result as an IC-vs-PIC
//! side-by-side terminal table and a deterministic JSON document
//! (byte-identical across rayon pool widths — everything is a pure
//! function of the simulated traces).
//! `pic regress` writes the ranked tables as `explain.csv` beside `--out`.

use super::report::AppRun;
use super::ExperimentCtx;
use crate::table::csv_doc;
use pic_simnet::report::{fmt_f64, Column, JsonWriter};
use pic_simnet::whatif::{Scenario, SensitivityReport, CATALOG};
use std::fmt::Write as _;

/// Both sides' ranked sensitivity tables for one app.
#[derive(Debug, Clone)]
pub struct ExplainSection {
    /// Application name.
    pub app: String,
    /// The IC baseline run's table.
    pub ic: SensitivityReport,
    /// The PIC run's table.
    pub pic: SensitivityReport,
}

/// Project `scenarios` over one side of a collected run (`"ic"` or
/// `"pic"`), feeding that side's quality curve so time-to-quality
/// projections ride along.
pub fn sensitivity(run: &AppRun, side: &str, scenarios: &[Scenario]) -> Option<SensitivityReport> {
    let (trace, curve) = match side {
        "ic" => (&run.ic_trace, &run.quality.ic_curve),
        "pic" => (&run.pic_trace, &run.quality.pic_curve),
        _ => return None,
    };
    SensitivityReport::from_trace(trace, curve, scenarios)
}

/// The explain sections of every collected run: the [`CATALOG`] tables
/// each run derived when it was collected.
///
/// # Panics
/// Panics if `scenarios` is not [`CATALOG`]: every caller passes it, and
/// the parameter stays only because the benchmark harness calls this.
pub fn sections(runs: &[AppRun], scenarios: &[Scenario]) -> Vec<ExplainSection> {
    assert_eq!(
        scenarios, CATALOG,
        "a collected run stores the catalog only"
    );
    runs.iter()
        .map(|run| ExplainSection {
            app: run.app.to_string(),
            ic: run.ic_sensitivity().clone(),
            pic: run.pic_sensitivity().clone(),
        })
        .collect()
}

/// IC-vs-PIC side-by-side table for one app, every scenario, rows in
/// IC rank order. "PIC's win is X straggler relief, Y merge and
/// top-off" read straight off the Δ columns.
pub fn render_side_by_side(section: &ExplainSection) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== {} — bottleneck attribution (baseline IC {:.6} s, PIC {:.6} s) ===",
        section.app, section.ic.baseline_makespan_s, section.pic.baseline_makespan_s
    );
    let _ = writeln!(
        out,
        "  {:<24} {:>15} {:>15} {:>12} {:>12}",
        "scenario", "IC Δmakespan(s)", "PIC Δmakespan(s)", "IC Δtt10(s)", "PIC Δtt10(s)"
    );
    let dtt10 = |report: &SensitivityReport, name: &str| -> String {
        report
            .rows
            .iter()
            .find(|r| r.scenario.name == name)
            .and_then(|r| {
                r.delta_tt_s
                    .iter()
                    .find(|(l, _)| *l == "10pct")
                    .and_then(|(_, v)| *v)
            })
            .map_or("-".to_string(), |v| format!("{v:.6}"))
    };
    for row in &section.ic.rows {
        let name = row.scenario.name;
        let pic_row = section.pic.rows.iter().find(|r| r.scenario.name == name);
        let _ = writeln!(
            out,
            "  {:<24} {:>15.6} {:>15} {:>12} {:>12}",
            name,
            row.delta_makespan_s,
            pic_row.map_or("-".to_string(), |r| format!("{:.6}", r.delta_makespan_s)),
            dtt10(&section.ic, name),
            dtt10(&section.pic, name),
        );
    }
    out
}

/// The deterministic `pic explain --json` document: scale, then one
/// entry per app with both sides' full tables (phase breakdowns
/// included). Byte-identical across rayon pool widths.
pub fn explain_json(ctx: &ExperimentCtx, sections: &[ExplainSection]) -> String {
    let doc = JsonWriter::document(0, |w| {
        w.field_str("suite", "pic-explain");
        w.field("scale", &fmt_f64(ctx.scale));
        w.objects("apps", sections, |w, s| {
            w.field_str("app", &s.app);
            w.object("ic", |w| s.ic.write_json(w, true));
            w.object("pic", |w| s.pic.write_json(w, true));
        });
    });
    doc + "\n"
}

/// The [`pic_simnet::Projection::columns`] `explain.csv` keeps, in its
/// order (after the `app,side,rank` prefix).
const CSV_COLUMNS: [&str; 5] = [
    "scenario",
    "projected_makespan_s",
    "delta_makespan_s",
    "tt_10pct_s",
    "delta_tt_10pct_s",
];

/// The ranked-table CSV artifact, both sides of every app.
pub fn explain_csv(sections: &[ExplainSection]) -> String {
    let sides = sections
        .iter()
        .flat_map(|s| [("ic", s, &s.ic), ("pic", s, &s.pic)]);
    csv_doc(sides.flat_map(|(side, s, report)| ranked_rows(report, &s.app, side)))
}

/// One row per ranked scenario: `app`, `side` and the 1-based `rank`,
/// then the projection's [`CSV_COLUMNS`], a `null` shown as `-`.
fn ranked_rows<'a>(
    report: &'a SensitivityReport,
    app: &'a str,
    side: &'a str,
) -> impl Iterator<Item = Vec<Column>> + 'a {
    report.rows.iter().enumerate().map(move |(i, projection)| {
        let columns = projection.columns();
        let pick = |key| match columns.iter().find(|c| c.key() == key) {
            Some(c) if c.value() == "null" => Column::text(key, "-"),
            c => c.expect("a CSV column is a projection column").clone(),
        };
        let mut row = vec![
            Column::text("app", app),
            Column::text("side", side),
            Column::num("rank", i + 1),
        ];
        row.extend(CSV_COLUMNS.map(pick));
        row
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::report::collect;
    use crate::json;
    use pic_simnet::Tracer;

    fn kmeans_sections() -> Vec<ExplainSection> {
        let runs = collect(&ExperimentCtx { scale: 0.01 }, &["kmeans"]).unwrap();
        sections(&runs, &CATALOG)
    }

    /// The catalog tables a run stored when it was collected are the
    /// ones a fresh projection derives.
    #[test]
    fn stored_catalog_tables_match_a_fresh_projection() {
        let runs = collect(&ExperimentCtx { scale: 0.01 }, &["linsolve"]).unwrap();
        let run = &runs[0];
        assert_eq!(
            sensitivity(run, "ic", &CATALOG).as_ref(),
            Some(run.ic_sensitivity())
        );
        assert_eq!(
            sensitivity(run, "pic", &CATALOG).as_ref(),
            Some(run.pic_sensitivity())
        );
        assert_eq!(sensitivity(run, "both", &CATALOG), None);
    }

    #[test]
    #[should_panic(expected = "stores the catalog only")]
    fn sections_refuse_another_scenario_list() {
        sections(&[], &CATALOG[..2]);
    }

    /// IC records no merge and no top-off, so deleting them cannot move
    /// it; PIC's merge and top-off windows are real time.
    #[test]
    fn instant_merge_moves_pic_and_not_ic() {
        let s = &kmeans_sections()[0];
        let delta = |report: &SensitivityReport| {
            report
                .rows
                .iter()
                .find(|r| r.scenario.name == "instant-merge")
                .expect("instant-merge in catalog")
                .delta_makespan_s
        };
        let (ic, pic) = (delta(&s.ic), delta(&s.pic));
        assert_eq!(ic, 0.0, "IC has no merge to delete");
        assert!(pic > 0.0, "PIC must project a strictly shorter makespan");
    }

    /// The side-by-side header line, pinned literally.
    #[test]
    fn side_by_side_header_is_pinned() {
        let rendered = render_side_by_side(&kmeans_sections()[0]);
        assert_eq!(
            rendered.lines().nth(1),
            Some(
                "  scenario                 IC Δmakespan(s) PIC Δmakespan(s)  IC Δtt10(s) \
                 PIC Δtt10(s)"
            )
        );
    }

    /// Each side's ranked table is one row per scenario, ranked from 1,
    /// with the projection's `CSV_COLUMNS` after the prefix and a
    /// missing time-to-quality (no curve here) shown as `-`.
    #[test]
    fn ranked_rows_cover_the_catalog() {
        let tracer = Tracer::standalone();
        let root = tracer.begin_at("root", "job", 0.0);
        tracer.span_at_in("map-slot-0", "t0", "task", 0.0, 2.0, vec![]);
        tracer.end_at(root, 10.0);
        let report = SensitivityReport::from_trace(&tracer.trace(), &[], &CATALOG).unwrap();
        let rows: Vec<Vec<Column>> = ranked_rows(&report, "kmeans", "ic").collect();
        assert_eq!(rows.len(), CATALOG.len());
        assert_eq!(rows[0][2].value(), "1");
        let picked: Vec<&str> = rows[0][3..].iter().map(Column::key).collect();
        assert_eq!(picked, CSV_COLUMNS);
        assert!(rows.iter().all(|row| row[6].value() == "-"));
        assert!(rows.iter().all(|row| row[7].value() == "-"));
    }

    /// Identity projects exactly zero delta on every reported field, and
    /// since every edit only deletes recorded time, each projection lies
    /// in `[0, baseline]` with each phase at most its recorded length.
    #[test]
    fn identity_is_exact_and_bounds_hold_on_real_runs() {
        for s in &kmeans_sections() {
            for (side, report) in [("ic", &s.ic), ("pic", &s.pic)] {
                let id = report
                    .rows
                    .iter()
                    .find(|r| r.scenario.name == "identity")
                    .unwrap();
                assert_eq!(id.delta_makespan_s, 0.0, "{side}");
                assert_eq!(id.makespan_s, report.baseline_makespan_s, "{side}");
                for (_, d) in &id.delta_tt_s {
                    assert_eq!(*d, Some(0.0), "{side}");
                }
                for row in &report.rows {
                    let name = row.scenario.name;
                    let (m, base) = (row.makespan_s, report.baseline_makespan_s);
                    assert!((0.0..=base).contains(&m), "{side}/{name}: {m} vs {base}");
                    for (key, secs) in &row.phases {
                        let recorded = id.phases[key];
                        assert!(
                            (0.0..=recorded).contains(secs),
                            "{side}/{name}/{key}: {secs} vs {recorded}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn side_by_side_and_artifacts_serialize() {
        let ctx = ExperimentCtx { scale: 0.01 };
        let secs = kmeans_sections();
        let text = render_side_by_side(&secs[0]);
        assert!(text.contains("kmeans — bottleneck attribution"));
        assert_eq!(text.lines().count(), 2 + CATALOG.len());
        for scenario in CATALOG {
            assert!(text.contains(scenario.name), "{text}");
        }

        let doc = explain_json(&ctx, &secs);
        let parsed = json::parse(&doc).unwrap();
        assert_eq!(parsed.get("scale").unwrap().as_f64(), Some(0.01));
        let apps = match parsed.get("apps").unwrap() {
            json::Json::Arr(a) => a,
            other => panic!("apps not an array: {other:?}"),
        };
        assert_eq!(apps[0].get("app").unwrap().as_str(), Some("kmeans"));
        for side in ["ic", "pic"] {
            let t = apps[0].get(side).unwrap();
            assert!(t.get("baseline_makespan_s").unwrap().as_f64().unwrap() > 0.0);
            let rows = match t.get("scenarios").unwrap() {
                json::Json::Arr(a) => a,
                other => panic!("scenarios not an array: {other:?}"),
            };
            assert_eq!(rows.len(), CATALOG.len());
            assert!(rows[0].get("phases").is_some(), "explain JSON keeps phases");
            // The terminal table omits the projected makespan; every row
            // carries it.
            for row in rows {
                assert!(row.get("projected_makespan_s").unwrap().as_f64().is_some());
            }
        }

        let csv = explain_csv(&secs);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("app,side,rank,scenario"));
        assert_eq!(csv.lines().count(), 1 + 2 * CATALOG.len());
        assert!(csv.contains("\nkmeans,ic,1,"));
        assert!(csv.contains("\nkmeans,pic,1,"));
    }
}
