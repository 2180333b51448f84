//! `suite_regress`: what every contributor and CI job waits for.
//!
//! One repetition is what the `regress` binary does at its pinned scale:
//! `report::collect` over the five apps, the 24-cell chaos campaign, the
//! tenancy section, `AppRun::validate`, `bench_json` and the five CSV
//! artifacts CI uploads, then `json::parse` of the fresh document and both
//! differs against the baseline parsed in set-up. Every layer contributes in
//! its real proportion, so any layer's gain must show here in proportion to
//! its share.
//!
//! The inputs are fixed by the program's own experiment definitions, so
//! `--seed` does not alter them: every seed measures the same suite.

use super::{RepOutcome, Workload};
use crate::record::Recorder;
use crate::stats::Digest;
use pic_bench::experiments::report::{self, AppRun};
use pic_bench::experiments::{chaos, explain, tenancy, ExperimentCtx};
use pic_bench::json::{self, Json};
use pic_simnet::report::PerfReport;
use pic_simnet::whatif::CATALOG;
use pic_simnet::{Monitor, MonitorConfig, UtilizationReport};

/// The scale `regress` pins and the committed baseline was recorded at.
const SCALE: f64 = 0.05;
/// `regress`'s relative tolerance for simulated seconds.
const EPSILON: f64 = 1e-9;
/// The committed baseline: a stand-in of the size of the fresh document.
/// Whether the fresh document still matches it is printed, not checked, so
/// that a change which regenerates it is not punished.
const BASELINE: &str = "BENCH_pic.json";

pub const SIZES: &str = "scale 0.05: collect x 5 apps, chaos campaign (3 apps x 4 scenarios x 2 \
     drivers = 24 cells), tenancy section, validate, bench_json + 5 CSVs, parse, 2 diffs \
     against BENCH_pic.json; --seed does not alter the inputs";

/// One span name per app of `report::APPS`, in that order.
const COLLECT_SPANS: [&str; 5] = [
    "bench.report.collect_kmeans_s",
    "bench.report.collect_pagerank_s",
    "bench.report.collect_neuralnet_s",
    "bench.report.collect_linsolve_s",
    "bench.report.collect_smoothing_s",
];

pub struct SuiteRegress {
    baseline: Json,
    /// The first repetition's document without its `host_` lines.
    first_document: Option<String>,
    /// The last repetition's runs, for the derivation probes.
    last_runs: Vec<AppRun>,
    last_document_bytes: usize,
    last_cells: usize,
}

pub fn setup(_seed: u64, rec: &mut Recorder) -> Result<(Box<dyn Workload>, RepOutcome), String> {
    let text = std::fs::read_to_string(BASELINE).map_err(|e| {
        format!("cannot read {BASELINE}: {e} (run the benchmark from the root of the repo)")
    })?;
    let baseline = rec
        .span("bench.json.baseline_parse_s", |_| json::parse(&text))
        .map_err(|e| format!("{BASELINE} is not valid JSON: {e}"))?;
    let workload = SuiteRegress {
        baseline,
        first_document: None,
        last_runs: Vec::new(),
        last_document_bytes: 0,
        last_cells: 0,
    };
    Ok((Box::new(workload), RepOutcome::default()))
}

/// The document without the lines that carry host wall-clock measurements.
fn strip_host_lines(document: &str) -> String {
    document
        .lines()
        .filter(|l| !l.trim_start().starts_with("\"host_"))
        .flat_map(|l| [l, "\n"])
        .collect()
}

fn cell_problem(c: &chaos::ChaosCell) -> Option<String> {
    let times_ok = c.clean_s.is_finite() && c.clean_s > 0.0 && c.faulty_s.is_finite();
    // Crash, degrade and preemption runs must converge to exactly the clean
    // answer; a resize repartitions and may legitimately differ.
    let exact_ok = c.exact_result || c.scenario == "elastic-resize";
    // The monitor is quiet on the clean run and sees every plan that fired.
    let monitor_ok = c.clean_incidents == 0 && (c.injected_events == 0 || c.incidents >= 1);
    (!(times_ok && exact_ok && monitor_ok)).then(|| {
        format!(
            "chaos cell {}/{}/{} is wrong: {c:?}",
            c.app, c.scenario, c.driver
        )
    })
}

impl Workload for SuiteRegress {
    fn rep(&mut self, rec: &mut Recorder) -> Result<RepOutcome, String> {
        let ctx = ExperimentCtx { scale: SCALE };
        // Not while the next ones are collected: peak memory must not depend
        // on how many repetitions fit the budget.
        rec.check(|| self.last_runs.clear());
        let mut runs = Vec::new();
        for (app, span) in report::APPS.iter().zip(COLLECT_SPANS) {
            runs.extend(rec.span(span, |_| report::collect(&ctx, &[*app]))?);
        }
        let cells = rec.span("bench.chaos.campaign_s", |_| {
            chaos::campaign(&ctx, &chaos::SCENARIOS)
        })?;
        let section = rec.span("bench.tenancy.section_s", |_| tenancy::section(&ctx))?;
        let violations: Vec<Vec<String>> = rec.span("simnet.trace.validate_s", |_| {
            runs.iter().map(AppRun::validate).collect()
        });
        let fresh = rec.span("bench.report.bench_json_s", |_| {
            report::bench_json(&ctx, &runs, &cells, Some(&section), None)
        });
        let csvs = rec.span("bench.report.csv_emit_s", |_| {
            [
                report::quality_csv(&runs),
                report::utilization_csv(&runs),
                chaos::chaos_csv(&cells),
                tenancy::tenancy_csv(&section.mixed),
                explain::explain_csv(&explain::sections(&runs, &CATALOG)),
            ]
        });
        let parsed = rec
            .span("bench.json.parse_s", |_| json::parse(&fresh))
            .map_err(|e| format!("bench_json emitted invalid JSON: {e}"))?;
        let diffs = rec.span("bench.json.diff_s", |_| {
            json::diff(&self.baseline, &parsed, EPSILON)
        });
        let attribution = rec.span("bench.diff.diff_docs_s", |_| {
            pic_bench::diff::diff_docs(&self.baseline, &parsed, EPSILON)
        })?;

        let mut out = RepOutcome::default();
        rec.check(|| {
            for (run, violations) in runs.iter().zip(&violations) {
                out.sim_s += run.ic_time_s + run.pic_time_s;
                out.op((!violations.is_empty())
                    .then(|| format!("{} fails validation: {violations:?}", run.app)));
            }
            for cell in &cells {
                out.sim_s += cell.clean_s + cell.faulty_s;
                out.op(cell_problem(cell));
            }
            out.sim_s += section.mixed.makespan_s;
            out.op(
                (!section.exact_models || !(section.packing_x > 0.0)).then(|| {
                    format!(
                        "tenancy section: exact_models {}, packing_x {}",
                        section.exact_models, section.packing_x
                    )
                }),
            );
            // Determinism: every repetition emits the first one's bytes.
            let document = strip_host_lines(&fresh);
            if self.first_document.is_none() {
                println!(
                    "# baseline {BASELINE}: {} (json::diff lines: {}, diff_docs empty: {})",
                    if diffs.is_empty() {
                        "matches"
                    } else {
                        "differs"
                    },
                    diffs.len(),
                    attribution.is_empty()
                );
            }
            let first = self.first_document.get_or_insert_with(|| document.clone());
            out.op((*first != document).then(|| {
                "the document differs from the first repetition's beyond its host_ lines"
                    .to_string()
            }));
            let mut d = Digest::default();
            d.bytes(document.as_bytes());
            for csv in &csvs {
                d.bytes(csv.as_bytes());
            }
            out.digest = d.finish();
        });
        self.last_document_bytes = fresh.len();
        self.last_cells = cells.len();
        self.last_runs = runs;
        Ok(out)
    }

    /// The derivations `bench_json` performs internally, one span each.
    fn layer_report(&mut self, rec: &mut Recorder) -> Result<(), String> {
        use std::hint::black_box;
        for run in &self.last_runs {
            let sides = [(&run.ic_trace, "ic"), (&run.pic_trace, "pic")];
            for (trace, side) in sides {
                rec.span("simnet.report.perf_report_s", |_| {
                    black_box(PerfReport::from_trace(trace).to_json(6));
                });
                let utilization = rec.span("simnet.timeline.utilization_s", |_| {
                    let u = UtilizationReport::from_trace(trace, &run.spec);
                    black_box(u.to_json(8));
                    u
                });
                rec.span("simnet.whatif.sensitivity_s", |_| {
                    black_box(
                        explain::sensitivity(run, side, &CATALOG).map(|s| s.to_json(8, false)),
                    );
                });
                rec.span("simnet.monitor.replay_s", |_| {
                    Monitor::replay(MonitorConfig::new(run.spec.clone()), trace)
                        .map(|m| black_box(m.to_json_summary(8)).len())
                })?;
                rec.span("simnet.trace.chrome_export_s", |_| {
                    black_box(trace.to_chrome_json_with_counters(&utilization.counter_tracks()));
                });
            }
        }
        let collect_s: f64 = COLLECT_SPANS.iter().map(|s| rec.self_seconds(s)).sum();
        rec.set("bench.report.collect_s", collect_s);
        rec.set("bench.chaos.cells", self.last_cells as f64);
        rec.set(
            "bench.report.bench_json_bytes",
            self.last_document_bytes as f64,
        );
        rec.set(
            "bench.json.parse_mb_per_s",
            self.last_document_bytes as f64 * 1e-6 / rec.self_seconds("bench.json.parse_s"),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_lines_are_stripped_and_nothing_else() {
        let doc = "{\n  \"scale\": 0.05,\n  \"host_profile\": null,\n      \"host_elapsed_s\": 1.5,\n  \"ghost_s\": 2\n}\n";
        assert_eq!(
            strip_host_lines(doc),
            "{\n  \"scale\": 0.05,\n  \"ghost_s\": 2\n}\n"
        );
    }
}
