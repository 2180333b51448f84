//! Counterfactual what-if projection over recorded traces.
//!
//! The rest of the observability stack is descriptive: the trace says
//! where simulated time went, the timeline says when each link moved
//! bytes, the critical path says which spans gated the makespan. This
//! module asks what a recorded run would have cost had its stragglers
//! behaved or its merge been free — **without re-simulating**. A
//! [`Scenario`] edit names the recorded windows it deletes; the
//! [`TimeWarp`] cuts them out of the timeline, and every projected
//! quantity (makespan, per-phase durations, time-to-within-x% bounds) is
//! the recorded quantity pushed through that warp.
//!
//! What the projection can and cannot claim (DESIGN.md §15):
//!
//! * **No re-simulation.** Task placement, wave boundaries and iteration
//!   counts are taken as recorded; only deleted windows change. A later
//!   wave does not start earlier *on a different slot* — the warp shifts
//!   everything after a deleted window uniformly.
//! * **Deletion only.** Every edit deletes recorded time and none adds
//!   any, so a projection lies between zero and the recorded value, and
//!   each projected phase is at most its recorded length.
//! * **Identity honesty.** The identity scenario builds an empty warp
//!   and short-circuits to the recorded values — the projected delta is
//!   exactly (bit-for-bit) zero, which the test suite pins.
//!
//! Everything here is a pure function of simulated time and byte
//! counts, so reports are byte-identical across rayon pool widths.

use crate::report::{
    fmt_f64, longest_root, percentile, Column, JsonWriter, QualityPoint, QualityReport,
    TIME_TO_WITHIN_PCTS,
};
use crate::sweep::{phase_key, phase_waves};
use crate::trace::{Span, Trace};
use std::collections::BTreeMap;

/// A declarative edit to a recorded run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Edit {
    /// Change nothing: the recorded run.
    Identity,
    /// Clamp every task attempt to its wave's p50 duration (per phase,
    /// per `wave` span arg) and cut the phase tail after the projected
    /// last finisher.
    DropStragglers,
    /// Make `merge()` and the top-off pass instantaneous: every `merge`
    /// and `topoff` span's window shrinks to zero length.
    InstantMerge,
}

/// A named [`Edit`] from the scenario catalog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Stable catalog name (`identity`, `no-stragglers`, `instant-merge`).
    pub name: &'static str,
    /// The edit to apply.
    pub edit: Edit,
}

/// The scenario catalog, in stable order: the identity, straggler
/// removal, and the instantaneous merge.
pub const CATALOG: [Scenario; 3] = [
    Scenario {
        name: "identity",
        edit: Edit::Identity,
    },
    Scenario {
        name: "no-stragglers",
        edit: Edit::DropStragglers,
    },
    Scenario {
        name: "instant-merge",
        edit: Edit::InstantMerge,
    },
];

/// A monotone remapping of the simulated timeline that deletes a set of
/// windows and keeps everything else. An empty warp is exactly the
/// identity.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeWarp {
    /// Sorted, disjoint, non-touching `(t0, t1)` windows with `t1 > t0`.
    deleted: Vec<(f64, f64)>,
}

impl TimeWarp {
    /// The union of raw (possibly overlapping) windows, so overlapping
    /// deletions are never double-counted.
    fn deleting(mut raw: Vec<(f64, f64)>) -> TimeWarp {
        raw.retain(|&(t0, t1)| t1 > t0);
        raw.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite warp bounds"));
        let mut deleted: Vec<(f64, f64)> = Vec::new();
        for (t0, t1) in raw {
            match deleted.last_mut() {
                Some(last) if t0 <= last.1 => last.1 = last.1.max(t1),
                _ => deleted.push((t0, t1)),
            }
        }
        TimeWarp { deleted }
    }

    /// True when this warp changes nothing.
    pub fn is_identity(&self) -> bool {
        self.deleted.is_empty()
    }

    /// Seconds deleted inside `[a, b]`.
    fn saved_between(&self, a: f64, b: f64) -> f64 {
        if b <= a {
            return 0.0;
        }
        self.deleted
            .iter()
            .map(|&(t0, t1)| (b.min(t1) - a.max(t0)).max(0.0))
            .sum()
    }

    /// Projected length of the recorded window `[a, b]`.
    pub fn project_len(&self, a: f64, b: f64) -> f64 {
        (b - a) - self.saved_between(a, b)
    }
}

/// The projected outcome of one [`Scenario`] against one recorded run.
#[derive(Debug, Clone, PartialEq)]
pub struct Projection {
    /// The scenario that produced this row.
    pub scenario: Scenario,
    /// Projected makespan, simulated seconds.
    pub makespan_s: f64,
    /// `baseline − projected` makespan: positive means the scenario
    /// makes the run faster.
    pub delta_makespan_s: f64,
    /// Projected per-phase durations, keyed like
    /// [`crate::report::PerfReport`] phases (`phase/map`, `merge/merge`,
    /// bare iteration cats).
    pub phases: BTreeMap<String, f64>,
    /// Projected time-to-within-x% bounds, one per
    /// [`TIME_TO_WITHIN_PCTS`] level (`None` without a quality curve).
    pub tt_within_s: Vec<(&'static str, Option<f64>)>,
    /// `baseline − projected` per time-to-within level.
    pub delta_tt_s: Vec<(&'static str, Option<f64>)>,
}

impl Projection {
    /// The row in JSON schema order — the one definition behind the
    /// `scenarios` JSON objects and the columns `explain.csv` picks.
    pub fn columns(&self) -> Vec<Column> {
        let opt = |v: Option<f64>| v.map_or("null".to_string(), fmt_f64);
        let mut cols = vec![
            Column::text("scenario", self.scenario.name),
            Column::num("projected_makespan_s", fmt_f64(self.makespan_s)),
            Column::num("delta_makespan_s", fmt_f64(self.delta_makespan_s)),
        ];
        let tt = self.tt_within_s.iter();
        cols.extend(tt.map(|(l, v)| Column::num(format!("tt_{l}_s"), opt(*v))));
        let dtt = self.delta_tt_s.iter();
        cols.extend(dtt.map(|(l, v)| Column::num(format!("delta_tt_{l}_s"), opt(*v))));
        cols
    }
}

/// The projection engine for one recorded run: caches the root window
/// and the baseline quantities, then projects any number of scenarios.
pub struct WhatIf<'a> {
    trace: &'a Trace,
    curve: &'a [QualityPoint],
    root_t0: f64,
    root_t1: f64,
    baseline_phases: BTreeMap<String, f64>,
}

/// The spans a projection reports per phase, with their rollup key:
/// [`phase_key`]'s groups minus the `driver` root, whose projected
/// length is the makespan itself.
fn phase_spans(trace: &Trace) -> impl Iterator<Item = (&Span, String)> {
    let keyed = trace.spans.iter().filter(|s| s.cat != "driver");
    keyed.filter_map(|s| phase_key(s).map(|key| (s, key)))
}

impl<'a> WhatIf<'a> {
    /// Build the engine from a recorded run, measured over its longest
    /// root span; `None` when the trace has no root span. `curve` may be
    /// empty (time-to-quality projections become `None`).
    pub fn new(trace: &'a Trace, curve: &'a [QualityPoint]) -> Option<WhatIf<'a>> {
        let root = longest_root(trace)?;
        let (root_t0, root_t1) = (root.t0, root.t1);
        let mut baseline_phases: BTreeMap<String, f64> = BTreeMap::new();
        for (s, key) in phase_spans(trace) {
            *baseline_phases.entry(key).or_insert(0.0) += s.duration_s();
        }
        Some(WhatIf {
            trace,
            curve,
            root_t0,
            root_t1,
            baseline_phases,
        })
    }

    /// The recorded makespan (root-span duration).
    pub fn baseline_makespan_s(&self) -> f64 {
        self.root_t1 - self.root_t0
    }

    /// Build the warp for one edit (empty for the identity).
    fn warp_for(&self, edit: Edit) -> TimeWarp {
        let mut raw: Vec<(f64, f64)> = Vec::new();
        match edit {
            Edit::Identity => {}
            Edit::DropStragglers => {
                // Clamp each task attempt to its phase wave's p50 and cut
                // the phase tail after the projected last finisher.
                // Applies only to parents that end with their last task
                // (no trailing self time).
                for (pidx, waves) in phase_waves(self.trace) {
                    let parent = &self.trace.spans[pidx];
                    let tasks = || waves.values().flatten();
                    let last_end = tasks().map(|s| s.t1).fold(f64::NEG_INFINITY, f64::max);
                    let tol = 1e-9 * parent.duration_s().abs().max(1.0);
                    if (parent.t1 - last_end).abs() > tol {
                        continue;
                    }
                    let mut projected_end = parent.t0;
                    for wave in waves.values() {
                        let durs: Vec<f64> = wave.iter().map(|s| s.duration_s()).collect();
                        let cap = percentile(&durs, 50.0);
                        for s in wave {
                            projected_end = projected_end.max(s.t0 + s.duration_s().min(cap));
                        }
                    }
                    if projected_end < parent.t1 {
                        raw.push((projected_end, parent.t1));
                    }
                }
            }
            Edit::InstantMerge => {
                let windows = self
                    .trace
                    .spans
                    .iter()
                    .filter(|s| s.cat == "merge" || s.cat == "topoff");
                raw.extend(
                    windows
                        .filter(|s| s.duration_s() > 0.0)
                        .map(|s| (s.t0, s.t1)),
                );
            }
        }
        TimeWarp::deleting(raw)
    }

    /// Baseline time-to-within levels from the recorded curve.
    fn baseline_tt(&self) -> Vec<(&'static str, Option<f64>)> {
        TIME_TO_WITHIN_PCTS
            .iter()
            .map(|&(label, x)| (label, QualityReport::time_to_within(self.curve, x)))
            .collect()
    }

    /// Project one scenario.
    pub fn project(&self, scenario: Scenario) -> Projection {
        let warp = self.warp_for(scenario.edit);
        let baseline = self.baseline_makespan_s();
        let baseline_tt = self.baseline_tt();
        if warp.is_identity() {
            // Bit-exact zero delta: return the recorded values untouched.
            return Projection {
                scenario,
                makespan_s: baseline,
                delta_makespan_s: 0.0,
                phases: self.baseline_phases.clone(),
                tt_within_s: baseline_tt.clone(),
                delta_tt_s: baseline_tt
                    .iter()
                    .map(|&(label, tt)| (label, tt.map(|_| 0.0)))
                    .collect(),
            };
        }
        let makespan_s = warp.project_len(self.root_t0, self.root_t1);
        let mut phases: BTreeMap<String, f64> = BTreeMap::new();
        for (s, key) in phase_spans(self.trace) {
            *phases.entry(key).or_insert(0.0) += warp.project_len(s.t0, s.t1).max(0.0);
        }
        // Quality-curve times are offsets from the root start; push each
        // point through the warp (monotone: it only deletes time).
        let projected_curve: Vec<QualityPoint> = self
            .curve
            .iter()
            .map(|p| QualityPoint {
                t_s: warp
                    .project_len(self.root_t0, self.root_t0 + p.t_s)
                    .max(0.0),
                err: p.err,
            })
            .collect();
        let tt_within_s: Vec<(&'static str, Option<f64>)> = TIME_TO_WITHIN_PCTS
            .iter()
            .map(|&(label, x)| (label, QualityReport::time_to_within(&projected_curve, x)))
            .collect();
        let delta_tt_s = baseline_tt
            .iter()
            .zip(&tt_within_s)
            .map(|(&(label, base), &(_, proj))| (label, base.and_then(|b| proj.map(|p| b - p))))
            .collect();
        Projection {
            scenario,
            makespan_s,
            delta_makespan_s: baseline - makespan_s,
            phases,
            tt_within_s,
            delta_tt_s,
        }
    }
}

/// The ranked bottleneck table for one recorded run: every scenario's
/// projected deltas, sorted by Δmakespan (largest saving first; ties
/// keep catalog order).
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityReport {
    /// The recorded makespan all deltas are relative to.
    pub baseline_makespan_s: f64,
    /// Ranked projections.
    pub rows: Vec<Projection>,
}

impl SensitivityReport {
    /// Project `scenarios` against the run recorded in `trace` and rank
    /// the results. `None` when the trace has no root span.
    pub fn from_trace(
        trace: &Trace,
        curve: &[QualityPoint],
        scenarios: &[Scenario],
    ) -> Option<SensitivityReport> {
        let engine = WhatIf::new(trace, curve)?;
        let mut rows: Vec<Projection> = scenarios.iter().map(|&s| engine.project(s)).collect();
        // Stable sort: ties keep the caller's scenario order.
        rows.sort_by(|a, b| {
            b.delta_makespan_s
                .partial_cmp(&a.delta_makespan_s)
                .expect("finite deltas")
        });
        Some(SensitivityReport {
            baseline_makespan_s: engine.baseline_makespan_s(),
            rows,
        })
    }

    /// Deterministic JSON rendering matching the tolerance-band key
    /// conventions (`_s` suffixes are banded by the regression gate;
    /// projected deltas get the wide band, see DESIGN.md §15). Phase
    /// breakdowns are included only when `include_phases` is set — the
    /// BENCH document keeps the scalar rows, `pic explain --json` keeps
    /// everything.
    pub fn to_json(&self, indent: usize, include_phases: bool) -> String {
        JsonWriter::document(indent, |w| self.write_json(w, include_phases))
    }

    /// The fields of [`SensitivityReport::to_json`], written into the
    /// caller's open object.
    pub fn write_json(&self, w: &mut JsonWriter, include_phases: bool) {
        w.field("baseline_makespan_s", &fmt_f64(self.baseline_makespan_s));
        w.objects("scenarios", &self.rows, |w, row| {
            w.columns(&row.columns());
            if include_phases {
                w.open_key("phases", "{");
                for (key, secs) in &row.phases {
                    w.field(key, &fmt_f64(*secs));
                }
                w.close("}");
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Payload, Tracer};

    fn scenario(name: &str) -> Scenario {
        *CATALOG.iter().find(|s| s.name == name).unwrap()
    }

    fn wave(w: u64) -> Vec<(String, Payload)> {
        vec![("wave".to_string(), Payload::U64(w))]
    }

    /// A 20 s run: a map phase over [0, 8] whose third task straggles
    /// (p50 2 s, so the clamp saves 6 s), then a merge over [10, 11] and
    /// a top-off pass over [11, 18] (8 s for the instant merge).
    fn merge_run() -> Trace {
        let tracer = Tracer::standalone();
        let root = tracer.begin_at("root", "driver", 0.0);
        let phase = tracer.begin_at("map", "phase", 0.0);
        tracer.span_at_in("map-slot-0", "a", "task", 0.0, 2.0, wave(0));
        tracer.span_at_in("map-slot-1", "b", "task", 0.0, 2.0, wave(0));
        tracer.span_at_in("map-slot-2", "c", "task", 0.0, 8.0, wave(0)); // straggler
        tracer.end_at(phase, 8.0);
        tracer.span_at_in("driver", "merge", "merge", 10.0, 11.0, vec![]);
        tracer.span_at_in("driver", "topoff-1", "topoff", 11.0, 18.0, vec![]);
        tracer.end_at(root, 20.0);
        tracer.trace()
    }

    #[test]
    fn identity_projects_bitwise_zero_delta() {
        let trace = merge_run();
        let engine = WhatIf::new(&trace, &[]).unwrap();
        let p = engine.project(scenario("identity"));
        assert_eq!(p.delta_makespan_s, 0.0);
        assert_eq!(p.makespan_s, engine.baseline_makespan_s());
    }

    #[test]
    fn straggler_clamp_cuts_the_phase_tail() {
        let trace = merge_run();
        let engine = WhatIf::new(&trace, &[]).unwrap();
        let p = engine.project(scenario("no-stragglers"));
        // p50 of [2, 2, 8] is 2: the phase shrinks from 8 s to 2 s.
        assert!((p.delta_makespan_s - 6.0).abs() < 1e-9, "{p:?}");
        assert!((p.phases["phase/map"] - 2.0).abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn instant_merge_deletes_merge_and_topoff_windows() {
        let trace = merge_run();
        let engine = WhatIf::new(&trace, &[]).unwrap();
        let p = engine.project(scenario("instant-merge"));
        assert!((p.delta_makespan_s - 8.0).abs() < 1e-9, "{p:?}");
        assert_eq!(p.phases["merge/merge"], 0.0);
        assert_eq!(p.phases["topoff"], 0.0);
        assert_eq!(p.phases["phase/map"], 8.0);
    }

    #[test]
    fn quality_curve_times_warp_with_the_run() {
        let trace = merge_run();
        let curve = [
            QualityPoint { t_s: 1.0, err: 8.0 },
            QualityPoint {
                t_s: 15.0,
                err: 2.0,
            },
            QualityPoint {
                t_s: 19.5,
                err: 1.0,
            },
        ];
        let engine = WhatIf::new(&trace, &curve).unwrap();
        let p = engine.project(scenario("instant-merge"));
        // The [10, 18] window goes: t=15 maps to 10, t=19.5 to 11.5.
        let level = |v: &[(&str, Option<f64>)]| {
            v.iter()
                .find(|(l, _)| *l == "10pct")
                .and_then(|(_, v)| *v)
                .unwrap()
        };
        assert!((level(&p.tt_within_s) - 11.5).abs() < 1e-9, "{p:?}");
        assert!((level(&p.delta_tt_s) - 8.0).abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn sensitivity_report_ranks_and_serializes() {
        let report = SensitivityReport::from_trace(&merge_run(), &[], &CATALOG).unwrap();
        let ranked: Vec<&str> = report.rows.iter().map(|r| r.scenario.name).collect();
        assert_eq!(ranked, ["instant-merge", "no-stragglers", "identity"]);
        let deltas: Vec<f64> = report.rows.iter().map(|r| r.delta_makespan_s).collect();
        assert!((deltas[0] - 8.0).abs() < 1e-9 && (deltas[1] - 6.0).abs() < 1e-9);
        let json = report.to_json(0, true);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"delta_makespan_s\""));
        assert!(json.contains("\"phases\""));
        assert!(!report.to_json(0, false).contains("\"phases\""));
    }

    #[test]
    fn overlapping_deletions_are_not_double_counted() {
        // Deleting [0, 6] and [4, 10] saves 10 s, not 12; a window that
        // touches the union joins it.
        let warp = TimeWarp::deleting(vec![(4.0, 10.0), (0.0, 6.0), (10.0, 11.0)]);
        assert!((warp.project_len(0.0, 12.0) - 1.0).abs() < 1e-12);
        assert_eq!(warp.deleted, [(0.0, 11.0)]);
        assert!(TimeWarp::deleting(vec![(3.0, 3.0)]).is_identity());
    }

    #[test]
    fn the_catalog_is_identity_stragglers_and_merge() {
        let names: Vec<&str> = CATALOG.iter().map(|s| s.name).collect();
        assert_eq!(names, ["identity", "no-stragglers", "instant-merge"]);
    }

    #[test]
    fn empty_trace_yields_no_engine() {
        assert!(WhatIf::new(&Trace::default(), &[]).is_none());
        assert!(SensitivityReport::from_trace(&Trace::default(), &[], &CATALOG).is_none());
    }
}
