//! Counterfactual what-if projection over recorded traces.
//!
//! The rest of the observability stack is descriptive: the trace says
//! where simulated time went, the timeline says when each link moved
//! bytes, the critical path says which spans gated the makespan. This
//! module answers the *causal* question the paper's argument rests on —
//! "what would this run have cost if the bisection were twice as fast /
//! the merge were free / the stragglers behaved?" — **without
//! re-simulating**. A recorded run's windowed
//! [`crate::traffic::TrafficLedger`] charges define a piecewise-constant
//! byte rate per link; a declarative [`Scenario`] edit turns the
//! saturated stretches of that rate profile into a [`TimeWarp`] — a set
//! of disjoint intervals, each shrunk or stretched by a scale factor —
//! and every projected quantity (makespan, per-phase durations,
//! time-to-within-x% bounds) is the original quantity pushed through
//! that warp.
//!
//! What the projection can and cannot claim (DESIGN.md §15):
//!
//! * **No re-simulation.** Task placement, wave boundaries and iteration
//!   counts are taken as recorded; only the lengths of affected time
//!   windows change. Second-order effects (a faster shuffle letting a
//!   later wave start earlier *on a different slot*) are not modelled —
//!   the warp shifts everything after a shrunk window uniformly.
//! * **Saturation-gated.** Capacity edits only touch stretches where the
//!   recorded rate was at or above the saturation threshold (or above
//!   the *new*, smaller capacity when scaling down): an unsaturated link
//!   was not wire-binding, so giving it headroom honestly projects zero.
//! * **Lower-bound guarantee.** Every projected makespan is clamped from
//!   below by the scenario-adjusted compute-only bound: the `task` time
//!   on the recorded critical path — kept verbatim for wire edits (a
//!   faster link cannot shrink compute), warped only by edits that
//!   legitimately remove compute (straggler clamp, instant merge). No
//!   scenario can claim to beat the computation itself.
//! * **Identity honesty.** The ×1.0 scenario builds an empty warp and
//!   short-circuits to the recorded values — the projected delta is
//!   exactly (bit-for-bit) zero, which the test suite pins.
//!
//! Everything here is a pure function of simulated time and byte
//! counts, so reports are byte-identical across rayon pool widths.

use crate::report::{
    fmt_f64, percentile, Column, CriticalPath, JsonWriter, QualityPoint, QualityReport,
    TIME_TO_WITHIN_PCTS,
};
use crate::sweep::{collect_charges, phase_key, rate_steps, Charge, LinkClass};
use crate::timeline::{saturation_sweep, SATURATION_THRESHOLD};
use crate::topology::ClusterSpec;
use crate::trace::{Span, Trace};
use crate::traffic::TrafficClass;
use std::collections::BTreeMap;

/// One-ulp-scale slack used when comparing a recorded rate against a
/// capacity threshold (mirrors the saturation sweep in `timeline`).
const RATE_EPS: f64 = 1e-12;

/// A declarative edit to a recorded run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Edit {
    /// Scale one link class's capacity by `factor` (×0.5 / ×2 / ×∞;
    /// ×1.0 is the identity). Saturated stretches shrink by
    /// `rate / (factor × capacity)`; scaling *down* stretches every
    /// window whose rate exceeds the new capacity.
    ScaleLink {
        /// The link whose capacity changes.
        link: LinkClass,
        /// Capacity multiplier (`f64::INFINITY` for an infinite link).
        factor: f64,
    },
    /// Delete one traffic class's bytes. Saturated stretches on that
    /// class's link shrink in proportion to the removed rate;
    /// unsaturated stretches are untouched (the wire was not binding).
    ZeroClass {
        /// The traffic class to delete.
        class: TrafficClass,
    },
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
    /// Stable catalog name (`bisection-x2`, `zero-recovery`, …).
    pub name: &'static str,
    /// The edit to apply.
    pub edit: Edit,
}

/// The full scenario catalog, in stable order: the identity, every link
/// at ×0.5/×2/×∞, the three deletable traffic classes, straggler
/// removal, and the instantaneous merge.
pub const CATALOG: [Scenario; 18] = [
    Scenario {
        name: "identity",
        edit: Edit::ScaleLink {
            link: LinkClass::Bisection,
            factor: 1.0,
        },
    },
    Scenario {
        name: "disk-x0.5",
        edit: Edit::ScaleLink {
            link: LinkClass::Disk,
            factor: 0.5,
        },
    },
    Scenario {
        name: "disk-x2",
        edit: Edit::ScaleLink {
            link: LinkClass::Disk,
            factor: 2.0,
        },
    },
    Scenario {
        name: "disk-xinf",
        edit: Edit::ScaleLink {
            link: LinkClass::Disk,
            factor: f64::INFINITY,
        },
    },
    Scenario {
        name: "nic-x0.5",
        edit: Edit::ScaleLink {
            link: LinkClass::Nic,
            factor: 0.5,
        },
    },
    Scenario {
        name: "nic-x2",
        edit: Edit::ScaleLink {
            link: LinkClass::Nic,
            factor: 2.0,
        },
    },
    Scenario {
        name: "nic-xinf",
        edit: Edit::ScaleLink {
            link: LinkClass::Nic,
            factor: f64::INFINITY,
        },
    },
    Scenario {
        name: "rack-uplink-x0.5",
        edit: Edit::ScaleLink {
            link: LinkClass::RackUplink,
            factor: 0.5,
        },
    },
    Scenario {
        name: "rack-uplink-x2",
        edit: Edit::ScaleLink {
            link: LinkClass::RackUplink,
            factor: 2.0,
        },
    },
    Scenario {
        name: "rack-uplink-xinf",
        edit: Edit::ScaleLink {
            link: LinkClass::RackUplink,
            factor: f64::INFINITY,
        },
    },
    Scenario {
        name: "bisection-x0.5",
        edit: Edit::ScaleLink {
            link: LinkClass::Bisection,
            factor: 0.5,
        },
    },
    Scenario {
        name: "bisection-x2",
        edit: Edit::ScaleLink {
            link: LinkClass::Bisection,
            factor: 2.0,
        },
    },
    Scenario {
        name: "bisection-xinf",
        edit: Edit::ScaleLink {
            link: LinkClass::Bisection,
            factor: f64::INFINITY,
        },
    },
    Scenario {
        name: "zero-recovery",
        edit: Edit::ZeroClass {
            class: TrafficClass::Recovery,
        },
    },
    Scenario {
        name: "zero-model-update",
        edit: Edit::ZeroClass {
            class: TrafficClass::ModelUpdate,
        },
    },
    Scenario {
        name: "zero-shuffle-bisection",
        edit: Edit::ZeroClass {
            class: TrafficClass::ShuffleBisection,
        },
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

impl Scenario {
    /// Look a scenario up by its catalog name.
    pub fn parse(name: &str) -> Option<Scenario> {
        CATALOG.iter().find(|s| s.name == name).copied()
    }
}

/// One warped interval: simulated time inside `[t0, t1]` passes at
/// `scale` times its recorded length (0 = deleted, 2 = doubled).
#[derive(Debug, Clone, Copy, PartialEq)]
struct WarpInterval {
    t0: f64,
    t1: f64,
    scale: f64,
}

/// A piecewise-linear monotone remapping of the simulated timeline:
/// disjoint intervals each scaled by a non-negative factor, identity
/// elsewhere. An empty warp is exactly the identity.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeWarp {
    /// Sorted, disjoint, with `scale != 1`.
    ivs: Vec<WarpInterval>,
}

impl TimeWarp {
    /// Normalize raw (possibly overlapping) intervals: where intervals
    /// overlap the **largest** scale wins — the least savings / the most
    /// stretch — so overlapping shrink claims are never double-counted.
    fn normalized(raw: Vec<WarpInterval>) -> TimeWarp {
        let raw: Vec<WarpInterval> = raw
            .into_iter()
            .filter(|iv| iv.t1 > iv.t0 && iv.scale != 1.0 && iv.scale >= 0.0)
            .collect();
        if raw.is_empty() {
            return TimeWarp::default();
        }
        let mut cuts: Vec<f64> = raw.iter().flat_map(|iv| [iv.t0, iv.t1]).collect();
        cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite warp bounds"));
        cuts.dedup();
        let mut ivs: Vec<WarpInterval> = Vec::new();
        for pair in cuts.windows(2) {
            let (p, q) = (pair[0], pair[1]);
            let covering: Vec<f64> = raw
                .iter()
                .filter(|iv| iv.t0 <= p && q <= iv.t1)
                .map(|iv| iv.scale)
                .collect();
            if covering.is_empty() {
                continue;
            }
            let scale = covering.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if scale == 1.0 {
                continue;
            }
            match ivs.last_mut() {
                Some(last) if last.t1 == p && last.scale == scale => last.t1 = q,
                _ => ivs.push(WarpInterval {
                    t0: p,
                    t1: q,
                    scale,
                }),
            }
        }
        TimeWarp { ivs }
    }

    /// True when this warp changes nothing.
    pub fn is_identity(&self) -> bool {
        self.ivs.is_empty()
    }

    /// Seconds saved inside `[a, b]` (negative when the warp stretches).
    fn saved_between(&self, a: f64, b: f64) -> f64 {
        if b <= a {
            return 0.0;
        }
        self.ivs
            .iter()
            .map(|iv| (b.min(iv.t1) - a.max(iv.t0)).max(0.0) * (1.0 - iv.scale))
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
    /// Projected makespan, simulated seconds (lower-bound clamped).
    pub makespan_s: f64,
    /// `baseline − projected` makespan: positive means the scenario
    /// makes the run faster.
    pub delta_makespan_s: f64,
    /// Scenario-adjusted compute-only lower bound: critical-path `task`
    /// time, warped only by compute-removing edits.
    pub lower_bound_s: f64,
    /// True when the raw projection fell below the lower bound and was
    /// clamped up to it.
    pub clamped: bool,
    /// Projected per-phase durations, keyed like
    /// [`crate::report::PerfReport`] phases (`phase/map`, `merge/merge`,
    /// bare iteration cats).
    pub phases: BTreeMap<String, f64>,
    /// Projected time-to-within-x% bounds, one per
    /// [`TIME_TO_WITHIN_PCTS`] level (`None` without a quality curve).
    pub tt_within_s: Vec<(&'static str, Option<f64>)>,
    /// `baseline − projected` per time-to-within level.
    pub delta_tt_s: Vec<(&'static str, Option<f64>)>,
    /// The resource with the most saturated seconds after the edit
    /// (link label, or `"compute"` when nothing saturates).
    pub binding: &'static str,
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
            Column::num("lower_bound_s", fmt_f64(self.lower_bound_s)),
            Column::num("clamped", self.clamped),
            Column::text("binding", self.binding),
        ];
        let tt = self.tt_within_s.iter();
        cols.extend(tt.map(|(l, v)| Column::num(format!("tt_{l}_s"), opt(*v))));
        let dtt = self.delta_tt_s.iter();
        cols.extend(dtt.map(|(l, v)| Column::num(format!("delta_tt_{l}_s"), opt(*v))));
        cols
    }
}

/// The projection engine for one recorded run: caches the charges, the
/// critical path, the root window and the baseline quantities, then
/// projects any number of scenarios.
pub struct WhatIf<'a> {
    trace: &'a Trace,
    spec: &'a ClusterSpec,
    curve: &'a [QualityPoint],
    charges: Vec<Charge>,
    path: CriticalPath,
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
    /// Build the engine from a recorded run; `None` when the trace has
    /// no root span. `curve` may be empty (time-to-quality projections
    /// become `None`).
    pub fn new(
        trace: &'a Trace,
        spec: &'a ClusterSpec,
        curve: &'a [QualityPoint],
    ) -> Option<WhatIf<'a>> {
        let path = CriticalPath::from_trace(trace)?;
        let root = &trace.spans[path.root.index()];
        let (root_t0, root_t1) = (root.t0, root.t1);
        let (charges, _) = collect_charges(trace);
        let mut baseline_phases: BTreeMap<String, f64> = BTreeMap::new();
        for (s, key) in phase_spans(trace) {
            *baseline_phases.entry(key).or_insert(0.0) += s.duration_s();
        }
        Some(WhatIf {
            trace,
            spec,
            curve,
            charges,
            path,
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
        let mut raw: Vec<WarpInterval> = Vec::new();
        match edit {
            Edit::ScaleLink { link, factor } => {
                if factor == 1.0 {
                    return TimeWarp::default();
                }
                let cap = link.capacity(self.spec);
                if cap <= 0.0 {
                    return TimeWarp::default();
                }
                for (p, q, rate, _) in rate_steps(&self.charges, link, None) {
                    let saturated = rate >= SATURATION_THRESHOLD * cap * (1.0 - RATE_EPS);
                    if factor > 1.0 {
                        // More capacity can only help, and only where the
                        // wire was binding.
                        if saturated {
                            let scale = if factor.is_infinite() {
                                0.0
                            } else {
                                (rate / (factor * cap)).min(1.0)
                            };
                            raw.push(WarpInterval {
                                t0: p,
                                t1: q,
                                scale,
                            });
                        }
                    } else if rate > factor * cap * (1.0 + RATE_EPS) {
                        // Less capacity stretches every window whose rate
                        // no longer fits, saturated before or not.
                        raw.push(WarpInterval {
                            t0: p,
                            t1: q,
                            scale: rate / (factor * cap),
                        });
                    }
                }
            }
            Edit::ZeroClass { class } => {
                let link = LinkClass::of(class);
                let cap = link.capacity(self.spec);
                if cap <= 0.0 {
                    return TimeWarp::default();
                }
                for (p, q, rate, class_rate) in rate_steps(&self.charges, link, Some(class)) {
                    let saturated = rate >= SATURATION_THRESHOLD * cap * (1.0 - RATE_EPS);
                    if saturated && class_rate > 0.0 {
                        raw.push(WarpInterval {
                            t0: p,
                            t1: q,
                            scale: ((rate - class_rate) / rate).max(0.0),
                        });
                    }
                }
            }
            Edit::DropStragglers => {
                // Group task attempts under their parent span; clamp each
                // attempt to its wave's p50 and cut the phase tail after
                // the projected last finisher. Applies only to parents
                // that end with their last task (no trailing self time).
                let mut by_parent: BTreeMap<usize, Vec<&Span>> = BTreeMap::new();
                for s in self.trace.spans.iter().filter(|s| s.cat == "task") {
                    if let Some(p) = s.parent {
                        by_parent.entry(p.index()).or_default().push(s);
                    }
                }
                for (pidx, tasks) in by_parent {
                    let parent = &self.trace.spans[pidx];
                    let last_end = tasks.iter().map(|s| s.t1).fold(f64::NEG_INFINITY, f64::max);
                    let tol = 1e-9 * parent.duration_s().abs().max(1.0);
                    if (parent.t1 - last_end).abs() > tol {
                        continue;
                    }
                    let mut waves: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
                    for s in &tasks {
                        waves
                            .entry(s.arg_u64("wave").unwrap_or(0))
                            .or_default()
                            .push(s.duration_s());
                    }
                    let p50: BTreeMap<u64, f64> = waves
                        .into_iter()
                        .map(|(w, durs)| (w, percentile(&durs, 50.0)))
                        .collect();
                    let mut projected_end = parent.t0;
                    for s in &tasks {
                        let cap = p50[&s.arg_u64("wave").unwrap_or(0)];
                        projected_end = projected_end.max(s.t0 + s.duration_s().min(cap));
                    }
                    if projected_end < parent.t1 {
                        raw.push(WarpInterval {
                            t0: projected_end,
                            t1: parent.t1,
                            scale: 0.0,
                        });
                    }
                }
            }
            Edit::InstantMerge => {
                for s in self
                    .trace
                    .spans
                    .iter()
                    .filter(|s| s.cat == "merge" || s.cat == "topoff")
                {
                    if s.duration_s() > 0.0 {
                        raw.push(WarpInterval {
                            t0: s.t0,
                            t1: s.t1,
                            scale: 0.0,
                        });
                    }
                }
            }
        }
        TimeWarp::normalized(raw)
    }

    /// Scenario-adjusted compute-only lower bound: the critical path's
    /// `task` time. Wire edits ([`Edit::ScaleLink`], [`Edit::ZeroClass`])
    /// cannot shrink compute, so they keep the recorded durations; edits
    /// that legitimately remove compute ([`Edit::DropStragglers`],
    /// [`Edit::InstantMerge`]) push the segments through the warp.
    fn lower_bound(&self, edit: Edit, warp: &TimeWarp) -> f64 {
        let warp_tasks = matches!(edit, Edit::DropStragglers | Edit::InstantMerge);
        self.path
            .segments
            .iter()
            .filter(|s| s.cat == "task" && !s.is_self)
            .map(|s| {
                if warp_tasks {
                    warp.project_len(s.t0, s.t1).max(0.0)
                } else {
                    s.duration_s()
                }
            })
            .sum()
    }

    /// The resource with the most saturated seconds after `edit`
    /// (original time coordinates — an approximation, documented in
    /// DESIGN.md §15).
    fn binding_after(&self, edit: Edit) -> &'static str {
        let filtered: Vec<Charge>;
        let charges: &[Charge] = match edit {
            Edit::ZeroClass { class } => {
                filtered = self
                    .charges
                    .iter()
                    .filter(|c| c.class != class)
                    .cloned()
                    .collect();
                &filtered
            }
            _ => &self.charges,
        };
        let mut best: Option<(&'static str, f64)> = None;
        for link in LinkClass::ALL {
            let factor = match edit {
                Edit::ScaleLink { link: l, factor } if l == link => factor,
                _ => 1.0,
            };
            let cap = link.capacity(self.spec) * factor;
            if !cap.is_finite() || cap <= 0.0 {
                continue;
            }
            let sat = saturation_sweep(self.trace, charges, link, cap, SATURATION_THRESHOLD);
            if sat.total_s > 0.0 && best.is_none_or(|(_, b)| sat.total_s > b) {
                best = Some((link.label(), sat.total_s));
            }
        }
        best.map_or("compute", |(label, _)| label)
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
                lower_bound_s: self.lower_bound(scenario.edit, &warp),
                clamped: false,
                phases: self.baseline_phases.clone(),
                tt_within_s: baseline_tt.clone(),
                delta_tt_s: baseline_tt
                    .iter()
                    .map(|&(label, tt)| (label, tt.map(|_| 0.0)))
                    .collect(),
                binding: self.binding_after(scenario.edit),
            };
        }
        let lower_bound_s = self.lower_bound(scenario.edit, &warp);
        let raw = warp.project_len(self.root_t0, self.root_t1);
        let clamped = raw < lower_bound_s;
        let makespan_s = raw.max(lower_bound_s);
        let mut phases: BTreeMap<String, f64> = BTreeMap::new();
        for (s, key) in phase_spans(self.trace) {
            *phases.entry(key).or_insert(0.0) += warp.project_len(s.t0, s.t1).max(0.0);
        }
        // Quality-curve times are offsets from the root start; push each
        // point through the warp (monotone, since scales are >= 0).
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
            lower_bound_s,
            clamped,
            phases,
            tt_within_s,
            delta_tt_s,
            binding: self.binding_after(scenario.edit),
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
        spec: &ClusterSpec,
        curve: &[QualityPoint],
        scenarios: &[Scenario],
    ) -> Option<SensitivityReport> {
        let engine = WhatIf::new(trace, spec, curve)?;
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
    use crate::trace::Tracer;
    use crate::traffic::TrafficLedger;

    fn traced_ledger() -> (Tracer, TrafficLedger) {
        let tracer = Tracer::standalone();
        let ledger = TrafficLedger::traced(tracer.clone());
        (tracer, ledger)
    }

    /// A 10 s run whose bisection is exactly saturated for 4 s.
    fn saturated_run() -> (Trace, ClusterSpec) {
        let (tracer, ledger) = traced_ledger();
        let spec = ClusterSpec::small();
        let root = tracer.begin_at("root", "job", 0.0);
        tracer.span_at_in("map-slot-0", "t0", "task", 0.0, 2.0, vec![]);
        let bytes = (4.0 * spec.bisection_bw) as u64;
        ledger.add_over(TrafficClass::ShuffleBisection, bytes, 2.0, 6.0);
        tracer.end_at(root, 10.0);
        (tracer.trace(), spec)
    }

    #[test]
    fn identity_projects_bitwise_zero_delta() {
        let (trace, spec) = saturated_run();
        let engine = WhatIf::new(&trace, &spec, &[]).unwrap();
        let p = engine.project(Scenario::parse("identity").unwrap());
        assert_eq!(p.delta_makespan_s, 0.0);
        assert_eq!(p.makespan_s, engine.baseline_makespan_s());
        assert!(!p.clamped);
    }

    #[test]
    fn doubling_a_saturated_link_halves_its_saturated_seconds() {
        let (trace, spec) = saturated_run();
        let engine = WhatIf::new(&trace, &spec, &[]).unwrap();
        let p = engine.project(Scenario::parse("bisection-x2").unwrap());
        // 4 saturated seconds at rate == capacity shrink to 2.
        assert!((p.delta_makespan_s - 2.0).abs() < 1e-9, "{p:?}");
        assert!((p.makespan_s - 8.0).abs() < 1e-9);
    }

    #[test]
    fn infinite_capacity_deletes_the_saturated_window() {
        let (trace, spec) = saturated_run();
        let engine = WhatIf::new(&trace, &spec, &[]).unwrap();
        let p = engine.project(Scenario::parse("bisection-xinf").unwrap());
        assert!((p.delta_makespan_s - 4.0).abs() < 1e-9, "{p:?}");
        assert_eq!(p.binding, "compute");
    }

    #[test]
    fn halving_capacity_stretches_the_run() {
        let (trace, spec) = saturated_run();
        let engine = WhatIf::new(&trace, &spec, &[]).unwrap();
        let p = engine.project(Scenario::parse("bisection-x0.5").unwrap());
        // The 4 s window at rate == capacity doubles to 8 s.
        assert!((p.delta_makespan_s + 4.0).abs() < 1e-9, "{p:?}");
        assert!((p.makespan_s - 14.0).abs() < 1e-9);
    }

    #[test]
    fn unsaturated_links_project_zero_benefit() {
        let (trace, spec) = saturated_run();
        let engine = WhatIf::new(&trace, &spec, &[]).unwrap();
        for name in ["disk-x2", "nic-x2", "rack-uplink-x2", "nic-xinf"] {
            let p = engine.project(Scenario::parse(name).unwrap());
            assert_eq!(p.delta_makespan_s, 0.0, "{name}");
        }
    }

    #[test]
    fn zeroing_the_only_class_deletes_the_window() {
        let (trace, spec) = saturated_run();
        let engine = WhatIf::new(&trace, &spec, &[]).unwrap();
        let p = engine.project(Scenario::parse("zero-shuffle-bisection").unwrap());
        assert!((p.delta_makespan_s - 4.0).abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn projection_respects_the_compute_lower_bound() {
        // A run whose critical path is one long task overlapping the
        // saturated window: deleting the window cannot beat the task.
        let (tracer, ledger) = traced_ledger();
        let spec = ClusterSpec::small();
        let root = tracer.begin_at("root", "job", 0.0);
        tracer.span_at_in("map-slot-0", "t0", "task", 0.0, 10.0, vec![]);
        let bytes = (8.0 * spec.bisection_bw) as u64;
        ledger.add_over(TrafficClass::ShuffleBisection, bytes, 1.0, 9.0);
        tracer.end_at(root, 10.0);
        let trace = tracer.trace();
        let engine = WhatIf::new(&trace, &spec, &[]).unwrap();
        let p = engine.project(Scenario::parse("bisection-xinf").unwrap());
        assert!(p.clamped, "{p:?}");
        assert_eq!(p.makespan_s, p.lower_bound_s);
        // The wire edit cannot shrink the 10 s task: zero net benefit.
        assert!((p.makespan_s - 10.0).abs() < 1e-9, "{p:?}");
        assert!(p.delta_makespan_s.abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn straggler_clamp_cuts_the_phase_tail() {
        let tracer = Tracer::standalone();
        let spec = ClusterSpec::small();
        let root = tracer.begin_at("root", "job", 0.0);
        let phase = tracer.begin_at("map", "phase", 0.0);
        let wave = |w: u64| vec![("wave".to_string(), crate::trace::Payload::U64(w))];
        tracer.span_at_in("map-slot-0", "a", "task", 0.0, 2.0, wave(0));
        tracer.span_at_in("map-slot-1", "b", "task", 0.0, 2.0, wave(0));
        tracer.span_at_in("map-slot-2", "c", "task", 0.0, 8.0, wave(0)); // straggler
        tracer.end_at(phase, 8.0);
        tracer.end_at(root, 10.0);
        let trace = tracer.trace();
        let engine = WhatIf::new(&trace, &spec, &[]).unwrap();
        let p = engine.project(Scenario::parse("no-stragglers").unwrap());
        // p50 of [2, 2, 8] is 2: the phase shrinks from 8 s to 2 s.
        assert!((p.delta_makespan_s - 6.0).abs() < 1e-9, "{p:?}");
        assert!((p.phases["phase/map"] - 2.0).abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn instant_merge_deletes_merge_and_topoff_windows() {
        let tracer = Tracer::standalone();
        let spec = ClusterSpec::small();
        let root = tracer.begin_at("root", "driver", 0.0);
        tracer.span_at_in("driver", "merge", "merge", 4.0, 5.0, vec![]);
        tracer.span_at_in("driver", "topoff-1", "topoff", 5.0, 8.0, vec![]);
        tracer.end_at(root, 10.0);
        let trace = tracer.trace();
        let engine = WhatIf::new(&trace, &spec, &[]).unwrap();
        let p = engine.project(Scenario::parse("instant-merge").unwrap());
        assert!((p.delta_makespan_s - 4.0).abs() < 1e-9, "{p:?}");
        assert_eq!(p.phases["merge/merge"], 0.0);
        assert_eq!(p.phases["topoff"], 0.0);
    }

    #[test]
    fn quality_curve_times_warp_with_the_run() {
        let (trace, spec) = saturated_run();
        let curve = [
            QualityPoint { t_s: 1.0, err: 8.0 },
            QualityPoint { t_s: 7.0, err: 2.0 },
            QualityPoint { t_s: 9.5, err: 1.0 },
        ];
        let engine = WhatIf::new(&trace, &spec, &curve).unwrap();
        let p = engine.project(Scenario::parse("bisection-x2").unwrap());
        // The saturated [2, 6] window halves: t=7 maps to 5, t=9.5 to 7.5.
        let tt10 = p
            .tt_within_s
            .iter()
            .find(|(l, _)| *l == "10pct")
            .and_then(|(_, v)| *v)
            .unwrap();
        assert!((tt10 - 7.5).abs() < 1e-9, "{p:?}");
        let d = p
            .delta_tt_s
            .iter()
            .find(|(l, _)| *l == "10pct")
            .and_then(|(_, v)| *v)
            .unwrap();
        assert!((d - 2.0).abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn sensitivity_report_ranks_and_serializes() {
        let (trace, spec) = saturated_run();
        let report = SensitivityReport::from_trace(&trace, &spec, &[], &CATALOG).unwrap();
        assert_eq!(report.rows.len(), CATALOG.len());
        // Deleting the window outranks halving it; stretches rank last.
        assert_eq!(report.rows[0].scenario.name, "bisection-xinf");
        assert_eq!(report.rows.last().unwrap().scenario.name, "bisection-x0.5");
        let deltas: Vec<f64> = report.rows.iter().map(|r| r.delta_makespan_s).collect();
        assert!(deltas.windows(2).all(|w| w[0] >= w[1]), "{deltas:?}");
        let json = report.to_json(0, true);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"delta_makespan_s\""));
        assert!(json.contains("\"phases\""));
        assert!(!report.to_json(0, false).contains("\"phases\""));
    }

    #[test]
    fn overlapping_warp_claims_are_not_double_counted() {
        // Two overlapping zero-scale claims over [0,6] and [4,10] must
        // save 10 s, not 12.
        let warp = TimeWarp::normalized(vec![
            WarpInterval {
                t0: 0.0,
                t1: 6.0,
                scale: 0.0,
            },
            WarpInterval {
                t0: 4.0,
                t1: 10.0,
                scale: 0.0,
            },
        ]);
        assert!((warp.project_len(0.0, 12.0) - 2.0).abs() < 1e-12);
        // Overlap of shrink and keep: the larger scale (less saving) wins.
        let warp = TimeWarp::normalized(vec![
            WarpInterval {
                t0: 0.0,
                t1: 4.0,
                scale: 0.0,
            },
            WarpInterval {
                t0: 2.0,
                t1: 4.0,
                scale: 0.5,
            },
        ]);
        assert!((warp.project_len(0.0, 4.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scenario_parse_rejects_unknown_names() {
        assert!(Scenario::parse("bisection-x2").is_some());
        assert!(Scenario::parse("warp-drive").is_none());
        assert_eq!(CATALOG[0].name, "identity");
    }

    #[test]
    fn empty_trace_yields_no_engine() {
        let spec = ClusterSpec::small();
        assert!(WhatIf::new(&Trace::default(), &spec, &[]).is_none());
        assert!(SensitivityReport::from_trace(&Trace::default(), &spec, &[], &CATALOG).is_none());
    }
}
