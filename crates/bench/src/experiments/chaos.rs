//! The chaos & elasticity campaign (DESIGN.md §12): run each app's IC
//! and PIC sides under a deterministic fault scenario, compare against
//! the clean run, and report recovery cost plus the time-to-quality
//! penalty. The resulting cells feed the `quality_under_failure` section
//! of `BENCH_pic.json` and the chaos CSV CI artifact.
//!
//! Fault times are derived from the clean run's own simulated duration
//! (crash at 0.3 T, wave at 0.4 T), so every scenario lands mid-run at
//! any workload scale. Chaos never touches host computation: crash and
//! preemption cells must reproduce the clean run's answer exactly, and
//! only `elastic-resize` (which changes the partitioning) may move the
//! converged model.

use super::common::{
    fan_out, quality_target, small_suite, BenchApp, Driver, DriverReport, SuiteVisitor, Workload,
    SMALL_SUITE_APPS,
};
use super::ExperimentCtx;
use pic_simnet::chaos::FaultPlan;
use pic_simnet::report::{fmt_f64, Column, QualityPoint, QualityReport};
use pic_simnet::trace::check;
use pic_simnet::{ClusterSpec, Monitor, MonitorConfig};

/// The fault scenarios of the campaign matrix, in report order.
pub const SCENARIOS: [&str; 3] = ["node-crash", "preemption-wave", "elastic-resize"];

/// The apps the campaign runs: [`small_suite`]'s.
pub const CHAOS_APPS: [&str; 3] = SMALL_SUITE_APPS;

/// Seed every campaign plan is derived from (preemption victims etc.).
const CAMPAIGN_SEED: u64 = 0xC1A0;

/// One (app, scenario, driver) cell of the campaign matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCell {
    /// Application name.
    pub app: &'static str,
    /// Fault scenario (one of [`SCENARIOS`]).
    pub scenario: &'static str,
    /// `"ic"` or `"pic"`.
    pub driver: &'static str,
    /// Clean-run simulated seconds.
    pub clean_s: f64,
    /// Faulty-run simulated seconds.
    pub faulty_s: f64,
    /// Extra simulated seconds the faults cost (`faulty - clean`).
    pub recovery_s: f64,
    /// Bytes the ledger charged to the recovery class (killed-attempt
    /// refetches, DFS re-replication, rebalance passes).
    pub recovery_bytes: u64,
    /// Fault events the injector actually fired during the run.
    pub injected_events: usize,
    /// How much later the faulty run reaches the clean run's
    /// [`quality_target`], in simulated seconds.
    pub tt_quality_delta_s: f64,
    /// True when the faulty run converged to exactly the clean answer
    /// (the crash/preemption invariant; resize may legitimately
    /// differ).
    pub exact_result: bool,
    /// Incidents the online monitor opened on the faulty run — every
    /// cell whose plan actually fired must open at least one.
    pub incidents: u64,
    /// Incidents on the matching clean run — must be exactly zero (the
    /// monitor is quiet on healthy runs).
    pub clean_incidents: u64,
}

/// Build the scenario's fault plan from the clean run's duration
/// `t_clean` on `spec`. Unknown names are an error listing the valid
/// set.
pub fn plan_for(
    scenario: &str,
    t_clean: f64,
    spec: &ClusterSpec,
    partitions: usize,
) -> Result<FaultPlan, String> {
    let plan = FaultPlan::new(CAMPAIGN_SEED);
    match scenario {
        "node-crash" => Ok(plan.node_crash(1 % spec.nodes, 0.3 * t_clean)),
        "preemption-wave" => {
            Ok(plan.preemption_wave(2usize.min(spec.nodes - 1).max(1), 0.4 * t_clean))
        }
        "elastic-resize" => Ok(plan.elastic_resize(1, partitions, (spec.nodes * 2 / 3).max(1))),
        other => Err(format!("unknown scenario '{other}'; known: {SCENARIOS:?}")),
    }
}

/// First trajectory time at which `target` quality is reached.
fn time_to_quality(traj: &[QualityPoint], target: f64, fallback: f64) -> f64 {
    QualityReport::first_at_or_below(traj, target).map_or(fallback, |i| traj[i].t_s)
}

/// What a cell keeps of one run, clean or faulty. The trace is checked
/// and dropped: the clean baselines live across all of an app's
/// scenarios, and their traces would ride along in peak memory.
struct Checked<M> {
    report: DriverReport<M>,
    recovery_bytes: u64,
    injected_events: usize,
    incidents: u64,
}

/// Run `driver` under `plan`, then hold the trace to the full structural
/// suite (chaos checks included, byte-exact reconciliation) and replay it
/// through the online monitor and its rule catalog — the
/// incident count couples each cell to the alerting layer.
fn checked_run<A: BenchApp>(
    w: &Workload<'_, A>,
    driver: Driver,
    tag: &str,
    plan: Option<&FaultPlan>,
) -> Result<Checked<A::Model>, String> {
    let who = format!("{}/{tag}/{}", w.name, driver.label());
    let run = w.run(driver, plan)?;
    check::validate(&run.trace, &run.traffic).map_err(|es| format!("{who}: {es:?}"))?;
    let monitor = Monitor::replay(MonitorConfig::new(w.spec.clone()), &run.trace)
        .map_err(|e| format!("{who}: {e}"))?;
    Ok(Checked {
        report: run.report,
        recovery_bytes: run.traffic.recovery_total(),
        injected_events: run.injected_events,
        incidents: monitor.incidents.len() as u64,
    })
}

/// Visits each suite workload: one pair of clean per-driver baselines,
/// shared by all of the app's scenarios, then one faulty run per
/// (scenario, driver). Each stage's runs fan out ([`fan_out`]).
struct Campaign<'s> {
    scenarios: &'s [&'static str],
    cells: Vec<ChaosCell>,
}

impl SuiteVisitor for Campaign<'_> {
    fn visit<A: BenchApp>(&mut self, w: &Workload<'_, A>) -> Result<(), String> {
        let clean_runs = fan_out(&Driver::BOTH, |&driver| {
            checked_run(w, driver, "clean", None)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        // Every plan is timed from its clean run, so the faulty runs fan
        // out only once both clean runs are in.
        let mut faults = Vec::new();
        for &scenario in self.scenarios {
            for (driver, clean) in Driver::BOTH.into_iter().zip(&clean_runs) {
                let (clean_s, _, _) = clean.report.outcome();
                let plan = plan_for(scenario, clean_s, &w.spec, w.partitions)?;
                faults.push((scenario, driver, clean, plan));
            }
        }
        let faulty_runs = fan_out(&faults, |(scenario, driver, _, plan)| {
            checked_run(w, *driver, scenario, Some(plan))
        });
        for ((scenario, driver, clean, _), faulty) in faults.iter().zip(faulty_runs) {
            let faulty = faulty?;
            let (clean_s, clean_traj, clean_model) = clean.report.outcome();
            let (faulty_s, faulty_traj, faulty_model) = faulty.report.outcome();

            let target = quality_target(clean_traj)
                .unwrap_or_else(|| panic!("{}: empty trajectory", w.name));
            let tt_clean = time_to_quality(clean_traj, target, clean_s);
            let tt_faulty = time_to_quality(faulty_traj, target, faulty_s);

            self.cells.push(ChaosCell {
                app: w.name,
                scenario,
                driver: driver.label(),
                clean_s,
                faulty_s,
                recovery_s: faulty_s - clean_s,
                recovery_bytes: faulty.recovery_bytes,
                injected_events: faulty.injected_events,
                tt_quality_delta_s: tt_faulty - tt_clean,
                exact_result: faulty_model == clean_model,
                incidents: faulty.incidents,
                clean_incidents: clean.incidents,
            });
        }
        Ok(())
    }
}

/// Run the campaign matrix: every app in [`CHAOS_APPS`] × every
/// requested scenario × both drivers. Scenario names are validated up
/// front so an unknown name fails before any run.
pub fn campaign(ctx: &ExperimentCtx, scenarios: &[&str]) -> Result<Vec<ChaosCell>, String> {
    let scenarios: Vec<&'static str> = scenarios
        .iter()
        .map(|s| {
            SCENARIOS
                .into_iter()
                .find(|known| known == s)
                .ok_or_else(|| format!("unknown scenario '{s}'; known: {SCENARIOS:?}"))
        })
        .collect::<Result<_, _>>()?;
    let mut campaign = Campaign {
        scenarios: &scenarios,
        cells: Vec::new(),
    };
    small_suite(ctx, "/chaos/input", &mut campaign)?;
    Ok(campaign.cells)
}

impl ChaosCell {
    /// The cell in schema order — the one definition behind the
    /// `quality_under_failure` JSON objects and the chaos CSV rows.
    pub(crate) fn columns(&self) -> Vec<Column> {
        vec![
            Column::text("app", self.app),
            Column::text("scenario", self.scenario),
            Column::text("driver", self.driver),
            Column::num("clean_s", fmt_f64(self.clean_s)),
            Column::num("faulty_s", fmt_f64(self.faulty_s)),
            Column::num("recovery_s", fmt_f64(self.recovery_s)),
            Column::num("recovery_bytes", self.recovery_bytes),
            Column::num("injected_events", self.injected_events),
            Column::num("tt_quality_delta_s", fmt_f64(self.tt_quality_delta_s)),
            Column::num("incidents", self.incidents),
            Column::num("clean_incidents", self.clean_incidents),
            Column::num("exact_result", self.exact_result),
        ]
    }
}

/// The campaign cells as one CSV document (the CI artifact).
pub fn chaos_csv(cells: &[ChaosCell]) -> String {
    crate::table::csv_doc(cells.iter().map(ChaosCell::columns))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_scenario_names_the_valid_set() {
        let err = campaign(&ExperimentCtx { scale: 0.01 }, &["quake"]).unwrap_err();
        assert!(err.contains("unknown scenario 'quake'"), "{err}");
        for s in SCENARIOS {
            assert!(err.contains(s), "error must name {s}: {err}");
        }
        let err = plan_for("quake", 10.0, &ClusterSpec::small(), 4).unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
    }

    #[test]
    fn node_crash_cells_keep_exact_results_and_charge_recovery() {
        let cells = campaign(&ExperimentCtx { scale: 0.01 }, &["node-crash"]).unwrap();
        assert_eq!(cells.len(), CHAOS_APPS.len() * 2);
        for c in &cells {
            assert_eq!(c.scenario, "node-crash");
            assert!(
                c.exact_result,
                "{}/{}: a crash must not change the answer",
                c.app, c.driver
            );
            assert!(
                c.injected_events >= 1,
                "{}/{}: crash never fired",
                c.app,
                c.driver
            );
        }
        // At least one driver side pays visible recovery.
        assert!(cells.iter().any(|c| c.recovery_bytes > 0));
        assert!(cells.iter().any(|c| c.recovery_s > 0.0));
    }

    /// The chaos ↔ monitor coupling, pinned per scenario: every cell
    /// whose fault plan actually fired opens at least one incident,
    /// every scenario has at least one alerting cell, and the matching
    /// clean runs open exactly zero — the monitor is quiet on healthy
    /// runs and loud on every injected fault.
    #[test]
    fn every_fired_scenario_alerts_and_clean_runs_stay_quiet() {
        let cells = campaign(&ExperimentCtx { scale: 0.01 }, &SCENARIOS).unwrap();
        assert_eq!(cells.len(), CHAOS_APPS.len() * SCENARIOS.len() * 2);
        for c in &cells {
            assert_eq!(
                c.clean_incidents, 0,
                "{}/{}/{}: clean run must open no incidents",
                c.app, c.scenario, c.driver
            );
            if c.injected_events > 0 {
                assert!(
                    c.incidents >= 1,
                    "{}/{}/{}: {} faults fired but no incident opened",
                    c.app,
                    c.scenario,
                    c.driver,
                    c.injected_events
                );
            }
        }
        for scenario in SCENARIOS {
            assert!(
                cells
                    .iter()
                    .any(|c| c.scenario == scenario && c.incidents >= 1),
                "scenario {scenario} opened no incidents anywhere"
            );
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let ctx = ExperimentCtx { scale: 0.01 };
        let a = chaos_csv(&campaign(&ctx, &["node-crash"]).unwrap());
        let b = chaos_csv(&campaign(&ctx, &["node-crash"]).unwrap());
        assert_eq!(a, b);
    }
}
