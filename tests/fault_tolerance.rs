//! Fault-tolerance behaviour: PIC rides on the engine's task re-execution
//! ("if a node running a best-effort phase fails, Hadoop will
//! automatically restart it", paper §VII), plus the chaos & elasticity
//! scenario matrix (DESIGN.md §12): every fault scenario × app × driver
//! cell must uphold the chaos invariants — crash/degrade/preemption
//! leave the converged answer bit-identical to the clean run, recovery
//! bytes reconcile exactly with the ledger, and every injected event is
//! visible as a trace instant.

use pic_bench::experiments::chaos::{campaign, ChaosCell, CHAOS_APPS, SCENARIOS};
use pic_bench::experiments::ExperimentCtx;
use pic_core::prelude::*;
use pic_mapreduce::traits::{FnMapper, FnReducer};
use pic_mapreduce::{Dataset, Engine, JobConfig, MapContext, ReduceContext, Timing};
use pic_simnet::chaos::FaultPlan;
use pic_simnet::trace::check;
use pic_simnet::ClusterSpec;

fn analytic(name: &str) -> JobConfig {
    JobConfig::new(name).timing(Timing::default_analytic())
}

fn sum_by_mod(engine: &Engine, data: &Dataset<u64>, cfg: &JobConfig) -> Vec<(u64, u64)> {
    let mapper = FnMapper::new(|x: &u64, ctx: &mut MapContext<u64, u64>| {
        ctx.emit(*x % 5, *x);
    });
    let reducer = FnReducer::new(|k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
        ctx.emit((*k, vs.iter().sum()));
    });
    let mut out = engine.run(cfg, data, &mapper, &reducer).output;
    out.sort();
    out
}

#[test]
fn failed_tasks_are_reexecuted_with_identical_results() {
    let engine = Engine::new(ClusterSpec::small());
    let data = Dataset::create(&engine, "/ft/d", (0..2_000u64).collect(), 8);
    let clean = sum_by_mod(&engine, &data, &analytic("clean"));
    for failing_task in [0usize, 3, 7] {
        let faulty = sum_by_mod(
            &engine,
            &data,
            &analytic("faulty").fail_map_task(failing_task),
        );
        assert_eq!(
            clean, faulty,
            "failure of task {failing_task} changed the answer"
        );
    }
}

#[test]
fn retries_cost_time_but_not_extra_traffic() {
    let engine = Engine::new(ClusterSpec::small());
    let data = Dataset::create(&engine, "/ft/t", (0..2_000u64).collect(), 8);

    let mapper = FnMapper::new(|x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(*x % 5, *x));
    let reducer = FnReducer::new(|k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
        ctx.emit((*k, vs.iter().sum()));
    });

    let clean = engine.run(&analytic("c"), &data, &mapper, &reducer);
    let faulty = engine.run(&analytic("f").fail_map_task(2), &data, &mapper, &reducer);
    assert_eq!(faulty.stats.retried_tasks, 1);
    assert!(faulty.stats.map_time_s >= clean.stats.map_time_s);
    assert_eq!(faulty.stats.shuffle_bytes, clean.stats.shuffle_bytes);
}

#[test]
fn failed_map_only_tasks_are_reexecuted_with_identical_results() {
    // The map-only twin: a job with zero reducers runs the same map stage,
    // so an injected map failure is retried, marked and paid for there too.
    let mapper = FnMapper::new(|x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(*x % 5, *x));
    let run = |cfg: &JobConfig| {
        let engine = Engine::new(ClusterSpec::small());
        let data = Dataset::create(&engine, "/ft/mo", (0..2_000u64).collect(), 8);
        engine.reset();
        let res = engine.run_map_only(cfg, &data, &mapper);
        (res, engine.trace())
    };
    let (clean, clean_trace) = run(&analytic("mo"));
    let (faulty, faulty_trace) = run(&analytic("mo").fail_map_task(2));
    assert_eq!(clean.stats.retried_tasks, 0);
    assert_eq!(check::sched_events(&clean_trace, "retry"), 0);
    assert_eq!(faulty.stats.retried_tasks, 1);
    assert_eq!(check::sched_events(&faulty_trace, "retry"), 1);
    assert!(faulty.stats.map_time_s > clean.stats.map_time_s);
    assert_eq!(faulty.output, clean.output);
}

#[test]
fn multiple_failures_in_one_job() {
    let engine = Engine::new(ClusterSpec::small());
    let data = Dataset::create(&engine, "/ft/m", (0..500u64).collect(), 10);
    let cfg = analytic("multi")
        .fail_map_task(1)
        .fail_map_task(4)
        .fail_map_task(9);
    let out = sum_by_mod(&engine, &data, &cfg);
    let clean = sum_by_mod(&engine, &data, &analytic("ref"));
    assert_eq!(out, clean);
}

#[test]
fn failed_reduce_tasks_are_reexecuted_with_identical_results() {
    // The reduce-side mirror of the map-failure equivalence: the first
    // attempt of the named reduce task fails and re-runs, costing time
    // but changing neither the answer nor the shuffle volume.
    let engine = Engine::new(ClusterSpec::small());
    let data = Dataset::create(&engine, "/ft/r", (0..2_000u64).collect(), 8);
    let clean = sum_by_mod(&engine, &data, &analytic("clean").reducers(4));
    for failing_task in [0usize, 2, 3] {
        let faulty = sum_by_mod(
            &engine,
            &data,
            &analytic("faulty")
                .reducers(4)
                .fail_reduce_task(failing_task),
        );
        assert_eq!(
            clean, faulty,
            "failure of reduce task {failing_task} changed the answer"
        );
    }

    let mapper = FnMapper::new(|x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(*x % 5, *x));
    let reducer = FnReducer::new(|k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
        ctx.emit((*k, vs.iter().sum()));
    });
    let clean = engine.run(&analytic("c").reducers(4), &data, &mapper, &reducer);
    let faulty = engine.run(
        &analytic("f").reducers(4).fail_reduce_task(1),
        &data,
        &mapper,
        &reducer,
    );
    assert_eq!(faulty.stats.retried_tasks, 1);
    assert!(faulty.stats.reduce_time_s > clean.stats.reduce_time_s);
    assert_eq!(faulty.stats.shuffle_bytes, clean.stats.shuffle_bytes);
}

// --- the chaos & elasticity scenario matrix (DESIGN.md §12) ---

/// Every (scenario, app, driver) cell of the campaign, at smoke scale.
/// `cells_for` has already re-validated every faulty trace (structural
/// suite + chaos checks + exact byte reconciliation) before returning.
fn matrix() -> Vec<ChaosCell> {
    campaign(&ExperimentCtx { scale: 0.01 }, &SCENARIOS).expect("campaign runs")
}

#[test]
fn scenario_matrix_upholds_the_chaos_invariants() {
    let cells = matrix();
    assert_eq!(
        cells.len(),
        SCENARIOS.len() * CHAOS_APPS.len() * 2,
        "4 scenarios x 3 apps x (ic, pic)"
    );
    for c in &cells {
        assert!(c.clean_s > 0.0 && c.faulty_s > 0.0, "{c:?}");
        match c.scenario {
            // Chaos never touches host computation: anything that only
            // perturbs timing and traffic must reproduce the clean
            // answer exactly.
            "node-crash" | "preemption-wave" => {
                assert!(
                    c.exact_result,
                    "{}/{}/{}: result drifted",
                    c.app, c.scenario, c.driver
                );
                assert!(
                    c.injected_events >= 1,
                    "{}/{}/{}: fault never fired",
                    c.app,
                    c.scenario,
                    c.driver
                );
            }
            // Degradation stretches transfers; no attempt is killed, so
            // nothing is charged to the recovery class.
            "rack-degrade" => {
                assert!(c.exact_result, "{}/{}: result drifted", c.app, c.driver);
                assert_eq!(
                    c.recovery_bytes, 0,
                    "{}/{}: degradation charged recovery bytes",
                    c.app, c.driver
                );
                assert!(
                    c.faulty_s >= c.clean_s,
                    "{}/{}: degraded run faster than clean",
                    c.app,
                    c.driver
                );
            }
            // The one scenario that may legitimately move the answer
            // (the partitioning changes); it must still fire, pay a
            // visible rebalance, and report a finite quality penalty.
            "elastic-resize" => {
                assert!(
                    c.injected_events >= 1,
                    "{}/{}: resize never fired",
                    c.app,
                    c.driver
                );
                assert!(
                    c.recovery_bytes > 0,
                    "{}/{}: resize paid no rebalance traffic",
                    c.app,
                    c.driver
                );
                assert!(c.tt_quality_delta_s.is_finite());
            }
            other => panic!("unknown scenario in matrix: {other}"),
        }
    }
    // Crashes cost time somewhere in the matrix.
    assert!(cells
        .iter()
        .filter(|c| c.scenario == "node-crash")
        .any(|c| c.recovery_s > 0.0 && c.recovery_bytes > 0));
}

#[test]
fn injected_crash_preserves_quality_trajectories_and_reconciles_recovery() {
    use pic_apps::linsolve::{diag_dominant_system, LinSolveApp};
    let n = 100;
    let sys = diag_dominant_system(n, 0.05, 11);
    let app = LinSolveApp::new(n, 5, 1e-8).with_exact(sys.exact.clone());
    let timing = Timing::default_analytic();

    let clean_engine = Engine::new(ClusterSpec::small());
    let data = Dataset::create(&clean_engine, "/chaos/ls", sys.rows.clone(), 5);
    clean_engine.reset();
    let clean = run_ic(
        &clean_engine,
        &app,
        &data,
        vec![0.0; n],
        &IcOptions {
            timing: timing.clone(),
            ..Default::default()
        },
    );

    let engine = Engine::new(ClusterSpec::small());
    let data = Dataset::create(&engine, "/chaos/ls", sys.rows.clone(), 5);
    engine.reset();
    engine
        .arm_chaos(&FaultPlan::new(9).node_crash(1, 0.3 * clean.total_time_s))
        .expect("valid plan");
    let faulty = run_ic(
        &engine,
        &app,
        &data,
        vec![0.0; n],
        &IcOptions {
            timing,
            ..Default::default()
        },
    );

    // The answer and the whole quality *sequence* are bit-identical —
    // the crash only re-runs work, it never changes it. Only the clock
    // moves.
    assert_eq!(faulty.final_model, clean.final_model);
    let clean_errs: Vec<f64> = clean.trajectory.iter().map(|p| p.error).collect();
    let faulty_errs: Vec<f64> = faulty.trajectory.iter().map(|p| p.error).collect();
    assert_eq!(
        clean_errs, faulty_errs,
        "crash perturbed the quality sequence"
    );
    assert!(
        faulty.total_time_s > clean.total_time_s,
        "crash cost no time"
    );

    // Traced recovery bytes reconcile == with the ledger, the crash is
    // visible as a chaos instant, and the full structural suite holds.
    let trace = engine.trace();
    let traffic = engine.traffic();
    let traced: u64 = trace
        .instants
        .iter()
        .filter(|i| i.cat == "traffic" && i.name == "recovery")
        .filter_map(|i| i.arg_u64("bytes"))
        .sum();
    assert!(traffic.recovery_total() > 0, "crash charged no recovery");
    assert_eq!(traced, traffic.recovery_total());
    assert!(trace
        .instants
        .iter()
        .any(|i| i.cat == "chaos" && i.name == "node-crash"));
    check::validate(&trace, &traffic).expect("faulty trace passes the structural suite");
}
