//! Fault-tolerance behaviour: PIC rides on the engine's task re-execution
//! ("if a node running a best-effort phase fails, Hadoop will
//! automatically restart it", paper §VII), injected through the one fault
//! model, [`FaultPlan`], plus the chaos & elasticity scenario matrix
//! (DESIGN.md §12): every fault scenario × app × driver cell must uphold
//! the chaos invariants — crash and preemption leave the converged
//! answer bit-identical to the clean run, recovery bytes reconcile exactly
//! with the ledger, and every injected event is visible as a trace
//! instant.

use pic_bench::experiments::chaos::{campaign, ChaosCell, CHAOS_APPS, SCENARIOS};
use pic_bench::experiments::ExperimentCtx;
use pic_core::prelude::*;
use pic_mapreduce::traits::{FnMapper, FnReducer};
use pic_mapreduce::{Dataset, Engine, JobConfig, JobResult, MapContext, ReduceContext, Timing};
use pic_simnet::chaos::FaultPlan;
use pic_simnet::trace::{check, Trace};
use pic_simnet::{ClusterSpec, NodeId};

fn analytic(name: &str) -> JobConfig {
    JobConfig::new(name).timing(Timing::default_analytic())
}

/// Half a task's startup overhead: a crash this long after a round
/// starts finds every first-wave attempt still in flight.
fn mid_startup_s() -> f64 {
    0.5 * ClusterSpec::small().task_overhead_s
}

/// The sum-by-residue job over 2 000 records in 8 splits, on a fresh
/// small-cluster engine with `plan` armed after the input is loaded (an
/// empty plan is the clean run). Returns the job and its validated trace.
fn sum_by_mod(cfg: &JobConfig, plan: &FaultPlan) -> (JobResult<(u64, u64)>, Trace) {
    let engine = Engine::new(ClusterSpec::small());
    let data = Dataset::create(&engine, "/ft/d", (0..2_000u64).collect(), 8);
    engine.reset();
    engine.arm_chaos(plan).expect("valid plan");
    let mapper = FnMapper::new(|x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(*x % 5, *x));
    let reducer = FnReducer::new(|k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
        ctx.emit((*k, vs.iter().sum()));
    });
    let result = engine.run(cfg, &data, &mapper, &reducer);
    let trace = engine.trace();
    check::validate(&trace, &engine.traffic()).expect("trace passes the structural suite");
    (result, trace)
}

/// Nodes that ran an attempt on a `{phase}-slot-*` lane, ascending.
fn nodes_on(trace: &Trace, phase: &str) -> Vec<NodeId> {
    let lane = format!("{phase}-slot-");
    let mut nodes: Vec<NodeId> = trace
        .spans
        .iter()
        .filter(|s| s.cat == "task" && s.lane.starts_with(&lane))
        .filter_map(|s| s.arg_u64("node"))
        .map(|n| n as NodeId)
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

/// Attempts a node crash killed on `{phase}-slot-*` lanes.
fn killed_on(trace: &Trace, phase: &str) -> usize {
    let lane = format!("{phase}-slot-");
    trace
        .instants
        .iter()
        .filter(|i| i.name == "task-killed" && i.lane.starts_with(&lane))
        .count()
}

#[test]
fn failed_tasks_are_reexecuted_with_identical_results() {
    // Crash, in turn, each node that runs a map attempt while the attempt
    // is in flight: the lost work re-runs elsewhere, which costs map time
    // and changes nothing in the answer.
    let cfg = analytic("m");
    let (clean, clean_trace) = sum_by_mod(&cfg, &FaultPlan::new(0));
    let nodes = nodes_on(&clean_trace, "map");
    assert!(nodes.len() > 1, "map attempts ran on {nodes:?}");
    for node in nodes {
        let plan = FaultPlan::new(0).node_crash(node, mid_startup_s());
        let (faulty, trace) = sum_by_mod(&cfg, &plan);
        assert!(
            killed_on(&trace, "map") >= 1,
            "crash of node {node} killed nothing"
        );
        assert_eq!(
            faulty.output, clean.output,
            "crash of node {node} changed the answer"
        );
        assert!(faulty.stats.map_time_s > clean.stats.map_time_s);
    }
}

#[test]
fn failed_map_only_tasks_are_reexecuted_with_identical_results() {
    // The map-only twin: a job with zero reducers runs the same map stage,
    // so a crash re-executes the lost attempts there too, and recovery is
    // the DFS re-replication plus each killed attempt's split.
    let mapper = FnMapper::new(|x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(*x % 5, *x));
    let run = |plan: &FaultPlan| {
        let engine = Engine::new(ClusterSpec::small());
        let data = Dataset::create(&engine, "/ft/mo", (0..2_000u64).collect(), 8);
        engine.reset();
        engine.arm_chaos(plan).expect("valid plan");
        let result = engine.run_map_only(&analytic("mo"), &data, &mapper);
        let (trace, traffic) = (engine.trace(), engine.traffic());
        check::validate(&trace, &traffic).expect("trace passes the structural suite");
        (result, trace, traffic.recovery_total(), data)
    };
    let (clean, clean_trace, clean_recovery, _) = run(&FaultPlan::new(0));
    assert_eq!(clean_recovery, 0);
    let node = nodes_on(&clean_trace, "map")[0];
    let (faulty, trace, recovery, data) = run(&FaultPlan::new(0).node_crash(node, mid_startup_s()));

    assert_eq!(faulty.output, clean.output);
    assert!(faulty.stats.map_time_s > clean.stats.map_time_s);
    let killed: Vec<usize> = trace
        .instants
        .iter()
        .filter(|i| i.name == "task-killed")
        .filter_map(|i| i.arg_u64("task"))
        .map(|t| t as usize)
        .collect();
    assert!(!killed.is_empty(), "the crash killed no attempt");
    let rereplicated: u64 = trace
        .instants
        .iter()
        .filter(|i| i.name == "re-replicate")
        .filter_map(|i| i.arg_u64("bytes"))
        .sum();
    let lost_splits: u64 = killed.iter().map(|&t| data.splits[t].bytes).sum();
    assert_eq!(recovery, rereplicated + lost_splits);
}

#[test]
fn multiple_failures_in_one_job() {
    // Two nodes die at different moments of the same map phase.
    let cfg = analytic("multi");
    let (clean, clean_trace) = sum_by_mod(&cfg, &FaultPlan::new(0));
    let nodes = nodes_on(&clean_trace, "map");
    let plan = FaultPlan::new(0)
        .node_crash(nodes[0], 0.5 * mid_startup_s())
        .node_crash(nodes[1], mid_startup_s());
    let (faulty, trace) = sum_by_mod(&cfg, &plan);
    assert!(killed_on(&trace, "map") >= 2);
    assert_eq!(faulty.output, clean.output);
}

#[test]
fn failed_reduce_tasks_are_reexecuted_with_identical_results() {
    // The reduce-side mirror: each node running a reduce attempt crashes
    // after the map phase, while that attempt is in flight. The reduce
    // phase pays the re-execution; the map phase, the shuffle volume and
    // the answer are untouched.
    let cfg = analytic("r").reducers(4);
    let (clean, clean_trace) = sum_by_mod(&cfg, &FaultPlan::new(0));
    let t_reduce = clean.stats.map_time_s.max(clean.stats.shuffle_time_s);
    for node in nodes_on(&clean_trace, "red") {
        let plan = FaultPlan::new(0).node_crash(node, t_reduce + mid_startup_s());
        let (faulty, trace) = sum_by_mod(&cfg, &plan);
        assert!(
            killed_on(&trace, "red") >= 1,
            "crash of node {node} killed nothing"
        );
        assert_eq!(killed_on(&trace, "map"), 0);
        assert_eq!(
            faulty.output, clean.output,
            "crash of node {node} changed the answer"
        );
        assert_eq!(faulty.stats.map_time_s, clean.stats.map_time_s);
        assert!(faulty.stats.reduce_time_s > clean.stats.reduce_time_s);
        assert_eq!(faulty.stats.shuffle_bytes, clean.stats.shuffle_bytes);
    }
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
        "3 scenarios x 3 apps x (ic, pic)"
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
    let clean_errs: Vec<f64> = clean.trajectory.iter().map(|p| p.err).collect();
    let faulty_errs: Vec<f64> = faulty.trajectory.iter().map(|p| p.err).collect();
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
