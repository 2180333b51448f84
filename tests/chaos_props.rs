//! Property-based coverage for the fault-injection layer (DESIGN.md §12):
//! replaying the same seeded [`FaultPlan`] is byte-for-byte deterministic,
//! non-resize chaos never perturbs the converged model, and a hand-rolled
//! bisection over crash times pins the boundary past which a crash can no
//! longer affect the run.

use pic_apps::linsolve::{diag_dominant_system, LinSolveApp};
use pic_core::prelude::*;
use pic_mapreduce::{Dataset, Engine, Timing};
use pic_simnet::chaos::FaultPlan;
use pic_simnet::report::fmt_f64;
use pic_simnet::trace::{check, Span, SpanId};
use pic_simnet::ClusterSpec;
use proptest::prelude::*;
use std::collections::HashMap;

fn app() -> (LinSolveApp, Vec<pic_apps::linsolve::Row>, usize) {
    let n = 60;
    let sys = diag_dominant_system(n, 0.05, 11);
    let app = LinSolveApp::new(n, 5, 1e-8)
        .with_exact(sys.exact.clone())
        .with_rows(sys.rows.clone());
    (app, sys.rows, n)
}

/// One full IC run under `plan`, summarized as a deterministic string:
/// every field that could expose nondeterminism (times, trajectory,
/// traffic, trace volume, injection count) rendered with exact float
/// formatting.
fn replay(plan: Option<&FaultPlan>) -> (Vec<f64>, String) {
    let (app, rows, n) = app();
    let engine = Engine::new(ClusterSpec::small());
    let data = Dataset::create(&engine, "/props/ls", rows, 5);
    engine.reset();
    if let Some(p) = plan {
        engine.arm_chaos(p).expect("valid plan");
    }
    let r = run_ic(
        &engine,
        &app,
        &data,
        vec![0.0; n],
        &IcOptions {
            timing: Timing::default_analytic(),
            ..Default::default()
        },
    );
    let trace = engine.trace();
    let mut s = String::new();
    s.push_str(&format!(
        "iters={} converged={} total={}\n",
        r.iterations,
        r.converged,
        fmt_f64(r.total_time_s)
    ));
    for p in &r.trajectory {
        s.push_str(&format!("t={} err={}\n", fmt_f64(p.t_s), fmt_f64(p.error)));
    }
    s.push_str(&format!(
        "traffic={:?}\nspans={} instants={} injected={}\n",
        engine.traffic(),
        trace.spans.len(),
        trace.instants.len(),
        engine.chaos().injected_events()
    ));
    (r.final_model, s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Identical seed + plan ⇒ byte-identical replay, and a plan with no
    /// elastic resize ⇒ the converged model is bit-equal to the clean
    /// run's: chaos only perturbs simulated timing and traffic, never
    /// host computation.
    #[test]
    fn seeded_plans_replay_identically_and_preserve_the_model(
        seed in 0u64..1_000,
        crash_node in 1usize..6,
        crash_frac in 0.05f64..1.2,
        // factor < 1.5 means "no degradation window in this plan";
        // wave_nodes == 0 means "no preemption wave".
        degrade_factor in 0.0f64..6.0,
        degrade_w in (0.0f64..0.5, 0.55f64..1.0),
        wave_nodes in 0usize..3,
        wave_frac in 0.1f64..0.9,
    ) {
        let (_, clean_summary) = replay(None);
        let t_clean: f64 = clean_summary
            .lines()
            .next()
            .and_then(|l| l.rsplit('=').next())
            .and_then(|v| v.parse().ok())
            .expect("summary leads with the total");
        let (clean_model, _) = replay(None);

        let mut plan = FaultPlan::new(seed).node_crash(crash_node, crash_frac * t_clean);
        if degrade_factor >= 1.5 {
            let (f0, f1) = degrade_w;
            plan = plan.degrade_links(degrade_factor, f0 * t_clean, f1 * t_clean);
        }
        if wave_nodes > 0 {
            plan = plan.preemption_wave(wave_nodes, wave_frac * t_clean);
        }

        let (model_a, summary_a) = replay(Some(&plan));
        let (model_b, summary_b) = replay(Some(&plan));
        prop_assert_eq!(&summary_a, &summary_b, "replay of one plan diverged");
        prop_assert_eq!(&model_a, &model_b);
        prop_assert_eq!(&model_a, &clean_model, "non-resize chaos moved the model");
    }
}

/// Whether a crash of node 1 at `t` actually fires during the run.
fn crash_fires(t: f64) -> bool {
    let (app, rows, n) = app();
    let engine = Engine::new(ClusterSpec::small());
    let data = Dataset::create(&engine, "/props/bisect", rows, 5);
    engine.reset();
    engine
        .arm_chaos(&FaultPlan::new(7).node_crash(1, t))
        .expect("valid plan");
    run_ic(
        &engine,
        &app,
        &data,
        vec![0.0; n],
        &IcOptions {
            timing: Timing::default_analytic(),
            ..Default::default()
        },
    );
    engine.chaos().injected_events() > 0
}

/// Hand-rolled bisection for the minimal *ineffective* crash time: the
/// predicate "a crash at `t` fires" is monotone (later crashes can only
/// miss more of the run), so the boundary between firing and missing is
/// a single point, found here to 1e-3 s without any shrinking support
/// from the vendored proptest.
#[test]
fn crash_time_bisection_pins_the_effective_window() {
    let (_, clean_summary) = replay(None);
    let t_clean: f64 = clean_summary
        .lines()
        .next()
        .and_then(|l| l.rsplit('=').next())
        .and_then(|v| v.parse().ok())
        .expect("summary leads with the total");

    assert!(crash_fires(0.0), "a crash before the run must fire");
    let mut lo = 0.0; // known to fire
    let mut hi = 4.0 * t_clean; // safely past any possible phase window
    assert!(!crash_fires(hi), "a crash far past the run must not fire");
    while hi - lo > 1e-3 {
        let mid = 0.5 * (lo + hi);
        if crash_fires(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // The boundary sits at or after the clean finish time (a crash can
    // only fire while some phase is still scheduling) and within the
    // faulty run's own horizon.
    assert!(
        lo >= t_clean - 1e-3,
        "crash window ends at {lo} before the clean finish {t_clean}"
    );
    assert!(
        hi <= 4.0 * t_clean,
        "crash window end {hi} beyond any plausible horizon"
    );
    // Monotonicity spot-check on both sides of the found boundary.
    for frac in [0.25, 0.5, 0.75] {
        assert!(crash_fires(frac * lo), "crash inside the window missed");
    }
    assert!(!crash_fires(hi * 1.5), "crash past the window fired");
}

/// Start and duration of the `rebalance` transfer an elastic resize pays
/// under `plan`, for the IC (`pic == false`) or PIC driver.
fn rebalance_span(pic: bool, plan: &FaultPlan) -> (f64, f64) {
    let (app, rows, n) = app();
    let engine = Engine::new(ClusterSpec::small());
    let data = Dataset::create(&engine, "/props/rebalance", rows, 5);
    engine.reset();
    engine.arm_chaos(plan).expect("valid plan");
    if pic {
        let opts = PicOptions {
            partitions: 5, // the app's fixed block count
            ..Default::default()
        };
        run_pic(&engine, &app, &data, vec![0.0; n], &opts);
    } else {
        run_ic(&engine, &app, &data, vec![0.0; n], &IcOptions::default());
    }
    let trace = engine.trace();
    check::validate(&trace, &engine.traffic()).expect("resized trace validates");
    let span = trace
        .spans
        .iter()
        .find(|s| s.cat == "transfer" && s.name == "rebalance")
        .expect("the resize pays a rebalance transfer");
    (span.t0, span.duration_s())
}

/// An IC run shrunk from 6 to 4 nodes after its first iteration gives
/// every later job one reduce task per remaining node, all of them on the
/// remaining nodes.
#[test]
fn resized_ic_jobs_reduce_on_one_task_per_remaining_node() {
    let (app, rows, n) = app();
    let engine = Engine::new(ClusterSpec::small());
    let data = Dataset::create(&engine, "/props/reducers", rows, 5);
    engine.reset();
    engine
        .arm_chaos(&FaultPlan::new(3).elastic_resize(1, 5, 4))
        .expect("valid plan");
    run_ic(&engine, &app, &data, vec![0.0; n], &IcOptions::default());
    let trace = engine.trace();
    let by_id: HashMap<SpanId, &Span> = trace.spans.iter().map(|s| (s.id, s)).collect();
    let job_of = |s: &Span| {
        let mut at = s.parent;
        while let Some(p) = at.map(|id| by_id[&id]) {
            if p.cat == "job" {
                return Some(p.id);
            }
            at = p.parent;
        }
        None
    };
    let rebalance = trace
        .spans
        .iter()
        .find(|s| s.name == "rebalance")
        .expect("the resize pays a rebalance transfer");
    let jobs: Vec<SpanId> = trace
        .spans
        .iter()
        .filter(|s| s.cat == "job" && s.t0 >= rebalance.t1)
        .map(|s| s.id)
        .collect();
    assert!(!jobs.is_empty(), "the run continues after the resize");
    for job in jobs {
        let nodes: Vec<u64> = trace
            .spans
            .iter()
            .filter(|s| s.name.starts_with("red-task-") && job_of(s) == Some(job))
            .map(|s| s.arg_u64("node").expect("task spans carry their node"))
            .collect();
        assert_eq!(nodes.len(), 4, "{}: {nodes:?}", by_id[&job].name);
        assert!(nodes.iter().all(|&node| node < 4), "{nodes:?}");
    }
}

/// A link brown-out stretches the rebalance transfer like every other
/// transfer: a 4× window opening exactly at the rebalance makes it take 4×
/// the resize-only run's time, under both drivers.
#[test]
fn degraded_links_stretch_the_rebalance_transfer() {
    for pic in [false, true] {
        let resize = FaultPlan::new(3).elastic_resize(1, 5, 4);
        let (t_rb, clean_s) = rebalance_span(pic, &resize);
        assert!(clean_s > 0.0);
        let degraded = resize.degrade_links(4.0, t_rb, t_rb + clean_s);
        let (t_degraded, degraded_s) = rebalance_span(pic, &degraded);
        assert_eq!(t_degraded, t_rb, "nothing before the window moves");
        assert!(
            (degraded_s - 4.0 * clean_s).abs() <= 1e-9 * degraded_s,
            "pic={pic}: rebalance took {degraded_s} s degraded vs {clean_s} s clean"
        );
    }
}
