//! Invariants of the quality-of-convergence telemetry (DESIGN.md §10)
//! over full IC and PIC runs of every case study:
//!
//! * error trajectories are **strictly monotone in `t_s`** — each probe
//!   lands at a later simulated instant than the previous one, in both
//!   drivers (the PIC curve spans the BE → top-off handoff);
//! * the last trajectory point's error equals the converged model's
//!   `error` **exactly** (`==`) — the curve ends where the metric of
//!   the returned model says it does, so report, trace and driver all
//!   describe the same run;
//! * `be_final_error` is populated whenever the app defines an error
//!   metric, and equals the `error` of the handoff model;
//! * every `quality` instant carries only `iteration`, `objective` and
//!   `local_iterations` — the error is the one quality signal;
//! * converged linsolve and smoothing runs are fixed points of the
//!   app's sequential reference (`residual_l2`, `sequential_sweep`).

use pic_core::prelude::*;
use pic_core::report::{IcReport, PicReport};
use pic_mapreduce::{Dataset, Engine, Timing};
use pic_simnet::{ClusterSpec, QualityPoint};

fn timing() -> Timing {
    Timing::default_analytic()
}

fn assert_strictly_monotone_t(name: &str, traj: &[QualityPoint]) {
    assert!(!traj.is_empty(), "{name}: empty trajectory");
    for pair in traj.windows(2) {
        assert!(
            pair[1].t_s > pair[0].t_s,
            "{name}: trajectory not strictly monotone in t_s: {} then {}",
            pair[0].t_s,
            pair[1].t_s
        );
    }
}

/// The shared contract: both curves strictly monotone, both final points
/// reconciling exactly with a fresh `error` of the returned models, and
/// the BE handoff error recorded and reconciling with the BE model.
fn assert_quality_invariants<A: IterativeApp>(
    name: &str,
    app: &A,
    ic: &IcReport<A::Model>,
    pic: &PicReport<A::Model>,
) {
    assert_strictly_monotone_t(&format!("{name}/ic"), &ic.trajectory);
    assert_strictly_monotone_t(&format!("{name}/pic"), &pic.trajectory);

    let probe = |m: &A::Model| -> f64 {
        app.error(m)
            .unwrap_or_else(|| panic!("{name}: error metric is None"))
    };
    assert_eq!(
        ic.trajectory.last().unwrap().err,
        probe(&ic.final_model),
        "{name}/ic: last trajectory error != error of final model"
    );
    assert_eq!(
        pic.trajectory.last().unwrap().err,
        probe(&pic.final_model),
        "{name}/pic: last trajectory error != error of final model"
    );
    let be_err = pic
        .be_final_error
        .unwrap_or_else(|| panic!("{name}: be_final_error is None"));
    assert_eq!(
        be_err,
        probe(&pic.be_model),
        "{name}: be_final_error != error of BE handoff model"
    );
}

/// Run IC then PIC on one traced engine and check that every `quality`
/// instant either driver recorded carries only the allowed args.
fn run_both<A: PicApp>(
    app: &A,
    records: Vec<A::Record>,
    init: A::Model,
    blocks: usize,
    partitions: usize,
) -> (IcReport<A::Model>, PicReport<A::Model>) {
    let e = Engine::new(ClusterSpec::small());
    let d = Dataset::create(&e, "/qi/data", records, blocks);
    let ic = run_ic(
        &e,
        app,
        &d,
        init.clone(),
        &IcOptions {
            timing: timing(),
            ..Default::default()
        },
    );
    let pic = run_pic(
        &e,
        app,
        &d,
        init,
        &PicOptions {
            partitions,
            timing: timing(),
            ..Default::default()
        },
    );
    let trace = e.trace();
    let samples: Vec<_> = trace
        .instants
        .iter()
        .filter(|i| i.cat == "quality")
        .collect();
    assert_eq!(
        samples.len(),
        ic.iterations + pic.be_iterations + pic.topoff_iterations,
        "one quality instant per iteration"
    );
    for i in samples {
        for (key, _) in &i.args {
            assert!(
                ["iteration", "objective", "local_iterations"].contains(&key.as_str()),
                "{}: unexpected quality arg {key:?}",
                app.name()
            );
        }
    }
    (ic, pic)
}

#[test]
fn kmeans_quality_invariants() {
    use pic_apps::kmeans::{gaussian_mixture, init_random_centroids, Centroids, KMeansApp};
    let pts = gaussian_mixture(2_000, 10, 3, 100.0, 2.0, 1);
    let init = Centroids::new(init_random_centroids(10, 3, 100.0, 2));
    let app = KMeansApp::new(10, 3, 1e-3);
    let sample: Vec<_> = pts.iter().step_by(4).cloned().collect();
    let reference = app.solve_reference(&sample, &init, 100);
    let app = app.with_eval_sample(sample, &reference);
    let (ic, pic) = run_both(&app, pts, init, 12, 4);
    assert_quality_invariants("kmeans", &app, &ic, &pic);
}

#[test]
fn pagerank_quality_invariants() {
    use pic_apps::pagerank::{block_local_graph, PageRankApp, PartitionMode};
    let g = block_local_graph(1_000, 4, 2, 5, 0.9, 3);
    let app = PageRankApp::new(g.clone(), 4, PartitionMode::Block, 1);
    let reference = app.solve_reference(50);
    let app = app.with_reference(reference);
    let init = app.initial_model();
    let (ic, pic) = run_both(&app, g.records(), init, 12, 4);
    assert_quality_invariants("pagerank", &app, &ic, &pic);
}

#[test]
fn neuralnet_quality_invariants() {
    use pic_apps::neuralnet::{ocr_like_split, Mlp, NeuralNetApp};
    let (train, valid) = ocr_like_split(300, 60, 3, 8, 0.08, 5);
    let mut app = NeuralNetApp::new(valid);
    app.max_iterations = 25;
    let init = Mlp::random(8, 6, 3, 7);
    let (ic, pic) = run_both(&app, train, init, 6, 3);
    assert_quality_invariants("neuralnet", &app, &ic, &pic);
}

#[test]
fn linsolve_quality_invariants() {
    use pic_apps::linsolve::{diag_dominant_system, residual_l2, LinSolveApp};
    let n = 60;
    let sys = diag_dominant_system(n, 0.3, 9);
    let app = LinSolveApp::new(n, 4, 1e-9).with_exact(sys.exact.clone());
    let (ic, pic) = run_both(&app, sys.rows.clone(), vec![0.0; n], 6, 4);
    assert_quality_invariants("linsolve", &app, &ic, &pic);

    // Fixed-point oracle: for Jacobi, b − Ax_k = D(x_{k+1} − x_k), and the
    // sweep is a sup-norm contraction, so a model whose last step moved no
    // unknown by `threshold` has ‖Ax − b‖₂ ≤ √n · max|a_ii| · threshold.
    let max_diag = sys
        .rows
        .iter()
        .map(|r| r.a[r.i as usize].abs())
        .fold(0.0, f64::max);
    let bound = (n as f64).sqrt() * max_diag * app.threshold;
    for (driver, converged, x) in [
        ("ic", ic.converged, &ic.final_model),
        ("pic", pic.topoff_converged, &pic.final_model),
    ] {
        assert!(converged, "linsolve/{driver} did not converge");
        let r = residual_l2(&sys.rows, x);
        assert!(r <= bound, "linsolve/{driver}: ‖Ax−b‖₂ = {r:e} > {bound:e}");
    }
}

#[test]
fn smoothing_quality_invariants() {
    use pic_apps::smoothing::{noisy_image, SmoothingApp};
    let f = noisy_image(16, 16, 0.05, 11);
    let app = SmoothingApp::new(16, 16, 4, 1e-5).with_observed(f.clone());
    let (ic, pic) = run_both(&app, f.rows(), f.clone(), 8, 4);
    assert_quality_invariants("smoothing", &app, &ic, &pic);

    // Fixed-point oracle: the sweep is a sup-norm contraction with factor
    // 1 − μ, so one more sweep of a converged image moves no pixel by
    // `threshold` or more.
    for (driver, converged, u) in [
        ("ic", ic.converged, &ic.final_model),
        ("pic", pic.topoff_converged, &pic.final_model),
    ] {
        assert!(converged, "smoothing/{driver} did not converge");
        let moved = app.sequential_sweep(u, &f).max_diff(u);
        assert!(
            moved < app.threshold,
            "smoothing/{driver}: one more sweep moves a pixel by {moved:e}"
        );
    }
}
