//! The paper's §III.B special case, tested exactly: "If the number of
//! partitions is one, the merge function becomes the identity function
//! ... and the BE_converged function terminates the best-effort process
//! after only one iteration, the best-effort phase of PIC degenerates to
//! the conventional implementation."
//!
//! For deterministic apps (the linear solver, smoothing), one partition ×
//! one local iteration must produce bit-identical models to one IC
//! iteration — PIC adds no numerical approximation in the degenerate
//! configuration.

use pic_apps::linsolve::{diag_dominant_system, LinSolveApp};
use pic_apps::smoothing::{noisy_image, SmoothingApp};
use pic_core::prelude::*;
use pic_mapreduce::{Dataset, Engine, Timing};
use pic_simnet::ClusterSpec;

/// `A` capped at one local iteration, one best-effort round and one
/// top-off iteration: the degenerate configuration. Everything the models
/// depend on is delegated; error tracking is off and the fanout is the
/// default.
struct OneRound<A>(A);

impl<A: PicApp> IterativeApp for OneRound<A> {
    type Record = A::Record;
    type Model = A::Model;

    fn name(&self) -> &str {
        self.0.name()
    }

    fn iterate(
        &self,
        engine: &Engine,
        data: &Dataset<A::Record>,
        model: &A::Model,
        scope: &IterScope,
    ) -> A::Model {
        self.0.iterate(engine, data, model, scope)
    }

    fn converged(&self, prev: &A::Model, next: &A::Model) -> bool {
        self.0.converged(prev, next)
    }
}

impl<A: PicApp> PicApp for OneRound<A> {
    fn partition_data(&self, data: &Dataset<A::Record>, parts: usize) -> Vec<Vec<A::Record>> {
        self.0.partition_data(data, parts)
    }

    fn split_model(&self, model: &A::Model, parts: usize) -> Vec<A::Model> {
        self.0.split_model(model, parts)
    }

    fn merge(&self, subs: &[A::Model], prev: &A::Model) -> A::Model {
        self.0.merge(subs, prev)
    }

    fn solve_local(
        &self,
        part: usize,
        records: &[A::Record],
        model: &A::Model,
        cap: usize,
    ) -> (A::Model, usize) {
        self.0.solve_local(part, records, model, cap)
    }

    fn local_iteration_cap(&self) -> usize {
        1
    }

    fn max_be_iterations(&self) -> usize {
        1
    }

    fn max_topoff_iterations(&self) -> usize {
        1
    }
}

#[test]
fn linsolve_one_partition_one_local_iteration_equals_one_ic_iteration() {
    let n = 40;
    let sys = diag_dominant_system(n, 0.3, 5);
    let app = LinSolveApp::new(n, 1, 1e-12);
    let x0 = vec![0.0; n];

    // One IC iteration via the engine.
    let engine = Engine::new(ClusterSpec::small());
    let data = Dataset::create(&engine, "/deg/ls", sys.rows.clone(), 4);
    let ic = run_ic(
        &engine,
        &app,
        &data,
        x0.clone(),
        &IcOptions {
            max_iterations: Some(1),
            timing: Timing::default_analytic(),
            ..Default::default()
        },
    );

    // PIC with one partition, one local iteration, one BE round, no
    // top-off.
    let engine = Engine::new(ClusterSpec::small());
    let data = Dataset::create(&engine, "/deg/ls", sys.rows.clone(), 4);
    let pic = run_pic(
        &engine,
        &OneRound(app),
        &data,
        x0,
        &PicOptions {
            partitions: 1,
            timing: Timing::default_analytic(),
            ..Default::default()
        },
    );

    // The BE-phase model (before top-off) must equal the IC model exactly:
    // same sweep, same arithmetic.
    assert_eq!(
        pic.be_model, ic.final_model,
        "degenerate PIC must be bit-identical"
    );
    assert_eq!(pic.be_iterations, 1);
    assert_eq!(pic.local_iterations, vec![vec![1]]);
}

#[test]
fn smoothing_one_partition_one_local_iteration_equals_one_sweep() {
    let f = noisy_image(12, 12, 0.05, 7);
    let app = SmoothingApp::new(12, 12, 1, 1e-12);
    let expected = app.sequential_sweep(&f, &f);

    let engine = Engine::new(ClusterSpec::small());
    let data = Dataset::create(&engine, "/deg/sm", f.rows(), 4);
    let pic = run_pic(
        &engine,
        &OneRound(app),
        &data,
        f.clone(),
        &PicOptions {
            partitions: 1,
            timing: Timing::default_analytic(),
            ..Default::default()
        },
    );
    assert!(
        pic.be_model.max_diff(&expected) < 1e-15,
        "one-tile local sweep must equal a full sequential sweep"
    );
}

#[test]
fn merge_with_one_partition_is_identity_for_every_app() {
    // K-means.
    {
        use pic_apps::kmeans::{Centroids, KMeansApp};
        use pic_core::app::PicApp;
        let app = KMeansApp::new(3, 2, 1e-3);
        let m = Centroids::new(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let merged = app.merge(std::slice::from_ref(&m), &m);
        for (a, b) in merged.coords.iter().zip(&m.coords) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }
    // Linear solver.
    {
        use pic_core::app::PicApp;
        let app = LinSolveApp::new(4, 1, 1e-9);
        let m = vec![1.0, -2.0, 3.0, -4.0];
        assert_eq!(app.merge(std::slice::from_ref(&m), &m), m);
    }
    // Smoothing.
    {
        use pic_core::app::PicApp;
        let app = SmoothingApp::new(6, 6, 1, 1e-9);
        let img = noisy_image(6, 6, 0.01, 3);
        let merged = app.merge(std::slice::from_ref(&img), &img);
        assert!(merged.max_diff(&img) < 1e-15);
    }
}
