//! Driver-level tests with a minimal synthetic PIC application.
//!
//! The toy app models "find the mean of the data": the model is a single
//! scalar, one IC iteration moves it halfway toward the data mean, and a
//! sub-problem converges to its partition's mean. Averaging partition
//! means over equal-size partitions equals the global mean, so PIC's
//! best-effort phase should land (nearly) on the IC answer — the paper's
//! forgiving-nature premise in its simplest form.

use pic_core::prelude::*;
use pic_mapreduce::{Dataset, Engine};
use pic_simnet::ClusterSpec;
use std::cell::Cell;

/// The toy app; `max_be` caps its best-effort rounds.
struct MeanApp {
    max_be: usize,
}

/// The toy app under the trait's default cap of 20 best-effort rounds.
const MEAN: MeanApp = MeanApp { max_be: 20 };

thread_local! {
    /// `MeanApp::error` calls made on this thread. Each test runs on its
    /// own thread and the drivers evaluate the metric on the caller's.
    static ERROR_CALLS: Cell<usize> = const { Cell::new(0) };
}

fn error_calls() -> usize {
    ERROR_CALLS.with(Cell::get)
}

const THRESHOLD: f64 = 1e-6;

fn step(records: &[f64], m: f64) -> f64 {
    if records.is_empty() {
        return m;
    }
    let mean = records.iter().sum::<f64>() / records.len() as f64;
    m + 0.5 * (mean - m)
}

impl IterativeApp for MeanApp {
    type Record = f64;
    type Model = f64;

    fn name(&self) -> &str {
        "mean"
    }

    fn iterate(
        &self,
        _engine: &Engine,
        data: &Dataset<f64>,
        model: &f64,
        _scope: &IterScope,
    ) -> f64 {
        let all: Vec<f64> = data.iter_records().copied().collect();
        step(&all, *model)
    }

    fn converged(&self, prev: &f64, next: &f64) -> bool {
        (prev - next).abs() < THRESHOLD
    }

    fn error(&self, model: &f64) -> Option<f64> {
        ERROR_CALLS.with(|c| c.set(c.get() + 1));
        Some((model - 10.0).abs()) // data is constructed with mean 10
    }

    fn max_iterations(&self) -> usize {
        100
    }
}

impl PicApp for MeanApp {
    fn partition_data(&self, data: &Dataset<f64>, parts: usize) -> Vec<Vec<f64>> {
        partition::chunked(data.iter_records().copied(), parts)
    }

    fn split_model(&self, model: &f64, parts: usize) -> Vec<f64> {
        vec![*model; parts]
    }

    fn merge(&self, subs: &[f64], _prev: &f64) -> f64 {
        subs.iter().sum::<f64>() / subs.len() as f64
    }

    fn max_be_iterations(&self) -> usize {
        self.max_be
    }

    fn solve_local(&self, _part: usize, records: &[f64], model: &f64, cap: usize) -> (f64, usize) {
        let mut m = *model;
        for it in 1..=cap {
            let next = step(records, m);
            let done = (next - m).abs() < THRESHOLD;
            m = next;
            if done {
                return (m, it);
            }
        }
        (m, cap)
    }
}

/// Data with global mean exactly 10.0, partition means spread around it.
fn symmetric_data(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            10.0 + if i % 2 == 0 { 5.0 } else { -5.0 } + (i / 2) as f64 * 1e-9
                - (n / 4) as f64 * 1e-9
        })
        .collect()
}

fn engine() -> Engine {
    Engine::new(ClusterSpec::small())
}

#[test]
fn ic_converges_to_mean() {
    let e = engine();
    let data = Dataset::create(&e, "/toy/ic", symmetric_data(1000), 6);
    let r = run_ic(&e, &MEAN, &data, 0.0, &IcOptions::default());
    assert!(r.converged, "should converge within cap");
    assert!(
        (r.final_model - 10.0).abs() < 1e-4,
        "model {}",
        r.final_model
    );
    assert!(
        r.iterations > 5,
        "halving needs ~24 iterations, got {}",
        r.iterations
    );
    assert_eq!(r.per_iteration.len(), r.iterations);
    assert!(r.total_time_s > 0.0);
    // Every iteration pays a model update to the replicated DFS.
    assert!(r.traffic.model_update_total() >= 3 * 8 * r.iterations as u64);
    // Trajectory is error-decreasing overall.
    let first = r.trajectory.first().unwrap().err;
    let last = r.trajectory.last().unwrap().err;
    assert!(last < first);
}

#[test]
fn pic_reaches_same_answer() {
    let e = engine();
    let data = Dataset::create(&e, "/toy/pic", symmetric_data(1000), 6);
    let opts = PicOptions {
        partitions: 4,
        ..Default::default()
    };
    let r = run_pic(&e, &MEAN, &data, 0.0, &opts);
    assert!(r.topoff_converged);
    assert!(
        (r.final_model - 10.0).abs() < 1e-4,
        "model {}",
        r.final_model
    );
    assert!(r.be_iterations >= 1);
    assert_eq!(r.local_iterations.len(), r.be_iterations);
    for per_part in &r.local_iterations {
        assert_eq!(per_part.len(), 4);
    }
    assert!(r.total_time_s > 0.0);
    assert!((r.be_time_s + r.topoff_time_s - r.total_time_s).abs() < 1e-9);
}

#[test]
fn pic_topoff_needs_fewer_iterations_than_ic() {
    let e = engine();
    let data = Dataset::create(&e, "/toy/cmp", symmetric_data(1000), 6);
    let ic = run_ic(&e, &MEAN, &data, 0.0, &IcOptions::default());
    let pic = run_pic(
        &e,
        &MEAN,
        &data,
        0.0,
        &PicOptions {
            partitions: 4,
            ..Default::default()
        },
    );
    assert!(
        pic.topoff_iterations < ic.iterations / 2,
        "top-off {} vs IC {}",
        pic.topoff_iterations,
        ic.iterations
    );
}

#[test]
fn pic_first_be_iteration_does_most_local_work() {
    // Paper Table I: local iterations collapse after the first BE
    // iteration because sub-problems start from an already-good model.
    let e = engine();
    let data = Dataset::create(&e, "/toy/t1", symmetric_data(2000), 6);
    let r = run_pic(
        &e,
        &MEAN,
        &data,
        0.0,
        &PicOptions {
            partitions: 4,
            ..Default::default()
        },
    );
    let maxes = r.max_local_iterations();
    assert!(maxes[0] >= 2);
    if maxes.len() > 1 {
        assert!(maxes[1] <= maxes[0]);
    }
}

#[test]
fn single_partition_pic_degenerates_to_ic_quality() {
    // Paper §III.B: with one partition (merge = identity) plus a one-shot
    // best-effort phase, PIC degenerates to the conventional scheme.
    let e = engine();
    let data = Dataset::create(&e, "/toy/deg", symmetric_data(500), 6);
    let opts = PicOptions {
        partitions: 1,
        ..Default::default()
    };
    let r = run_pic(&e, &MeanApp { max_be: 1 }, &data, 0.0, &opts);
    assert_eq!(r.be_iterations, 1);
    assert_eq!(r.local_iterations[0].len(), 1);
    assert!((r.final_model - 10.0).abs() < 1e-4);
}

#[test]
fn be_phase_traffic_is_far_below_ic() {
    let e1 = engine();
    let data1 = Dataset::create(&e1, "/toy/tr", symmetric_data(1000), 6);
    let ic = run_ic(&e1, &MEAN, &data1, 0.0, &IcOptions::default());

    let e2 = engine();
    let data2 = Dataset::create(&e2, "/toy/tr", symmetric_data(1000), 6);
    let pic = run_pic(
        &e2,
        &MEAN,
        &data2,
        0.0,
        &PicOptions {
            partitions: 4,
            ..Default::default()
        },
    );

    // Model updates: IC writes every iteration, PIC once per BE iteration
    // plus top-off — far fewer total.
    assert!(
        pic.be_traffic.model_update_total() < ic.traffic.model_update_total() / 2,
        "pic be {} vs ic {}",
        pic.be_traffic.model_update_total(),
        ic.traffic.model_update_total()
    );
}

#[test]
fn trajectory_time_is_monotonic_across_phases() {
    let e = engine();
    let data = Dataset::create(&e, "/toy/traj", symmetric_data(1000), 6);
    let r = run_pic(
        &e,
        &MEAN,
        &data,
        0.0,
        &PicOptions {
            partitions: 4,
            ..Default::default()
        },
    );
    for w in r.trajectory.windows(2) {
        assert!(w[1].t_s >= w[0].t_s, "trajectory time went backwards");
    }
}

#[test]
fn drivers_evaluate_each_model_once() {
    // A traced engine: the trajectory and the `quality` instant of each
    // model share one `error` call.
    let e = engine();
    let data = Dataset::create(&e, "/toy/evals", symmetric_data(1000), 6);

    let before = error_calls();
    let ic = run_ic(&e, &MEAN, &data, 0.0, &IcOptions::default());
    assert_eq!(
        error_calls() - before,
        ic.iterations + 1,
        "IC: the initial model plus one call per iteration"
    );

    let before = error_calls();
    let pic = run_pic(
        &e,
        &MEAN,
        &data,
        0.0,
        &PicOptions {
            partitions: 4,
            ..Default::default()
        },
    );
    let calls = error_calls() - before;
    assert!(
        calls <= 3 + pic.be_iterations + pic.topoff_iterations,
        "PIC: {calls} error calls for {} BE + {} top-off iterations",
        pic.be_iterations,
        pic.topoff_iterations
    );

    let samples = e
        .trace()
        .instants
        .iter()
        .filter(|i| i.cat == "quality")
        .count();
    assert_eq!(
        samples,
        ic.iterations + pic.be_iterations + pic.topoff_iterations
    );
}
