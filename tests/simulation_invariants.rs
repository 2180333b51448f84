//! Invariants of the simulated substrate that every experiment relies on.

use pic_apps::kmeans::{gaussian_mixture, init_random_centroids, Centroids, KMeansApp};
use pic_core::prelude::*;
use pic_mapreduce::{Dataset, Engine, Timing};
use pic_simnet::{ClusterSpec, TrafficClass};

#[test]
fn simulated_time_only_moves_forward() {
    let engine = Engine::new(ClusterSpec::small());
    let pts = gaussian_mixture(1_000, 5, 2, 100.0, 2.0, 1);
    let data = Dataset::create(&engine, "/si/t", pts, 6);
    let app = KMeansApp::new(5, 2, 1e-3);
    let mut last = engine.now();
    for _ in 0..3 {
        let scope = IterScope::cluster(6, Timing::default_analytic());
        let init = Centroids::new(init_random_centroids(5, 2, 100.0, 3));
        let _ = app.iterate(&engine, &data, &init, &scope);
        let now = engine.now();
        assert!(now > last, "each job advances the clock");
        last = now;
    }
}

#[test]
fn traffic_counters_never_decrease() {
    let engine = Engine::new(ClusterSpec::small());
    let pts = gaussian_mixture(2_000, 5, 2, 100.0, 2.0, 1);
    let data = Dataset::create(&engine, "/si/tr", pts, 6);
    let app = KMeansApp::new(5, 2, 1e-3);
    let init = Centroids::new(init_random_centroids(5, 2, 100.0, 3));
    let mut prev = engine.traffic();
    let _ = run_ic(&engine, &app, &data, init, &IcOptions::default());
    let now = engine.traffic();
    for class in TrafficClass::ALL {
        assert!(now.get(class) >= prev.get(class), "{class:?} decreased");
    }
    prev = now;
    let _ = engine.traffic();
    assert_eq!(engine.traffic(), prev, "snapshot without work is stable");
}

#[test]
fn bigger_clusters_do_not_slow_down_the_same_pic_job() {
    // Weak sanity on the cluster model: with the partition count fixed,
    // moving the same PIC workload to a bigger cluster must not make it
    // slower (more slots, same traffic).
    let pts = gaussian_mixture(5_000, 10, 3, 100.0, 2.0, 7);
    let init = Centroids::new(init_random_centroids(10, 3, 100.0, 3));
    let app = KMeansApp::new(10, 3, 1e-3);
    let mut times = Vec::new();
    for spec in [ClusterSpec::small(), ClusterSpec::medium()] {
        let engine = Engine::new(spec);
        let data = Dataset::create(&engine, "/si/sc", pts.clone(), 24);
        engine.reset();
        let r = run_pic(
            &engine,
            &app,
            &data,
            init.clone(),
            &PicOptions {
                partitions: 6,
                ..Default::default()
            },
        );
        times.push(r.total_time_s);
    }
    assert!(
        times[1] <= times[0] * 1.2,
        "medium cluster should not be much slower: {times:?}"
    );
}

#[test]
fn ledger_shuffle_matches_job_stats() {
    use pic_mapreduce::traits::{FnMapper, FnReducer};
    use pic_mapreduce::{JobConfig, MapContext, ReduceContext};
    let engine = Engine::new(ClusterSpec::medium());
    let data = Dataset::create(&engine, "/si/ls", (0..5_000u64).collect(), 32);
    let mapper = FnMapper::new(|x: &u64, ctx: &mut MapContext<u64, u64>| {
        ctx.emit(*x % 64, *x);
    });
    let reducer = FnReducer::new(|k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
        ctx.emit((*k, vs.iter().sum()));
    });
    let before = engine.traffic();
    let res = engine.run(
        &JobConfig::new("ls")
            .timing(Timing::default_analytic())
            .reducers(8),
        &data,
        &mapper,
        &reducer,
    );
    let delta = engine.traffic().delta_since(&before);
    assert!(delta.shuffle_total().abs_diff(res.stats.shuffle_bytes) <= 2);
    assert_eq!(
        delta.get(TrafficClass::MapSpill),
        res.stats.map_output_bytes
    );
}

#[test]
fn dataset_load_then_reset_yields_clean_measurements() {
    let engine = Engine::new(ClusterSpec::small());
    let _ = Dataset::create(&engine, "/si/rst", (0..1000u64).collect(), 6);
    assert!(engine.traffic().get(TrafficClass::DfsWrite) > 0);
    engine.reset();
    assert_eq!(engine.now(), 0.0);
    assert_eq!(engine.traffic().network_total(), 0);
}

#[test]
fn partitioned_fanout_moves_less_model_than_replicated() {
    // The smoothing app declares Partitioned fanout (each stencil task
    // reads only its rows); K-means declares Replicated (every task needs
    // all centroids). Per iteration, broadcast traffic must reflect that.
    use pic_apps::smoothing::{noisy_image, SmoothingApp};
    use pic_mapreduce::ByteSize;

    let f = noisy_image(32, 32, 0.05, 3);
    let app = SmoothingApp::new(32, 32, 4, 1e-4);
    let engine = Engine::new(ClusterSpec::small());
    let data = Dataset::create(&engine, "/si/fan", f.rows(), 8);
    engine.reset();
    let r = run_ic(
        &engine,
        &app,
        &data,
        f.clone(),
        &IcOptions {
            max_iterations: Some(3),
            ..Default::default()
        },
    );
    let moved = r.traffic.get(TrafficClass::Broadcast);
    let model_bytes = f.byte_size();
    // Sliced: ~1× model per iteration (3 iterations), not 6× (node count).
    assert!(
        moved <= 3 * model_bytes + 16,
        "sliced fanout moved {moved} bytes for a {model_bytes}-byte model over 3 iterations"
    );
    assert!(moved >= 3 * model_bytes - 16);
}
