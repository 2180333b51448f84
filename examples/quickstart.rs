//! Quickstart: cluster 50k points with K-means, conventionally (IC) and
//! with Partitioned Iterative Convergence (PIC), on the paper's 6-node
//! research-cluster model, and compare.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pic_apps::kmeans::{gaussian_mixture, init_random_centroids, Centroids, KMeansApp};
use pic_core::prelude::*;
use pic_mapreduce::{Dataset, Engine, Timing};
use pic_simnet::ClusterSpec;

fn main() {
    // 1. A simulated cluster: the paper's small testbed (6 nodes × 8
    //    cores, gigabit Ethernet, 24 map + 24 reduce slots).
    let spec = ClusterSpec::small();
    println!(
        "cluster: {} nodes, {} map slots",
        spec.nodes, spec.map_slots
    );

    // 2. A workload: 50k points from a 100-component Gaussian mixture.
    let n = 200_000;
    let k = 100;
    let points = gaussian_mixture(n, k, 3, 1000.0, 40.0, 42);
    let init = Centroids::new(init_random_centroids(k, 3, 1000.0, 7));
    let app = KMeansApp::new(k, 3, 1.0);
    // Two-rate cost model (DESIGN.md §6): a Hadoop-era framework pass
    // costs ~560 µs/record; the same record inside an in-memory local
    // iteration costs its raw kernel flops (~0.6 µs).
    let timing = Timing {
        map_secs: 5.6e-4,
        reduce_secs: 5e-5,
    };

    // 3. The conventional IC baseline: one MapReduce job per iteration.
    let engine = Engine::new(spec.clone());
    let data = Dataset::create(&engine, "/in/points", points.clone(), 24);
    engine.reset();
    let ic = run_ic(
        &engine,
        &app,
        &data,
        init.clone(),
        &IcOptions {
            timing: timing.clone(),
            ..Default::default()
        },
    );
    println!(
        "\nIC baseline:  {:>8.1} sim-seconds, {} iterations, {} intermediate data",
        ic.total_time_s,
        ic.iterations,
        pic_simnet::traffic::human_bytes(ic.traffic.get(pic_simnet::TrafficClass::MapSpill)),
    );

    // 4. PIC: best-effort phase over 24 random partitions, then top-off.
    let engine = Engine::new(spec);
    let data = Dataset::create(&engine, "/in/points", points, 24);
    engine.reset();
    let pic = run_pic(
        &engine,
        &app,
        &data,
        init,
        &PicOptions {
            partitions: 24,
            timing,
            local_secs_per_record: Some(0.6e-6),
        },
    );
    println!(
        "PIC:          {:>8.1} sim-seconds ({:.1} best-effort + {:.1} top-off)",
        pic.total_time_s, pic.be_time_s, pic.topoff_time_s
    );
    println!(
        "              {} best-effort iterations (max local iterations {:?}), {} top-off iterations",
        pic.be_iterations,
        pic.max_local_iterations(),
        pic.topoff_iterations
    );
    println!(
        "              {} intermediate data",
        pic_simnet::traffic::human_bytes(pic.traffic().get(pic_simnet::TrafficClass::MapSpill)),
    );

    println!(
        "\nspeedup: {:.2}x (paper reports 2.5x-4x)",
        ic.total_time_s / pic.total_time_s
    );
}
