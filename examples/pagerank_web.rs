//! PageRank over a synthetic block-local web graph — the paper's
//! Wikipedia experiment in miniature (1.8M documents there, 30k here),
//! including its `18` random partitions and Nutch's fixed 10 iterations.
//!
//! ```text
//! cargo run --release --example pagerank_web
//! ```

use pic_apps::pagerank::{block_local_graph, PageRankApp, PartitionMode};
use pic_core::prelude::*;
use pic_mapreduce::{Dataset, Engine, Timing};
use pic_simnet::ClusterSpec;

fn main() {
    let n = 30_000;
    let partitions = 18; // as in the paper's Wikipedia setup
    let graph = block_local_graph(n, partitions, 2, 8, 0.9, 11);
    println!("web graph: {} pages, {} links", graph.n(), graph.m());

    let app = PageRankApp::new(graph.clone(), partitions, PartitionMode::Random, 3);
    println!(
        "partitioned into {partitions} random sub-graphs; {:.1}% of links cross partitions",
        100.0 * app.cut_fraction()
    );

    // Nutch-style page records are heavy: ~1 ms per page through the
    // framework; ~1 µs per page inside a local iteration.
    let timing = Timing {
        map_secs: 1e-3,
        reduce_secs: 5e-5,
    };
    let spec = ClusterSpec::small();

    // IC baseline: 10 Nutch iterations, two jobs each (aggregate +
    // propagate).
    let engine = Engine::new(spec.clone());
    let data = Dataset::create(&engine, "/web/graph", graph.records(), 24);
    engine.reset();
    let ic = run_ic(
        &engine,
        &app,
        &data,
        app.initial_model(),
        &IcOptions {
            timing: timing.clone(),
            ..Default::default()
        },
    );
    println!(
        "\nIC:  {:>7.1} sim-seconds for {} iterations",
        ic.total_time_s, ic.iterations
    );

    // PIC.
    let engine = Engine::new(spec);
    let data = Dataset::create(&engine, "/web/graph", graph.records(), 24);
    engine.reset();
    let pic = run_pic(
        &engine,
        &app,
        &data,
        app.initial_model(),
        &PicOptions {
            partitions,
            timing,
            local_secs_per_record: Some(1e-6),
        },
    );
    println!(
        "PIC: {:>7.1} sim-seconds ({} best-effort + {} top-off iterations)",
        pic.total_time_s, pic.be_iterations, pic.topoff_iterations
    );

    // Quality: rank the top pages under both models and compare.
    let top = |ranks: &[f64]| -> Vec<usize> {
        let mut idx: Vec<usize> = (0..ranks.len()).collect();
        idx.sort_by(|&a, &b| ranks[b].partial_cmp(&ranks[a]).expect("ranks are finite"));
        idx.truncate(20);
        idx
    };
    let ic_top = top(&ic.final_model.ranks);
    let pic_top = top(&pic.final_model.ranks);
    let overlap = ic_top.iter().filter(|v| pic_top.contains(v)).count();
    println!(
        "\ntop-20 pages overlap between IC and PIC orderings: {overlap}/20 \
         (PageRank is a best-effort ordering — paper §IV.B)"
    );
    println!("speedup: {:.2}x", ic.total_time_s / pic.total_time_s);
}
