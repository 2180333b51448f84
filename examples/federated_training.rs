//! Neural-network training with PIC — an early instance of what is now
//! called federated averaging: train replicas on disjoint shards, average
//! the weights, repeat, then fine-tune globally (the top-off phase).
//!
//! ```text
//! cargo run --release --example federated_training
//! ```

use pic_apps::neuralnet::{ocr_like_split, Mlp, NeuralNetApp};
use pic_core::prelude::*;
use pic_mapreduce::{Dataset, Engine, Timing};
use pic_simnet::ClusterSpec;

fn main() {
    let n = 10_000;
    let (train, valid) = ocr_like_split(n, n / 10, 10, 64, 0.08, 23);
    println!(
        "training set: {} OCR-like vectors (8x8 pixels, 10 classes), {} validation",
        train.len(),
        valid.len()
    );

    let app = NeuralNetApp::new(valid.clone());
    let init = Mlp::random(64, 32, 10, 1);
    println!(
        "network: 64-32-10 MLP, {} parameters; initial validation error {:.1}%",
        init.params.len(),
        100.0 * init.misclassification_rate(&valid)
    );

    // Backprop through the framework: ~1 ms/sample; in-memory: ~20 µs.
    let timing = Timing {
        map_secs: 1e-3,
        reduce_secs: 1e-4,
    };
    let spec = ClusterSpec::small();

    let engine = Engine::new(spec.clone());
    let data = Dataset::create(&engine, "/nn/train", train.clone(), 24);
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
        "\ncentralized (IC):        {:>7.1} sim-seconds, {} gradient steps, error {:.1}%",
        ic.total_time_s,
        ic.iterations,
        100.0 * ic.final_model.misclassification_rate(&valid)
    );

    let engine = Engine::new(spec);
    let data = Dataset::create(&engine, "/nn/train", train, 24);
    engine.reset();
    let pic = run_pic(
        &engine,
        &app,
        &data,
        init,
        &PicOptions {
            partitions: 12,
            timing,
            local_secs_per_record: Some(2e-5),
        },
    );
    println!(
        "federated-style (PIC):   {:>7.1} sim-seconds, {} averaging rounds + {} \
         fine-tune steps, error {:.1}%",
        pic.total_time_s,
        pic.be_iterations,
        pic.topoff_iterations,
        100.0 * pic.final_model.misclassification_rate(&valid)
    );
    if let Some(be_err) = pic.be_final_error {
        println!(
            "error after averaging rounds alone (before fine-tune): {:.1}%",
            100.0 * be_err
        );
    }
    println!("\nspeedup: {:.2}x", ic.total_time_s / pic.total_time_s);
}
