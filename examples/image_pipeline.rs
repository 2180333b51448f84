//! Image smoothing on a 256×256 noisy image — the paper's large-model
//! workload (the model *is* the image), showing where the model-update
//! traffic goes and how PIC's tile partitioning removes it.
//!
//! ```text
//! cargo run --release --example image_pipeline
//! ```

use pic_apps::smoothing::{noisy_image, SmoothingApp};
use pic_core::prelude::*;
use pic_mapreduce::{ByteSize, Dataset, Engine, Timing};
use pic_simnet::traffic::human_bytes;
use pic_simnet::ClusterSpec;

fn main() {
    let side = 256;
    let strips = 64;
    let f = noisy_image(side, side, 0.08, 5);
    let app = SmoothingApp::new(side, side, strips, 1e-4);
    println!(
        "image: {side}x{side} ({}), smoothed as {strips} horizontal strips",
        human_bytes(f.byte_size())
    );

    let timing = Timing {
        map_secs: 2e-4 + 8e-9 * side as f64,
        reduce_secs: 5e-5,
    };
    let spec = ClusterSpec::medium();

    let engine = Engine::new(spec.clone());
    let data = Dataset::create(&engine, "/img/noisy", f.rows(), 64);
    engine.reset();
    let ic = run_ic(
        &engine,
        &app,
        &data,
        f.clone(),
        &IcOptions {
            timing: timing.clone(),
            ..Default::default()
        },
    );
    println!(
        "\nIC:  {:>8.1} sim-seconds, {} sweeps, model updates moved {}",
        ic.total_time_s,
        ic.iterations,
        human_bytes(ic.traffic.model_update_total())
    );

    let engine = Engine::new(spec);
    let data = Dataset::create(&engine, "/img/noisy", f.rows(), 64);
    engine.reset();
    let pic = run_pic(
        &engine,
        &app,
        &data,
        f.clone(),
        &PicOptions {
            partitions: strips,
            timing,
            local_secs_per_record: Some(8e-9 * side as f64),
        },
    );
    println!(
        "PIC: {:>8.1} sim-seconds ({} best-effort iterations, {} top-off sweeps), \
         model updates moved {}",
        pic.total_time_s,
        pic.be_iterations,
        pic.topoff_iterations,
        human_bytes(pic.traffic().model_update_total())
    );

    // Both must land on the same (unique) smoothed image.
    let diff = ic.final_model.rms_diff(&pic.final_model);
    println!("\nrms difference between IC and PIC results: {diff:.2e} (unique fixed point)");
    println!("speedup: {:.2}x", ic.total_time_s / pic.total_time_s);
}
