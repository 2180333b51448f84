//! Solving a weakly diagonally dominant linear system with Jacobi (IC)
//! vs block-Jacobi PIC — the paper's exact 100-variable experiment, and
//! the case where PIC's convergence to the same unique solution is
//! provable (additive Schwarz, paper §VI.B).
//!
//! ```text
//! cargo run --release --example linear_solver
//! ```

use pic_apps::linsolve::{diag_dominant_system, LinSolveApp};
use pic_core::prelude::*;
use pic_mapreduce::{Dataset, Engine, Timing};
use pic_simnet::ClusterSpec;

fn main() {
    let n = 100; // the paper's size
    let sys = diag_dominant_system(n, 0.05, 77);
    println!("system: {n} unknowns, weakly diagonally dominant (margin 5%)");

    let app = LinSolveApp::new(n, 5, 1e-8).with_exact(sys.exact.clone());
    let timing = Timing {
        map_secs: 5e-4,
        reduce_secs: 5e-5,
    };
    let spec = ClusterSpec::small();

    let engine = Engine::new(spec.clone());
    let data = Dataset::create(&engine, "/ls/rows", sys.rows.clone(), 5);
    engine.reset();
    let ic = run_ic(
        &engine,
        &app,
        &data,
        vec![0.0; n],
        &IcOptions {
            timing: timing.clone(),
            ..Default::default()
        },
    );
    println!(
        "\nJacobi (IC):       {:>7.1} sim-seconds, {} sweeps, error vs exact {:.2e}",
        ic.total_time_s,
        ic.iterations,
        sys.error(&ic.final_model)
    );

    let engine = Engine::new(spec);
    let data = Dataset::create(&engine, "/ls/rows", sys.rows.clone(), 5);
    engine.reset();
    let pic = run_pic(
        &engine,
        &app,
        &data,
        vec![0.0; n],
        &PicOptions {
            partitions: 5,
            timing,
            local_secs_per_record: Some(0.2e-6),
        },
    );
    println!(
        "block-Jacobi (PIC): {:>6.1} sim-seconds, {} best-effort iterations \
         (locals {:?}) + {} top-off sweeps, error vs exact {:.2e}",
        pic.total_time_s,
        pic.be_iterations,
        pic.max_local_iterations(),
        pic.topoff_iterations,
        sys.error(&pic.final_model)
    );

    println!(
        "\nboth converge to the unique golden solution; speedup: {:.2}x",
        ic.total_time_s / pic.total_time_s
    );
}
