//! Execution drivers: the conventional IC loop and the two-phase PIC run.

mod ic;
mod pic;

pub use ic::{run_ic, IcOptions};
pub use pic::{run_pic, PicOptions};

use pic_mapreduce::Engine;
use pic_simnet::trace::{Args, Payload};

/// DFS path prefix for the drivers' model files.
const MODEL_PATH: &str = "/pic/model";

/// Record a model's `objective` (its [`crate::IterativeApp::error`],
/// evaluated once by the caller) as a `quality` instant — rendered as a
/// Chrome *counter* event by
/// [`pic_simnet::trace::Trace::to_chrome_json_with_counters`].
/// Stamped at the engine's current time and recorded inside the open
/// iteration span so the sample parents to it;
/// `trace::check` verifies that containment and that sample times are
/// strictly monotone.
pub(crate) fn record_quality(
    engine: &Engine,
    objective: Option<f64>,
    iteration: usize,
    mut extra: Args,
) {
    let tracer = engine.tracer();
    if !tracer.is_enabled() {
        return;
    }
    let mut args: Args = vec![("iteration".into(), Payload::U64(iteration as u64))];
    args.append(&mut extra);
    if let Some(v) = objective {
        args.push(("objective".into(), Payload::F64(v)));
    }
    tracer.instant_at("sample", "quality", engine.now(), args);
}
