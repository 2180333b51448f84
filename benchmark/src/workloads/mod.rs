//! The four workloads and the one table of their sizes.
//!
//! Sizes decide which layer dominates a workload, so they are constants
//! here and nothing on the command line changes them. The seed changes the
//! bits of the inputs, never the amount of work: each workload draws its
//! inputs so that every seed simulates the same number of records,
//! iterations and tenant jobs (see each module for how), because a metric
//! that swings with the draw cannot carry a regression bound.

pub mod kmeans_fig2;
pub mod shuffle_wide;
pub mod suite_regress;
pub mod tenancy_stream;

use crate::record::Recorder;

/// What one repetition of a workload's timed section produced.
#[derive(Debug, Default)]
pub struct RepOutcome {
    /// Simulated seconds produced (driver totals, job totals, tenant
    /// running time); the numerator of `sim_rate_x`.
    pub sim_s: f64,
    /// Operations checked.
    pub attempted: u64,
    /// One line per operation whose check failed.
    pub failures: Vec<String>,
    /// Digest of every simulated result of the repetition.
    pub digest: u64,
}

impl RepOutcome {
    /// Count one operation; `problem` says what its check found, if anything.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        self.failures.extend(problem);
    }
}

pub trait Workload {
    /// One repetition of the timed section. Calls into the program go
    /// through [`Recorder::span`], checks through [`Recorder::check`].
    fn rep(&mut self, rec: &mut Recorder) -> Result<RepOutcome, String>;

    /// After the repetitions of a traced run: probe what the timed section
    /// does not call directly and [`Recorder::set`] the per-layer metrics
    /// that are not span self times.
    fn layer_report(&mut self, rec: &mut Recorder) -> Result<(), String>;
}

/// A workload's set-up: builds every input from the seed. Operations checked
/// during set-up (reference oracles) are returned beside the workload.
pub type Setup = fn(u64, &mut Recorder) -> Result<(Box<dyn Workload>, RepOutcome), String>;

pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Its row of the size table, as printed in the run manifest.
    pub sizes: &'static str,
    /// Whether a traced run switches on the program's `hostprof` registry.
    /// Its stages are the engine's and the drivers'. Off the engine it has
    /// one stage only, `event_queue_ops`, which a tenant stream enters 38
    /// million times per repetition (the suite's tenancy section 5 million):
    /// its two clock reads per entry then cost more than the operation they
    /// time (a traced `tenancy_stream` repetition took 1.3x the untraced
    /// one), and the per-layer numbers would be of the registry itself.
    pub hostprof: bool,
    pub setup: Setup,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "suite_regress",
        why: "the whole report suite plus parse and diff: every layer in its real share, what CI waits for",
        sizes: suite_regress::SIZES,
        hostprof: false,
        setup: suite_regress::setup,
    },
    Spec {
        name: "kmeans_fig2",
        why: "Fig. 2 k-means at full scale: the distance kernel in map and combine; no JSON, analysis or tenancy",
        sizes: kmeans_fig2::SIZES,
        hostprof: true,
        setup: kmeans_fig2::setup,
    },
    Spec {
        name: "shuffle_wide",
        why: "2M records onto 1M keys with no combiner: partition, sort/merge/group and reduce; trivial map kernel",
        sizes: shuffle_wide::SIZES,
        hostprof: true,
        setup: shuffle_wide::setup,
    },
    Spec {
        name: "tenancy_stream",
        why: "396 tenant jobs on the 1k preset: scheduler, event core and tenancy only; no engine or app work",
        sizes: tenancy_stream::SIZES,
        hostprof: false,
        setup: tenancy_stream::setup,
    },
];

pub fn find(name: &str) -> Result<&'static Spec, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}'; known: {known:?}")
    })
}
