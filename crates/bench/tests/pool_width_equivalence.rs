//! The chaos campaign and the tenancy profiler fan their runs out
//! across the pool (`common::fan_out`), and each run's map and reduce
//! tasks go to whichever worker claims them, so a pool's width changes
//! which runs overlap and which thread runs a task. It must change
//! nothing simulated: a comparison, the chaos campaign and the tenancy
//! profiles are identical at widths 1, 2 and 3.

use pic_apps::kmeans::{gaussian_mixture, init_random_centroids, Centroids, KMeansApp};
use pic_bench::experiments::common::{compare, cost};
use pic_bench::experiments::{chaos, tenancy, ExperimentCtx};
use pic_simnet::{ClusterSpec, Trace, TrafficSnapshot};

const WIDTHS: [usize; 3] = [1, 2, 3];

fn at_width<T>(width: usize, work: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .unwrap()
        .install(work)
}

/// Every result of `work` at each of [`WIDTHS`] equals the first.
fn same_at_every_width<T: PartialEq + std::fmt::Debug>(work: impl Fn() -> T) {
    let [first, rest @ ..] = WIDTHS.map(|w| at_width(w, &work));
    for (w, other) in WIDTHS[1..].iter().zip(rest) {
        assert_eq!(other, first, "width {w} differs from width {}", WIDTHS[0]);
    }
}

fn bits(model: &Centroids) -> (Vec<u64>, Vec<u64>) {
    let coords = model.coords.iter().flatten().map(|c| c.to_bits()).collect();
    (coords, model.counts.clone())
}

/// What a comparison's host side must reproduce: both converged models
/// bit for bit, every iteration count, both traces and both ledgers.
type Outcome = (
    [(Vec<u64>, Vec<u64>); 2],
    [usize; 3],
    [Trace; 2],
    [TrafficSnapshot; 2],
);

#[test]
fn a_comparison_is_identical_at_every_width() {
    let app = KMeansApp::new(4, 2, 1e-3);
    let pts = gaussian_mixture(500, 4, 2, 100.0, 1.5, 3);
    let init = Centroids::new(init_random_centroids(4, 2, 100.0, 7));
    same_at_every_width(|| -> Outcome {
        let spec = ClusterSpec::small();
        let c = compare(&spec, &app, pts.clone(), init.clone(), 6, 4, cost::kmeans());
        (
            [bits(&c.ic.final_model), bits(&c.pic.final_model)],
            [
                c.ic.iterations,
                c.pic.be_iterations,
                c.pic.topoff_iterations,
            ],
            [c.ic_trace, c.pic_trace],
            [c.ic_traffic, c.pic_traffic],
        )
    });
}

#[test]
fn the_chaos_campaign_is_identical_at_every_width() {
    let ctx = ExperimentCtx { scale: 0.01 };
    same_at_every_width(|| chaos::campaign(&ctx, &chaos::SCENARIOS).unwrap());
}

#[test]
fn the_tenancy_profiles_are_identical_at_every_width() {
    let ctx = ExperimentCtx { scale: 0.01 };
    same_at_every_width(|| tenancy::profiles(&ctx).unwrap());
}
