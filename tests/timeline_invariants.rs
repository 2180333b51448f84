//! Acceptance invariants for the time-resolved utilization telemetry
//! (DESIGN.md §11), pinned on the report suite's k-means configuration
//! (paper Fig. 2 at bench scale: 20k points, k=100, 64-node medium
//! cluster, 256 splits, 64 partitions) for both the IC baseline and PIC:
//!
//! 1. per-class utilization integrals equal the ledger byte totals
//!    **exactly** (`==`);
//! 2. slot occupancy never exceeds the topology's slot counts, and the
//!    busy integral matches the summed task-span durations within 1e-9
//!    relative;
//! 3. the utilization series are identical across rayon pool widths
//!    (the report is a pure function of simulated time);
//! 4. every PIC best-effort iteration shuffles no bytes at all, while
//!    every IC iteration shuffles across the bisection — the paper's
//!    Table II claim, read per iteration from the perf report.

use pic_apps::kmeans::{gaussian_mixture, init_random_centroids, Centroids, KMeansApp};
use pic_core::prelude::*;
use pic_mapreduce::{Dataset, Engine, Timing};
use pic_simnet::timeline::render_side_by_side;
use pic_simnet::{
    ClusterSpec, PerfReport, Trace, TrafficClass, TrafficSnapshot, UtilizationReport,
};

// The fig2 bench-scale geometry (scale 0.05 of the paper's 400k points),
// mirrored from the report suite — the root crate cannot depend on
// pic-bench, so the configuration is reconstructed here.
const N: usize = 20_000;
const K: usize = 100;
const DIM: usize = 3;
const SPLITS: usize = 256;
const PARTITIONS: usize = 64;

fn fig2_timing() -> Timing {
    Timing {
        map_secs: 5.6e-4,
        reduce_secs: 5e-5,
    }
}

/// Both fig2 runs on fresh engines: `(ic, pic)` as `(trace, ledger)`.
fn run_fig2() -> ((Trace, TrafficSnapshot), (Trace, TrafficSnapshot)) {
    let app = KMeansApp::new(K, DIM, 1.0);
    let pts = gaussian_mixture(N, K, DIM, 1000.0, 40.0, 21);
    let init = Centroids::new(init_random_centroids(K, DIM, 1000.0, 5));

    let ic_engine = Engine::new(ClusterSpec::medium());
    let data = Dataset::create(&ic_engine, "/tl/km", pts.clone(), SPLITS);
    ic_engine.reset();
    run_ic(
        &ic_engine,
        &app,
        &data,
        init.clone(),
        &IcOptions {
            timing: fig2_timing(),
            ..Default::default()
        },
    );
    let ic = (ic_engine.trace(), ic_engine.traffic());

    let pic_engine = Engine::new(ClusterSpec::medium());
    let data = Dataset::create(&pic_engine, "/tl/km", pts, SPLITS);
    pic_engine.reset();
    run_pic(
        &pic_engine,
        &app,
        &data,
        init,
        &PicOptions {
            partitions: PARTITIONS,
            timing: fig2_timing(),
            local_secs_per_record: Some(0.6e-6),
        },
    );
    (ic, (pic_engine.trace(), pic_engine.traffic()))
}

/// The standard runs, computed once and shared across tests.
fn std_run() -> &'static ((Trace, TrafficSnapshot), (Trace, TrafficSnapshot)) {
    static RUN: std::sync::OnceLock<((Trace, TrafficSnapshot), (Trace, TrafficSnapshot))> =
        std::sync::OnceLock::new();
    RUN.get_or_init(run_fig2)
}

fn reports() -> (UtilizationReport, UtilizationReport) {
    let (ic, pic) = std_run();
    let spec = ClusterSpec::medium();
    (
        UtilizationReport::from_trace(&ic.0, &spec),
        UtilizationReport::from_trace(&pic.0, &spec),
    )
}

#[test]
fn utilization_integrals_match_the_ledger_exactly() {
    let (ic, pic) = std_run();
    let (ic_util, pic_util) = reports();
    ic_util.reconcile(&ic.1).unwrap();
    pic_util.reconcile(&pic.1).unwrap();
    // Spot-check the equality is over real traffic, not empty series.
    for (util, ledger) in [(&ic_util, &ic.1), (&pic_util, &pic.1)] {
        for class in [TrafficClass::MapSpill, TrafficClass::ModelUpdate] {
            let total: u64 = util.class_bytes[class.label()].iter().sum();
            assert_eq!(total, ledger.get(class), "class {}", class.label());
            assert!(total > 0, "{} moved no bytes", class.label());
        }
        // Across every class the series lose or invent no byte.
        let series_total: u64 = util.class_bytes.values().flatten().sum();
        let ledger_total: u64 = TrafficClass::ALL.into_iter().map(|c| ledger.get(c)).sum();
        assert_eq!(series_total, ledger_total);
    }
}

#[test]
fn slot_occupancy_is_bounded_and_busy_time_reconciles() {
    let (ic, pic) = std_run();
    let (ic_util, pic_util) = reports();
    for (util, (trace, _)) in [(&ic_util, ic), (&pic_util, pic)] {
        assert!(!util.slots.is_empty(), "runs schedule tasks");
        for (group, series) in &util.slots {
            assert!(
                series.peak_occupancy <= series.slots as f64 + 1e-9,
                "{group}: peak occupancy {} over {} slots",
                series.peak_occupancy,
                series.slots
            );
            // Busy integral == summed task-span durations, 1e-9 relative,
            // recomputed here independently of the report's own bookkeeping.
            let span_total: f64 = trace
                .spans
                .iter()
                .filter(|s| s.cat == "task" && s.lane.starts_with(&format!("{group}-slot-")))
                .map(|s| s.duration_s())
                .sum();
            let tol = 1e-9 * span_total.abs().max(series.busy_integral_s.abs()).max(1.0);
            assert!(
                (series.busy_integral_s - span_total).abs() <= tol,
                "{group}: busy integral {} vs task spans {span_total}",
                series.busy_integral_s
            );
            assert!(span_total > 0.0, "{group}: no task time");
        }
    }
    // The runs exercise every slot group the drivers use.
    assert!(ic_util.slots.contains_key("map"));
    assert!(ic_util.slots.contains_key("red"));
    assert!(pic_util.slots.contains_key("solve"));
    // The side-by-side heatmap renders every group of either side.
    let view = render_side_by_side(&ic_util, &pic_util, 40);
    for group in ["slots:map", "slots:red", "slots:solve"] {
        assert!(view.contains(group), "{group} missing from:\n{view}");
    }
}

#[test]
fn utilization_is_identical_across_pool_widths() {
    let serial_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    let (ic_1, pic_1) = serial_pool.install(run_fig2);
    let (ic_n, pic_n) = std_run();
    let spec = ClusterSpec::medium();
    // The whole report — every series, rollup and saturation split — is
    // a pure function of simulated time, so it must be equal (not just
    // close) whatever the host parallelism was.
    assert_eq!(
        UtilizationReport::from_trace(&ic_1.0, &spec),
        UtilizationReport::from_trace(&ic_n.0, &spec)
    );
    assert_eq!(
        UtilizationReport::from_trace(&pic_1.0, &spec),
        UtilizationReport::from_trace(&pic_n.0, &spec)
    );
}

#[test]
fn pic_best_effort_iterations_shuffle_nothing_while_ic_crosses_the_bisection() {
    let (ic, pic) = std_run();
    let (ic_report, pic_report) = (
        PerfReport::from_trace(&ic.0),
        PerfReport::from_trace(&pic.0),
    );

    // IC runs one MapReduce job per iteration, and its all-to-all
    // shuffle crosses the 6-rack medium cluster's bisection every time.
    let ic_iters: Vec<_> = ic_report
        .iterations
        .iter()
        .filter(|it| it.cat == "ic")
        .collect();
    assert!(ic_iters.len() > 1, "IC ran {} iterations", ic_iters.len());
    for it in &ic_iters {
        let crossed = it.bytes.get(TrafficClass::ShuffleBisection);
        assert!(crossed > 0, "{}: no shuffle-bisection bytes", it.name);
    }

    // PIC's best-effort phase solves each partition locally and merges
    // models: no iteration of it shuffles a byte, local or remote.
    let be_iters: Vec<_> = pic_report
        .iterations
        .iter()
        .filter(|it| it.cat == "be-iteration")
        .collect();
    assert!(!be_iters.is_empty(), "PIC ran no best-effort iteration");
    for it in &be_iters {
        assert_eq!(it.bytes.shuffle_total(), 0, "{} shuffled", it.name);
    }
}
