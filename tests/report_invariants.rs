//! Invariants of the trace-driven performance reports (`pic_simnet::report`)
//! over full PIC and IC runs.
//!
//! The headline properties mirror the acceptance criteria of the report
//! subsystem: the report's total is the driver span's duration,
//! per-iteration byte attribution reconciles **exactly** with the
//! engine's traffic ledger, and the serialized report is byte-identical
//! across rayon pool widths.

use pic_apps::kmeans::{gaussian_mixture, init_random_centroids, Centroids, KMeansApp};
use pic_core::prelude::*;
use pic_mapreduce::{Dataset, Engine, Timing};
use pic_simnet::report::PerfReport;
use pic_simnet::trace::check;
use pic_simnet::{ClusterSpec, Trace, TrafficSnapshot};

fn pic_timing() -> Timing {
    Timing {
        map_secs: 5.6e-4,
        reduce_secs: 5e-5,
    }
}

fn pic_opts(partitions: usize) -> PicOptions {
    PicOptions {
        partitions,
        timing: pic_timing(),
        local_secs_per_record: Some(0.6e-6),
    }
}

/// One full k-means PIC run plus the matching IC baseline, each on a
/// fresh engine reset after ingest so traced bytes cover the whole run.
fn run_kmeans_both() -> ((Trace, TrafficSnapshot), (Trace, TrafficSnapshot)) {
    let pts = gaussian_mixture(5_000, 20, 3, 1000.0, 8.0, 7);
    let init = Centroids::new(init_random_centroids(20, 3, 1000.0, 8));
    let app = KMeansApp::new(20, 3, 1e-3);

    let engine = Engine::new(ClusterSpec::small());
    let data = Dataset::create(&engine, "/rp/km", pts.clone(), 24);
    engine.reset();
    run_pic(&engine, &app, &data, init.clone(), &pic_opts(8));
    let pic = (engine.trace(), engine.traffic());

    let engine2 = Engine::new(ClusterSpec::small());
    let data2 = Dataset::create(&engine2, "/rp/km-ic", pts, 24);
    engine2.reset();
    run_ic(
        &engine2,
        &app,
        &data2,
        init,
        &IcOptions {
            max_iterations: Some(30),
            timing: pic_timing(),
            ..Default::default()
        },
    );
    let ic = (engine2.trace(), engine2.traffic());
    (pic, ic)
}

/// The standard runs, computed once and shared across tests.
fn std_runs() -> &'static ((Trace, TrafficSnapshot), (Trace, TrafficSnapshot)) {
    static RUN: std::sync::OnceLock<((Trace, TrafficSnapshot), (Trace, TrafficSnapshot))> =
        std::sync::OnceLock::new();
    RUN.get_or_init(run_kmeans_both)
}

/// Pin the root half of the run's timing: the longest root (parentless)
/// span is the driver span named with `driver`, and the report's total
/// is its duration. An iterative run is one chain of barrier-separated
/// phases, so this span is its critical path.
fn assert_total_is_root(trace: &Trace, driver: &str) {
    let longest = trace
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .max_by(|a, b| a.duration_s().total_cmp(&b.duration_s()))
        .expect("non-empty trace");
    assert!(longest.name.starts_with(driver), "{}", longest.name);
    assert!(longest.duration_s() > 0.0);
    assert_eq!(PerfReport::from_trace(trace).total_s, longest.duration_s());
}

#[test]
fn pic_critical_path_totals_the_root_span() {
    let ((trace, _), _) = std_runs();
    assert_total_is_root(trace, "pic:");
}

#[test]
fn ic_critical_path_totals_the_root_span() {
    let (_, (trace, _)) = std_runs();
    assert_total_is_root(trace, "ic:");
}

#[test]
fn per_iteration_bytes_reconcile_exactly_with_the_ledger() {
    let ((pic_trace, pic_traffic), (ic_trace, ic_traffic)) = std_runs();
    for (trace, traffic) in [(pic_trace, pic_traffic), (ic_trace, ic_traffic)] {
        let report = PerfReport::from_trace(trace);
        report.reconcile(traffic).unwrap();
        // Exact, class-by-class: attributed-per-iteration plus outside
        // equals the ledger snapshot.
        assert_eq!(report.attributed_bytes(), *traffic);
        assert!(!report.iterations.is_empty());
        // The paper's Fig. 2 decomposition is present: shuffle and
        // model-update bytes both land inside iterations.
        let shuffle: u64 = report
            .iterations
            .iter()
            .map(|i| i.bytes.shuffle_total())
            .sum();
        let model: u64 = report
            .iterations
            .iter()
            .map(|i| i.bytes.model_update_total())
            .sum();
        assert!(shuffle > 0, "iterations carry shuffle bytes");
        assert!(model > 0, "iterations carry model-update bytes");
    }
}

#[test]
fn report_json_is_identical_across_pool_widths() {
    let serial_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    let ((pic_1, traffic_1), (ic_1, _)) = serial_pool.install(run_kmeans_both);
    let ((pic_n, traffic_n), (ic_n, _)) = std_runs();

    check::validate(&pic_1, &traffic_1).unwrap();
    assert_eq!(traffic_1, *traffic_n);

    // The report is a pure function of simulated time, so serializing it
    // from a 1-thread run and an n-thread run gives identical bytes.
    assert_eq!(
        PerfReport::from_trace(&pic_1).to_json(0),
        PerfReport::from_trace(pic_n).to_json(0)
    );
    assert_eq!(
        PerfReport::from_trace(&ic_1).to_json(0),
        PerfReport::from_trace(ic_n).to_json(0)
    );
    // The text rendering inherits the same determinism.
    assert_eq!(
        PerfReport::from_trace(&pic_1).render(),
        PerfReport::from_trace(pic_n).render()
    );
}

#[test]
fn rendered_report_carries_the_headline_sections() {
    let ((trace, _), _) = std_runs();
    let report = PerfReport::from_trace(trace);
    let text = report.render();
    assert!(text.contains("phase rollups"));
    assert!(text.contains("per-iteration decomposition"));
    assert!(text.contains("be-iteration"));
    assert!(text.contains("model-update"));
    let json = report.to_json(0);
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(!json.contains("host_"), "host args never reach the JSON");
}
