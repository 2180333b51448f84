//! Invariants of the trace-driven performance reports (`pic_simnet::report`)
//! over full PIC and IC runs.
//!
//! The headline properties mirror the acceptance criteria of the report
//! subsystem: the critical path tiles the root span exactly (its total
//! equals the root duration within 1e-9 relative), per-iteration byte
//! attribution reconciles **exactly** with the engine's traffic ledger,
//! and the serialized report is byte-identical across rayon pool widths.

use pic_apps::kmeans::{gaussian_mixture, init_random_centroids, Centroids, KMeansApp};
use pic_core::prelude::*;
use pic_mapreduce::{Dataset, Engine, Timing};
use pic_simnet::report::{CriticalPath, PerfReport};
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

/// Pin the tiling contract of one trace's critical path: segments are
/// chronological, contiguous (each starts where the previous ended),
/// cover exactly `[root.t0, root.t1]`, and their durations telescope to
/// the root duration within 1e-9 relative.
fn assert_path_tiles(trace: &Trace) -> CriticalPath {
    let path = CriticalPath::from_trace(trace).expect("non-empty trace");
    let root = trace
        .spans
        .iter()
        .find(|s| s.id == path.root)
        .expect("path root is in the trace");
    assert!(!path.segments.is_empty());
    assert_eq!(path.segments.first().unwrap().t0, root.t0, "starts at root");
    assert_eq!(path.segments.last().unwrap().t1, root.t1, "ends at root");
    for pair in path.segments.windows(2) {
        assert_eq!(
            pair[0].t1, pair[1].t0,
            "segments are contiguous: {} then {}",
            pair[0].name, pair[1].name
        );
    }
    let tol = 1e-9 * root.duration_s().max(1.0);
    assert!(
        (path.total_s - root.duration_s()).abs() <= tol,
        "critical path total {} != root duration {}",
        path.total_s,
        root.duration_s()
    );
    path
}

#[test]
fn pic_critical_path_totals_the_root_span() {
    let ((trace, _), _) = std_runs();
    let path = assert_path_tiles(trace);
    assert!(path.root_name.starts_with("pic:"), "{}", path.root_name);
    // The path descends to leaves in both phases: solve tasks run on
    // `solve-slot-*` lanes (best-effort), top-off MapReduce tasks on
    // `map-slot-*`/`red-slot-*` lanes — and task compute dominates.
    let lanes: Vec<&str> = path.segments.iter().map(|s| s.lane.as_str()).collect();
    assert!(
        lanes.iter().any(|l| l.starts_with("solve-slot")),
        "{lanes:?}"
    );
    assert!(
        lanes
            .iter()
            .any(|l| l.starts_with("map-slot") || l.starts_with("red-slot")),
        "{lanes:?}"
    );
    assert!(path.by_cat_s().contains_key("task"));
}

#[test]
fn ic_critical_path_totals_the_root_span() {
    let (_, (trace, _)) = std_runs();
    let path = assert_path_tiles(trace);
    assert!(path.root_name.starts_with("ic:"), "{}", path.root_name);
    assert!(path.by_cat_s().contains_key("task"));
}

#[test]
fn every_span_subtree_is_a_valid_path_root() {
    // The tiling contract holds for any root, not just the driver span:
    // spot-check every job span in the PIC trace.
    let ((trace, _), _) = std_runs();
    let mut jobs = 0;
    for s in trace.spans.iter().filter(|s| s.cat == "job") {
        let path = CriticalPath::for_span(trace, s.id);
        let tol = 1e-9 * s.duration_s().max(1.0);
        assert!(
            (path.total_s - s.duration_s()).abs() <= tol,
            "job {}: path total {} != span duration {}",
            s.name,
            path.total_s,
            s.duration_s()
        );
        jobs += 1;
    }
    assert!(jobs > 0, "the PIC run ran MapReduce jobs");
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
        PerfReport::from_trace(&pic_1).render(40),
        PerfReport::from_trace(pic_n).render(40)
    );
}

#[test]
fn rendered_report_carries_the_headline_sections() {
    let ((trace, _), _) = std_runs();
    let report = PerfReport::from_trace(trace);
    let text = report.render(40);
    assert!(text.contains("critical path"));
    assert!(text.contains("per-iteration decomposition"));
    assert!(text.contains("be-iteration"));
    assert!(text.contains("model-update"));
    let json = report.to_json(0);
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(!json.contains("host_"), "host args never reach the JSON");
}
