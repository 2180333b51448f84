//! Trace-driven invariants for full PIC runs.
//!
//! A k-means PIC run records a span tree (pic → best-effort iteration →
//! solves/merge → top-off iteration → job → phase → task) plus instant
//! events for every ledger charge, DFS write and quality sample. These tests
//! pin the structural properties the trace must satisfy — nesting, phase
//! ordering, per-slot exclusivity, exact byte attribution — and that the
//! trace itself is deterministic across rayon pool widths.

use pic_apps::kmeans::{gaussian_mixture, init_random_centroids, Centroids, KMeansApp};
use pic_core::prelude::*;
use pic_mapreduce::{Dataset, Engine, Timing};
use pic_simnet::trace::{check, Span, Trace};
use pic_simnet::{ClusterSpec, PerfReport, TrafficClass, TrafficSnapshot};

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

/// One full k-means PIC run on a fresh engine; returns everything the
/// invariants need. The ledger and tracer both start from zero (the
/// post-ingest `reset`), so traced bytes must reconcile with the ledger
/// over the whole run.
fn run_kmeans_pic() -> (Trace, TrafficSnapshot, PicReport<Centroids>) {
    let pts = gaussian_mixture(5_000, 20, 3, 1000.0, 8.0, 7);
    let init = Centroids::new(init_random_centroids(20, 3, 1000.0, 8));
    let app = KMeansApp::new(20, 3, 1e-3);
    let engine = Engine::new(ClusterSpec::small());
    let data = Dataset::create(&engine, "/tr/km", pts, 24);
    engine.reset();
    let report = run_pic(&engine, &app, &data, init, &pic_opts(8));
    (engine.trace(), engine.traffic(), report)
}

/// The standard run, computed once and shared across tests.
fn std_run() -> &'static (Trace, TrafficSnapshot, PicReport<Centroids>) {
    static RUN: std::sync::OnceLock<(Trace, TrafficSnapshot, PicReport<Centroids>)> =
        std::sync::OnceLock::new();
    RUN.get_or_init(run_kmeans_pic)
}

fn children_of<'a>(trace: &'a Trace, parent: &Span) -> Vec<&'a Span> {
    trace
        .spans
        .iter()
        .filter(|s| s.parent == Some(parent.id))
        .collect()
}

#[test]
fn pic_trace_satisfies_the_structural_suite() {
    let (trace, traffic, _) = std_run();
    check::validate(trace, traffic).unwrap();
}

#[test]
fn be_iterations_strictly_precede_topoff() {
    let (trace, _, report) = std_run();
    check::span_order(trace, "be-iteration", "topoff").unwrap();
    let be_spans = trace
        .spans
        .iter()
        .filter(|s| s.cat == "be-iteration")
        .count();
    assert_eq!(be_spans, report.be_iterations, "one span per BE round");
    let topoff_spans = trace.spans.iter().filter(|s| s.cat == "topoff").count();
    assert_eq!(
        topoff_spans, report.topoff_iterations,
        "one span per top-off iteration"
    );
}

#[test]
fn merges_start_after_every_quorum_solve_task() {
    let (trace, _, report) = std_run();
    let mut rounds = 0;
    for be in trace.spans.iter().filter(|s| s.cat == "be-iteration") {
        let kids = children_of(trace, be);
        let merges: Vec<&&Span> = kids.iter().filter(|s| s.cat == "merge").collect();
        assert_eq!(merges.len(), 1, "one merge per BE round: {}", be.name);
        let merge = merges[0];
        let solves: Vec<&&Span> = kids.iter().filter(|s| s.cat == "task").collect();
        assert!(!solves.is_empty(), "round {} has solve tasks", be.name);
        for s in &solves {
            assert!(
                s.t1 <= merge.t0 + 1e-9 * merge.t0.abs().max(1.0),
                "solve {} [{}, {}] outlives merge start {} in {}",
                s.name,
                s.t0,
                s.t1,
                merge.t0,
                be.name
            );
        }
        rounds += 1;
    }
    assert_eq!(rounds, report.be_iterations);
}

#[test]
fn root_span_nests_the_whole_two_phase_run() {
    let (trace, _, _) = std_run();
    let roots: Vec<&Span> = trace.spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "exactly one root span");
    let root = roots[0];
    assert_eq!(root.cat, "driver");
    assert!(root.name.starts_with("pic:"), "{}", root.name);
    // The top-off driver span is a direct child of the pic root.
    let topoff_roots: Vec<&Span> = trace
        .spans
        .iter()
        .filter(|s| s.cat == "driver" && s.name.starts_with("topoff:"))
        .collect();
    assert_eq!(topoff_roots.len(), 1);
    assert_eq!(topoff_roots[0].parent, Some(root.id));
}

#[test]
fn traced_bytes_reconcile_exactly_with_the_ledger() {
    let (trace, traffic, _) = std_run();
    // Exact equality, class by class — not approximate.
    assert_eq!(trace.traffic_totals(), *traffic);
    check::bytes_attributed(trace, traffic).unwrap();
    // And the run actually moved bytes in the classes the paper tracks.
    assert!(traffic.model_update_total() > 0);
    assert!(traffic.shuffle_total() > 0);
}

#[test]
fn pic_trace_is_identical_across_pool_widths() {
    let serial_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    let (trace_1, traffic_1, report_1) = serial_pool.install(run_kmeans_pic);
    let (trace_n, traffic_n, report_n) = run_kmeans_pic(); // default pool

    // The invariant suite holds under both pool widths…
    check::validate(&trace_1, &traffic_1).unwrap();
    check::validate(&trace_n, &traffic_n).unwrap();
    check::span_order(&trace_1, "be-iteration", "topoff").unwrap();
    check::span_order(&trace_n, "be-iteration", "topoff").unwrap();

    // …and the traces are bit-identical: they carry no host wall clock.
    assert_eq!(trace_1, trace_n);
    assert_eq!(traffic_1, traffic_n);
    assert_eq!(report_1.be_iterations, report_n.be_iterations);
    assert_eq!(report_1.total_time_s, report_n.total_time_s);
    assert_eq!(report_1.final_model, report_n.final_model);
}

#[test]
fn perf_report_reflects_the_run() {
    let (trace, traffic, report) = std_run();
    let perf = PerfReport::from_trace(trace);
    // Per-round BE time is present and sums to at most the BE wall time
    // (each round span covers broadcast + solve + merge).
    let be_time: f64 = perf
        .iterations
        .iter()
        .filter(|it| it.cat == "be-iteration")
        .map(|it| it.time_s)
        .sum();
    assert!(be_time > 0.0 && be_time <= report.be_time_s + 1e-9);
    // Attributed class bytes match the ledger class for class.
    let attributed = perf.attributed_bytes();
    for class in TrafficClass::ALL {
        assert_eq!(
            attributed.get(class),
            traffic.get(class),
            "class {}",
            class.label()
        );
    }
    // The run's DFS writes surfaced as `dfs` instants.
    assert!(
        trace.instants.iter().any(|i| i.cat == "dfs"),
        "dfs instants present"
    );
}

#[test]
fn chrome_export_carries_the_run_structure() {
    let (trace, _, _) = std_run();
    let json = trace.to_chrome_json_with_counters(&[]);
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("pic:kmeans"));
    assert!(json.contains("\"be-1\""));
    assert!(json.contains("topoff"));
    assert!(json.contains("solve-slot-0"), "solve lanes are named");
    assert!(json.contains("\"thread_name\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}
