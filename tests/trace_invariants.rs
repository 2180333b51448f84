//! Trace-driven invariants for full PIC runs.
//!
//! A k-means PIC run records a span tree (pic → best-effort iteration →
//! solves/merge → top-off iteration → job → phase → task) plus instant
//! events for every ledger charge, retry, and straggler drop. These tests
//! pin the structural properties the trace must satisfy — nesting, phase
//! ordering, per-slot exclusivity, exact byte attribution — and that the
//! trace itself is deterministic across rayon pool widths.

use pic_apps::kmeans::{gaussian_mixture, init_random_centroids, Centroids, KMeansApp};
use pic_core::prelude::*;
use pic_mapreduce::traits::{FnMapper, FnReducer};
use pic_mapreduce::{Dataset, Engine, JobConfig, MapContext, ReduceContext, Timing};
use pic_simnet::scheduler::{SchedulerOptions, SlotScheduler, TaskSpec};
use pic_simnet::trace::{check, MetricsRegistry, Span, Trace, Tracer};
use pic_simnet::{ClusterSpec, TrafficSnapshot};

fn pic_timing() -> Timing {
    Timing::PerRecord {
        map_secs: 5.6e-4,
        reduce_secs: 5e-5,
    }
}

fn pic_opts(partitions: usize) -> PicOptions {
    PicOptions {
        partitions,
        timing: pic_timing(),
        local_secs_per_record: Some(0.6e-6),
        ..Default::default()
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
fn retry_instants_agree_with_retried_tasks() {
    let engine = Engine::new(ClusterSpec::small());
    let records: Vec<(u8, u32)> = (0..600u32).map(|i| ((i % 11) as u8, i)).collect();
    let data = Dataset::create(&engine, "/tr/retry", records, 6);
    engine.reset();
    let mapper = FnMapper::new(|r: &(u8, u32), ctx: &mut MapContext<u64, u64>| {
        ctx.emit(r.0 as u64, r.1 as u64);
    });
    let reducer = FnReducer::new(|k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
        ctx.emit((*k, vs.iter().sum()));
    });
    let cfg = JobConfig::new("retry")
        .reducers(3)
        .timing(Timing::default_analytic())
        .fail_map_task(0)
        .fail_map_task(2);
    let result = engine.run(&cfg, &data, &mapper, &reducer);
    let trace = engine.trace();
    assert_eq!(result.stats.retried_tasks, 2);
    assert_eq!(
        check::sched_events(&trace, "retry"),
        result.stats.retried_tasks,
        "one retry instant per retried task"
    );
    check::validate(&trace, &engine.traffic()).unwrap();

    // A clean job records no retry instants.
    let engine2 = Engine::new(ClusterSpec::small());
    let records2: Vec<(u8, u32)> = (0..600u32).map(|i| ((i % 11) as u8, i)).collect();
    let data2 = Dataset::create(&engine2, "/tr/clean", records2, 6);
    engine2.reset();
    let clean = engine2.run(
        &JobConfig::new("clean")
            .reducers(3)
            .timing(Timing::default_analytic()),
        &data2,
        &mapper,
        &reducer,
    );
    assert_eq!(clean.stats.retried_tasks, 0);
    assert_eq!(check::sched_events(&engine2.trace(), "retry"), 0);
}

#[test]
fn straggler_drop_instants_agree_with_the_report() {
    let pts = gaussian_mixture(5_000, 20, 3, 1000.0, 8.0, 7);
    let init = Centroids::new(init_random_centroids(20, 3, 1000.0, 8));
    let app = KMeansApp::new(20, 3, 1.0);
    let engine = Engine::new(ClusterSpec::small());
    let data = Dataset::create(&engine, "/tr/strag", pts, 24);
    engine.reset();
    let report = run_pic(
        &engine,
        &app,
        &data,
        init,
        &PicOptions {
            merge_quorum: 0.85,
            slow_partitions: vec![(3, 50.0)],
            ..pic_opts(8)
        },
    );
    let trace = engine.trace();
    assert!(report.straggler_drops > 0, "the slow partition is dropped");
    assert_eq!(
        check::sched_events(&trace, "straggler-drop"),
        report.straggler_drops
    );
    check::validate(&trace, &engine.traffic()).unwrap();
    // The full-quorum std run never drops, and its trace agrees.
    let (std_trace, _, std_report) = std_run();
    assert_eq!(std_report.straggler_drops, 0);
    assert_eq!(check::sched_events(std_trace, "straggler-drop"), 0);
}

#[test]
fn speculative_launch_instants_mark_backup_attempts() {
    // Directly replay a heterogeneous schedule: node 2 runs 20× slower,
    // speculation launches backups for its tasks.
    let spec = ClusterSpec::small();
    let tasks: Vec<TaskSpec> = (0..6).map(|_| TaskSpec::compute(10.0)).collect();
    let opts = SchedulerOptions {
        node_speed: vec![(2, 20.0)],
        speculative: true,
        ..Default::default()
    };
    let tracer = Tracer::standalone();
    let outcome = SlotScheduler::new(&spec).schedule_with(&tasks, 1, 0..6, &opts);
    outcome.emit_task_spans(&tracer, 0.0, "map", outcome.makespan_s);
    let trace = tracer.trace();
    let backups = outcome.launches.iter().filter(|l| l.speculative).count();
    assert!(backups > 0, "the slow node draws speculative backups");
    assert_eq!(check::sched_events(&trace, "speculative-launch"), backups);
    check::no_overlap_per_slot(&trace).unwrap();
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

    // …and modulo host wall-clock args the traces are bit-identical.
    assert_eq!(trace_1.without_host_args(), trace_n.without_host_args());
    assert_eq!(traffic_1, traffic_n);
    assert_eq!(report_1.be_iterations, report_n.be_iterations);
    assert_eq!(report_1.total_time_s, report_n.total_time_s);
    assert_eq!(report_1.final_model, report_n.final_model);
}

#[test]
fn metrics_registry_reflects_the_run() {
    let (trace, traffic, report) = std_run();
    let m = MetricsRegistry::from_trace(trace);
    // Per-round BE time is present and sums near the BE wall time minus
    // startup (each round span covers broadcast + solve + merge).
    let be_time: f64 = m
        .phase_time_s
        .iter()
        .filter(|(k, _)| k.starts_with("be-iteration/"))
        .map(|(_, v)| v)
        .sum();
    assert!(be_time > 0.0 && be_time <= report.be_time_s + 1e-9);
    // Traced class bytes match the ledger label for label.
    for (label, bytes) in &m.class_bytes {
        let ledger_bytes = pic_simnet::TrafficClass::ALL
            .iter()
            .find(|c| c.label() == label.as_str())
            .map(|c| traffic.get(*c))
            .expect("known class label");
        assert_eq!(*bytes, ledger_bytes, "class {label}");
    }
    // The engine's job counters surfaced as counter rollups.
    assert!(
        m.counters.keys().any(|k| !k.starts_with("sched.")),
        "job counters present: {:?}",
        m.counters.keys().collect::<Vec<_>>()
    );
    let rendered = m.render();
    assert!(rendered.contains("be-iteration/"));
}

#[test]
fn chrome_export_carries_the_run_structure() {
    let (trace, _, _) = std_run();
    let json = trace.to_chrome_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("pic:kmeans"));
    assert!(json.contains("\"be-1\""));
    assert!(json.contains("topoff"));
    assert!(json.contains("solve-slot-0"), "solve lanes are named");
    assert!(json.contains("\"thread_name\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}
