//! Acceptance tests for the DESIGN.md §14 host profiler: the per-stage
//! host times must reconcile with real wall-clock, the per-stage call
//! and byte counts must be exact and repeatable, and the disabled
//! profiler must record nothing.
//!
//! These tests flip the process-global profiler, so every test in this
//! binary serializes on one lock — and they live in their own
//! integration binary so no other test's engine work can record into the
//! registry while profiling is enabled.

use pic_bench::experiments::common::{compare, cost};
use pic_bench::experiments::{report as perf, ExperimentCtx};
use pic_simnet::hostprof::{self, Stage};
use std::sync::{Mutex, MutexGuard};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The engine-level stages whose scopes never overlap each other. The
/// driver rollups (`ic_iterate`, `pic_solve`, `pic_merge`) nest these
/// and are excluded — summing them too would double-count.
const ENGINE_STAGES: [Stage; 10] = [
    Stage::Map,
    Stage::Combine,
    Stage::Partition,
    Stage::SortMergeGroup,
    Stage::Reduce,
    Stage::ShuffleMaterialization,
    Stage::DfsSerialization,
    Stage::DfsDeserialization,
    Stage::EventQueueOps,
    Stage::Schedule,
];

/// Fig. 2 k-means on a single-thread pool: the non-overlapping
/// engine-level stage times must sum to within 20% of the engine's
/// wall-clock. "Engine wall-clock" is the `ic_iterate` driver rollup —
/// on a one-thread pool it is literally the wall time spent inside the
/// engine's `iterate` calls (IC run plus PIC top-off), and the
/// fine-grained stages nest inside it, so the two are independent
/// measurements of the same region at different granularities. The band
/// absorbs both directions of drift: uninstrumented engine glue (task
/// bookkeeping, KV sizing) under-counts, while stage work outside
/// `iterate` (dataset serialization, inter-iteration model broadcasts
/// driving the event queue) over-counts. A one-thread pool is essential
/// — on a parallel pool per-stage times are CPU-seconds summed across
/// workers and can legitimately exceed any wall-clock.
#[test]
fn engine_stage_times_reconcile_with_wall_clock() {
    use pic_apps::kmeans::{gaussian_mixture, init_random_centroids, Centroids, KMeansApp};

    let _g = lock();
    let (n, k, dim) = (8_000, 100, 3);
    let app = KMeansApp::new(k, dim, 1.0);
    let pts = gaussian_mixture(n, k, dim, 1000.0, 40.0, 21);
    let init = Centroids::new(init_random_centroids(k, dim, 1000.0, 5));
    let stride = (n / 2_000).max(1);
    let sample: Vec<_> = pts.iter().step_by(stride).cloned().collect();
    let reference = app.solve_reference(&sample, &init, 300);
    let app = app.with_eval_sample(sample, &reference);
    let spec = pic_simnet::ClusterSpec::medium();

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    hostprof::reset();
    hostprof::enable();
    let t0 = std::time::Instant::now();
    let cmp = pool.install(|| compare(&spec, &app, pts, init, 256, 64, cost::kmeans()));
    let wall = t0.elapsed().as_secs_f64();
    hostprof::disable();
    let profile = hostprof::snapshot();
    assert!(
        cmp.ic.iterations > 0 && cmp.pic.be_iterations > 0,
        "comparison must actually run"
    );

    let covered: f64 = ENGINE_STAGES
        .iter()
        .filter_map(|s| profile.get(*s))
        .map(|s| s.total_s)
        .sum();
    assert!(covered > 0.0, "no engine stages recorded");
    let engine_wall = profile
        .get(Stage::IcIterate)
        .expect("iterate rollup recorded")
        .total_s;
    let gap = (covered - engine_wall).abs() / engine_wall;
    assert!(
        gap <= 0.20,
        "engine stages sum to {covered:.4}s vs {engine_wall:.4}s engine wall \
         ({:.1}% gap)\n{}",
        100.0 * gap,
        profile.render()
    );
    // Sanity on the nesting rule: each driver rollup stays within the
    // overall wall-clock on the one-thread pool (they would blow past it
    // if their scopes overlapped each other).
    for s in [Stage::IcIterate, Stage::PicSolve, Stage::PicMerge] {
        if let Some(p) = profile.get(s) {
            assert!(
                p.total_s <= wall * 1.05,
                "{}: {} > wall {}",
                s.label(),
                p.total_s,
                wall
            );
        }
    }
}

/// Per-stage `(label, calls, bytes)` of the k-means report run at scale
/// 0.02. Both columns are functions of the workload alone — split
/// count, bucket count, bytes charged, events drained — so they hold on
/// any host and any pool width; a change here is a change to what the
/// engine does, never noise.
const KMEANS_STAGE_COUNTS: [(&str, u64, u64); 12] = [
    ("map", 22_528, 19_712_000),
    ("combine", 22_528, 36_608_000),
    ("partition", 88, 0),
    ("sort_merge_group", 5_632, 0),
    ("reduce", 5_632, 0),
    ("shuffle_materialization", 88, 33_212_140),
    ("dfs_serialization", 96, 786_776),
    ("event_queue_ops", 128_694, 0),
    ("schedule", 176, 0),
    ("ic_iterate", 88, 0),
    ("pic_solve", 384, 0),
    ("pic_merge", 12, 0),
];

/// The profiled k-means run records exactly [`KMEANS_STAGE_COUNTS`],
/// twice in a row.
#[test]
fn stage_calls_and_bytes_are_pinned_and_repeat() {
    let _g = lock();
    let profiled = || -> Vec<(&str, u64, u64)> {
        hostprof::reset();
        hostprof::enable();
        let run = perf::collect(&ExperimentCtx { scale: 0.02 }, &["kmeans"]);
        hostprof::disable();
        run.unwrap();
        let counts = |s: &hostprof::StageProfile| (s.stage.label(), s.calls, s.bytes);
        hostprof::snapshot().stages.iter().map(counts).collect()
    };
    let (first, second) = (profiled(), profiled());
    assert_eq!(first, second, "a rerun must repeat every count");
    assert_eq!(
        first, KMEANS_STAGE_COUNTS,
        "measured (left) differs from the pinned table (right)"
    );
}

/// With the profiler disabled (the default), a full suite run records
/// nothing — the scopes threaded through the engine are inert.
#[test]
fn disabled_profiler_records_nothing() {
    let _g = lock();
    hostprof::reset();
    assert!(!hostprof::is_enabled());
    let ctx = ExperimentCtx { scale: 0.01 };
    perf::collect(&ctx, &["linsolve"]).unwrap();
    assert!(hostprof::snapshot().stages.is_empty());
}
