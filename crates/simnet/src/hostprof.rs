//! Host-side (wall-clock) stage profiler for the engine hot path.
//!
//! The trace layer and [`crate::report::PerfReport`] decompose *simulated*
//! time; nothing in the repo measured where *host* wall-clock goes inside
//! the MapReduce engine, the DFS, the event queue or the drivers. This
//! module is that missing layer: scoped RAII stage timers
//! ([`ScopeGuard`]) recording into a static per-[`Stage`] registry —
//! call counts, bytes processed (throughput), total/p50/p95/max seconds
//! over invocations — behind a zero-cost-when-disabled guard with the
//! same discipline as `Tracer`'s disabled path:
//!
//! * disabled (the default): [`scope`] does one relaxed atomic load and
//!   returns a guard holding `None` — no clock read, no allocation, no
//!   lock, and the guard's `Drop` is a no-op;
//! * enabled: the guard stamps an [`Instant`] on construction and on
//!   drop folds the elapsed seconds (plus any bytes attached) into the
//!   stage's accumulator under a short mutex.
//!
//! The registry is **thread-aware** in the sense that guards may be
//! created and dropped on any thread concurrently (the engine's map /
//! reduce closures run on the rayon pool); per-stage totals are summed
//! across threads. Consequently, on a pool wider than one thread the
//! summed stage times can legitimately *exceed* the enclosing wall-clock
//! interval — they are CPU-seconds, not elapsed seconds. Cross-run and
//! cross-machine comparisons should therefore compare **call counts and
//! bytes** (deterministic) exactly, and judge **times** only as A/B pairs
//! on one host — see DESIGN.md §14.
//!
//! Consumers: the `host_profile` section of `BENCH_pic.json`, `pic
//! diff`'s host-stage delta attribution, the pinned `(stage, calls,
//! bytes)` table in `crates/bench/tests/host_profile.rs`, and the
//! `hostprof.*` per-layer metrics of the `benchmark/` harness.

use crate::report::nearest_rank;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Hot-path stages the profiler attributes host time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// User map function over one input split (per map task).
    Map,
    /// Combiner runs over sorted map-output buckets.
    Combine,
    /// Transposing map-output buckets into per-reducer chunks.
    Partition,
    /// Concatenate + stable-sort + run-scan of one reducer's bucket.
    SortMergeGroup,
    /// User reduce function over one grouped bucket (per reduce task).
    Reduce,
    /// Materializing map output for the shuffle (spill accounting).
    ShuffleMaterialization,
    /// DFS block serialization: `create`/`overwrite` placement + write.
    DfsSerialization,
    /// DFS block deserialization. The DFS has no read path, so no live
    /// scope records this stage and its time is always 0; it stays in
    /// [`Stage::ALL`] because the benchmark harness reports every stage.
    DfsDeserialization,
    /// Event-queue operations (push + pop).
    EventQueueOps,
    /// Slot-scheduler placement of one task wave.
    Schedule,
    /// IC driver: one full `iterate` pass over the dataset.
    IcIterate,
    /// PIC driver: one sub-problem `solve_local` call.
    PicSolve,
    /// PIC driver: `split_model` + `merge` of sub-models.
    PicMerge,
}

impl Stage {
    /// Every stage, in registry and display order.
    pub const ALL: [Stage; 13] = [
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
        Stage::IcIterate,
        Stage::PicSolve,
        Stage::PicMerge,
    ];

    /// Stable snake-case label used in CSV, JSON and tables.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Map => "map",
            Stage::Combine => "combine",
            Stage::Partition => "partition",
            Stage::SortMergeGroup => "sort_merge_group",
            Stage::Reduce => "reduce",
            Stage::ShuffleMaterialization => "shuffle_materialization",
            Stage::DfsSerialization => "dfs_serialization",
            Stage::DfsDeserialization => "dfs_deserialization",
            Stage::EventQueueOps => "event_queue_ops",
            Stage::Schedule => "schedule",
            Stage::IcIterate => "ic_iterate",
            Stage::PicSolve => "pic_solve",
            Stage::PicMerge => "pic_merge",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Cap on per-stage duration samples kept for percentiles; beyond it the
/// totals/counts stay exact and the percentiles describe the first
/// `SAMPLE_CAP` invocations (hot stages run millions of times per bench).
pub const SAMPLE_CAP: usize = 4096;

/// Per-stage accumulator behind the registry mutexes.
#[derive(Debug, Default)]
struct StageAcc {
    calls: u64,
    bytes: u64,
    total_s: f64,
    max_s: f64,
    samples: Vec<f64>,
}

impl StageAcc {
    fn record(&mut self, secs: f64, bytes: u64) {
        self.calls += 1;
        self.bytes += bytes;
        self.total_s += secs;
        self.max_s = self.max_s.max(secs);
        if self.samples.len() < SAMPLE_CAP {
            self.samples.push(secs);
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

const STAGE_COUNT: usize = Stage::ALL.len();

static REGISTRY: [Mutex<StageAcc>; STAGE_COUNT] = [const {
    Mutex::new(StageAcc {
        calls: 0,
        bytes: 0,
        total_s: 0.0,
        max_s: 0.0,
        samples: Vec::new(),
    })
}; STAGE_COUNT];

/// Turn the profiler on. Affects guards created *after* this call.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn the profiler off (the default). Guards already started still
/// record on drop, so enclosing scopes stay internally consistent.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether stage scopes currently record.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clear every stage accumulator (counts, bytes, times, samples).
pub fn reset() {
    for slot in &REGISTRY {
        *slot.lock().expect("hostprof registry poisoned") = StageAcc::default();
    }
}

/// Open a timing scope for `stage`; the elapsed host time is recorded
/// when the returned guard drops. When the profiler is disabled this is
/// one relaxed atomic load — no clock read, no allocation.
#[inline]
pub fn scope(stage: Stage) -> ScopeGuard {
    scope_bytes(stage, 0)
}

/// [`scope`] with a byte count attached up front (throughput
/// accounting); more bytes can be added via [`ScopeGuard::add_bytes`].
#[inline]
pub fn scope_bytes(stage: Stage, bytes: u64) -> ScopeGuard {
    let start = if is_enabled() {
        Some(Instant::now())
    } else {
        None
    };
    ScopeGuard {
        stage,
        bytes,
        start,
    }
}

/// RAII stage timer returned by [`scope`]; records on drop.
#[derive(Debug)]
#[must_use = "dropping the guard immediately records a zero-length scope"]
pub struct ScopeGuard {
    stage: Stage,
    bytes: u64,
    start: Option<Instant>,
}

impl ScopeGuard {
    /// Attribute `bytes` more processed bytes to this invocation.
    /// No-op when the profiler was disabled at scope entry.
    #[inline]
    pub fn add_bytes(&mut self, bytes: u64) {
        if self.start.is_some() {
            self.bytes += bytes;
        }
    }
}

impl Drop for ScopeGuard {
    #[inline]
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return; // disabled at entry: zero-cost path
        };
        record_scope(self.stage, start, self.bytes);
    }
}

#[cold]
fn record_scope(stage: Stage, start: Instant, bytes: u64) {
    let secs = start.elapsed().as_secs_f64();
    REGISTRY[stage.index()]
        .lock()
        .expect("hostprof registry poisoned")
        .record(secs, bytes);
}

/// Aggregated statistics for one stage, as captured by [`snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct StageProfile {
    /// Which stage.
    pub stage: Stage,
    /// Number of recorded invocations.
    pub calls: u64,
    /// Bytes attributed across invocations.
    pub bytes: u64,
    /// Summed host seconds across invocations (CPU-seconds on a
    /// multi-thread pool).
    pub total_s: f64,
    /// Median invocation seconds (over the retained samples).
    pub p50_s: f64,
    /// 95th-percentile invocation seconds.
    pub p95_s: f64,
    /// Longest invocation seconds.
    pub max_s: f64,
}

/// A point-in-time copy of the whole registry: every stage with at least
/// one recorded call, in [`Stage::ALL`] order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HostProfile {
    /// Per-stage statistics (stages with zero calls are omitted).
    pub stages: Vec<StageProfile>,
}

impl HostProfile {
    /// Summed host seconds across every stage.
    pub fn total_s(&self) -> f64 {
        self.stages.iter().map(|s| s.total_s).sum()
    }

    /// The profile entry for `stage`, if it recorded any calls.
    pub fn get(&self, stage: Stage) -> Option<&StageProfile> {
        self.stages.iter().find(|s| s.stage == stage)
    }

    /// `stage`'s share of [`HostProfile::total_s`] in `[0, 1]`.
    pub fn share(&self, stage: Stage) -> f64 {
        let total = self.total_s();
        match self.get(stage) {
            Some(s) if total > 0.0 => s.total_s / total,
            _ => 0.0,
        }
    }

    /// Deterministically ordered JSON object (stage label → stats) on one
    /// physical line, so line-oriented consumers (determinism checks that
    /// strip `host_` lines) stay intact. The embedding key in
    /// `BENCH_pic.json` is `host_profile`, which the regression differ
    /// skips like every `host_`-prefixed key, so host jitter never fails
    /// the simulated-time gate.
    pub fn to_json_line(&self) -> String {
        use crate::report::fmt_f64;
        use std::fmt::Write as _;
        let mut out = String::from("{\"total_s\": ");
        out.push_str(&fmt_f64(self.total_s()));
        out.push_str(", \"stages\": {");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"calls\": {}, \"bytes\": {}, \"total_s\": {}, \
                 \"share\": {}, \"p50_s\": {}, \"p95_s\": {}, \"max_s\": {}}}",
                s.stage.label(),
                s.calls,
                s.bytes,
                fmt_f64(s.total_s),
                fmt_f64(self.share(s.stage)),
                fmt_f64(s.p50_s),
                fmt_f64(s.p95_s),
                fmt_f64(s.max_s),
            );
        }
        out.push_str("}}");
        out
    }

    /// Human-readable per-stage table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let total = self.total_s();
        let mut out = format!("host profile — {total:.6} s total\n");
        let _ = writeln!(
            out,
            "  {:<24} {:>10} {:>14} {:>12} {:>7} {:>12} {:>12}",
            "stage", "calls", "bytes", "total (s)", "share", "p95 (s)", "max (s)"
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "  {:<24} {:>10} {:>14} {:>12.6} {:>6.1}% {:>12.9} {:>12.9}",
                s.stage.label(),
                s.calls,
                s.bytes,
                s.total_s,
                100.0 * self.share(s.stage),
                s.p95_s,
                s.max_s,
            );
        }
        out
    }
}

/// Snapshot the registry (stages with zero calls omitted). Does not
/// reset; pair with [`reset`] to bracket a measured region.
pub fn snapshot() -> HostProfile {
    let mut stages = Vec::new();
    for stage in Stage::ALL {
        let acc = REGISTRY[stage.index()]
            .lock()
            .expect("hostprof registry poisoned");
        if acc.calls == 0 {
            continue;
        }
        let mut sorted = acc.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        stages.push(StageProfile {
            stage,
            calls: acc.calls,
            bytes: acc.bytes,
            total_s: acc.total_s,
            p50_s: nearest_rank(&sorted, 50.0),
            p95_s: nearest_rank(&sorted, 95.0),
            max_s: acc.max_s,
        });
    }
    HostProfile { stages }
}

/// Serialize tests (and test-adjacent callers) that flip the global
/// enable flag, so parallel test threads cannot observe each other's
/// profiling windows.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_scopes_record_nothing() {
        let _l = test_lock();
        disable();
        reset();
        {
            let mut g = scope_bytes(Stage::Map, 100);
            g.add_bytes(50); // no-op while disabled
        }
        drop(scope(Stage::Reduce));
        let prof = snapshot();
        assert!(prof.stages.is_empty(), "{prof:?}");
        assert_eq!(prof.total_s(), 0.0);
    }

    #[test]
    fn enabled_scopes_accumulate_calls_bytes_and_time() {
        let _l = test_lock();
        enable();
        reset();
        for i in 0..5u64 {
            let mut g = scope_bytes(Stage::Map, 10);
            g.add_bytes(i);
            std::hint::black_box(i);
        }
        drop(scope(Stage::Reduce));
        let prof = snapshot();
        disable();
        let map = prof.get(Stage::Map).expect("map recorded");
        assert_eq!(map.calls, 5);
        // 10 bytes per call plus the call index (0..=4).
        assert_eq!(map.bytes, 60);
        assert!(map.total_s >= 0.0 && map.total_s.is_finite());
        assert!(map.max_s >= map.p95_s && map.p95_s >= map.p50_s);
        assert_eq!(prof.get(Stage::Reduce).unwrap().calls, 1);
        assert!(prof.get(Stage::Combine).is_none(), "untouched stage");
        // Shares sum to 1 over the touched stages (or 0 if total is 0).
        let share_sum: f64 = prof.stages.iter().map(|s| prof.share(s.stage)).sum();
        assert!(
            prof.total_s() == 0.0 || (share_sum - 1.0).abs() < 1e-9,
            "{share_sum}"
        );
    }

    #[test]
    fn reset_clears_everything() {
        let _l = test_lock();
        enable();
        reset();
        // Other lib tests in this binary (event queue, tenancy) record
        // `event_queue_ops` whenever the global profiler is on, so only
        // a stage recorded from other crates is ours alone.
        drop(scope(Stage::PicMerge));
        assert_eq!(snapshot().get(Stage::PicMerge).map(|s| s.calls), Some(1));
        reset();
        disable();
        assert!(snapshot().get(Stage::PicMerge).is_none());
    }

    #[test]
    fn guards_record_across_threads() {
        let _l = test_lock();
        enable();
        reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..8 {
                        drop(scope_bytes(Stage::PicSolve, 1));
                    }
                });
            }
        });
        let prof = snapshot();
        disable();
        // A stage no other test in this binary records (see above).
        let solve = prof.get(Stage::PicSolve).unwrap();
        assert_eq!(solve.calls, 32);
        assert_eq!(solve.bytes, 32);
    }

    #[test]
    fn json_is_balanced_and_render_lists_stages() {
        let _l = test_lock();
        enable();
        reset();
        drop(scope_bytes(Stage::DfsSerialization, 4096));
        let prof = snapshot();
        disable();
        let json = prof.to_json_line();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"dfs_serialization\""));
        assert!(json.contains("\"share\""));
        let text = prof.render();
        assert!(text.contains("dfs_serialization"));
        assert!(text.contains("host profile"));
    }
}
