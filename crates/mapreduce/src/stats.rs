//! Per-job execution statistics.

/// Everything the engine learned while executing one job.
#[derive(Debug, Clone, Default)]
pub struct JobStats {
    /// Job name from the [`crate::job::JobConfig`].
    pub name: String,
    /// Number of map tasks (== input splits).
    pub map_tasks: usize,
    /// Number of reduce tasks.
    pub reduce_tasks: usize,
    /// Map scheduling waves.
    pub map_waves: usize,
    /// Reduce scheduling waves.
    pub reduce_waves: usize,
    /// Simulated seconds of the map phase (slot makespan).
    pub map_time_s: f64,
    /// Simulated seconds the shuffle would take in isolation (it overlaps
    /// the map phase; `total_time_s` accounts the overlap).
    pub shuffle_time_s: f64,
    /// Simulated seconds of the reduce phase.
    pub reduce_time_s: f64,
    /// Simulated end-to-end job time (including overheads and overlap).
    pub total_time_s: f64,
    /// Measured host wall-clock seconds of the parallel map phase (real
    /// mapper + combiner + emit-side partitioning work on the rayon pool).
    /// Host times are diagnostics for the engine's own pipeline: they
    /// never feed the simulated clock or the trace, and live only here.
    pub host_map_s: f64,
    /// Measured host wall-clock seconds of the parallel partition/group
    /// step (per-reducer concatenation + stable sort + run grouping).
    pub host_partition_s: f64,
    /// Measured host wall-clock seconds of the parallel reduce phase.
    pub host_reduce_s: f64,
    /// Input records consumed.
    pub input_records: u64,
    /// Pairs emitted by mappers, before combining.
    pub map_output_records: u64,
    /// Serialized bytes of raw map output before combining — Hadoop's
    /// "Map output bytes" counter, the paper's "intermediate data" metric.
    pub map_output_bytes: u64,
    /// Pairs that entered the shuffle, after combining.
    pub shuffle_records: u64,
    /// Bytes that entered the shuffle (serialized, post-combine).
    pub shuffle_bytes: u64,
    /// Records emitted by reducers.
    pub output_records: u64,
    /// Map tasks that ran on a node holding their input.
    pub node_local_tasks: usize,
    /// Map tasks that ran rack-local to their input.
    pub rack_local_tasks: usize,
    /// Map tasks that fetched input across racks.
    pub remote_tasks: usize,
}

/// A job's outputs plus its stats.
#[derive(Debug, Clone)]
pub struct JobResult<O> {
    /// Reducer outputs, concatenated in (reduce bucket, key) order —
    /// deterministic across runs.
    pub output: Vec<O>,
    /// Execution statistics.
    pub stats: JobStats,
}
