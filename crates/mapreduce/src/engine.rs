//! The MapReduce execution engine.

use crate::dataset::Dataset;
use crate::job::JobConfig;
use crate::kv;
use crate::stats::{JobResult, JobStats};
use crate::traits::{Combiner, DynCombiner, MapContext, Mapper, ReduceContext, Reducer};
use pic_dfs::Dfs;
use pic_simnet::chaos::{ChaosInjector, FaultPlan};
use pic_simnet::hostprof::{self, Stage};
use pic_simnet::scheduler::{Locality, ScheduleOutcome, SlotScheduler, TaskSpec};
use pic_simnet::topology::{ClusterSpec, NodeId};
use pic_simnet::trace::{Args, Payload, SpanId, Trace, Tracer};
use pic_simnet::traffic::{TrafficClass, TrafficLedger, TrafficSnapshot};
use pic_simnet::{transfer, SimClock};
use rayon::prelude::*;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// The engine: a simulated cluster plus the machinery to run typed
/// MapReduce jobs on it. Clone-cheap handles are not provided on purpose —
/// experiments own one engine and thread `&Engine` through.
pub struct Engine {
    spec: Arc<ClusterSpec>,
    ledger: Arc<TrafficLedger>,
    dfs: Dfs,
    clock: Arc<SimClock>,
    tracer: Tracer,
    chaos: ChaosInjector,
}

impl Engine {
    /// An engine over `spec` with a fresh DFS, ledger and clock, tracing
    /// every job, transfer and ledger charge into its [`Tracer`].
    ///
    /// # Panics
    /// Panics if the spec fails validation.
    pub fn new(spec: ClusterSpec) -> Self {
        Self::build(spec, Tracer::new)
    }

    /// An engine with tracing disabled: the ledger still counts bytes
    /// exactly, but no spans or instants are recorded and every tracer
    /// call takes the allocation-free early-return path — the right
    /// constructor for throughput benchmarks.
    pub fn untraced(spec: ClusterSpec) -> Self {
        Self::build(spec, |_| Tracer::disabled())
    }

    fn build(spec: ClusterSpec, tracer: impl FnOnce(Arc<SimClock>) -> Tracer) -> Self {
        spec.validate().expect("invalid cluster spec");
        let spec = Arc::new(spec);
        let clock = Arc::new(SimClock::new());
        let tracer = tracer(Arc::clone(&clock));
        let ledger = Arc::new(TrafficLedger::traced(tracer.clone()));
        let chaos = ChaosInjector::idle();
        let dfs = Dfs::new(
            Arc::clone(&spec),
            Arc::clone(&ledger),
            tracer.clone(),
            chaos.clone(),
        );
        Engine {
            spec,
            ledger,
            dfs,
            clock,
            tracer,
            chaos,
        }
    }

    /// The cluster description.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The byte-exact traffic ledger.
    pub fn ledger(&self) -> &TrafficLedger {
        &self.ledger
    }

    /// The simulated file system.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Advance simulated time (drivers use this for driver-side work).
    pub fn advance(&self, dt: f64) {
        self.clock.advance(dt);
    }

    /// Reset clock, ledger, trace and any armed fault plan (between
    /// independent experiments).
    pub fn reset(&self) {
        self.clock.reset();
        self.ledger.reset();
        self.tracer.clear();
        self.chaos.disarm();
    }

    /// Arm a deterministic fault plan: every scheduled phase from now on
    /// consults the injector for node crashes, link degradation and
    /// elastic resizes. Returns the plan's validation errors unchanged.
    /// Arm *after* [`Engine::reset`] — resetting disarms.
    pub fn arm_chaos(&self, plan: &FaultPlan) -> Result<(), Vec<String>> {
        self.chaos.arm(plan, &self.spec, self.tracer.clone())
    }

    /// The engine's fault injector (idle unless [`Engine::arm_chaos`] ran).
    /// Clones share state, so drivers can hold their own handle.
    pub fn chaos(&self) -> ChaosInjector {
        self.chaos.clone()
    }

    /// The tracer recording this engine's simulated-time activity.
    /// Drivers thread it through their own spans; it records nothing on
    /// an [`Engine::untraced`] engine.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Snapshot everything traced since creation (or the last
    /// [`Engine::reset`]).
    pub fn trace(&self) -> Trace {
        self.tracer.trace()
    }

    /// Snapshot the ledger (for per-phase deltas).
    pub fn traffic(&self) -> TrafficSnapshot {
        self.ledger.snapshot()
    }

    /// The one timed data movement: starting now, `bytes` of `class`
    /// traffic occupy the wire for `raw_secs` stretched by any active
    /// link-degradation window (same bytes, slower links). The charge is
    /// windowed over that interval, a `name` transfer span (args: the
    /// charged `bytes`, then `extra`) covers it, and the clock advances
    /// past it.
    pub fn transfer(
        &self,
        name: &str,
        class: TrafficClass,
        bytes: u64,
        raw_secs: f64,
        extra: &[(&str, u64)],
    ) {
        let t0 = self.now();
        let secs = raw_secs * self.chaos.degradation_factor(t0);
        self.ledger.add_over(class, bytes, t0, t0 + secs);
        let mut args = vec![("bytes".to_string(), Payload::U64(bytes))];
        args.extend(extra.iter().map(|&(k, v)| (k.to_string(), Payload::U64(v))));
        self.transfer_span(name, t0, secs, args);
    }

    /// Record a transfer that took `secs` from `t0` and advance past it.
    fn transfer_span(&self, name: &str, t0: f64, secs: f64, args: Args) {
        self.tracer.span_at(name, "transfer", t0, t0 + secs, args);
        self.advance(secs);
    }

    /// Write (or overwrite) a model file of `bytes` to the DFS, charged to
    /// `class`, advancing the clock by the write-pipeline time. Replication
    /// multiplies the charged bytes, per the paper's model-update
    /// bottleneck. The DFS makes the (replicated, degradation-stretched)
    /// charge itself.
    pub fn write_model(&self, path: &str, bytes: u64, writer: NodeId, class: TrafficClass) {
        let t0 = self.now();
        let secs = self.dfs.overwrite(path, bytes, writer, class, t0);
        let args = vec![
            ("bytes".to_string(), Payload::U64(bytes)),
            ("class".to_string(), Payload::Str(class.label().to_string())),
        ];
        self.transfer_span("model-write", t0, secs, args);
    }

    /// Broadcast `bytes` of model to every node of `group` (distributed
    /// cache style), charging [`TrafficClass::Broadcast`] and advancing the
    /// clock.
    pub fn broadcast_model(&self, bytes: u64, group: &Range<NodeId>) {
        let (raw_secs, net) = transfer::broadcast(&self.spec, group.len(), bytes);
        self.transfer("broadcast", TrafficClass::Broadcast, net, raw_secs, &[]);
    }

    /// Distribute a *sliced* model of `bytes` total to the nodes of
    /// `group`: each node pulls only its own slice, so total network
    /// volume is `bytes` (not `m × bytes`), bounded by the replicas'
    /// aggregate serving bandwidth and the largest single slice.
    pub fn scatter_model(&self, bytes: u64, group: &Range<NodeId>) {
        let m = group.len().max(1) as u64;
        if bytes == 0 {
            return;
        }
        // Ceiling division: with uneven slicing some node pulls the
        // remainder, so the per-slice bound must not round down (a
        // `bytes / m` floor undercounts whenever `m` does not divide
        // `bytes`, and degenerates to 0 s for models smaller than `m`).
        let slice = bytes.div_ceil(m);
        let servers_bw = self.spec.replication as f64 * self.spec.nic_bw;
        let raw_secs = (slice as f64 / self.spec.nic_bw).max(bytes as f64 / servers_bw);
        self.transfer("scatter", TrafficClass::Broadcast, bytes, raw_secs, &[]);
    }

    /// Gather sub-models of the given exact sizes onto one node (PIC merge
    /// collection), charging [`TrafficClass::Merge`] with the exact byte
    /// sum — no rounding when sub-models differ in size.
    pub fn gather_models_sized(&self, sizes: &[u64]) {
        let (raw_secs, net) = transfer::gather_sized(&self.spec, sizes);
        self.transfer("gather", TrafficClass::Merge, net, raw_secs, &[]);
    }

    /// Run a job without a combiner.
    pub fn run<M, R>(
        &self,
        cfg: &JobConfig,
        input: &Dataset<M::In>,
        mapper: &M,
        reducer: &R,
    ) -> JobResult<R::Out>
    where
        M: Mapper,
        R: Reducer<K = M::K, V = M::V>,
    {
        self.run_inner(cfg, input, mapper, None, reducer)
    }

    /// Run a job with a combiner applied to each map task's output before
    /// the shuffle.
    pub fn run_with_combiner<M, C, R>(
        &self,
        cfg: &JobConfig,
        input: &Dataset<M::In>,
        mapper: &M,
        combiner: &C,
        reducer: &R,
    ) -> JobResult<R::Out>
    where
        M: Mapper,
        C: Combiner<K = M::K, V = M::V>,
        R: Reducer<K = M::K, V = M::V>,
    {
        self.run_inner(cfg, input, mapper, Some(combiner), reducer)
    }

    /// Run a map-only job (zero reducers, Hadoop style): mappers execute
    /// over the input and their emissions are returned directly, in split
    /// order. It is the map stage of every job with one bucket, no
    /// combiner and no spill — no shuffle and no reduce follow, and output
    /// is *not* written to the DFS (callers that persist output — e.g. a
    /// model — charge that write themselves).
    pub fn run_map_only<M>(
        &self,
        cfg: &JobConfig,
        input: &Dataset<M::In>,
        mapper: &M,
    ) -> JobResult<(M::K, M::V)>
    where
        M: Mapper,
    {
        let (mut job, outs) = self.map_stage(cfg, input, mapper, None, 0);
        job.stats.output_records = job.stats.map_output_records;
        job.stats.total_time_s = job.stats.map_time_s;
        let mut output = Vec::with_capacity(job.stats.map_output_records as usize);
        for bucket in outs.into_iter().flat_map(|mo| mo.buckets) {
            output.extend(bucket);
        }
        self.finish_job(job, output)
    }

    /// Replay one phase's tasks onto the cluster at `t_phase` with
    /// chaos-aware crash handling — the one scheduler behind map, reduce
    /// and PIC solve phases — then emit its task spans on `lane`-prefixed
    /// lanes. Every caller waits for the returned outcome's makespan.
    ///
    /// A clean schedule establishes the failure-peek window; when an armed
    /// fault plan kills nodes inside it, the phase is rescheduled with
    /// those deaths so surviving slots re-execute the lost attempts, the
    /// crash instants are committed, lost DFS replicas re-replicate in the
    /// background, and every killed attempt charges `recovery_bytes(task)`
    /// to [`TrafficClass::Recovery`] over the phase. With no plan armed
    /// this is exactly a [`SlotScheduler::schedule`] plus
    /// [`ScheduleOutcome::emit_task_spans`] — chaos never touches host
    /// computation, only simulated replay.
    pub fn schedule_phase(
        &self,
        tasks: &[TaskSpec],
        slots_per_node: usize,
        group: Range<NodeId>,
        t_phase: f64,
        lane: &str,
        recovery_bytes: &dyn Fn(usize) -> u64,
    ) -> ScheduleOutcome {
        let sched = SlotScheduler::new(&self.spec);
        let mut outcome = sched.schedule(tasks, slots_per_node, group.clone());
        let t_peek_end = t_phase + outcome.makespan_s;
        let deaths = self.chaos.peek_failures(t_phase, t_peek_end);
        if !deaths.is_empty() {
            outcome = sched.schedule_with(tasks, slots_per_node, group, &deaths);
        }
        let t_end = t_phase + outcome.makespan_s;
        let fresh = self.chaos.commit_failures(t_peek_end, t_phase, t_end);
        if !fresh.is_empty() {
            let dead: Vec<NodeId> = fresh.iter().map(|&(n, _)| n).collect();
            for &(node, at_s) in &fresh {
                self.dfs.rereplicate_after_crash(node, at_s, &dead);
            }
            for l in outcome.launches.iter().filter(|l| l.killed) {
                let bytes = recovery_bytes(l.task);
                if bytes > 0 {
                    self.ledger
                        .add_over(TrafficClass::Recovery, bytes, t_phase, t_end);
                }
            }
        }
        outcome.emit_task_spans(&self.tracer, t_phase, lane);
        outcome
    }

    /// The map stage of every job: open the job span, run the mappers for
    /// real in parallel, and replay them as the scheduled map phase.
    ///
    /// Each map task hash-partitions its output into emission-ordered
    /// buckets as it emits, so the shuffle partitioning runs inside the
    /// parallel map tasks — no serial driver pass and no global lock. The
    /// raw (pre-combiner) pair and byte counts are taken as pairs are
    /// emitted. With a combiner the task runs [`Mapper::map_combined`],
    /// which may fold its output in the mapper; the combiner then runs
    /// over whatever the task emitted. `reducers == 0` is Hadoop's
    /// map-only job: one bucket, and nothing is serialized to a local
    /// spill (no `raw_bytes`).
    ///
    /// The clock holds still until the whole job is assembled, so every
    /// ledger charge lands at `t_job` — inside the job span, which is why
    /// the job span opens before any charge and phase spans only bracket
    /// their own scheduling.
    fn map_stage<M: Mapper>(
        &self,
        cfg: &JobConfig,
        input: &Dataset<M::In>,
        mapper: &M,
        combiner: Option<&dyn DynCombiner<M::K, M::V>>,
        reducers: usize,
    ) -> (OpenJob, MapOuts<M>) {
        let group = cfg.node_group.clone().unwrap_or(0..self.spec.nodes);
        assert!(
            !group.is_empty() && group.end <= self.spec.nodes,
            "bad node group"
        );
        let mut stats = JobStats {
            name: cfg.name.clone(),
            map_tasks: input.splits.len(),
            reduce_tasks: reducers,
            ..Default::default()
        };
        let t_job = self.now();
        let job_span = self.tracer.begin(format!("job:{}", cfg.name), "job");

        let host_map = Instant::now();
        let outs: MapOuts<M> = input
            .splits
            .par_iter()
            .enumerate()
            .map(|(i, split)| {
                let mut ctx = MapContext::partitioned(reducers.max(1));
                ctx.split = i;
                {
                    let _hp = hostprof::scope_bytes(Stage::Map, split.bytes);
                    if combiner.is_some() {
                        mapper.map_combined(&split.records, &mut ctx);
                    } else {
                        for r in &split.records {
                            mapper.map(r, &mut ctx);
                        }
                    }
                }
                let raw_pairs = ctx.emitted();
                let raw_bytes = if reducers > 0 { ctx.emitted_bytes() } else { 0 };
                let mut buckets = ctx.into_buckets();
                let (shuffle_pairs, shuffle_bytes) = match combiner {
                    Some(c) => {
                        // Each key hashes to exactly one bucket, so
                        // combining per bucket groups the same runs as
                        // combining the task's whole output.
                        let _hp = hostprof::scope_bytes(Stage::Combine, raw_bytes);
                        for b in &mut buckets {
                            *b = combine_run(c, std::mem::take(b));
                        }
                        (
                            buckets.iter().map(Vec::len).sum(),
                            kv::buckets_size(&buckets),
                        )
                    }
                    None => (raw_pairs, raw_bytes),
                };
                MapOut {
                    buckets,
                    raw_pairs,
                    raw_bytes,
                    shuffle_pairs,
                    shuffle_bytes,
                }
            })
            .collect();
        stats.host_map_s = host_map.elapsed().as_secs_f64();

        stats.input_records = input.splits.iter().map(|s| s.records.len() as u64).sum();
        for mo in &outs {
            stats.map_output_records += mo.raw_pairs as u64;
            stats.map_output_bytes += mo.raw_bytes;
        }

        let map_secs = cfg.timing.map_secs;
        let tasks: Vec<TaskSpec> = outs
            .iter()
            .zip(&input.splits)
            .map(|(mo, split)| {
                let compute = split.records.len() as f64 * map_secs;
                // Spilling raw map output to local disk is part of the
                // map task's critical path.
                TaskSpec {
                    duration_s: compute + mo.raw_bytes as f64 / self.spec.disk_bw,
                    preferred_nodes: split.hosts.clone(),
                    input_bytes: split.bytes,
                }
            })
            .collect();

        let map_span = self.tracer.begin_at("map", "phase", t_job);
        let outcome = {
            let _hp = hostprof::scope(Stage::Schedule);
            self.schedule_phase(
                &tasks,
                self.spec.map_slots_per_node(),
                group.clone(),
                t_job,
                "map",
                &|t| tasks[t].input_bytes,
            )
        };
        let map_time_s = outcome.makespan_s;
        self.tracer.end_at(map_span, t_job + map_time_s);
        self.tracer
            .set_arg(map_span, "waves", Payload::U64(outcome.waves as u64));
        stats.map_time_s = map_time_s;
        stats.map_waves = outcome.waves;
        // A task's locality is that of its one completed attempt.
        let mut locality = vec![Locality::Remote; tasks.len()];
        for l in outcome.launches.iter().filter(|l| !l.killed) {
            locality[l.task] = l.locality;
        }
        for loc in &locality {
            *match loc {
                Locality::NodeLocal => &mut stats.node_local_tasks,
                Locality::RackLocal => &mut stats.rack_local_tasks,
                Locality::Remote => &mut stats.remote_tasks,
            } += 1;
        }

        let job = OpenJob {
            t_job,
            span: job_span,
            group,
            stats,
            locality,
        };
        (job, outs)
    }

    /// Close a job: close the job span at the job's end time and advance
    /// the clock past the job.
    fn finish_job<O>(&self, job: OpenJob, output: Vec<O>) -> JobResult<O> {
        let (job_span, stats) = (job.span, job.stats);
        self.tracer.end_at(job_span, job.t_job + stats.total_time_s);
        self.advance(stats.total_time_s);
        JobResult { output, stats }
    }

    fn run_inner<M, R>(
        &self,
        cfg: &JobConfig,
        input: &Dataset<M::In>,
        mapper: &M,
        combiner: Option<&dyn DynCombiner<M::K, M::V>>,
        reducer: &R,
    ) -> JobResult<R::Out>
    where
        M: Mapper,
        R: Reducer<K = M::K, V = M::V>,
    {
        assert!(cfg.reducers > 0, "jobs need at least one reducer");
        // Shuffle fully overlaps the map phase (optimized Hadoop baseline,
        // paper §II), so the job timeline is: map and shuffle side by side
        // from `t_job`, then reduce.
        let (mut job, map_outs) = self.map_stage(cfg, input, mapper, combiner, cfg.reducers);
        let (t_job, group, stats) = (job.t_job, &job.group, &mut job.stats);
        stats.shuffle_records = map_outs.iter().map(|mo| mo.shuffle_pairs as u64).sum();

        // Raw map output is serialized and spilled to the tasks' local
        // disks before the combiner runs — Hadoop's "Map output bytes".
        // The spills happen throughout the map phase, whose extent is
        // only known once scheduling ran, so the charge is windowed here.
        let charge =
            |class, bytes, secs: f64| self.ledger.add_over(class, bytes, t_job, t_job + secs);
        charge(
            TrafficClass::MapSpill,
            stats.map_output_bytes,
            stats.map_time_s,
        );

        // Remote/rack-local map inputs travel the network: charge DfsRead,
        // spread over the map phase that issues the reads.
        for (split, loc) in input.splits.iter().zip(&job.locality) {
            if !split.hosts.is_empty() && *loc != Locality::NodeLocal {
                charge(TrafficClass::DfsRead, split.bytes, stats.map_time_s);
            }
        }

        // ---- Shuffle: byte-exact volume, modelled time. ------------------
        let mut hp_shuffle = hostprof::scope(Stage::ShuffleMaterialization);
        let shuffle_bytes: u64 = map_outs.iter().map(|mo| mo.shuffle_bytes).sum();
        hp_shuffle.add_bytes(shuffle_bytes);
        stats.shuffle_bytes = shuffle_bytes;
        let shuffle_cost = transfer::shuffle(&self.spec, group, shuffle_bytes);
        // An active degradation window stretches the shuffle's wire time
        // (same bytes, slower links) — the chaos model's rack/bisection
        // brown-out.
        let degrade = self.chaos.degradation_factor(t_job);
        let shuffle_secs = shuffle_cost.seconds * degrade;
        // Window each split over the interval its link is actually busy:
        // local and rack bytes stream for the whole modelled shuffle,
        // while the bisection share is done after its own serialization
        // time (`bisection_bytes / bisection_bw` — the same term that can
        // bound `shuffle_cost.seconds`), so during that window the
        // bisection runs at full utilization, which is what the paper's
        // saturation argument is about.
        charge(
            TrafficClass::ShuffleLocal,
            shuffle_cost.local_bytes,
            shuffle_secs,
        );
        charge(
            TrafficClass::ShuffleRack,
            shuffle_cost.rack_bytes,
            shuffle_secs,
        );
        let bisection_s = shuffle_cost.bisection_bytes as f64 / self.spec.bisection_bw * degrade;
        charge(
            TrafficClass::ShuffleBisection,
            shuffle_cost.bisection_bytes,
            bisection_s.min(shuffle_secs),
        );
        stats.shuffle_time_s = shuffle_secs;
        // The shuffle runs concurrently with the map phase, so it gets
        // its own display lane rather than nesting inside the map span.
        self.tracer.span_at_in(
            "shuffle",
            "shuffle",
            "phase",
            t_job,
            t_job + stats.shuffle_time_s,
            vec![("bytes".to_string(), Payload::U64(shuffle_bytes))],
        );
        drop(hp_shuffle);

        // ---- Partition + sort (group by key within each bucket). --------
        //
        // Map tasks already partitioned their output, so this step only
        // transposes task-major buckets into reducer-major chunk lists
        // (cheap pointer moves) and then groups every reducer's bucket in
        // parallel with a sort-based merge. The stable sort + Ord-equality
        // run detection reproduces the previous serial BTreeMap build
        // exactly: ascending keys, values in map-task-major emission
        // order, first-emitted key instance representing each group.
        let host_partition = Instant::now();
        let mut reducer_chunks: Vec<Chunks<M::K, M::V>> = (0..cfg.reducers)
            .map(|_| Vec::with_capacity(map_outs.len()))
            .collect();
        {
            let _hp = hostprof::scope(Stage::Partition);
            for mo in map_outs {
                for (r, chunk) in mo.buckets.into_iter().enumerate() {
                    if !chunk.is_empty() {
                        reducer_chunks[r].push(chunk);
                    }
                }
            }
        }
        let grouped: Vec<Grouped<M::K, M::V>> =
            reducer_chunks.into_par_iter().map(group_bucket).collect();
        stats.host_partition_s = host_partition.elapsed().as_secs_f64();

        // Simulated time charges the sort/group to the reducers' merge
        // pass, which overlaps the shuffle tail; it contributes no
        // separate simulated time, so its span is an instant-width marker
        // at the reduce start.
        let t_reduce = t_job + stats.map_time_s.max(stats.shuffle_time_s);
        self.tracer
            .span_at("sort", "phase", t_reduce, t_reduce, Vec::new());

        // ---- Reduce phase: real execution, analytic replay. --------------
        // (output records, input values) per reduce task.
        let host_reduce = Instant::now();
        let red_outs: Vec<(Vec<R::Out>, usize)> = grouped
            .into_par_iter()
            .map(|bucket| {
                let mut ctx = ReduceContext::new();
                let mut values = 0usize;
                {
                    let _hp = hostprof::scope(Stage::Reduce);
                    for (k, vs) in &bucket {
                        values += vs.len();
                        reducer.reduce(k, vs, &mut ctx);
                    }
                }
                (ctx.into_parts(), values)
            })
            .collect();
        stats.host_reduce_s = host_reduce.elapsed().as_secs_f64();

        let reduce_secs = cfg.timing.reduce_secs;
        let reduce_tasks: Vec<TaskSpec> = red_outs
            .iter()
            .map(|(_, values)| TaskSpec::compute(*values as f64 * reduce_secs))
            .collect();
        let reduce_span = self.tracer.begin_at("reduce", "phase", t_reduce);
        // A killed reduce attempt re-fetches its shuffle partition from
        // the surviving map outputs — that refetch is the recovery cost.
        let reduce_recovery = stats.shuffle_bytes / cfg.reducers as u64;
        let red_outcome = {
            let _hp = hostprof::scope(Stage::Schedule);
            self.schedule_phase(
                &reduce_tasks,
                self.spec.reduce_slots_per_node(),
                group.clone(),
                t_reduce,
                "red",
                &|_| reduce_recovery,
            )
        };
        let reduce_time_s = red_outcome.makespan_s;
        self.tracer.end_at(reduce_span, t_reduce + reduce_time_s);
        self.tracer
            .set_arg(reduce_span, "waves", Payload::U64(red_outcome.waves as u64));
        stats.reduce_time_s = reduce_time_s;
        stats.reduce_waves = red_outcome.waves;

        // ---- Assemble output + time. -------------------------------------
        let total_out: usize = red_outs.iter().map(|(out, _)| out.len()).sum();
        let mut output = Vec::with_capacity(total_out);
        for (out, _) in red_outs {
            stats.output_records += out.len() as u64;
            output.extend(out);
        }
        stats.total_time_s = stats.map_time_s.max(stats.shuffle_time_s) + stats.reduce_time_s;
        self.finish_job(job, output)
    }
}

/// What one map task produced.
struct MapOut<K, V> {
    /// Post-combine emissions, one emission-ordered vector per reducer.
    buckets: Vec<Vec<(K, V)>>,
    raw_pairs: usize,
    raw_bytes: u64,
    shuffle_pairs: usize,
    shuffle_bytes: u64,
}

/// Every map task's output, in split order.
type MapOuts<M> = Vec<MapOut<<M as Mapper>::K, <M as Mapper>::V>>;

/// A job between its map stage and [`Engine::finish_job`].
struct OpenJob {
    /// Simulated start; the clock holds still until the job is finished.
    t_job: f64,
    span: SpanId,
    group: Range<NodeId>,
    stats: JobStats,
    /// Locality class each map task achieved.
    locality: Vec<Locality>,
}

/// One reducer's incoming shuffle: per contributing map task, that task's
/// bucket for this reducer, in task-major order.
type Chunks<K, V> = Vec<Vec<(K, V)>>;

/// One reducer's grouped input: ascending keys, each with its values in
/// task-major emission order.
type Grouped<K, V> = Vec<(K, Vec<V>)>;

/// Group one reducer's bucket: concatenate the per-map-task chunks (in
/// task order), stable-sort by key, and split into per-key runs.
///
/// Matches the semantics of building a `BTreeMap<K, Vec<V>>` by inserting
/// pairs in task-major emission order, which the engine did serially
/// before the pipeline was parallelized:
///
/// * groups come out in ascending key order;
/// * run boundaries use `Ord` equality (`cmp == Equal`), exactly like
///   BTreeMap lookups;
/// * the stored key of each group is its first-emitted instance, and
///   values keep task-major emission order (stable sort preserves the
///   concatenation order of equal keys).
fn group_bucket<K: Ord, V>(chunks: Chunks<K, V>) -> Grouped<K, V> {
    let _hp = hostprof::scope(Stage::SortMergeGroup);
    let total: usize = chunks.iter().map(Vec::len).sum();
    let mut pairs: Vec<(K, V)> = Vec::with_capacity(total);
    for chunk in chunks {
        pairs.extend(chunk);
    }
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out: Vec<(K, Vec<V>)> = Vec::new();
    for (k, v) in pairs {
        match out.last_mut() {
            Some((run_key, vs)) if (*run_key).cmp(&k) == Ordering::Equal => vs.push(v),
            _ => out.push((k, vec![v])),
        }
    }
    out
}

/// Sort one map task's output by key and combine each key's run of values.
fn combine_run<K: Ord + Clone, V>(
    c: &dyn DynCombiner<K, V>,
    mut pairs: Vec<(K, V)>,
) -> Vec<(K, V)> {
    if pairs.is_empty() {
        return pairs;
    }
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out: Vec<(K, V)> = Vec::new();
    let mut run_key: Option<K> = None;
    let mut run_vals: Vec<V> = Vec::new();
    for (k, v) in pairs {
        match &run_key {
            Some(rk) if *rk == k => run_vals.push(v),
            _ => {
                if let Some(rk) = run_key.take() {
                    c.combine_dyn(&rk, &mut run_vals);
                    out.extend(run_vals.drain(..).map(|v| (rk.clone(), v)));
                }
                run_key = Some(k);
                run_vals.push(v);
            }
        }
    }
    if let Some(rk) = run_key {
        c.combine_dyn(&rk, &mut run_vals);
        out.extend(run_vals.into_iter().map(|v| (rk.clone(), v)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Timing;
    use crate::traits::{FnCombiner, FnMapper, FnReducer};

    fn word_count_engine() -> Engine {
        Engine::new(ClusterSpec::small())
    }

    fn analytic(name: &str) -> JobConfig {
        JobConfig::new(name).timing(Timing::default_analytic())
    }

    /// `stats` without their host wall-clock fields.
    fn simulated(stats: JobStats) -> JobStats {
        JobStats {
            host_map_s: 0.0,
            host_partition_s: 0.0,
            host_reduce_s: 0.0,
            ..stats
        }
    }

    #[test]
    fn untraced_engine_counts_bytes_but_records_nothing() {
        let engine = Engine::untraced(ClusterSpec::small());
        assert!(!engine.tracer().is_enabled());
        let ds = Dataset::create(&engine, "/untraced", (0u64..100).collect(), 4);
        let mapper = FnMapper::new(|x: &u64, ctx: &mut MapContext<u64, u64>| {
            ctx.emit(*x % 10, 1);
        });
        let reducer = FnReducer::new(|k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
            ctx.emit((*k, vs.iter().sum()));
        });
        let r = engine.run(&analytic("silent"), &ds, &mapper, &reducer);
        assert_eq!(r.stats.output_records, 10);
        let trace = engine.trace();
        assert!(trace.spans.is_empty());
        assert!(trace.instants.is_empty());
        // The ledger still counts, trace or no trace.
        assert!(engine.traffic().get(TrafficClass::MapSpill) > 0);
    }

    #[test]
    fn tracing_only_observes_the_simulation() {
        /// Clock, stats without their wall-clock fields, and ledger after
        /// a job and a model write inside a link-degradation window.
        fn degraded_run(engine: Engine) -> (f64, String, TrafficSnapshot) {
            let plan = FaultPlan::new(0).degrade_links(4.0, 1.0, 1e9);
            engine.arm_chaos(&plan).unwrap();
            engine.advance(2.0);
            let ds = Dataset::create(&engine, "/in", (0u64..100).collect(), 4);
            let r = engine.run(&analytic("job"), &ds, &mapper_mod(), &reducer_sum());
            engine.write_model("/model", 10_000_000, 0, TrafficClass::ModelUpdate);
            let stats = simulated(r.stats);
            (engine.now(), format!("{stats:?}"), engine.traffic())
        }
        let traced = degraded_run(Engine::new(ClusterSpec::small()));
        let untraced = degraded_run(Engine::untraced(ClusterSpec::small()));
        assert_eq!(traced, untraced);
    }

    #[test]
    fn word_count_end_to_end() {
        let engine = word_count_engine();
        let words: Vec<String> = ["a", "b", "a", "c", "b", "a"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let ds = Dataset::create(&engine, "/wc", words, 3);
        let mapper = FnMapper::new(|w: &String, ctx: &mut MapContext<String, u64>| {
            ctx.emit(w.clone(), 1);
        });
        let reducer = FnReducer::new(
            |k: &String, vs: &[u64], ctx: &mut ReduceContext<(String, u64)>| {
                ctx.emit((k.clone(), vs.iter().sum()));
            },
        );
        let res = engine.run(&analytic("wc").reducers(2), &ds, &mapper, &reducer);
        let mut out = res.output;
        out.sort();
        assert_eq!(out, vec![("a".into(), 3), ("b".into(), 2), ("c".into(), 1)]);
        assert_eq!(res.stats.input_records, 6);
        assert_eq!(res.stats.map_output_records, 6);
        assert_eq!(res.stats.output_records, 3);
        assert!(res.stats.total_time_s > 0.0);
        assert!(engine.now() > 0.0);
    }

    #[test]
    fn combiner_shrinks_shuffle() {
        let engine = word_count_engine();
        let data: Vec<u64> = (0..1000).collect();
        let ds = Dataset::create(&engine, "/nums", data, 4);
        let mapper = FnMapper::new(|x: &u64, ctx: &mut MapContext<u64, u64>| {
            ctx.emit(*x % 10, 1);
        });
        let reducer = FnReducer::new(|k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
            ctx.emit((*k, vs.iter().sum()));
        });
        let plain = engine.run(&analytic("plain"), &ds, &mapper, &reducer);
        let combined =
            engine.run_with_combiner(&analytic("comb"), &ds, &mapper, &sum_combiner(), &reducer);

        assert_eq!(plain.stats.shuffle_records, 1000);
        assert_eq!(combined.stats.shuffle_records, 40, "10 keys × 4 map tasks");
        assert!(combined.stats.shuffle_bytes < plain.stats.shuffle_bytes);
        // Same answer either way.
        let mut a = plain.output;
        let mut b = combined.output;
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // The combiner removed 96% of the map output records before the
        // shuffle.
        let kept = combined.stats.shuffle_records as f64 / combined.stats.map_output_records as f64;
        assert!((kept - 0.04).abs() < 1e-9, "{kept}");
    }

    /// Counts records per key `x % 10`. Folding, one task emits one
    /// `(key, count)` pair per key it saw, standing for `count` raw
    /// `(key, 1)` pairs; with `folds == false` folding panics.
    struct CountMapper {
        folds: bool,
    }

    impl Mapper for CountMapper {
        type In = u64;
        type K = u64;
        type V = u64;

        fn map(&self, x: &u64, ctx: &mut MapContext<u64, u64>) {
            ctx.emit(*x % 10, 1);
        }

        fn map_combined(&self, xs: &[u64], ctx: &mut MapContext<u64, u64>) {
            assert!(self.folds, "map_combined ran in a job without a combiner");
            let mut counts = [0u64; 10];
            for x in xs {
                counts[(*x % 10) as usize] += 1;
            }
            for (key, n) in (0u64..).zip(counts).filter(|&(_, n)| n > 0) {
                ctx.emit_folded(key, n, n as usize, n * kv::record_size(&key, &1u64));
            }
        }
    }

    fn sum_combiner() -> impl Combiner<K = u64, V = u64> {
        FnCombiner::new(|_k: &u64, vs: &mut Vec<u64>| {
            let s: u64 = vs.iter().sum();
            vs.clear();
            vs.push(s);
        })
    }

    /// Every map task sees the index of the split it maps, with and
    /// without a combiner; a context built outside the engine maps split 0.
    #[test]
    fn each_map_task_knows_its_split() {
        let engine = word_count_engine();
        let ds = Dataset::create(&engine, "/nums", (0..1000u64).collect(), 4);
        let want: Vec<(u64, u64)> = (0u64..)
            .zip(ds.splits.iter().map(|s| s.records.len() as u64))
            .collect();
        let mapper = FnMapper::new(|_: &u64, ctx: &mut MapContext<u64, u64>| {
            ctx.emit(ctx.split() as u64, 1)
        });
        let cfg = analytic("split").reducers(3);
        let mut plain = engine.run(&cfg, &ds, &mapper, &reducer_sum()).output;
        let mut combined = engine
            .run_with_combiner(&cfg, &ds, &mapper, &sum_combiner(), &reducer_sum())
            .output;
        plain.sort();
        combined.sort();
        assert_eq!(plain, want);
        assert_eq!(combined, want);
        assert_eq!(MapContext::<u64, u64>::new().split(), 0);
    }

    #[test]
    fn a_job_without_a_combiner_maps_record_by_record() {
        let engine = word_count_engine();
        let ds = Dataset::create(&engine, "/nums", (0..1000u64).collect(), 4);
        let res = engine.run(
            &analytic("plain"),
            &ds,
            &CountMapper { folds: false },
            &reducer_sum(),
        );
        assert_eq!(res.stats.map_output_records, 1000);
        assert_eq!(res.stats.shuffle_records, 1000);
    }

    #[test]
    fn folded_pairs_count_as_the_raw_pairs_they_declare() {
        /// Output, stats without their wall-clock fields, and ledger.
        fn counted<M: Mapper<In = u64, K = u64, V = u64>>(
            mapper: &M,
        ) -> (Vec<(u64, u64)>, JobStats, TrafficSnapshot) {
            let engine = word_count_engine();
            let ds = Dataset::create(&engine, "/nums", (0..1000u64).collect(), 4);
            let cfg = analytic("comb").reducers(3);
            let res = engine.run_with_combiner(&cfg, &ds, mapper, &sum_combiner(), &reducer_sum());
            (res.output, simulated(res.stats), engine.traffic())
        }
        let (out, stats, traffic) = counted(&CountMapper { folds: true });
        assert_eq!(stats.map_output_records, 1000);
        assert_eq!(stats.map_output_bytes, 1000 * (8 + 8 + kv::RECORD_OVERHEAD));
        assert_eq!(stats.shuffle_records, 40, "10 keys × 4 map tasks");

        // The same job through the default `map_combined`, one pair per record.
        let (raw_out, raw_stats, raw_traffic) =
            counted(&FnMapper::new(|x: &u64, ctx: &mut MapContext<u64, u64>| {
                ctx.emit(*x % 10, 1)
            }));
        assert_eq!(out, raw_out);
        assert_eq!(format!("{stats:?}"), format!("{raw_stats:?}"));
        assert_eq!(traffic, raw_traffic);
    }

    #[test]
    fn shuffle_traffic_recorded_in_ledger() {
        let engine = word_count_engine();
        let ds = Dataset::create(&engine, "/t", (0..100u64).collect(), 2);
        let mapper = FnMapper::new(|x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(*x, *x));
        let reducer =
            FnReducer::new(|k: &u64, _vs: &[u64], ctx: &mut ReduceContext<u64>| ctx.emit(*k));
        let before = engine.traffic();
        let res = engine.run(&analytic("t"), &ds, &mapper, &reducer);
        let delta = engine.traffic().delta_since(&before);
        let ledger_total = delta.shuffle_total();
        let drift = ledger_total.abs_diff(res.stats.shuffle_bytes);
        assert!(
            drift <= 2,
            "ledger {ledger_total} vs stats {}",
            res.stats.shuffle_bytes
        );
    }

    #[test]
    fn node_group_confines_placement() {
        let engine = Engine::new(ClusterSpec::medium());
        let group = 0..8; // rack-local: medium cluster has 11 nodes per rack
        let ds = Dataset::create(&engine, "/g", (0..64u64).collect(), 16);
        let mapper = FnMapper::new(|x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(*x % 4, 1));
        let reducer = FnReducer::new(|k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
            ctx.emit((*k, vs.iter().sum()))
        });
        let before = engine.traffic();
        let res = engine.run(
            &analytic("g").on_group(group).reducers(4),
            &ds,
            &mapper,
            &reducer,
        );
        let delta = engine.traffic().delta_since(&before);
        assert_eq!(
            delta.get(TrafficClass::ShuffleBisection),
            0,
            "rack-local group shuffles must not touch the bisection"
        );
        assert_eq!(res.stats.map_tasks, 16);
        // Greedy FIFO scheduling (Hadoop 0.20's default, no delay
        // scheduling) lets idle slots steal rack-local tasks, but a
        // rack-local group keeps every task at worst rack-local.
        assert!(res.stats.node_local_tasks >= 1);
        assert_eq!(res.stats.remote_tasks, 0);
        assert_eq!(res.stats.node_local_tasks + res.stats.rack_local_tasks, 16);
    }

    #[test]
    fn armed_crash_preserves_results_and_charges_recovery() {
        use pic_simnet::chaos::FaultPlan;
        let slow = Timing {
            map_secs: 1e-3,
            reduce_secs: 1e-3,
        };
        let engine = word_count_engine();
        let ds = Dataset::create(&engine, "/cc", (0..2000u64).collect(), 12);
        let cfg = JobConfig::new("cc").timing(slow).reducers(4);
        let clean = engine.run(&cfg, &ds, &mapper_mod(), &reducer_sum());
        let t_clean = clean.stats.total_time_s;

        engine.reset();
        let plan = FaultPlan::new(7).node_crash(1, 0.05);
        engine.arm_chaos(&plan).unwrap();
        let faulty = engine.run(&cfg, &ds, &mapper_mod(), &reducer_sum());

        // Chaos touches only the simulated replay: the answer is bit-equal.
        assert_eq!(faulty.output, clean.output);
        assert!(
            faulty.stats.total_time_s > t_clean,
            "re-execution must cost simulated time: {} vs {t_clean}",
            faulty.stats.total_time_s
        );
        let t = engine.traffic();
        assert!(
            t.recovery_total() > 0,
            "killed attempts and re-replication charge recovery bytes"
        );
        let trace = engine.trace();
        assert!(trace
            .instants
            .iter()
            .any(|i| i.cat == "chaos" && i.name == "node-crash"));
        pic_simnet::trace::check::validate(&trace, &t).expect("faulty trace still validates");
    }

    #[test]
    fn crash_inside_the_reduce_phase_charges_each_lost_partition_refetch() {
        use pic_simnet::chaos::FaultPlan;
        let cfg = analytic("rc").reducers(4);
        let run = |plan: &FaultPlan| {
            let engine = word_count_engine();
            let ds = Dataset::create(&engine, "/rc", (0..2000u64).collect(), 12);
            engine.reset();
            engine.arm_chaos(plan).unwrap();
            let res = engine.run(&cfg, &ds, &mapper_mod(), &reducer_sum());
            (res, engine.trace(), engine.traffic())
        };
        let (clean, clean_trace, _) = run(&FaultPlan::new(7));
        // Crash a node that ran a reduce attempt halfway through the
        // attempts' startup overhead: after the map phase, mid-reduce.
        let node = clean_trace
            .spans
            .iter()
            .find(|s| s.lane.starts_with("red-slot-"))
            .and_then(|s| s.arg_u64("node"))
            .expect("a reduce attempt ran") as NodeId;
        let t_reduce = clean.stats.map_time_s.max(clean.stats.shuffle_time_s);
        let at_s = t_reduce + 0.5 * ClusterSpec::small().task_overhead_s;
        let (faulty, trace, traffic) = run(&FaultPlan::new(7).node_crash(node, at_s));

        // Chaos touches only the simulated replay: the answer is bit-equal.
        assert_eq!(faulty.output, clean.output);
        assert_eq!(faulty.stats.map_time_s, clean.stats.map_time_s);
        assert!(faulty.stats.reduce_time_s > clean.stats.reduce_time_s);
        let killed_on = |lane: &str| {
            trace
                .instants
                .iter()
                .filter(|i| i.name == "task-killed" && i.lane.starts_with(lane))
                .count() as u64
        };
        assert_eq!(killed_on("map-slot-"), 0, "the map phase ran clean");
        let killed_reducers = killed_on("red-slot-");
        assert!(killed_reducers >= 1, "the crash killed no reduce attempt");
        // Recovery is the dead node's re-replicated blocks plus one
        // shuffle partition re-fetched per killed reduce attempt.
        let rereplicated: u64 = trace
            .instants
            .iter()
            .filter(|i| i.name == "re-replicate")
            .filter_map(|i| i.arg_u64("bytes"))
            .sum();
        assert_eq!(
            traffic.recovery_total(),
            rereplicated + killed_reducers * (faulty.stats.shuffle_bytes / 4)
        );
        pic_simnet::trace::check::validate(&trace, &traffic).expect("faulty trace still validates");
    }

    fn mapper_mod() -> impl Mapper<In = u64, K = u64, V = u64> {
        FnMapper::new(|x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(*x % 16, *x))
    }

    fn reducer_sum() -> impl Reducer<K = u64, V = u64, Out = (u64, u64)> {
        FnReducer::new(|k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
            ctx.emit((*k, vs.iter().sum()))
        })
    }

    #[test]
    fn per_record_timing_is_deterministic() {
        let engine = word_count_engine();
        let ds = Dataset::create(&engine, "/d", (0..500u64).collect(), 5);
        let mapper = FnMapper::new(|x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(*x % 7, 1));
        let reducer = FnReducer::new(|k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
            ctx.emit((*k, vs.iter().sum()))
        });
        let a = engine.run(&analytic("d1"), &ds, &mapper, &reducer);
        let b = engine.run(&analytic("d2"), &ds, &mapper, &reducer);
        assert_eq!(a.stats.map_time_s, b.stats.map_time_s);
        assert_eq!(a.stats.total_time_s, b.stats.total_time_s);
    }

    #[test]
    fn output_order_is_deterministic() {
        let engine = word_count_engine();
        let ds = Dataset::create(&engine, "/ord", (0..200u64).collect(), 8);
        let mapper = FnMapper::new(|x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(*x % 13, *x));
        let reducer = FnReducer::new(|k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
            ctx.emit((*k, vs.iter().sum()))
        });
        let a = engine.run(&analytic("a").reducers(3), &ds, &mapper, &reducer);
        let b = engine.run(&analytic("b").reducers(3), &ds, &mapper, &reducer);
        assert_eq!(a.output, b.output, "same bucket-major, key-sorted order");
    }

    #[test]
    fn model_write_and_broadcast_charge_classes() {
        let engine = word_count_engine();
        engine.write_model("/model", 1000, 0, TrafficClass::ModelUpdate);
        engine.broadcast_model(1000, &(0..6));
        engine.gather_models_sized(&[500; 6]);
        let t = engine.traffic();
        assert_eq!(t.get(TrafficClass::ModelUpdate), 3000);
        assert_eq!(t.get(TrafficClass::Broadcast), 6000);
        assert_eq!(t.get(TrafficClass::Merge), 3000);
        assert!(engine.now() > 0.0);
    }

    #[test]
    fn scatter_model_charges_single_copy() {
        let engine = word_count_engine();
        engine.scatter_model(6_000, &(0..6));
        let t = engine.traffic();
        assert_eq!(
            t.get(TrafficClass::Broadcast),
            6_000,
            "sliced distribution moves the model once, not once per node"
        );
        assert!(engine.now() > 0.0);
        // Zero bytes is free.
        let before = engine.now();
        engine.scatter_model(0, &(0..6));
        assert_eq!(engine.now(), before);
    }

    #[test]
    fn gather_models_sized_charges_exact_sum() {
        let engine = word_count_engine();
        // 44 bytes total across 3 uneven sub-models; a mean-based charge
        // (44 / 3 = 14, times 3 = 42) would lose 2 bytes.
        engine.gather_models_sized(&[12, 12, 20]);
        let t = engine.traffic();
        assert_eq!(t.get(TrafficClass::Merge), 44);
        assert!(engine.now() > 0.0);
    }

    #[test]
    fn scatter_model_slice_time_rounds_up() {
        // 7 bytes over 2 nodes slices as ceil(7/2) = 4: the node holding
        // the remainder bounds the transfer, so 7 and 8 bytes take equally
        // long. A floored slice (3 vs 4) would make 7 finish faster.
        let a = word_count_engine();
        let b = word_count_engine();
        a.scatter_model(7, &(0..2));
        b.scatter_model(8, &(0..2));
        assert_eq!(a.now(), b.now());
        assert!(a.now() > 0.0);
    }

    #[test]
    fn combine_run_groups_all_duplicates() {
        struct Sum;
        impl DynCombiner<u64, u64> for Sum {
            fn combine_dyn(&self, _k: &u64, vs: &mut Vec<u64>) {
                let s = vs.iter().sum();
                vs.clear();
                vs.push(s);
            }
        }
        let pairs = vec![(2u64, 1u64), (1, 10), (2, 2), (1, 20), (3, 5)];
        let mut out = combine_run(&Sum, pairs);
        out.sort();
        assert_eq!(out, vec![(1, 30), (2, 3), (3, 5)]);
    }

    #[test]
    fn combine_run_keeps_multiple_values_per_key() {
        // A combiner may shrink a run to more than one value (e.g. keep a
        // min and a max); every survivor must be re-emitted under its key,
        // in the order the combiner left them.
        struct MinMax;
        impl DynCombiner<u64, u64> for MinMax {
            fn combine_dyn(&self, _k: &u64, vs: &mut Vec<u64>) {
                let (min, max) = (*vs.iter().min().unwrap(), *vs.iter().max().unwrap());
                vs.clear();
                vs.push(min);
                vs.push(max);
            }
        }
        let pairs = vec![(1u64, 9u64), (2, 4), (1, 3), (1, 6), (2, 8)];
        let out = combine_run(&MinMax, pairs);
        assert_eq!(out, vec![(1, 3), (1, 9), (2, 4), (2, 8)]);
    }

    #[test]
    fn combine_run_can_clear_a_key_entirely() {
        // A combiner that empties `values` drops the key from the shuffle.
        struct DropOdd;
        impl DynCombiner<u64, u64> for DropOdd {
            fn combine_dyn(&self, k: &u64, vs: &mut Vec<u64>) {
                if k % 2 == 1 {
                    vs.clear();
                }
            }
        }
        let pairs = vec![(1u64, 10u64), (2, 20), (3, 30), (2, 21)];
        let out = combine_run(&DropOdd, pairs);
        assert_eq!(out, vec![(2, 20), (2, 21)]);
    }

    #[test]
    fn combine_run_single_element_and_empty() {
        struct Sum;
        impl DynCombiner<u64, u64> for Sum {
            fn combine_dyn(&self, _k: &u64, vs: &mut Vec<u64>) {
                let s = vs.iter().sum();
                vs.clear();
                vs.push(s);
            }
        }
        assert_eq!(combine_run(&Sum, vec![(7u64, 42u64)]), vec![(7, 42)]);
        assert_eq!(combine_run(&Sum, Vec::<(u64, u64)>::new()), vec![]);
    }

    #[test]
    fn map_only_job_has_no_shuffle() {
        let engine = word_count_engine();
        let ds = Dataset::create(&engine, "/mo", (0..100u64).collect(), 4);
        let mapper = FnMapper::new(|x: &u64, ctx: &mut MapContext<u64, f64>| {
            ctx.emit(*x, *x as f64 * 2.0);
        });
        let before = engine.traffic();
        let res = engine.run_map_only(&analytic("mo"), &ds, &mapper);
        let delta = engine.traffic().delta_since(&before);
        assert_eq!(res.output.len(), 100);
        assert_eq!(delta.shuffle_total(), 0);
        assert_eq!(delta.get(TrafficClass::MapSpill), 0);
        assert_eq!(res.stats.reduce_tasks, 0);
        assert!(res.stats.total_time_s > 0.0);
        // Output preserves split order.
        assert_eq!(res.output[0], (0, 0.0));
        assert_eq!(res.output[99], (99, 198.0));
    }

    #[test]
    fn empty_input_runs_clean() {
        let engine = word_count_engine();
        let ds = Dataset::create(&engine, "/empty", Vec::<u64>::new(), 2);
        let mapper = FnMapper::new(|x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(*x, 1));
        let reducer =
            FnReducer::new(|k: &u64, _: &[u64], ctx: &mut ReduceContext<u64>| ctx.emit(*k));
        let res = engine.run(&analytic("e"), &ds, &mapper, &reducer);
        assert!(res.output.is_empty());
        assert_eq!(res.stats.shuffle_bytes, 0);
    }
}
