//! The two-phase PIC driver (paper Fig. 3):
//!
//! ```text
//! // best-effort phase
//! do {
//!     (d1..dp, m1..mp) = partition(d, m);
//!     for each i in parallel: mi = IC(di, mi);   // local iterations
//!     m = merge(m1..mp);
//! } until BE_converged(m_prev, m);
//! // top-off phase
//! do { m = MapReduce(d, m); } until converged(m_prev, m);
//! ```
//!
//! Execution model for the local iterations: each sub-problem is solved
//! **in memory inside one long-running task** pinned to its node group
//! ([`crate::app::PicApp::solve_local`]). No shuffle is materialized, no
//! model is written to the DFS, and nothing crosses partitions — this is
//! exactly what produces the paper's Table II traffic collapse. Cluster
//! traffic occurs only at best-effort iteration boundaries: sub-model
//! broadcast out, sub-model gather back (merge), and one replicated write
//! of the merged model.

use crate::app::PicApp;
use crate::driver::ic::{run_ic, IcOptions};
use crate::report::PicReport;
use pic_mapreduce::kv::ByteSize;
use pic_mapreduce::{Dataset, Engine, Timing};
use pic_simnet::hostprof::{self, Stage};
use pic_simnet::scheduler::TaskSpec;
use pic_simnet::topology::node_group;
use pic_simnet::trace::Payload;
use pic_simnet::traffic::TrafficClass;
use pic_simnet::transfer;
use pic_simnet::QualityPoint;
use rayon::prelude::*;

/// Options for a PIC run.
#[derive(Debug, Clone)]
pub struct PicOptions {
    /// Number of sub-problems. The paper sizes this near the cluster's
    /// task-slot count (e.g. 18 partitions on the 6-node / 24-slot
    /// testbed).
    pub partitions: usize,
    /// Task-duration model (shared by both phases).
    pub timing: Timing,
    /// Simulated seconds one record costs inside a local iteration.
    /// Local iterations execute *inside one long-running task* over
    /// deserialized in-memory data, so they do not pay the per-record
    /// framework tax a MapReduce pass does — this difference is where most
    /// of the best-effort phase's time advantage comes from. `None`
    /// conservatively falls back to the framework `map_secs` of
    /// [`PicOptions::timing`].
    pub local_secs_per_record: Option<f64>,
}

impl Default for PicOptions {
    fn default() -> Self {
        PicOptions {
            partitions: 8,
            timing: Timing::default_analytic(),
            local_secs_per_record: None,
        }
    }
}

/// Run the two-phase PIC computation of `app` over `data` from `init`.
pub fn run_pic<A: PicApp>(
    engine: &Engine,
    app: &A,
    data: &Dataset<A::Record>,
    init: A::Model,
    opts: &PicOptions,
) -> PicReport<A::Model> {
    let spec = engine.spec();
    let chaos = engine.chaos();
    let mut parts = opts.partitions;
    let mut active_nodes = spec.nodes;
    assert!(parts > 0, "need at least one partition");

    // Root span for the whole two-phase run; the best-effort rounds and the
    // top-off's "topoff:*" driver span nest inside it.
    let tracer = engine.tracer().clone();
    let pic_span = tracer.begin_at(format!("pic:{}", app.name()), "driver", engine.now());

    engine.advance(spec.job_overhead_s); // one-time startup
    let run_t0 = engine.now();
    let be_traffic0 = engine.traffic();

    // ---- Partition the data (paper `partition`, data side). Partitions
    // are logical groupings of existing DFS blocks — what the paper's
    // random partitioners amount to — so no data moves.
    let mut parts_records = app.partition_data(data, parts);
    assert_eq!(
        parts_records.len(),
        parts,
        "partition_data must return `parts` groups"
    );
    // Sub-problem `p` of `parts` runs on node group `p` of the active
    // nodes — the whole cluster until an elastic resize.
    let split = |nodes, parts| (0..parts).map(|p| node_group(nodes, p, parts)).collect();
    let mut groups: Vec<std::ops::Range<usize>> = split(active_nodes, parts);

    // ---- Best-effort iterations. ----------------------------------------
    let cap = app.local_iteration_cap();
    let max_be = app.max_be_iterations();
    let model_file = format!("{}/{}.be.model", super::MODEL_PATH, app.name());

    let mut model = init;
    let mut trajectory = Vec::new();
    // The error of the current unified model, evaluated once per model.
    let mut error = app.error(&model);
    if let Some(e) = error {
        trajectory.push(QualityPoint { t_s: 0.0, err: e });
    }
    let mut local_iterations: Vec<Vec<usize>> = Vec::new();
    let mut be_iterations = 0;

    while be_iterations < max_be {
        let be_span = tracer.begin_at(
            format!("be-{}", be_iterations + 1),
            "be-iteration",
            engine.now(),
        );
        tracer.set_arg(be_span, "iteration", Payload::U64(be_iterations as u64 + 1));

        // Sub-models out of the unified model (paper `partition`, model
        // side), broadcast each to its node group. Broadcasts to disjoint
        // groups proceed in parallel: time is their max, traffic their sum.
        let sub_models = {
            let _hp = hostprof::scope(Stage::PicMerge);
            app.split_model(&model, parts)
        };
        assert_eq!(
            sub_models.len(),
            parts,
            "split_model must return `parts` models"
        );
        let t_bcast = engine.now();
        let mut bcast_s: f64 = 0.0;
        let mut bcast_bytes: u64 = 0;
        for (g, sm) in groups.iter().zip(&sub_models) {
            let (s, net) = transfer::broadcast(spec, g.len(), sm.byte_size());
            engine
                .ledger()
                .add_over(TrafficClass::Broadcast, net, t_bcast, t_bcast + s);
            bcast_s = bcast_s.max(s);
            bcast_bytes += net;
        }
        tracer.span_at(
            "broadcast",
            "transfer",
            t_bcast,
            t_bcast + bcast_s,
            vec![("bytes".into(), Payload::U64(bcast_bytes))],
        );
        engine.advance(bcast_s);

        // Local iterations: solve every sub-problem for real, in parallel.
        let solved: Vec<(A::Model, usize)> = parts_records
            .par_iter()
            .zip(sub_models.par_iter())
            .enumerate()
            .map(|(p, (records, sm))| {
                let _hp = hostprof::scope(Stage::PicSolve);
                app.solve_local(p, records, sm, cap)
            })
            .collect();

        // Replay the solves onto the simulated cluster: one long-running
        // task per sub-problem, preferring its group's nodes. Each
        // best-effort round, the task re-reads and deserializes its shard
        // once at the framework rate, then runs its local iterations over
        // the in-memory records at the local rate.
        let map_secs = opts.timing.map_secs;
        let local = opts.local_secs_per_record.unwrap_or(map_secs);
        let tasks: Vec<TaskSpec> = solved
            .iter()
            .enumerate()
            .map(|(p, (_, iters))| {
                let records = parts_records[p].len() as f64;
                TaskSpec {
                    duration_s: records * map_secs + records * *iters as f64 * local,
                    preferred_nodes: groups[p].clone().collect(),
                    input_bytes: 0, // sub-problem data is group-local
                }
            })
            .collect();

        // Chaos: nodes dying inside this round's window kill their running
        // solve attempts; surviving slots re-execute them (identical host
        // results — the replay only pays the time and recovery traffic,
        // each killed attempt's lost sub-model broadcast).
        let outcome = engine.schedule_phase(
            &tasks,
            spec.map_slots_per_node(),
            0..active_nodes,
            engine.now(),
            "solve",
            &|t| sub_models[t].byte_size(),
        );
        engine.advance(outcome.makespan_s);

        // Collect sub-models and merge (paper `merge`).
        let (sub_results, iters): (Vec<A::Model>, Vec<usize>) = solved.into_iter().unzip();
        // Charge the exact per-sub-model sizes: a mean rounded down to a
        // common size undercounts the merge traffic by up to `parts - 1`
        // bytes per round whenever sub-model sizes are uneven.
        let sub_sizes: Vec<u64> = sub_results.iter().map(ByteSize::byte_size).collect();
        let merge_span = tracer.begin_at("merge", "merge", engine.now());
        let hp_merge = hostprof::scope(Stage::PicMerge);
        engine.gather_models_sized(&sub_sizes);
        // The merge itself runs as a (small) MapReduce job in the paper's
        // library; charge it one task wave.
        engine.advance(spec.task_overhead_s);
        let merged = app.merge(&sub_results, &model);
        drop(hp_merge);
        engine.write_model(
            &model_file,
            merged.byte_size(),
            0,
            TrafficClass::ModelUpdate,
        );
        tracer.end_at(merge_span, engine.now());

        let batch_locals: usize = iters.iter().sum();
        local_iterations.push(iters);
        be_iterations += 1;
        // Record the merged model's error while the best-effort span is
        // still open; the round's local-iteration batch total rides along.
        error = app.error(&merged);
        super::record_quality(
            engine,
            error,
            be_iterations,
            vec![("local_iterations".into(), Payload::U64(batch_locals as u64))],
        );
        tracer.end_at(be_span, engine.now());
        if let Some(e) = error {
            trajectory.push(QualityPoint {
                t_s: engine.now() - run_t0,
                err: e,
            });
        }

        let done = app.be_converged(&model, &merged);
        model = merged;
        if done {
            break;
        }

        // Elastic resize between best-effort iterations: adopt the new
        // partition count and active-node range, re-derive the logical
        // data partitions, and pay a full repartition pass — the one
        // chaos event that legitimately changes results (different
        // sub-problem boundaries), which is why the scenario matrix holds
        // it to a tolerance instead of exact equality.
        if let Some((new_parts, new_nodes)) = chaos.resize_after(be_iterations, engine.now()) {
            parts = new_parts;
            active_nodes = new_nodes.min(spec.nodes).max(1);
            parts_records = app.partition_data(data, parts);
            assert_eq!(parts_records.len(), parts, "partition_data on resize");
            groups = split(active_nodes, parts);
            let cost = transfer::shuffle(spec, &(0..active_nodes), data.total_bytes);
            engine.transfer(
                "rebalance",
                TrafficClass::Recovery,
                data.total_bytes,
                cost.seconds,
                &[("partitions", parts as u64), ("nodes", active_nodes as u64)],
            );
        }
    }

    let be_time_s = engine.now() - run_t0;
    let be_traffic = engine.traffic().delta_since(&be_traffic0);
    let be_final_error = error;
    let be_model = model.clone();
    // The sub-problems' copies of the records are done with; the top-off
    // maps `data` itself.
    drop(parts_records);

    // ---- Top-off phase: the unmodified IC computation. ------------------
    let topoff_opts = IcOptions {
        max_iterations: Some(app.max_topoff_iterations()),
        timing: opts.timing.clone(),
        phase: "topoff",
        charge_startup: false, // same job chain continues
    };
    let topoff = run_ic(engine, app, data, model, &topoff_opts);
    tracer.end_at(pic_span, engine.now());

    for p in &topoff.trajectory {
        let t_s = be_time_s + p.t_s;
        // The top-off's starting point samples the handed-off model at
        // the instant the last best-effort point already recorded; skip
        // it so the combined trajectory stays strictly monotone in t_s.
        if trajectory.last().is_some_and(|l| t_s <= l.t_s) {
            continue;
        }
        trajectory.push(QualityPoint { t_s, err: p.err });
    }

    PicReport {
        final_model: topoff.final_model,
        be_model,
        be_iterations,
        local_iterations,
        topoff_iterations: topoff.iterations,
        topoff_converged: topoff.converged,
        be_time_s,
        topoff_time_s: topoff.total_time_s,
        total_time_s: be_time_s + topoff.total_time_s,
        be_traffic,
        topoff_traffic: topoff.traffic,
        trajectory,
        be_final_error,
    }
}
