//! Equivalence and determinism proofs for the parallel MapReduce
//! partition/sort/merge pipeline.
//!
//! The engine partitions each map task's output into per-reducer buckets
//! as it emits; each reduce task, in parallel, then groups its bucket
//! with a sort-based merge and reduces it. These tests pin that pipeline,
//! down to the order of each key's values, to a small serial reference
//! implementation — the per-reducer `BTreeMap` build the engine
//! used historically — across randomized jobs, and to itself across
//! thread-pool widths.

use std::collections::BTreeMap;

use pic_mapreduce::traits::{FnCombiner, FnMapper, FnReducer};
use pic_mapreduce::{
    bucket_of, kv, Dataset, Engine, JobConfig, JobStats, MapContext, ReduceContext, Timing,
};
use pic_simnet::traffic::TrafficClass;
use pic_simnet::{transfer, ClusterSpec};
use proptest::prelude::*;

/// Test record: (key id, payload). The mapper fans each record out to one
/// or two keys so jobs exercise multi-emit mappers.
type Rec = (u8, u32);

/// Shared map function — the engine mapper and the serial reference both
/// call this, so the two dataflows see identical emissions by construction.
fn map_record(r: &Rec, emit: &mut dyn FnMut(u64, u64)) {
    let (k, v) = *r;
    emit((k % 13) as u64, v as u64);
    if v % 3 == 0 {
        emit(((k as u64) + 7) % 13, (v / 3) as u64);
    }
}

fn engine_mapper() -> impl pic_mapreduce::Mapper<In = Rec, K = u64, V = u64> {
    FnMapper::new(|r: &Rec, ctx: &mut MapContext<u64, u64>| {
        map_record(r, &mut |k, v| ctx.emit(k, v));
    })
}

fn engine_combiner() -> impl pic_mapreduce::Combiner<K = u64, V = u64> {
    FnCombiner::new(|_k: &u64, vs: &mut Vec<u64>| {
        let s: u64 = vs.iter().sum();
        vs.clear();
        vs.push(s);
    })
}

/// An order-sensitive fold of a key's values (`h = h·31 + v`, wrapping),
/// so any reordering of a group's values changes the output.
fn fold(vs: &[u64]) -> u64 {
    vs.iter()
        .fold(0u64, |h, &v| h.wrapping_mul(31).wrapping_add(v))
}

fn engine_reducer() -> impl pic_mapreduce::Reducer<K = u64, V = u64, Out = (u64, u64, u64)> {
    FnReducer::new(
        |k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64, u64)>| {
            ctx.emit((*k, fold(vs), vs.len() as u64));
        },
    )
}

/// Everything the serial reference predicts about a job.
struct Reference {
    output: Vec<(u64, u64, u64)>,
    map_output_records: u64,
    map_output_bytes: u64,
    shuffle_records: u64,
    shuffle_bytes: u64,
}

/// Whole-task sort + run-combine, mirroring Hadoop's combiner pass: stable
/// sort by key, then the sum combiner collapses each key's run. (The
/// engine combines per bucket instead, which is equivalent because every
/// key hashes to exactly one bucket.)
fn combine_task(mut pairs: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    pairs.sort_by_key(|p| p.0);
    let mut out = Vec::new();
    let mut i = 0;
    while i < pairs.len() {
        let run_end = pairs[i..]
            .iter()
            .position(|p| p.0 != pairs[i].0)
            .map_or(pairs.len(), |d| i + d);
        let sum: u64 = pairs[i..run_end].iter().map(|p| p.1).sum();
        out.push((pairs[i].0, sum));
        i = run_end;
    }
    out
}

/// The historical serial dataflow: map each split in order, optionally
/// combine per task, then build one `BTreeMap<K, Vec<V>>` per reducer by
/// inserting pairs in task-major emission order, and reduce buckets in
/// bucket-major, key-ascending order.
fn serial_reference(splits: &[Vec<Rec>], reducers: usize, combine: bool) -> Reference {
    let mut tasks: Vec<Vec<(u64, u64)>> = Vec::new();
    let mut map_output_records = 0u64;
    let mut map_output_bytes = 0u64;
    for split in splits {
        let mut pairs = Vec::new();
        for r in split {
            map_record(r, &mut |k, v| pairs.push((k, v)));
        }
        map_output_records += pairs.len() as u64;
        map_output_bytes += kv::batch_size(&pairs);
        if combine {
            pairs = combine_task(pairs);
        }
        tasks.push(pairs);
    }
    let shuffle_records = tasks.iter().map(|p| p.len() as u64).sum();
    let shuffle_bytes = tasks.iter().map(|p| kv::batch_size(p)).sum();

    let mut buckets: Vec<BTreeMap<u64, Vec<u64>>> = vec![BTreeMap::new(); reducers];
    for pairs in &tasks {
        for (k, v) in pairs {
            buckets[bucket_of(k, reducers)]
                .entry(*k)
                .or_default()
                .push(*v);
        }
    }
    let mut output = Vec::new();
    for bucket in &buckets {
        for (k, vs) in bucket {
            output.push((*k, fold(vs), vs.len() as u64));
        }
    }
    Reference {
        output,
        map_output_records,
        map_output_bytes,
        shuffle_records,
        shuffle_bytes,
    }
}

/// The map-only form of a job on a fresh engine under a `threads`-wide
/// pool: output, input records read and the trace.
fn map_only_run(
    records: &[Rec],
    splits: usize,
    cfg: &JobConfig,
    threads: usize,
) -> (Vec<(u64, u64)>, u64, pic_simnet::Trace) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool");
    pool.install(|| {
        let engine = Engine::new(ClusterSpec::small());
        let data = Dataset::create(&engine, "/eq/job", records.to_vec(), splits);
        let r = engine.run_map_only(cfg, &data, &engine_mapper());
        (r.output, r.stats.input_records, engine.trace())
    })
}

/// Run one job on a fresh engine and check every observable against the
/// serial reference: output vector, stats, and ledger deltas. Then run its
/// map-only form against the "map every split in order, concatenate"
/// reference, under 1 and 4 worker threads.
fn check_job(records: Vec<Rec>, splits: usize, reducers: usize, combine: bool) {
    let engine = Engine::new(ClusterSpec::small());
    let data = Dataset::create(&engine, "/eq/job", records.clone(), splits);
    let split_records: Vec<Vec<Rec>> = data.splits.iter().map(|s| s.records.clone()).collect();
    let reference = serial_reference(&split_records, reducers, combine);

    let cfg = JobConfig::new("equivalence")
        .reducers(reducers)
        .timing(Timing::default_analytic());
    let before = engine.traffic();
    let result = if combine {
        engine.run_with_combiner(
            &cfg,
            &data,
            &engine_mapper(),
            &engine_combiner(),
            &engine_reducer(),
        )
    } else {
        engine.run(&cfg, &data, &engine_mapper(), &engine_reducer())
    };
    let delta = engine.traffic().delta_since(&before);

    assert_eq!(result.output, reference.output);
    assert_eq!(
        result.stats.map_output_records,
        reference.map_output_records
    );
    assert_eq!(result.stats.map_output_bytes, reference.map_output_bytes);
    assert_eq!(result.stats.shuffle_records, reference.shuffle_records);
    assert_eq!(result.stats.shuffle_bytes, reference.shuffle_bytes);
    assert_eq!(result.stats.output_records, reference.output.len() as u64);

    // Ledger: the spill charge is the raw map output, and the shuffle
    // classes split the reference's byte total exactly as the transfer
    // model dictates.
    assert_eq!(
        delta.get(TrafficClass::MapSpill),
        reference.map_output_bytes
    );
    let group = 0..engine.spec().nodes;
    let cost = transfer::shuffle(engine.spec(), &group, reference.shuffle_bytes);
    assert_eq!(delta.get(TrafficClass::ShuffleLocal), cost.local_bytes);
    assert_eq!(delta.get(TrafficClass::ShuffleRack), cost.rack_bytes);
    assert_eq!(
        delta.get(TrafficClass::ShuffleBisection),
        cost.bisection_bytes
    );
    assert_eq!(delta.shuffle_total(), reference.shuffle_bytes);

    let mut concatenated = Vec::new();
    for r in split_records.iter().flatten() {
        map_record(r, &mut |k, v| concatenated.push((k, v)));
    }
    let (out_1, inputs_1, trace_1) = map_only_run(&records, splits, &cfg, 1);
    let (out_4, inputs_4, trace_4) = map_only_run(&records, splits, &cfg, 4);
    assert_eq!(out_1, concatenated);
    assert_eq!(out_4, concatenated);
    assert_eq!(inputs_1, records.len() as u64);
    assert_eq!(inputs_1, inputs_4);
    assert_eq!(trace_1, trace_4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized jobs: arbitrary records, 1–5 splits, 1–8 reducers,
    /// with and without the combiner.
    #[test]
    fn parallel_pipeline_matches_serial_reference(
        records in proptest::collection::vec((any::<u8>(), any::<u32>()), 0..160),
        splits in 1usize..6,
        reducers in 1usize..9,
        combine in any::<bool>(),
    ) {
        check_job(records, splits, reducers, combine);
    }

    /// Single-key skew: every record maps to one key, so one reducer gets
    /// the whole shuffle and the rest get empty buckets.
    #[test]
    fn single_key_skew_matches_serial_reference(
        payloads in proptest::collection::vec(any::<u32>(), 1..120),
        reducers in 1usize..9,
        combine in any::<bool>(),
    ) {
        let records: Vec<Rec> = payloads.into_iter().map(|v| (0u8, v / 3 * 3)).collect();
        check_job(records, 4, reducers, combine);
    }
}

#[test]
fn empty_input_matches_serial_reference() {
    check_job(Vec::new(), 3, 4, false);
    check_job(Vec::new(), 3, 4, true);
}

#[test]
fn bucket_of_spreads_keys_across_reducers() {
    // The hash partitioner must actually distribute: over a modest key
    // set, at least two of four reducers receive keys (all-in-one-bucket
    // would serialize every reduce).
    let buckets: std::collections::HashSet<usize> = (0u64..32).map(|k| bucket_of(&k, 4)).collect();
    assert!(buckets.len() >= 2, "32 keys landed in {buckets:?}");
    assert!(buckets.iter().all(|b| *b < 4));
    // One reducer is always bucket 0.
    assert!((0u64..8).all(|k| bucket_of(&k, 1) == 0));
}

/// The deterministic slice of [`JobStats`] — everything except the
/// measured `host_*` wall-clock diagnostics, which legitimately vary from
/// run to run.
fn deterministic_stats(s: &JobStats) -> impl PartialEq + std::fmt::Debug {
    (
        (
            s.name.clone(),
            s.map_tasks,
            s.reduce_tasks,
            s.map_waves,
            s.reduce_waves,
        ),
        (
            s.map_time_s,
            s.shuffle_time_s,
            s.reduce_time_s,
            s.total_time_s,
        ),
        (
            s.input_records,
            s.map_output_records,
            s.map_output_bytes,
            s.shuffle_records,
            s.shuffle_bytes,
            s.output_records,
        ),
        (s.node_local_tasks, s.rack_local_tasks, s.remote_tasks),
    )
}

#[test]
fn pipeline_is_deterministic_across_pool_widths() {
    let run = || {
        let engine = Engine::new(ClusterSpec::small());
        let records: Vec<Rec> = (0..500u32).map(|i| ((i % 17) as u8, i * 31)).collect();
        let data = Dataset::create(&engine, "/eq/det", records, 7);
        let cfg = JobConfig::new("det")
            .reducers(5)
            .timing(Timing::default_analytic());
        let before = engine.traffic();
        let result = engine.run_with_combiner(
            &cfg,
            &data,
            &engine_mapper(),
            &engine_combiner(),
            &engine_reducer(),
        );
        let delta = engine.traffic().delta_since(&before);
        // The trace records simulated time only, so it must not vary.
        let trace = engine.trace();
        (result.output, result.stats, delta, trace)
    };

    let serial_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    let (out_1, stats_1, traffic_1, trace_1) = serial_pool.install(run);
    let (out_n, stats_n, traffic_n, trace_n) = run(); // default-width pool

    assert_eq!(out_1, out_n, "output must not depend on thread count");
    assert_eq!(
        traffic_1, traffic_n,
        "ledger must not depend on thread count"
    );
    assert_eq!(
        deterministic_stats(&stats_1),
        deterministic_stats(&stats_n),
        "simulated stats must not depend on thread count"
    );
    assert_eq!(
        trace_1, trace_n,
        "trace (modulo host_* args) must not depend on thread count"
    );
    assert!(!out_1.is_empty());
    assert!(!trace_1.spans.is_empty());

    // A second identical run in a fresh 1-thread pool reproduces the
    // 1-thread run bit for bit.
    let serial_pool_2 = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    let (out_again, stats_again, traffic_again, trace_again) = serial_pool_2.install(run);
    assert_eq!(out_1, out_again);
    assert_eq!(traffic_1, traffic_again);
    assert_eq!(
        deterministic_stats(&stats_1),
        deterministic_stats(&stats_again)
    );
    assert_eq!(trace_1, trace_again);
}
