//! Micro-benchmarks of the MapReduce substrate itself: raw job overhead,
//! shuffle volume handling, combiner effectiveness and map-only jobs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pic_mapreduce::traits::{FnCombiner, FnMapper, FnReducer};
use pic_mapreduce::{Dataset, Engine, JobConfig, MapContext, ReduceContext, Timing};
use pic_simnet::ClusterSpec;

fn analytic(name: &str) -> JobConfig {
    JobConfig::new(name).timing(Timing::default_analytic())
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("mapreduce_engine");
    g.sample_size(10);

    for n in [10_000usize, 100_000] {
        // Untraced: measure the engine, not span recording.
        let engine = Engine::untraced(ClusterSpec::small());
        let data = Dataset::create(&engine, "/b/mr", (0..n as u64).collect(), 24);
        let mapper = FnMapper::new(|x: &u64, ctx: &mut MapContext<u64, u64>| {
            ctx.emit(*x % 1000, 1);
        });
        let reducer = FnReducer::new(|k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
            ctx.emit((*k, vs.iter().sum()));
        });
        let combiner = FnCombiner::new(|_k: &u64, vs: &mut Vec<u64>| {
            let s: u64 = vs.iter().sum();
            vs.clear();
            vs.push(s);
        });

        g.bench_with_input(BenchmarkId::new("full_job", n), &n, |b, _| {
            b.iter(|| {
                engine
                    .run(&analytic("j"), &data, &mapper, &reducer)
                    .stats
                    .output_records
            });
        });
        g.bench_with_input(BenchmarkId::new("combined_job", n), &n, |b, _| {
            b.iter(|| {
                engine
                    .run_with_combiner(&analytic("jc"), &data, &mapper, &combiner, &reducer)
                    .stats
                    .shuffle_records
            });
        });
        g.bench_with_input(BenchmarkId::new("map_only_job", n), &n, |b, _| {
            b.iter(|| {
                engine
                    .run_map_only(&analytic("jm"), &data, &mapper)
                    .stats
                    .map_time_s
            });
        });
    }
    g.finish();
}

/// Wide shuffle: many distinct keys fanned across many reducers, so the
/// partition/sort/merge step dominates the host-side work. This is the
/// case the parallel pipeline targets — the serial per-reducer BTreeMap
/// build used to run entirely on the driver thread.
fn bench_wide_shuffle(c: &mut Criterion) {
    let mut g = c.benchmark_group("wide_shuffle");
    g.sample_size(10);

    for n in [50_000usize, 200_000] {
        // The disabled tracer's early-return path is what keeps the hot
        // emit/charge loop allocation-free here.
        let engine = Engine::untraced(ClusterSpec::small());
        let data = Dataset::create(&engine, "/b/wide", (0..n as u64).collect(), 24);
        // ~n/2 distinct keys: almost every pair starts its own group, so
        // grouping cost scales with shuffle volume rather than key count.
        let mapper = FnMapper::new(|x: &u64, ctx: &mut MapContext<u64, u64>| {
            ctx.emit(*x % 100_000, *x);
            ctx.emit((*x * 31) % 100_000, 1);
        });
        let reducer = FnReducer::new(|k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
            ctx.emit((*k, vs.iter().sum()));
        });

        for reducers in [4usize, 24] {
            let id = BenchmarkId::new(format!("reducers_{reducers}"), n);
            let cfg = analytic("wide").reducers(reducers);
            g.bench_with_input(id, &n, |b, _| {
                b.iter(|| {
                    let r = engine.run(&cfg, &data, &mapper, &reducer);
                    (r.stats.host_partition_s, r.stats.output_records)
                });
            });
        }
    }
    g.finish();
}

/// The DESIGN.md §14 host profiler's cost contract: disabled (the
/// default), the scopes threaded through the engine are one relaxed
/// atomic load each, so the same job benches identically with the
/// instrumentation compiled in; enabled, the overhead stays a small
/// constant per stage scope.
fn bench_hostprof_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("hostprof_overhead");
    g.sample_size(10);

    let n = 100_000usize;
    let engine = Engine::untraced(ClusterSpec::small());
    let data = Dataset::create(&engine, "/b/prof", (0..n as u64).collect(), 24);
    let mapper = FnMapper::new(|x: &u64, ctx: &mut MapContext<u64, u64>| {
        ctx.emit(*x % 1000, 1);
    });
    let reducer = FnReducer::new(|k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
        ctx.emit((*k, vs.iter().sum()));
    });

    pic_simnet::hostprof::reset();
    g.bench_function("disabled", |b| {
        b.iter(|| {
            engine
                .run(&analytic("jp"), &data, &mapper, &reducer)
                .stats
                .output_records
        });
    });
    pic_simnet::hostprof::enable();
    g.bench_function("enabled", |b| {
        b.iter(|| {
            engine
                .run(&analytic("jp"), &data, &mapper, &reducer)
                .stats
                .output_records
        });
    });
    pic_simnet::hostprof::disable();
    pic_simnet::hostprof::reset();
    g.finish();
}

criterion_group!(
    benches,
    bench_engine,
    bench_wide_shuffle,
    bench_hostprof_overhead
);
criterion_main!(benches);
