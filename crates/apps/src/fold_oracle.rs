//! In-mapper combining is invisible: a mapper that folds its own output
//! ([`Mapper::map_combined`]) emits, per map task, exactly what its
//! combiner makes of its per-record pairs, with the same raw counts, and
//! runs a combined job exactly as the same mapper emitting one pair per
//! record does — output bits, every simulated [`JobStats`] count, byte and
//! time, the traffic ledger and the trace. So are the Hamerly bounds a
//! k-means mapper keeps from one job of a run to the next.

use crate::kmeans::{
    lloyd_step, AssignMapper, AverageReducer, Centroids, Point, RunBounds, SumCombiner,
};
use crate::neuralnet::mr::{GradCombiner, GradMapper, GradReducer};
use crate::neuralnet::{Mlp, Sample};
use pic_mapreduce::{Combiner, Dataset, Engine, JobConfig, JobStats, MapContext, Mapper, Reducer};
use pic_simnet::trace::Trace;
use pic_simnet::traffic::TrafficSnapshot;
use pic_simnet::ClusterSpec;
use proptest::prelude::*;

/// The wrapped mapper with only [`Mapper::map`]: the engine's default
/// `map_combined` emits one pair per record and the combiner folds them.
struct PerRecord<M>(M);

impl<M: Mapper> Mapper for PerRecord<M> {
    type In = M::In;
    type K = M::K;
    type V = M::V;

    fn map(&self, record: &M::In, ctx: &mut MapContext<M::K, M::V>) {
        self.0.map(record, ctx);
    }
}

/// Everything a combined job leaves behind that the simulation defines:
/// the output, the stats without their wall-clock `host_*` fields (as
/// `Debug`, so `-0.0` and `0.0` differ), the ledger and the trace.
fn run_on_fresh_engine<M, C, R>(
    records: &[M::In],
    splits: usize,
    reducers: usize,
    mapper: &M,
    combiner: &C,
    reducer: &R,
) -> (Vec<R::Out>, String, (TrafficSnapshot, Trace))
where
    M: Mapper,
    C: Combiner<K = M::K, V = M::V>,
    R: Reducer<K = M::K, V = M::V>,
{
    let engine = Engine::new(ClusterSpec::small());
    let data = Dataset::create(&engine, "/fold", records.to_vec(), splits);
    let cfg = JobConfig::new("fold").reducers(reducers);
    let res = engine.run_with_combiner(&cfg, &data, mapper, combiner, reducer);
    let stats = JobStats {
        host_map_s: 0.0,
        host_partition_s: 0.0,
        host_reduce_s: 0.0,
        ..res.stats
    };
    (
        res.output,
        format!("{stats:?}"),
        (engine.traffic(), engine.trace()),
    )
}

/// One map task over `records`, both ways: folded by `map_combined`, and
/// emitted record by record then combined key by key in ascending key
/// order, as the engine's combiner pass does. Each way gives its pairs
/// (stably sorted by key) and its raw pair and byte counts.
#[allow(clippy::type_complexity)]
fn one_task<M, C>(
    records: &[M::In],
    mapper: &M,
    combiner: &C,
) -> [(Vec<(M::K, M::V)>, usize, u64); 2]
where
    M: Mapper,
    C: Combiner<K = M::K, V = M::V>,
{
    let mut folded = MapContext::new();
    mapper.map_combined(records, &mut folded);
    let mut raw = MapContext::new();
    for r in records {
        mapper.map(r, &mut raw);
    }
    let finish = |ctx: MapContext<M::K, M::V>| {
        let (n, bytes) = (ctx.emitted(), ctx.emitted_bytes());
        let mut pairs = ctx.into_parts();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        (pairs, n, bytes)
    };
    let (pairs, n, bytes) = finish(raw);
    let mut combined = Vec::new();
    let mut run = Vec::new();
    let mut pairs = pairs.into_iter().peekable();
    while let Some((k, v)) = pairs.next() {
        run.push(v);
        if pairs.peek().is_none_or(|(next, _)| *next != k) {
            combiner.combine(&k, &mut run);
            combined.extend(run.drain(..).map(|v| (k.clone(), v)));
        }
    }
    [finish(folded), (combined, n, bytes)]
}

/// The bit pattern of every double in `v`.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// [`one_task`]'s result with every value as bits.
#[allow(clippy::type_complexity)]
fn task_bits<K: Copy>(
    task: [(Vec<(K, (Vec<f64>, u64))>, usize, u64); 2],
) -> Vec<(Vec<(K, Vec<u64>, u64)>, usize, u64)> {
    task.into_iter()
        .map(|(pairs, n, bytes)| {
            let pairs = pairs.iter().map(|(k, (v, c))| (*k, bits(v), *c)).collect();
            (pairs, n, bytes)
        })
        .collect()
}

/// A coordinate: mostly small whole numbers (so distances tie and points
/// repeat), sometimes `±0.0`, otherwise an arbitrary double in ±100.
fn coord() -> impl Strategy<Value = f64> {
    (0u8..10, -3i32..4, -100.0f64..100.0).prop_map(|(kind, int, x)| match kind {
        0 => 0.0,
        1 => -0.0,
        2..=6 => int as f64,
        _ => x,
    })
}

/// `n` vectors of `dim` coordinates, each either fresh or a copy of an
/// earlier one; a case keeps a prefix of them, each cut to a prefix.
fn vectors(n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    (
        proptest::collection::vec(coord(), n * dim),
        proptest::collection::vec(0usize..2 * n, n),
    )
        .prop_map(move |(pool, copy)| {
            let mut out: Vec<Vec<f64>> = Vec::with_capacity(n);
            for i in 0..n {
                let v = if copy[i] < i {
                    out[copy[i]].clone()
                } else {
                    pool[i * dim..(i + 1) * dim].to_vec()
                };
                out.push(v);
            }
            out
        })
}

/// The first `n` of `pool`, each cut to `dim` coordinates.
fn prefix(pool: &[Vec<f64>], n: usize, dim: usize) -> Vec<Vec<f64>> {
    pool[..n].iter().map(|v| v[..dim].to_vec()).collect()
}

/// A k-means case: centroids (`k ∈ 1..=9`, some repeated, so points sit
/// equidistant from several), up to 60 points (some repeated, some copies
/// of a centroid), splits and reducers.
fn kmeans_case() -> impl Strategy<Value = (Centroids, Vec<Point>, usize, usize)> {
    (
        (1usize..10, 1usize..4, 0usize..61),
        vectors(9, 3),
        vectors(60, 3),
        proptest::collection::vec(0usize..27, 60),
        (1usize..7, 1usize..5),
    )
        .prop_map(
            |((k, dim, n), centroids, points, as_centroid, (splits, reducers))| {
                let centroids = prefix(&centroids, k, dim);
                let points = prefix(&points, n, dim)
                    .into_iter()
                    .zip(as_centroid)
                    .map(|(p, c)| Point::new(centroids.get(c).cloned().unwrap_or(p)))
                    .collect();
                (Centroids::new(centroids), points, splits, reducers)
            },
        )
}

/// A coordinate as the bounded assignment's own kernel tests draw it:
/// mostly small whole numbers (so distances tie), sometimes `±0.0`,
/// `±1e200` (squared distances overflow to `+∞`) or NaN, otherwise an
/// arbitrary double in ±100.
fn wild_coord() -> impl Strategy<Value = f64> {
    (0u8..40, -3i32..4, -100.0f64..100.0).prop_map(|(kind, int, x)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 | 3 => 1e200,
        4 => -1e200,
        5 => f64::NAN,
        6..=25 => int as f64,
        _ => x,
    })
}

/// One run of k-means jobs over the same points, splits and reducers:
/// 2–5 models of `dim ∈ 1..=3`. The first has `k ∈ 1..=9` centroids,
/// some repeated; each later one is the Lloyd successor of the one
/// before (what IC would run next), that model with one centroid moved
/// by a little, or a fresh draw of its own `k`. Up to 60 points, some
/// sitting on a centroid of the first model.
#[allow(clippy::type_complexity)]
fn kmeans_run_case() -> impl Strategy<Value = (Vec<Centroids>, Vec<Point>, usize, usize)> {
    /// Model `i` of a run, from its raw draw.
    fn model((k, pool, repeat): &(usize, Vec<f64>, Vec<usize>), dim: usize) -> Centroids {
        let mut coords: Vec<Vec<f64>> = Vec::with_capacity(*k);
        for i in 0..*k {
            let c = if repeat[i] < i {
                coords[repeat[i]].clone()
            } else {
                pool[i * 3..i * 3 + dim].to_vec()
            };
            coords.push(c);
        }
        Centroids::new(coords)
    }
    let raw_model = (
        1usize..10,
        proptest::collection::vec(wild_coord(), 9 * 3),
        proptest::collection::vec(0usize..18, 9),
    );
    (
        (1usize..4, 0usize..61, 1usize..7, 1usize..5, 1usize..5),
        proptest::collection::vec(raw_model, 5),
        proptest::collection::vec((0u8..3, 0usize..9, -1e-3f64..1e-3), 4),
        proptest::collection::vec(wild_coord(), 60 * 3),
        proptest::collection::vec(0usize..18, 60),
    )
        .prop_map(
            |((dim, n, splits, reducers, later), drawn, moves, pool, on_centroid)| {
                let first = model(&drawn[0], dim);
                let points: Vec<Point> = (0..n)
                    .map(|j| {
                        Point::new(match first.coords.get(on_centroid[j]) {
                            Some(c) => c.clone(),
                            None => pool[j * 3..j * 3 + dim].to_vec(),
                        })
                    })
                    .collect();
                let mut models = vec![first];
                for (i, (kind, c, by)) in moves.into_iter().take(later).enumerate() {
                    let prev = models.last().unwrap();
                    let next = match kind {
                        0 => lloyd_step(&points, prev),
                        1 => {
                            let mut m = prev.clone();
                            let c = c % m.k();
                            m.coords[c][0] += by;
                            m
                        }
                        _ => model(&drawn[i + 1], dim),
                    };
                    models.push(next);
                }
                (models, points, splits, reducers)
            },
        )
}

/// A neural-net case: a small random model, up to 30 samples (some
/// repeated), splits and reducers.
fn neuralnet_case() -> impl Strategy<Value = (Mlp, Vec<Sample>, usize, usize)> {
    (
        (1usize..5, 1usize..4, 2u8..4, 0usize..31, any::<u64>()),
        vectors(30, 4),
        proptest::collection::vec(0u8..3, 30),
        (1usize..6, 1usize..4),
    )
        .prop_map(
            |((din, dh, dout, n, seed), xs, labels, (splits, reducers))| {
                let samples = prefix(&xs, n, din)
                    .into_iter()
                    .zip(labels)
                    .map(|(x, label)| Sample {
                        x,
                        label: label % dout,
                    })
                    .collect();
                let model = Mlp::random(din, dh, dout as usize, seed);
                (model, samples, splits, reducers)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn assign_mapper_folding_is_invisible(case in kmeans_case()) {
        let (model, points, splits, reducers) = case;
        let mapper = AssignMapper::new(&model);
        let task = task_bits(one_task(&points, &mapper, &SumCombiner));
        prop_assert_eq!(&task[0], &task[1]);
        let (out, stats, sim) =
            run_on_fresh_engine(&points, splits, reducers, &mapper, &SumCombiner, &AverageReducer);
        let (ref_out, ref_stats, ref_sim) = run_on_fresh_engine(
            &points,
            splits,
            reducers,
            &PerRecord(AssignMapper::new(&model)),
            &SumCombiner,
            &AverageReducer,
        );
        let out_bits = |o: &[(u64, Vec<f64>, u64)]| -> Vec<(u64, Vec<u64>, u64)> {
            o.iter().map(|(k, c, n)| (*k, bits(c), *n)).collect()
        };
        prop_assert_eq!(out_bits(&out), out_bits(&ref_out));
        prop_assert_eq!(stats, ref_stats);
        prop_assert_eq!(sim, ref_sim);
    }

    #[test]
    fn bounded_assign_mapper_is_invisible_across_jobs(case in kmeans_run_case()) {
        let (models, points, splits, reducers) = case;
        let lens: Vec<usize> = Dataset::create(
            &Engine::new(ClusterSpec::small()),
            "/fold",
            points.clone(),
            splits,
        )
        .splits
        .iter()
        .map(|s| s.records.len())
        .collect();
        let out_bits = |o: &[(u64, Vec<f64>, u64)]| -> Vec<(u64, Vec<u64>, u64)> {
            o.iter().map(|(k, c, n)| (*k, bits(c), *n)).collect()
        };
        let mut run = RunBounds::default();
        for model in &models {
            let mapper = AssignMapper::bounded(model, run, lens.iter().copied());
            let (out, stats, sim) = run_on_fresh_engine(
                &points, splits, reducers, &mapper, &SumCombiner, &AverageReducer,
            );
            run = mapper.into_bounds().expect("a bounded mapper").0;
            let (ref_out, ref_stats, ref_sim) = run_on_fresh_engine(
                &points,
                splits,
                reducers,
                &PerRecord(AssignMapper::new(model)),
                &SumCombiner,
                &AverageReducer,
            );
            prop_assert_eq!(out_bits(&out), out_bits(&ref_out));
            prop_assert_eq!(stats, ref_stats);
            prop_assert_eq!(sim, ref_sim);
        }
    }

    #[test]
    fn grad_mapper_folding_is_invisible(case in neuralnet_case()) {
        let (model, samples, splits, reducers) = case;
        let task = task_bits(one_task(&samples, &GradMapper { model: &model }, &GradCombiner));
        prop_assert_eq!(&task[0], &task[1]);
        let (out, stats, sim) = run_on_fresh_engine(
            &samples,
            splits,
            reducers,
            &GradMapper { model: &model },
            &GradCombiner,
            &GradReducer,
        );
        let (ref_out, ref_stats, ref_sim) = run_on_fresh_engine(
            &samples,
            splits,
            reducers,
            &PerRecord(GradMapper { model: &model }),
            &GradCombiner,
            &GradReducer,
        );
        let out_bits = |o: &[(Vec<f64>, u64)]| -> Vec<(Vec<u64>, u64)> {
            o.iter().map(|(g, n)| (bits(g), *n)).collect()
        };
        prop_assert_eq!(out_bits(&out), out_bits(&ref_out));
        prop_assert_eq!(stats, ref_stats);
        prop_assert_eq!(sim, ref_sim);
    }
}
