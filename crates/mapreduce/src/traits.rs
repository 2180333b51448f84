//! The user-facing MapReduce programming interface.
//!
//! Mirrors the classic Hadoop `Mapper` / `Reducer` / `Combiner` classes
//! that the paper's Figure 4 builds on: `map(d_i, model) -> (key, value)*`
//! and `reduce(key, iterator<values>) -> output*`, with an optional
//! combiner that pre-aggregates map output before it is shuffled.

use crate::counters::Counters;
use crate::kv::{self, ByteSize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Marker bundle for key types: hashable (for partitioning), ordered (for
/// the sort phase), sized (for traffic accounting), and shareable across
/// the task pool.
pub trait Key: std::hash::Hash + Eq + Ord + Clone + Send + Sync + ByteSize {}
impl<T: std::hash::Hash + Eq + Ord + Clone + Send + Sync + ByteSize> Key for T {}

/// Marker bundle for value and record types.
pub trait Value: Clone + Send + Sync + ByteSize {}
impl<T: Clone + Send + Sync + ByteSize> Value for T {}

/// Deterministic reduce-bucket assignment (SipHash with the fixed default
/// keys — stable across runs and platforms for a given Rust release).
/// This is the engine's hash partitioner; it is public so reference
/// implementations and tests can reproduce the exact bucket layout.
/// One bucket needs no hash: every key lands in bucket 0.
pub fn bucket_of<K: Hash>(key: &K, reducers: usize) -> usize {
    if reducers == 1 {
        return 0;
    }
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % reducers as u64) as usize
}

/// Context handed to [`Mapper::map`] and [`Mapper::map_combined`]:
/// collects emitted pairs and counter increments for one task.
///
/// Each pair is routed to its reduce bucket by [`bucket_of`] *as it is
/// emitted*, so the engine's shuffle partitioning work happens inside the
/// (parallel) map tasks instead of in a serial driver pass. A flat
/// context ([`MapContext::new`], used by map-only jobs and direct mapper
/// unit tests) is the one-bucket case: pairs accumulate in emission order.
///
/// The context also counts the task's *raw* output as it is emitted —
/// pairs and serialized bytes ([`kv::record_size`]) — which is Hadoop's
/// "Map output records/bytes" before any combiner. A pair emitted with
/// [`MapContext::emit_folded`] counts as the per-record emissions it
/// stands for.
pub struct MapContext<K, V> {
    /// Emission-ordered pairs per reduce bucket; never empty.
    buckets: Vec<Vec<(K, V)>>,
    emitted: usize,
    emitted_bytes: u64,
    counters: Counters,
    /// Index of the split the task maps; set by the engine.
    pub(crate) split: usize,
}

impl<K, V> Default for MapContext<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> MapContext<K, V> {
    /// An empty flat (one-bucket) context (exposed so applications can
    /// unit-test mappers directly).
    pub fn new() -> Self {
        Self::partitioned(1)
    }

    /// An empty context that hash-partitions emissions into `reducers`
    /// buckets at emit time.
    ///
    /// # Panics
    /// Panics if `reducers` is zero.
    pub fn partitioned(reducers: usize) -> Self {
        assert!(reducers > 0, "partitioned context needs at least 1 bucket");
        MapContext {
            buckets: (0..reducers).map(|_| Vec::new()).collect(),
            emitted: 0,
            emitted_bytes: 0,
            counters: Counters::new(),
            split: 0,
        }
    }

    /// Index, within the job's input, of the split this task maps —
    /// Hadoop's `context.getInputSplit()`. A context built outside the
    /// engine maps split 0.
    pub fn split(&self) -> usize {
        self.split
    }

    /// Emit one intermediate key/value pair.
    #[inline]
    pub fn emit(&mut self, key: K, value: V)
    where
        K: Hash + ByteSize,
        V: ByteSize,
    {
        let bytes = kv::record_size(&key, &value);
        self.emit_folded(key, value, 1, bytes);
    }

    /// Emit one pair that stands for `raw_pairs` per-record emissions of
    /// `raw_bytes` serialized bytes in all — a mapper's own pre-aggregate
    /// of pairs a combiner would fold ([`Mapper::map_combined`]). The pair
    /// itself is routed and shipped like any other; only the raw counts
    /// (Hadoop's "Map output records/bytes") take the declared figures.
    #[inline]
    pub fn emit_folded(&mut self, key: K, value: V, raw_pairs: usize, raw_bytes: u64)
    where
        K: Hash,
    {
        self.emitted += raw_pairs;
        self.emitted_bytes += raw_bytes;
        let b = bucket_of(&key, self.buckets.len());
        self.buckets[b].push((key, value));
    }

    /// Increment a named counter (aggregated into the job's
    /// [`crate::stats::JobStats`]).
    pub fn incr(&mut self, counter: &str, by: u64) {
        self.counters.incr(counter, by);
    }

    /// Number of raw pairs emitted so far by this task (a folded pair
    /// counts as the emissions it stands for).
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Serialized bytes of the raw pairs emitted so far by this task, at
    /// [`kv::record_size`] per pair.
    pub fn emitted_bytes(&self) -> u64 {
        self.emitted_bytes
    }

    /// Consume the context, yielding emitted pairs and counters (for
    /// direct mapper tests): emission order for a flat context,
    /// bucket-major order for a partitioned one.
    pub fn into_parts(self) -> (Vec<(K, V)>, Counters) {
        let mut buckets = self.buckets.into_iter();
        let mut pairs = buckets.next().expect("at least one bucket");
        for b in buckets {
            pairs.extend(b);
        }
        (pairs, self.counters)
    }

    /// Consume the context, yielding one emission-ordered pair vector per
    /// reduce bucket (a single one for a flat context) plus the counters.
    pub fn into_buckets(self) -> (Vec<Vec<(K, V)>>, Counters) {
        (self.buckets, self.counters)
    }
}

/// Context handed to [`Reducer::reduce`]: collects output records and
/// counters for one reduce task.
pub struct ReduceContext<O> {
    out: Vec<O>,
    counters: Counters,
}

impl<O> Default for ReduceContext<O> {
    fn default() -> Self {
        Self::new()
    }
}

impl<O> ReduceContext<O> {
    /// An empty context (exposed so applications can unit-test reducers
    /// directly).
    pub fn new() -> Self {
        ReduceContext {
            out: Vec::new(),
            counters: Counters::new(),
        }
    }

    /// Emit one output record.
    #[inline]
    pub fn emit(&mut self, record: O) {
        self.out.push(record);
    }

    /// Increment a named counter.
    pub fn incr(&mut self, counter: &str, by: u64) {
        self.counters.incr(counter, by);
    }

    /// Consume the context, yielding emitted records and counters (for
    /// direct reducer tests).
    pub fn into_parts(self) -> (Vec<O>, Counters) {
        (self.out, self.counters)
    }
}

/// A map function over input records of type [`Mapper::In`].
///
/// Shared state (the current model, per the template of the paper's
/// Fig. 1(a) where `map` receives "one element of input data *and the
/// model*") lives in the implementing struct, which the engine shares
/// read-only across all map tasks — exactly how Hadoop ships the model to
/// mappers via the distributed cache.
pub trait Mapper: Send + Sync {
    /// Input record type.
    type In: Value;
    /// Intermediate key type.
    type K: Key;
    /// Intermediate value type.
    type V: Value;

    /// Process one input record, emitting zero or more pairs.
    fn map(&self, record: &Self::In, ctx: &mut MapContext<Self::K, Self::V>);

    /// Process one map task's whole split, in order — Hadoop's
    /// `Mapper.run`. The engine calls this instead of [`Mapper::map`]
    /// only when the job has a combiner; the default maps each record in
    /// turn.
    ///
    /// An override may fold its own output before emitting it (Lin's
    /// in-mapper combining): it must emit, per key, what the job's
    /// combiner would make of the per-record emissions, bit for bit, and
    /// declare the raw pairs and bytes each folded pair stands for with
    /// [`MapContext::emit_folded`]. The combiner still runs over the
    /// folded output, so it must leave a folded pair as it is.
    fn map_combined(&self, records: &[Self::In], ctx: &mut MapContext<Self::K, Self::V>) {
        for r in records {
            self.map(r, ctx);
        }
    }
}

/// A reduce function over grouped intermediate pairs.
pub trait Reducer: Send + Sync {
    /// Intermediate key type (matches the mapper's).
    type K: Key;
    /// Intermediate value type (matches the mapper's).
    type V: Value;
    /// Output record type.
    type Out: Value;

    /// Process one key and all its values.
    fn reduce(&self, key: &Self::K, values: &[Self::V], ctx: &mut ReduceContext<Self::Out>);
}

/// A combiner pre-aggregates one map task's output for a key before the
/// shuffle, shrinking intermediate data volume ("use of combiners" is one
/// of the optimizations the paper grants the baseline, §II).
pub trait Combiner: Send + Sync {
    /// Key type.
    type K: Key;
    /// Value type (combiners must be type-preserving, as in Hadoop when
    /// the combiner class is the reducer class).
    type V: Value;

    /// Shrink `values` in place (typically to a single element).
    fn combine(&self, key: &Self::K, values: &mut Vec<Self::V>);
}

/// Object-safe internal adapter so the engine can treat "no combiner" and
/// "some combiner" uniformly.
pub(crate) trait DynCombiner<K, V>: Send + Sync {
    fn combine_dyn(&self, key: &K, values: &mut Vec<V>);
}

impl<C: Combiner> DynCombiner<C::K, C::V> for C {
    fn combine_dyn(&self, key: &C::K, values: &mut Vec<C::V>) {
        self.combine(key, values)
    }
}

/// Blanket closure-based mapper for quick jobs and tests.
pub struct FnMapper<I, K, V, F> {
    f: F,
    #[allow(clippy::type_complexity)]
    _marker: std::marker::PhantomData<fn(&I) -> (K, V)>,
}

impl<I, K, V, F> FnMapper<I, K, V, F>
where
    F: Fn(&I, &mut MapContext<K, V>) + Send + Sync,
{
    /// Wrap a closure as a [`Mapper`].
    pub fn new(f: F) -> Self {
        FnMapper {
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<I, K, V, F> Mapper for FnMapper<I, K, V, F>
where
    I: Value,
    K: Key,
    V: Value,
    F: Fn(&I, &mut MapContext<K, V>) + Send + Sync,
{
    type In = I;
    type K = K;
    type V = V;
    fn map(&self, record: &I, ctx: &mut MapContext<K, V>) {
        (self.f)(record, ctx)
    }
}

/// Blanket closure-based reducer for quick jobs and tests.
pub struct FnReducer<K, V, O, F> {
    f: F,
    _marker: std::marker::PhantomData<fn(&K, &V) -> O>,
}

impl<K, V, O, F> FnReducer<K, V, O, F>
where
    F: Fn(&K, &[V], &mut ReduceContext<O>) + Send + Sync,
{
    /// Wrap a closure as a [`Reducer`].
    pub fn new(f: F) -> Self {
        FnReducer {
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<K, V, O, F> Reducer for FnReducer<K, V, O, F>
where
    K: Key,
    V: Value,
    O: Value,
    F: Fn(&K, &[V], &mut ReduceContext<O>) + Send + Sync,
{
    type K = K;
    type V = V;
    type Out = O;
    fn reduce(&self, key: &K, values: &[V], ctx: &mut ReduceContext<O>) {
        (self.f)(key, values, ctx)
    }
}

/// Blanket closure-based combiner.
pub struct FnCombiner<K, V, F> {
    f: F,
    _marker: std::marker::PhantomData<fn(&K, &V)>,
}

impl<K, V, F> FnCombiner<K, V, F>
where
    F: Fn(&K, &mut Vec<V>) + Send + Sync,
{
    /// Wrap a closure as a [`Combiner`].
    pub fn new(f: F) -> Self {
        FnCombiner {
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<K, V, F> Combiner for FnCombiner<K, V, F>
where
    K: Key,
    V: Value,
    F: Fn(&K, &mut Vec<V>) + Send + Sync,
{
    type K = K;
    type V = V;
    fn combine(&self, key: &K, values: &mut Vec<V>) {
        (self.f)(key, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_context_collects() {
        let mut ctx: MapContext<u64, f64> = MapContext::new();
        ctx.emit(1, 2.0);
        ctx.emit(3, 4.0);
        ctx.incr("records", 2);
        assert_eq!(ctx.emitted(), 2);
        let (pairs, counters) = ctx.into_parts();
        assert_eq!(pairs, vec![(1, 2.0), (3, 4.0)]);
        assert_eq!(counters.get("records"), 2);
    }

    #[test]
    fn emit_counts_record_bytes_and_emit_folded_counts_what_it_declares() {
        let mut ctx: MapContext<u64, Vec<f64>> = MapContext::partitioned(3);
        ctx.emit(1, vec![1.0, 2.0]);
        assert_eq!(ctx.emitted(), 1);
        assert_eq!(ctx.emitted_bytes(), 8 + (4 + 16) + kv::RECORD_OVERHEAD);
        ctx.emit_folded(2, vec![5.0, 6.0], 7, 250);
        assert_eq!(ctx.emitted(), 8);
        assert_eq!(ctx.emitted_bytes(), 8 + 20 + kv::RECORD_OVERHEAD + 250);
        let (pairs, _) = ctx.into_parts();
        assert_eq!(pairs.len(), 2, "a folded pair is one pair");
    }

    #[test]
    fn flat_context_is_the_one_bucket_partitioned_context() {
        let emit_all = |mut ctx: MapContext<u64, u64>| {
            for x in [5u64, 1, 9, 1, 3] {
                ctx.emit(x, x * 10);
            }
            ctx.incr("seen", 5);
            ctx.into_parts()
        };
        assert_eq!(
            emit_all(MapContext::new()),
            emit_all(MapContext::partitioned(1))
        );
    }

    #[test]
    fn fn_mapper_works() {
        let m = FnMapper::new(|x: &u64, ctx: &mut MapContext<u64, u64>| {
            ctx.emit(*x % 2, *x);
        });
        let mut ctx = MapContext::new();
        m.map(&7, &mut ctx);
        assert_eq!(ctx.into_parts().0, vec![(1, 7)]);
    }

    #[test]
    fn fn_reducer_works() {
        let r = FnReducer::new(|k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
            ctx.emit((*k, vs.iter().sum()));
        });
        let mut ctx = ReduceContext::new();
        r.reduce(&3, &[1, 2, 3], &mut ctx);
        assert_eq!(ctx.into_parts().0, vec![(3, 6)]);
    }

    #[test]
    fn fn_combiner_shrinks() {
        let c = FnCombiner::new(|_k: &u64, vs: &mut Vec<u64>| {
            let s = vs.iter().sum();
            vs.clear();
            vs.push(s);
        });
        let mut vs = vec![1, 2, 3];
        c.combine(&0, &mut vs);
        assert_eq!(vs, vec![6]);
    }
}
