//! Property-based tests on the core data structures and invariants.

use pic_core::{convergence, merge, partition};
use pic_mapreduce::traits::{FnCombiner, FnMapper, FnReducer};
use pic_mapreduce::{ByteSize, Dataset, Engine, JobConfig, MapContext, ReduceContext, Timing};
use pic_simnet::transfer;
use pic_simnet::ClusterSpec;
use proptest::prelude::*;
use std::collections::HashMap;

fn analytic(name: &str) -> JobConfig {
    JobConfig::new(name).timing(Timing::default_analytic())
}

proptest! {
    /// The MapReduce engine computes exactly a sequential group-by-sum,
    /// for any input and any reducer/split count.
    #[test]
    fn engine_equals_sequential_group_by(
        data in proptest::collection::vec(0u64..500, 0..300),
        splits in 1usize..8,
        reducers in 1usize..6,
        modulus in 1u64..40,
    ) {
        let engine = Engine::new(ClusterSpec::small());
        let ds = Dataset::create(&engine, "/p/gb", data.clone(), splits);
        let mapper = FnMapper::new(move |x: &u64, ctx: &mut MapContext<u64, u64>| {
            ctx.emit(*x % modulus, *x);
        });
        let reducer = FnReducer::new(|k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
            ctx.emit((*k, vs.iter().sum()));
        });
        let res = engine.run(&analytic("gb").reducers(reducers), &ds, &mapper, &reducer);

        let mut expected: HashMap<u64, u64> = HashMap::new();
        for x in &data {
            *expected.entry(x % modulus).or_insert(0) += x;
        }
        let got: HashMap<u64, u64> = res.output.into_iter().collect();
        prop_assert_eq!(got, expected);
    }

    /// A summing combiner never changes the job's final output, only its
    /// shuffle volume.
    #[test]
    fn combiner_preserves_output(
        data in proptest::collection::vec(0u64..1000, 1..300),
        splits in 1usize..6,
    ) {
        let engine = Engine::new(ClusterSpec::small());
        let ds = Dataset::create(&engine, "/p/cb", data, splits);
        let mapper = FnMapper::new(|x: &u64, ctx: &mut MapContext<u64, u64>| {
            ctx.emit(*x % 7, 1);
        });
        let reducer = FnReducer::new(|k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
            ctx.emit((*k, vs.iter().sum()));
        });
        let combiner = FnCombiner::new(|_: &u64, vs: &mut Vec<u64>| {
            let s: u64 = vs.iter().sum();
            vs.clear();
            vs.push(s);
        });
        let plain = engine.run(&analytic("p"), &ds, &mapper, &reducer);
        let combined = engine.run_with_combiner(&analytic("c"), &ds, &mapper, &combiner, &reducer);
        let mut a = plain.output;
        let mut b = combined.output;
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
        prop_assert!(combined.stats.shuffle_bytes <= plain.stats.shuffle_bytes);
    }

    /// Random partitioning is a permutation split: every record appears in
    /// exactly one partition and sizes are balanced to within one.
    #[test]
    fn random_partition_is_balanced_permutation(
        n in 0usize..500,
        parts in 1usize..12,
        seed in any::<u64>(),
    ) {
        let groups = partition::random(0..n as u64, parts, seed);
        prop_assert_eq!(groups.len(), parts);
        let mut all: Vec<u64> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n as u64).collect::<Vec<_>>());
        let min = groups.iter().map(Vec::len).min().unwrap();
        let max = groups.iter().map(Vec::len).max().unwrap();
        prop_assert!(max - min <= 1);
    }

    /// Averaging merge is idempotent on identical sub-models and bounded
    /// by the sub-model range element-wise.
    #[test]
    fn average_merge_is_bounded(
        base in proptest::collection::vec(-100.0f64..100.0, 1..20),
        parts in 1usize..6,
        jitter in -5.0f64..5.0,
    ) {
        let subs: Vec<Vec<f64>> = (0..parts)
            .map(|p| base.iter().map(|v| v + jitter * p as f64).collect())
            .collect();
        let merged = merge::average(&subs);
        for (i, m) in merged.iter().enumerate() {
            let lo = subs.iter().map(|s| s[i]).fold(f64::INFINITY, f64::min);
            let hi = subs.iter().map(|s| s[i]).fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(*m >= lo - 1e-9 && *m <= hi + 1e-9);
        }
    }

    /// Distance helpers satisfy metric basics.
    #[test]
    fn distances_are_metrics(
        a in proptest::collection::vec(-1e6f64..1e6, 1..32),
        b in proptest::collection::vec(-1e6f64..1e6, 1..32),
    ) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        prop_assert!(convergence::l2_distance(a, b) >= 0.0);
        prop_assert_eq!(convergence::l2_distance(a, a), 0.0);
        let d_ab = convergence::l2_distance(a, b);
        let d_ba = convergence::l2_distance(b, a);
        prop_assert!((d_ab - d_ba).abs() < 1e-9 * d_ab.abs().max(1.0));
        let linf = convergence::max_abs_diff(a, b);
        let tol = 1e-9 * d_ab.max(1.0);
        prop_assert!(linf <= d_ab + tol, "{} > {}", linf, d_ab);
        prop_assert!(d_ab <= (n as f64).sqrt() * linf + tol, "{} > √{}·{}", d_ab, n, linf);
    }

    /// Norm-ordering chain `‖·‖∞ ≤ ‖·‖₂ ≤ √n·‖·‖∞`, and the triangle
    /// inequality for the L2 distance.
    #[test]
    fn distance_norms_are_ordered(
        a in proptest::collection::vec(-1e3f64..1e3, 1..24),
        b in proptest::collection::vec(-1e3f64..1e3, 1..24),
        c in proptest::collection::vec(-1e3f64..1e3, 1..24),
    ) {
        let n = a.len().min(b.len()).min(c.len());
        let (a, b, c) = (&a[..n], &b[..n], &c[..n]);
        let linf = convergence::max_abs_diff(a, b);
        let l2 = convergence::l2_distance(a, b);
        let tol = 1e-9 * l2.max(1.0);
        prop_assert!(linf <= l2 + tol, "{} > {}", linf, l2);
        prop_assert!(l2 <= (n as f64).sqrt() * linf + tol, "{} > √{}·{}", l2, n, linf);
        let via_c = convergence::l2_distance(a, c) + convergence::l2_distance(c, b);
        prop_assert!(l2 <= via_c + 1e-9 * via_c.max(1.0));
    }

    /// Shuffle byte-split conserves the total for any cluster and volume.
    #[test]
    fn shuffle_split_conserves_bytes(
        total in 0u64..10_000_000_000,
        nodes in 1usize..64,
    ) {
        let spec = ClusterSpec::medium();
        let nodes = nodes.min(spec.nodes);
        let c = transfer::shuffle(&spec, &(0..nodes), total);
        let sum = c.local_bytes + c.rack_bytes + c.bisection_bytes;
        prop_assert!(sum.abs_diff(total) <= 2, "sum {} vs total {}", sum, total);
        prop_assert!(c.seconds >= 0.0);
    }

    /// ByteSize of composite values equals the sum of parts (no
    /// double-counting in the traffic model).
    #[test]
    fn byte_size_is_additive(
        v in proptest::collection::vec(any::<u64>(), 0..50),
        s in ".{0,40}",
    ) {
        let vec_size = v.byte_size();
        prop_assert_eq!(vec_size, 4 + 8 * v.len() as u64);
        let tuple = (v.clone(), s.clone());
        prop_assert_eq!(tuple.byte_size(), vec_size + s.byte_size());
    }
}
