//! Algebraic laws for [`Counters`] merging, and determinism of counter
//! aggregation under the parallel engine.
//!
//! The engine merges per-task counter sets in task order after each
//! parallel phase; for the job totals to be well-defined the merge must be
//! associative and commutative with the empty set as identity, and the
//! engine's aggregation must not depend on the rayon pool width.

use pic_mapreduce::traits::{FnMapper, FnReducer};
use pic_mapreduce::{Counters, Dataset, Engine, JobConfig, MapContext, ReduceContext, Timing};
use pic_simnet::ClusterSpec;
use proptest::prelude::*;

/// Build a counter set from a list of (name-index, amount) increments,
/// drawing names from a small pool so merges actually collide.
fn build(incs: &[(u8, u64)]) -> Counters {
    let mut c = Counters::new();
    for (i, by) in incs {
        c.incr(&format!("c{}", i % 6), *by);
    }
    c
}

fn merged(a: &Counters, b: &Counters) -> Counters {
    let mut out = a.clone();
    out.merge(b);
    out
}

/// Strategy: up to 40 increments over 6 names, amounts small enough that
/// no sum can overflow.
fn incs() -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((0u8..6, 0u64..1_000), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_associative(a in incs(), b in incs(), c in incs()) {
        let (a, b, c) = (build(&a), build(&b), build(&c));
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }

    #[test]
    fn merge_is_commutative(a in incs(), b in incs()) {
        let (a, b) = (build(&a), build(&b));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    #[test]
    fn empty_is_the_merge_identity(a in incs()) {
        let a = build(&a);
        prop_assert_eq!(merged(&a, &Counters::new()), a.clone());
        prop_assert_eq!(merged(&Counters::new(), &a), a);
    }

    #[test]
    fn merge_totals_are_the_sum_of_parts(a in incs(), b in incs()) {
        let (ca, cb) = (build(&a), build(&b));
        let m = merged(&ca, &cb);
        for i in 0u8..6 {
            let name = format!("c{i}");
            prop_assert_eq!(m.get(&name), ca.get(&name) + cb.get(&name));
        }
    }
}

/// Run one counting job and return its merged job counters.
fn run_counting_job() -> Counters {
    let engine = Engine::new(ClusterSpec::small());
    let records: Vec<(u8, u32)> = (0..900u32).map(|i| ((i % 13) as u8, i)).collect();
    let data = Dataset::create(&engine, "/cnt/job", records, 9);
    engine.reset();
    let mapper = FnMapper::new(|r: &(u8, u32), ctx: &mut MapContext<u64, u64>| {
        ctx.incr("map.records", 1);
        if r.1.is_multiple_of(3) {
            ctx.incr("map.thirds", 1);
        }
        ctx.emit(r.0 as u64, r.1 as u64);
    });
    let reducer = FnReducer::new(|k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
        ctx.incr("reduce.keys", 1);
        ctx.incr("reduce.values", vs.len() as u64);
        ctx.emit((*k, vs.iter().sum()));
    });
    let cfg = JobConfig::new("counting")
        .reducers(4)
        .timing(Timing::default_analytic());
    engine.run(&cfg, &data, &mapper, &reducer).stats.counters
}

/// Task counter sets are merged after the parallel phases; whatever order
/// rayon completes tasks in, the job totals must be identical.
#[test]
fn job_counters_are_deterministic_across_pool_widths() {
    let serial_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    let counters_1 = serial_pool.install(run_counting_job);
    let counters_n = run_counting_job(); // default-width pool

    assert_eq!(counters_1, counters_n);
    // And the totals are exactly what the input dictates.
    assert_eq!(counters_1.get("map.records"), 900);
    assert_eq!(counters_1.get("map.thirds"), 300);
    assert_eq!(counters_1.get("reduce.keys"), 13);
    assert_eq!(counters_1.get("reduce.values"), 900);
}
