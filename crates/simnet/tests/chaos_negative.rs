//! Negative-path coverage for the chaos layer, alongside
//! `check_negative.rs`: every rejection string a fault plan or a
//! chaos-bearing trace can produce is violated on purpose and pinned, so
//! a refactor of the validators cannot silently turn them into no-ops.

use pic_simnet::chaos::{check_chaos, ChaosInjector, FaultEvent, FaultPlan};
use pic_simnet::trace::{check, Payload, Tracer};
use pic_simnet::{ClusterSpec, TrafficSnapshot};
use proptest::prelude::*;

/// One line of `errs` must contain every fragment, in any position.
fn assert_violation(errs: &[String], fragments: &[&str]) {
    assert!(
        errs.iter().any(|e| fragments.iter().all(|f| e.contains(f))),
        "no violation line contains all of {fragments:?}; got: {errs:#?}"
    );
}

#[test]
fn resize_to_zero_partitions_is_rejected() {
    let spec = ClusterSpec::small();
    let errs = FaultPlan::new(1)
        .elastic_resize(1, 0, 4)
        .validate(&spec)
        .unwrap_err();
    assert_violation(&errs, &["resize to zero partitions is not a cluster"]);

    let errs = FaultPlan::new(1)
        .elastic_resize(1, 4, 0)
        .validate(&spec)
        .unwrap_err();
    assert_violation(&errs, &["resize to zero nodes is not a cluster"]);
}

#[test]
fn plan_killing_every_node_is_rejected() {
    let spec = ClusterSpec::small();
    let mut plan = FaultPlan::new(2);
    for n in 0..spec.nodes {
        plan = plan.node_crash(n, 1.0 + n as f64);
    }
    let errs = plan.validate(&spec).unwrap_err();
    assert_violation(&errs, &["fault plan kills every node"]);
}

#[test]
fn crash_during_merge_barrier_is_reported() {
    let tracer = Tracer::standalone();
    let root = tracer.begin_at("root", "driver", 0.0);
    let merge = tracer.begin_at("merge-1", "merge", 2.0);
    // A crash instant strictly inside the merge barrier: the injector
    // only fires crashes into scheduling rounds, so this trace lies.
    tracer.instant_at(
        "node-crash",
        "chaos",
        3.0,
        vec![("node".to_string(), Payload::U64(1))],
    );
    tracer.end_at(merge, 4.0);
    tracer.end_at(root, 10.0);
    let errs = check_chaos(&tracer.trace()).unwrap_err();
    assert_violation(&errs, &["crash during merge barrier", "merge:merge-1"]);

    // `check::validate` surfaces the same violation: the chaos checks
    // are part of the standard structural suite.
    let errs = check::validate(&tracer.trace(), &TrafficSnapshot::default()).unwrap_err();
    assert_violation(&errs, &["crash during merge barrier"]);
}

#[test]
fn crash_at_a_merge_edge_passes() {
    let tracer = Tracer::standalone();
    let root = tracer.begin_at("root", "driver", 0.0);
    // A crash instant at a merge-span *edge* is fine: barriers begin and
    // end on scheduling-round boundaries.
    let merge = tracer.begin_at("merge-1", "merge", 6.0);
    tracer.end_at(merge, 7.0);
    tracer.instant_at(
        "node-crash",
        "chaos",
        6.0,
        vec![("node".to_string(), Payload::U64(0))],
    );
    tracer.end_at(root, 10.0);
    assert!(check_chaos(&tracer.trace()).is_ok());
}

#[test]
fn wave_sizes_that_overflow_a_sum_are_rejected() {
    // Summing wave sizes must not overflow before the kill-every-node
    // check can reject the plan.
    let spec = ClusterSpec::small();
    let plans = [
        FaultPlan::new(0)
            .node_crash(0, 1.0)
            .preemption_wave(usize::MAX, 1.0),
        FaultPlan::new(0)
            .preemption_wave(usize::MAX, 1.0)
            .preemption_wave(usize::MAX, 1.0),
    ];
    for plan in plans {
        let errs = plan.validate(&spec).unwrap_err();
        assert_violation(&errs, &["fault plan kills every node"]);
        assert!(ChaosInjector::idle()
            .arm(&plan, &spec, Tracer::disabled())
            .is_err());
    }
}

/// Any `f64`, with NaN, ±∞ and small times weighted in.
fn any_time() -> impl Strategy<Value = f64> {
    (0u8..6, any::<f64>(), -1.0f64..50.0).prop_map(|(pick, wide, small)| match pick {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => wide,
        _ => small,
    })
}

/// Any `usize`, with `usize::MAX` and cluster-sized values weighted in.
fn any_count() -> impl Strategy<Value = usize> {
    (0u8..4, any::<usize>(), 0usize..8).prop_map(|(pick, wide, small)| match pick {
        0 => usize::MAX,
        1 => wide,
        _ => small,
    })
}

/// Any fault event, every field drawn from its whole domain.
fn any_event() -> impl Strategy<Value = FaultEvent> {
    (0u8..3, (any_count(), any_count(), any_count()), any_time()).prop_map(
        |(kind, (a, b, c), x)| match kind {
            0 => FaultEvent::NodeCrash { node: a, at_s: x },
            1 => FaultEvent::PreemptionWave { k: a, at_s: x },
            _ => FaultEvent::ElasticResize {
                after_iteration: a,
                partitions: b,
                nodes: c,
            },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// For any event mix `validate` and `arm` return a result instead of
    /// panicking, and they agree: arming succeeds exactly when
    /// validation does.
    #[test]
    fn arbitrary_plans_validate_and_arm_without_panicking(
        events in collection::vec(any_event(), 0..8),
        seed in any::<u64>(),
    ) {
        let spec = ClusterSpec::small();
        let plan = events.iter().fold(FaultPlan::new(seed), |p, e| match *e {
            FaultEvent::NodeCrash { node, at_s } => p.node_crash(node, at_s),
            FaultEvent::PreemptionWave { k, at_s } => p.preemption_wave(k, at_s),
            FaultEvent::ElasticResize { after_iteration, partitions, nodes } => {
                p.elastic_resize(after_iteration, partitions, nodes)
            }
        });
        let valid = plan.validate(&spec).is_ok();
        let armed = ChaosInjector::idle()
            .arm(&plan, &spec, Tracer::disabled())
            .is_ok();
        prop_assert_eq!(valid, armed);
    }
}
