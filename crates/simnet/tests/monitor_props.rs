//! Property-based tests for the run monitor: the bucketed recovery
//! series must integrate to the **exact** ledger total for any sequence
//! of charges — windowed or impulse — and to the same total as the
//! utilization timeline's recovery class series of the same trace at any
//! interval count.

use pic_simnet::monitor::{Monitor, MonitorConfig};
use pic_simnet::trace::check;
use pic_simnet::{ClusterSpec, Tracer, TrafficClass, TrafficLedger, UtilizationReport};
use proptest::prelude::*;

/// One random charge: a class, a byte count small enough that even
/// hundreds of charges cannot overflow `u64`, and an optional window
/// instead of an impulse at `t = 0`.
type RandomCharge = (usize, u64, Option<(f64, f64)>);

fn charge_strategy() -> impl Strategy<Value = RandomCharge> {
    (
        0..TrafficClass::ALL.len(),
        0u64..1_000_000_000,
        any::<bool>(),
        0.0f64..500.0,
        0.0f64..500.0,
    )
        .prop_map(|(class, bytes, windowed, w0, w1)| (class, bytes, windowed.then_some((w0, w1))))
}

fn traced_run(charges: &[RandomCharge]) -> (Tracer, TrafficLedger) {
    let tracer = Tracer::standalone();
    let ledger = TrafficLedger::traced(tracer.clone());
    let root = tracer.begin_at("run", "driver", 0.0);
    for &(class_idx, bytes, window) in charges {
        let class = TrafficClass::ALL[class_idx];
        match window {
            Some((w0, w1)) => ledger.add_over(class, bytes, w0, w1),
            None => ledger.add_over(class, bytes, 0.0, 0.0),
        }
    }
    tracer.end_at(root, 500.0);
    (tracer, ledger)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The monitor's recovery window integral equals the exact ledger
    /// total — and therefore the `check::monitor_reconciles` pass holds —
    /// for any random charge sequence.
    #[test]
    fn window_integrals_equal_ledger_totals(
        charges in proptest::collection::vec(charge_strategy(), 0..120),
    ) {
        let (tracer, ledger) = traced_run(&charges);
        let trace = tracer.trace();
        let snap = ledger.snapshot();

        let cfg = MonitorConfig::new(ClusterSpec::small());
        let report = Monitor::replay(cfg, &trace).expect("a 500 s run fits the grid");
        prop_assert!(report.reconcile(&snap).is_ok(), "{:?}", report.reconcile(&snap).unwrap_err());
        prop_assert!(check::monitor_reconciles(&trace, &snap).is_ok());

        // The recovery series is the exact recovery total, bucket sums
        // never lose or invent a byte.
        prop_assert_eq!(
            report.recovery_bytes.iter().sum::<u64>(),
            snap.recovery_total()
        );
    }

    /// The monitor (`dt` = `BUCKET_S`) and the utilization timeline
    /// (`n` intervals) put the same charges on two grids through one
    /// spreader: whatever the interval count, the recovery bytes
    /// integrate to the same total on both.
    #[test]
    fn monitor_and_timeline_recovery_totals_agree(
        charges in proptest::collection::vec(charge_strategy(), 0..120),
        intervals in 1usize..200,
    ) {
        let (tracer, _ledger) = traced_run(&charges);
        let trace = tracer.trace();
        let spec = ClusterSpec::small();
        let monitor = Monitor::replay(MonitorConfig::new(spec.clone()), &trace)
            .expect("a 500 s run fits the grid");
        let timeline = UtilizationReport::with_intervals(&trace, &spec, intervals);
        let on_timeline = &timeline.class_bytes[TrafficClass::Recovery.label()];
        prop_assert_eq!(
            monitor.recovery_bytes.iter().sum::<u64>(),
            on_timeline.iter().sum::<u64>()
        );
    }
}
