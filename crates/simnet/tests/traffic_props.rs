//! Property-based tests for the traffic ledger: the Table II shuffle
//! decomposition must hold for *any* sequence of charges, windowed or
//! not — the network/local split is an exact partition of the shuffle
//! total, never an estimate.

use pic_simnet::{TrafficClass, TrafficLedger};
use proptest::prelude::*;

/// One random charge: a class, a byte count small enough that even
/// hundreds of charges cannot overflow `u64`, and an optional window
/// instead of an impulse at `t = 0`.
fn charge_strategy() -> impl Strategy<Value = (usize, u64, Option<(f64, f64)>)> {
    (
        0..TrafficClass::ALL.len(),
        0u64..1_000_000_000,
        any::<bool>(),
        0.0f64..500.0,
        0.0f64..500.0,
    )
        .prop_map(|(class, bytes, windowed, w0, w1)| (class, bytes, windowed.then_some((w0, w1))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `shuffle_local + shuffle_network == shuffle_total` exactly, and
    /// both sides equal the per-class sums of the charges that were
    /// applied — windows refine timeline attribution but never change
    /// totals.
    #[test]
    fn shuffle_split_partitions_the_total(
        charges in proptest::collection::vec(charge_strategy(), 0..200),
    ) {
        let ledger = TrafficLedger::new();
        let mut expected = [0u64; TrafficClass::ALL.len()];
        for &(class_idx, bytes, window) in &charges {
            let class = TrafficClass::ALL[class_idx];
            match window {
                Some((w0, w1)) => ledger.add_over(class, bytes, w0, w1),
                None => ledger.add_over(class, bytes, 0.0, 0.0),
            }
            expected[class_idx] += bytes;
        }
        let snap = ledger.snapshot();

        for (i, class) in TrafficClass::ALL.into_iter().enumerate() {
            prop_assert_eq!(snap.get(class), expected[i], "class {}", class.label());
        }
        let local = snap.get(TrafficClass::ShuffleLocal);
        prop_assert_eq!(local + snap.shuffle_network(), snap.shuffle_total());
        prop_assert_eq!(
            snap.shuffle_network(),
            snap.get(TrafficClass::ShuffleRack) + snap.get(TrafficClass::ShuffleBisection)
        );
        // network_total never double-counts the local shuffle leg.
        prop_assert_eq!(
            snap.network_total(),
            snap.shuffle_network()
                + snap.get(TrafficClass::ModelUpdate)
                + snap.get(TrafficClass::Merge)
                + snap.get(TrafficClass::Broadcast)
                + snap.get(TrafficClass::DfsWrite)
                + snap.recovery_total()
        );
    }

    /// Snapshot algebra: `later.delta_since(earlier).plus(earlier)` is the
    /// identity when counters only grew, so the shuffle split holds for
    /// per-phase deltas too.
    #[test]
    fn delta_preserves_the_shuffle_split(
        first in proptest::collection::vec(charge_strategy(), 0..100),
        second in proptest::collection::vec(charge_strategy(), 0..100),
    ) {
        let ledger = TrafficLedger::new();
        for &(class_idx, bytes, _) in &first {
            ledger.add_over(TrafficClass::ALL[class_idx], bytes, 0.0, 0.0);
        }
        let early = ledger.snapshot();
        for &(class_idx, bytes, _) in &second {
            ledger.add_over(TrafficClass::ALL[class_idx], bytes, 0.0, 0.0);
        }
        let late = ledger.snapshot();

        let delta = late.delta_since(&early);
        prop_assert_eq!(delta.plus(&early), late);
        prop_assert_eq!(
            delta.get(TrafficClass::ShuffleLocal) + delta.shuffle_network(),
            delta.shuffle_total()
        );
        prop_assert_eq!(
            delta.shuffle_total() + early.shuffle_total(),
            late.shuffle_total()
        );
    }
}
