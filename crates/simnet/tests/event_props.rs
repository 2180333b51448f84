//! Property tests for [`EventQueue`] against a naive model: a `Vec` whose
//! pop is a linear scan for the minimum `(time, seq)`. The queue must pop
//! in the model's exact order on arbitrary push/pop interleavings,
//! including FIFO tie-breaks at equal times, and must reject NaN and
//! infinite times.

use pic_simnet::event::EventQueue;
use proptest::prelude::*;

/// The oracle's pop. The caller pushes its insertion index as the payload,
/// so the pending `(time, payload)` pairs are the `(time, seq)` keys.
fn model_pop(pending: &mut Vec<(f64, usize)>) -> Option<(f64, usize)> {
    let first = (0..pending.len())
        .min_by(|&a, &b| pending[a].partial_cmp(&pending[b]).expect("no NaN times"))?;
    Some(pending.swap_remove(first))
}

/// One step of an interleaving: schedule an event or pop the head.
#[derive(Debug, Clone)]
enum Op {
    Push(f64),
    Pop,
}

/// Times come from a coarse dyadic grid so equal-time collisions (FIFO
/// tie-breaks) are common, plus an occasional far-future outlier. The
/// vendored proptest has no `prop_oneof`, so the variant is picked by a
/// selector.
fn op_strategy() -> impl Strategy<Value = Op> {
    (0u32..8, 0u32..64).prop_map(|(sel, grid)| match sel {
        0..=3 => Op::Push(f64::from(grid) * 0.25),
        4 => Op::Push(f64::from(grid % 8) * 1.0e6),
        _ => Op::Pop,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn queue_matches_naive_model_on_interleavings(ops in proptest::collection::vec(op_strategy(), 0..200)) {
        let mut q = EventQueue::new();
        let mut model = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Push(t) => {
                    q.push(*t, i);
                    model.push((*t, i));
                }
                Op::Pop => {
                    prop_assert_eq!(q.pop(), model_pop(&mut model));
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
        // Drain both: the full residual order must agree too.
        loop {
            let (a, b) = (q.pop(), model_pop(&mut model));
            prop_assert_eq!(a, b);
            if b.is_none() {
                break;
            }
        }
        prop_assert!(q.is_empty());
    }

    #[test]
    fn equal_time_bursts_pop_fifo(burst in 1usize..40, t in 0u32..16) {
        let t = f64::from(t) * 0.5;
        let mut q = EventQueue::new();
        for i in 0..burst {
            q.push(t, i);
        }
        for i in 0..burst {
            prop_assert_eq!(q.pop(), Some((t, i)));
        }
        prop_assert!(q.pop().is_none());
    }
}

/// The scheduler's traffic: a whole round armed at one instant, interleaved
/// with later completions. Equals must pop strictly FIFO, before any later
/// event, and the later ones in time order.
#[test]
fn one_instant_burst_interleaved_with_later_events_pops_fifo() {
    const N: usize = 4096;
    let mut q = EventQueue::new();
    for i in 0..N {
        q.push(1.0, i);
        q.push(2.0 + (N - i) as f64, N + i);
    }
    for i in 0..N {
        assert_eq!(q.pop(), Some((1.0, i)));
    }
    for i in (0..N).rev() {
        assert_eq!(q.pop(), Some((2.0 + (N - i) as f64, N + i)));
    }
    assert_eq!(q.pop(), None);
}

#[test]
#[should_panic(expected = "finite")]
fn rejects_nan() {
    EventQueue::new().push(f64::NAN, ());
}

#[test]
#[should_panic(expected = "finite")]
fn rejects_infinite() {
    EventQueue::new().push(f64::INFINITY, ());
}
