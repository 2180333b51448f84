//! A minimal discrete-event queue.
//!
//! Simulated time is `f64` seconds, which is not `Ord`; [`EventQueue`]
//! wraps it in a total order (NaN is rejected at insert) and breaks ties by
//! insertion order so that simulations are fully deterministic.
//!
//! The queue is a `BinaryHeap` ordered by `(time, seq)`. The traffic it
//! serves is bursts of equal timestamps (the slot scheduler arms every
//! slot at one instant per round, and identical tasks finish together)
//! and a cluster-level queue of at most one pending event per job; a heap
//! costs O(log n) per operation whatever the timestamps look like.

use crate::hostprof::{self, Stage};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A timestamped event.
#[derive(Debug, Clone)]
struct Entry<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are never NaN")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-queue of `(time, payload)` events with deterministic FIFO
/// tie-breaks: `push` rejects NaN, infinite and negative times, `pop`
/// returns events in nondecreasing time order, and equal times pop in
/// insertion (FIFO) order.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

/// Exists only for `benchmark/src/probes.rs`, until a `benchmark`-archetype
/// issue drops `simnet.event.heap_hold_ns_per_op`.
pub type HeapQueue<T> = EventQueue<T>;

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `payload` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is NaN, infinite or negative.
    pub fn push(&mut self, time: f64, payload: T) {
        // Branch rather than hold a disabled guard: a live Drop object
        // across this ~100ns body costs real time even when inert (it
        // pins state across the unwind edges).
        if hostprof::is_enabled() {
            let _hp = hostprof::scope(Stage::EventQueueOps);
            return self.push_impl(time, payload);
        }
        self.push_impl(time, payload)
    }

    #[inline]
    fn push_impl(&mut self, time: f64, payload: T) {
        assert!(
            time.is_finite() && time >= 0.0,
            "event time must be finite and >= 0"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Remove and return the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        if hostprof::is_enabled() {
            let _hp = hostprof::scope(Stage::EventQueueOps);
            return self.pop_impl();
        }
        self.pop_impl()
    }

    #[inline]
    fn pop_impl(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(q: &mut EventQueue<T>) -> Vec<(f64, T)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.push(1.0, 0);
        q.push(1.0, 1);
        q.push(1.0, 2);
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_time_rejected() {
        EventQueue::new().push(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_time_rejected() {
        EventQueue::new().push(-1.0, ());
    }

    #[test]
    fn insert_earlier_than_last_pop_is_not_missed() {
        let mut q = EventQueue::new();
        q.push(100.0, "far");
        q.push(200.0, "farther");
        assert_eq!(q.pop(), Some((100.0, "far")));
        q.push(5.0, "early");
        assert_eq!(q.pop(), Some((5.0, "early")));
        assert_eq!(q.pop(), Some((200.0, "farther")));
    }

    #[test]
    fn tie_clusters_drain_in_time_then_fifo_order() {
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for i in 0..500u32 {
            let t = f64::from(i % 50) * 0.25;
            q.push(t, i);
            expect.push((t, i));
        }
        expect.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        assert_eq!(drain(&mut q), expect);
    }

    #[test]
    fn sparse_far_future_events_pop_in_order() {
        let mut q = EventQueue::new();
        q.push(0.0, "now");
        q.push(1.0e9, "eon");
        q.push(2.0e9, "later-eon");
        assert_eq!(
            drain(&mut q),
            [(0.0, "now"), (1.0e9, "eon"), (2.0e9, "later-eon")]
        );
    }
}
