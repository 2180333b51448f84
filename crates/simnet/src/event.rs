//! A minimal discrete-event queue.
//!
//! Simulated time is `f64` seconds, which is not `Ord`; [`EventQueue`]
//! wraps it in a total order (NaN is rejected at insert) and breaks ties by
//! insertion order so that simulations are fully deterministic.
//!
//! Two implementations share the same API:
//!
//! * [`EventQueue`] — the production queue, a bucketed *calendar queue*
//!   (Brown 1988). Events hash into `floor(time / width) % n_buckets`
//!   buckets; pop scans one "year" of buckets starting at the cursor and
//!   falls back to a direct search when the queue is sparse. The bucket
//!   count and width adapt to the live event population, giving O(1)
//!   amortized push/pop under the hold model that dominates multi-tenant
//!   simulation (thousands of concurrent jobs each holding one pending
//!   event).
//! * [`HeapQueue`] — the original `BinaryHeap` implementation, kept public
//!   as the reference oracle for the differential property tests
//!   (`tests/event_props.rs`) and as the baseline of the `benchmark/`
//!   harness's `simnet.event.heap_hold_ns_per_op` metric.
//!
//! Ordering in the calendar queue never compares floats across buckets:
//! each entry carries an integer lap (`floor(time / width)` at insert
//! time), which is weakly monotone in `time`, so ordering by
//! `(lap, time, seq)` is exactly `(time, seq)` while bucket membership is
//! pure integer arithmetic.

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

/// Reference min-heap of `(time, payload)` events with deterministic FIFO
/// tie-breaks.
///
/// This is the original `BinaryHeap`-backed implementation of
/// [`EventQueue`]. It stays public so the differential property tests can
/// replay arbitrary interleavings against both queues, and so the
/// `benchmark/` harness can report calendar-vs-heap host time.
#[derive(Debug)]
pub struct HeapQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> HeapQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `payload` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is NaN or negative.
    pub fn push(&mut self, time: f64, payload: T) {
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
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
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

/// A calendar-queue entry. `lap = floor(time / width)` is fixed at insert
/// (and at resize) so cross-bucket ordering is integer-only.
#[derive(Debug, Clone)]
struct CalEntry<T> {
    time: f64,
    lap: u64,
    seq: u64,
    payload: T,
}

const MIN_BUCKETS: usize = 8;
const MIN_WIDTH: f64 = 1e-9;
/// Minimum pops between scan-cost checks. The effective interval is
/// `max(RECAL_INTERVAL, len)` so an O(len) rebuild amortizes to at most
/// one entry-move per pop even when the detector stays triggered (a
/// population whose inherent scan cost sits at the threshold).
const RECAL_INTERVAL: u64 = 512;
/// Mean entries+buckets examined per pop above which the width is
/// considered stale and the calendar is rebuilt (same bucket count,
/// fresh width). Brown's calibration aims for ~1 event per bucket, so a
/// healthy queue scans a small constant per pop.
const RECAL_MEAN_COST: u64 = 8;
/// Target mean entries examined per pop after a recalibration; the new
/// width is proportional-controlled toward this.
const RECAL_TARGET_ENTRIES: f64 = 3.0;
/// Largest single-step width adjustment factor, to keep one noisy
/// interval from swinging the calendar to a degenerate width.
const RECAL_MAX_STEP: f64 = 64.0;

/// Min-queue of `(time, payload)` events with deterministic FIFO
/// tie-breaks, backed by a bucketed calendar queue.
///
/// Same contract as the original heap ([`HeapQueue`]): `push` rejects NaN
/// and negative times, `pop` returns events in nondecreasing time order,
/// and equal times pop in insertion (FIFO) order.
#[derive(Debug)]
pub struct EventQueue<T> {
    buckets: Vec<Vec<CalEntry<T>>>,
    /// Bucket width in seconds; `lap = floor(time / width)`.
    width: f64,
    /// Lap of the scan cursor: no pending entry has `lap < cur_lap`.
    cur_lap: u64,
    len: usize,
    next_seq: u64,
    /// Pops since the last resize/recalibration check.
    pops_since_recal: u64,
    /// Same-lap entries examined by `locate` across those pops (bucket
    /// crowding — the width is too wide). A size-stable queue (the hold
    /// model) never trips the size-based resizes, so a stale width would
    /// otherwise persist forever; when the mean scan cost per pop exceeds
    /// [`RECAL_MEAN_COST`] the width is adjusted by cost feedback and the
    /// calendar rebuilt at the same bucket count.
    scan_crowd: u64,
    /// Bucket visits, aliased-entry skips (`e.lap != lap`) and fallback
    /// full scans across those pops — the width is too narrow.
    scan_churn: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            width: 1.0,
            cur_lap: 0,
            len: 0,
            next_seq: 0,
            pops_since_recal: 0,
            scan_crowd: 0,
            scan_churn: 0,
        }
    }

    fn lap_of(&self, time: f64) -> u64 {
        // Saturating cast: monotone in `time`, which is all ordering needs.
        (time / self.width) as u64
    }

    /// Schedule `payload` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is NaN or negative.
    pub fn push(&mut self, time: f64, payload: T) {
        // Branch rather than hold a disabled guard: a live Drop object
        // across this ~100ns body costs real time even when inert (it
        // pins state across the unwind edges), and push/pop dominate the
        // hold benchmark the event core is gated on.
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
        let lap = self.lap_of(time);
        // Keep the invariant that the cursor never sits past a pending
        // entry: an insert earlier than the scan position rewinds it.
        if self.len == 0 || lap < self.cur_lap {
            self.cur_lap = lap;
        }
        let n = self.buckets.len() as u64;
        self.buckets[(lap % n) as usize].push(CalEntry {
            time,
            lap,
            seq,
            payload,
        });
        self.len += 1;
        // Keep the bucket count in [2·len, 8·len] (hysteresis band):
        // sub-unity occupancy keeps the per-pop scan near O(1) even when
        // the head of the population is denser than the average.
        if 2 * self.len > self.buckets.len() {
            let n2 = self.buckets.len() * 2;
            self.resize(n2);
        }
    }

    /// Locate the earliest entry as `(bucket, index, crowd, churn)`.
    /// `crowd` counts same-lap entries examined (high ⇒ width too wide);
    /// `churn` counts bucket visits, aliased-entry skips and fallback
    /// scans (high ⇒ width too narrow). The split matters: charging alias
    /// skips as crowding would make the feedback narrow an already-too-
    /// narrow calendar.
    ///
    /// Scans one calendar year starting at `cur_lap`; any entry further out
    /// than a year is found by the direct fallback search. Equal-time
    /// entries always share a bucket (equal lap), so the FIFO tie-break is
    /// purely local.
    fn locate(&self) -> Option<(usize, usize, u64, u64)> {
        if self.len == 0 {
            return None;
        }
        let mut crowd = 0u64;
        let mut churn = 0u64;
        let n = self.buckets.len() as u64;
        for k in 0..n {
            let lap = self.cur_lap + k;
            let b = (lap % n) as usize;
            churn += 1;
            let mut best: Option<(usize, f64, u64)> = None;
            for (i, e) in self.buckets[b].iter().enumerate() {
                if e.lap != lap {
                    churn += 1;
                    continue;
                }
                crowd += 1;
                let better = match best {
                    None => true,
                    Some((_, t, s)) => e.time < t || (e.time == t && e.seq < s),
                };
                if better {
                    best = Some((i, e.time, e.seq));
                }
            }
            if let Some((i, _, _)) = best {
                return Some((b, i, crowd, churn));
            }
        }
        // Sparse queue: every pending entry is more than a year past the
        // cursor. Direct search by (lap, time, seq), charged entirely as
        // churn so the feedback widens the calendar until the population
        // fits inside a year again.
        churn += self.len as u64;
        let mut best: Option<(usize, usize, u64, f64, u64)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (i, e) in bucket.iter().enumerate() {
                let better = match best {
                    None => true,
                    Some((_, _, l, t, s)) => {
                        e.lap < l || (e.lap == l && (e.time < t || (e.time == t && e.seq < s)))
                    }
                };
                if better {
                    best = Some((b, i, e.lap, e.time, e.seq));
                }
            }
        }
        best.map(|(b, i, _, _, _)| (b, i, 0, churn))
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
        let (b, i, crowd, churn) = self.locate()?;
        let e = self.buckets[b].swap_remove(i);
        self.cur_lap = e.lap;
        self.len -= 1;
        if self.len * 8 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
            let n2 = (self.buckets.len() / 2).max(MIN_BUCKETS);
            self.resize(n2);
        } else {
            self.pops_since_recal += 1;
            self.scan_crowd += crowd;
            self.scan_churn += churn;
            if self.pops_since_recal >= RECAL_INTERVAL.max(self.len as u64) {
                self.maybe_recalibrate();
            }
        }
        Some((e.time, e.payload))
    }

    /// Cost-feedback width recalibration (the SNOOPy-calendar-queue idea).
    ///
    /// Size-stable queues never hit the grow/shrink thresholds, so a width
    /// calibrated against a stale population would persist forever; and a
    /// span-based formula miscalibrates badly on skewed populations (a
    /// dense cluster at the head plus a long sparse tail). Instead, watch
    /// what pops actually cost: crowded buckets (many entries per pop)
    /// mean the width is too wide — narrow it toward
    /// [`RECAL_TARGET_ENTRIES`]; many empty-bucket visits (or fallback
    /// scans) mean it is too narrow — widen it proportionally.
    fn maybe_recalibrate(&mut self) {
        let pops = self.pops_since_recal;
        let mean_crowd = self.scan_crowd as f64 / pops as f64;
        let mean_churn = self.scan_churn as f64 / pops as f64;
        self.pops_since_recal = 0;
        self.scan_crowd = 0;
        self.scan_churn = 0;
        if mean_crowd + mean_churn <= RECAL_MEAN_COST as f64 {
            return;
        }
        let factor = if mean_crowd >= mean_churn {
            // Crowded buckets: narrow proportionally to the crowding.
            (RECAL_TARGET_ENTRIES / mean_crowd).max(1.0 / RECAL_MAX_STEP)
        } else {
            // Mostly empty-bucket/alias churn: widen so one pop crosses
            // O(1) buckets.
            (mean_churn / 2.0).min(RECAL_MAX_STEP)
        };
        let new_width = (self.width * factor).max(MIN_WIDTH);
        // A no-op adjustment (e.g. already at the floor because every
        // event shares one timestamp) would thrash O(len) rebuilds
        // without changing the geometry; skip it.
        if (new_width / self.width - 1.0).abs() < 0.01 {
            return;
        }
        let n = self.buckets.len();
        self.rebuild(n, new_width);
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        self.locate().map(|(b, i, _, _)| self.buckets[b][i].time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resize to `new_n` buckets with a span-based width guess (Brown's
    /// rule of thumb: a few events per bucket). Cost-feedback
    /// recalibration ([`Self::maybe_recalibrate`]) refines the guess when
    /// the population is skewed.
    fn resize(&mut self, new_n: usize) {
        let mut min_t = f64::INFINITY;
        let mut max_t = f64::NEG_INFINITY;
        for bucket in &self.buckets {
            for e in bucket {
                min_t = min_t.min(e.time);
                max_t = max_t.max(e.time);
            }
        }
        let mut width = if self.len == 0 {
            1.0
        } else {
            ((max_t - min_t) / self.len as f64) * 3.0
        };
        if !width.is_finite() || width < MIN_WIDTH {
            width = if min_t.is_finite() && min_t > 0.0 {
                (min_t * 1e-6).max(MIN_WIDTH)
            } else {
                MIN_WIDTH.max(1.0)
            };
        }
        self.rebuild(new_n, width);
    }

    /// Rebuild with `new_n` buckets at exactly `width`, recomputing every
    /// entry's lap (ordering by `(lap, time, seq)` stays `(time, seq)`:
    /// laps are monotone in time for any one width).
    fn rebuild(&mut self, new_n: usize, width: f64) {
        let entries: Vec<CalEntry<T>> = self.buckets.iter_mut().flat_map(std::mem::take).collect();
        self.width = width.max(MIN_WIDTH);
        self.buckets = (0..new_n).map(|_| Vec::new()).collect();
        self.cur_lap = u64::MAX;
        let n = new_n as u64;
        for mut e in entries {
            e.lap = self.lap_of(e.time);
            self.cur_lap = self.cur_lap.min(e.lap);
            self.buckets[(e.lap % n) as usize].push(e);
        }
        if self.len == 0 {
            self.cur_lap = 0;
        }
        self.pops_since_recal = 0;
        self.scan_crowd = 0;
        self.scan_churn = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
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
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(5.0, ());
        assert_eq!(q.peek_time(), Some(5.0));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
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
    #[should_panic(expected = "finite")]
    fn heap_nan_time_rejected() {
        HeapQueue::new().push(f64::NAN, ());
    }

    #[test]
    fn heap_pops_in_time_order_with_fifo_ties() {
        let mut q = HeapQueue::new();
        q.push(2.0, "b1");
        q.push(1.0, "a");
        q.push(2.0, "b2");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b1")));
        assert_eq!(q.pop(), Some((2.0, "b2")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn insert_before_cursor_is_not_missed() {
        let mut q = EventQueue::new();
        q.push(100.0, "far");
        q.push(200.0, "farther");
        assert_eq!(q.pop(), Some((100.0, "far")));
        // Cursor now sits at t=100; an earlier insert must rewind it.
        q.push(5.0, "early");
        assert_eq!(q.pop(), Some((5.0, "early")));
        assert_eq!(q.pop(), Some((200.0, "farther")));
    }

    #[test]
    fn grows_and_shrinks_through_resize_in_order() {
        let mut q = EventQueue::new();
        // Enough pushes to trigger several grow resizes, with deliberate
        // tie clusters to exercise FIFO across rebuilds.
        let mut expect = Vec::new();
        for i in 0..500u32 {
            let t = f64::from(i % 50) * 0.25;
            q.push(t, i);
            expect.push((t, i));
        }
        expect.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        // Drain fully (shrink resizes fire on the way down).
        let mut got = Vec::new();
        while let Some((t, v)) = q.pop() {
            got.push((t, v));
        }
        assert_eq!(got, expect);
        assert!(q.is_empty());
    }

    #[test]
    fn sparse_far_future_events_found_by_fallback() {
        let mut q = EventQueue::new();
        q.push(0.0, "now");
        q.push(1.0e9, "eon");
        q.push(2.0e9, "later-eon");
        assert_eq!(q.pop(), Some((0.0, "now")));
        assert_eq!(q.pop(), Some((1.0e9, "eon")));
        assert_eq!(q.pop(), Some((2.0e9, "later-eon")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn grow_fires_strictly_above_twice_len_occupancy() {
        // Grow triggers on `2·len > n_buckets`, so at exactly 2·len ==
        // n_buckets the calendar must NOT resize, and one more push must
        // double it. Differential: drain order still matches the heap.
        let mut q = EventQueue::new();
        let mut heap = HeapQueue::new();
        for i in 0..4u32 {
            q.push(f64::from(i), i);
            heap.push(f64::from(i), i);
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.buckets.len(), 8, "2·len == n: inside the band");
        q.push(4.0, 4);
        heap.push(4.0, 4);
        assert_eq!(q.buckets.len(), 16, "2·len > n: doubled");
        while let Some(a) = q.pop() {
            assert_eq!(Some(a), heap.pop());
        }
        assert!(heap.pop().is_none());
    }

    #[test]
    fn shrink_fires_strictly_below_an_eighth_occupancy() {
        // Shrink triggers on `len·8 < n_buckets`: at exactly len·8 == n
        // the calendar must hold its bucket count, and the next pop must
        // halve it. Build 9 live events → 32 buckets, then drain.
        let mut q = EventQueue::new();
        let mut heap = HeapQueue::new();
        for i in 0..9u32 {
            q.push(f64::from(i) * 0.5, i);
            heap.push(f64::from(i) * 0.5, i);
        }
        assert_eq!(q.buckets.len(), 32);
        while q.len() > 4 {
            assert_eq!(q.pop(), heap.pop());
            assert_eq!(q.buckets.len(), 32, "above the shrink threshold");
        }
        // len == 4: exactly an eighth — still inside the hysteresis band.
        assert_eq!(q.buckets.len(), 32);
        assert_eq!(q.pop(), heap.pop());
        assert_eq!(q.len(), 3);
        assert_eq!(q.buckets.len(), 16, "len·8 < n: halved");
        while let Some(a) = q.pop() {
            assert_eq!(Some(a), heap.pop());
        }
        assert!(heap.pop().is_none());
    }

    #[test]
    fn recalibration_interval_edge_at_len_512() {
        // The scan-cost check runs every `max(RECAL_INTERVAL, len)` pops;
        // at len == 512 the two operands coincide, so the check must fire
        // on exactly the 512th hold-pop and reset the counters — and the
        // queue must stay order-identical to the heap across it.
        let mut q = EventQueue::new();
        let mut heap = HeapQueue::new();
        for i in 0..512u32 {
            let t = f64::from(i % 97) * 0.25;
            q.push(t, i);
            heap.push(t, i);
        }
        assert_eq!(q.len(), 512);
        assert_eq!(q.buckets.len(), 1024, "no grow at 2·len == n");
        for hold in 1..=512u64 {
            let (t, v) = q.pop().unwrap();
            assert_eq!(Some((t, v)), heap.pop());
            q.push(t + 1.0, v);
            heap.push(t + 1.0, v);
            if hold < 512 {
                assert_eq!(
                    q.pops_since_recal, hold,
                    "counter accumulates below the interval"
                );
            } else {
                assert_eq!(
                    q.pops_since_recal, 0,
                    "512th pop at len 512 triggers the check and resets"
                );
            }
        }
        while let Some(a) = q.pop() {
            assert_eq!(Some(a), heap.pop());
        }
        assert!(heap.pop().is_none());
    }

    #[test]
    fn hold_pattern_matches_heap() {
        // Deterministic hold model: pop the head, reschedule it a pseudo-
        // random (splitmix-style) delta later, on both queues in lockstep.
        let mut cal = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut s: u64 = 0x9E3779B97F4A7C15;
        let mut next = || {
            s = s.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        for i in 0..256u32 {
            let t = (next() % 1000) as f64 * 0.5;
            cal.push(t, i);
            heap.push(t, i);
        }
        for _ in 0..4096 {
            let (tc, vc) = cal.pop().unwrap();
            let (th, vh) = heap.pop().unwrap();
            assert_eq!((tc, vc), (th, vh));
            let dt = (next() % 64) as f64 * 0.125;
            cal.push(tc + dt, vc);
            heap.push(th + dt, vh);
        }
        while let Some(a) = cal.pop() {
            assert_eq!(Some(a), heap.pop());
        }
        assert!(heap.pop().is_none());
    }
}
