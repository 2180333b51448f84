//! Byte-exact traffic accounting.
//!
//! The paper's Table II reports *bytes*: intermediate (shuffle) data and
//! model updates, for one IC iteration, the whole IC run, and the whole PIC
//! run. Those numbers are the heart of its argument, so this ledger counts
//! them exactly as the engine moves real data, rather than estimating them.
//!
//! The counters are atomics (`AtomicU64` per class), so the DFS, the
//! engine and the drivers can share one ledger through an `Arc` without a
//! lock. No charge happens inside a parallel closure: every one runs on the
//! driver thread, after the host work it accounts for.

use std::sync::atomic::{AtomicU64, Ordering};

/// Classification of a byte transfer, by which resource it consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Map → reduce intermediate data that stays on one node (free of the
    /// network; charged to local disk).
    ShuffleLocal,
    /// Map → reduce intermediate data that crosses nodes within one rack.
    ShuffleRack,
    /// Map → reduce intermediate data that crosses the cluster bisection.
    ShuffleBisection,
    /// Reads of input data from the DFS.
    DfsRead,
    /// Writes of job output to the DFS (includes replication copies).
    DfsWrite,
    /// Model written back to the DFS at the end of an iteration (the
    /// paper's second bottleneck; includes replication copies).
    ModelUpdate,
    /// Sub-problem models collected / redistributed by the PIC merge step.
    Merge,
    /// Model broadcast to tasks at the start of an iteration.
    Broadcast,
    /// Raw (pre-combine) map output spilled to local disk — Hadoop's "Map
    /// output bytes" counter, which is what the paper's Table II calls
    /// "intermediate data (mapper output)".
    MapSpill,
    /// Bytes moved only because a fault was injected: re-fetched inputs of
    /// killed task attempts, re-broadcast sub-models after a node crash,
    /// and the rebalance shuffle of an elastic resize. Kept separate so
    /// recovery cost is attributable per phase.
    Recovery,
}

impl TrafficClass {
    /// All classes, in display order.
    pub const ALL: [TrafficClass; 10] = [
        TrafficClass::ShuffleLocal,
        TrafficClass::ShuffleRack,
        TrafficClass::ShuffleBisection,
        TrafficClass::DfsRead,
        TrafficClass::DfsWrite,
        TrafficClass::ModelUpdate,
        TrafficClass::Merge,
        TrafficClass::Broadcast,
        TrafficClass::MapSpill,
        TrafficClass::Recovery,
    ];

    fn index(self) -> usize {
        match self {
            TrafficClass::ShuffleLocal => 0,
            TrafficClass::ShuffleRack => 1,
            TrafficClass::ShuffleBisection => 2,
            TrafficClass::DfsRead => 3,
            TrafficClass::DfsWrite => 4,
            TrafficClass::ModelUpdate => 5,
            TrafficClass::Merge => 6,
            TrafficClass::Broadcast => 7,
            TrafficClass::MapSpill => 8,
            TrafficClass::Recovery => 9,
        }
    }

    /// Inverse of [`TrafficClass::label`] — resolve a traced instant's
    /// name back to its class.
    pub fn from_label(label: &str) -> Option<TrafficClass> {
        TrafficClass::ALL.into_iter().find(|c| c.label() == label)
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::ShuffleLocal => "shuffle-local",
            TrafficClass::ShuffleRack => "shuffle-rack",
            TrafficClass::ShuffleBisection => "shuffle-bisection",
            TrafficClass::DfsRead => "dfs-read",
            TrafficClass::DfsWrite => "dfs-write",
            TrafficClass::ModelUpdate => "model-update",
            TrafficClass::Merge => "merge",
            TrafficClass::Broadcast => "broadcast",
            TrafficClass::MapSpill => "map-spill",
            TrafficClass::Recovery => "recovery",
        }
    }
}

/// Thread-safe per-class byte counters.
#[derive(Debug, Default)]
pub struct TrafficLedger {
    bytes: [AtomicU64; 10],
    tracer: crate::trace::Tracer,
}

impl TrafficLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty ledger that reports every charge to `tracer` as a
    /// `traffic` instant event. Because the ledger itself is the event
    /// source, trace-attributed bytes equal ledger totals exactly.
    pub fn traced(tracer: crate::trace::Tracer) -> Self {
        TrafficLedger {
            bytes: Default::default(),
            tracer,
        }
    }

    /// Add `bytes` to `class`.
    pub fn add(&self, class: TrafficClass, bytes: u64) {
        self.bytes[class.index()].fetch_add(bytes, Ordering::Relaxed);
        self.tracer.traffic_event(class, bytes);
    }

    /// Add `bytes` to `class`, recording that the transfer occupied the
    /// simulated window `[w0, w1]`. Totals are identical to [`Self::add`];
    /// the window only refines *when* the bytes count against a link in
    /// `crate::timeline`. Charges without a window are attributed as an
    /// impulse at their emission time.
    pub fn add_over(&self, class: TrafficClass, bytes: u64, w0: f64, w1: f64) {
        self.bytes[class.index()].fetch_add(bytes, Ordering::Relaxed);
        self.tracer.traffic_event_over(class, bytes, w0, w1);
    }

    /// Bytes recorded for `class` so far.
    pub fn get(&self, class: TrafficClass) -> u64 {
        self.bytes[class.index()].load(Ordering::Relaxed)
    }

    /// An immutable copy of all counters.
    pub fn snapshot(&self) -> TrafficSnapshot {
        let mut s = TrafficSnapshot::default();
        for c in TrafficClass::ALL {
            s.set(c, self.get(c));
        }
        s
    }

    /// Zero every counter.
    pub fn reset(&self) {
        for b in &self.bytes {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// A plain-data copy of a [`TrafficLedger`] at one instant. Snapshots can be
/// subtracted to get per-phase deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficSnapshot {
    bytes: [u64; 10],
}

impl TrafficSnapshot {
    /// Bytes for `class`.
    pub fn get(&self, class: TrafficClass) -> u64 {
        self.bytes[class.index()]
    }

    pub(crate) fn set(&mut self, class: TrafficClass, v: u64) {
        self.bytes[class.index()] = v;
    }

    /// Total shuffle bytes regardless of where they travelled — this is the
    /// "intermediate data" row of the paper's Table II.
    pub fn shuffle_total(&self) -> u64 {
        self.get(TrafficClass::ShuffleLocal)
            + self.get(TrafficClass::ShuffleRack)
            + self.get(TrafficClass::ShuffleBisection)
    }

    /// Shuffle bytes that actually used the network (rack + bisection).
    pub fn shuffle_network(&self) -> u64 {
        self.get(TrafficClass::ShuffleRack) + self.get(TrafficClass::ShuffleBisection)
    }

    /// Model-update bytes — the second row of Table II.
    pub fn model_update_total(&self) -> u64 {
        self.get(TrafficClass::ModelUpdate)
    }

    /// Every byte that crossed any network link.
    pub fn network_total(&self) -> u64 {
        self.shuffle_network()
            + self.get(TrafficClass::ModelUpdate)
            + self.get(TrafficClass::Merge)
            + self.get(TrafficClass::Broadcast)
            + self.get(TrafficClass::DfsWrite)
            + self.get(TrafficClass::Recovery)
    }

    /// Bytes moved only because faults were injected.
    pub fn recovery_total(&self) -> u64 {
        self.get(TrafficClass::Recovery)
    }

    /// Element-wise difference `self - earlier`; saturates at zero so a
    /// reset between snapshots cannot underflow.
    pub fn delta_since(&self, earlier: &TrafficSnapshot) -> TrafficSnapshot {
        let mut out = TrafficSnapshot::default();
        for c in TrafficClass::ALL {
            out.set(c, self.get(c).saturating_sub(earlier.get(c)));
        }
        out
    }

    /// Element-wise sum.
    pub fn plus(&self, other: &TrafficSnapshot) -> TrafficSnapshot {
        let mut out = *self;
        for c in TrafficClass::ALL {
            out.set(c, out.get(c) + other.get(c));
        }
        out
    }
}

/// Render a byte count the way the paper does (KB / MB / GB, base 1024).
pub fn human_bytes(b: u64) -> String {
    const KB: f64 = 1024.0;
    let b = b as f64;
    if b >= KB * KB * KB {
        format!("{:.2} GB", b / (KB * KB * KB))
    } else if b >= KB * KB {
        format!("{:.2} MB", b / (KB * KB))
    } else if b >= KB {
        format!("{:.2} KB", b / KB)
    } else {
        format!("{b:.0} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get_roundtrip() {
        let l = TrafficLedger::new();
        l.add(TrafficClass::ShuffleRack, 100);
        l.add(TrafficClass::ShuffleRack, 23);
        l.add(TrafficClass::ModelUpdate, 7);
        assert_eq!(l.get(TrafficClass::ShuffleRack), 123);
        assert_eq!(l.get(TrafficClass::ModelUpdate), 7);
        assert_eq!(l.get(TrafficClass::DfsRead), 0);
    }

    #[test]
    fn snapshot_totals() {
        let l = TrafficLedger::new();
        l.add(TrafficClass::ShuffleLocal, 10);
        l.add(TrafficClass::ShuffleRack, 20);
        l.add(TrafficClass::ShuffleBisection, 30);
        l.add(TrafficClass::ModelUpdate, 5);
        let s = l.snapshot();
        assert_eq!(s.shuffle_total(), 60);
        assert_eq!(s.shuffle_network(), 50);
        assert_eq!(s.model_update_total(), 5);
        assert_eq!(s.network_total(), 55);
    }

    #[test]
    fn delta_between_snapshots() {
        let l = TrafficLedger::new();
        l.add(TrafficClass::DfsRead, 100);
        let a = l.snapshot();
        l.add(TrafficClass::DfsRead, 50);
        l.add(TrafficClass::Merge, 9);
        let b = l.snapshot();
        let d = b.delta_since(&a);
        assert_eq!(d.get(TrafficClass::DfsRead), 50);
        assert_eq!(d.get(TrafficClass::Merge), 9);
    }

    #[test]
    fn delta_saturates_after_reset() {
        let l = TrafficLedger::new();
        l.add(TrafficClass::DfsRead, 100);
        let a = l.snapshot();
        l.reset();
        l.add(TrafficClass::DfsRead, 10);
        let b = l.snapshot();
        assert_eq!(b.delta_since(&a).get(TrafficClass::DfsRead), 0);
    }

    #[test]
    fn concurrent_adds_are_not_lost() {
        use std::sync::Arc;
        let l = Arc::new(TrafficLedger::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    l.add(TrafficClass::ShuffleBisection, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(l.get(TrafficClass::ShuffleBisection), 80_000);
    }

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.00 KB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.00 MB");
        assert_eq!(human_bytes(5 * 1024 * 1024 * 1024), "5.00 GB");
    }
}
