//! Typed distributed datasets.
//!
//! A [`Dataset`] is the engine's view of an input file: the records live in
//! host memory (typed, no serialization), carved into [`Split`]s that each
//! know which simulated nodes hold their replicas. Locality drives the
//! slot scheduler exactly as HDFS block locations drive Hadoop's.

use crate::engine::Engine;
use crate::kv::ByteSize;
use crate::traits::Value;
use pic_dfs::split::even_ranges;
use pic_simnet::topology::NodeId;
use pic_simnet::traffic::TrafficClass;

/// One map task's worth of input.
#[derive(Debug, Clone)]
pub struct Split<I> {
    /// The records of this split.
    pub records: Vec<I>,
    /// Simulated nodes holding a replica of this split's block.
    pub hosts: Vec<NodeId>,
    /// Serialized size of the split.
    pub bytes: u64,
}

/// A named, split, placed dataset.
#[derive(Debug, Clone)]
pub struct Dataset<I> {
    /// DFS path of the dataset.
    pub name: String,
    /// The splits, in order.
    pub splits: Vec<Split<I>>,
    /// Serialized size of all records.
    pub total_bytes: u64,
}

impl<I: Value> Dataset<I> {
    /// Register `records` as `name` in the engine's DFS, split into
    /// `n_splits` map-task inputs whose hosts follow the DFS block
    /// placement. Loading input is a one-time cost the paper's baseline
    /// already excludes (§V.A), so callers normally snapshot the traffic
    /// ledger *after* dataset creation.
    ///
    /// # Panics
    /// Panics if `n_splits == 0` or the path already exists.
    pub fn create(engine: &Engine, name: &str, records: Vec<I>, n_splits: usize) -> Self {
        assert!(n_splits > 0, "need at least one split");
        let total_bytes: u64 = records.iter().map(ByteSize::byte_size).sum();
        engine
            .dfs()
            .create(name, total_bytes, 0, TrafficClass::DfsWrite)
            .unwrap_or_else(|e| panic!("dataset create failed: {e}"));
        let file_splits = engine
            .dfs()
            .splits(name, n_splits)
            .expect("file just created");
        let splits = carve(records, n_splits)
            .into_iter()
            .zip(file_splits)
            .map(|(records, fs)| {
                let bytes: u64 = records.iter().map(ByteSize::byte_size).sum();
                Split {
                    records,
                    hosts: fs.hosts,
                    bytes,
                }
            })
            .collect();
        Dataset {
            name: name.to_string(),
            splits,
            total_bytes,
        }
    }

    /// Register `records` confined to the node group `group`, hosts
    /// assigned round-robin within the group. This is how PIC's best-effort
    /// phase pins a sub-problem's data to its node group so that local
    /// iterations never leave it.
    pub fn create_in_group(
        engine: &Engine,
        name: &str,
        records: Vec<I>,
        n_splits: usize,
        group: std::ops::Range<NodeId>,
    ) -> Self {
        assert!(n_splits > 0, "need at least one split");
        assert!(!group.is_empty(), "node group must be non-empty");
        assert!(group.end <= engine.spec().nodes, "group exceeds cluster");
        let total_bytes: u64 = records.iter().map(ByteSize::byte_size).sum();
        engine
            .dfs()
            .overwrite(name, total_bytes, group.start, TrafficClass::DfsWrite);
        let group_nodes: Vec<NodeId> = group.collect();
        let splits = carve(records, n_splits)
            .into_iter()
            .enumerate()
            .map(|(i, records)| {
                let bytes: u64 = records.iter().map(ByteSize::byte_size).sum();
                Split {
                    records,
                    hosts: vec![group_nodes[i % group_nodes.len()]],
                    bytes,
                }
            })
            .collect();
        Dataset {
            name: name.to_string(),
            splits,
            total_bytes,
        }
    }

    /// Total record count.
    pub fn total_records(&self) -> usize {
        self.splits.iter().map(|s| s.records.len()).sum()
    }

    /// Iterate all records in split order.
    pub fn iter_records(&self) -> impl Iterator<Item = &I> {
        self.splits.iter().flat_map(|s| s.records.iter())
    }
}

/// Carve `records` into `n` contiguous, near-equal chunks.
fn carve<I>(mut records: Vec<I>, n: usize) -> Vec<Vec<I>> {
    let ranges = even_ranges(records.len() as u64, n);
    let mut out: Vec<Vec<I>> = Vec::with_capacity(n);
    // Split from the back to avoid repeated copies.
    for (_, len) in ranges.iter().rev() {
        let at = records.len() - *len as usize;
        out.push(records.split_off(at));
    }
    out.reverse();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_simnet::topology::ClusterSpec;

    #[test]
    fn carve_preserves_order_and_count() {
        let v: Vec<u64> = (0..10).collect();
        let chunks = carve(v, 3);
        assert_eq!(chunks.len(), 3);
        let flat: Vec<u64> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn carve_handles_fewer_records_than_splits() {
        let chunks = carve(vec![1u64, 2], 5);
        assert_eq!(chunks.len(), 5);
        assert_eq!(chunks.iter().map(Vec::len).sum::<usize>(), 2);
    }

    #[test]
    fn create_places_and_sizes() {
        let engine = Engine::new(ClusterSpec::small());
        let data: Vec<u64> = (0..100).collect();
        let ds = Dataset::create(&engine, "/in/u64s", data, 4);
        assert_eq!(ds.splits.len(), 4);
        assert_eq!(ds.total_records(), 100);
        assert_eq!(ds.total_bytes, 800);
        for s in &ds.splits {
            assert_eq!(s.records.len(), 25);
            assert_eq!(s.bytes, 200);
            assert!(!s.hosts.is_empty());
        }
        assert!(engine.dfs().exists("/in/u64s"));
    }

    #[test]
    fn create_in_group_pins_hosts() {
        let engine = Engine::new(ClusterSpec::medium());
        let data: Vec<u64> = (0..40).collect();
        let group = 8..12;
        let ds = Dataset::create_in_group(&engine, "/part/3", data, 8, group.clone());
        for s in &ds.splits {
            assert_eq!(s.hosts.len(), 1);
            assert!(group.contains(&s.hosts[0]));
        }
    }

    #[test]
    #[should_panic(expected = "at least one split")]
    fn zero_splits_panics() {
        let engine = Engine::new(ClusterSpec::small());
        Dataset::<u64>::create(&engine, "/x", vec![], 0);
    }

    #[test]
    fn iter_records_in_order() {
        let engine = Engine::new(ClusterSpec::small());
        let ds = Dataset::create(&engine, "/seq", (0..9u64).collect(), 3);
        let seen: Vec<u64> = ds.iter_records().copied().collect();
        assert_eq!(seen, (0..9).collect::<Vec<_>>());
    }
}
