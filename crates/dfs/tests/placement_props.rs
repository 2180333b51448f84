//! Property-based tests for DFS placement and splitting.

use pic_dfs::placement::BlockPlacement;
use pic_dfs::split::even_ranges;
use pic_dfs::Dfs;
use pic_simnet::trace::Tracer;
use pic_simnet::traffic::{TrafficClass, TrafficLedger};
use pic_simnet::ClusterSpec;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replicas are always distinct nodes, the first is the writer, and
    /// the count is min(replication, cluster size).
    #[test]
    fn replicas_distinct_and_writer_first(
        writer in 0usize..64,
        block in 0u64..1000,
        seed in any::<u64>(),
    ) {
        let spec = ClusterSpec::medium();
        let p = BlockPlacement::new(seed);
        let r = p.place(&spec, "/prop/file", block, writer % spec.nodes);
        prop_assert_eq!(r[0], writer % spec.nodes);
        prop_assert_eq!(r.len(), spec.replication.min(spec.nodes));
        let mut sorted = r.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), r.len());
    }

    /// Even ranges always cover the file exactly, in order, balanced to
    /// within one byte.
    #[test]
    fn even_ranges_cover(file_len in 0u64..10_000_000, n in 1usize..64) {
        let rs = even_ranges(file_len, n);
        prop_assert_eq!(rs.len(), n);
        let mut off = 0u64;
        let mut min = u64::MAX;
        let mut max = 0u64;
        for (o, l) in &rs {
            prop_assert_eq!(*o, off);
            off += l;
            min = min.min(*l);
            max = max.max(*l);
        }
        prop_assert_eq!(off, file_len);
        prop_assert!(max - min <= 1);
    }

    /// Writes always charge replication × bytes to the requested class,
    /// and splits of the file cover it with non-empty host lists.
    #[test]
    fn write_accounting_and_splits(
        bytes in 1u64..50_000_000,
        writer in 0usize..6,
        n_splits in 1usize..32,
    ) {
        let spec = ClusterSpec::small();
        let ledger = Arc::new(TrafficLedger::new());
        let dfs = Dfs::new(Arc::new(spec), Arc::clone(&ledger), Tracer::disabled());
        dfs.create("/prop/w", bytes, writer, TrafficClass::ModelUpdate, 0.0).unwrap();
        prop_assert_eq!(ledger.get(TrafficClass::ModelUpdate), bytes * 3);
        let splits = dfs.splits("/prop/w", n_splits).unwrap();
        prop_assert_eq!(splits.len(), n_splits);
        let total: u64 = splits.iter().map(|s| s.len).sum();
        prop_assert_eq!(total, bytes);
        for s in &splits {
            prop_assert!(!s.hosts.is_empty());
        }
    }
}
