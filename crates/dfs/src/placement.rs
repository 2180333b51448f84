//! HDFS-style replica placement.
//!
//! The default HDFS policy (the one Hadoop 0.20 shipped): first replica on
//! the writer's node, second replica on a different node in a *different*
//! rack, third replica on another node in that same remote rack; extra
//! replicas spread randomly. On a single-rack cluster everything degrades
//! to "distinct nodes". Placement is derived from a seed hashed with the
//! path and block index so that the same logical write always places the
//! same way — experiments stay reproducible.

use pic_simnet::topology::{ClusterSpec, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Chooses replica nodes for blocks.
#[derive(Debug, Clone)]
pub struct BlockPlacement {
    seed: u64,
}

impl BlockPlacement {
    /// A placement policy with the given determinism seed.
    pub const fn new(seed: u64) -> Self {
        BlockPlacement { seed }
    }

    /// Replica nodes for block `block_idx` of `path`, written from
    /// `writer`. Returns `min(replication, nodes)` distinct nodes, the
    /// first being `writer`.
    pub fn place(
        &self,
        spec: &ClusterSpec,
        path: &str,
        block_idx: u64,
        writer: NodeId,
    ) -> Vec<NodeId> {
        assert!(writer < spec.nodes, "writer node out of range");
        let replicas = spec.replication.min(spec.nodes);
        let mut out = Vec::with_capacity(replicas);
        out.push(writer);
        if replicas == 1 {
            return out;
        }

        let mut rng = self.rng_for(path, block_idx);
        let writer_rack = spec.rack_of(writer);

        // Second replica: prefer a different rack.
        let remote_rack = if spec.racks > 1 {
            // Pick any rack other than the writer's.
            let mut r = rng.gen_range(0..spec.racks - 1);
            if r >= writer_rack {
                r += 1;
            }
            r
        } else {
            writer_rack
        };
        let mut remote_nodes: Vec<NodeId> = spec
            .nodes_in_rack(remote_rack)
            .filter(|&n| n != writer)
            .collect();
        remote_nodes.shuffle(&mut rng);

        for &n in remote_nodes.iter().take(2) {
            if out.len() < replicas {
                out.push(n);
            }
        }

        // Any further replicas: random distinct nodes.
        if out.len() < replicas {
            let mut rest: Vec<NodeId> = (0..spec.nodes).filter(|n| !out.contains(n)).collect();
            rest.shuffle(&mut rng);
            for n in rest {
                if out.len() == replicas {
                    break;
                }
                out.push(n);
            }
        }
        out
    }

    fn rng_for(&self, path: &str, block_idx: u64) -> StdRng {
        let mut h = DefaultHasher::new();
        self.seed.hash(&mut h);
        path.hash(&mut h);
        block_idx.hash(&mut h);
        StdRng::seed_from_u64(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_replica_is_writer_local() {
        let spec = ClusterSpec::medium();
        let p = BlockPlacement::new(42);
        for writer in [0, 13, 63] {
            let r = p.place(&spec, "/data/x", 0, writer);
            assert_eq!(r[0], writer);
        }
    }

    #[test]
    fn replicas_are_distinct() {
        let spec = ClusterSpec::medium();
        let p = BlockPlacement::new(7);
        for b in 0..50 {
            let r = p.place(&spec, "/f", b, 5);
            let mut sorted = r.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), r.len(), "duplicate replica in {r:?}");
            assert_eq!(r.len(), 3);
        }
    }

    #[test]
    fn second_replica_leaves_the_rack_when_possible() {
        let spec = ClusterSpec::medium(); // 6 racks
        let p = BlockPlacement::new(1);
        for b in 0..20 {
            let r = p.place(&spec, "/f", b, 0);
            assert_ne!(
                spec.rack_of(r[1]),
                spec.rack_of(0),
                "replica 2 should be off-rack: {r:?}"
            );
        }
    }

    #[test]
    fn single_rack_cluster_still_places_distinct_nodes() {
        let spec = ClusterSpec::small(); // 1 rack, 6 nodes, replication 3
        let p = BlockPlacement::new(3);
        let r = p.place(&spec, "/f", 0, 2);
        assert_eq!(r.len(), 3);
        let mut s = r.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn replication_capped_by_cluster_size() {
        let spec = ClusterSpec::single(); // 1 node, replication 1
        let p = BlockPlacement::new(0);
        let r = p.place(&spec, "/f", 0, 0);
        assert_eq!(r, vec![0]);
    }

    #[test]
    fn placement_is_deterministic_per_path_and_block() {
        let spec = ClusterSpec::medium();
        let p = BlockPlacement::new(99);
        let a = p.place(&spec, "/model/v1", 3, 10);
        let b = p.place(&spec, "/model/v1", 3, 10);
        assert_eq!(a, b);
        let c = p.place(&spec, "/model/v2", 3, 10);
        // Different path may (and with high probability does) differ beyond
        // the writer-local first replica.
        assert_eq!(c[0], 10);
    }
}
