//! Analytic transfer-time models.
//!
//! Bytes are counted exactly by the [`crate::traffic::TrafficLedger`]; this
//! module answers "how long does moving those bytes take on a given
//! [`ClusterSpec`]". The models are first-order bandwidth models — the same
//! altitude at which the paper reasons about its bottlenecks — and each one
//! documents its assumptions.

use crate::topology::{ClusterSpec, NodeId};

/// Time to read or write `bytes` on a node's local disk.
pub fn local_disk_s(spec: &ClusterSpec, bytes: u64) -> f64 {
    bytes as f64 / spec.disk_bw
}

/// Time for an all-to-all shuffle of `total_bytes` among the node group
/// `nodes` (e.g. `0..spec.nodes` for a cluster-wide job). Returns the time
/// along with the split of the bytes into (local, rack, bisection) — the
/// caller records the split in the ledger.
///
/// Byte split model: with `m` participating nodes, a uniformly hashed
/// shuffle sends `1/m` of the data to a node-local reducer and `(m-1)/m`
/// across the network. Of the network bytes, the fraction whose destination
/// is outside the sender's rack is `(m - r) / (m - 1)` where `r` is the
/// group's nodes-per-rack — for an even spread over `racks_spanned` racks.
pub fn shuffle(
    spec: &ClusterSpec,
    nodes: &std::ops::Range<NodeId>,
    total_bytes: u64,
) -> ShuffleCost {
    let m = nodes.len().max(1);
    let racks_spanned = racks_spanned(spec, nodes);
    let total = total_bytes as f64;
    let local = total / m as f64;
    let network = total - local;
    let (rack_bytes, bisection_bytes) = if m <= 1 {
        (0.0, 0.0)
    } else if racks_spanned <= 1 {
        (network, 0.0)
    } else {
        let per_rack = (m as f64 / racks_spanned as f64).max(1.0);
        let cross_rack_frac = ((m as f64 - per_rack) / (m as f64 - 1.0)).clamp(0.0, 1.0);
        (network * (1.0 - cross_rack_frac), network * cross_rack_frac)
    };

    // Time: disk for the local share, network for the rest, with the
    // bisection-crossing share additionally capped by the bisection.
    let disk_s = local / spec.disk_bw;
    let egress_bw = m as f64 * spec.nic_bw;
    let net_s = if network > 0.0 {
        let serialisation = network / egress_bw;
        let bisection = if bisection_bytes > 0.0 {
            bisection_bytes / spec.bisection_bw
        } else {
            0.0
        };
        serialisation.max(bisection)
    } else {
        0.0
    };

    ShuffleCost {
        seconds: disk_s.max(net_s),
        local_bytes: local.round() as u64,
        rack_bytes: rack_bytes.round() as u64,
        bisection_bytes: bisection_bytes.round() as u64,
    }
}

/// Outcome of the [`shuffle`] model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShuffleCost {
    /// Simulated seconds the shuffle occupies.
    pub seconds: f64,
    /// Bytes that stayed on their source node.
    pub local_bytes: u64,
    /// Bytes that crossed nodes but stayed within a rack.
    pub rack_bytes: u64,
    /// Bytes that crossed the cluster bisection.
    pub bisection_bytes: u64,
}

/// Number of racks a contiguous node group spans.
pub fn racks_spanned(spec: &ClusterSpec, nodes: &std::ops::Range<NodeId>) -> usize {
    if nodes.is_empty() {
        return 0;
    }
    spec.rack_of(nodes.end - 1) - spec.rack_of(nodes.start) + 1
}

/// Time to write `bytes` to the DFS with the spec's replication factor,
/// HDFS-style pipelined: the writer streams to replica 1 which streams to
/// replica 2, etc., so latency ≈ one pass at NIC rate (plus disk at each
/// replica, overlapped), but *traffic* is `replication × bytes`. Returns
/// `(seconds, network_bytes)`. The first replica is node-local in HDFS, so
/// network copies are `replication - 1`.
pub fn dfs_write(spec: &ClusterSpec, bytes: u64) -> (f64, u64) {
    let copies = spec.replication.max(1) as u64;
    let network_bytes = bytes * (copies - 1);
    let pipeline_s = if network_bytes == 0 {
        local_disk_s(spec, bytes)
    } else {
        // Pipelined: bounded by the slowest stage (NIC or disk) for one pass.
        bytes as f64 / spec.nic_bw.min(spec.disk_bw)
    };
    (pipeline_s, network_bytes)
}

/// Time to broadcast `bytes` from the DFS to `m` nodes (each node pulls its
/// own copy; HDFS distributed cache style). Aggregate replica read
/// bandwidth is assumed to scale with the replica count, so the broadcast
/// is bounded by receivers' aggregate ingress divided by the fan-out.
/// Returns `(seconds, network_bytes)` where network bytes are `m × bytes`.
pub fn broadcast(spec: &ClusterSpec, m: usize, bytes: u64) -> (f64, u64) {
    if m == 0 || bytes == 0 {
        return (0.0, 0);
    }
    let network_bytes = bytes * m as u64;
    // Replicas serve in parallel; each receiver is bounded by its NIC, and
    // the servers by replication × NIC.
    let servers_bw = spec.replication as f64 * spec.nic_bw;
    let seconds = (bytes as f64 / spec.nic_bw).max(network_bytes as f64 / servers_bw);
    (seconds, network_bytes)
}

/// Gather variably-sized pieces onto one node (the PIC merge collection
/// step): the receiver's NIC is the bottleneck, so time is the exact byte
/// total over its bandwidth.
pub fn gather_sized(spec: &ClusterSpec, sizes: &[u64]) -> (f64, u64) {
    let total: u64 = sizes.iter().sum();
    (total as f64 / spec.nic_bw, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * b.abs().max(1.0)
    }

    #[test]
    fn single_rack_shuffle_has_no_bisection_bytes() {
        let s = ClusterSpec::small();
        let all = 0..s.nodes;
        let c = shuffle(&s, &all, 6_000_000);
        assert_eq!(c.bisection_bytes, 0);
        assert_eq!(c.local_bytes, 1_000_000);
        assert_eq!(c.rack_bytes, 5_000_000);
        assert!(c.seconds > 0.0);
    }

    #[test]
    fn multi_rack_shuffle_crosses_bisection() {
        let m = ClusterSpec::medium();
        let all = 0..m.nodes;
        let c = shuffle(&m, &all, 64_000_000_000);
        assert!(c.bisection_bytes > 0);
        // With 64 nodes over 6 racks (~11/rack), ~84% of network bytes
        // leave the rack.
        let network = c.rack_bytes + c.bisection_bytes;
        let frac = c.bisection_bytes as f64 / network as f64;
        assert!(frac > 0.7 && frac < 0.95, "cross-rack fraction {frac}");
    }

    #[test]
    fn rack_local_group_shuffle_avoids_bisection() {
        let m = ClusterSpec::medium();
        let g = crate::topology::node_group(m.nodes, 0, 8); // 8 nodes, inside rack 0
        assert!(m.group_is_rack_local(&g));
        let c = shuffle(&m, &g, 1_000_000_000);
        assert_eq!(c.bisection_bytes, 0);
    }

    #[test]
    fn shuffle_byte_split_conserves_total() {
        let m = ClusterSpec::medium();
        for total in [0u64, 1, 999, 1_000_000, 123_456_789] {
            let c = shuffle(&m, &(0..m.nodes), total);
            let sum = c.local_bytes + c.rack_bytes + c.bisection_bytes;
            let diff = sum.abs_diff(total);
            assert!(diff <= 2, "rounding drift {diff} for total {total}");
        }
    }

    #[test]
    fn bigger_shuffles_take_longer() {
        let m = ClusterSpec::medium();
        let a = shuffle(&m, &(0..m.nodes), 1_000_000_000).seconds;
        let b = shuffle(&m, &(0..m.nodes), 2_000_000_000).seconds;
        assert!(b > a);
    }

    #[test]
    fn bisection_bound_dominates_large_cluster_shuffle() {
        // On the medium cluster the aggregate NIC egress (64 GbE) exceeds
        // 2×bisection (7.5 GB/s), so big shuffles are bisection-bound.
        let m = ClusterSpec::medium();
        let bytes = 750_000_000_000u64;
        let c = shuffle(&m, &(0..m.nodes), bytes);
        let expected = c.bisection_bytes as f64 / m.bisection_bw;
        assert!(close(c.seconds, expected), "{} vs {expected}", c.seconds);
    }

    #[test]
    fn dfs_write_accounts_replication() {
        let s = ClusterSpec::small(); // replication 3
        let (secs, net) = dfs_write(&s, 1000);
        assert_eq!(net, 2000, "two network copies for replication 3");
        assert!(secs > 0.0);
    }

    #[test]
    fn dfs_write_replication_one_is_local() {
        let mut s = ClusterSpec::small();
        s.replication = 1;
        let (secs, net) = dfs_write(&s, 100_000_000);
        assert_eq!(net, 0);
        assert!(close(secs, 1.0), "disk-only write (got {secs})");
    }

    #[test]
    fn broadcast_scales_with_fanout() {
        let m = ClusterSpec::medium();
        let (t64, b64) = broadcast(&m, 64, 1_000_000);
        let (t1, b1) = broadcast(&m, 1, 1_000_000);
        assert_eq!(b64, 64_000_000);
        assert_eq!(b1, 1_000_000);
        assert!(t64 >= t1);
    }

    #[test]
    fn gather_is_receiver_bound() {
        let s = ClusterSpec::small();
        let (t, b) = gather_sized(&s, &[25_000_000; 5]);
        assert_eq!(b, 125_000_000);
        assert!(close(t, 1.0), "receiver NIC 1 GbE (got {t})");
    }

    #[test]
    fn racks_spanned_counts() {
        let m = ClusterSpec::medium();
        assert_eq!(racks_spanned(&m, &(0..m.nodes)), 6);
        assert_eq!(racks_spanned(&m, &(0..4)), 1);
        assert_eq!(racks_spanned(&m, &(0..0)), 0);
    }
}
