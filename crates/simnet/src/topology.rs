//! Cluster topology: nodes, racks, slots and link capacities.
//!
//! The model is deliberately the same level of abstraction the paper argues
//! at: every node has a NIC, nodes are grouped into racks behind a rack
//! switch, and rack switches meet at a core whose capacity is the *cluster
//! bisection bandwidth* — "a resource that is both scarce and difficult to
//! scale" (paper §I). All-to-all shuffle traffic stresses the bisection;
//! rack-local and node-local traffic does not.

/// Index of a node within a [`ClusterSpec`] (0-based, dense).
pub type NodeId = usize;

/// Index of a rack within a [`ClusterSpec`] (0-based, dense).
pub type RackId = usize;

/// One gigabit Ethernet NIC in bytes per second (the paper's interconnect).
pub const GBE: f64 = 125_000_000.0;

/// Ten-gigabit Ethernet in bytes per second (rack uplinks on the medium
/// cluster).
pub const TEN_GBE: f64 = 1_250_000_000.0;

/// A declarative description of a cluster.
///
/// All bandwidths are bytes/second. Slots are cluster-wide totals, matching
/// how the paper reports them ("330 map and 110 reduce task slots").
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Human-readable name, used in reports ("small", "medium", ...).
    pub name: String,
    /// Number of worker nodes.
    pub nodes: usize,
    /// Number of racks; nodes are assigned to racks in contiguous blocks.
    pub racks: usize,
    /// Cluster-wide map task slots.
    pub map_slots: usize,
    /// Cluster-wide reduce task slots.
    pub reduce_slots: usize,
    /// Per-node NIC bandwidth.
    pub nic_bw: f64,
    /// Per-rack uplink bandwidth (rack switch to core).
    pub rack_uplink_bw: f64,
    /// Cluster bisection bandwidth (total capacity between any even split
    /// of the racks). For a single-rack cluster this is the switch
    /// backplane and is effectively non-blocking.
    pub bisection_bw: f64,
    /// Sequential disk bandwidth per node.
    pub disk_bw: f64,
    /// Fixed startup cost charged per scheduled task (JVM spawn etc.).
    pub task_overhead_s: f64,
    /// Fixed startup cost charged per job. The paper's baseline already
    /// excludes repeated-job overheads (§V.A), so drivers typically charge
    /// this once, not per iteration.
    pub job_overhead_s: f64,
    /// DFS replication factor (HDFS default 3).
    pub replication: usize,
}

impl ClusterSpec {
    /// The paper's small testbed: 6 nodes, dual quad-core Xeon E5520
    /// (8 physical cores), 48 GB RAM, gigabit Ethernet, one rack,
    /// 24 map + 24 reduce slots.
    pub fn small() -> Self {
        ClusterSpec {
            name: "small".into(),
            nodes: 6,
            racks: 1,
            map_slots: 24,
            reduce_slots: 24,
            nic_bw: GBE,
            rack_uplink_bw: TEN_GBE,
            // Single non-blocking switch: bisection = half the NICs can
            // talk to the other half at line rate.
            bisection_bw: 3.0 * GBE,
            disk_bw: 100_000_000.0,
            task_overhead_s: 0.5,
            job_overhead_s: 5.0,
            replication: 3,
        }
    }

    /// The paper's medium testbed: 64 nodes across 6 racks, dual quad-core
    /// Xeon E5430, 16 GB RAM, gigabit Ethernet, 330 map + 110 reduce slots.
    /// Rack uplinks are 10 GbE and oversubscribed (a common 2012 design),
    /// so the bisection is far below the sum of NICs — this is what makes
    /// shuffle the bottleneck at this scale.
    pub fn medium() -> Self {
        ClusterSpec {
            name: "medium".into(),
            nodes: 64,
            racks: 6,
            map_slots: 330,
            reduce_slots: 110,
            nic_bw: GBE,
            rack_uplink_bw: TEN_GBE,
            // 3 rack uplinks on each side of an even split.
            bisection_bw: 3.0 * TEN_GBE,
            disk_bw: 100_000_000.0,
            task_overhead_s: 0.5,
            job_overhead_s: 5.0,
            replication: 3,
        }
    }

    /// The paper's large testbed: `n` Amazon Elastic MapReduce "extra
    /// large" instances (15 GB RAM, 8 EC2 compute units = 4 virtual cores).
    /// EC2-era networking was heavily oversubscribed; we model 16 instances
    /// per rack with 4:1 oversubscription at the core.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn large(n: usize) -> Self {
        assert!(n > 0, "cluster must have at least one node");
        let racks = n.div_ceil(16);
        let cores = 4;
        ClusterSpec {
            name: format!("large-{n}"),
            nodes: n,
            racks,
            map_slots: n * cores,
            reduce_slots: n * cores / 2,
            nic_bw: GBE,
            rack_uplink_bw: TEN_GBE,
            bisection_bw: (racks as f64 / 2.0).max(1.0) * TEN_GBE / 4.0,
            disk_bw: 80_000_000.0,
            task_overhead_s: 0.5,
            job_overhead_s: 10.0,
            replication: 3,
        }
    }

    /// A single-node "cluster" useful in unit tests: everything is local.
    pub fn single() -> Self {
        ClusterSpec {
            name: "single".into(),
            nodes: 1,
            racks: 1,
            map_slots: 8,
            reduce_slots: 8,
            nic_bw: GBE,
            rack_uplink_bw: TEN_GBE,
            bisection_bw: GBE,
            disk_bw: 100_000_000.0,
            task_overhead_s: 0.1,
            job_overhead_s: 1.0,
            replication: 1,
        }
    }

    /// A custom cluster: `nodes` × `cores` over `racks` racks of
    /// GbE nodes, with `oversubscription : 1` at the core (bisection =
    /// aggregate NIC of half the nodes, divided by the factor). Slots
    /// default to one map slot per core and half as many reduce slots —
    /// Hadoop-era convention.
    ///
    /// # Panics
    /// Panics if the resulting spec fails validation.
    pub fn custom(nodes: usize, cores: usize, racks: usize, oversubscription: f64) -> Self {
        assert!(oversubscription >= 1.0, "oversubscription is a ratio >= 1");
        let spec = ClusterSpec {
            name: format!("custom-{nodes}x{cores}"),
            nodes,
            racks,
            map_slots: nodes * cores,
            reduce_slots: (nodes * cores / 2).max(1),
            nic_bw: GBE,
            rack_uplink_bw: TEN_GBE,
            bisection_bw: (nodes as f64 / 2.0) * GBE / oversubscription,
            disk_bw: 100_000_000.0,
            task_overhead_s: 0.5,
            job_overhead_s: 5.0,
            replication: 3,
        };
        spec.validate().expect("custom cluster spec invalid");
        spec
    }

    /// Rack that hosts `node`. Nodes are laid out in contiguous blocks so
    /// that a contiguous range of node ids tends to be rack-local — the
    /// property PIC's partitioned sub-problems exploit.
    ///
    /// # Panics
    /// Panics if `node >= self.nodes`.
    pub fn rack_of(&self, node: NodeId) -> RackId {
        assert!(
            node < self.nodes,
            "node {node} out of range 0..{}",
            self.nodes
        );
        let per_rack = self.nodes.div_ceil(self.racks);
        node / per_rack
    }

    /// Nodes per rack (last rack may be smaller).
    pub fn nodes_per_rack(&self) -> usize {
        self.nodes.div_ceil(self.racks)
    }

    /// All node ids in `rack`.
    pub fn nodes_in_rack(&self, rack: RackId) -> impl Iterator<Item = NodeId> + '_ {
        let per_rack = self.nodes_per_rack();
        let start = rack * per_rack;
        let end = ((rack + 1) * per_rack).min(self.nodes);
        start..end
    }

    /// Map slots available on a single node (cluster total spread evenly,
    /// rounded down but at least 1).
    pub fn map_slots_per_node(&self) -> usize {
        (self.map_slots / self.nodes).max(1)
    }

    /// Reduce slots available on a single node.
    pub fn reduce_slots_per_node(&self) -> usize {
        (self.reduce_slots / self.nodes).max(1)
    }

    /// True when two nodes share a rack.
    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// Validate internal consistency; returns a description of the first
    /// problem found. Presets always validate.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("nodes must be > 0".into());
        }
        if self.racks == 0 || self.racks > self.nodes {
            return Err(format!(
                "racks must be in 1..={} (got {})",
                self.nodes, self.racks
            ));
        }
        if self.map_slots == 0 || self.reduce_slots == 0 {
            return Err("slot counts must be > 0".into());
        }
        for bw in [
            self.nic_bw,
            self.rack_uplink_bw,
            self.bisection_bw,
            self.disk_bw,
        ] {
            if !(bw.is_finite() && bw > 0.0) {
                return Err(format!("bandwidths must be finite and positive (got {bw})"));
            }
        }
        if self.replication == 0 {
            return Err("replication must be >= 1".into());
        }
        if self.task_overhead_s < 0.0 || self.job_overhead_s < 0.0 {
            return Err("overheads must be non-negative".into());
        }
        Ok(())
    }
}

/// A contiguous group of nodes `0..nodes` for sub-problem `g` of
/// `groups`, splitting them as evenly as possible. The PIC driver
/// confines each best-effort sub-problem to one such (preferably
/// rack-local) group, over the whole cluster and again over the active
/// nodes after an elastic resize.
pub fn node_group(nodes: usize, g: usize, groups: usize) -> std::ops::Range<NodeId> {
    assert!(
        groups > 0 && g < groups,
        "group {g} out of range 0..{groups}"
    );
    // Spread remainder over the first `rem` groups.
    let base = nodes / groups;
    let rem = nodes % groups;
    let start = g * base + g.min(rem);
    let len = base + usize::from(g < rem);
    // Degenerate case: more groups than nodes — groups share nodes.
    if len == 0 {
        let n = g % nodes;
        return n..n + 1;
    }
    start..start + len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for spec in [
            ClusterSpec::small(),
            ClusterSpec::medium(),
            ClusterSpec::large(64),
            ClusterSpec::large(256),
            ClusterSpec::single(),
        ] {
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    fn small_matches_paper() {
        let s = ClusterSpec::small();
        assert_eq!(s.nodes, 6);
        assert_eq!(s.map_slots, 24);
        assert_eq!(s.reduce_slots, 24);
        assert_eq!(s.racks, 1);
    }

    #[test]
    fn medium_matches_paper() {
        let m = ClusterSpec::medium();
        assert_eq!(m.nodes, 64);
        assert_eq!(m.racks, 6);
        assert_eq!(m.map_slots, 330);
        assert_eq!(m.reduce_slots, 110);
    }

    #[test]
    fn large_matches_paper_instances() {
        let l = ClusterSpec::large(256);
        assert_eq!(l.nodes, 256);
        assert_eq!(l.map_slots, 256 * 4, "EMR extra-large = 4 virtual cores");
    }

    #[test]
    fn custom_builder_produces_valid_specs() {
        let c = ClusterSpec::custom(32, 8, 4, 4.0);
        c.validate().unwrap();
        assert_eq!(c.nodes, 32);
        assert_eq!(c.map_slots, 256);
        assert_eq!(c.bisection_bw, 16.0 * GBE / 4.0);
    }

    #[test]
    fn preset_bisections_are_at_most_half_the_nics() {
        let half_nics = |s: &ClusterSpec| s.nodes as f64 / 2.0 * s.nic_bw;
        let s = ClusterSpec::small();
        assert_eq!(
            s.bisection_bw,
            half_nics(&s),
            "single switch is non-blocking"
        );
        let m = ClusterSpec::medium();
        assert!(
            m.bisection_bw < half_nics(&m),
            "medium cluster is oversubscribed"
        );
    }

    #[test]
    fn preset_bisection_bandwidths_are_exact() {
        // `transfer` prices every bisection-crossing byte against
        // `bisection_bw`, so pin it exactly: every term is a product or
        // ratio of the constants above and must not drift.
        assert_eq!(ClusterSpec::small().bisection_bw, 3.0 * GBE);
        assert_eq!(
            ClusterSpec::medium().bisection_bw,
            3.0 * TEN_GBE,
            "three 10 GbE rack uplinks on each side of an even split"
        );
        assert_eq!(ClusterSpec::single().bisection_bw, GBE);
        // 16 instances per rack, half the racks' uplinks at 4:1, at
        // least one uplink's worth.
        assert_eq!(ClusterSpec::large(256).bisection_bw, 8.0 * TEN_GBE / 4.0);
        assert_eq!(ClusterSpec::large(16).bisection_bw, TEN_GBE / 4.0);
        // custom() divides half the nodes' NICs by the requested ratio.
        assert_eq!(ClusterSpec::custom(32, 8, 4, 4.0).bisection_bw, 4.0 * GBE);
        assert_eq!(ClusterSpec::custom(10, 4, 2, 1.0).bisection_bw, 5.0 * GBE);
    }

    /// `spec` must fail validation with a message containing every
    /// fragment (check_negative.rs style, for the single-error API).
    fn assert_rejected(spec: &ClusterSpec, fragments: &[&str]) {
        let err = spec
            .validate()
            .expect_err("spec unexpectedly validated clean");
        assert!(
            fragments.iter().all(|f| err.contains(f)),
            "error {err:?} does not contain all of {fragments:?}"
        );
    }

    #[test]
    fn validate_rejects_non_finite_and_non_positive_bandwidths() {
        let mut s = ClusterSpec::small();
        s.nic_bw = f64::NAN;
        assert_rejected(&s, &["bandwidths must be finite and positive", "NaN"]);

        let mut s = ClusterSpec::small();
        s.bisection_bw = f64::INFINITY;
        assert_rejected(&s, &["bandwidths must be finite and positive", "inf"]);

        let mut s = ClusterSpec::small();
        s.disk_bw = 0.0;
        assert_rejected(&s, &["bandwidths must be finite and positive (got 0)"]);

        let mut s = ClusterSpec::small();
        s.rack_uplink_bw = -125_000_000.0;
        assert_rejected(
            &s,
            &["bandwidths must be finite and positive", "-125000000"],
        );
    }

    #[test]
    fn validate_rejects_zero_slots_and_counts() {
        let mut s = ClusterSpec::small();
        s.map_slots = 0;
        assert_rejected(&s, &["slot counts must be > 0"]);

        let mut s = ClusterSpec::small();
        s.reduce_slots = 0;
        assert_rejected(&s, &["slot counts must be > 0"]);

        let mut s = ClusterSpec::small();
        s.nodes = 0;
        assert_rejected(&s, &["nodes must be > 0"]);

        let mut s = ClusterSpec::small();
        s.replication = 0;
        assert_rejected(&s, &["replication must be >= 1"]);
    }

    #[test]
    fn validate_rejects_impossible_rack_layouts_and_overheads() {
        let mut s = ClusterSpec::small(); // 6 nodes
        s.racks = 0;
        assert_rejected(&s, &["racks must be in 1..=6 (got 0)"]);

        let mut s = ClusterSpec::small();
        s.racks = 7;
        assert_rejected(&s, &["racks must be in 1..=6 (got 7)"]);

        let mut s = ClusterSpec::small();
        s.task_overhead_s = -0.1;
        assert_rejected(&s, &["overheads must be non-negative"]);

        let mut s = ClusterSpec::small();
        s.job_overhead_s = f64::NEG_INFINITY;
        assert_rejected(&s, &["overheads must be non-negative"]);
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn sub_unit_oversubscription_rejected() {
        ClusterSpec::custom(8, 4, 2, 0.5);
    }

    #[test]
    fn rack_assignment_is_contiguous_and_total() {
        let m = ClusterSpec::medium();
        let mut seen = vec![false; m.nodes];
        for rack in 0..m.racks {
            let mut prev: Option<NodeId> = None;
            for n in m.nodes_in_rack(rack) {
                assert_eq!(m.rack_of(n), rack);
                if let Some(p) = prev {
                    assert_eq!(n, p + 1, "nodes within a rack are contiguous");
                }
                prev = Some(n);
                assert!(!seen[n]);
                seen[n] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s), "every node belongs to a rack");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rack_of_out_of_range_panics() {
        ClusterSpec::small().rack_of(6);
    }

    #[test]
    fn node_groups_partition_the_cluster() {
        let m = ClusterSpec::medium();
        for groups in [1, 2, 3, 7, 16, 64] {
            let mut covered = 0usize;
            let mut next = 0usize;
            for g in 0..groups {
                let r = node_group(m.nodes, g, groups);
                assert_eq!(r.start, next, "groups are contiguous and ordered");
                assert!(!r.is_empty());
                covered += r.len();
                next = r.end;
            }
            assert_eq!(covered, m.nodes, "groups={groups}");
        }
    }

    #[test]
    fn more_groups_than_nodes_share_nodes() {
        let s = ClusterSpec::small(); // 6 nodes
        for g in 0..18 {
            let r = node_group(s.nodes, g, 18);
            assert_eq!(r.len(), 1);
            assert!(r.start < s.nodes);
        }
    }

    #[test]
    fn rack_local_groups_detected() {
        let m = ClusterSpec::medium(); // 64 nodes, 6 racks => 11 per rack
                                       // 8 groups of 8 nodes: group 0 = nodes 0..8 all in rack 0.
        let g0 = node_group(m.nodes, 0, 8);
        assert_eq!(m.rack_of(g0.start), m.rack_of(g0.end - 1));
        // 2 groups of 32 span racks.
        let h = node_group(m.nodes, 0, 2);
        assert_ne!(m.rack_of(h.start), m.rack_of(h.end - 1));
    }

    #[test]
    fn slots_per_node_at_least_one() {
        let l = ClusterSpec::large(256);
        assert!(l.map_slots_per_node() >= 1);
        assert!(l.reduce_slots_per_node() >= 1);
    }
}
