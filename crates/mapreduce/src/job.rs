//! Job configuration.

use pic_simnet::topology::NodeId;

/// Analytic per-record costs from which simulated task durations are
/// derived. There is one time model: simulated seconds never depend on the
/// host the simulation runs on.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Simulated seconds of map compute per input record.
    pub map_secs: f64,
    /// Simulated seconds of reduce compute per input value.
    pub reduce_secs: f64,
}

impl Timing {
    /// Deterministic timing with costs typical of a lightweight record op
    /// on 2012 hardware (a few microseconds).
    pub fn default_analytic() -> Self {
        Timing {
            map_secs: 5e-6,
            reduce_secs: 2e-6,
        }
    }
}

impl Default for Timing {
    fn default() -> Self {
        Timing::default_analytic()
    }
}

/// Configuration for one MapReduce job.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Job name (the job's trace span is `job:<name>`).
    pub name: String,
    /// Number of reduce tasks. Must be ≥ 1.
    pub reducers: usize,
    /// Restrict execution to this contiguous node group (`None` = whole
    /// cluster); shuffle traffic is then charged only within the group.
    /// IC and top-off jobs get the driver's active group (the whole
    /// cluster until an elastic resize). PIC's local iterations run no
    /// jobs: they run in memory in `PicApp::solve_local`.
    pub node_group: Option<std::ops::Range<NodeId>>,
    /// Task-duration model.
    pub timing: Timing,
}

impl JobConfig {
    /// A job with `name`, one reducer, whole-cluster execution and
    /// [`Timing::default_analytic`] timing. No per-job startup overhead is
    /// charged: the paper's baseline subtracts repeated job-creation cost
    /// (§V.A), so iterative drivers charge it once per run.
    pub fn new(name: impl Into<String>) -> Self {
        JobConfig {
            name: name.into(),
            reducers: 1,
            node_group: None,
            timing: Timing::default(),
        }
    }

    /// Set the reduce task count.
    pub fn reducers(mut self, n: usize) -> Self {
        assert!(n > 0, "jobs need at least one reducer");
        self.reducers = n;
        self
    }

    /// Confine the job to a node group.
    pub fn on_group(mut self, group: std::ops::Range<NodeId>) -> Self {
        self.node_group = Some(group);
        self
    }

    /// Use a specific timing model.
    pub fn timing(mut self, t: Timing) -> Self {
        self.timing = t;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let c = JobConfig::new("j");
        assert_eq!(c.reducers, 1);
        assert!(c.node_group.is_none());
        assert_eq!(c.timing, Timing::default_analytic());
    }

    #[test]
    fn builder_chains() {
        let c = JobConfig::new("j")
            .reducers(4)
            .on_group(2..5)
            .timing(Timing::default_analytic());
        assert_eq!(c.reducers, 4);
        assert_eq!(c.node_group, Some(2..5));
        assert_eq!(c.timing, Timing::default_analytic());
    }

    #[test]
    #[should_panic(expected = "at least one reducer")]
    fn zero_reducers_panics() {
        JobConfig::new("j").reducers(0);
    }
}
