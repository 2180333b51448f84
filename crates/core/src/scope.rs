//! Execution scope handed to an app's `iterate` step.

use pic_mapreduce::{JobConfig, Timing};
use pic_simnet::topology::NodeId;

/// Where and how one iteration's MapReduce jobs run.
///
/// The same [`crate::app::IterativeApp::iterate`] code serves three roles:
/// the IC baseline (whole cluster), a PIC local iteration (confined to a
/// sub-problem's node group — this is the paper's point that "the original
/// implementation is fully re-used to solve the sub-problems"), and the
/// top-off phase (whole cluster again). The scope carries the difference.
#[derive(Debug, Clone)]
pub struct IterScope {
    /// Node group the iteration's jobs are confined to.
    pub group: std::ops::Range<NodeId>,
    /// Task-duration model for this run.
    pub timing: Timing,
    /// 1-based iteration number within the current phase.
    pub iteration: usize,
    /// Phase label for job names ("ic", "be", "topoff").
    pub phase: &'static str,
    /// Reduce-task count hint for the app's jobs.
    pub reducers: usize,
}

impl IterScope {
    /// Scope for a whole-cluster run.
    pub fn cluster(nodes: usize, timing: Timing, reducers: usize) -> Self {
        IterScope {
            group: 0..nodes,
            timing,
            iteration: 1,
            phase: "ic",
            reducers,
        }
    }

    /// A [`JobConfig`] pre-filled with this scope's group, timing and a
    /// name of the form `<phase>-it<N>-<suffix>`.
    pub fn job(&self, suffix: &str) -> JobConfig {
        JobConfig::new(format!("{}-it{}-{}", self.phase, self.iteration, suffix))
            .on_group(self.group.clone())
            .timing(self.timing.clone())
            .reducers(self.reducers)
    }

    /// Derive the scope for the next iteration.
    pub(crate) fn next_iteration(&self) -> Self {
        let mut s = self.clone();
        s.iteration += 1;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_carries_scope() {
        let s = IterScope {
            group: 2..5,
            timing: Timing::default_analytic(),
            iteration: 3,
            phase: "be",
            reducers: 7,
        };
        let cfg = s.job("agg");
        assert_eq!(cfg.name, "be-it3-agg");
        assert_eq!(cfg.node_group, Some(2..5));
        assert_eq!(cfg.reducers, 7);
        assert_eq!(cfg.timing, Timing::default_analytic());
    }

    #[test]
    fn next_iteration_increments() {
        let s = IterScope::cluster(6, Timing::default_analytic(), 4);
        let n = s.next_iteration();
        assert_eq!(n.iteration, 2);
        assert_eq!(n.group, 0..6);
    }
}
