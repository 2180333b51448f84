//! Execution scope handed to an app's `iterate` step.

use pic_mapreduce::{JobConfig, Timing};
use pic_simnet::topology::NodeId;

/// Where and how one iteration's MapReduce jobs run.
///
/// The same [`crate::app::IterativeApp::iterate`] code serves two roles:
/// the IC baseline and the PIC top-off phase, both on the whole cluster
/// until an elastic resize changes the group. The scope carries the
/// difference. PIC local iterations do not go through `iterate`; they run
/// in memory in [`crate::app::PicApp::solve_local`].
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
}

impl IterScope {
    /// Scope for a whole-cluster run.
    pub fn cluster(nodes: usize, timing: Timing) -> Self {
        IterScope {
            group: 0..nodes,
            timing,
            iteration: 1,
            phase: "ic",
        }
    }

    /// A [`JobConfig`] pre-filled with this scope's group, timing, one
    /// reduce task per group node and a name of the form
    /// `<phase>-it<N>-<suffix>`.
    pub fn job(&self, suffix: &str) -> JobConfig {
        JobConfig::new(format!("{}-it{}-{}", self.phase, self.iteration, suffix))
            .on_group(self.group.clone())
            .timing(self.timing.clone())
            .reducers(self.group.len())
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
        };
        let cfg = s.job("agg");
        assert_eq!(cfg.name, "be-it3-agg");
        assert_eq!(cfg.node_group, Some(2..5));
        assert_eq!(cfg.reducers, 3, "one reduce task per group node");
        assert_eq!(cfg.timing, Timing::default_analytic());
    }

    #[test]
    fn next_iteration_increments() {
        let s = IterScope::cluster(6, Timing::default_analytic());
        let n = s.next_iteration();
        assert_eq!(n.iteration, 2);
        assert_eq!(n.group, 0..6);
    }
}
