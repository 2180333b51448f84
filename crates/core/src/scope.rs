//! Execution scope handed to an app's `iterate` step.

use pic_mapreduce::{JobConfig, Timing};
use pic_simnet::topology::NodeId;
use std::any::Any;
use std::sync::{Arc, Mutex};

/// Where and how one iteration's MapReduce jobs run.
///
/// The same [`crate::app::IterativeApp::iterate`] code serves two roles:
/// the IC baseline and the PIC top-off phase, both on the whole cluster
/// until an elastic resize changes the group. The scope carries the
/// difference. PIC local iterations do not go through `iterate`; they run
/// in memory in [`crate::app::PicApp::solve_local`].
///
/// A scope of [`crate::run_ic`] also carries the run's [`Memo`]; a scope
/// built any other way (such as [`IterScope::cluster`]) has none.
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
    /// The run's memo slot; only [`crate::run_ic`] arms one.
    pub(crate) memo: Option<Memo>,
}

/// Host-side state an app carries from one iteration of a run to the
/// next — the loop-aware caching of iterative MapReduce (Rosen et al.),
/// kept off the simulation: nothing in it is charged, shipped or traced.
///
/// [`crate::run_ic`] arms a fresh slot for each call, shares it across
/// that call's iterations and drops it when it returns. The call holds
/// its input dataset for the whole run, so what an app derives from the
/// records can never outlive them or meet other records.
#[derive(Clone, Default)]
pub struct Memo(Arc<Mutex<Option<Box<dyn Any + Send>>>>);

impl Memo {
    /// Take what the run's previous iteration left, if it is a `T` (a
    /// value of another type is dropped).
    pub fn take<T: Any + Send>(&self) -> Option<T> {
        let held = self.slot().take()?;
        held.downcast().ok().map(|value| *value)
    }

    /// Leave `value` for the run's next iteration.
    pub fn put<T: Any + Send>(&self, value: T) {
        *self.slot() = Some(Box::new(value));
    }

    fn slot(&self) -> std::sync::MutexGuard<'_, Option<Box<dyn Any + Send>>> {
        self.0
            .lock()
            .expect("an iteration panicked holding the memo")
    }
}

impl std::fmt::Debug for Memo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Memo")
    }
}

impl IterScope {
    /// Scope for a whole-cluster run.
    pub fn cluster(nodes: usize, timing: Timing) -> Self {
        IterScope {
            group: 0..nodes,
            timing,
            iteration: 1,
            phase: "ic",
            memo: None,
        }
    }

    /// The run's memo slot, or `None` when the iteration is to map
    /// statelessly.
    pub fn memo(&self) -> Option<&Memo> {
        self.memo.as_ref()
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
            memo: None,
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
        assert!(n.memo().is_none(), "a whole-cluster scope maps statelessly");
    }

    #[test]
    fn a_memo_is_shared_by_the_iterations_of_its_scope() {
        let s = IterScope {
            memo: Some(Memo::default()),
            ..IterScope::cluster(2, Timing::default_analytic())
        };
        s.memo().unwrap().put(7u32);
        let n = s.next_iteration();
        assert_eq!(n.memo().unwrap().take::<u32>(), Some(7));
        assert_eq!(s.memo().unwrap().take::<u32>(), None, "taken");
        n.memo().unwrap().put(7u32);
        assert_eq!(s.memo().unwrap().take::<u64>(), None, "another type");
        assert_eq!(s.memo().unwrap().take::<u32>(), None, "dropped");
    }
}
