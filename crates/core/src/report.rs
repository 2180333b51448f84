//! Run reports: everything the paper's evaluation section reads off a run.

use pic_simnet::traffic::TrafficSnapshot;

/// One point of an error-vs-time trajectory (paper Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryPoint {
    /// Simulated seconds since the run started.
    pub t_s: f64,
    /// Application-specific error metric at that instant.
    pub error: f64,
}

/// Per-iteration time and traffic delta.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStats {
    /// Simulated seconds this iteration took.
    pub time_s: f64,
    /// Traffic generated by this iteration alone.
    pub traffic: TrafficSnapshot,
}

/// Result of a conventional IC run ([`crate::driver::run_ic`]).
#[derive(Debug, Clone)]
pub struct IcReport<M> {
    /// The converged (or iteration-capped) model.
    pub final_model: M,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the convergence criterion was met (vs. hitting the cap).
    pub converged: bool,
    /// Simulated seconds for the whole run.
    pub total_time_s: f64,
    /// Traffic generated by the whole run.
    pub traffic: TrafficSnapshot,
    /// Per-iteration breakdown.
    pub per_iteration: Vec<IterationStats>,
    /// Error-vs-time trajectory (empty if the app defines no error metric).
    pub trajectory: Vec<TrajectoryPoint>,
}

/// Result of a PIC run ([`crate::driver::run_pic`]): best-effort phase
/// followed by top-off phase.
#[derive(Debug, Clone)]
pub struct PicReport<M> {
    /// The final model after top-off.
    pub final_model: M,
    /// The model the best-effort phase handed to top-off (what the
    /// paper's Table III evaluates with the Jagota index).
    pub be_model: M,
    /// Best-effort iterations executed.
    pub be_iterations: usize,
    /// `local_iterations[b][p]` = local iterations sub-problem `p` ran in
    /// best-effort iteration `b` (paper Table I's bottom row).
    pub local_iterations: Vec<Vec<usize>>,
    /// Iterations the top-off phase needed.
    pub topoff_iterations: usize,
    /// Whether top-off met the true convergence criterion.
    pub topoff_converged: bool,
    /// Simulated seconds of the best-effort phase (incl. partitioning).
    pub be_time_s: f64,
    /// Simulated seconds of the top-off phase.
    pub topoff_time_s: f64,
    /// Total simulated seconds.
    pub total_time_s: f64,
    /// Traffic generated by the best-effort phase.
    pub be_traffic: TrafficSnapshot,
    /// Traffic generated by the top-off phase.
    pub topoff_traffic: TrafficSnapshot,
    /// Error-vs-time across both phases.
    pub trajectory: Vec<TrajectoryPoint>,
    /// App error metric of the model the best-effort phase handed over
    /// (paper §VI compares this to the IC result, e.g. via Jagota index).
    pub be_final_error: Option<f64>,
    /// Sub-model results discarded by quorum merges (see
    /// [`crate::driver::PicOptions::merge_quorum`]); zero when the quorum
    /// is 1.0.
    pub straggler_drops: usize,
}

impl<M> PicReport<M> {
    /// Combined traffic of both phases.
    pub fn traffic(&self) -> TrafficSnapshot {
        self.be_traffic.plus(&self.topoff_traffic)
    }

    /// Maximum local-iteration count per best-effort iteration — the
    /// "(Max) number of Local Iterations" row of the paper's Table I.
    pub fn max_local_iterations(&self) -> Vec<usize> {
        self.local_iterations
            .iter()
            .map(|per_part| per_part.iter().copied().max().unwrap_or(0))
            .collect()
    }

    /// Total local iterations across all sub-problems and BE iterations.
    pub fn total_local_iterations(&self) -> usize {
        self.local_iterations.iter().flatten().sum()
    }
}

/// Speedup of PIC over a baseline time (paper Figs. 9–11).
pub fn speedup(baseline_s: f64, pic_s: f64) -> f64 {
    assert!(pic_s > 0.0, "PIC time must be positive");
    baseline_s / pic_s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> TrafficSnapshot {
        TrafficSnapshot::default()
    }

    #[test]
    fn pic_report_derived_stats() {
        let r = PicReport {
            final_model: (),
            be_model: (),
            be_iterations: 3,
            local_iterations: vec![vec![34, 30, 28], vec![3, 2, 3], vec![2, 2, 2]],
            topoff_iterations: 5,
            topoff_converged: true,
            be_time_s: 10.0,
            topoff_time_s: 5.0,
            total_time_s: 15.0,
            be_traffic: snap(),
            topoff_traffic: snap(),
            trajectory: vec![],
            be_final_error: None,
            straggler_drops: 0,
        };
        assert_eq!(r.max_local_iterations(), vec![34, 3, 2]);
        assert_eq!(r.total_local_iterations(), 106);
    }

    #[test]
    fn speedup_computes() {
        assert!((speedup(30.0, 10.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_pic_time_panics() {
        speedup(1.0, 0.0);
    }
}
