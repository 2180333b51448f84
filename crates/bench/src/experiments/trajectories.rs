//! Figure 12: accuracy-vs-time trajectories for (a) neural-network
//! training, (b) K-means clustering and (c) the linear solver.

use super::common::{compare, cost, Comparison};
use super::ExperimentCtx;
use crate::table::Table;
use pic_apps::kmeans::{gaussian_mixture, init_random_centroids, Centroids, KMeansApp};
use pic_apps::linsolve::{diag_dominant_system, LinSolveApp};
use pic_apps::neuralnet::{ocr_like_split, Mlp, NeuralNetApp};
use pic_simnet::{ClusterSpec, QualityPoint};

/// Render two trajectories side by side as `(time, error)` rows.
fn render_trajectories(
    title: &str,
    ic: &[QualityPoint],
    pic: &[QualityPoint],
    expectation: &str,
) -> String {
    let mut t = Table::new(["series", "t (s)", "error"]);
    // Long runs produce hundreds of points; subsample for readability but
    // always keep the last point of each series.
    let add = |t: &mut Table, name: &str, series: &[QualityPoint]| {
        let step = series.len().div_ceil(30).max(1);
        for (i, p) in series.iter().enumerate() {
            if i % step == 0 || i + 1 == series.len() {
                t.row([name, &format!("{:.1}", p.t_s), &format!("{:.6}", p.err)]);
            }
        }
    };
    add(&mut t, "IC", ic);
    add(&mut t, "PIC", pic);
    format!("{title}\n\n{}\n{expectation}\n", t.render())
}

/// Shared shape checks on a pair of trajectories; returns a summary line.
pub fn trajectory_summary<M>(cmp: &Comparison<M>) -> String {
    let ic_final = cmp.ic.trajectory.last().map(|p| p.err).unwrap_or(f64::NAN);
    let pic_final = cmp.pic.trajectory.last().map(|p| p.err).unwrap_or(f64::NAN);
    let ic_t = cmp.ic.total_time_s;
    let be_t = cmp.pic.be_time_s;
    format!(
        "IC reaches error {ic_final:.6} at t={ic_t:.1}s; PIC's best-effort phase \
         ends at t={be_t:.1}s ({:.0}% of IC time) and PIC finishes at error \
         {pic_final:.6}.",
        100.0 * be_t / ic_t
    )
}

/// Figure 12(a): neural-network training, validation misclassification
/// vs time.
pub fn fig12a(ctx: &ExperimentCtx) -> String {
    let n = ctx.n(10_000, 500);
    let (train, valid) = ocr_like_split(n, n / 10, 10, 64, 0.2, 71);
    let app = NeuralNetApp::new(valid);
    let init = Mlp::random(64, 32, 10, 19);
    let cmp = compare(
        &ClusterSpec::small(),
        &app,
        train,
        init,
        24,
        24,
        cost::neuralnet(),
    );
    let summary = trajectory_summary(&cmp);
    render_trajectories(
        &format!(
            "Figure 12(a) — neural network training: validation error vs time \
             ({n} training vectors; paper used ~210k)"
        ),
        &cmp.ic.trajectory,
        &cmp.pic.trajectory,
        &format!(
            "{summary}\npaper expectation: PIC reaches an error virtually \
             identical to the baseline's final error in less than a quarter of \
             the time."
        ),
    )
}

/// Figure 12(b): K-means, distance of centroids to the sequential
/// reference solution vs time.
pub fn fig12b(ctx: &ExperimentCtx) -> String {
    let n = ctx.n(100_000, 2_000);
    let k = 100;
    let dim = 3;
    let base = KMeansApp::new(k, dim, 1.0);
    let pts = gaussian_mixture(n, k, dim, 1000.0, 40.0, 83);
    let init = Centroids::new(init_random_centroids(k, dim, 1000.0, 29));
    let reference = base.solve_reference(&pts, &init, 300);
    // Quality metric on a 10% evaluation sample: relative SSE excess over
    // the sequential reference (0 = reference-equivalent clustering).
    let sample: Vec<_> = pts.iter().step_by(10).cloned().collect();
    let app = base.with_eval_sample(sample, &reference);
    let cmp = compare(
        &ClusterSpec::small(),
        &app,
        pts,
        init,
        24,
        24,
        cost::kmeans(),
    );
    let summary = trajectory_summary(&cmp);
    render_trajectories(
        &format!(
            "Figure 12(b) — K-means: clustering error (relative SSE excess \
             over the sequential reference) vs time ({n} points, k={k})"
        ),
        &cmp.ic.trajectory,
        &cmp.pic.trajectory,
        &format!(
            "{summary}\npaper expectation: centroids converge much faster in \
             PIC's best-effort phase than in the baseline."
        ),
    )
}

/// Figure 12(c): linear solver, distance to the golden solution vs time.
pub fn fig12c(_ctx: &ExperimentCtx) -> String {
    let n = 100; // the paper's exact problem size
    let sys = diag_dominant_system(n, 0.05, 91);
    let app = LinSolveApp::new(n, 5, 1e-8).with_exact(sys.exact.clone());
    let cmp = compare(
        &ClusterSpec::small(),
        &app,
        sys.rows.clone(),
        vec![0.0; n],
        5,
        5,
        cost::linsolve(),
    );
    let summary = trajectory_summary(&cmp);
    render_trajectories(
        &format!(
            "Figure 12(c) — linear equation solver: distance to the unique \
             golden solution vs time ({n} variables, weakly diagonally dominant)"
        ),
        &cmp.ic.trajectory,
        &cmp.pic.trajectory,
        &format!(
            "{summary}\npaper expectation: the best-effort phase reaches \
             baseline-comparable quality in about one-third of the time."
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12c_be_phase_is_faster_to_quality() {
        let sys = diag_dominant_system(100, 0.05, 91);
        let app = LinSolveApp::new(100, 5, 1e-8).with_exact(sys.exact.clone());
        let cmp = compare(
            &ClusterSpec::small(),
            &app,
            sys.rows.clone(),
            vec![0.0; 100],
            5,
            5,
            cost::linsolve(),
        );
        // BE phase must end well before the IC baseline does.
        assert!(
            cmp.pic.be_time_s < 0.6 * cmp.ic.total_time_s,
            "be {} vs ic {}",
            cmp.pic.be_time_s,
            cmp.ic.total_time_s
        );
        // And the final answers agree (unique solution).
        assert!(sys.error(&cmp.pic.final_model) < 1e-6);
        assert!(sys.error(&cmp.ic.final_model) < 1e-6);
    }

    #[test]
    fn fig12b_trajectories_decrease() {
        let base = KMeansApp::new(10, 3, 1e-3);
        let pts = gaussian_mixture(3_000, 10, 3, 1000.0, 8.0, 83);
        let init = Centroids::new(init_random_centroids(10, 3, 1000.0, 29));
        let reference = base.solve_reference(&pts, &init, 300);
        let app = base.with_reference(reference);
        let cmp = compare(
            &ClusterSpec::small(),
            &app,
            pts,
            init,
            24,
            12,
            cost::kmeans(),
        );
        for traj in [&cmp.ic.trajectory, &cmp.pic.trajectory] {
            assert!(traj.len() >= 2);
            assert!(
                traj.last().unwrap().err <= traj.first().unwrap().err,
                "error should decrease overall"
            );
        }
    }
}
