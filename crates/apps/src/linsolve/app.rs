//! The linear-solver [`IterativeApp`] / [`PicApp`] implementation.

use super::system::{jacobi_row, Row};
use pic_core::convergence::max_abs_diff;
use pic_core::prelude::*;
use pic_mapreduce::{Dataset, Engine, MapContext, Mapper, ReduceContext, Reducer};

/// Jacobi mapper: one row per record, emits `(i, x_i')` against the
/// mapper's frozen copy of `x`.
struct JacobiMapper<'a> {
    x: &'a [f64],
}

impl Mapper for JacobiMapper<'_> {
    type In = Row;
    type K = u32;
    type V = f64;

    fn map(&self, row: &Row, ctx: &mut MapContext<u32, f64>) {
        ctx.emit(row.i, jacobi_row(row, self.x));
    }
}

/// Identity reducer: each unknown has exactly one update.
struct IdentityReducer;

impl Reducer for IdentityReducer {
    type K = u32;
    type V = f64;
    type Out = (u32, f64);

    fn reduce(&self, key: &u32, values: &[f64], ctx: &mut ReduceContext<(u32, f64)>) {
        debug_assert_eq!(values.len(), 1, "one Jacobi update per unknown");
        ctx.emit((*key, values[0]));
    }
}

/// Jacobi solver for `A x = b`; the model is the solution vector `x`.
pub struct LinSolveApp {
    /// Number of unknowns.
    pub n: usize,
    /// Convergence threshold on the largest component change.
    pub threshold: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Exact solution for the error metric (`None` disables it).
    pub exact: Option<Vec<f64>>,
    /// Per-partition contiguous row ranges, fixed at construction (block
    /// Jacobi structure).
    parts: usize,
}

impl LinSolveApp {
    /// A solver for `n` unknowns split into `parts` row blocks.
    pub fn new(n: usize, parts: usize, threshold: f64) -> Self {
        assert!(parts > 0 && parts <= n, "need 1..=n partitions");
        LinSolveApp {
            n,
            threshold,
            max_iterations: 500,
            exact: None,
            parts,
        }
    }

    /// Attach the golden solution for error trajectories.
    pub fn with_exact(mut self, exact: Vec<f64>) -> Self {
        assert_eq!(exact.len(), self.n, "solution length mismatch");
        self.exact = Some(exact);
        self
    }

    /// Row range owned by partition `p` (contiguous block split).
    pub fn block_range(&self, p: usize) -> std::ops::Range<usize> {
        let base = self.n / self.parts;
        let rem = self.n % self.parts;
        let start = p * base + p.min(rem);
        let len = base + usize::from(p < rem);
        start..start + len
    }
}

impl IterativeApp for LinSolveApp {
    type Record = Row;
    type Model = Vec<f64>;

    fn name(&self) -> &str {
        "linsolve"
    }

    fn iterate(
        &self,
        engine: &Engine,
        data: &Dataset<Row>,
        model: &Vec<f64>,
        scope: &IterScope,
    ) -> Vec<f64> {
        let res = engine.run(
            &scope.job("jacobi"),
            data,
            &JacobiMapper { x: model },
            &IdentityReducer,
        );
        let mut next = model.clone();
        for (i, v) in res.output {
            next[i as usize] = v;
        }
        next
    }

    fn converged(&self, prev: &Vec<f64>, next: &Vec<f64>) -> bool {
        max_abs_diff(prev, next) < self.threshold
    }

    fn error(&self, model: &Vec<f64>) -> Option<f64> {
        self.exact
            .as_ref()
            .map(|e| pic_core::convergence::l2_distance(model, e))
    }

    fn max_iterations(&self) -> usize {
        self.max_iterations
    }
}

impl PicApp for LinSolveApp {
    fn partition_data(&self, data: &Dataset<Row>, parts: usize) -> Vec<Vec<Row>> {
        assert_eq!(
            parts, self.parts,
            "PicOptions.partitions must match the app"
        );
        // Rows grouped by their owning block, in order.
        let mut out: Vec<Vec<Row>> = (0..parts).map(|_| Vec::new()).collect();
        for row in data.iter_records() {
            let p = (0..parts)
                .find(|&p| self.block_range(p).contains(&(row.i as usize)))
                .expect("row index within n");
            out[p].push(row.clone());
        }
        out
    }

    fn split_model(&self, model: &Vec<f64>, parts: usize) -> Vec<Vec<f64>> {
        assert_eq!(parts, self.parts, "partition count mismatch");
        // Each sub-problem needs the *full* vector: its own block to
        // iterate, the rest as frozen boundary values.
        vec![model.clone(); parts]
    }

    fn merge(&self, subs: &[Vec<f64>], _prev: &Vec<f64>) -> Vec<f64> {
        // Disjoint-block merge: piece the owned blocks back together.
        let mut out = vec![0.0; self.n];
        for (p, sub) in subs.iter().enumerate() {
            let range = self.block_range(p);
            out[range.clone()].copy_from_slice(&sub[range]);
        }
        out
    }

    fn max_be_iterations(&self) -> usize {
        // Best-effort rounds are cheap (local sweeps are in-memory), and a
        // weakly dominant system needs many of them: the additive-Schwarz
        // outer iteration contracts at the cross-block coupling rate, not
        // the (fast) within-block rate. Capping low would push the work
        // into far more expensive top-off iterations.
        400
    }

    fn solve_local(
        &self,
        part: usize,
        records: &[Row],
        model: &Vec<f64>,
        cap: usize,
    ) -> (Vec<f64>, usize) {
        // Block relaxation: synchronous Jacobi sweeps over this block's
        // rows only; off-block unknowns stay frozen at the best-effort
        // iteration's starting values.
        let range = self.block_range(part);
        let mut x = model.clone();
        for it in 1..=cap {
            let mut max_change = 0.0f64;
            let updates: Vec<f64> = records.iter().map(|r| jacobi_row(r, &x)).collect();
            for (r, v) in records.iter().zip(updates) {
                let i = r.i as usize;
                debug_assert!(range.contains(&i));
                max_change = max_change.max((x[i] - v).abs());
                x[i] = v;
            }
            if max_change < self.threshold {
                return (x, it);
            }
        }
        (x, cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linsolve::system::diag_dominant_system;
    use pic_simnet::ClusterSpec;

    fn setup(n: usize, parts: usize) -> (LinSolveApp, super::super::system::LinSystem) {
        let sys = diag_dominant_system(n, 0.3, 17);
        let app = LinSolveApp::new(n, parts, 1e-9).with_exact(sys.exact.clone());
        (app, sys)
    }

    #[test]
    fn mr_iteration_equals_sequential_sweep() {
        let (app, sys) = setup(60, 4);
        let engine = Engine::new(ClusterSpec::small());
        let data = Dataset::create(&engine, "/ls/eq", sys.rows.clone(), 6);
        let scope = IterScope::cluster(6, pic_mapreduce::Timing::default_analytic());
        let x0 = vec![0.0; 60];
        let via_mr = app.iterate(&engine, &data, &x0, &scope);
        let via_seq = sys.jacobi_sweep(&x0);
        for (a, b) in via_mr.iter().zip(&via_seq) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn ic_solves_to_golden_solution() {
        let (app, sys) = setup(80, 4);
        let engine = Engine::new(ClusterSpec::small());
        let data = Dataset::create(&engine, "/ls/ic", sys.rows.clone(), 6);
        let r = run_ic(&engine, &app, &data, vec![0.0; 80], &IcOptions::default());
        assert!(r.converged);
        assert!(
            sys.error(&r.final_model) < 1e-6,
            "err {}",
            sys.error(&r.final_model)
        );
    }

    #[test]
    fn pic_solves_to_the_same_unique_solution() {
        // This is the app where PIC's convergence is provable (additive
        // Schwarz on a contraction): final answers must agree.
        let (app, sys) = setup(100, 5);
        let engine = Engine::new(ClusterSpec::small());
        let data = Dataset::create(&engine, "/ls/pic", sys.rows.clone(), 6);
        let r = run_pic(
            &engine,
            &app,
            &data,
            vec![0.0; 100],
            &PicOptions {
                partitions: 5,
                ..Default::default()
            },
        );
        assert!(r.topoff_converged);
        assert!(
            sys.error(&r.final_model) < 1e-6,
            "err {}",
            sys.error(&r.final_model)
        );
        assert!(r.be_final_error.expect("metric") < 1.0);
    }

    #[test]
    fn block_ranges_partition_the_unknowns() {
        let app = LinSolveApp::new(103, 7, 1e-9);
        let mut next = 0;
        for p in 0..7 {
            let r = app.block_range(p);
            assert_eq!(r.start, next);
            next = r.end;
        }
        assert_eq!(next, 103);
    }

    #[test]
    fn merge_concatenates_owned_blocks() {
        let app = LinSolveApp::new(6, 2, 1e-9);
        let sub0 = vec![1.0, 2.0, 3.0, -1.0, -1.0, -1.0];
        let sub1 = vec![-2.0, -2.0, -2.0, 4.0, 5.0, 6.0];
        let merged = app.merge(&[sub0, sub1], &vec![0.0; 6]);
        assert_eq!(merged, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn local_solve_touches_only_its_block() {
        let (app, sys) = setup(40, 4);
        let engine = Engine::new(ClusterSpec::small());
        let data = Dataset::create(&engine, "/ls/loc", sys.rows.clone(), 4);
        let parts = app.partition_data(&data, 4);
        let x0 = vec![0.25; 40];
        let (x, iters) = app.solve_local(1, &parts[1], &x0, 100);
        assert!(iters >= 1);
        let range = app.block_range(1);
        for (i, xi) in x.iter().enumerate() {
            if range.contains(&i) {
                continue;
            }
            assert_eq!(*xi, 0.25, "off-block unknown {i} must stay frozen");
        }
    }

    #[test]
    fn be_phase_error_decreases_with_iterations() {
        let (app, sys) = setup(60, 3);
        let engine = Engine::new(ClusterSpec::small());
        let data = Dataset::create(&engine, "/ls/traj", sys.rows.clone(), 6);
        let r = run_pic(
            &engine,
            &app,
            &data,
            vec![0.0; 60],
            &PicOptions {
                partitions: 3,
                ..Default::default()
            },
        );
        // Trajectory from the golden-solution metric must be decreasing
        // (contraction), modulo the final few stagnant points.
        let t = &r.trajectory;
        assert!(t.len() >= 3);
        assert!(t.last().unwrap().err <= t[0].err);
    }
}
