//! The neural-network training [`IterativeApp`] / [`PicApp`]
//! implementation.

use super::data::Sample;
use super::mlp::Mlp;
use super::mr::{GradCombiner, GradMapper, GradReducer};
use pic_core::prelude::*;
use pic_mapreduce::{Dataset, Engine};

/// Back-propagation training of a one-hidden-layer MLP by full-batch
/// gradient descent.
pub struct NeuralNetApp {
    /// Learning rate.
    pub lr: f64,
    /// Epoch budget of the conventional run. Gradient-descent training
    /// never hits a crisp fixed point (the loss keeps creeping down), so —
    /// as in practice, and as the paper's Fig. 12(a) time-axis comparison
    /// implies — training is budgeted in epochs and compared by
    /// error-vs-time.
    pub max_iterations: usize,
    /// Epoch budget of the top-off phase: a short fine-tune, because the
    /// merged best-effort model has already plateaued.
    pub topoff_epochs: usize,
    /// Cap on local gradient steps per best-effort iteration.
    pub local_cap: usize,
    /// Cap on best-effort iterations.
    pub be_cap: usize,
    /// Relative shard-loss improvement below which a local solve stops
    /// (small enough to ride out the sigmoid's early plateau dip).
    pub local_rel_threshold: f64,
    /// Absolute validation-loss improvement below which best-effort
    /// iterations stop.
    pub be_loss_threshold: f64,
    /// Held-out validation set for the misclassification error metric.
    pub validation: Vec<Sample>,
    /// Seed for the random data partitioner.
    pub partition_seed: u64,
}

impl NeuralNetApp {
    /// A trainer with the given validation set and sensible defaults.
    pub fn new(validation: Vec<Sample>) -> Self {
        NeuralNetApp {
            lr: 1.0,
            max_iterations: 60,
            topoff_epochs: 10,
            local_cap: 60,
            be_cap: 8,
            local_rel_threshold: 1e-4,
            be_loss_threshold: 2e-3,
            validation,
            partition_seed: 0xbeef,
        }
    }
}

impl IterativeApp for NeuralNetApp {
    type Record = Sample;
    type Model = Mlp;

    fn name(&self) -> &str {
        "neuralnet"
    }

    fn iterate(
        &self,
        engine: &Engine,
        data: &Dataset<Sample>,
        model: &Mlp,
        scope: &IterScope,
    ) -> Mlp {
        let res = engine.run_with_combiner(
            &scope.job("grad"),
            data,
            &GradMapper { model },
            &GradCombiner,
            &GradReducer,
        );
        let (grad, count) = res
            .output
            .into_iter()
            .next()
            .expect("single-key gradient job emits exactly one record");
        model.apply_gradient(&grad, count, self.lr)
    }

    fn converged(&self, _prev: &Mlp, _next: &Mlp) -> bool {
        // Epoch-budget training: the driver's iteration cap terminates the
        // run (gradient descent has no crisp fixed point to test for).
        false
    }

    fn error(&self, model: &Mlp) -> Option<f64> {
        Some(model.misclassification_rate(&self.validation))
    }

    fn max_iterations(&self) -> usize {
        self.max_iterations
    }
}

impl PicApp for NeuralNetApp {
    fn partition_data(&self, data: &Dataset<Sample>, parts: usize) -> Vec<Vec<Sample>> {
        partition::random(data.iter_records().cloned(), parts, self.partition_seed)
    }

    fn split_model(&self, model: &Mlp, parts: usize) -> Vec<Mlp> {
        vec![model.clone(); parts]
    }

    fn merge(&self, subs: &[Mlp], _prev: &Mlp) -> Mlp {
        // Model averaging: sub-networks started from the same weights, so
        // corresponding parameters are aligned and their average is
        // meaningful (the paper's vector-average default merge).
        let params: Vec<Vec<f64>> = subs.iter().map(|s| s.params.clone()).collect();
        Mlp {
            params: merge::average(&params),
            ..subs[0]
        }
    }

    fn solve_local(
        &self,
        _part: usize,
        records: &[Sample],
        model: &Mlp,
        cap: usize,
    ) -> (Mlp, usize) {
        if records.is_empty() {
            return (model.clone(), 0);
        }
        // Plateau criterion on this sub-problem's own shard loss; the
        // relative threshold is small enough to ride out the sigmoid's
        // early plateau dip. Each pass returns the loss of the model whose
        // gradient it sums, so a step costs one pass over the shard; the
        // gradient of the model a solve returns goes unused.
        let mut m = model.clone();
        let (mut grad, mut buf) = (vec![0.0; m.params.len()], m.buffers());
        let count = records.len() as u64;
        let mut prev_loss = m.batch_gradient_and_loss(records, &mut grad, &mut buf);
        for it in 1..=cap {
            m = m.apply_gradient(&grad, count, self.lr);
            let loss = m.batch_gradient_and_loss(records, &mut grad, &mut buf);
            if (prev_loss - loss) / prev_loss.max(1e-12) < self.local_rel_threshold {
                return (m, it);
            }
            prev_loss = loss;
        }
        (m, cap)
    }

    fn local_iteration_cap(&self) -> usize {
        self.local_cap
    }

    fn max_be_iterations(&self) -> usize {
        self.be_cap
    }

    fn max_topoff_iterations(&self) -> usize {
        self.topoff_epochs
    }

    fn be_converged(&self, prev: &Mlp, next: &Mlp) -> bool {
        if self.validation.is_empty() {
            return false;
        }
        prev.loss(&self.validation) - next.loss(&self.validation) < self.be_loss_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_simnet::ClusterSpec;

    fn setup() -> (Vec<Sample>, Vec<Sample>, Mlp) {
        let (train, valid) = crate::neuralnet::data::ocr_like_split(300, 90, 3, 8, 0.08, 21);
        let model = Mlp::random(8, 6, 3, 5);
        (train, valid, model)
    }

    #[test]
    fn mr_iteration_equals_sequential_step() {
        let (train, valid, model) = setup();
        let engine = Engine::new(ClusterSpec::small());
        let data = Dataset::create(&engine, "/nn/eq", train.clone(), 4);
        let app = NeuralNetApp::new(valid);
        let scope = IterScope::cluster(6, pic_mapreduce::Timing::default_analytic());
        let via_mr = app.iterate(&engine, &data, &model, &scope);
        let mut grad = vec![0.0; model.params.len()];
        model.batch_gradient_and_loss(&train, &mut grad, &mut model.buffers());
        let via_seq = model.apply_gradient(&grad, train.len() as u64, app.lr);
        for (a, b) in via_mr.params.iter().zip(&via_seq.params) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn ic_training_reduces_validation_error() {
        let (train, valid, model) = setup();
        let engine = Engine::new(ClusterSpec::small());
        let data = Dataset::create(&engine, "/nn/ic", train, 4);
        let app = NeuralNetApp::new(valid.clone());
        let before = model.misclassification_rate(&valid);
        let r = run_ic(
            &engine,
            &app,
            &data,
            model,
            &IcOptions {
                max_iterations: Some(40),
                ..Default::default()
            },
        );
        let after = r.final_model.misclassification_rate(&valid);
        assert!(after < before, "error should drop: {before} -> {after}");
        assert!(after < 0.2, "validation error {after}");
    }

    #[test]
    fn pic_training_reaches_comparable_error() {
        let (train, valid, model) = setup();
        let engine = Engine::new(ClusterSpec::small());
        let data = Dataset::create(&engine, "/nn/pic", train, 4);
        let app = NeuralNetApp::new(valid.clone());
        let r = run_pic(
            &engine,
            &app,
            &data,
            model,
            &PicOptions {
                partitions: 3,
                ..Default::default()
            },
        );
        let err = r.final_model.misclassification_rate(&valid);
        assert!(
            err < 0.2,
            "PIC-trained net should classify well (err {err})"
        );
        // BE phase alone should already be close (paper Fig. 12(a):
        // "virtually identical ... in less than a quarter of the time").
        let be_err = r.be_final_error.expect("validation metric present");
        assert!(be_err < 0.35, "best-effort error {be_err}");
    }

    #[test]
    fn merge_averages_parameters() {
        let app = NeuralNetApp::new(vec![]);
        let a = Mlp {
            din: 1,
            dh: 1,
            dout: 2,
            params: vec![0.0, 2.0, 4.0, 0.0, 0.0, 0.0],
        };
        let b = Mlp {
            din: 1,
            dh: 1,
            dout: 2,
            params: vec![2.0, 0.0, 0.0, 2.0, 2.0, 2.0],
        };
        let m = app.merge(&[a, b], &Mlp::random(1, 1, 2, 0));
        assert_eq!(m.params, vec![1.0, 1.0, 2.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn solve_local_runs_and_improves() {
        let (train, valid, model) = setup();
        let app = NeuralNetApp::new(valid);
        let (m, iters) = app.solve_local(0, &train[..100], &model, 30);
        assert!((1..=30).contains(&iters));
        assert!(m.loss(&train[..100]) < model.loss(&train[..100]));
    }

    #[test]
    fn solve_local_honours_a_cap_above_the_default() {
        let (train, valid, model) = setup();
        let mut app = NeuralNetApp::new(valid);
        app.local_rel_threshold = f64::NEG_INFINITY;
        assert!(app.local_iteration_cap() < 80);
        let (_, iters) = app.solve_local(0, &train, &model, 80);
        assert_eq!(iters, 80, "the driver's cap is the cap");
    }

    #[test]
    fn empty_partition_is_a_noop() {
        let app = NeuralNetApp::new(vec![]);
        let model = Mlp::random(4, 3, 2, 0);
        let (m, iters) = app.solve_local(0, &[], &model, 10);
        assert_eq!(iters, 0);
        assert_eq!(m, model);
    }
}
