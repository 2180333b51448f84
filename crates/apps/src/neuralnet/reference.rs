//! The MLP kernel before the allocation-free rewrite, kept verbatim as a
//! test oracle: a forward pass that allocates its outputs, a gradient
//! that allocates a vector per sample, a local solve that runs a second
//! forward pass for its loss, and the map task's fold over returned
//! gradients. The kernel in `mlp.rs` must reproduce every bit of it.

use super::app::NeuralNetApp;
use super::data::Sample;
use super::mlp::Mlp;
use super::mr::GradMapper;
use pic_core::prelude::*;
use pic_mapreduce::{MapContext, Mapper};
use proptest::prelude::*;
use std::ops::Deref;

/// An [`Mlp`] run through the reference kernel.
struct Old<'a>(&'a Mlp);

impl Deref for Old<'_> {
    type Target = Mlp;
    fn deref(&self) -> &Mlp {
        self.0
    }
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

impl Old<'_> {
    fn w1(&self) -> &[f64] {
        &self.params[..self.dh * self.din]
    }
    fn b1(&self) -> &[f64] {
        let o = self.dh * self.din;
        &self.params[o..o + self.dh]
    }
    fn w2(&self) -> &[f64] {
        let o = self.dh * self.din + self.dh;
        &self.params[o..o + self.dout * self.dh]
    }
    fn b2(&self) -> &[f64] {
        let o = self.dh * self.din + self.dh + self.dout * self.dh;
        &self.params[o..]
    }

    fn forward(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(x.len(), self.din, "input dimension mismatch");
        let (w1, b1, w2, b2) = (self.w1(), self.b1(), self.w2(), self.b2());
        let mut h = vec![0.0; self.dh];
        for j in 0..self.dh {
            let mut z = b1[j];
            let row = &w1[j * self.din..(j + 1) * self.din];
            for (w, xi) in row.iter().zip(x) {
                z += w * xi;
            }
            h[j] = sigmoid(z);
        }
        let mut logits = vec![0.0; self.dout];
        for k in 0..self.dout {
            let mut z = b2[k];
            let row = &w2[k * self.dh..(k + 1) * self.dh];
            for (w, hj) in row.iter().zip(&h) {
                z += w * hj;
            }
            logits[k] = z;
        }
        // Stable softmax.
        let mx = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for z in &mut logits {
            *z = (*z - mx).exp();
            sum += *z;
        }
        for z in &mut logits {
            *z /= sum;
        }
        (h, logits)
    }

    fn predict(&self, x: &[f64]) -> u8 {
        let (_, p) = self.forward(x);
        p.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("probabilities are never NaN"))
            .map(|(i, _)| i as u8)
            .expect("dout > 0")
    }

    fn gradient(&self, s: &Sample) -> Vec<f64> {
        let (h, p) = self.forward(&s.x);
        let mut dlogits = p;
        dlogits[s.label as usize] -= 1.0;

        let mut g = vec![0.0; self.params.len()];
        let o_w1 = 0;
        let o_b1 = self.dh * self.din;
        let o_w2 = o_b1 + self.dh;
        let o_b2 = o_w2 + self.dout * self.dh;

        // Output layer.
        for k in 0..self.dout {
            let d = dlogits[k];
            g[o_b2 + k] = d;
            for j in 0..self.dh {
                g[o_w2 + k * self.dh + j] = d * h[j];
            }
        }
        // Hidden layer.
        let w2 = self.w2();
        for j in 0..self.dh {
            let mut dh_j = 0.0;
            for k in 0..self.dout {
                dh_j += w2[k * self.dh + j] * dlogits[k];
            }
            dh_j *= h[j] * (1.0 - h[j]);
            g[o_b1 + j] = dh_j;
            for (i, xi) in s.x.iter().enumerate() {
                g[o_w1 + j * self.din + i] = dh_j * xi;
            }
        }
        g
    }

    fn loss(&self, samples: &[Sample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let total: f64 = samples
            .iter()
            .map(|s| {
                let (_, p) = self.forward(&s.x);
                -(p[s.label as usize].max(1e-300)).ln()
            })
            .sum();
        total / samples.len() as f64
    }

    fn misclassification_rate(&self, samples: &[Sample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let wrong = samples
            .iter()
            .filter(|s| self.predict(&s.x) != s.label)
            .count();
        wrong as f64 / samples.len() as f64
    }
}

/// `NeuralNetApp::batch_gradient`: one returned vector per sample, summed
/// from `+0.0`.
fn batch_gradient(samples: &[Sample], model: &Mlp) -> (Vec<f64>, u64) {
    let model = Old(model);
    let mut sum = vec![0.0; model.params.len()];
    for s in samples {
        for (a, b) in sum.iter_mut().zip(model.gradient(s)) {
            *a += b;
        }
    }
    (sum, samples.len() as u64)
}

/// `NeuralNetApp::solve_local`: a gradient pass and a loss pass per step.
fn solve_local(app: &NeuralNetApp, records: &[Sample], model: &Mlp, cap: usize) -> (Mlp, usize) {
    if records.is_empty() {
        return (model.clone(), 0);
    }
    let mut m = model.clone();
    let mut prev_loss = Old(&m).loss(records);
    for it in 1..=cap {
        let (grad, count) = batch_gradient(records, &m);
        m = m.apply_gradient(&grad, count, app.lr);
        let loss = Old(&m).loss(records);
        if (prev_loss - loss) / prev_loss.max(1e-12) < app.local_rel_threshold {
            return (m, it);
        }
        prev_loss = loss;
    }
    (m, cap)
}

/// `GradMapper::map_combined`'s fold: the last sample's gradient, then
/// the others' added in split order.
fn map_combined_sum(model: &Mlp, samples: &[Sample]) -> Vec<f64> {
    let model = Old(model);
    let (last, rest) = samples.split_last().expect("a non-empty split");
    let mut sum = model.gradient(last);
    for s in rest {
        for (a, b) in sum.iter_mut().zip(&model.gradient(s)) {
            *a += b;
        }
    }
    sum
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// An input coordinate or a weight: often `±0.0` or a small integer.
fn value() -> impl Strategy<Value = f64> {
    (0u8..10, -3i32..4, -2.0f64..2.0).prop_map(|(kind, int, x)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 | 3 => int as f64,
        _ => x,
    })
}

/// A network of every shape with `din ∈ 1..=9`, `dh ∈ 1..=9` and
/// `dout ∈ 1..=11` (so every block size and every tail of the row chains
/// runs), some weights replaced by `±0.0` or small integers, and up to 24
/// samples whose first `dout` labels cover every class.
fn case() -> impl Strategy<Value = (Mlp, Vec<Sample>)> {
    (
        (1usize..10, 1usize..10, 1usize..12, 0usize..25, any::<u64>()),
        proptest::collection::vec(value(), 24 * 9),
        proptest::collection::vec((0usize..4, value()), 9 * 9 + 9 + 11 * 9 + 11),
        proptest::collection::vec(0usize..11, 24),
    )
        .prop_map(|((din, dh, dout, n, seed), xs, edits, labels)| {
            let mut model = Mlp::random(din, dh, dout, seed);
            for (p, (kind, v)) in model.params.iter_mut().zip(edits) {
                if kind == 0 {
                    *p = v;
                }
            }
            let samples = (0..n)
                .map(|i| Sample {
                    x: xs[i * din..(i + 1) * din].to_vec(),
                    label: (if i < dout { i } else { labels[i] % dout }) as u8,
                })
                .collect();
            (model, samples)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_kernel_reproduces_the_reference_bit_for_bit(case in case()) {
        let (model, samples) = case;
        let old = Old(&model);
        for s in &samples {
            let (h, p) = model.forward(&s.x);
            let (old_h, old_p) = old.forward(&s.x);
            prop_assert_eq!(bits(&h), bits(&old_h));
            prop_assert_eq!(bits(&p), bits(&old_p));
            prop_assert_eq!(model.predict(&s.x), old.predict(&s.x));
            prop_assert_eq!(bits(&model.gradient(s)), bits(&old.gradient(s)));
        }
        prop_assert_eq!(model.loss(&samples).to_bits(), old.loss(&samples).to_bits());
        prop_assert_eq!(
            model.misclassification_rate(&samples).to_bits(),
            old.misclassification_rate(&samples).to_bits()
        );

        let mut grad = vec![0.0; model.params.len()];
        let loss = model.batch_gradient_and_loss(&samples, &mut grad, &mut model.buffers());
        prop_assert_eq!(loss.to_bits(), old.loss(&samples).to_bits());
        prop_assert_eq!(bits(&grad), bits(&batch_gradient(&samples, &model).0));

        if !samples.is_empty() {
            let mut ctx = MapContext::new();
            GradMapper { model: &model }.map_combined(&samples, &mut ctx);
            let pairs = ctx.into_parts();
            prop_assert_eq!(pairs.len(), 1);
            let (sum, count) = &pairs[0].1;
            prop_assert_eq!(*count, samples.len() as u64);
            prop_assert_eq!(bits(sum), bits(&map_combined_sum(&model, &samples)));
        }

        // A threshold that fires on some cases and one that never does,
        // so both the early return and the cap are compared.
        for threshold in [1e-4, f64::NEG_INFINITY] {
            let mut app = NeuralNetApp::new(vec![]);
            app.local_rel_threshold = threshold;
            let (m, iters) = app.solve_local(0, &samples, &model, 12);
            let (old_m, old_iters) = solve_local(&app, &samples, &model, 12);
            prop_assert_eq!(iters, old_iters);
            prop_assert_eq!(bits(&m.params), bits(&old_m.params));
        }
    }
}
