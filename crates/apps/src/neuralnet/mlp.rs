//! A one-hidden-layer multilayer perceptron with back-propagation.

use super::data::Sample;
use pic_mapreduce::ByteSize;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// MLP weights: sigmoid hidden layer, softmax output, cross-entropy loss.
///
/// Parameter layout when flattened (gradients use the same order):
/// `[w1 (dh×din row-major), b1 (dh), w2 (dout×dh row-major), b2 (dout)]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    /// Input dimension.
    pub din: usize,
    /// Hidden units.
    pub dh: usize,
    /// Output classes.
    pub dout: usize,
    /// Flattened parameters.
    pub params: Vec<f64>,
}

impl ByteSize for Mlp {
    fn byte_size(&self) -> u64 {
        12 + 4 + 8 * self.params.len() as u64
    }
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

impl Mlp {
    /// Total parameter count for a given shape.
    pub fn param_count(din: usize, dh: usize, dout: usize) -> usize {
        dh * din + dh + dout * dh + dout
    }

    /// Random initialization in `±0.5/√din` (standard small-weight init),
    /// deterministic per `seed`.
    pub fn random(din: usize, dh: usize, dout: usize, seed: u64) -> Self {
        assert!(din > 0 && dh > 0 && dout > 0, "bad network shape");
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = 0.5 / (din as f64).sqrt();
        let params = (0..Self::param_count(din, dh, dout))
            .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        Mlp {
            din,
            dh,
            dout,
            params,
        }
    }

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

    /// Forward pass: hidden activations and softmax class probabilities.
    pub fn forward(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
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

    /// Predicted class of `x`.
    pub fn predict(&self, x: &[f64]) -> u8 {
        let (_, p) = self.forward(x);
        p.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("probabilities are never NaN"))
            .map(|(i, _)| i as u8)
            .expect("dout > 0")
    }

    /// Cross-entropy gradient of one sample, flattened in parameter order.
    pub fn gradient(&self, s: &Sample) -> Vec<f64> {
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

    /// Take a gradient step: `params -= lr/Σcount × grad_sum`.
    pub fn apply_gradient(&self, grad_sum: &[f64], count: u64, lr: f64) -> Mlp {
        assert_eq!(
            grad_sum.len(),
            self.params.len(),
            "gradient length mismatch"
        );
        assert!(count > 0, "gradient over zero samples");
        let scale = lr / count as f64;
        let params = self
            .params
            .iter()
            .zip(grad_sum)
            .map(|(p, g)| p - scale * g)
            .collect();
        Mlp { params, ..*self }
    }

    /// Mean cross-entropy loss over `samples`.
    pub fn loss(&self, samples: &[Sample]) -> f64 {
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

    /// Fraction of `samples` misclassified — the paper's Fig. 12(a) error.
    pub fn misclassification_rate(&self, samples: &[Sample]) -> f64 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neuralnet::data::ocr_like;

    fn tiny() -> Mlp {
        Mlp::random(4, 3, 2, 1)
    }

    #[test]
    fn forward_produces_probabilities() {
        let m = tiny();
        let (h, p) = m.forward(&[0.1, 0.9, 0.3, 0.5]);
        assert_eq!(h.len(), 3);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&x| x > 0.0 && x < 1.0));
        assert!(h.iter().all(|&x| x > 0.0 && x < 1.0));
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let m = tiny();
        let s = Sample {
            x: vec![0.2, 0.7, 0.1, 0.9],
            label: 1,
        };
        let g = m.gradient(&s);
        let eps = 1e-6;
        for idx in [0, 5, 12, 14, 17, 20] {
            let mut plus = m.clone();
            plus.params[idx] += eps;
            let mut minus = m.clone();
            minus.params[idx] -= eps;
            let fd = (plus.loss(std::slice::from_ref(&s)) - minus.loss(std::slice::from_ref(&s)))
                / (2.0 * eps);
            assert!(
                (g[idx] - fd).abs() < 1e-5,
                "param {idx}: analytic {} vs fd {fd}",
                g[idx]
            );
        }
    }

    #[test]
    fn gradient_step_reduces_loss() {
        let m = tiny();
        let data = ocr_like(50, 2, 4, 0.05, 7);
        let mut gsum = vec![0.0; m.params.len()];
        for s in &data {
            for (a, b) in gsum.iter_mut().zip(m.gradient(s)) {
                *a += b;
            }
        }
        let m2 = m.apply_gradient(&gsum, data.len() as u64, 0.5);
        assert!(m2.loss(&data) < m.loss(&data));
    }

    #[test]
    fn training_learns_separable_classes() {
        let data = ocr_like(200, 2, 6, 0.05, 11);
        let mut m = Mlp::random(6, 5, 2, 3);
        for _ in 0..200 {
            let mut gsum = vec![0.0; m.params.len()];
            for s in &data {
                for (a, b) in gsum.iter_mut().zip(m.gradient(s)) {
                    *a += b;
                }
            }
            m = m.apply_gradient(&gsum, data.len() as u64, 1.0);
        }
        assert!(
            m.misclassification_rate(&data) < 0.05,
            "rate {}",
            m.misclassification_rate(&data)
        );
    }

    #[test]
    fn param_count_layout() {
        assert_eq!(Mlp::param_count(4, 3, 2), 12 + 3 + 6 + 2);
        assert_eq!(tiny().params.len(), 23);
    }

    #[test]
    fn random_init_is_deterministic() {
        assert_eq!(Mlp::random(8, 4, 3, 9), Mlp::random(8, 4, 3, 9));
        assert_ne!(Mlp::random(8, 4, 3, 9), Mlp::random(8, 4, 3, 10));
    }
}
