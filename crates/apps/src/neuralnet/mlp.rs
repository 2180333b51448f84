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

/// The cross-entropy of a sample the model gives probability `p`: one
/// term of [`Mlp::loss`].
pub(crate) fn nll(p: f64) -> f64 {
    -(p.max(1e-300)).ln()
}

/// Rows the forward kernel sums side by side, one accumulator each.
const LANES: usize = 4;

/// Caller-owned buffers of one sample's forward and backward pass, sized
/// by [`Mlp::buffers`]; reused across samples, so the kernels allocate
/// nothing.
pub(crate) struct Buffers {
    /// Hidden activations (`dh`).
    h: Vec<f64>,
    /// Class probabilities; the backward pass turns them into the output
    /// layer's error (`dout`).
    p: Vec<f64>,
    /// The hidden layer's error (`dh`).
    delta: Vec<f64>,
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

    /// Forward kernel: hidden activations into `buf.h` and softmax class
    /// probabilities into `buf.p`.
    ///
    /// Operation order (DESIGN.md §7): each hidden unit and each logit is
    /// `z = b; z += w_i·x_i` in input order, no fused multiply-add; rows
    /// run [`LANES`] at a time as independent accumulation chains, which
    /// changes which sums overlap and not what any of them adds. Never
    /// inlined, so the 64-byte function alignment pins where its loops sit
    /// (DESIGN.md §14).
    #[inline(never)]
    fn forward_into(&self, x: &[f64], buf: &mut Buffers) {
        assert_eq!(x.len(), self.din, "input dimension mismatch");
        assert!(
            buf.h.len() == self.dh && buf.p.len() == self.dout,
            "buffers of another network shape"
        );
        affine(self.w1(), self.b1(), x, &mut buf.h);
        for z in &mut buf.h {
            *z = sigmoid(*z);
        }
        affine(self.w2(), self.b2(), &buf.h, &mut buf.p);
        // Stable softmax.
        let logits = &mut buf.p;
        let mx = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for z in logits.iter_mut() {
            *z = (*z - mx).exp();
            sum += *z;
        }
        for z in logits.iter_mut() {
            *z /= sum;
        }
    }

    /// Buffers sized for this network's forward and backward pass.
    pub(crate) fn buffers(&self) -> Buffers {
        Buffers {
            h: vec![0.0; self.dh],
            p: vec![0.0; self.dout],
            delta: vec![0.0; self.dh],
        }
    }

    /// Forward pass: hidden activations and softmax class probabilities.
    pub fn forward(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut buf = self.buffers();
        self.forward_into(x, &mut buf);
        (buf.h, buf.p)
    }

    /// Predicted class of `x`.
    pub fn predict(&self, x: &[f64]) -> u8 {
        let mut buf = self.buffers();
        self.forward_into(x, &mut buf);
        argmax(&buf.p)
    }

    /// Gradient kernel: adds the cross-entropy gradient of `s`, flattened
    /// in parameter order, into `sum`, and returns the probability the
    /// model gives `s`'s label (its loss term is [`nll`] of that).
    ///
    /// Each entry of `sum` gets exactly one `+=` of the entry
    /// [`Mlp::gradient`] returns, so a caller that sums samples this way
    /// adds the same numbers in the same order as one that sums returned
    /// vectors. Never inlined, like [`Mlp::forward_into`].
    #[inline(never)]
    pub(crate) fn add_gradient(&self, s: &Sample, sum: &mut [f64], buf: &mut Buffers) -> f64 {
        assert_eq!(sum.len(), self.params.len(), "gradient length mismatch");
        self.forward_into(&s.x, buf);
        let Buffers { h, p, delta } = buf;
        let label = s.label as usize;
        let p_label = p[label];
        // `p` becomes the output layer's error.
        p[label] -= 1.0;

        let (dh, din) = (self.dh, self.din);
        let (g_w1, rest) = sum.split_at_mut(dh * din);
        let (g_b1, rest) = rest.split_at_mut(dh);
        let (g_w2, g_b2) = rest.split_at_mut(self.dout * dh);

        // Output layer.
        for ((&d, gb), gw) in p.iter().zip(g_b2).zip(g_w2.chunks_exact_mut(dh)) {
            *gb += d;
            for (g, hj) in gw.iter_mut().zip(h.iter()) {
                *g += d * hj;
            }
        }
        // Hidden layer: each unit's error sums over the classes in order.
        delta.fill(0.0);
        for (&d, row) in p.iter().zip(self.w2().chunks_exact(dh)) {
            for (e, w) in delta.iter_mut().zip(row) {
                *e += w * d;
            }
        }
        for ((e, &hj), (gb, gw)) in delta
            .iter_mut()
            .zip(h.iter())
            .zip(g_b1.iter_mut().zip(g_w1.chunks_exact_mut(din)))
        {
            *e *= hj * (1.0 - hj);
            *gb += *e;
            for (g, xi) in gw.iter_mut().zip(&s.x) {
                *g += *e * xi;
            }
        }
        p_label
    }

    /// Cross-entropy gradient of one sample, flattened in parameter order.
    pub fn gradient(&self, s: &Sample) -> Vec<f64> {
        // `-0.0 + x` has the bits of `x` for every `x`: adding into
        // `-0.0` writes the gradient itself.
        let mut g = vec![-0.0; self.params.len()];
        self.add_gradient(s, &mut g, &mut self.buffers());
        g
    }

    /// One pass over `samples`: sets `sum` to their batch gradient (from
    /// `+0.0`, in sample order) and returns their mean loss, the bits
    /// [`Mlp::loss`] returns, from the same forward passes.
    pub(crate) fn batch_gradient_and_loss(
        &self,
        samples: &[Sample],
        sum: &mut [f64],
        buf: &mut Buffers,
    ) -> f64 {
        sum.fill(0.0);
        if samples.is_empty() {
            return 0.0;
        }
        let total: f64 = samples
            .iter()
            .map(|s| nll(self.add_gradient(s, sum, buf)))
            .sum();
        total / samples.len() as f64
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
        let mut buf = self.buffers();
        let total: f64 = samples
            .iter()
            .map(|s| {
                self.forward_into(&s.x, &mut buf);
                nll(buf.p[s.label as usize])
            })
            .sum();
        total / samples.len() as f64
    }

    /// Fraction of `samples` misclassified — the paper's Fig. 12(a) error.
    pub fn misclassification_rate(&self, samples: &[Sample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let mut buf = self.buffers();
        let wrong = samples
            .iter()
            .filter(|s| {
                self.forward_into(&s.x, &mut buf);
                argmax(&buf.p) != s.label
            })
            .count();
        wrong as f64 / samples.len() as f64
    }
}

/// Index of the largest probability; the last one on a tie.
fn argmax(p: &[f64]) -> u8 {
    p.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("probabilities are never NaN"))
        .map(|(i, _)| i as u8)
        .expect("dout > 0")
}

/// `out[r] = b[r] + Σ_i w[r·n + i]·x[i]` for the row-major `out.len() × n`
/// matrix `w`, `n = x.len()`, every row summed in `i` order. Full blocks
/// of [`LANES`] rows run as that many independent accumulation chains;
/// the remaining rows run one at a time.
#[inline(always)]
fn affine(w: &[f64], b: &[f64], x: &[f64], out: &mut [f64]) {
    let n = x.len();
    let mut w_blocks = w.chunks_exact(LANES * n);
    let mut b_blocks = b.chunks_exact(LANES);
    let mut out_blocks = out.chunks_exact_mut(LANES);
    for ((w, b), out) in (&mut w_blocks).zip(&mut b_blocks).zip(&mut out_blocks) {
        let rows: [&[f64]; LANES] = std::array::from_fn(|r| &w[r * n..][..n]);
        let mut acc: [f64; LANES] = b.try_into().expect("one block");
        for (i, &xi) in x.iter().enumerate() {
            for (z, row) in acc.iter_mut().zip(rows) {
                *z += row[i] * xi;
            }
        }
        out.copy_from_slice(&acc);
    }
    let rows = w_blocks.remainder().chunks_exact(n);
    for ((row, &b), out) in rows
        .zip(b_blocks.remainder())
        .zip(out_blocks.into_remainder())
    {
        let mut z = b;
        for (w, xi) in row.iter().zip(x) {
            z += w * xi;
        }
        *out = z;
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
