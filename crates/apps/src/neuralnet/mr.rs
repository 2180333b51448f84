//! MapReduce step for batch gradient descent.

use super::data::Sample;
use super::mlp::Mlp;
use pic_mapreduce::{kv, Combiner, MapContext, Mapper, ReduceContext, Reducer};

/// Shuffle value: a flattened gradient sum plus the sample count it covers.
pub type GradSum = (Vec<f64>, u64);

/// Mapper: back-propagate one sample through the current model and emit
/// its gradient under a single key. Without the combiner this ships one
/// full parameter-sized vector per sample — the paper's
/// large-intermediate-data regime. With the combiner the engine runs
/// [`GradMapper::map_combined`], which sums the task's gradients as it
/// computes them and ships one vector per task.
pub struct GradMapper<'a> {
    /// Current model.
    pub model: &'a Mlp,
}

impl Mapper for GradMapper<'_> {
    type In = Sample;
    type K = u8;
    type V = GradSum;

    fn map(&self, s: &Sample, ctx: &mut MapContext<u8, GradSum>) {
        ctx.emit(0, (self.model.gradient(s), 1));
    }

    /// One pair for the whole task, summed in [`GradCombiner`]'s order:
    /// the last sample's gradient first, then the others in split order.
    fn map_combined(&self, samples: &[Sample], ctx: &mut MapContext<u8, GradSum>) {
        let Some((last, rest)) = samples.split_last() else {
            return;
        };
        // `-0.0 + x` has the bits of `x`, so the sum starts as the last
        // sample's gradient itself.
        let mut sum = vec![-0.0; self.model.params.len()];
        let mut buf = self.model.buffers();
        for s in std::iter::once(last).chain(rest) {
            self.model.add_gradient(s, &mut sum, &mut buf);
        }
        let value = (sum, samples.len() as u64);
        // Every per-sample pair has the folded pair's size: one key, a
        // parameter-sized vector and a fixed-width count.
        let bytes = value.1 * kv::record_size(&0u8, &value);
        ctx.emit_folded(0, value, samples.len(), bytes);
    }
}

/// Combiner: sum gradient vectors within a map task.
pub struct GradCombiner;

impl Combiner for GradCombiner {
    type K = u8;
    type V = GradSum;

    fn combine(&self, _k: &u8, values: &mut Vec<GradSum>) {
        if values.len() <= 1 {
            return;
        }
        let (mut sum, mut count) = values.pop().expect("non-empty");
        for (v, c) in values.drain(..) {
            for (a, b) in sum.iter_mut().zip(&v) {
                *a += b;
            }
            count += c;
        }
        values.push((sum, count));
    }
}

/// Reducer: sum the per-task gradient sums into the batch gradient.
pub struct GradReducer;

impl Reducer for GradReducer {
    type K = u8;
    type V = GradSum;
    type Out = GradSum;

    fn reduce(&self, _key: &u8, values: &[GradSum], ctx: &mut ReduceContext<GradSum>) {
        let len = values[0].0.len();
        let mut sum = vec![0.0; len];
        let mut count = 0;
        for (v, c) in values {
            for (a, b) in sum.iter_mut().zip(v) {
                *a += b;
            }
            count += c;
        }
        ctx.emit((sum, count));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combiner_sums_gradients_and_counts() {
        let c = GradCombiner;
        let mut vals = vec![
            (vec![1.0, 2.0], 1),
            (vec![3.0, 4.0], 1),
            (vec![5.0, 6.0], 2),
        ];
        c.combine(&0, &mut vals);
        assert_eq!(vals.len(), 1);
        assert_eq!(vals[0].0, vec![9.0, 12.0]);
        assert_eq!(vals[0].1, 4);
    }

    #[test]
    fn reducer_totals() {
        let r = GradReducer;
        let mut ctx = ReduceContext::new();
        r.reduce(&0, &[(vec![1.0], 2), (vec![2.0], 3)], &mut ctx);
        let out = ctx.into_parts();
        assert_eq!(out, vec![(vec![3.0], 5)]);
    }

    #[test]
    fn mapper_emits_one_gradient_per_sample() {
        let m = Mlp::random(3, 2, 2, 1);
        let mapper = GradMapper { model: &m };
        let mut ctx = MapContext::new();
        mapper.map(
            &Sample {
                x: vec![0.1, 0.2, 0.3],
                label: 0,
            },
            &mut ctx,
        );
        let pairs = ctx.into_parts();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].1 .0.len(), m.params.len());
        assert_eq!(pairs[0].1 .1, 1);
    }
}
