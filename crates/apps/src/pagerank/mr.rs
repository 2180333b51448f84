//! The PageRank model and its MapReduce phases.

use super::graph::VertexRec;
use pic_mapreduce::{ByteSize, Combiner, MapContext, Mapper, ReduceContext, Reducer};

/// The PageRank model: a rank per vertex **and a score per directed edge**
/// (CSR order of the graph). Including edge scores follows the paper's
/// implementation note and makes this the large-model workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PrModel {
    /// PageRank of each vertex.
    pub ranks: Vec<f64>,
    /// Score of each edge, indexed by the graph's CSR edge index.
    pub edge_scores: Vec<f64>,
}

impl PrModel {
    /// The customary initial model: every rank 1.0, every edge score
    /// `1 / outdeg(src)` (uniform rank propagated once).
    pub fn uniform(n: usize, out_degrees: impl Iterator<Item = usize> + Clone) -> Self {
        let mut edge_scores = Vec::new();
        for d in out_degrees {
            let s = if d == 0 { 0.0 } else { 1.0 / d as f64 };
            edge_scores.extend(std::iter::repeat_n(s, d));
        }
        PrModel {
            ranks: vec![1.0; n],
            edge_scores,
        }
    }
}

impl ByteSize for PrModel {
    fn byte_size(&self) -> u64 {
        4 + 8 * self.ranks.len() as u64 + 4 + 8 * self.edge_scores.len() as u64
    }
}

/// Aggregation mapper: for each out-edge `(v, u)` of the input vertex,
/// emit `(u, edge_score(v→u))`. One shuffle record per edge — the traffic
/// the paper's Fig. 2-style analysis worries about.
pub struct AggMapper<'a> {
    /// Current model (edge scores are read CSR-indexed).
    pub model: &'a PrModel,
    /// CSR offsets of the graph.
    pub offsets: &'a [u64],
}

impl Mapper for AggMapper<'_> {
    type In = VertexRec;
    type K = u32;
    type V = f64;

    fn map(&self, rec: &VertexRec, ctx: &mut MapContext<u32, f64>) {
        let base = self.offsets[rec.id as usize];
        for (i, &dst) in rec.out.iter().enumerate() {
            ctx.emit(dst, self.model.edge_scores[base as usize + i]);
        }
    }
}

/// Combiner: partial-sum incoming scores per destination within a map task.
pub struct ScoreSumCombiner;

impl Combiner for ScoreSumCombiner {
    type K = u32;
    type V = f64;

    fn combine(&self, _k: &u32, values: &mut Vec<f64>) {
        if values.len() > 1 {
            let s: f64 = values.iter().sum();
            values.clear();
            values.push(s);
        }
    }
}

/// Aggregation reducer: `rank = (1 − c) + c · Σ incoming scores`.
pub struct RankReducer {
    /// Damping factor `c` (0.85 in the paper).
    pub damping: f64,
}

impl Reducer for RankReducer {
    type K = u32;
    type V = f64;
    type Out = (u32, f64);

    fn reduce(&self, key: &u32, values: &[f64], ctx: &mut ReduceContext<(u32, f64)>) {
        let sum: f64 = values.iter().sum();
        ctx.emit((*key, (1.0 - self.damping) + self.damping * sum));
    }
}

/// Propagation mapper (map-only phase): for each out-edge of the input
/// vertex emit `(edge index, rank(v) / outdeg(v))`.
pub struct PropagateMapper<'a> {
    /// Ranks produced by the aggregation phase.
    pub ranks: &'a [f64],
    /// CSR offsets of the graph.
    pub offsets: &'a [u64],
}

impl Mapper for PropagateMapper<'_> {
    type In = VertexRec;
    type K = u64;
    type V = f64;

    fn map(&self, rec: &VertexRec, ctx: &mut MapContext<u64, f64>) {
        let deg = rec.out.len();
        if deg == 0 {
            return;
        }
        let score = self.ranks[rec.id as usize] / deg as f64;
        let base = self.offsets[rec.id as usize];
        for i in 0..deg {
            ctx.emit(base + i as u64, score);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_model_scores() {
        let m = PrModel::uniform(3, [2usize, 0, 1].into_iter());
        assert_eq!(m.ranks, vec![1.0; 3]);
        assert_eq!(m.edge_scores, vec![0.5, 0.5, 1.0]);
    }

    #[test]
    fn agg_mapper_emits_incoming_scores() {
        let model = PrModel {
            ranks: vec![1.0; 3],
            edge_scores: vec![0.3, 0.7, 0.5],
        };
        let offsets = vec![0u64, 2, 2, 3];
        let mapper = AggMapper {
            model: &model,
            offsets: &offsets,
        };
        let mut ctx = MapContext::new();
        mapper.map(
            &VertexRec {
                id: 0,
                out: vec![1, 2],
            },
            &mut ctx,
        );
        let pairs = ctx.into_parts();
        assert_eq!(pairs, vec![(1, 0.3), (2, 0.7)]);
    }

    #[test]
    fn rank_reducer_applies_damping() {
        let r = RankReducer { damping: 0.85 };
        let mut ctx = ReduceContext::new();
        r.reduce(&5, &[0.2, 0.3], &mut ctx);
        let out = ctx.into_parts();
        assert_eq!(out.len(), 1);
        let (v, rank) = out[0];
        assert_eq!(v, 5);
        assert!((rank - (0.15 + 0.85 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn propagate_mapper_divides_rank_by_outdeg() {
        let ranks = vec![2.0, 1.0];
        let offsets = vec![0u64, 2, 2];
        let mapper = PropagateMapper {
            ranks: &ranks,
            offsets: &offsets,
        };
        let mut ctx = MapContext::new();
        mapper.map(
            &VertexRec {
                id: 0,
                out: vec![1, 1],
            },
            &mut ctx,
        );
        let pairs = ctx.into_parts();
        assert_eq!(pairs, vec![(0, 1.0), (1, 1.0)]);
    }

    #[test]
    fn dangling_vertex_emits_nothing() {
        let ranks = vec![1.0];
        let offsets = vec![0u64, 0];
        let mapper = PropagateMapper {
            ranks: &ranks,
            offsets: &offsets,
        };
        let mut ctx = MapContext::new();
        mapper.map(&VertexRec { id: 0, out: vec![] }, &mut ctx);
        assert_eq!(ctx.emitted(), 0);
    }

    #[test]
    fn model_byte_size_counts_both_parts() {
        let m = PrModel {
            ranks: vec![0.0; 10],
            edge_scores: vec![0.0; 30],
        };
        assert_eq!(m.byte_size(), 4 + 80 + 4 + 240);
    }
}
