//! The PageRank [`IterativeApp`] / [`PicApp`] implementation.

use super::graph::{VertexRec, WebGraph};
use super::mr::{AggMapper, PrModel, PropagateMapper, RankReducer, ScoreSumCombiner};
use pic_core::prelude::*;
use pic_mapreduce::{Dataset, Engine};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

/// How vertices are assigned to PIC sub-graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionMode {
    /// Uniformly random vertex groups — what the paper's evaluation used
    /// ("our partitioning function randomly divides the web graph into 18
    /// partitions").
    #[default]
    Random,
    /// Contiguous id blocks — exploits the generator's block locality.
    Block,
    /// Greedy BFS growth (the METIS stand-in the paper's §VI.B alludes
    /// to: "by properly partitioning it ... the connectivity matrix of
    /// the graph becomes nearly uncoupled").
    Bfs,
}

/// Per-partition structure precomputed at construction.
struct PartInfo {
    /// Global vertex ids of this partition, in local order.
    vertices: Vec<u32>,
    /// Internal edges as `(local src, local dst, global CSR index)`.
    internal_edges: Vec<(u32, u32, u64)>,
}

/// PageRank over a fixed web graph with a fixed sub-graph partitioning.
///
/// The graph and the partition structure live in the app (they are static
/// "problem shape", not model), mirroring how the paper's PIC library lets
/// `partition`/`merge` capture problem-specific structure like the `18² =
/// 324` cross-edge sets of its Wikipedia experiment.
pub struct PageRankApp {
    graph: Arc<WebGraph>,
    offsets: Vec<u64>,
    /// Damping factor `c` (paper: 0.85).
    pub damping: f64,
    /// Fixed IC iteration count (Nutch default: 10).
    pub iterations: usize,
    /// Fixed local-iteration count per best-effort iteration.
    pub local_iterations: usize,
    /// Fixed best-effort iteration count.
    pub be_iterations: usize,
    /// Fixed top-off iteration count (the preset budget the refined
    /// starting model needs; the conventional run uses `iterations`).
    pub topoff_iterations: usize,
    parts: usize,
    part_of: Vec<u32>,
    part_info: Vec<PartInfo>,
    /// Cross-partition edges as `(src, dst, global CSR index)`.
    cross_edges: Vec<(u32, u32, u64)>,
    /// Reference ranks for the error metric (`None` disables it).
    pub reference: Option<Vec<f64>>,
}

impl PageRankApp {
    /// Build the app over `graph` with `parts` sub-graphs chosen by `mode`.
    pub fn new(graph: WebGraph, parts: usize, mode: PartitionMode, seed: u64) -> Self {
        assert!(parts > 0, "need at least one partition");
        let n = graph.n();
        let offsets = graph.csr_offsets();

        let part_of: Vec<u32> = match mode {
            PartitionMode::Random => {
                let mut ids: Vec<u32> = (0..n as u32).collect();
                ids.shuffle(&mut StdRng::seed_from_u64(seed));
                let mut part_of = vec![0u32; n];
                for (i, &v) in ids.iter().enumerate() {
                    part_of[v as usize] = (i % parts) as u32;
                }
                part_of
            }
            PartitionMode::Block => (0..n).map(|v| ((v * parts) / n) as u32).collect(),
            PartitionMode::Bfs => partition::bfs_graph(&graph.adjacency(), parts, seed)
                .into_iter()
                .map(|p| p as u32)
                .collect(),
        };

        // Local index of each vertex within its partition.
        let mut local_index = vec![0u32; n];
        let mut part_vertices: Vec<Vec<u32>> = vec![Vec::new(); parts];
        for v in 0..n {
            let p = part_of[v] as usize;
            local_index[v] = part_vertices[p].len() as u32;
            part_vertices[p].push(v as u32);
        }

        let mut part_info: Vec<PartInfo> = part_vertices
            .into_iter()
            .map(|vertices| PartInfo {
                vertices,
                internal_edges: Vec::new(),
            })
            .collect();
        let mut cross_edges = Vec::new();
        for (v, outs) in graph.out.iter().enumerate() {
            let pv = part_of[v] as usize;
            let base = offsets[v];
            for (i, &u) in outs.iter().enumerate() {
                let ge = base + i as u64;
                if part_of[u as usize] as usize == pv {
                    part_info[pv].internal_edges.push((
                        local_index[v],
                        local_index[u as usize],
                        ge,
                    ));
                } else {
                    cross_edges.push((v as u32, u, ge));
                }
            }
        }

        PageRankApp {
            graph: Arc::new(graph),
            offsets,
            damping: 0.85,
            iterations: 10,
            local_iterations: 10,
            be_iterations: 3,
            topoff_iterations: 3,
            parts,
            part_of,
            part_info,
            cross_edges,
            reference: None,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &WebGraph {
        &self.graph
    }

    /// Fraction of edges that cross partitions — the "coupling" the
    /// paper's §VI.B wants partitioning to minimize.
    pub fn cut_fraction(&self) -> f64 {
        self.cross_edges.len() as f64 / self.graph.m().max(1) as f64
    }

    /// The uniform starting model.
    pub fn initial_model(&self) -> PrModel {
        PrModel::uniform(self.graph.n(), self.graph.out.iter().map(Vec::len))
    }

    /// Sequential reference: `iters` full PageRank iterations. Used both
    /// for the error metric and in tests as ground truth for the MR path.
    pub fn solve_reference(&self, iters: usize) -> Vec<f64> {
        let mut model = self.initial_model();
        for _ in 0..iters {
            model = self.sequential_step(&model);
        }
        model.ranks
    }

    /// One full sequential aggregation + propagation step.
    pub fn sequential_step(&self, model: &PrModel) -> PrModel {
        let n = self.graph.n();
        let mut sums = vec![0.0; n];
        for (v, outs) in self.graph.out.iter().enumerate() {
            let base = self.offsets[v];
            for (i, &u) in outs.iter().enumerate() {
                sums[u as usize] += model.edge_scores[base as usize + i];
            }
        }
        let ranks: Vec<f64> = sums
            .iter()
            .map(|s| (1.0 - self.damping) + self.damping * s)
            .collect();
        let mut edge_scores = vec![0.0; self.graph.m()];
        for (v, outs) in self.graph.out.iter().enumerate() {
            if outs.is_empty() {
                continue;
            }
            let s = ranks[v] / outs.len() as f64;
            let base = self.offsets[v] as usize;
            for e in edge_scores.iter_mut().skip(base).take(outs.len()) {
                *e = s;
            }
        }
        PrModel { ranks, edge_scores }
    }

    /// Attach reference ranks for error trajectories.
    pub fn with_reference(mut self, ranks: Vec<f64>) -> Self {
        self.reference = Some(ranks);
        self
    }
}

impl IterativeApp for PageRankApp {
    type Record = VertexRec;
    type Model = PrModel;

    fn name(&self) -> &str {
        "pagerank"
    }

    fn iterate(
        &self,
        engine: &Engine,
        data: &Dataset<VertexRec>,
        model: &PrModel,
        scope: &IterScope,
    ) -> PrModel {
        // Phase 1: aggregation (full MapReduce job; shuffle = one record
        // per edge).
        let agg = engine.run_with_combiner(
            &scope.job("aggregate"),
            data,
            &AggMapper {
                model,
                offsets: &self.offsets,
            },
            &ScoreSumCombiner,
            &RankReducer {
                damping: self.damping,
            },
        );
        // Vertices with no in-edges receive no reducer output: their rank
        // is the damping floor.
        let mut ranks = vec![1.0 - self.damping; self.graph.n()];
        for (v, r) in agg.output {
            ranks[v as usize] = r;
        }

        // Phase 2: propagation (map-only job).
        let prop = engine.run_map_only(
            &scope.job("propagate"),
            data,
            &PropagateMapper {
                ranks: &ranks,
                offsets: &self.offsets,
            },
        );
        let mut edge_scores = vec![0.0; self.graph.m()];
        for (e, s) in prop.output {
            edge_scores[e as usize] = s;
        }

        PrModel { ranks, edge_scores }
    }

    fn converged(&self, _prev: &PrModel, _next: &PrModel) -> bool {
        // Nutch semantics: run a fixed number of iterations.
        false
    }

    fn error(&self, model: &PrModel) -> Option<f64> {
        self.reference.as_ref().map(|r| {
            model
                .ranks
                .iter()
                .zip(r)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / r.len() as f64
        })
    }

    fn max_iterations(&self) -> usize {
        self.iterations
    }

    fn model_fanout(&self) -> pic_core::app::ModelFanout {
        // Each aggregation mapper needs only its vertices' edge scores.
        pic_core::app::ModelFanout::Partitioned
    }
}

impl PicApp for PageRankApp {
    fn partition_data(&self, data: &Dataset<VertexRec>, parts: usize) -> Vec<Vec<VertexRec>> {
        assert_eq!(
            parts, self.parts,
            "PicOptions.partitions must match the app's partition count"
        );
        let mut out: Vec<Vec<VertexRec>> = (0..parts).map(|_| Vec::new()).collect();
        for rec in data.iter_records() {
            out[self.part_of[rec.id as usize] as usize].push(rec.clone());
        }
        out
    }

    fn split_model(&self, model: &PrModel, parts: usize) -> Vec<PrModel> {
        assert_eq!(parts, self.parts, "partition count mismatch");
        self.part_info
            .iter()
            .map(|info| PrModel {
                ranks: info
                    .vertices
                    .iter()
                    .map(|&v| model.ranks[v as usize])
                    .collect(),
                edge_scores: info
                    .internal_edges
                    .iter()
                    .map(|&(_, _, ge)| model.edge_scores[ge as usize])
                    .collect(),
            })
            .collect()
    }

    fn merge(&self, subs: &[PrModel], prev: &PrModel) -> PrModel {
        assert_eq!(subs.len(), self.parts, "partition count mismatch");
        // 1. Piece the disjoint rank/internal-score blocks back together.
        let mut ranks = vec![0.0; self.graph.n()];
        let mut edge_scores = prev.edge_scores.clone();
        for (info, sub) in self.part_info.iter().zip(subs) {
            for (l, &v) in info.vertices.iter().enumerate() {
                ranks[v as usize] = sub.ranks[l];
            }
            for (e, &(_, _, ge)) in info.internal_edges.iter().enumerate() {
                edge_scores[ge as usize] = sub.edge_scores[e];
            }
        }
        // 2. Score every cross-partition edge from the merged ranks and
        //    fold its contribution into the destination — the paper's
        //    "only mechanism ... to factor in the dependencies between
        //    the sub-problems".
        for &(src, dst, ge) in &self.cross_edges {
            let deg = self.graph.out_degree(src);
            let score = if deg == 0 {
                0.0
            } else {
                ranks[src as usize] / deg as f64
            };
            edge_scores[ge as usize] = score;
            ranks[dst as usize] += self.damping * score;
        }
        PrModel { ranks, edge_scores }
    }

    fn be_converged(&self, _prev: &PrModel, _next: &PrModel) -> bool {
        // Fixed best-effort iteration count, like the local iterations
        // ("we also terminate the local and best-effort iterations after a
        // pre-set iteration limit").
        false
    }

    fn solve_local(
        &self,
        part: usize,
        _records: &[VertexRec],
        model: &PrModel,
        cap: usize,
    ) -> (PrModel, usize) {
        let info = &self.part_info[part];
        let n_local = info.vertices.len();
        let iters = cap.min(self.local_iterations);
        let mut ranks = model.ranks.clone();
        let mut scores = model.edge_scores.clone();
        for _ in 0..iters {
            // Aggregation over internal edges only.
            let mut sums = vec![0.0; n_local];
            for (e, &(_, dst, _)) in info.internal_edges.iter().enumerate() {
                sums[dst as usize] += scores[e];
            }
            for (r, s) in ranks.iter_mut().zip(&sums) {
                *r = (1.0 - self.damping) + self.damping * s;
            }
            // Propagation with *global* out-degrees, so internal scores
            // stay consistent with what merge computes for cross edges.
            for (e, &(src, _, _)) in info.internal_edges.iter().enumerate() {
                let v = info.vertices[src as usize];
                let deg = self.graph.out_degree(v);
                scores[e] = if deg == 0 {
                    0.0
                } else {
                    ranks[src as usize] / deg as f64
                };
            }
        }
        (
            PrModel {
                ranks,
                edge_scores: scores,
            },
            iters,
        )
    }

    fn local_iteration_cap(&self) -> usize {
        self.local_iterations
    }

    fn max_be_iterations(&self) -> usize {
        self.be_iterations
    }

    fn max_topoff_iterations(&self) -> usize {
        self.topoff_iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::graph::block_local_graph;
    use pic_simnet::ClusterSpec;

    fn small_graph() -> WebGraph {
        block_local_graph(200, 4, 2, 5, 0.9, 42)
    }

    #[test]
    fn mr_iteration_matches_sequential() {
        let g = small_graph();
        let app = PageRankApp::new(g.clone(), 4, PartitionMode::Random, 1);
        let engine = Engine::new(ClusterSpec::small());
        let data = Dataset::create(&engine, "/pr/eq", g.records(), 6);
        let scope = IterScope::cluster(6, pic_mapreduce::Timing::default_analytic());
        let m0 = app.initial_model();
        let via_mr = app.iterate(&engine, &data, &m0, &scope);
        let via_seq = app.sequential_step(&m0);
        for (a, b) in via_mr.ranks.iter().zip(&via_seq.ranks) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        for (a, b) in via_mr.edge_scores.iter().zip(&via_seq.edge_scores) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn ranks_are_positive_and_sum_near_n() {
        let g = small_graph();
        let app = PageRankApp::new(g, 4, PartitionMode::Random, 1);
        let ranks = app.solve_reference(10);
        assert!(ranks.iter().all(|&r| r > 0.0));
        let total: f64 = ranks.iter().sum();
        let n = app.graph().n() as f64;
        // Rank mass stays near n for stochastic-ish graphs.
        assert!((total / n - 1.0).abs() < 0.35, "total/n = {}", total / n);
    }

    #[test]
    fn ic_runs_exactly_fixed_iterations() {
        let g = small_graph();
        let app = PageRankApp::new(g.clone(), 4, PartitionMode::Random, 1);
        let engine = Engine::new(ClusterSpec::small());
        let data = Dataset::create(&engine, "/pr/ic", g.records(), 6);
        let r = run_ic(
            &engine,
            &app,
            &data,
            app.initial_model(),
            &IcOptions::default(),
        );
        assert_eq!(r.iterations, 10, "Nutch runs a preset iteration count");
        assert!(!r.converged, "fixed-count termination, not convergence");
    }

    #[test]
    fn pic_result_close_to_ic_result() {
        let g = small_graph();
        let mut app = PageRankApp::new(g.clone(), 4, PartitionMode::Block, 1);
        // Quality check: give the top-off the full Nutch budget so the
        // comparison against the 10-iteration reference is apples-to-apples.
        app.topoff_iterations = 10;
        let reference = app.solve_reference(10);

        let engine = Engine::new(ClusterSpec::small());
        let data = Dataset::create(&engine, "/pr/pic", g.records(), 6);
        let r = run_pic(
            &engine,
            &app,
            &data,
            app.initial_model(),
            &PicOptions {
                partitions: 4,
                ..Default::default()
            },
        );
        let mean_err: f64 = r
            .final_model
            .ranks
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / reference.len() as f64;
        let mean_rank = reference.iter().sum::<f64>() / reference.len() as f64;
        assert!(
            mean_err < 0.1 * mean_rank,
            "PIC mean rank error {mean_err} vs mean rank {mean_rank}"
        );
    }

    #[test]
    fn split_then_merge_without_local_work_preserves_internal_state() {
        let g = small_graph();
        let app = PageRankApp::new(g, 4, PartitionMode::Random, 3);
        let m = {
            // A non-uniform model to make preservation visible.
            let mut m = app.initial_model();
            for (i, r) in m.ranks.iter_mut().enumerate() {
                *r = 1.0 + (i % 7) as f64 * 0.1;
            }
            app.sequential_step(&m)
        };
        let subs = app.split_model(&m, 4);
        let merged = app.merge(&subs, &m);
        // Ranks may shift by cross-edge contributions, but internal edge
        // scores and partition ranks before cross-updates derive from the
        // same values, so no rank should move by more than the total
        // cross contribution bound.
        for (a, b) in merged.ranks.iter().zip(&m.ranks) {
            assert!(*a >= *b - 1e-12, "merge only adds cross contributions");
        }
    }

    #[test]
    fn block_partition_cuts_fewer_edges_than_random() {
        let g = block_local_graph(1000, 8, 2, 6, 0.92, 5);
        let random = PageRankApp::new(g.clone(), 8, PartitionMode::Random, 1);
        let block = PageRankApp::new(g.clone(), 8, PartitionMode::Block, 1);
        let bfs = PageRankApp::new(g, 8, PartitionMode::Bfs, 1);
        assert!(block.cut_fraction() < random.cut_fraction() / 3.0);
        assert!(bfs.cut_fraction() < random.cut_fraction());
    }

    #[test]
    fn local_iterations_respect_cap() {
        let g = small_graph();
        let app = PageRankApp::new(g, 2, PartitionMode::Block, 1);
        let subs = app.split_model(&app.initial_model(), 2);
        let (_, iters) = app.solve_local(0, &[], &subs[0], 4);
        assert_eq!(iters, 4, "cap below app.local_iterations wins");
        let (_, iters) = app.solve_local(0, &[], &subs[0], 100);
        assert_eq!(iters, 10, "app.local_iterations wins below the cap");
    }

    #[test]
    fn partition_data_groups_by_assignment() {
        let g = small_graph();
        let app = PageRankApp::new(g.clone(), 4, PartitionMode::Random, 9);
        let engine = Engine::new(ClusterSpec::small());
        let data = Dataset::create(&engine, "/pr/pd", g.records(), 6);
        let parts = app.partition_data(&data, 4);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), g.n());
        for (p, group) in parts.iter().enumerate() {
            for rec in group {
                assert_eq!(app.part_of[rec.id as usize] as usize, p);
            }
        }
    }
}
