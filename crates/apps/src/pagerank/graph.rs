//! Web-graph representation and the block-local synthetic generator.

use pic_mapreduce::ByteSize;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A directed web graph in adjacency-list form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WebGraph {
    /// Out-neighbour lists; `out[v]` are the pages `v` links to.
    pub out: Vec<Vec<u32>>,
}

impl WebGraph {
    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.out.len()
    }

    /// Number of directed edges.
    pub fn m(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: u32) -> usize {
        self.out[v as usize].len()
    }

    /// CSR edge offsets: edge `(v, out[v][i])` has global index
    /// `offsets[v] + i`. Edge scores in [`super::PrModel`] are stored in
    /// this order.
    pub fn csr_offsets(&self) -> Vec<u64> {
        let mut off = Vec::with_capacity(self.n() + 1);
        let mut acc = 0u64;
        for v in &self.out {
            off.push(acc);
            acc += v.len() as u64;
        }
        off.push(acc);
        off
    }

    /// The graph as dataset records.
    pub fn records(&self) -> Vec<VertexRec> {
        self.out
            .iter()
            .enumerate()
            .map(|(v, out)| VertexRec {
                id: v as u32,
                out: out.clone(),
            })
            .collect()
    }

    /// Undirected-ish adjacency (successors only) for the BFS partitioner.
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.n()];
        for (v, outs) in self.out.iter().enumerate() {
            for &u in outs {
                adj[v].push(u as usize);
                adj[u as usize].push(v);
            }
        }
        adj
    }
}

/// One vertex and its out-links — the input record type of the PageRank
/// jobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexRec {
    /// Vertex id.
    pub id: u32,
    /// Out-neighbours.
    pub out: Vec<u32>,
}

impl ByteSize for VertexRec {
    fn byte_size(&self) -> u64 {
        4 + 4 + 4 * self.out.len() as u64
    }
}

/// Generate a block-local web graph: `n` vertices in `blocks` equal
/// groups; each vertex links to `min_deg..=max_deg` targets, each chosen
/// inside its own block with probability `locality` and uniformly at
/// random otherwise. This is the structure the paper's §VI.B argues makes
/// PageRank "nearly uncoupled" ("fortunately the web graph is typically
/// local"). Self-loops are skipped; duplicate edges are allowed, as on
/// the real web.
pub fn block_local_graph(
    n: usize,
    blocks: usize,
    min_deg: usize,
    max_deg: usize,
    locality: f64,
    seed: u64,
) -> WebGraph {
    assert!(n > 0 && blocks > 0 && blocks <= n, "bad graph shape");
    assert!(min_deg <= max_deg, "bad degree range");
    assert!((0.0..=1.0).contains(&locality), "locality is a probability");
    let mut rng = StdRng::seed_from_u64(seed);
    let block_size = n.div_ceil(blocks);
    let out = (0..n)
        .map(|v| {
            let block = v / block_size;
            let lo = block * block_size;
            let hi = ((block + 1) * block_size).min(n);
            let deg = rng.gen_range(min_deg..=max_deg);
            let mut targets = Vec::with_capacity(deg);
            while targets.len() < deg {
                let t = if rng.gen::<f64>() < locality {
                    rng.gen_range(lo..hi)
                } else {
                    rng.gen_range(0..n)
                };
                if t != v {
                    targets.push(t as u32);
                }
            }
            targets
        })
        .collect();
    WebGraph { out }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let a = block_local_graph(100, 5, 2, 6, 0.9, 7);
        let b = block_local_graph(100, 5, 2, 6, 0.9, 7);
        assert_eq!(a, b);
        assert_eq!(a.n(), 100);
    }

    #[test]
    fn degrees_in_range_and_no_self_loops() {
        let g = block_local_graph(200, 4, 1, 5, 0.8, 3);
        for (v, outs) in g.out.iter().enumerate() {
            assert!((1..=5).contains(&outs.len()));
            assert!(outs.iter().all(|&u| u as usize != v));
        }
    }

    #[test]
    fn locality_controls_block_edges() {
        let n = 1000;
        let blocks = 10;
        let block_size = n / blocks;
        let frac_local = |g: &WebGraph| {
            let mut local = 0usize;
            let mut total = 0usize;
            for (v, outs) in g.out.iter().enumerate() {
                for &u in outs {
                    total += 1;
                    if u as usize / block_size == v / block_size {
                        local += 1;
                    }
                }
            }
            local as f64 / total as f64
        };
        let tight = block_local_graph(n, blocks, 3, 6, 0.95, 1);
        let loose = block_local_graph(n, blocks, 3, 6, 0.1, 1);
        assert!(frac_local(&tight) > 0.9);
        assert!(frac_local(&loose) < 0.3);
    }

    #[test]
    fn csr_offsets_index_edges() {
        let g = WebGraph {
            out: vec![vec![1, 2], vec![], vec![0]],
        };
        assert_eq!(g.csr_offsets(), vec![0, 2, 2, 3]);
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn records_roundtrip() {
        let g = block_local_graph(20, 2, 1, 3, 0.5, 9);
        let recs = g.records();
        assert_eq!(recs.len(), 20);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.id as usize, i);
            assert_eq!(r.out, g.out[i]);
        }
    }

    #[test]
    fn vertex_rec_byte_size() {
        let r = VertexRec {
            id: 0,
            out: vec![1, 2, 3],
        };
        assert_eq!(r.byte_size(), 4 + 4 + 12);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = WebGraph {
            out: vec![vec![1], vec![2], vec![]],
        };
        let adj = g.adjacency();
        assert!(adj[0].contains(&1) && adj[1].contains(&0));
        assert!(adj[1].contains(&2) && adj[2].contains(&1));
    }
}
