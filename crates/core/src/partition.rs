//! Default partition functions.
//!
//! The paper: "The complexity of the `partition` function may range from
//! simple techniques like randomly breaking up the input data and/or model
//! (in which case the programmer can simply use the default partitioner
//! classes provided by PIC), to sophisticated partitioning schemes such as
//! min-cut graph partitioning." This module provides those defaults:
//! random, contiguous-chunk and hash partitioners for record sets, plus a
//! greedy BFS grower for graphs (the METIS stand-in used by the PageRank
//! ablation).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Randomly assign records to `parts` near-equal partitions
/// (deterministic given `seed`). The paper's K-means case study uses
/// exactly this ("We used a simple random partition function for
/// K-means").
pub fn random<R>(records: impl IntoIterator<Item = R>, parts: usize, seed: u64) -> Vec<Vec<R>> {
    assert!(parts > 0, "need at least one partition");
    let mut records: Vec<R> = records.into_iter().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    records.shuffle(&mut rng);
    chunks(records, parts)
}

/// Contiguous near-equal chunks, preserving record order. Right for data
/// with spatial structure (image tiles, matrix row blocks).
pub fn chunked<R>(records: impl IntoIterator<Item = R>, parts: usize) -> Vec<Vec<R>> {
    assert!(parts > 0, "need at least one partition");
    let records: Vec<R> = records.into_iter().collect();
    chunks(records, parts)
}

/// Partition by a key function: records with equal `key(r) % parts` land
/// together. Right when sub-problem membership is semantic (e.g. PageRank
/// vertices pre-labelled with a group).
pub fn by_key<R>(
    records: impl IntoIterator<Item = R>,
    parts: usize,
    key: impl Fn(&R) -> u64,
) -> Vec<Vec<R>> {
    assert!(parts > 0, "need at least one partition");
    let mut out: Vec<Vec<R>> = (0..parts).map(|_| Vec::new()).collect();
    for r in records {
        let p = (key(&r) % parts as u64) as usize;
        out[p].push(r);
    }
    out
}

/// Split `records` into `parts` near-equal contiguous chunks.
fn chunks<R>(mut records: Vec<R>, parts: usize) -> Vec<Vec<R>> {
    let n = records.len();
    let base = n / parts;
    let rem = n % parts;
    let mut out: Vec<Vec<R>> = Vec::with_capacity(parts);
    // Take from the back to avoid shifting; sizes front-loaded like
    // `even_ranges`.
    let mut sizes: Vec<usize> = (0..parts).map(|i| base + usize::from(i < rem)).collect();
    sizes.reverse();
    for s in sizes {
        let at = records.len() - s;
        out.push(records.split_off(at));
    }
    out.reverse();
    out
}

/// Greedy BFS graph partitioner: grows `parts` connected regions of
/// near-equal vertex count from spread-out seeds. A lightweight stand-in
/// for min-cut tools like METIS (which the paper names as the
/// sophisticated option): on locally-connected graphs it cuts far fewer
/// edges than random partitioning, which is what PIC needs from it.
///
/// `adjacency[v]` lists the neighbours of vertex `v`. Returns the
/// partition id of every vertex.
pub fn bfs_graph(adjacency: &[Vec<usize>], parts: usize, seed: u64) -> Vec<usize> {
    assert!(parts > 0, "need at least one partition");
    let n = adjacency.len();
    if n == 0 {
        return Vec::new();
    }
    let target = n.div_ceil(parts);
    let mut assignment = vec![usize::MAX; n];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);

    let mut sizes = vec![0usize; parts];
    let mut frontier: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let mut next_seed = 0usize;

    for (p, size) in sizes.iter_mut().enumerate() {
        // Seed this region at the first unassigned vertex in shuffled order.
        while next_seed < n && assignment[order[next_seed]] != usize::MAX {
            next_seed += 1;
        }
        if next_seed >= n {
            break;
        }
        let s = order[next_seed];
        assignment[s] = p;
        *size = 1;
        frontier.clear();
        frontier.push_back(s);
        while *size < target {
            let Some(v) = frontier.pop_front() else { break };
            for &u in &adjacency[v] {
                if assignment[u] == usize::MAX && *size < target {
                    assignment[u] = p;
                    *size += 1;
                    frontier.push_back(u);
                }
            }
        }
    }

    // Disconnected leftovers: round-robin onto the smallest partitions.
    for slot in assignment.iter_mut() {
        if *slot == usize::MAX {
            let p = (0..parts).min_by_key(|&p| sizes[p]).expect("parts > 0");
            *slot = p;
            sizes[p] += 1;
        }
    }
    assignment
}

/// Count edges cut by a vertex partition (each undirected edge counted
/// once; for directed adjacency pass each arc once).
pub fn edges_cut(adjacency: &[Vec<usize>], assignment: &[usize]) -> usize {
    adjacency
        .iter()
        .enumerate()
        .flat_map(|(v, ns)| ns.iter().map(move |&u| (v, u)))
        .filter(|&(v, u)| assignment[v] != assignment[u])
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_partition_is_balanced_and_total() {
        let parts = random(0..103u32, 5, 42);
        assert_eq!(parts.len(), 5);
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 103);
        assert!(sizes.iter().all(|&s| s == 20 || s == 21));
        let mut all: Vec<u32> = parts.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn random_partition_is_deterministic() {
        let a = random(0..50u32, 4, 7);
        let b = random(0..50u32, 4, 7);
        assert_eq!(a, b);
        let c = random(0..50u32, 4, 8);
        assert_ne!(a, c, "different seed should reshuffle");
    }

    #[test]
    fn chunked_preserves_order() {
        let parts = chunked(0..10u32, 3);
        assert_eq!(parts, vec![vec![0, 1, 2, 3], vec![4, 5, 6], vec![7, 8, 9]]);
    }

    #[test]
    fn by_key_groups() {
        let parts = by_key(0..12u64, 3, |r| *r);
        for (p, group) in parts.iter().enumerate() {
            for r in group {
                assert_eq!(*r as usize % 3, p);
            }
        }
    }

    #[test]
    fn empty_input_yields_empty_partitions() {
        let parts: Vec<Vec<u32>> = random(Vec::new(), 4, 0);
        assert_eq!(parts.len(), 4);
        assert!(parts.iter().all(Vec::is_empty));
    }

    /// Two cliques joined by one bridge edge: BFS should cut ~1 edge,
    /// random cuts ~half.
    #[test]
    fn bfs_beats_random_on_clustered_graph() {
        let k = 20;
        let n = 2 * k;
        let mut adj = vec![Vec::new(); n];
        for a in 0..k {
            for b in 0..k {
                if a != b {
                    adj[a].push(b);
                    adj[k + a].push(k + b);
                }
            }
        }
        adj[0].push(k);
        adj[k].push(0);

        let bfs = bfs_graph(&adj, 2, 1);
        let cut_bfs = edges_cut(&adj, &bfs);

        let mut rng_assign = vec![0usize; n];
        for (i, a) in rng_assign.iter_mut().enumerate() {
            *a = (i * 7 + 3) % 2; // deterministic pseudo-random split
        }
        let cut_rand = edges_cut(&adj, &rng_assign);
        assert!(
            cut_bfs < cut_rand / 4,
            "bfs cut {cut_bfs} should be far below random cut {cut_rand}"
        );
    }

    #[test]
    fn bfs_assigns_every_vertex() {
        let adj = vec![vec![], vec![], vec![]]; // fully disconnected
        let a = bfs_graph(&adj, 2, 0);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|&p| p < 2));
    }

    #[test]
    fn bfs_partitions_are_balanced() {
        // Path graph of 100 vertices into 4 parts.
        let n = 100;
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|v| {
                let mut ns = Vec::new();
                if v > 0 {
                    ns.push(v - 1);
                }
                if v + 1 < n {
                    ns.push(v + 1);
                }
                ns
            })
            .collect();
        let a = bfs_graph(&adj, 4, 3);
        let mut sizes = [0usize; 4];
        for &p in &a {
            sizes[p] += 1;
        }
        for s in sizes {
            assert!((15..=35).contains(&s), "sizes {sizes:?}");
        }
    }
}
