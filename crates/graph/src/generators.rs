//! Deterministic (seeded) workload generators.
//!
//! The paper's algorithms are deterministic; every use of randomness in
//! this repository is confined to *instance generation* here, always
//! through a caller-supplied seed, so experiments are exactly reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{DiGraph, Graph, VertexId};

/// Path `0 − 1 − … − (n−1)` with unit weights.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn path(n: usize) -> Graph {
    assert!(n >= 2);
    Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1, 1.0)).collect::<Vec<_>>())
}

/// Cycle on `n ≥ 3` vertices with unit weights.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3);
    Graph::from_edges(
        n,
        &(0..n).map(|i| (i, (i + 1) % n, 1.0)).collect::<Vec<_>>(),
    )
}

/// Complete graph `K_n` with unit weights.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn complete(n: usize) -> Graph {
    assert!(n >= 2);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((u, v, 1.0));
        }
    }
    Graph::from_edges(n, &edges)
}

/// Star with center `0` and `n−1` leaves, unit weights.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2);
    Graph::from_edges(n, &(1..n).map(|v| (0, v, 1.0)).collect::<Vec<_>>())
}

/// 2D grid graph with unit weights; vertex `(r, c)` is `r·cols + c`.
///
/// # Panics
///
/// Panics if either dimension is zero or the grid has fewer than 2 vertices.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 1 && cols >= 1 && rows * cols >= 2);
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                edges.push((v, v + 1, 1.0));
            }
            if r + 1 < rows {
                edges.push((v, v + cols, 1.0));
            }
        }
    }
    Graph::from_edges(rows * cols, &edges)
}

/// Circulant graph: vertex `i` connected to `i ± o` for each offset `o`.
/// With offsets `{1, 2, 4, …}` this is a standard deterministic expander
/// family used as a well-conditioned workload.
///
/// # Panics
///
/// Panics if `n < 3`, offsets are empty, or an offset is `0` or `≥ n/2+1`.
pub fn circulant(n: usize, offsets: &[usize]) -> Graph {
    assert!(n >= 3 && !offsets.is_empty());
    let mut edges = Vec::new();
    for &o in offsets {
        assert!(o >= 1 && 2 * o <= n, "offset {o} invalid for n={n}");
        for i in 0..n {
            let j = (i + o) % n;
            // Avoid double-adding the antipodal matching when 2o == n.
            if 2 * o == n && i >= j {
                continue;
            }
            edges.push((i, j, 1.0));
        }
    }
    Graph::from_edges(n, &edges)
}

/// A deterministic expander: circulant with offsets `1, 2, 4, …, 2^⌊log n/2⌋`.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn expander(n: usize) -> Graph {
    let mut offsets = Vec::new();
    let mut o = 1usize;
    while 2 * o <= n {
        offsets.push(o);
        o *= 2;
    }
    circulant(n, &offsets)
}

/// Two cliques of size `k` joined by a single bridge edge — the canonical
/// "two communities" instance for expander decomposition.
///
/// # Panics
///
/// Panics if `k < 2`.
pub fn barbell(k: usize) -> Graph {
    assert!(k >= 2);
    let mut edges = Vec::new();
    for base in [0, k] {
        for u in 0..k {
            for v in (u + 1)..k {
                edges.push((base + u, base + v, 1.0));
            }
        }
    }
    edges.push((k - 1, k, 1.0));
    Graph::from_edges(2 * k, &edges)
}

/// Connected random graph: a random recursive spanning tree plus
/// `extra_edges` random distinct non-tree edges, with integer weights drawn
/// uniformly from `1..=max_weight`.
///
/// # Panics
///
/// Panics if `n < 2` or `max_weight < 1`.
pub fn random_connected(n: usize, extra_edges: usize, max_weight: u64, seed: u64) -> Graph {
    assert!(n >= 2 && max_weight >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chosen = std::collections::BTreeSet::new();
    for v in 1..n {
        let u = rng.gen_range(0..v);
        chosen.insert((u, v));
    }
    let max_extra = n * (n - 1) / 2 - chosen.len();
    let extra = extra_edges.min(max_extra);
    let mut added = 0;
    while added < extra {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v && chosen.insert((u.min(v), u.max(v))) {
            added += 1;
        }
    }
    let edges: Vec<_> = chosen
        .into_iter()
        .map(|(u, v)| (u, v, rng.gen_range(1..=max_weight) as f64))
        .collect();
    Graph::from_edges(n, &edges)
}

/// Random Eulerian multigraph: the union of `num_cycles` random simple
/// cycles (each on `3..=n` random distinct vertices). Every vertex has even
/// degree by construction — the workload of experiment E4.
///
/// # Panics
///
/// Panics if `n < 3` or `num_cycles == 0`.
pub fn random_eulerian(n: usize, num_cycles: usize, seed: u64) -> Graph {
    assert!(n >= 3 && num_cycles >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    for _ in 0..num_cycles {
        let len = rng.gen_range(3..=n);
        // Random distinct vertices via partial Fisher-Yates.
        let mut perm: Vec<VertexId> = (0..n).collect();
        for i in 0..len {
            let j = rng.gen_range(i..n);
            perm.swap(i, j);
        }
        for i in 0..len {
            g.add_edge(perm[i], perm[(i + 1) % len], 1.0);
        }
    }
    g
}

/// Random directed `s`-`t` flow network on `n` vertices: a guaranteed
/// backbone path `0 → 1 → … → n−1` plus `extra_edges` random directed
/// edges, with capacities uniform in `1..=max_capacity`. Source is `0`,
/// sink is `n−1`.
///
/// # Panics
///
/// Panics if `n < 2` or `max_capacity < 1`.
pub fn random_flow_network(n: usize, extra_edges: usize, max_capacity: i64, seed: u64) -> DiGraph {
    assert!(n >= 2 && max_capacity >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::new(n);
    for v in 0..n - 1 {
        g.add_edge(v, v + 1, rng.gen_range(1..=max_capacity), 0);
    }
    let mut added = 0;
    let mut guard = 0;
    while added < extra_edges && guard < 100 * extra_edges + 100 {
        guard += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            g.add_edge(u, v, rng.gen_range(1..=max_capacity), 0);
            added += 1;
        }
    }
    g
}

/// Random unit-capacity directed graph with costs in `1..=max_cost`
/// (the workload of Theorem 1.3). Includes a backbone path so every vertex
/// is reachable from vertex 0.
///
/// # Panics
///
/// Panics if `n < 2` or `max_cost < 1`.
pub fn random_unit_digraph(n: usize, extra_edges: usize, max_cost: i64, seed: u64) -> DiGraph {
    assert!(n >= 2 && max_cost >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::new(n);
    for v in 0..n - 1 {
        g.add_edge(v, v + 1, 1, rng.gen_range(1..=max_cost));
    }
    let mut added = 0;
    let mut guard = 0;
    while added < extra_edges && guard < 100 * extra_edges + 100 {
        guard += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            g.add_edge(u, v, 1, rng.gen_range(1..=max_cost));
            added += 1;
        }
    }
    g
}

/// Bipartite assignment instance as unit-capacity min-cost flow:
/// `k` workers (vertices `0..k`, demand `+1`) and `k` jobs (vertices
/// `k..2k`, demand `−1`), a perfect matching backbone plus
/// `extra_edges_per_worker` random worker→job edges, costs uniform in
/// `1..=max_cost`. Returns the graph and the demand vector.
///
/// # Panics
///
/// Panics if `k < 1` or `max_cost < 1`.
pub fn bipartite_assignment(
    k: usize,
    extra_edges_per_worker: usize,
    max_cost: i64,
    seed: u64,
) -> (DiGraph, Vec<i64>) {
    assert!(k >= 1 && max_cost >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::new(2 * k);
    for w in 0..k {
        g.add_edge(w, k + w, 1, rng.gen_range(1..=max_cost));
        for _ in 0..extra_edges_per_worker {
            let j = rng.gen_range(0..k);
            if j != w {
                g.add_edge(w, k + j, 1, rng.gen_range(1..=max_cost));
            }
        }
    }
    let mut sigma = vec![0i64; 2 * k];
    for w in 0..k {
        sigma[w] = 1;
        sigma[k + w] = -1;
    }
    (g, sigma)
}

/// Directed grid "road network": `rows × cols` junctions; each grid edge
/// becomes a pair of anti-parallel directed edges with capacities uniform
/// in `1..=max_capacity`. Source is the north-west corner, sink the
/// south-east corner.
///
/// # Panics
///
/// Panics if either dimension is `< 2` or `max_capacity < 1`.
pub fn grid_flow_network(rows: usize, cols: usize, max_capacity: i64, seed: u64) -> DiGraph {
    assert!(rows >= 2 && cols >= 2 && max_capacity >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::new(rows * cols);
    let both = |g: &mut DiGraph, u: usize, v: usize, rng: &mut StdRng| {
        g.add_edge(u, v, rng.gen_range(1..=max_capacity), 0);
        g.add_edge(v, u, rng.gen_range(1..=max_capacity), 0);
    };
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                both(&mut g, v, v + 1, &mut rng);
            }
            if r + 1 < rows {
                both(&mut g, v, v + cols, &mut rng);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_invariants_of_fixed_families() {
        assert_eq!(path(5).m(), 4);
        assert_eq!(cycle(6).m(), 6);
        assert!(cycle(6).is_eulerian());
        assert_eq!(complete(5).m(), 10);
        assert_eq!(star(7).degree(0), 6);
        let g = grid(3, 4);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4);
        assert!(g.is_connected());
    }

    #[test]
    fn circulant_and_expander_are_regular_and_connected() {
        let g = expander(32);
        assert!(g.is_connected());
        let d0 = g.degree(0);
        assert!((0..32).all(|v| g.degree(v) == d0));
        // Odd n with antipodal-free offsets.
        let c = circulant(9, &[1, 2]);
        assert!((0..9).all(|v| c.degree(v) == 4));
    }

    #[test]
    fn circulant_handles_antipodal_offset() {
        let c = circulant(6, &[3]);
        assert_eq!(c.m(), 3); // perfect matching, not doubled
        assert!((0..6).all(|v| c.degree(v) == 1));
    }

    #[test]
    fn barbell_has_bridge() {
        let g = barbell(4);
        assert_eq!(g.n(), 8);
        assert_eq!(g.m(), 2 * 6 + 1);
        assert!(g.is_connected());
        let side: Vec<bool> = (0..8).map(|v| v < 4).collect();
        assert_eq!(g.cut_size(&side), 1);
    }

    #[test]
    fn random_generators_are_deterministic_per_seed() {
        let a = random_connected(20, 15, 8, 42);
        let b = random_connected(20, 15, 8, 42);
        assert_eq!(a.edge_triples(), b.edge_triples());
        let c = random_connected(20, 15, 8, 43);
        assert_ne!(a.edge_triples(), c.edge_triples());
    }

    #[test]
    fn random_connected_is_connected_with_requested_size() {
        for seed in 0..5 {
            let g = random_connected(25, 30, 4, seed);
            assert!(g.is_connected());
            assert_eq!(g.m(), 24 + 30);
            assert!(g.max_weight() <= 4.0);
        }
    }

    #[test]
    fn random_eulerian_has_even_degrees() {
        for seed in 0..5 {
            let g = random_eulerian(12, 4, seed);
            assert!(g.is_eulerian(), "seed {seed}");
        }
    }

    #[test]
    fn flow_network_has_backbone() {
        let g = random_flow_network(8, 12, 5, 3);
        assert_eq!(g.m(), 7 + 12);
        assert!(g.max_capacity() <= 5);
        // Backbone guarantees positive max flow from 0 to n-1.
        assert!(g.out_degree(0) >= 1);
    }

    #[test]
    fn unit_digraph_has_unit_capacities() {
        let g = random_unit_digraph(10, 20, 9, 5);
        assert!(g.edges().iter().all(|e| e.capacity == 1));
        assert!(g.max_abs_cost() <= 9);
    }

    #[test]
    fn assignment_instance_balances_demands() {
        let (g, sigma) = bipartite_assignment(6, 2, 10, 11);
        assert_eq!(sigma.iter().sum::<i64>(), 0);
        assert!(g.edges().iter().all(|e| e.from < 6 && e.to >= 6));
        // Backbone matching makes the instance feasible: routing 1 unit on
        // every worker's first edge satisfies all demands.
        let mut flow = vec![0i64; g.m()];
        for w in 0..6 {
            flow[g.out_edges(w)[0]] = 1;
        }
        assert!(g.is_feasible_flow(&flow, &sigma));
    }

    #[test]
    fn expander_has_positive_exhaustive_conductance() {
        let g = expander(12);
        assert!(g.conductance_exact() > 0.2, "expander family must expand");
    }

    #[test]
    fn random_eulerian_stays_in_range() {
        let g = random_eulerian(5, 2, 9);
        assert!(g.edges().iter().all(|e| e.u < 5 && e.v < 5));
        assert!(g.m() >= 6); // two cycles of length >= 3
    }

    #[test]
    fn grid_flow_network_shape() {
        let g = grid_flow_network(3, 3, 4, 1);
        assert_eq!(g.n(), 9);
        assert_eq!(g.m(), 2 * (2 * 3 + 2 * 3));
    }
}
