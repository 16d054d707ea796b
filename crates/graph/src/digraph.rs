use crate::{EdgeId, VertexId};

/// A directed edge with integer capacity and cost (the flow problems of
/// §2.4 use integral capacities `1..=U` and costs `1..=W`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiEdge {
    /// Tail (edge leaves this vertex).
    pub from: VertexId,
    /// Head (edge enters this vertex).
    pub to: VertexId,
    /// Capacity (non-negative).
    pub capacity: i64,
    /// Cost per unit of flow.
    pub cost: i64,
}

/// A directed multigraph on vertices `0..n` with integer capacities and
/// costs. Parallel and anti-parallel edges are allowed; self-loops are not.
#[derive(Debug, Clone, Default)]
pub struct DiGraph {
    n: usize,
    edges: Vec<DiEdge>,
    out_adj: Vec<Vec<EdgeId>>,
    in_adj: Vec<Vec<EdgeId>>,
}

impl DiGraph {
    /// Creates an empty directed graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            edges: Vec::new(),
            out_adj: vec![Vec::new(); n],
            in_adj: vec![Vec::new(); n],
        }
    }

    /// Builds a graph from `(from, to, capacity)` triples with zero costs.
    ///
    /// # Panics
    ///
    /// Same conditions as [`DiGraph::add_edge`].
    pub fn from_capacities(n: usize, edges: &[(VertexId, VertexId, i64)]) -> Self {
        let mut g = Self::new(n);
        for &(u, v, c) in edges {
            g.add_edge(u, v, c, 0);
        }
        g
    }

    /// Adds a directed edge and returns its id.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints, self-loops, or negative capacity.
    pub fn add_edge(&mut self, from: VertexId, to: VertexId, capacity: i64, cost: i64) -> EdgeId {
        assert!(
            from < self.n && to < self.n,
            "edge ({from},{to}) out of range"
        );
        assert_ne!(from, to, "self-loops are not allowed");
        assert!(
            capacity >= 0,
            "capacity must be non-negative, got {capacity}"
        );
        let id = self.edges.len();
        self.edges.push(DiEdge {
            from,
            to,
            capacity,
            cost,
        });
        self.out_adj[from].push(id);
        self.in_adj[to].push(id);
        id
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn edge(&self, e: EdgeId) -> DiEdge {
        self.edges[e]
    }

    /// All edges in insertion order.
    pub fn edges(&self) -> &[DiEdge] {
        &self.edges
    }

    /// Ids of edges leaving `v`.
    pub fn out_edges(&self, v: VertexId) -> &[EdgeId] {
        &self.out_adj[v]
    }

    /// Ids of edges entering `v`.
    pub fn in_edges(&self, v: VertexId) -> &[EdgeId] {
        &self.in_adj[v]
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_adj[v].len()
    }

    /// Largest capacity `U` (`0` for the empty graph).
    pub fn max_capacity(&self) -> i64 {
        self.edges.iter().map(|e| e.capacity).max().unwrap_or(0)
    }

    /// Largest absolute cost `W` (`0` for the empty graph).
    pub fn max_abs_cost(&self) -> i64 {
        self.edges.iter().map(|e| e.cost.abs()).max().unwrap_or(0)
    }

    /// Checks a flow vector for capacity feasibility and conservation with
    /// respect to demand `sigma` (`Σσ = 0`; positive demand = excess supply
    /// that must leave the vertex). Returns `true` iff
    /// `0 ≤ f_e ≤ cap_e` and `Σ_out f − Σ_in f = σ(v)` for every vertex.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch.
    pub fn is_feasible_flow(&self, flow: &[i64], sigma: &[i64]) -> bool {
        assert_eq!(flow.len(), self.m(), "flow length mismatch");
        assert_eq!(sigma.len(), self.n, "demand length mismatch");
        for (f, e) in flow.iter().zip(&self.edges) {
            if *f < 0 || *f > e.capacity {
                return false;
            }
        }
        let mut net = vec![0i64; self.n];
        for (f, e) in flow.iter().zip(&self.edges) {
            net[e.from] += f;
            net[e.to] -= f;
        }
        net.iter().zip(sigma).all(|(a, b)| a == b)
    }

    /// Value of an `s`-`t` flow: net flow out of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `flow.len() != m` or `s` out of range.
    pub fn flow_value(&self, flow: &[i64], s: VertexId) -> i64 {
        assert_eq!(flow.len(), self.m(), "flow length mismatch");
        assert!(s < self.n, "source out of range");
        let mut v = 0;
        for (f, e) in flow.iter().zip(&self.edges) {
            if e.from == s {
                v += f;
            }
            if e.to == s {
                v -= f;
            }
        }
        v
    }

    /// Total cost `Σ c_e f_e` of a flow.
    ///
    /// # Panics
    ///
    /// Panics if `flow.len() != m`.
    pub fn flow_cost(&self, flow: &[i64]) -> i64 {
        assert_eq!(flow.len(), self.m(), "flow length mismatch");
        flow.iter().zip(&self.edges).map(|(f, e)| f * e.cost).sum()
    }

    /// The demand vector of a maximum-flow instance: `+F` at `s`, `−F` at
    /// `t`, `0` elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is out of range or `s == t`.
    pub fn st_demand(&self, s: VertexId, t: VertexId, value: i64) -> Vec<i64> {
        assert!(s < self.n && t < self.n && s != t, "bad terminals");
        let mut sigma = vec![0i64; self.n];
        sigma[s] = value;
        sigma[t] = -value;
        sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // s=0 → {1,2} → t=3
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1, 2, 1);
        g.add_edge(0, 2, 1, 3);
        g.add_edge(1, 3, 1, 1);
        g.add_edge(2, 3, 2, 1);
        g
    }

    #[test]
    fn adjacency_structure() {
        let g = diamond();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_edges(3).len(), 2);
        assert_eq!(g.out_edges(0), &[0, 1]);
        assert_eq!(g.max_capacity(), 2);
        assert_eq!(g.max_abs_cost(), 3);
    }

    #[test]
    fn feasibility_and_value() {
        let g = diamond();
        let flow = vec![1, 1, 1, 1];
        let sigma = g.st_demand(0, 3, 2);
        assert!(g.is_feasible_flow(&flow, &sigma));
        assert_eq!(g.flow_value(&flow, 0), 2);
        assert_eq!(g.flow_cost(&flow), 1 + 3 + 1 + 1);
        // Violating capacity fails.
        assert!(!g.is_feasible_flow(&[3, 0, 0, 0], &g.st_demand(0, 3, 3)));
        // Violating conservation fails.
        assert!(!g.is_feasible_flow(&[1, 0, 0, 0], &g.st_demand(0, 3, 1)));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        DiGraph::new(2).add_edge(1, 1, 1, 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_capacity() {
        DiGraph::new(2).add_edge(0, 1, -1, 0);
    }
}
