//! The typed request/response surface of the engine.

use cc_graph::{DiGraph, Graph};

/// A graph as registered with the engine. The spec's kind determines
/// which requests the graph can serve:
///
/// * [`GraphSpec::Undirected`] — Laplacian solves and effective
///   resistances;
/// * [`GraphSpec::Directed`] — max flow and min-cost flow, plus SSSP /
///   APSP over the arcs `(from, to, cost)`;
/// * [`GraphSpec::Arcs`] — SSSP / APSP only (weighted directed arcs
///   with no capacity semantics; negative weights allowed).
#[derive(Debug, Clone)]
pub enum GraphSpec {
    /// A positively weighted undirected graph (Laplacian domain).
    Undirected(Graph),
    /// A capacitated, costed directed graph (flow domain).
    Directed(DiGraph),
    /// Bare weighted arcs on vertices `0..n` (shortest-path domain).
    Arcs {
        /// Number of vertices.
        n: usize,
        /// Arcs `(from, to, weight)`.
        arcs: Vec<(usize, usize, i64)>,
    },
}

impl GraphSpec {
    /// Number of vertices of the registered graph.
    pub fn n(&self) -> usize {
        match self {
            GraphSpec::Undirected(g) => g.n(),
            GraphSpec::Directed(g) => g.n(),
            GraphSpec::Arcs { n, .. } => *n,
        }
    }
}

/// One request against a named registered graph.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Solve `L x = b` to relative accuracy `eps` (Theorem 1.1). A `b`
    /// holding NaN or ±∞ is refused as a bad request, charging no rounds.
    /// Batchable: same-graph, same-`eps` solves submitted together are
    /// admitted as one `solve_multi_into` call.
    LaplacianSolve {
        /// Registered undirected graph.
        graph: String,
        /// Right-hand side, one entry per vertex.
        b: Vec<f64>,
        /// Relative accuracy in the `L`-norm.
        eps: f64,
    },
    /// Effective resistance between `s` and `t` (one Laplacian solve
    /// with `b = e_s − e_t`; `R = x_s − x_t`).
    EffectiveResistance {
        /// Registered undirected graph.
        graph: String,
        /// First terminal.
        s: usize,
        /// Second terminal.
        t: usize,
        /// Relative accuracy of the underlying solve.
        eps: f64,
    },
    /// Exact maximum `s`–`t` flow (Theorem 1.2).
    MaxFlow {
        /// Registered directed graph.
        graph: String,
        /// Source.
        s: usize,
        /// Sink.
        t: usize,
    },
    /// Exact minimum-cost flow routing `demands` (Theorem 1.3).
    MinCostFlow {
        /// Registered directed graph.
        graph: String,
        /// Demand per vertex (must sum to zero).
        demands: Vec<i64>,
    },
    /// Single-source shortest paths (Bellman–Ford; negative arcs
    /// allowed).
    Sssp {
        /// Registered directed or arc graph.
        graph: String,
        /// Source vertex.
        source: usize,
    },
    /// All-pairs shortest paths (min-plus squaring). The distance
    /// matrix is memoized per graph generation: the first request pays
    /// the rounds, later ones are free.
    Apsp {
        /// Registered directed or arc graph.
        graph: String,
    },
}

impl Request {
    /// The graph name the request targets.
    pub fn graph(&self) -> &str {
        match self {
            Request::LaplacianSolve { graph, .. }
            | Request::EffectiveResistance { graph, .. }
            | Request::MaxFlow { graph, .. }
            | Request::MinCostFlow { graph, .. }
            | Request::Sssp { graph, .. }
            | Request::Apsp { graph } => graph,
        }
    }
}

/// The value a successful request produced. `PartialEq` compares the
/// payloads exactly (integral flows, distances) or by IEEE equality
/// (potentials, resistances) — sufficient for the bitwise-determinism
/// suites because no response contains NaN.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// [`Request::LaplacianSolve`]: the potential vector and the
    /// Chebyshev iterations (= broadcast rounds) the solve used.
    Potentials {
        /// Solution `x` (kernel-free per connected component).
        x: Vec<f64>,
        /// Chebyshev iterations spent.
        iterations: usize,
    },
    /// [`Request::EffectiveResistance`]: the resistance value. Terminals
    /// in different connected components are answered without a solve:
    /// `value` is `f64::INFINITY`, `iterations` is 0, and the request
    /// charges no rounds.
    Resistance {
        /// `R_eff(s, t) = x_s − x_t` for `L x = e_s − e_t`, or `+∞`
        /// across components.
        value: f64,
        /// Chebyshev iterations spent.
        iterations: usize,
    },
    /// [`Request::MaxFlow`]: an exact maximum flow.
    MaxFlow {
        /// Flow per edge of the registered graph.
        flow: Vec<i64>,
        /// Its `s`–`t` value.
        value: i64,
    },
    /// [`Request::MinCostFlow`]: an exact minimum-cost flow.
    MinCostFlow {
        /// Flow per edge of the registered graph.
        flow: Vec<i64>,
        /// Its total cost.
        cost: i64,
    },
    /// [`Request::Sssp`]: distances, or a negative-cycle verdict.
    Sssp {
        /// Distance per vertex (`None` = unreachable). Empty if a
        /// negative cycle was found.
        dist: Vec<Option<i64>>,
        /// True if a reachable negative cycle was certified.
        negative_cycle: bool,
    },
    /// [`Request::Apsp`]: the full distance matrix, row-major
    /// (`dist[u][v]`, `None` = unreachable).
    Apsp {
        /// Distance matrix.
        dist: Vec<Vec<Option<i64>>>,
    },
}
