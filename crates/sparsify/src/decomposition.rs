//! Deterministic expander decomposition.
//!
//! Substitute for the \[CS20\] black box of Theorem 3.2 (see `DESIGN.md`
//! §2.1): a recursive spectral partitioner. For the current vertex set we
//! compute the exact spectrum of the weighted normalized Laplacian with
//! the dense symmetric eigensolver. If `µ₂ > 2φ`, the easy direction of
//! Cheeger's inequality (every cut has conductance `≥ µ₂/2`) already
//! certifies the piece, so no eigenvector is computed. Otherwise we
//! compute the exact Fiedler vector, try all its sweep cuts, and split
//! when the best sweep cut has weighted conductance below `phi`; if none
//! does, the cluster is final and — because the eigenvector is exact —
//! carries a *certificate* `µ₂ ≥ φ²/2 > 0`. Either way we record the exact
//! `µ₂` and `µ_max`, which is strictly stronger than the conductance
//! guarantee the paper consumes downstream.

use cc_graph::{EdgeId, Graph, VertexId};
use cc_linalg::{normalized_laplacian_dense, symmetric_eigen, symmetric_eigenvalues, LinalgError};

/// A final cluster of the decomposition with its exact spectral certificate.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Global vertex ids of the cluster, ascending.
    pub vertices: Vec<VertexId>,
    /// Ids (in the decomposed graph) of the intra-cluster edges.
    pub edges: Vec<EdgeId>,
    /// Exact second-smallest eigenvalue of the cluster's weighted
    /// normalized Laplacian (`0` for single-vertex or edgeless clusters).
    pub mu2: f64,
    /// Exact largest eigenvalue of the same matrix (`0` if edgeless).
    pub mu_max: f64,
}

impl Cluster {
    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True for a single-vertex cluster.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }
}

/// Result of [`expander_decompose`].
#[derive(Debug, Clone)]
pub struct ExpanderDecomposition {
    /// Final clusters; every vertex appears in exactly one.
    pub clusters: Vec<Cluster>,
    /// Ids of the edges crossing between clusters.
    pub crossing_edges: Vec<EdgeId>,
    /// The conductance threshold used.
    pub phi: f64,
}

impl ExpanderDecomposition {
    /// Human-readable summary: cluster count, size distribution, spectral
    /// gap range, crossing edges — what the `sparsifier_inspect` example
    /// prints.
    pub fn summary(&self) -> String {
        let sizes: Vec<usize> = self.clusters.iter().map(|c| c.len()).collect();
        let max = sizes.iter().copied().max().unwrap_or(0);
        let min = sizes.iter().copied().min().unwrap_or(0);
        let gaps: Vec<f64> = self
            .clusters
            .iter()
            .filter(|c| !c.edges.is_empty())
            .map(|c| c.mu2)
            .collect();
        let gap_min = gaps.iter().copied().fold(f64::INFINITY, f64::min);
        let gap_max = gaps.iter().copied().fold(0.0f64, f64::max);
        format!(
            "{} clusters (sizes {min}..{max}), certified gaps µ2 ∈ [{:.4}, {:.4}], {} crossing edges (φ = {:.4})",
            self.clusters.len(),
            if gap_min.is_finite() { gap_min } else { 0.0 },
            gap_max,
            self.crossing_edges.len(),
            self.phi,
        )
    }

    /// Cluster id per vertex.
    pub fn assignment(&self, n: usize) -> Vec<usize> {
        let mut a = vec![usize::MAX; n];
        for (cid, cl) in self.clusters.iter().enumerate() {
            for &v in &cl.vertices {
                a[v] = cid;
            }
        }
        a
    }
}

/// The default conductance threshold `φ = 1/(8·ln(2 + vol(G)))`, chosen so
/// that (heuristically, and verified by the E2 experiment) each level of
/// the sparsifier construction drops at least half of the remaining edge
/// weight — the role `φ = 1/polylog` plays in \[CGLN+20\].
pub fn default_phi(g: &Graph) -> f64 {
    let vol = 2.0 * g.total_weight();
    1.0 / (8.0 * (2.0 + vol).ln())
}

/// Deterministic expander decomposition of `g` with conductance threshold
/// `phi`.
///
/// Guarantees:
/// * every final cluster with ≥ 2 vertices is connected and carries its
///   exact spectral gap `µ₂` (> 0);
/// * a cluster is only accepted when no sweep cut of its exact Fiedler
///   vector has weighted conductance below `phi`, which by the sweep-cut
///   (Cheeger) inequality certifies `µ₂ ≥ φ²/2`; when `µ₂ > 2φ` the
///   vector is not computed, because then no cut at all has conductance
///   below `µ₂/2 > φ` and the sweep could not have split the cluster;
/// * crossing edges are exactly the edges whose endpoints lie in different
///   clusters.
///
/// Purely internal computation: the congested-clique round cost is charged
/// by the caller ([`crate::build_sparsifier`]) as an oracle phase per
/// Theorem 3.2's formula.
///
/// # Errors
///
/// Propagates a dense eigendecomposition failure (cannot happen for
/// finite positive weights).
///
/// # Panics
///
/// Panics if `phi` is not in `(0, 1)`.
pub fn expander_decompose(g: &Graph, phi: f64) -> Result<ExpanderDecomposition, LinalgError> {
    assert!(phi > 0.0 && phi < 1.0, "phi must be in (0,1), got {phi}");
    let mut clusters = Vec::new();
    // Process the worklist in waves: pieces of one wave are vertex-disjoint
    // and independent, so they fan out across cores (the dense eigensolve
    // per piece dominates the sparsifier build). Each piece's fate depends
    // only on its own vertex set — the recursion tree is independent of
    // processing order — and the cluster list is sorted below, so the
    // result is identical to the sequential worklist's.
    let mut pending: Vec<Vec<VertexId>> = split_components(g, &(0..g.n()).collect::<Vec<_>>());
    while !pending.is_empty() {
        let wave = std::mem::take(&mut pending);
        for outcome in cc_linalg::par::par_map(&wave, |piece| process_piece(g, piece, phi)) {
            match outcome? {
                PieceOutcome::Clusters(cs) => clusters.extend(cs),
                PieceOutcome::Split(pieces) => pending.extend(pieces),
            }
        }
    }
    clusters.sort_by(|a, b| a.vertices.cmp(&b.vertices));
    let n = g.n();
    let mut assignment = vec![usize::MAX; n];
    for (cid, cl) in clusters.iter().enumerate() {
        for &v in &cl.vertices {
            assignment[v] = cid;
        }
    }
    let mut crossing = Vec::new();
    for (id, e) in g.edges().iter().enumerate() {
        if assignment[e.u] != assignment[e.v] {
            crossing.push(id);
        }
    }
    Ok(ExpanderDecomposition {
        clusters,
        crossing_edges: crossing,
        phi,
    })
}

/// What became of one worklist piece.
enum PieceOutcome {
    /// Final clusters (≤ 2 vertices, edgeless singletons, or a certified
    /// expander).
    Clusters(Vec<Cluster>),
    /// The piece was cut (sweep cut or component split); recurse on these.
    Split(Vec<Vec<VertexId>>),
}

/// One step of the decomposition recursion, free of shared mutable state
/// so waves of pieces can run concurrently.
fn process_piece(g: &Graph, vertices: &[VertexId], phi: f64) -> Result<PieceOutcome, LinalgError> {
    if vertices.len() <= 2 {
        return Ok(PieceOutcome::Clusters(vec![finish_cluster(
            g,
            vertices.to_vec(),
        )]));
    }
    let (sub, map) = g.induced(vertices);
    if sub.m() == 0 {
        // Disconnected singletons (shouldn't happen after split) —
        // emit one cluster per vertex.
        return Ok(PieceOutcome::Clusters(
            vertices
                .iter()
                .map(|&v| finish_cluster(g, vec![v]))
                .collect(),
        ));
    }
    let nl = normalized_laplacian_dense(sub.n(), &sub.edge_triples());
    let spectrum = symmetric_eigenvalues(&nl)?;
    let mu2 = spectrum[1];
    let mu_max = *spectrum
        .last()
        .expect("nonempty spectrum for nonempty cluster");
    if mu2 <= 1e-12 {
        // Disconnected: split by components (mapped back to global ids)
        // and retry.
        let comp = sub.components();
        let num = comp.iter().copied().max().map_or(0, |c| c + 1);
        let mut pieces = vec![Vec::new(); num];
        for (local, &c) in comp.iter().enumerate() {
            pieces[c].push(map[local]);
        }
        return Ok(PieceOutcome::Split(pieces));
    }
    let certified = || {
        let mut cl = finish_cluster(g, vertices.to_vec());
        cl.mu2 = mu2;
        cl.mu_max = mu_max;
        PieceOutcome::Clusters(vec![cl])
    };
    if gap_certifies_expander(mu2, phi) {
        return Ok(certified());
    }
    // Sweep the exact Fiedler vector in the degree-weighted embedding.
    let fiedler = symmetric_eigen(&nl)?.eigenvector(1);
    Ok(match best_sweep_cut(&sub, &fiedler) {
        Some((cut_conductance, side)) if cut_conductance < phi => {
            let (mut left, mut right) = (Vec::new(), Vec::new());
            for (local, &global) in map.iter().enumerate() {
                if side[local] {
                    left.push(global);
                } else {
                    right.push(global);
                }
            }
            PieceOutcome::Split(vec![left, right])
        }
        // Certified expander: record exact spectral bounds.
        _ => certified(),
    })
}

/// Relative safety margin of the Cheeger fast path: see
/// [`gap_certifies_expander`].
const CHEEGER_MARGIN: f64 = 1e-6;

/// True when the spectral gap alone proves that no sweep cut can have
/// conductance below `phi`, so the Fiedler vector need not be computed.
///
/// The easy direction of Cheeger's inequality gives every cut `S` of a
/// graph `Φ(S) ≥ µ₂/2` for the normalized Laplacian's `µ₂` (test the
/// Rayleigh quotient on the `D^{1/2}`-weighted, centred indicator of
/// `S`), so
/// `µ₂ > 2φ` rules out every cut below `φ`, sweep cuts included. The
/// margin keeps the fast path clear of the rounding error in the computed
/// `µ₂` and in the sweep's incremental cut sums, so it accepts only pieces
/// the sweep would also accept; accepted gaps in practice clear `2φ` by
/// an order of magnitude.
fn gap_certifies_expander(mu2: f64, phi: f64) -> bool {
    mu2 > 2.0 * phi * (1.0 + CHEEGER_MARGIN)
}

/// Connected components of the subgraph induced on `vertices` (global ids),
/// returned as global id lists.
fn split_components(g: &Graph, vertices: &[VertexId]) -> Vec<Vec<VertexId>> {
    let (sub, map) = g.induced(vertices);
    let comp = sub.components();
    let num = comp.iter().copied().max().map_or(0, |c| c + 1);
    let mut out = vec![Vec::new(); num];
    for (local, &c) in comp.iter().enumerate() {
        out[c].push(map[local]);
    }
    out
}

fn finish_cluster(g: &Graph, mut vertices: Vec<VertexId>) -> Cluster {
    vertices.sort_unstable();
    let inside: std::collections::BTreeSet<VertexId> = vertices.iter().copied().collect();
    let mut edges = Vec::new();
    // Scan incident lists and dedupe by edge id (multigraphs have no
    // usable endpoint-order convention).
    let mut seen = std::collections::BTreeSet::new();
    for &v in &vertices {
        for &(eid, u) in g.adj(v) {
            if inside.contains(&u) && seen.insert(eid) {
                edges.push(eid);
            }
        }
    }
    edges.sort_unstable();
    let (mu2, mu_max) = if edges.is_empty() {
        (0.0, 0.0)
    } else {
        // Exact spectrum for the small direct cases (≤ 2 vertices) or
        // clusters accepted without certification; callers overwrite when a
        // certificate exists. For a 2-vertex weighted cluster the
        // normalized Laplacian spectrum is {0, 2}.
        (2.0, 2.0)
    };
    Cluster {
        vertices,
        edges,
        mu2,
        mu_max,
    }
}

/// Best sweep cut of `vector` on `sub`: vertices sorted by
/// `x_v / √(weighted deg)`, all prefix cuts evaluated by weighted
/// conductance. Returns `(conductance, side)` of the best prefix, or `None`
/// if the graph has < 2 vertices.
fn best_sweep_cut(sub: &Graph, vector: &[f64]) -> Option<(f64, Vec<bool>)> {
    let n = sub.n();
    if n < 2 {
        return None;
    }
    let wdeg: Vec<f64> = (0..n).map(|v| sub.weighted_degree(v)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    let key: Vec<f64> = (0..n)
        .map(|v| {
            if wdeg[v] > 0.0 {
                vector[v] / wdeg[v].sqrt()
            } else {
                f64::INFINITY
            }
        })
        .collect();
    order.sort_by(|&a, &b| {
        key[a]
            .partial_cmp(&key[b])
            .expect("NaN sweep key")
            .then(a.cmp(&b))
    });
    let total_vol: f64 = wdeg.iter().sum();
    let mut in_prefix = vec![false; n];
    let mut vol_s = 0.0;
    let mut cut_w = 0.0;
    let mut best: Option<(f64, usize)> = None;
    for (k, &v) in order.iter().enumerate().take(n - 1) {
        in_prefix[v] = true;
        vol_s += wdeg[v];
        // Update crossing weight: edges from v to the other side gain, to
        // the prefix side lose.
        for &(eid, u) in sub.adj(v) {
            let w = sub.edge(eid).weight;
            if in_prefix[u] {
                cut_w -= w;
            } else {
                cut_w += w;
            }
        }
        let denom = vol_s.min(total_vol - vol_s);
        if denom <= 0.0 {
            continue;
        }
        let cond = cut_w / denom;
        if best.is_none_or(|(bc, _)| cond < bc) {
            best = Some((cond, k));
        }
    }
    let (cond, k) = best?;
    let mut side = vec![false; n];
    for &v in order.iter().take(k + 1) {
        side[v] = true;
    }
    Some((cond, side))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators;

    #[test]
    fn barbell_splits_into_two_cliques() {
        let g = generators::barbell(6);
        let dec = expander_decompose(&g, 0.2).unwrap();
        assert_eq!(dec.clusters.len(), 2);
        assert_eq!(dec.crossing_edges.len(), 1);
        let mut sizes: Vec<usize> = dec.clusters.iter().map(|c| c.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![6, 6]);
        for cl in &dec.clusters {
            assert!(
                cl.mu2 > 0.2 * 0.2 / 2.0,
                "certificate µ2={} too small",
                cl.mu2
            );
        }
    }

    #[test]
    fn expander_stays_whole() {
        let g = generators::expander(32);
        let phi = default_phi(&g);
        let dec = expander_decompose(&g, phi).unwrap();
        assert_eq!(dec.clusters.len(), 1);
        assert!(dec.crossing_edges.is_empty());
        assert!(dec.clusters[0].mu2 > 0.0);
        assert!(dec.clusters[0].mu_max <= 2.0 + 1e-9);
    }

    #[test]
    fn disconnected_graph_splits_by_component() {
        let mut g = Graph::new(6);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(3, 4, 1.0);
        let dec = expander_decompose(&g, 0.1).unwrap();
        // {0,1,2}, {3,4}, {5}
        assert_eq!(dec.clusters.len(), 3);
        assert!(dec.crossing_edges.is_empty());
        let assignment = dec.assignment(6);
        assert_eq!(assignment[0], assignment[1]);
        assert_ne!(assignment[0], assignment[3]);
    }

    #[test]
    fn every_vertex_in_exactly_one_cluster() {
        let g = generators::random_connected(40, 60, 4, 3);
        let dec = expander_decompose(&g, default_phi(&g)).unwrap();
        let mut count = vec![0usize; 40];
        for cl in &dec.clusters {
            for &v in &cl.vertices {
                count[v] += 1;
            }
        }
        assert!(count.iter().all(|&c| c == 1));
    }

    #[test]
    fn crossing_edges_cross_and_cluster_edges_do_not() {
        let g = generators::random_connected(30, 80, 2, 9);
        let dec = expander_decompose(&g, 0.3).unwrap();
        let assignment = dec.assignment(30);
        for &e in &dec.crossing_edges {
            let edge = g.edge(e);
            assert_ne!(assignment[edge.u], assignment[edge.v]);
        }
        for cl in &dec.clusters {
            for &e in &cl.edges {
                let edge = g.edge(e);
                assert_eq!(assignment[edge.u], assignment[edge.v]);
            }
        }
        // Edge partition: crossing + intra == m.
        let intra: usize = dec.clusters.iter().map(|c| c.edges.len()).sum();
        assert_eq!(intra + dec.crossing_edges.len(), g.m());
    }

    #[test]
    fn certificates_match_exhaustive_conductance_cheeger() {
        // On a small graph, certified µ2 must satisfy µ2 ≤ 2·Φ(G)
        // (Cheeger upper) for single-cluster outcomes.
        let g = generators::cycle(10);
        let dec = expander_decompose(&g, 0.01).unwrap();
        if dec.clusters.len() == 1 {
            let phi_exact = g.conductance_exact();
            assert!(dec.clusters[0].mu2 <= 2.0 * phi_exact + 1e-9);
        }
    }

    #[test]
    fn grid_decomposition_with_large_phi_cuts_something() {
        let g = generators::grid(6, 6);
        let dec = expander_decompose(&g, 0.45).unwrap();
        assert!(dec.clusters.len() > 1, "grid should not be a 0.45-expander");
    }

    /// The decomposition without the Cheeger fast path: every piece with
    /// `µ₂ > 1e-12` is decided by the sweep of its exact Fiedler vector.
    /// Returns the clusters (sorted as `expander_decompose` sorts them).
    fn sweep_only_decompose(g: &Graph, phi: f64) -> Vec<Cluster> {
        let mut clusters = Vec::new();
        let mut pending = split_components(g, &(0..g.n()).collect::<Vec<_>>());
        while let Some(piece) = pending.pop() {
            let (sub, map) = g.induced(&piece);
            if piece.len() <= 2 || sub.m() == 0 {
                match process_piece(g, &piece, phi).unwrap() {
                    PieceOutcome::Clusters(cs) => clusters.extend(cs),
                    PieceOutcome::Split(_) => unreachable!("small pieces are final"),
                }
                continue;
            }
            let nl = normalized_laplacian_dense(sub.n(), &sub.edge_triples());
            let eig = symmetric_eigen(&nl).unwrap();
            let mu2 = eig.eigenvalues()[1];
            if mu2 <= 1e-12 {
                pending.extend(split_components(g, &piece));
                continue;
            }
            match best_sweep_cut(&sub, &eig.eigenvector(1)) {
                Some((cond, side)) if cond < phi => {
                    let (mut left, mut right) = (Vec::new(), Vec::new());
                    for (local, &global) in map.iter().enumerate() {
                        if side[local] {
                            left.push(global);
                        } else {
                            right.push(global);
                        }
                    }
                    pending.push(left);
                    pending.push(right);
                }
                _ => {
                    let mut cl = finish_cluster(g, piece);
                    cl.mu2 = mu2;
                    cl.mu_max = eig.largest().unwrap();
                    clusters.push(cl);
                }
            }
        }
        clusters.sort_by(|a, b| a.vertices.cmp(&b.vertices));
        clusters
    }

    /// Every cluster the fast path accepted has no sweep cut below `phi`
    /// under its exact Fiedler vector, and the whole decomposition equals
    /// the sweep-only one bit for bit. Returns how many clusters took the
    /// fast path.
    fn assert_fast_path_matches_sweep(g: &Graph, phi: f64) -> usize {
        let dec = expander_decompose(g, phi).unwrap();
        let mut fast = 0;
        for cl in dec.clusters.iter().filter(|c| c.len() > 2) {
            if !gap_certifies_expander(cl.mu2, phi) {
                continue;
            }
            fast += 1;
            let (sub, _) = g.induced(&cl.vertices);
            let nl = normalized_laplacian_dense(sub.n(), &sub.edge_triples());
            let eig = symmetric_eigen(&nl).unwrap();
            assert_eq!(eig.eigenvalues()[1].to_bits(), cl.mu2.to_bits());
            assert_eq!(eig.largest().unwrap().to_bits(), cl.mu_max.to_bits());
            let (cond, _) = best_sweep_cut(&sub, &eig.eigenvector(1)).unwrap();
            assert!(
                cond >= phi,
                "fast path accepted a sweep cut {cond} < φ = {phi}"
            );
        }
        let reference = sweep_only_decompose(g, phi);
        assert_eq!(dec.clusters.len(), reference.len());
        for (got, want) in dec.clusters.iter().zip(&reference) {
            assert_eq!(got.vertices, want.vertices);
            assert_eq!(got.edges, want.edges);
            assert_eq!(got.mu2.to_bits(), want.mu2.to_bits());
            assert_eq!(got.mu_max.to_bits(), want.mu_max.to_bits());
        }
        fast
    }

    #[test]
    fn cheeger_fast_path_agrees_with_the_sweep() {
        let cases = [
            (generators::barbell(6), None),
            (generators::barbell(9), Some(0.2)),
            (generators::grid(6, 6), None),
            (generators::grid(6, 6), Some(0.45)),
            (generators::cycle(10), Some(0.01)),
            (generators::expander(32), None),
            (generators::expander(64), None),
            (generators::random_connected(40, 60, 4, 3), None),
            (generators::random_connected(30, 80, 2, 9), Some(0.3)),
            (generators::random_connected(48, 300, 16, 5), None),
        ];
        let mut fast = 0;
        for (g, phi) in &cases {
            fast += assert_fast_path_matches_sweep(g, phi.unwrap_or_else(|| default_phi(g)));
        }
        assert!(fast > 0, "no case exercised the fast path");
    }

    #[test]
    fn cheeger_fast_path_borderline_runs_both_branches() {
        let g = generators::expander(32);
        let nl = normalized_laplacian_dense(g.n(), &g.edge_triples());
        let mu2 = symmetric_eigenvalues(&nl).unwrap()[1];
        // φ just below µ₂/2: the gap certifies the whole graph.
        let below = mu2 / 2.0 * (1.0 - 1e-4);
        assert!(gap_certifies_expander(mu2, below));
        assert_eq!(assert_fast_path_matches_sweep(&g, below), 1);
        // φ just above µ₂/2: the gap proves nothing, so the Fiedler sweep
        // decides, exactly as before.
        let above = mu2 / 2.0 * (1.0 + 1e-4);
        assert!(!gap_certifies_expander(mu2, above));
        assert_fast_path_matches_sweep(&g, above);
    }

    #[test]
    #[should_panic(expected = "phi must be in")]
    fn rejects_bad_phi() {
        let g = generators::cycle(4);
        let _ = expander_decompose(&g, 1.5);
    }
}
