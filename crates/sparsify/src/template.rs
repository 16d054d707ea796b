//! Sparsifier templates: reuse the expander decomposition across weight
//! changes.
//!
//! The interior point methods solve hundreds of Laplacian systems whose
//! graphs share one edge support and differ only in weights (resistances
//! change every step). The decomposition's *cluster structure* depends on
//! weights, but any fixed partition stays **correct** for new weights —
//! only the certified per-cluster `α` moves. A [`SparsifierTemplate`]
//! freezes the cluster structure of one construction and
//! [`SparsifierTemplate::instantiate`]s it for new weights by recomputing
//! the per-cluster spectral certificates exactly (a values-only dense
//! eigensolve, free local computation), skipping the recursive
//! re-decomposition entirely.
//!
//! This is an *extension* beyond the paper (which rebuilds per solve,
//! within its `n^{o(1)}` budget): correctness is unchanged — the
//! instantiated sparsifier carries a freshly certified `α`, it may just be
//! larger than a from-scratch rebuild's when the weights drift far from
//! the template's.

use cc_graph::{EdgeId, Graph, VertexId};
use cc_linalg::{normalized_laplacian_dense, symmetric_eigenvalues};
use cc_model::Communicator;

use crate::error::SparsifyError;
use crate::gadget::ClusterGadget;
use crate::sparsifier::{build_levels, SparsifyParams, SpectralSparsifier};

/// One frozen cluster: its vertices and its intra-cluster edge ids.
#[derive(Debug, Clone)]
pub(crate) struct ClusterTemplate {
    pub(crate) vertices: Vec<VertexId>,
    pub(crate) edges: Vec<EdgeId>,
}

/// One frozen decomposition level.
#[derive(Debug, Clone)]
pub(crate) struct LevelTemplate {
    /// Clusters realized as star gadgets.
    pub(crate) gadget_clusters: Vec<ClusterTemplate>,
    /// Edges kept verbatim at this level (small clusters / backstop).
    pub(crate) direct_edges: Vec<EdgeId>,
}

/// A frozen multi-level cluster structure, instantiable for any weight
/// assignment on the same edge support.
#[derive(Debug, Clone)]
pub struct SparsifierTemplate {
    n: usize,
    m: usize,
    levels: Vec<LevelTemplate>,
}

impl SparsifierTemplate {
    /// Number of original vertices the template was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges of the supporting graph.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of frozen levels.
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Instantiates the template for `g` (same vertex count and edge list
    /// order as the template's source graph; weights may differ).
    ///
    /// Rounds charged: 2 broadcast rounds per level (cluster ids +
    /// weighted degrees) — the decomposition itself is reused, so no
    /// \[CS20\] oracle charge recurs.
    ///
    /// # Errors
    ///
    /// [`SparsifyError::Comm`] on substrate failure;
    /// [`SparsifyError::Factorization`] if a cluster recertification
    /// eigendecomposition fails.
    ///
    /// # Panics
    ///
    /// Panics if `g`'s vertex or edge count differs from the template's,
    /// or `clique.n() < g.n()`.
    pub fn instantiate<C: Communicator>(
        &self,
        clique: &mut C,
        g: &Graph,
    ) -> Result<SpectralSparsifier, SparsifyError> {
        assert_eq!(g.n(), self.n, "template built for a different vertex count");
        assert_eq!(g.m(), self.m, "template built for a different edge support");
        assert!(clique.n() >= g.n(), "clique too small");
        clique.phase("sparsify_from_template", |clique| {
            let mut edges: Vec<(usize, usize, f64)> = Vec::new();
            let mut aux_count = 0usize;
            let mut alpha: f64 = 1.0;
            for level in &self.levels {
                clique.broadcast_all(&vec![0u64; clique.n()])?;
                clique.broadcast_all(&vec![0u64; clique.n()])?;
                for e in &level.direct_edges {
                    let edge = g.edge(*e);
                    edges.push((edge.u, edge.v, edge.weight));
                }
                for cluster in &level.gadget_clusters {
                    // Weighted intra-cluster degrees under the NEW weights.
                    let local: std::collections::BTreeMap<VertexId, usize> = cluster
                        .vertices
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| (v, i))
                        .collect();
                    let k = cluster.vertices.len();
                    let mut triples = Vec::with_capacity(cluster.edges.len());
                    let mut degrees = vec![0.0; k];
                    for &eid in &cluster.edges {
                        let e = g.edge(eid);
                        let (lu, lv) = (local[&e.u], local[&e.v]);
                        triples.push((lu, lv, e.weight));
                        degrees[lu] += e.weight;
                        degrees[lv] += e.weight;
                    }
                    // Exact spectral recertification for the new weights.
                    let nl = normalized_laplacian_dense(k, &triples);
                    let spectrum = symmetric_eigenvalues(&nl)?;
                    let mu2 = spectrum[1].max(1e-12);
                    let mu_max = spectrum.last().copied().unwrap_or(mu2).max(mu2);
                    let gadget =
                        ClusterGadget::new(cluster.vertices.clone(), &degrees, mu2, mu_max);
                    let center = self.n + aux_count;
                    aux_count += 1;
                    alpha = alpha.max(gadget.alpha);
                    gadget.emit_edges(center, &mut edges);
                }
            }
            Ok(SpectralSparsifier::from_parts(
                self.n,
                aux_count,
                edges,
                alpha,
                self.levels.len(),
            ))
        })
    }
}

/// Builds the deterministic sparsifier of Theorem 3.3 **and** the frozen
/// template of its cluster structure, for later
/// [`SparsifierTemplate::instantiate`] calls on reweighted graphs.
///
/// The sparsifier equals [`build_sparsifier`](crate::build_sparsifier)'s
/// (same rounds charged): the template is recorded inside the same level
/// loop, so it adds no communication and no second decomposition.
///
/// # Errors
///
/// Same conditions as [`build_sparsifier`](crate::build_sparsifier).
///
/// # Panics
///
/// Same conditions as [`build_sparsifier`](crate::build_sparsifier).
pub fn build_sparsifier_with_template<C: Communicator>(
    clique: &mut C,
    g: &Graph,
    params: &SparsifyParams,
) -> Result<(SpectralSparsifier, SparsifierTemplate), SparsifyError> {
    let (sparsifier, levels) = build_levels(clique, g, params)?;
    let template = SparsifierTemplate {
        n: g.n(),
        m: g.m(),
        levels,
    };
    Ok((sparsifier, template))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_sparsifier;
    use cc_graph::generators;
    use cc_model::Clique;

    fn reweight(g: &Graph, factor: impl Fn(usize) -> f64) -> Graph {
        let mut out = Graph::new(g.n());
        for (i, e) in g.edges().iter().enumerate() {
            out.add_edge(e.u, e.v, e.weight * factor(i));
        }
        out
    }

    #[test]
    fn instantiating_with_identical_weights_matches_certification() {
        let g = generators::random_connected(32, 120, 4, 5);
        let mut clique = Clique::new(32);
        let (h, template) =
            build_sparsifier_with_template(&mut clique, &g, &SparsifyParams::default()).unwrap();
        let h2 = template.instantiate(&mut clique, &g).unwrap();
        assert_eq!(h.edge_count(), h2.edge_count());
        assert!((h.alpha() - h2.alpha()).abs() < 1e-9);
        let bounds = verify_sparsifier(&g, &h2).unwrap();
        assert!(bounds.alpha() <= h2.alpha() * (1.0 + 1e-6));
    }

    #[test]
    fn reweighted_instances_stay_honestly_certified() {
        let g = generators::random_connected(28, 100, 2, 7);
        let mut clique = Clique::new(28);
        let (_, template) =
            build_sparsifier_with_template(&mut clique, &g, &SparsifyParams::default()).unwrap();
        // Weights drifting by up to 16x, as IPM resistances do.
        for seed in 1..4u64 {
            let g2 = reweight(&g, |i| 1.0 + ((i as u64 * seed) % 16) as f64);
            let h = template.instantiate(&mut clique, &g2).unwrap();
            let bounds = verify_sparsifier(&g2, &h).unwrap();
            assert!(
                bounds.alpha() <= h.alpha() * (1.0 + 1e-6),
                "claimed {} exact {}",
                h.alpha(),
                bounds.alpha()
            );
            // The preconditioner remains usable.
            assert!(h.solver().is_ok());
        }
    }

    #[test]
    fn template_levels_partition_the_original_edges() {
        // Every original edge lands in exactly one level, inside one
        // cluster whose vertices hold both its endpoints — which pins the
        // level-to-original edge id mapping below the first level.
        let strict = SparsifyParams {
            phi: Some(0.3),
            ..Default::default()
        };
        for (g, params) in [
            (generators::barbell(8), SparsifyParams::default()),
            (generators::grid(6, 6), strict),
        ] {
            let mut clique = Clique::new(g.n());
            let (h, template) = build_sparsifier_with_template(&mut clique, &g, &params).unwrap();
            assert_eq!(template.levels(), h.levels());
            assert!(template.levels() >= 2, "case must need several levels");
            let mut seen = vec![0usize; g.m()];
            for level in &template.levels {
                for &e in &level.direct_edges {
                    seen[e] += 1;
                }
                for cluster in &level.gadget_clusters {
                    for &e in &cluster.edges {
                        seen[e] += 1;
                        let edge = g.edge(e);
                        assert!(cluster.vertices.binary_search(&edge.u).is_ok());
                        assert!(cluster.vertices.binary_search(&edge.v).is_ok());
                    }
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "edge multiplicities {seen:?}");
        }
    }

    #[test]
    fn template_instantiation_charges_fewer_rounds_than_rebuild() {
        let g = generators::random_connected(32, 150, 4, 9);
        let mut c1 = Clique::new(32);
        let (_, template) =
            build_sparsifier_with_template(&mut c1, &g, &SparsifyParams::default()).unwrap();
        let build_rounds = c1.ledger().total_rounds();
        let before = c1.ledger().total_rounds();
        let _ = template.instantiate(&mut c1, &g).unwrap();
        let inst_rounds = c1.ledger().total_rounds() - before;
        assert!(
            inst_rounds < build_rounds,
            "instantiate {inst_rounds} vs build {build_rounds}"
        );
        // No oracle charge on instantiation.
        assert_eq!(
            c1.ledger().phase_prefix_total("sparsify_from_template"),
            inst_rounds
        );
    }

    #[test]
    #[should_panic(expected = "different edge support")]
    fn rejects_mismatched_support() {
        let g = generators::cycle(8);
        let mut clique = Clique::new(8);
        let (_, template) =
            build_sparsifier_with_template(&mut clique, &g, &SparsifyParams::default()).unwrap();
        let g2 = generators::path(8);
        let _ = template.instantiate(&mut clique, &g2);
    }
}
