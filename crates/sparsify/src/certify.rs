//! Exact certification of sparsifier quality on small instances.
//!
//! The construction already carries a certified `α`; this module provides
//! the *independent* dense verification used by tests and by the E2
//! experiment: compute the Schur complement `S_H` of the gadget graph onto
//! the original vertices, then the extreme generalized eigenvalues of the
//! pencil `(L_G, S_H)` restricted to `range(L_G)`, and check they lie in
//! `[1/α, α]`.

use cc_graph::Graph;
use cc_linalg::{
    laplacian_from_edges, symmetric_eigen, symmetric_eigenvalues, DenseMatrix, LinalgError,
};

use crate::SpectralSparsifier;

/// Extreme generalized eigenvalues of `(A, B)` on the common range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CertifiedBounds {
    /// Smallest generalized eigenvalue `min xᵀAx / xᵀBx` over `range(B)∖{0}`.
    pub min: f64,
    /// Largest generalized eigenvalue.
    pub max: f64,
}

impl CertifiedBounds {
    /// The tightest `α` with `(1/α)B ⪯ A ⪯ αB` given these bounds
    /// (`∞` if the pencil is not sandwiched at all).
    pub fn alpha(&self) -> f64 {
        if self.min <= 0.0 {
            return f64::INFINITY;
        }
        self.max.max(1.0 / self.min)
    }
}

/// Dense Schur complement of the sparsifier's gadget graph onto the
/// original vertices: `S = A_oo − Σ_c w_c w_cᵀ / s_c`, exploiting that star
/// centers are pairwise non-adjacent (diagonal aux–aux block).
pub fn sparsifier_schur_dense(h: &SpectralSparsifier) -> DenseMatrix {
    let n = h.n();
    let total = h.total_vertices();
    let mut a_oo = DenseMatrix::zeros(n, n);
    // Per-center accumulated star weights.
    let mut center_weights: Vec<Vec<(usize, f64)>> = vec![Vec::new(); h.aux_count()];
    for &(u, v, w) in h.edges() {
        let (u_aux, v_aux) = (u >= n, v >= n);
        assert!(u < total && v < total, "gadget edge out of range");
        match (u_aux, v_aux) {
            (false, false) => {
                a_oo.add_to(u, u, w);
                a_oo.add_to(v, v, w);
                a_oo.add_to(u, v, -w);
                a_oo.add_to(v, u, -w);
            }
            (false, true) => {
                a_oo.add_to(u, u, w);
                center_weights[v - n].push((u, w));
            }
            (true, false) => {
                a_oo.add_to(v, v, w);
                center_weights[u - n].push((v, w));
            }
            (true, true) => panic!("star centers must not be adjacent"),
        }
    }
    for ws in &center_weights {
        let s: f64 = ws.iter().map(|&(_, w)| w).sum();
        if s <= 0.0 {
            continue;
        }
        for &(u, wu) in ws {
            for &(v, wv) in ws {
                a_oo.add_to(u, v, -wu * wv / s);
            }
        }
    }
    a_oo
}

/// Extreme generalized eigenvalues of the pencil `(L_A, B)` on `range(B)`,
/// where `L_A` is the Laplacian of `a_edges` on `n` vertices and `B` a
/// dense PSD matrix with the same nullspace.
///
/// Computed by eigendecomposing `B = V Λ Vᵀ`, forming
/// `C = Λ^{-1/2} Vᵀ L_A V Λ^{-1/2}` on the eigenvectors with `Λ > tol`,
/// and reading off `λ_min(C), λ_max(C)`.
///
/// # Errors
///
/// [`LinalgError`] if an eigendecomposition fails to converge on
/// degenerate input.
///
/// # Panics
///
/// Panics if shapes mismatch or `B` has no positive eigenvalues.
pub fn generalized_eigen_bounds(
    n: usize,
    a_edges: &[(usize, usize, f64)],
    b: &DenseMatrix,
) -> Result<CertifiedBounds, LinalgError> {
    assert_eq!(b.rows(), n, "B shape mismatch");
    let la = laplacian_from_edges(n, a_edges).to_dense();
    let eb = symmetric_eigen(b)?;
    let lam_max = eb.largest().unwrap_or(0.0);
    let tol = 1e-10 * lam_max.max(1e-300);
    let range_idx: Vec<usize> = (0..n).filter(|&j| eb.eigenvalues()[j] > tol).collect();
    assert!(!range_idx.is_empty(), "B has empty range");
    let k = range_idx.len();
    // W = V_range Λ_range^{-1/2}  (n × k)
    let mut w = DenseMatrix::zeros(n, k);
    for (col, &j) in range_idx.iter().enumerate() {
        let scale = 1.0 / eb.eigenvalues()[j].sqrt();
        for r in 0..n {
            w.set(r, col, eb.eigenvectors().get(r, j) * scale);
        }
    }
    let c = w
        .transpose()
        .matmul(&la.matmul(&w).expect("shape"))
        .expect("shape");
    let ec = symmetric_eigenvalues(&c)?;
    Ok(CertifiedBounds {
        min: ec[0],
        max: *ec.last().expect("nonempty range"),
    })
}

/// Independent verification that a sparsifier's certified `α` is honest:
/// computes the exact pencil bounds of `(L_G, S_H)` and returns them;
/// asserts nothing. The E2 experiment reports
/// `bounds.alpha() ≤ h.alpha() + tolerance`.
///
/// # Errors
///
/// [`LinalgError`] if the pencil eigendecomposition fails to converge.
pub fn verify_sparsifier(
    g: &Graph,
    h: &SpectralSparsifier,
) -> Result<CertifiedBounds, LinalgError> {
    let schur = sparsifier_schur_dense(h);
    generalized_eigen_bounds(g.n(), &g.edge_triples(), &schur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_sparsifier, SparsifyParams};
    use cc_graph::generators;
    use cc_model::Clique;

    fn check(g: &Graph) {
        let mut clique = Clique::new(g.n().max(2));
        let h = build_sparsifier(&mut clique, g, &SparsifyParams::default()).unwrap();
        let bounds = verify_sparsifier(g, &h).unwrap();
        assert!(
            bounds.alpha() <= h.alpha() * (1.0 + 1e-6),
            "claimed alpha {} but exact pencil alpha {} (bounds {:?})",
            h.alpha(),
            bounds.alpha(),
            bounds
        );
    }

    #[test]
    fn certified_alpha_is_honest_on_expander() {
        check(&generators::expander(24));
    }

    #[test]
    fn certified_alpha_is_honest_on_complete_graph() {
        check(&generators::complete(20));
    }

    #[test]
    fn certified_alpha_is_honest_on_barbell() {
        check(&generators::barbell(8));
    }

    #[test]
    fn certified_alpha_is_honest_on_random_graphs() {
        for seed in 0..4 {
            check(&generators::random_connected(18, 40, 6, seed));
        }
    }

    #[test]
    fn certified_alpha_is_honest_on_grid() {
        check(&generators::grid(5, 5));
    }

    #[test]
    fn identity_pencil_bounds_are_one() {
        let g = generators::cycle(8);
        let lg = cc_linalg::laplacian_from_edges(8, &g.edge_triples()).to_dense();
        let bounds = generalized_eigen_bounds(8, &g.edge_triples(), &lg).unwrap();
        assert!((bounds.min - 1.0).abs() < 1e-8);
        assert!((bounds.max - 1.0).abs() < 1e-8);
        assert!((bounds.alpha() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn alpha_of_degenerate_bounds_is_infinite() {
        let b = CertifiedBounds { min: 0.0, max: 2.0 };
        assert!(b.alpha().is_infinite());
    }
}
