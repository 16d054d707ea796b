//! Test-only cyclic Jacobi eigenvalue iteration — an independent, slower eigensolver
//! used to cross-validate the primary Householder+QL path
//! ([`crate::symmetric_eigen`]). Everything downstream (sparsifier
//! certificates, decomposition gaps) rests on exact eigencomputation, so
//! the repository carries two disjoint implementations and tests them
//! against each other.

use crate::{DenseMatrix, LinalgError};

/// Computes the eigenvalues (ascending) of a symmetric matrix by cyclic
/// Jacobi rotations. Eigenvectors are not accumulated — this exists purely
/// as a validation oracle.
///
/// # Errors
///
/// [`LinalgError::DimensionMismatch`] if `a` is not square;
/// [`LinalgError::EigenNoConvergence`] if the off-diagonal mass fails to
/// vanish within the sweep budget.
pub fn jacobi_eigenvalues(a: &DenseMatrix) -> Result<Vec<f64>, LinalgError> {
    if a.rows() != a.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "jacobi_eigenvalues",
            got: a.cols(),
            expected: a.rows(),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut m: Vec<Vec<f64>> = (0..n).map(|r| a.row(r).to_vec()).collect();
    let frob: f64 = m
        .iter()
        .flat_map(|row| row.iter())
        .map(|x| x * x)
        .sum::<f64>()
        .sqrt()
        .max(1e-300);
    let tol = 1e-14 * frob;
    for _sweep in 0..100 {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                off += m[p][q] * m[p][q];
            }
        }
        if off.sqrt() <= tol {
            let mut eig: Vec<f64> = (0..n).map(|i| m[i][i]).collect();
            eig.sort_by(|x, y| x.partial_cmp(y).expect("finite eigenvalues"));
            return Ok(eig);
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[p][q];
                if apq.abs() <= tol / (n as f64) {
                    continue;
                }
                let app = m[p][p];
                let aqq = m[q][q];
                // Rotation angle zeroing (p, q).
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let (mkp, mkq) = (m[k][p], m[k][q]);
                    m[k][p] = c * mkp - s * mkq;
                    m[k][q] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let (mpk, mqk) = (m[p][k], m[q][k]);
                    m[p][k] = c * mpk - s * mqk;
                    m[q][k] = s * mpk + c * mqk;
                }
            }
        }
    }
    Err(LinalgError::EigenNoConvergence { index: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplacian::laplacian_from_edges;
    use crate::symmetric_eigen;
    use proptest::prelude::*;

    #[test]
    fn agrees_with_ql_on_laplacians() {
        let families: Vec<Vec<(usize, usize, f64)>> = vec![
            (0..7).map(|i| (i, i + 1, 1.0)).collect(),
            (0..8).map(|i| (i, (i + 1) % 8, (i + 1) as f64)).collect(),
            vec![
                (0, 1, 2.0),
                (1, 2, 0.5),
                (2, 3, 3.0),
                (0, 3, 1.0),
                (1, 3, 4.0),
            ],
        ];
        for edges in families {
            let n = edges.iter().map(|&(u, v, _)| u.max(v)).max().unwrap() + 1;
            let lap = laplacian_from_edges(n, &edges).to_dense();
            let ql = symmetric_eigen(&lap).unwrap();
            let jac = jacobi_eigenvalues(&lap).unwrap();
            for (a, b) in ql.eigenvalues().iter().zip(&jac) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert!(jacobi_eigenvalues(&DenseMatrix::zeros(0, 0))
            .unwrap()
            .is_empty());
        let a = DenseMatrix::from_row_major(1, 1, vec![-4.5]);
        assert_eq!(jacobi_eigenvalues(&a).unwrap(), vec![-4.5]);
    }

    #[test]
    fn rejects_non_square() {
        assert!(matches!(
            jacobi_eigenvalues(&DenseMatrix::zeros(2, 3)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn cross_validates_ql_on_random_symmetric(vals in proptest::collection::vec(-4f64..4.0, 36)) {
            let mut a = DenseMatrix::zeros(6, 6);
            for r in 0..6 {
                for c in 0..6 {
                    let v = vals[r * 6 + c];
                    a.add_to(r, c, v / 2.0);
                    a.add_to(c, r, v / 2.0);
                }
            }
            let ql = symmetric_eigen(&a).unwrap();
            let jac = jacobi_eigenvalues(&a).unwrap();
            for (x, y) in ql.eigenvalues().iter().zip(&jac) {
                prop_assert!((x - y).abs() < 1e-8, "{} vs {}", x, y);
            }
        }
    }
}
