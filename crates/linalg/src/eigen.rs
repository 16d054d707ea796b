//! Dense symmetric eigensolver.
//!
//! Classical two-stage scheme: Householder tridiagonalization (tred2)
//! followed by the implicit-shift QL iteration (tql2). Deterministic,
//! `O(n³)`, accurate to machine precision — exactly what the sparsifier
//! needs to *certify* cluster spectral gaps and approximation factors
//! instead of trusting asymptotic bounds.
//!
//! Two entry points share the one `tred2`/`tql2` implementation:
//! [`symmetric_eigen`] accumulates the orthogonal transform and returns
//! eigenvectors; [`symmetric_eigenvalues`] skips the accumulation (the
//! `tred2` back-transform and the `tql2` rotations) and returns the
//! spectrum alone. The tridiagonal `d`/`e` recurrences never read the
//! accumulated transform, so the values-only spectrum is bitwise equal to
//! `symmetric_eigen(a)?.eigenvalues()` at roughly half the cost.

use crate::{DenseMatrix, LinalgError};

/// Eigendecomposition of a symmetric matrix: `A = V diag(λ) Vᵀ` with
/// eigenvalues in ascending order and orthonormal eigenvector columns.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    eigenvalues: Vec<f64>,
    /// Column `j` of this matrix is the eigenvector of `eigenvalues[j]`.
    eigenvectors: DenseMatrix,
}

impl SymmetricEigen {
    /// Eigenvalues in ascending order.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Matrix whose column `j` is the unit eigenvector for eigenvalue `j`.
    pub fn eigenvectors(&self) -> &DenseMatrix {
        &self.eigenvectors
    }

    /// Eigenvector for eigenvalue index `j` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn eigenvector(&self, j: usize) -> Vec<f64> {
        (0..self.eigenvectors.rows())
            .map(|i| self.eigenvectors.get(i, j))
            .collect()
    }

    /// Smallest eigenvalue strictly greater than `threshold`
    /// (`None` if all eigenvalues are ≤ threshold).
    pub fn smallest_above(&self, threshold: f64) -> Option<f64> {
        self.eigenvalues.iter().copied().find(|&l| l > threshold)
    }

    /// Largest eigenvalue (`None` for the 0×0 matrix).
    pub fn largest(&self) -> Option<f64> {
        self.eigenvalues.last().copied()
    }
}

/// Computes the full eigendecomposition of a symmetric matrix.
///
/// # Errors
///
/// [`LinalgError::DimensionMismatch`] if `a` is not square;
/// [`LinalgError::EigenNoConvergence`] if the QL iteration stalls
/// (practically unreachable for finite symmetric input).
///
/// The input is *not* checked for symmetry (only its lower triangle is
/// read); callers certifying spectral claims should assert symmetry first.
///
/// ```
/// use cc_linalg::{symmetric_eigen, DenseMatrix};
/// let a = DenseMatrix::from_row_major(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
/// let eig = symmetric_eigen(&a)?;
/// assert!((eig.eigenvalues()[0] - 1.0).abs() < 1e-12);
/// assert!((eig.eigenvalues()[1] - 3.0).abs() < 1e-12);
/// # Ok::<(), cc_linalg::LinalgError>(())
/// ```
pub fn symmetric_eigen(a: &DenseMatrix) -> Result<SymmetricEigen, LinalgError> {
    let (d, z) = tridiagonal_ql(a, "symmetric_eigen", true)?;
    let n = d.len();
    // Sort ascending, permuting eigenvector columns along.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[i].total_cmp(&d[j]));
    let eigenvalues: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let mut eigenvectors = DenseMatrix::zeros(n, n);
    for (newc, &oldc) in order.iter().enumerate() {
        for r in 0..n {
            eigenvectors.set(r, newc, z[r][oldc]);
        }
    }
    Ok(SymmetricEigen {
        eigenvalues,
        eigenvectors,
    })
}

/// Computes the eigenvalues of a symmetric matrix, ascending, without
/// eigenvectors.
///
/// Runs the same reduction and QL iteration as [`symmetric_eigen`] with
/// the transform accumulation switched off, so the result is bitwise
/// equal to `symmetric_eigen(a)?.eigenvalues()` (for every thread count
/// and the serial build) while doing roughly half the work. Use it
/// wherever only the spectrum is read — spectral-gap certificates,
/// pencil bounds.
///
/// # Errors
///
/// The same as [`symmetric_eigen`], with the same values:
/// [`LinalgError::DimensionMismatch`] if `a` is not square;
/// [`LinalgError::EigenNoConvergence`] if the QL iteration stalls or the
/// input is non-finite.
///
/// ```
/// use cc_linalg::{symmetric_eigen, symmetric_eigenvalues, DenseMatrix};
/// let a = DenseMatrix::from_row_major(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
/// let vals = symmetric_eigenvalues(&a)?;
/// assert_eq!(vals, symmetric_eigen(&a)?.eigenvalues());
/// # Ok::<(), cc_linalg::LinalgError>(())
/// ```
pub fn symmetric_eigenvalues(a: &DenseMatrix) -> Result<Vec<f64>, LinalgError> {
    let (mut d, _) = tridiagonal_ql(a, "symmetric_eigenvalues", false)?;
    d.sort_by(f64::total_cmp);
    Ok(d)
}

/// The unsorted eigenvalues of `a` and — with `accumulate` — the
/// transform whose column `j` is the eigenvector of value `j` (without it,
/// the returned matrix is scratch). Only the lower triangle of `a` is
/// read.
fn tridiagonal_ql(
    a: &DenseMatrix,
    op: &'static str,
    accumulate: bool,
) -> Result<(Vec<f64>, Vec<Vec<f64>>), LinalgError> {
    if a.rows() != a.cols() {
        return Err(LinalgError::DimensionMismatch {
            op,
            got: a.cols(),
            expected: a.rows(),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Ok((Vec::new(), Vec::new()));
    }
    // Work on a mutable copy; z accumulates the orthogonal transform.
    let mut z: Vec<Vec<f64>> = (0..n).map(|r| a.row(r).to_vec()).collect();
    let mut d = vec![0.0; n]; // diagonal
    let mut e = vec![0.0; n]; // off-diagonal
    tred2(&mut z, &mut d, &mut e, accumulate);
    tql2(accumulate.then_some(&mut z[..]), &mut d, &mut e)?;

    // A NaN eigenvalue means the QL iteration produced garbage (possible
    // only for non-finite input); report it as a typed error instead of
    // panicking inside the caller's sort.
    if let Some(index) = d.iter().position(|v| v.is_nan()) {
        return Err(LinalgError::EigenNoConvergence { index });
    }
    Ok((d, z))
}

/// Rows per parallel chunk in the two Householder update loops of
/// [`tred2`]. Fixed so the decomposition is independent of parallelism;
/// matrices smaller than one chunk run serially inside `par_*`.
const TRED2_ROW_CHUNK: usize = 64;

/// Minimum rows (`l + 1`) before a [`tred2`] step fans its two update
/// loops out. Each step's loops cost `O(l²)`, and below this size waking
/// the pool twice per step costs more than it saves: at `n = 256` the
/// values-only reduction is slower and far less steady on two threads
/// than on one. Smaller steps run the same chunks on the calling thread,
/// so results are unchanged.
pub const TRED2_PAR_MIN_ROWS: usize = 512;

/// Householder reduction of a real symmetric matrix to tridiagonal form
/// (classical tred2), accumulating the transformation into `z` when
/// `accumulate` is set.
///
/// The reduction reads only the lower triangle of `z` and never the
/// accumulated transform, so with `accumulate == false` the Householder
/// vectors are not stored in the upper triangle, the back-transform pass
/// is skipped, and `d` comes out bitwise equal to the accumulating run.
///
/// The two `O(l²)` inner loops are restructured into a *pure-read* phase
/// fanned out over row chunks followed by a short serial phase, so the
/// floating-point operations per row are exactly those of the classical
/// serial formulation — parallel runs are bitwise identical to serial
/// ones (the column-`i` writes these loops perform are never read back
/// within the same `i` step, which is what makes the split legal).
fn tred2(z: &mut [Vec<f64>], d: &mut [f64], e: &mut [f64], accumulate: bool) {
    let n = z.len();
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let scale: f64 = (0..=l).map(|k| z[i][k].abs()).sum();
            if scale == 0.0 {
                e[i] = z[i][l];
            } else {
                for k in 0..=l {
                    z[i][k] /= scale;
                    h += z[i][k] * z[i][k];
                }
                let f = z[i][l];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z[i][l] = f - g;
                // Phase A (parallel, pure reads of columns ≤ l):
                // e[j] = (A·u)_j / h for the Householder vector u = z[i][..=l].
                let (head, tail) = z.split_at_mut(i);
                let zi: &[f64] = &tail[0];
                let rows: &[Vec<f64>] = head;
                let e_chunks = tred2_step(l, || {
                    crate::par::par_map_chunks(l + 1, TRED2_ROW_CHUNK, |range| {
                        let j0 = range.start;
                        // Row part: Σ_{k≤j} rows[j][k]·zi[k], a contiguous
                        // row read per j.
                        let mut acc: Vec<f64> = range
                            .clone()
                            .map(|j| {
                                let mut g_acc = 0.0;
                                for k in 0..=j {
                                    g_acc += rows[j][k] * zi[k];
                                }
                                g_acc
                            })
                            .collect();
                        // Column part, transposed: the naive per-j walk down
                        // column j (`rows[k][j]`, stride-n reads) becomes a
                        // k-outer loop over the chunk-wide row segments
                        // `rows[k][j0..j1]`. Per j the contributions still
                        // arrive in ascending k, appended after the row part
                        // — the accumulation order is exactly the naive
                        // loop's, so the result is bitwise identical.
                        for k in (j0 + 1)..=l {
                            let rk = &rows[k][j0..range.end.min(k)];
                            let zk = zi[k];
                            for (a, &rv) in acc[..rk.len()].iter_mut().zip(rk) {
                                *a += rv * zk;
                            }
                        }
                        for a in &mut acc {
                            *a /= h;
                        }
                        acc
                    })
                });
                // Phase B (serial, O(l)): store e, write column i (only the
                // accumulation reads it), reduce f_acc in ascending j
                // order — the exact summation order of the classical loop.
                let mut f_acc = 0.0;
                let mut j = 0;
                for chunk in e_chunks {
                    for ej in chunk {
                        if accumulate {
                            head[j][i] = zi[j] / h;
                        }
                        e[j] = ej;
                        f_acc += ej * zi[j];
                        j += 1;
                    }
                }
                let hh = f_acc / (h + h);
                // Phase A′ (serial, O(l)): finish the e update first so the
                // row updates below read a fully updated e.
                for j in 0..=l {
                    e[j] -= hh * zi[j];
                }
                // Phase B′ (parallel, disjoint row writes): rank-two update
                // of the lower triangle, row by row in classical k order.
                let e_ro: &[f64] = e;
                tred2_step(l, || {
                    crate::par::par_chunks_mut(
                        &mut head[..=l],
                        TRED2_ROW_CHUNK,
                        |chunk_idx, rows| {
                            let base = chunk_idx * TRED2_ROW_CHUNK;
                            for (local, row) in rows.iter_mut().enumerate() {
                                let j = base + local;
                                let f = zi[j];
                                let g = e_ro[j];
                                for k in 0..=j {
                                    row[k] -= f * e_ro[k] + g * zi[k];
                                }
                            }
                        },
                    )
                });
            }
        } else {
            e[i] = z[i][l];
        }
        d[i] = h;
    }
    e[0] = 0.0;
    if !accumulate {
        // The back-transform below never touches the diagonal before it
        // is read, so the reduced diagonal is exactly what it would store.
        for (i, di) in d.iter_mut().enumerate() {
            *di = z[i][i];
        }
        return;
    }
    d[0] = 0.0;
    for i in 0..n {
        if d[i] != 0.0 {
            for j in 0..i {
                let mut g = 0.0;
                for k in 0..i {
                    g += z[i][k] * z[k][j];
                }
                for k in 0..i {
                    z[k][j] -= g * z[k][i];
                }
            }
        }
        d[i] = z[i][i];
        z[i][i] = 1.0;
        for j in 0..i {
            z[j][i] = 0.0;
            z[i][j] = 0.0;
        }
    }
}

/// Runs one parallel loop of the [`tred2`] step for row `l`, on the
/// calling thread alone when the step has fewer than
/// [`TRED2_PAR_MIN_ROWS`] rows.
fn tred2_step<R>(l: usize, f: impl FnOnce() -> R) -> R {
    if l + 1 < TRED2_PAR_MIN_ROWS {
        crate::par::with_threads(1, f)
    } else {
        f()
    }
}

/// QL iteration with implicit shifts on a symmetric tridiagonal matrix
/// (classical tql2), applying each rotation to the eigenvector
/// accumulation `z` when one is given. `d`/`e` never read `z`, so the
/// eigenvalues do not depend on whether it is present.
fn tql2(mut z: Option<&mut [Vec<f64>]>, d: &mut [f64], e: &mut [f64]) -> Result<(), LinalgError> {
    let n = d.len();
    if n == 1 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    for l in 0..n {
        let mut iter = 0usize;
        loop {
            // Find a small off-diagonal element to split the problem.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 64 {
                return Err(LinalgError::EigenNoConvergence { index: l });
            }
            // Form the implicit shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + if g >= 0.0 { r.abs() } else { -r.abs() });
            let (mut s, mut c) = (1.0, 1.0);
            let mut p = 0.0;
            let mut i = m;
            let mut underflow_break = false;
            while i > l {
                i -= 1;
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow_break = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                if let Some(z) = z.as_deref_mut() {
                    for zk in z.iter_mut() {
                        let f = zk[i + 1];
                        zk[i + 1] = s * zk[i] + c * f;
                        zk[i] = c * zk[i] - s * f;
                    }
                }
            }
            if underflow_break {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplacian::laplacian_from_edges;
    use proptest::prelude::*;

    fn reconstruct(eig: &SymmetricEigen) -> DenseMatrix {
        let n = eig.eigenvalues().len();
        let mut out = DenseMatrix::zeros(n, n);
        for j in 0..n {
            let v = eig.eigenvector(j);
            let lam = eig.eigenvalues()[j];
            for r in 0..n {
                for c in 0..n {
                    out.add_to(r, c, lam * v[r] * v[c]);
                }
            }
        }
        out
    }

    #[test]
    fn diagonal_matrix() {
        let a =
            DenseMatrix::from_row_major(3, 3, vec![3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]);
        let eig = symmetric_eigen(&a).unwrap();
        let vals = eig.eigenvalues();
        assert!((vals[0] - 1.0).abs() < 1e-12);
        assert!((vals[1] - 2.0).abs() < 1e-12);
        assert!((vals[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn path_laplacian_spectrum_known() {
        // Path P3 Laplacian eigenvalues: 0, 1, 3.
        let lap = laplacian_from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).to_dense();
        let eig = symmetric_eigen(&lap).unwrap();
        let vals = eig.eigenvalues();
        assert!(vals[0].abs() < 1e-12);
        assert!((vals[1] - 1.0).abs() < 1e-12);
        assert!((vals[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cycle_laplacian_spectrum_known() {
        // Cycle C_n Laplacian eigenvalues: 2 - 2cos(2πk/n).
        let n = 8;
        let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
        let lap = laplacian_from_edges(n, &edges).to_dense();
        let eig = symmetric_eigen(&lap).unwrap();
        let mut expected: Vec<f64> = (0..n)
            .map(|k| 2.0 - 2.0 * (2.0 * std::f64::consts::PI * k as f64 / n as f64).cos())
            .collect();
        expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (got, want) in eig.eigenvalues().iter().zip(&expected) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal_and_reconstruct() {
        let lap = laplacian_from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 0.5),
                (3, 4, 1.5),
                (4, 5, 1.0),
                (0, 5, 3.0),
            ],
        )
        .to_dense();
        let eig = symmetric_eigen(&lap).unwrap();
        // Orthonormality of V.
        let v = eig.eigenvectors();
        let vtv = v.transpose().matmul(v).unwrap();
        for r in 0..6 {
            for c in 0..6 {
                let want = if r == c { 1.0 } else { 0.0 };
                assert!((vtv.get(r, c) - want).abs() < 1e-10);
            }
        }
        // A == V diag(λ) Vᵀ.
        let rec = reconstruct(&eig);
        for r in 0..6 {
            for c in 0..6 {
                assert!((rec.get(r, c) - lap.get(r, c)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn zero_and_one_dimensional_inputs() {
        let eig = symmetric_eigen(&DenseMatrix::zeros(0, 0)).unwrap();
        assert!(eig.eigenvalues().is_empty());
        let a = DenseMatrix::from_row_major(1, 1, vec![7.0]);
        let eig = symmetric_eigen(&a).unwrap();
        assert_eq!(eig.eigenvalues(), &[7.0]);
        assert!((eig.eigenvector(0)[0].abs() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn rejects_non_square() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            symmetric_eigen(&a),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn helper_accessors() {
        let a = DenseMatrix::from_row_major(2, 2, vec![0.0, 0.0, 0.0, 5.0]);
        let eig = symmetric_eigen(&a).unwrap();
        assert_eq!(eig.largest(), Some(5.0));
        assert_eq!(eig.smallest_above(1e-9), Some(5.0));
        assert_eq!(eig.smallest_above(10.0), None);
    }

    /// A symmetric `n × n` matrix from a seed (xorshift entries in
    /// `[-2, 2)`), with a seventh of the off-diagonal pairs set to exact
    /// zeros.
    fn seeded_symmetric(n: usize, seed: u64) -> DenseMatrix {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        };
        let mut a = DenseMatrix::zeros(n, n);
        for r in 0..n {
            for c in 0..=r {
                let v = if r != c && (r + c) % 7 == 0 {
                    0.0
                } else {
                    next()
                };
                a.set(r, c, v);
                a.set(c, r, v);
            }
        }
        a
    }

    fn assert_values_only_matches(a: &DenseMatrix) {
        let full = symmetric_eigen(a).unwrap();
        let vals = symmetric_eigenvalues(a).unwrap();
        assert_eq!(vals.len(), full.eigenvalues().len());
        for (i, (x, y)) in vals.iter().zip(full.eigenvalues()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "n={} index {i}", a.rows());
        }
    }

    #[test]
    fn values_only_matches_full_around_the_chunk_boundary() {
        for n in [0, 1, 2, 3, 63, 64, 65, 66, 128, 129, 130] {
            assert_values_only_matches(&seeded_symmetric(n, 0x9e37 + n as u64));
        }
        // Laplacians: an exact zero eigenvalue and (for the cycle) pairs
        // of equal ones.
        let edges: Vec<_> = (0..70).map(|i| (i, (i + 1) % 70, 1.0)).collect();
        assert_values_only_matches(&laplacian_from_edges(70, &edges).to_dense());
        let edges: Vec<_> = (0..69).map(|i| (i, i + 1, 0.5 + i as f64)).collect();
        assert_values_only_matches(&laplacian_from_edges(70, &edges).to_dense());
    }

    #[test]
    fn values_only_rejects_like_full() {
        assert!(matches!(
            symmetric_eigenvalues(&DenseMatrix::zeros(2, 3)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for n in [2usize, 5, 70] {
                let mut a = seeded_symmetric(n, 7);
                a.set(n - 1, 0, bad);
                a.set(0, n - 1, bad);
                let full = symmetric_eigen(&a).unwrap_err();
                let vals = symmetric_eigenvalues(&a).unwrap_err();
                assert!(
                    matches!(full, LinalgError::EigenNoConvergence { .. }),
                    "{bad} at n={n}: {full:?}"
                );
                assert_eq!(vals, full, "{bad} at n={n}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn values_only_is_bitwise_equal_to_full(n in 0usize..=130, seed in 0u64..u64::MAX) {
            // Sizes up to 130 cross TRED2_ROW_CHUNK = 64, so multi-chunk
            // reduction steps are covered too. Steps large enough to fan
            // out (TRED2_PAR_MIN_ROWS) are in tests/blocked_twins.rs.
            assert_values_only_matches(&seeded_symmetric(n, seed));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn random_symmetric_reconstruction(seed in proptest::collection::vec(-3f64..3.0, 25)) {
            // Symmetrize a random 5x5.
            let mut a = DenseMatrix::zeros(5, 5);
            for r in 0..5 {
                for c in 0..5 {
                    let v = seed[r * 5 + c];
                    a.add_to(r, c, v / 2.0);
                    a.add_to(c, r, v / 2.0);
                }
            }
            let eig = symmetric_eigen(&a).unwrap();
            let rec = reconstruct(&eig);
            for r in 0..5 {
                for c in 0..5 {
                    prop_assert!((rec.get(r, c) - a.get(r, c)).abs() < 1e-8);
                }
            }
            // Trace == sum of eigenvalues.
            let trace: f64 = (0..5).map(|i| a.get(i, i)).sum();
            let sum: f64 = eig.eigenvalues().iter().sum();
            prop_assert!((trace - sum).abs() < 1e-8);
        }
    }
}
