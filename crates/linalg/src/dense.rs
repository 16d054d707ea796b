use std::fmt;

use crate::vec_ops;
use crate::LinalgError;

/// Output rows per parallel chunk in [`DenseMatrix::matmul`] and
/// [`DenseMatrix::matvec_into`]. Fixed (never derived from the thread
/// count) so the decomposition is independent of parallelism.
pub const MATMUL_ROW_BLOCK: usize = 32;

/// Minimum scalar multiply-adds before dense kernels fan out.
pub const PAR_MIN_WORK: usize = 262_144;

/// Columns of `B` per cache block in [`DenseMatrix::matmul`]: the output
/// row segment and the matching `B` panel stay resident while a row
/// block's contributions accumulate. Fixed — never derived from the
/// thread count or matrix shape — so blocking is a pure loop reorder of
/// identical per-element operations.
pub const MATMUL_J_BLOCK: usize = 64;

/// Rows of `B` (columns of `A`) per cache panel in
/// [`DenseMatrix::matmul`]. A `MATMUL_K_PANEL × MATMUL_J_BLOCK` panel of
/// `B` is 32 KiB — it stays in L1/L2 while all rows of an output block
/// consume it.
pub const MATMUL_K_PANEL: usize = 64;

/// A dense row-major matrix of `f64`.
///
/// Small and deliberately simple: this backs the *internal* (per-node, free)
/// computation of the congested clique algorithms — preconditioner solves,
/// spectral certification of clusters — where the operands are `O(n)`-sized.
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>10.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl DenseMatrix {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major data has wrong length");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Sets entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c] = v;
    }

    /// Adds `v` to entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn add_to(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c] += v;
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix-vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix-vector product `out ← A·x` into a caller-provided buffer,
    /// row-partitioned across threads (each entry is one independent dot
    /// product, so the result is bitwise identical to the serial loop).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(out.len(), self.rows, "matvec output length mismatch");
        if self.rows * self.cols < PAR_MIN_WORK {
            for (r, yi) in out.iter_mut().enumerate() {
                *yi = vec_ops::dot(self.row(r), x);
            }
            return;
        }
        crate::par::par_chunks_mut(out, MATMUL_ROW_BLOCK, |chunk_idx, sl| {
            let base = chunk_idx * MATMUL_ROW_BLOCK;
            for (k, yi) in sl.iter_mut().enumerate() {
                *yi = vec_ops::dot(self.row(base + k), x);
            }
        });
    }

    /// Batched matrix-vector product over `k` interleaved right-hand
    /// sides (`xs[c*k + j]` is entry `c` of vector `j`): one pass over
    /// the matrix serves the whole batch, with lanes processed in
    /// register tiles of [`crate::RHS_LANES`]. Every `(row, rhs)` pair
    /// accumulates its terms in ascending column order from `0.0` —
    /// column `j` of the result is bitwise identical to
    /// [`DenseMatrix::matvec_into`] on column `j`, at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `xs.len() != cols*k`, or `out.len() != rows*k`.
    pub fn matvec_multi_into(&self, xs: &[f64], k: usize, out: &mut [f64]) {
        const LANES: usize = crate::csr::RHS_LANES;
        assert!(k > 0, "batch width must be positive");
        assert_eq!(xs.len(), self.cols * k, "matvec_multi dimension mismatch");
        assert_eq!(
            out.len(),
            self.rows * k,
            "matvec_multi output length mismatch"
        );
        let row_multi = |r: usize, orow: &mut [f64]| {
            let arow = self.row(r);
            let mut j = 0;
            while j + LANES <= k {
                let mut acc = [0.0f64; LANES];
                for (c, &v) in arow.iter().enumerate() {
                    let xrow = &xs[c * k + j..c * k + j + LANES];
                    for (a, &xv) in acc.iter_mut().zip(xrow) {
                        *a += v * xv;
                    }
                }
                orow[j..j + LANES].copy_from_slice(&acc);
                j += LANES;
            }
            while j < k {
                let mut a = 0.0;
                for (c, &v) in arow.iter().enumerate() {
                    a += v * xs[c * k + j];
                }
                orow[j] = a;
                j += 1;
            }
        };
        if self.rows * self.cols * k < PAR_MIN_WORK {
            for (r, orow) in out.chunks_mut(k).enumerate() {
                row_multi(r, orow);
            }
            return;
        }
        crate::par::par_chunks_mut(out, MATMUL_ROW_BLOCK * k, |chunk_idx, sl| {
            let base = chunk_idx * MATMUL_ROW_BLOCK;
            for (i, orow) in sl.chunks_mut(k).enumerate() {
                row_multi(base + i, orow);
            }
        });
    }

    /// Matrix product `A·B`, blocked two ways: threads own disjoint
    /// output row blocks of fixed size ([`MATMUL_ROW_BLOCK`]), and within
    /// a row block the `k`/`j` loops are tiled into
    /// [`MATMUL_K_PANEL`]`×`[`MATMUL_J_BLOCK`] cache panels of `B` that
    /// are reused across all rows of the block. Blocking only reorders
    /// *independent* output elements; each element still accumulates its
    /// `k` terms in ascending order (panels ascend, `k` ascends within a
    /// panel), so the result is bitwise identical to the serial `i,k,j`
    /// triple loop — for any thread count and any block size.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `self.cols != b.rows`.
    pub fn matmul(&self, b: &DenseMatrix) -> Result<DenseMatrix, LinalgError> {
        if self.cols != b.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                got: b.rows,
                expected: self.cols,
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, b.cols);
        if b.cols == 0 || self.rows == 0 {
            return Ok(out);
        }
        let bc = b.cols;
        let row_block = |row0: usize, rows: &mut [f64]| {
            for jb in (0..bc).step_by(MATMUL_J_BLOCK) {
                let jhi = (jb + MATMUL_J_BLOCK).min(bc);
                for kb in (0..self.cols).step_by(MATMUL_K_PANEL) {
                    let khi = (kb + MATMUL_K_PANEL).min(self.cols);
                    for (local, orow) in rows.chunks_mut(bc).enumerate() {
                        let i = row0 + local;
                        let oseg = &mut orow[jb..jhi];
                        for k in kb..khi {
                            let aik = self.data[i * self.cols + k];
                            if aik == 0.0 {
                                continue;
                            }
                            for (oj, bj) in oseg.iter_mut().zip(&b.data[k * bc + jb..k * bc + jhi])
                            {
                                *oj += aik * bj;
                            }
                        }
                    }
                }
            }
        };
        if self.rows * self.cols * bc < PAR_MIN_WORK {
            row_block(0, &mut out.data);
        } else {
            crate::par::par_chunks_mut(&mut out.data, MATMUL_ROW_BLOCK * bc, |chunk_idx, sl| {
                row_block(chunk_idx * MATMUL_ROW_BLOCK, sl);
            });
        }
        Ok(out)
    }

    /// Transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Quadratic form `xᵀ A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match a square `A`.
    pub fn quadratic_form(&self, x: &[f64]) -> f64 {
        assert_eq!(self.rows, self.cols, "quadratic form needs a square matrix");
        vec_ops::dot(x, &self.matvec(x))
    }

    /// Checks symmetry up to absolute tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                if (self.get(r, c) - self.get(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// `A ← A + α·B`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, b: &DenseMatrix) {
        assert_eq!(
            (self.rows, self.cols),
            (b.rows, b.cols),
            "axpy shape mismatch"
        );
        for (x, y) in self.data.iter_mut().zip(&b.data) {
            *x += alpha * y;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_row_major(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let a = sample();
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn matmul_with_identity_is_noop() {
        let a = sample();
        let prod = a.matmul(&DenseMatrix::identity(3)).unwrap();
        assert_eq!(prod, a);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = sample();
        assert!(matches!(
            a.matmul(&DenseMatrix::identity(2)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn transpose_involution() {
        let a = sample();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn symmetry_check() {
        let mut s = DenseMatrix::zeros(2, 2);
        s.set(0, 1, 3.0);
        assert!(!s.is_symmetric(1e-12));
        s.set(1, 0, 3.0);
        assert!(s.is_symmetric(1e-12));
        assert!(!sample().is_symmetric(1e-12));
    }

    #[test]
    fn quadratic_form_of_identity_is_norm_squared() {
        let id = DenseMatrix::identity(3);
        assert_eq!(id.quadratic_form(&[1.0, 2.0, 2.0]), 9.0);
    }

    #[test]
    fn debug_render_is_nonempty() {
        assert!(!format!("{:?}", sample()).is_empty());
    }
}
