//! Elementary operations on `&[f64]` vectors.
//!
//! Deliberately free functions over slices (no vector newtype): the
//! distributed algorithms keep per-node scalars in plain `Vec<f64>`s and
//! these helpers mirror the "constant number of vector operations" of
//! Theorem 2.2.

/// Inner product `⟨a, b⟩`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm `‖a‖₂`.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y ← y + α·x`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `a ← α·a`.
pub fn scale(a: &mut [f64], alpha: f64) {
    for ai in a.iter_mut() {
        *ai *= alpha;
    }
}

/// `y ← x + β·y` — the fused direction update `p ← z + β·p` of Chebyshev,
/// done in place with a single pass.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn xpay(y: &mut [f64], beta: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len(), "xpay: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi + beta * *yi;
    }
}

/// Component-wise difference `a − b` as a new vector.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Component-wise sum `a + b` as a new vector.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Mean of the entries (0 for the empty vector).
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Projects `a` onto the subspace orthogonal to the all-ones vector
/// (in place): `a ← a − mean(a)·1`.
pub fn remove_mean(a: &mut [f64]) {
    let m = mean(a);
    for ai in a.iter_mut() {
        *ai -= m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = vec![1.0, 1.0];
        axpy(&mut y, 2.0, &[10.0, 20.0]);
        assert_eq!(y, vec![21.0, 41.0]);
    }

    #[test]
    fn in_place_variants_match_allocating_ones() {
        let a = vec![1.0, -2.5, 3.0];
        let b = vec![0.5, 4.0, -1.0];
        // xpay: y ← x + β·y, the fused `p = z + β p` update.
        let mut y = b.clone();
        xpay(&mut y, 0.25, &a);
        for ((got, x), orig) in y.iter().zip(&a).zip(&b) {
            assert_eq!(got.to_bits(), (x + 0.25 * orig).to_bits());
        }
    }

    #[test]
    fn remove_mean_centres() {
        let mut a = vec![1.0, 2.0, 3.0];
        remove_mean(&mut a);
        assert!(mean(&a).abs() < 1e-15);
    }

    #[test]
    fn empty_vectors_are_harmless() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(mean(&[]), 0.0);
        let mut e: Vec<f64> = vec![];
        remove_mean(&mut e);
        assert!(e.is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_mismatched_lengths() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    proptest! {
        #[test]
        fn cauchy_schwarz(a in proptest::collection::vec(-1e3f64..1e3, 1..20),
                          b in proptest::collection::vec(-1e3f64..1e3, 1..20)) {
            let k = a.len().min(b.len());
            let (a, b) = (&a[..k], &b[..k]);
            prop_assert!(dot(a, b).abs() <= norm2(a) * norm2(b) + 1e-6);
        }

        #[test]
        fn triangle_inequality(a in proptest::collection::vec(-1e3f64..1e3, 1..20),
                               b in proptest::collection::vec(-1e3f64..1e3, 1..20)) {
            let k = a.len().min(b.len());
            let (a, b) = (&a[..k], &b[..k]);
            prop_assert!(norm2(&add(a, b)) <= norm2(a) + norm2(b) + 1e-6);
        }
    }
}
