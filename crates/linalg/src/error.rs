use std::error::Error;
use std::fmt;

/// Errors raised by the numerical routines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Operand dimensions are incompatible.
    DimensionMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// First dimension involved.
        got: usize,
        /// Second dimension involved.
        expected: usize,
    },
    /// A matrix expected to be positive definite was not (up to the given
    /// pivot tolerance); reported with the failing pivot index and value.
    NotPositiveDefinite {
        /// Index of the failing pivot.
        index: usize,
        /// Value of the failing pivot.
        pivot: f64,
    },
    /// The QL eigenvalue iteration failed to converge within its iteration
    /// budget (numerically pathological input).
    EigenNoConvergence {
        /// Row at which convergence failed.
        index: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, got, expected } => {
                write!(
                    f,
                    "dimension mismatch in {op}: got {got}, expected {expected}"
                )
            }
            LinalgError::NotPositiveDefinite { index, pivot } => {
                write!(
                    f,
                    "matrix not positive definite: pivot {pivot:e} at index {index}"
                )
            }
            LinalgError::EigenNoConvergence { index } => {
                write!(f, "ql eigenvalue iteration did not converge at row {index}")
            }
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = LinalgError::NotPositiveDefinite {
            index: 3,
            pivot: -1.0,
        };
        assert!(e.to_string().contains("index 3"));
        let e = LinalgError::DimensionMismatch {
            op: "matvec",
            got: 2,
            expected: 5,
        };
        assert!(e.to_string().contains("matvec"));
    }
}
