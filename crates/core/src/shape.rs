//! Shapes of expression values and the broadcasting rules between them.

use std::fmt;

use crate::expr::ExprError;

/// The shape of a value flowing through the expression DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// A single number (R treats these as length-1 vectors; we keep them
    /// distinct so the optimizer can recognise broadcasts).
    Scalar,
    /// A vector of `n` elements.
    Vector(usize),
    /// A `rows x cols` matrix.
    Matrix(usize, usize),
}

impl Shape {
    /// Total number of elements.
    pub fn len(&self) -> usize {
        match *self {
            Shape::Scalar => 1,
            Shape::Vector(n) => n,
            Shape::Matrix(r, c) => r * c,
        }
    }

    /// True for zero-element shapes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if this shape broadcasts against `other` under R's recycling
    /// rule: scalars combine with anything; vectors combine when the
    /// shorter length divides the longer (R warns otherwise; we reject).
    pub fn broadcasts_with(&self, other: &Shape) -> bool {
        match (self, other) {
            (Shape::Scalar, _) | (_, Shape::Scalar) => true,
            (Shape::Vector(a), Shape::Vector(b)) => {
                let (lo, hi) = (*a.min(b), *a.max(b));
                lo > 0 && hi % lo == 0
            }
            // Elementwise ops on equal-shape matrices.
            (Shape::Matrix(r1, c1), Shape::Matrix(r2, c2)) => r1 == r2 && c1 == c2,
            _ => false,
        }
    }

    /// The shape `op` produces from `self` and `other` under
    /// [`Shape::broadcasts_with`], or the typed mismatch every engine
    /// reports for incompatible operands.
    pub fn zip(&self, other: &Shape, op: &'static str) -> Result<Shape, ExprError> {
        if !self.broadcasts_with(other) {
            return Err(ExprError::ShapeMismatch {
                lhs: *self,
                rhs: *other,
                op,
            });
        }
        Ok(self.broadcast(other))
    }

    /// Resulting shape of an elementwise combination (caller must have
    /// checked [`Shape::broadcasts_with`]).
    pub fn broadcast(&self, other: &Shape) -> Shape {
        match (self, other) {
            (Shape::Scalar, s) | (s, Shape::Scalar) => *s,
            (Shape::Vector(a), Shape::Vector(b)) => Shape::Vector(*a.max(b)),
            (m @ Shape::Matrix(..), _) => *m,
            (_, m @ Shape::Matrix(..)) => *m,
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Shape::Scalar => write!(f, "scalar"),
            Shape::Vector(n) => write!(f, "vec[{n}]"),
            Shape::Matrix(r, c) => write!(f, "mat[{r}x{c}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths() {
        assert_eq!(Shape::Scalar.len(), 1);
        assert_eq!(Shape::Vector(7).len(), 7);
        assert_eq!(Shape::Matrix(3, 4).len(), 12);
        assert!(Shape::Vector(0).is_empty());
    }

    #[test]
    fn scalar_broadcasts_with_everything() {
        for s in [Shape::Scalar, Shape::Vector(5), Shape::Matrix(2, 2)] {
            assert!(Shape::Scalar.broadcasts_with(&s));
            assert_eq!(Shape::Scalar.broadcast(&s), s);
        }
    }

    #[test]
    fn recycling_rule() {
        assert!(Shape::Vector(6).broadcasts_with(&Shape::Vector(3)));
        assert!(Shape::Vector(3).broadcasts_with(&Shape::Vector(6)));
        assert!(!Shape::Vector(6).broadcasts_with(&Shape::Vector(4)));
        assert_eq!(
            Shape::Vector(3).broadcast(&Shape::Vector(6)),
            Shape::Vector(6)
        );
    }

    #[test]
    fn matrices_need_equal_shape() {
        assert!(Shape::Matrix(2, 3).broadcasts_with(&Shape::Matrix(2, 3)));
        assert!(!Shape::Matrix(2, 3).broadcasts_with(&Shape::Matrix(3, 2)));
        assert!(!Shape::Matrix(2, 3).broadcasts_with(&Shape::Vector(6)));
    }

    #[test]
    fn display() {
        assert_eq!(Shape::Vector(4).to_string(), "vec[4]");
        assert_eq!(Shape::Matrix(2, 5).to_string(), "mat[2x5]");
    }
}
