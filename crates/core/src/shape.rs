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

    /// The shape of `ifelse(self, yes, no)`: each pair of the three
    /// operands must pass [`Shape::zip`], and the result is their common
    /// broadcast.
    pub fn if_else(&self, yes: &Shape, no: &Shape) -> Result<Shape, ExprError> {
        for (a, b) in [(self, yes), (self, no), (yes, no)] {
            a.zip(b, "ifelse")?;
        }
        Ok(self.broadcast(yes).broadcast(no))
    }

    /// The shape of the subscript read `self[index]`: a vector as long as
    /// the index (a scalar index reads one element).
    pub fn gather(&self, index: &Shape) -> Result<Shape, ExprError> {
        self.expect_vector()?;
        match *index {
            Shape::Vector(n) => Ok(Shape::Vector(n)),
            Shape::Scalar => Ok(Shape::Vector(1)),
            got => Err(ExprError::Expected {
                what: "index vector",
                got,
            }),
        }
    }

    /// The shape of `self[index] <- value`: the vector `self`, with
    /// `value` recycled to the index length.
    pub fn sub_assign(&self, index: &Shape, value: &Shape) -> Result<Shape, ExprError> {
        self.expect_vector()?;
        index.recycles_into(value, "[<-")?;
        Ok(*self)
    }

    /// The shape of `self[mask] <- value`: the vector `self`, with a mask
    /// of the same shape (or a scalar) and `value` recycled to its length.
    pub fn mask_assign(&self, mask: &Shape, value: &Shape) -> Result<Shape, ExprError> {
        self.expect_vector()?;
        if self != mask && *mask != Shape::Scalar {
            return Err(ExprError::ShapeMismatch {
                lhs: *self,
                rhs: *mask,
                op: "[mask<-",
            });
        }
        self.recycles_into(value, "[mask<-")
    }

    /// The shape of the product `self %*% rhs`.
    pub fn matmul(&self, rhs: &Shape) -> Result<Shape, ExprError> {
        match (*self, *rhs) {
            (Shape::Matrix(r1, c1), Shape::Matrix(r2, c2)) if c1 == r2 => Ok(Shape::Matrix(r1, c2)),
            _ => Err(ExprError::MatMulDims {
                lhs: *self,
                rhs: *rhs,
            }),
        }
    }

    /// `self`, if it is a matrix: the rule of the representation
    /// conversions (`as.dense`, `as.sparse`).
    pub fn expect_matrix(&self) -> Result<Shape, ExprError> {
        match *self {
            s @ Shape::Matrix(..) => Ok(s),
            got => Err(ExprError::Expected {
                what: "matrix",
                got,
            }),
        }
    }

    /// The shape of `t(self)`.
    pub fn transpose(&self) -> Result<Shape, ExprError> {
        match *self {
            Shape::Matrix(r, c) => Ok(Shape::Matrix(c, r)),
            got => Err(ExprError::Expected {
                what: "matrix",
                got,
            }),
        }
    }

    /// The shape of `chol(self)`. The check is structural (square,
    /// non-empty); positive definiteness is a value property the kernels
    /// check while factoring.
    pub fn chol(&self) -> Result<Shape, ExprError> {
        match *self {
            s @ Shape::Matrix(r, c) if r == c && r > 0 => Ok(s),
            got => Err(ExprError::Expected {
                what: "non-empty square matrix",
                got,
            }),
        }
    }

    /// The shape of `solve(self, rhs)`: `self` factors under
    /// [`Shape::chol`], and `rhs` is an `n x m` right-hand side.
    pub fn solve(&self, rhs: &Shape) -> Result<Shape, ExprError> {
        match (self.chol()?, *rhs) {
            (Shape::Matrix(n, _), Shape::Matrix(r, m)) if r == n && m > 0 => {
                Ok(Shape::Matrix(n, m))
            }
            _ => Err(ExprError::MatMulDims {
                lhs: *self,
                rhs: *rhs,
            }),
        }
    }

    fn expect_vector(&self) -> Result<(), ExprError> {
        match *self {
            Shape::Vector(_) => Ok(()),
            got => Err(ExprError::Expected {
                what: "vector",
                got,
            }),
        }
    }

    /// `value` recycles to `self` under [`Shape::zip`] without growing
    /// it: the replacement rule of the update operators.
    fn recycles_into(&self, value: &Shape, op: &'static str) -> Result<Shape, ExprError> {
        if self.zip(value, op)? != *self {
            return Err(ExprError::ShapeMismatch {
                lhs: *self,
                rhs: *value,
                op,
            });
        }
        Ok(*self)
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
    fn factor_shapes() {
        let (a, b) = (Shape::Matrix(3, 3), Shape::Matrix(3, 2));
        assert_eq!(a.matmul(&b), Ok(b));
        assert!(b.matmul(&a).is_err());
        assert_eq!(a.chol(), Ok(a));
        assert!(b.chol().is_err());
        assert!(Shape::Matrix(0, 0).chol().is_err());
        assert_eq!(a.solve(&b), Ok(b));
        assert!(a.solve(&Shape::Matrix(2, 2)).is_err());
        assert!(b.solve(&b).is_err());
    }

    #[test]
    fn display() {
        assert_eq!(Shape::Vector(4).to_string(), "vec[4]");
        assert_eq!(Shape::Matrix(2, 5).to_string(), "mat[2x5]");
    }
}
