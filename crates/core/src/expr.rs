//! The RIOT expression algebra (§5 of the paper).
//!
//! Every R operation an engine defers becomes one node in a DAG. The
//! algebra treats linear-algebra operations (matrix multiply, transpose) as
//! first-class citizens — the paper argues minimalist algebras that lower
//! them to relational operators forfeit high-level optimizations — and it
//! models *modification* functionally: `b[i] <- v` is the side-effect-free
//! operator `[]<-` ([`Node::SubAssign`] / [`Node::MaskAssign`]) taking the
//! old state and returning the new, which is what lets RIOT keep deferring
//! across assignments (Figure 2).

use std::sync::Arc;

use crate::shape::Shape;

/// Identifier of a node in an [`crate::graph::ExprGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Reference to a stored array held by the engine (outside the graph, so
/// graphs stay serializable and engines own their storage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceRef(pub u32);

/// Unary elementwise operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Negation.
    Neg,
    /// Square root.
    Sqrt,
    /// Absolute value.
    Abs,
    /// `x * x` (strength-reduced from `x ^ 2`).
    Square,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Ln,
    /// Logical not (0 -> 1, nonzero -> 0).
    Not,
}

impl UnOp {
    /// Apply the operation to one scalar.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            UnOp::Neg => -x,
            UnOp::Sqrt => x.sqrt(),
            UnOp::Abs => x.abs(),
            UnOp::Square => x * x,
            UnOp::Exp => x.exp(),
            UnOp::Ln => x.ln(),
            UnOp::Not => {
                if x == 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// R-ish surface syntax (for DAG pretty-printing).
    pub fn name(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Sqrt => "sqrt",
            UnOp::Abs => "abs",
            UnOp::Square => "square",
            UnOp::Exp => "exp",
            UnOp::Ln => "log",
            UnOp::Not => "!",
        }
    }

    /// SQL rendering (for the RIOT-DB view generator).
    pub fn sql(self, arg: &str) -> String {
        match self {
            UnOp::Neg => format!("(-{arg})"),
            UnOp::Sqrt => format!("SQRT({arg})"),
            UnOp::Abs => format!("ABS({arg})"),
            UnOp::Square => format!("POW({arg},2)"),
            UnOp::Exp => format!("EXP({arg})"),
            UnOp::Ln => format!("LN({arg})"),
            UnOp::Not => format!("(CASE WHEN {arg}=0 THEN 1 ELSE 0 END)"),
        }
    }
}

/// Binary elementwise operations. Comparisons produce 0/1 logicals, as in
/// R's numeric coercion of `TRUE`/`FALSE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Exponentiation (`^`).
    Pow,
    /// Modulo with R's `%%` semantics (`x - floor(x/y)*y`).
    Mod,
    /// Elementwise minimum (`pmin`).
    Min,
    /// Elementwise maximum (`pmax`).
    Max,
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
    /// Logical and (nonzero = true).
    And,
    /// Logical or.
    Or,
}

impl BinOp {
    /// Apply the operation to two scalars.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        let t = |x: bool| if x { 1.0 } else { 0.0 };
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Pow => a.powf(b),
            BinOp::Mod => a - (a / b).floor() * b,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
            BinOp::Eq => t(a == b),
            BinOp::Ne => t(a != b),
            BinOp::Lt => t(a < b),
            BinOp::Le => t(a <= b),
            BinOp::Gt => t(a > b),
            BinOp::Ge => t(a >= b),
            BinOp::And => t(a != 0.0 && b != 0.0),
            BinOp::Or => t(a != 0.0 || b != 0.0),
        }
    }

    /// R-ish surface syntax.
    pub fn name(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Pow => "^",
            BinOp::Mod => "%%",
            BinOp::Min => "pmin",
            BinOp::Max => "pmax",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&",
            BinOp::Or => "|",
        }
    }

    /// SQL rendering.
    pub fn sql(self, a: &str, b: &str) -> String {
        match self {
            BinOp::Add => format!("({a}+{b})"),
            BinOp::Sub => format!("({a}-{b})"),
            BinOp::Mul => format!("({a}*{b})"),
            BinOp::Div => format!("({a}/{b})"),
            BinOp::Pow => format!("POW({a},{b})"),
            BinOp::Mod => format!("MOD({a},{b})"),
            BinOp::Min => format!("LEAST({a},{b})"),
            BinOp::Max => format!("GREATEST({a},{b})"),
            BinOp::Eq => format!("(CASE WHEN {a}={b} THEN 1 ELSE 0 END)"),
            BinOp::Ne => format!("(CASE WHEN {a}<>{b} THEN 1 ELSE 0 END)"),
            BinOp::Lt => format!("(CASE WHEN {a}<{b} THEN 1 ELSE 0 END)"),
            BinOp::Le => format!("(CASE WHEN {a}<={b} THEN 1 ELSE 0 END)"),
            BinOp::Gt => format!("(CASE WHEN {a}>{b} THEN 1 ELSE 0 END)"),
            BinOp::Ge => format!("(CASE WHEN {a}>={b} THEN 1 ELSE 0 END)"),
            BinOp::And => format!("(CASE WHEN {a}<>0 AND {b}<>0 THEN 1 ELSE 0 END)"),
            BinOp::Or => format!("(CASE WHEN {a}<>0 OR {b}<>0 THEN 1 ELSE 0 END)"),
        }
    }
}

/// Whole-input reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggOp {
    /// Sum of elements.
    Sum,
    /// Arithmetic mean.
    Mean,
    /// Minimum element.
    Min,
    /// Maximum element.
    Max,
}

impl AggOp {
    /// Fold `acc` with the next value (`Mean` accumulates a sum; callers
    /// divide by the count at the end).
    pub fn fold(self, acc: f64, x: f64) -> f64 {
        match self {
            AggOp::Sum | AggOp::Mean => acc + x,
            AggOp::Min => acc.min(x),
            AggOp::Max => acc.max(x),
        }
    }

    /// Neutral starting accumulator.
    pub fn init(self) -> f64 {
        match self {
            AggOp::Sum | AggOp::Mean => 0.0,
            AggOp::Min => f64::INFINITY,
            AggOp::Max => f64::NEG_INFINITY,
        }
    }

    /// Name for printing.
    pub fn name(self) -> &'static str {
        match self {
            AggOp::Sum => "sum",
            AggOp::Mean => "mean",
            AggOp::Min => "min",
            AggOp::Max => "max",
        }
    }
}

/// One operator in the expression DAG.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A stored vector owned by the engine.
    VecSource {
        /// Engine-side storage handle.
        source: SourceRef,
        /// Number of elements.
        len: usize,
    },
    /// A stored matrix owned by the engine.
    MatSource {
        /// Engine-side storage handle.
        source: SourceRef,
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
    },
    /// A stored block-compressed sparse matrix owned by the engine. The
    /// non-zero count rides in the node so the optimizer can estimate
    /// density without touching storage (the catalog-carried statistic of
    /// the sparse subsystem).
    SpMatSource {
        /// Engine-side storage handle.
        source: SourceRef,
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
        /// Stored non-zeros.
        nnz: u64,
    },
    /// Sparse-to-dense conversion. Inserted by the optimizer when a sparse
    /// operand is too dense for the sparse kernels to pay off, and by the
    /// frontend's `as.dense`.
    Densify {
        /// Input matrix (sparse-valued).
        input: NodeId,
    },
    /// Dense-to-sparse compression (`as.sparse`).
    Sparsify {
        /// Input matrix (dense-valued).
        input: NodeId,
    },
    /// A small in-memory vector (e.g. the 100 sampled indices of Example 1
    /// — the optimizer exploits that these are known and small).
    Literal(Arc<Vec<f64>>),
    /// A scalar constant.
    Scalar(f64),
    /// The sequence `start, start+step, ..., start+step*(len-1)` (R's
    /// `a:b`, which counts down when `a > b`).
    Range {
        /// First value.
        start: i64,
        /// Number of values.
        len: usize,
        /// `1` for an ascending sequence, `-1` for a descending one.
        step: i64,
    },
    /// Unary elementwise map.
    Map {
        /// Operation.
        op: UnOp,
        /// Input node.
        input: NodeId,
    },
    /// Binary elementwise combination with R recycling.
    Zip {
        /// Operation.
        op: BinOp,
        /// Left input.
        lhs: NodeId,
        /// Right input.
        rhs: NodeId,
    },
    /// Elementwise conditional: `cond[i] != 0 ? yes[i] : no[i]`.
    IfElse {
        /// Condition (0/1 logical).
        cond: NodeId,
        /// Value when true.
        yes: NodeId,
        /// Value when false.
        no: NodeId,
    },
    /// Subscript read `data[index]` with 1-based indices.
    Gather {
        /// Vector being indexed.
        data: NodeId,
        /// Index vector.
        index: NodeId,
    },
    /// Functional indexed update: a copy of `data` where position
    /// `index[k]` holds `value[k]` (or a broadcast scalar value). This is
    /// the paper's `[]<-` operator.
    SubAssign {
        /// Old state.
        data: NodeId,
        /// 1-based positions to replace.
        index: NodeId,
        /// Replacement values.
        value: NodeId,
    },
    /// Functional masked update: where `mask[i] != 0`, take `value[i]`,
    /// else keep `data[i]` (`b[b>100] <- 100`).
    MaskAssign {
        /// Old state.
        data: NodeId,
        /// 0/1 mask, same length as `data`.
        mask: NodeId,
        /// Replacement values (broadcastable).
        value: NodeId,
    },
    /// Matrix product (`%*%`), a first-class operator.
    MatMul {
        /// Left matrix.
        lhs: NodeId,
        /// Right matrix.
        rhs: NodeId,
    },
    /// Matrix transpose (representation-generic: the executor dispatches
    /// the native sparse kernel when the forced operand is sparse).
    Transpose {
        /// Input matrix.
        input: NodeId,
    },
    /// Transpose **planned on the sparse kernel**: emitted by the
    /// optimizer for sparse-valued inputs below the density threshold, so
    /// the plan itself records that the result stays in the sparse
    /// representation (and downstream rules — e.g. the `MatMul`
    /// physical-representation choice — can see through it).
    SpTranspose {
        /// Input matrix (sparse-valued).
        input: NodeId,
    },
    /// Reduction to a scalar.
    Agg {
        /// Reduction operation.
        op: AggOp,
        /// Input node.
        input: NodeId,
    },
    /// Cholesky factorization (`chol`): the lower-triangular `L` with
    /// `L · Lᵀ = input` for a symmetric positive definite input. Executes
    /// on the out-of-core tiled POTRF/TRSM/SYRK kernel; non-positive-
    /// definite inputs surface a typed error, never NaNs.
    Chol {
        /// Input matrix (symmetric positive definite; only the lower
        /// triangle is read).
        input: NodeId,
    },
    /// Linear solve (`solve(a, b)`) for symmetric positive definite `a`:
    /// factors `a = L·Lᵀ` out of core, then blocked forward/backward
    /// triangular substitution — the inverse is never materialized.
    Solve {
        /// Coefficient matrix (symmetric positive definite).
        lhs: NodeId,
        /// Right-hand side (matrix, one column strip per solve).
        rhs: NodeId,
    },
}

impl Node {
    /// Children of this node in evaluation order.
    pub fn children(&self) -> Vec<NodeId> {
        match *self {
            Node::VecSource { .. }
            | Node::MatSource { .. }
            | Node::SpMatSource { .. }
            | Node::Literal(_)
            | Node::Scalar(_)
            | Node::Range { .. } => vec![],
            Node::Map { input, .. }
            | Node::Transpose { input }
            | Node::SpTranspose { input }
            | Node::Agg { input, .. }
            | Node::Densify { input }
            | Node::Sparsify { input }
            | Node::Chol { input } => {
                vec![input]
            }
            Node::Zip { lhs, rhs, .. } | Node::MatMul { lhs, rhs } | Node::Solve { lhs, rhs } => {
                vec![lhs, rhs]
            }
            Node::IfElse { cond, yes, no } => vec![cond, yes, no],
            Node::Gather { data, index } => vec![data, index],
            Node::SubAssign { data, index, value } => vec![data, index, value],
            Node::MaskAssign { data, mask, value } => vec![data, mask, value],
        }
    }

    /// True for nodes with no inputs (leaves of the DAG).
    pub fn is_leaf(&self) -> bool {
        self.children().is_empty()
    }

    /// Stable byte key for hash-consing (uses `f64::to_bits` so `-0.0`,
    /// `NaN` payloads etc. are distinguished deterministically).
    pub fn key(&self) -> Vec<u8> {
        let mut k = Vec::with_capacity(24);
        let push_id = |k: &mut Vec<u8>, id: NodeId| k.extend_from_slice(&id.0.to_le_bytes());
        match self {
            Node::VecSource { source, len } => {
                k.push(0);
                k.extend_from_slice(&source.0.to_le_bytes());
                k.extend_from_slice(&(*len as u64).to_le_bytes());
            }
            Node::MatSource { source, rows, cols } => {
                k.push(1);
                k.extend_from_slice(&source.0.to_le_bytes());
                k.extend_from_slice(&(*rows as u64).to_le_bytes());
                k.extend_from_slice(&(*cols as u64).to_le_bytes());
            }
            Node::Literal(v) => {
                k.push(2);
                for x in v.iter() {
                    k.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
            Node::Scalar(x) => {
                k.push(3);
                k.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            Node::Range { start, len, step } => {
                k.push(4);
                k.extend_from_slice(&start.to_le_bytes());
                k.extend_from_slice(&(*len as u64).to_le_bytes());
                k.extend_from_slice(&step.to_le_bytes());
            }
            Node::Map { op, input } => {
                k.push(5);
                k.push(*op as u8);
                push_id(&mut k, *input);
            }
            Node::Zip { op, lhs, rhs } => {
                k.push(6);
                k.push(*op as u8);
                push_id(&mut k, *lhs);
                push_id(&mut k, *rhs);
            }
            Node::IfElse { cond, yes, no } => {
                k.push(7);
                push_id(&mut k, *cond);
                push_id(&mut k, *yes);
                push_id(&mut k, *no);
            }
            Node::Gather { data, index } => {
                k.push(8);
                push_id(&mut k, *data);
                push_id(&mut k, *index);
            }
            Node::SubAssign { data, index, value } => {
                k.push(9);
                push_id(&mut k, *data);
                push_id(&mut k, *index);
                push_id(&mut k, *value);
            }
            Node::MaskAssign { data, mask, value } => {
                k.push(10);
                push_id(&mut k, *data);
                push_id(&mut k, *mask);
                push_id(&mut k, *value);
            }
            Node::MatMul { lhs, rhs } => {
                k.push(11);
                push_id(&mut k, *lhs);
                push_id(&mut k, *rhs);
            }
            Node::Transpose { input } => {
                k.push(12);
                push_id(&mut k, *input);
            }
            Node::Agg { op, input } => {
                k.push(13);
                k.push(*op as u8);
                push_id(&mut k, *input);
            }
            Node::SpMatSource {
                source,
                rows,
                cols,
                nnz,
            } => {
                k.push(14);
                k.extend_from_slice(&source.0.to_le_bytes());
                k.extend_from_slice(&(*rows as u64).to_le_bytes());
                k.extend_from_slice(&(*cols as u64).to_le_bytes());
                k.extend_from_slice(&nnz.to_le_bytes());
            }
            Node::Densify { input } => {
                k.push(15);
                push_id(&mut k, *input);
            }
            Node::Sparsify { input } => {
                k.push(16);
                push_id(&mut k, *input);
            }
            Node::SpTranspose { input } => {
                k.push(17);
                push_id(&mut k, *input);
            }
            Node::Chol { input } => {
                k.push(18);
                push_id(&mut k, *input);
            }
            Node::Solve { lhs, rhs } => {
                k.push(19);
                push_id(&mut k, *lhs);
                push_id(&mut k, *rhs);
            }
        }
        k
    }
}

/// Errors raised while building or transforming expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprError {
    /// Elementwise combination of incompatible shapes.
    ShapeMismatch {
        /// Left shape.
        lhs: Shape,
        /// Right shape.
        rhs: Shape,
        /// Operation name.
        op: &'static str,
    },
    /// Matrix multiply with mismatched inner dimensions.
    MatMulDims {
        /// Left shape.
        lhs: Shape,
        /// Right shape.
        rhs: Shape,
    },
    /// An operation that requires a vector/matrix received something else.
    Expected {
        /// What was required.
        what: &'static str,
        /// What was found.
        got: Shape,
    },
    /// Subscript index outside `1..=len` detected at execution.
    IndexOutOfBounds {
        /// Offending 1-based index value.
        index: i64,
        /// Length of the indexed vector.
        len: usize,
    },
}

impl std::fmt::Display for ExprError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExprError::ShapeMismatch { lhs, rhs, op } => {
                write!(f, "shape mismatch for '{op}': {lhs} vs {rhs}")
            }
            ExprError::MatMulDims { lhs, rhs } => {
                write!(f, "non-conformable matrices for %*%: {lhs} vs {rhs}")
            }
            ExprError::Expected { what, got } => write!(f, "expected {what}, got {got}"),
            ExprError::IndexOutOfBounds { index, len } => {
                write!(f, "subscript {index} out of bounds for length {len}")
            }
        }
    }
}

impl std::error::Error for ExprError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unop_semantics() {
        assert_eq!(UnOp::Neg.apply(2.0), -2.0);
        assert_eq!(UnOp::Sqrt.apply(9.0), 3.0);
        assert_eq!(UnOp::Square.apply(-3.0), 9.0);
        assert_eq!(UnOp::Not.apply(0.0), 1.0);
        assert_eq!(UnOp::Not.apply(4.0), 0.0);
    }

    #[test]
    fn binop_semantics() {
        assert_eq!(BinOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinOp::Pow.apply(2.0, 10.0), 1024.0);
        assert_eq!(BinOp::Gt.apply(2.0, 1.0), 1.0);
        assert_eq!(BinOp::Gt.apply(1.0, 2.0), 0.0);
        assert_eq!(BinOp::And.apply(1.0, 0.0), 0.0);
        assert_eq!(BinOp::Or.apply(1.0, 0.0), 1.0);
        assert_eq!(BinOp::Min.apply(1.0, -2.0), -2.0);
    }

    #[test]
    fn agg_fold() {
        let xs = [3.0, -1.0, 7.0];
        for (op, want) in [(AggOp::Sum, 9.0), (AggOp::Min, -1.0), (AggOp::Max, 7.0)] {
            let got = xs.iter().fold(op.init(), |a, &x| op.fold(a, x));
            assert_eq!(got, want, "{op:?}");
        }
    }

    #[test]
    fn children_enumeration() {
        let n = Node::IfElse {
            cond: NodeId(1),
            yes: NodeId(2),
            no: NodeId(3),
        };
        assert_eq!(n.children(), vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert!(Node::Scalar(1.0).is_leaf());
        assert!(!n.is_leaf());
    }

    #[test]
    fn keys_distinguish_nodes() {
        let a = Node::Scalar(1.0);
        let b = Node::Scalar(-1.0);
        let c = Node::Scalar(1.0);
        assert_ne!(a.key(), b.key());
        assert_eq!(a.key(), c.key());
        // NaN keys are stable (same bit pattern).
        assert_eq!(Node::Scalar(f64::NAN).key(), Node::Scalar(f64::NAN).key());
        // Different node kinds with the same payload differ.
        assert_ne!(
            Node::Map {
                op: UnOp::Neg,
                input: NodeId(0)
            }
            .key(),
            Node::Transpose { input: NodeId(0) }.key()
        );
    }

    #[test]
    fn sql_snippets() {
        assert_eq!(UnOp::Sqrt.sql("V"), "SQRT(V)");
        assert_eq!(BinOp::Add.sql("a", "b"), "(a+b)");
        assert!(BinOp::Gt.sql("a", "b").contains("CASE WHEN a>b"));
    }
}
