//! The expression graph: an arena of hash-consed nodes with shape
//! inference and reachability utilities.
//!
//! Hash-consing gives common-subexpression elimination for free: building
//! `(x - xs)^2` twice yields the same [`NodeId`], so the executor computes
//! shared work once — the DAG sharing the paper gets from SQL view reuse.

use std::collections::HashMap;
use std::sync::Arc;

use crate::expr::{AggOp, BinOp, ExprError, Node, NodeId, SourceRef, UnOp};
use crate::shape::Shape;

/// Arena of expression nodes with structural sharing.
#[derive(Default)]
pub struct ExprGraph {
    nodes: Vec<Node>,
    shapes: Vec<Shape>,
    intern: HashMap<Vec<u8>, NodeId>,
}

impl ExprGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct nodes ever created.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node behind `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// The inferred shape of `id`.
    pub fn shape(&self, id: NodeId) -> Shape {
        self.shapes[id.0 as usize]
    }

    /// Intern `node` with shape `shape`, reusing an existing identical node.
    fn intern(&mut self, node: Node, shape: Shape) -> NodeId {
        let key = node.key();
        if let Some(&id) = self.intern.get(&key) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.shapes.push(shape);
        self.intern.insert(key, id);
        id
    }

    // ---- leaf builders -------------------------------------------------

    /// A stored vector of `len` elements.
    pub fn vec_source(&mut self, source: SourceRef, len: usize) -> NodeId {
        self.intern(Node::VecSource { source, len }, Shape::Vector(len))
    }

    /// A stored `rows x cols` matrix.
    pub fn mat_source(&mut self, source: SourceRef, rows: usize, cols: usize) -> NodeId {
        self.intern(
            Node::MatSource { source, rows, cols },
            Shape::Matrix(rows, cols),
        )
    }

    /// A stored `rows x cols` block-compressed sparse matrix with `nnz`
    /// stored non-zeros.
    pub fn sp_mat_source(
        &mut self,
        source: SourceRef,
        rows: usize,
        cols: usize,
        nnz: u64,
    ) -> NodeId {
        self.intern(
            Node::SpMatSource {
                source,
                rows,
                cols,
                nnz,
            },
            Shape::Matrix(rows, cols),
        )
    }

    /// A small in-memory literal vector.
    pub fn literal(&mut self, values: Vec<f64>) -> NodeId {
        let shape = Shape::Vector(values.len());
        self.intern(Node::Literal(Arc::new(values)), shape)
    }

    /// A scalar constant.
    pub fn scalar(&mut self, value: f64) -> NodeId {
        self.intern(Node::Scalar(value), Shape::Scalar)
    }

    /// The integer sequence `start .. start+len-1` (R's `a:b`).
    pub fn range(&mut self, start: i64, len: usize) -> NodeId {
        self.range_step(start, len, 1)
    }

    /// The sequence of `len` integers from `start` in steps of `step`
    /// (`1` or `-1`).
    pub fn range_step(&mut self, start: i64, len: usize, step: i64) -> NodeId {
        debug_assert!(step == 1 || step == -1, "ranges step by one");
        self.intern(Node::Range { start, len, step }, Shape::Vector(len))
    }

    // ---- operator builders ---------------------------------------------

    /// Unary elementwise map.
    pub fn map(&mut self, op: UnOp, input: NodeId) -> NodeId {
        let shape = self.shape(input);
        self.intern(Node::Map { op, input }, shape)
    }

    /// Binary elementwise op with R recycling.
    pub fn zip(&mut self, op: BinOp, lhs: NodeId, rhs: NodeId) -> Result<NodeId, ExprError> {
        let shape = self.shape(lhs).zip(&self.shape(rhs), op.name())?;
        Ok(self.intern(Node::Zip { op, lhs, rhs }, shape))
    }

    /// Elementwise conditional select.
    pub fn if_else(&mut self, cond: NodeId, yes: NodeId, no: NodeId) -> Result<NodeId, ExprError> {
        let shape = self
            .shape(cond)
            .if_else(&self.shape(yes), &self.shape(no))?;
        Ok(self.intern(Node::IfElse { cond, yes, no }, shape))
    }

    /// Subscript read `data[index]`.
    pub fn gather(&mut self, data: NodeId, index: NodeId) -> Result<NodeId, ExprError> {
        let shape = self.shape(data).gather(&self.shape(index))?;
        Ok(self.intern(Node::Gather { data, index }, shape))
    }

    /// Functional update `data[index] <- value`.
    pub fn sub_assign(
        &mut self,
        data: NodeId,
        index: NodeId,
        value: NodeId,
    ) -> Result<NodeId, ExprError> {
        let shape = self
            .shape(data)
            .sub_assign(&self.shape(index), &self.shape(value))?;
        Ok(self.intern(Node::SubAssign { data, index, value }, shape))
    }

    /// Functional masked update `data[mask] <- value`.
    pub fn mask_assign(
        &mut self,
        data: NodeId,
        mask: NodeId,
        value: NodeId,
    ) -> Result<NodeId, ExprError> {
        let shape = self
            .shape(data)
            .mask_assign(&self.shape(mask), &self.shape(value))?;
        Ok(self.intern(Node::MaskAssign { data, mask, value }, shape))
    }

    /// Matrix multiplication.
    pub fn matmul(&mut self, lhs: NodeId, rhs: NodeId) -> Result<NodeId, ExprError> {
        let shape = self.shape(lhs).matmul(&self.shape(rhs))?;
        Ok(self.intern(Node::MatMul { lhs, rhs }, shape))
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, input: NodeId) -> Result<NodeId, ExprError> {
        let shape = self.shape(input).transpose()?;
        Ok(self.intern(Node::Transpose { input }, shape))
    }

    /// Matrix transpose planned on the sparse kernel (the optimizer's
    /// below-threshold choice for sparse-valued inputs).
    pub fn sp_transpose(&mut self, input: NodeId) -> Result<NodeId, ExprError> {
        let shape = self.shape(input).transpose()?;
        Ok(self.intern(Node::SpTranspose { input }, shape))
    }

    /// Sparse-to-dense conversion of a matrix-valued node.
    pub fn densify(&mut self, input: NodeId) -> Result<NodeId, ExprError> {
        let shape = self.shape(input).expect_matrix()?;
        Ok(self.intern(Node::Densify { input }, shape))
    }

    /// Dense-to-sparse compression of a matrix-valued node.
    pub fn sparsify(&mut self, input: NodeId) -> Result<NodeId, ExprError> {
        let shape = self.shape(input).expect_matrix()?;
        Ok(self.intern(Node::Sparsify { input }, shape))
    }

    /// Scalar reduction.
    pub fn agg(&mut self, op: AggOp, input: NodeId) -> NodeId {
        self.intern(Node::Agg { op, input }, Shape::Scalar)
    }

    /// Cholesky factorization of a square matrix-valued node.
    pub fn chol(&mut self, input: NodeId) -> Result<NodeId, ExprError> {
        let shape = self.shape(input).chol()?;
        Ok(self.intern(Node::Chol { input }, shape))
    }

    /// Linear solve `solve(a, b)`: `a` square `n x n`, `b` an `n x m`
    /// right-hand side.
    pub fn solve(&mut self, lhs: NodeId, rhs: NodeId) -> Result<NodeId, ExprError> {
        let shape = self.shape(lhs).solve(&self.shape(rhs))?;
        Ok(self.intern(Node::Solve { lhs, rhs }, shape))
    }

    // ---- analysis ------------------------------------------------------

    /// All nodes reachable from `roots`, in topological (children-first)
    /// order.
    pub fn reachable(&self, roots: &[NodeId]) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut order = Vec::new();
        let mut stack: Vec<(NodeId, bool)> = roots.iter().rev().map(|&r| (r, false)).collect();
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                order.push(id);
                continue;
            }
            if seen[id.0 as usize] {
                continue;
            }
            seen[id.0 as usize] = true;
            stack.push((id, true));
            for child in self.node(id).children().into_iter().rev() {
                if !seen[child.0 as usize] {
                    stack.push((child, false));
                }
            }
        }
        order
    }

    /// Number of references to each node from within the sub-DAG reachable
    /// from `roots` (roots get one extra count as externally referenced).
    pub fn ref_counts(&self, roots: &[NodeId]) -> HashMap<NodeId, usize> {
        let mut counts: HashMap<NodeId, usize> = HashMap::new();
        for id in self.reachable(roots) {
            for c in self.node(id).children() {
                *counts.entry(c).or_insert(0) += 1;
            }
        }
        for &r in roots {
            *counts.entry(r).or_insert(0) += 1;
        }
        counts
    }

    /// Render `id` as an R-like expression string (cycles impossible:
    /// graphs are acyclic by construction).
    pub fn render(&self, id: NodeId) -> String {
        match self.node(id) {
            Node::VecSource { source, .. } => format!("v{}", source.0),
            Node::MatSource { source, .. } => format!("m{}", source.0),
            Node::SpMatSource { source, .. } => format!("sp{}", source.0),
            Node::Densify { input } => format!("as.dense({})", self.render(*input)),
            Node::Sparsify { input } => format!("as.sparse({})", self.render(*input)),
            Node::Literal(v) => {
                if v.len() <= 4 {
                    format!(
                        "c({})",
                        v.iter()
                            .map(|x| format!("{x}"))
                            .collect::<Vec<_>>()
                            .join(",")
                    )
                } else {
                    format!("c(<{} values>)", v.len())
                }
            }
            Node::Scalar(x) => format!("{x}"),
            Node::Range { start, len, step } => {
                format!("{}:{}", start, start + step * (*len as i64 - 1))
            }
            Node::Map { op, input } => match op {
                UnOp::Neg => format!("-{}", self.render(*input)),
                UnOp::Square => format!("{}^2", self.render(*input)),
                _ => format!("{}({})", op.name(), self.render(*input)),
            },
            Node::Zip { op, lhs, rhs } => match op {
                BinOp::Min | BinOp::Max => {
                    format!(
                        "{}({}, {})",
                        op.name(),
                        self.render(*lhs),
                        self.render(*rhs)
                    )
                }
                _ => format!(
                    "({} {} {})",
                    self.render(*lhs),
                    op.name(),
                    self.render(*rhs)
                ),
            },
            Node::IfElse { cond, yes, no } => format!(
                "ifelse({}, {}, {})",
                self.render(*cond),
                self.render(*yes),
                self.render(*no)
            ),
            Node::Gather { data, index } => {
                format!("{}[{}]", self.render(*data), self.render(*index))
            }
            Node::SubAssign { data, index, value } => format!(
                "`[<-`({}, {}, {})",
                self.render(*data),
                self.render(*index),
                self.render(*value)
            ),
            Node::MaskAssign { data, mask, value } => format!(
                "`[<-`({}, {}, {})",
                self.render(*data),
                self.render(*mask),
                self.render(*value)
            ),
            Node::MatMul { lhs, rhs } => {
                format!("({} %*% {})", self.render(*lhs), self.render(*rhs))
            }
            Node::Transpose { input } => format!("t({})", self.render(*input)),
            Node::SpTranspose { input } => format!("t({})", self.render(*input)),
            Node::Agg { op, input } => format!("{}({})", op.name(), self.render(*input)),
            Node::Chol { input } => format!("chol({})", self.render(*input)),
            Node::Solve { lhs, rhs } => {
                format!("solve({}, {})", self.render(*lhs), self.render(*rhs))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> ExprGraph {
        ExprGraph::new()
    }

    #[test]
    fn hash_consing_dedupes() {
        let mut g = graph();
        let x = g.vec_source(SourceRef(0), 10);
        let a = g.zip(BinOp::Add, x, x).unwrap();
        let b = g.zip(BinOp::Add, x, x).unwrap();
        assert_eq!(a, b);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn shape_inference_through_pipeline() {
        let mut g = graph();
        let x = g.vec_source(SourceRef(0), 8);
        let c = g.scalar(3.0);
        let s = g.zip(BinOp::Sub, x, c).unwrap();
        assert_eq!(g.shape(s), Shape::Vector(8));
        let sq = g.map(UnOp::Square, s);
        assert_eq!(g.shape(sq), Shape::Vector(8));
        let total = g.agg(AggOp::Sum, sq);
        assert_eq!(g.shape(total), Shape::Scalar);
    }

    #[test]
    fn zip_rejects_bad_shapes() {
        let mut g = graph();
        let a = g.vec_source(SourceRef(0), 5);
        let b = g.vec_source(SourceRef(1), 3);
        assert!(g.zip(BinOp::Add, a, b).is_err());
        // Recycling allowed when lengths divide.
        let c = g.vec_source(SourceRef(2), 10);
        assert!(g.zip(BinOp::Add, a, c).is_ok());
    }

    #[test]
    fn matmul_shapes() {
        let mut g = graph();
        let a = g.mat_source(SourceRef(0), 3, 4);
        let b = g.mat_source(SourceRef(1), 4, 5);
        let ab = g.matmul(a, b).unwrap();
        assert_eq!(g.shape(ab), Shape::Matrix(3, 5));
        assert!(g.matmul(b, a).is_err());
        let t = g.transpose(ab).unwrap();
        assert_eq!(g.shape(t), Shape::Matrix(5, 3));
    }

    #[test]
    fn gather_shape_follows_index() {
        let mut g = graph();
        let d = g.vec_source(SourceRef(0), 100);
        let idx = g.literal(vec![1.0, 5.0, 7.0]);
        let z = g.gather(d, idx).unwrap();
        assert_eq!(g.shape(z), Shape::Vector(3));
    }

    #[test]
    fn mask_assign_requires_aligned_mask() {
        let mut g = graph();
        let d = g.vec_source(SourceRef(0), 10);
        let m_bad = g.vec_source(SourceRef(1), 4);
        let hundred = g.scalar(100.0);
        assert!(g.mask_assign(d, m_bad, hundred).is_err());
        let m_ok = g.zip(BinOp::Gt, d, hundred).unwrap();
        let b = g.mask_assign(d, m_ok, hundred).unwrap();
        assert_eq!(g.shape(b), Shape::Vector(10));
    }

    #[test]
    fn reachable_is_topological() {
        let mut g = graph();
        let x = g.vec_source(SourceRef(0), 4);
        let y = g.vec_source(SourceRef(1), 4);
        let s = g.zip(BinOp::Add, x, y).unwrap();
        let q = g.map(UnOp::Sqrt, s);
        let order = g.reachable(&[q]);
        let pos = |id: NodeId| order.iter().position(|&n| n == id).expect("node in order");
        assert!(pos(x) < pos(s));
        assert!(pos(y) < pos(s));
        assert!(pos(s) < pos(q));
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn ref_counts_shared_nodes() {
        let mut g = graph();
        let x = g.vec_source(SourceRef(0), 4);
        let sq = g.map(UnOp::Square, x);
        let sum = g.zip(BinOp::Add, sq, sq).unwrap();
        let counts = g.ref_counts(&[sum]);
        assert_eq!(counts[&sq], 2);
        assert_eq!(counts[&sum], 1);
    }

    #[test]
    fn render_example_1_line() {
        // d <- sqrt((x-xs)^2 + (y-ys)^2): check the pretty printer shape.
        let mut g = graph();
        let x = g.vec_source(SourceRef(0), 4);
        let y = g.vec_source(SourceRef(1), 4);
        let xs = g.scalar(1.0);
        let ys = g.scalar(2.0);
        let dx = g.zip(BinOp::Sub, x, xs).unwrap();
        let dy = g.zip(BinOp::Sub, y, ys).unwrap();
        let dx2 = g.map(UnOp::Square, dx);
        let dy2 = g.map(UnOp::Square, dy);
        let sum = g.zip(BinOp::Add, dx2, dy2).unwrap();
        let d = g.map(UnOp::Sqrt, sum);
        assert_eq!(g.render(d), "sqrt(((v0 - 1)^2 + (v1 - 2)^2))");
    }
}
