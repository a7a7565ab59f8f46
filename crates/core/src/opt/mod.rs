//! The RIOT optimizer: rewrite rules plus matrix-chain reordering.
//!
//! [`optimize`] is the single entry point engines call at a forcing point
//! (`print`, collection): it rewrites the DAG (subscript pushdown, masked
//! updates to conditionals, folding — see [`rules`]) and then reassociates
//! matrix-multiplication chains by dynamic programming (see [`chain`]),
//! exactly the two optimization levels §5 describes.

pub mod chain;
pub mod rules;

use std::collections::HashMap;

pub use chain::{all_orders, optimal_order, ChainPlan};
pub use rules::{rewrite, OptConfig, RewriteStats};

use crate::expr::{Node, NodeId};
use crate::graph::ExprGraph;
use crate::shape::Shape;

/// Optimize the DAG rooted at `root`; returns the new root and statistics.
pub fn optimize(g: &mut ExprGraph, root: NodeId, cfg: &OptConfig) -> (NodeId, RewriteStats) {
    let mut stats = RewriteStats::default();
    let mut out = rewrite(g, root, cfg, &mut stats);
    if cfg.reorder_chains {
        let mut memo = HashMap::new();
        out = reorder(g, out, &mut stats, &mut memo);
    }
    (out, stats)
}

/// Recursively reassociate every maximal `MatMul` chain below `id`.
fn reorder(
    g: &mut ExprGraph,
    id: NodeId,
    stats: &mut RewriteStats,
    memo: &mut HashMap<NodeId, NodeId>,
) -> NodeId {
    if let Some(&r) = memo.get(&id) {
        return r;
    }
    let node = g.node(id).clone();
    let out = if matches!(node, Node::MatMul { .. }) {
        // Flatten the maximal chain of MatMuls rooted here.
        let mut leaves = Vec::new();
        flatten_chain(g, id, &mut leaves);
        // Recurse inside the leaves (they may contain further chains, e.g.
        // under a Transpose).
        let leaves: Vec<NodeId> = leaves
            .into_iter()
            .map(|l| reorder(g, l, stats, memo))
            .collect();
        if leaves.len() <= 2 {
            rebuild_binary(g, &leaves)
        } else {
            let mut dims = Vec::with_capacity(leaves.len() + 1);
            for (i, &l) in leaves.iter().enumerate() {
                let Shape::Matrix(r, c) = g.shape(l) else {
                    unreachable!("matmul leaves are matrices");
                };
                if i == 0 {
                    dims.push(r);
                }
                dims.push(c);
            }
            let plan = chain::optimal_order(&dims);
            stats.chains_reordered += 1;
            build_tree(g, &plan.tree, &leaves)
        }
    } else {
        rebuild_with_children(g, &node, stats, memo)
    };
    memo.insert(id, out);
    out
}

/// Collect the operand leaves of the maximal MatMul subtree at `id`.
fn flatten_chain(g: &ExprGraph, id: NodeId, leaves: &mut Vec<NodeId>) {
    match *g.node(id) {
        Node::MatMul { lhs, rhs } => {
            flatten_chain(g, lhs, leaves);
            flatten_chain(g, rhs, leaves);
        }
        _ => leaves.push(id),
    }
}

fn rebuild_binary(g: &mut ExprGraph, leaves: &[NodeId]) -> NodeId {
    match leaves {
        [only] => *only,
        [l, r] => g.matmul(*l, *r).expect("shapes preserved"),
        _ => unreachable!(),
    }
}

fn build_tree(g: &mut ExprGraph, tree: &crate::cost::ChainTree, leaves: &[NodeId]) -> NodeId {
    match tree {
        crate::cost::ChainTree::Leaf(i) => leaves[*i],
        crate::cost::ChainTree::Mul(l, r) => {
            let lhs = build_tree(g, l, leaves);
            let rhs = build_tree(g, r, leaves);
            g.matmul(lhs, rhs).expect("shapes preserved")
        }
    }
}

fn rebuild_with_children(
    g: &mut ExprGraph,
    node: &Node,
    stats: &mut RewriteStats,
    memo: &mut HashMap<NodeId, NodeId>,
) -> NodeId {
    let go = |g: &mut ExprGraph,
              id: NodeId,
              stats: &mut RewriteStats,
              memo: &mut HashMap<NodeId, NodeId>| { reorder(g, id, stats, memo) };
    match node.clone() {
        n @ (Node::VecSource { .. }
        | Node::MatSource { .. }
        | Node::SpMatSource { .. }
        | Node::Literal(_)
        | Node::Scalar(_)
        | Node::Range { .. }) => {
            // Leaves: re-intern is unnecessary; find the existing id via a
            // rebuild through the public builders.
            match n {
                Node::VecSource { source, len } => g.vec_source(source, len),
                Node::MatSource { source, rows, cols } => g.mat_source(source, rows, cols),
                Node::SpMatSource {
                    source,
                    rows,
                    cols,
                    nnz,
                } => g.sp_mat_source(source, rows, cols, nnz),
                Node::Literal(v) => g.literal(v.as_ref().clone()),
                Node::Scalar(x) => g.scalar(x),
                Node::Range { start, len, step } => g.range_step(start, len, step),
                _ => unreachable!(),
            }
        }
        Node::Densify { input } => {
            let input = go(g, input, stats, memo);
            g.densify(input).expect("shapes preserved")
        }
        Node::Sparsify { input } => {
            let input = go(g, input, stats, memo);
            g.sparsify(input).expect("shapes preserved")
        }
        Node::Map { op, input } => {
            let input = go(g, input, stats, memo);
            g.map(op, input)
        }
        Node::Zip { op, lhs, rhs } => {
            let lhs = go(g, lhs, stats, memo);
            let rhs = go(g, rhs, stats, memo);
            g.zip(op, lhs, rhs).expect("shapes preserved")
        }
        Node::IfElse { cond, yes, no } => {
            let cond = go(g, cond, stats, memo);
            let yes = go(g, yes, stats, memo);
            let no = go(g, no, stats, memo);
            g.if_else(cond, yes, no).expect("shapes preserved")
        }
        Node::Gather { data, index } => {
            let data = go(g, data, stats, memo);
            let index = go(g, index, stats, memo);
            g.gather(data, index).expect("shapes preserved")
        }
        Node::SubAssign { data, index, value } => {
            let data = go(g, data, stats, memo);
            let index = go(g, index, stats, memo);
            let value = go(g, value, stats, memo);
            g.sub_assign(data, index, value).expect("shapes preserved")
        }
        Node::MaskAssign { data, mask, value } => {
            let data = go(g, data, stats, memo);
            let mask = go(g, mask, stats, memo);
            let value = go(g, value, stats, memo);
            g.mask_assign(data, mask, value).expect("shapes preserved")
        }
        Node::MatMul { .. } => unreachable!("handled by caller"),
        Node::Transpose { input } => {
            let input = go(g, input, stats, memo);
            g.transpose(input).expect("shapes preserved")
        }
        Node::SpTranspose { input } => {
            let input = go(g, input, stats, memo);
            g.sp_transpose(input).expect("shapes preserved")
        }
        Node::Agg { op, input } => {
            let input = go(g, input, stats, memo);
            g.agg(op, input)
        }
        Node::Chol { input } => {
            let input = go(g, input, stats, memo);
            g.chol(input).expect("shapes preserved")
        }
        Node::Solve { lhs, rhs } => {
            let lhs = go(g, lhs, stats, memo);
            let rhs = go(g, rhs, stats, memo);
            g.solve(lhs, rhs).expect("shapes preserved")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, MemSources};
    use crate::expr::AggOp;

    #[test]
    fn chain_of_three_reorders_under_skew() {
        let mut g = ExprGraph::new();
        let mut src = MemSources::new();
        // A: 8x2, B: 2x8, C: 8x8 -> optimal is A(BC).
        let a_ref = src.add_matrix(8, 2, (0..16).map(|i| i as f64).collect());
        let b_ref = src.add_matrix(2, 8, (0..16).map(|i| (i as f64) * 0.5).collect());
        let c_ref = src.add_matrix(8, 8, (0..64).map(|i| (i % 7) as f64).collect());
        let a = g.mat_source(a_ref, 8, 2);
        let b = g.mat_source(b_ref, 2, 8);
        let c = g.mat_source(c_ref, 8, 8);
        let ab = g.matmul(a, b).unwrap();
        let abc = g.matmul(ab, c).unwrap();

        let want = evaluate(&g, abc, &src).unwrap();
        let (opt, stats) = optimize(&mut g, abc, &OptConfig::default());
        assert_eq!(stats.chains_reordered, 1);
        // New root multiplies A by (BC): its rhs is a MatMul.
        let Node::MatMul { lhs, rhs } = *g.node(opt) else {
            panic!("root must stay a matmul")
        };
        assert!(matches!(g.node(lhs), Node::MatSource { .. }));
        assert!(matches!(g.node(rhs), Node::MatMul { .. }));
        assert_eq!(evaluate(&g, opt, &src).unwrap(), want);
    }

    #[test]
    fn reordering_respects_disable_flag() {
        let mut g = ExprGraph::new();
        let a = g.mat_source(crate::expr::SourceRef(0), 8, 2);
        let b = g.mat_source(crate::expr::SourceRef(1), 2, 8);
        let c = g.mat_source(crate::expr::SourceRef(2), 8, 8);
        let ab = g.matmul(a, b).unwrap();
        let abc = g.matmul(ab, c).unwrap();
        let cfg = OptConfig {
            reorder_chains: false,
            ..OptConfig::default()
        };
        let (opt, stats) = optimize(&mut g, abc, &cfg);
        assert_eq!(stats.chains_reordered, 0);
        let Node::MatMul { lhs, .. } = *g.node(opt) else {
            panic!()
        };
        assert!(
            matches!(g.node(lhs), Node::MatMul { .. }),
            "stays left-deep"
        );
    }

    #[test]
    fn chains_inside_other_operators_are_found() {
        let mut g = ExprGraph::new();
        let mut src = MemSources::new();
        let a_ref = src.add_matrix(4, 1, vec![1.0, 2.0, 3.0, 4.0]);
        let b_ref = src.add_matrix(1, 4, vec![1.0, 1.0, 1.0, 1.0]);
        let c_ref = src.add_matrix(4, 4, (0..16).map(|i| i as f64).collect());
        let a = g.mat_source(a_ref, 4, 1);
        let b = g.mat_source(b_ref, 1, 4);
        let c = g.mat_source(c_ref, 4, 4);
        let ab = g.matmul(a, b).unwrap();
        let abc = g.matmul(ab, c).unwrap();
        let total = g.agg(AggOp::Sum, abc);
        let want = evaluate(&g, total, &src).unwrap();
        let (opt, stats) = optimize(&mut g, total, &OptConfig::default());
        assert_eq!(stats.chains_reordered, 1);
        assert_eq!(evaluate(&g, opt, &src).unwrap(), want);
    }

    #[test]
    fn longer_chain_optimal_order() {
        let mut g = ExprGraph::new();
        // 4 matrices with strongly skewed dims.
        let dims = [30usize, 1, 40, 1, 30];
        let mats: Vec<NodeId> = (0..4)
            .map(|i| g.mat_source(crate::expr::SourceRef(i as u32), dims[i], dims[i + 1]))
            .collect();
        let mut chain = mats[0];
        for &m in &mats[1..] {
            chain = g.matmul(chain, m).unwrap();
        }
        let (opt, _) = optimize(&mut g, chain, &OptConfig::default());
        // Verify the rebuilt tree's flops equal the DP optimum.
        let plan = optimal_order(&dims);
        let mut leaves = Vec::new();
        flatten_chain(&g, opt, &mut leaves);
        assert_eq!(leaves.len(), 4);
        // Reconstruct the tree shape from the graph and compare flops.
        fn tree_of(g: &ExprGraph, id: NodeId, leaves: &[NodeId]) -> crate::cost::ChainTree {
            if let Some(pos) = leaves.iter().position(|&l| l == id) {
                return crate::cost::ChainTree::Leaf(pos);
            }
            let Node::MatMul { lhs, rhs } = *g.node(id) else {
                panic!("unexpected node in chain")
            };
            crate::cost::ChainTree::Mul(
                Box::new(tree_of(g, lhs, leaves)),
                Box::new(tree_of(g, rhs, leaves)),
            )
        }
        let rebuilt = tree_of(&g, opt, &leaves);
        assert_eq!(rebuilt.flops(&dims), plan.flops);
    }
}
