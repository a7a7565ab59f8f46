//! A forcing point that fails still closes its trace spans.
//!
//! Two failures are profiled under both deferred engines: a Cholesky
//! factorization of an indefinite matrix (a kernel error) and a vector
//! collect aborted by a read budget (a governance abort). Each profile
//! must hold the failed forcing point's span, with the failed kernel's
//! span nested inside it. A successful query profiled afterwards in the
//! same session must produce the same span tree as in a fresh session.

use riot_array::MatrixLayout;
use riot_core::exec::ExecError;
use riot_core::{EngineConfig, EngineKind, ProfileNode, QueryProfile, ResourceLimits, Session};

const N: usize = 40;

fn session(kind: EngineKind) -> Session {
    let mut cfg = EngineConfig::new(kind);
    cfg.block_size = 512;
    cfg.chunk_elems = 64;
    cfg.mem_blocks = 24;
    Session::new(cfg)
}

/// Symmetric and diagonally dominant except at pivot 9, whose negated
/// diagonal makes the matrix indefinite.
fn indefinite(i: usize, j: usize) -> f64 {
    let (a, b) = (i.min(j), i.max(j));
    let v = if a == b {
        N as f64 + 2.0 + (a % 5) as f64
    } else {
        (((a * 31 + b * 17) % 13) as f64 - 6.0) / 13.0
    };
    if i == 9 && j == 9 {
        -v
    } else {
        v
    }
}

/// The span tree as `(depth, name)` pairs in pre-order.
fn shape(p: &QueryProfile) -> Vec<(usize, String)> {
    fn walk(n: &ProfileNode, depth: usize, out: &mut Vec<(usize, String)>) {
        out.push((depth, n.name.clone()));
        for c in &n.children {
            walk(c, depth + 1, out);
        }
    }
    let mut out = Vec::new();
    walk(&p.root, 0, &mut out);
    out
}

/// A successful query whose spans the failures must not disturb.
fn healthy_query(s: &Session) -> f64 {
    let x = s.vector_from_fn(2_000, |i| i as f64).unwrap();
    let (v, p) = s.profile(|| (&x * 2.0).sum().unwrap());
    assert_eq!(
        shape(&p),
        vec![(0, "query".to_string()), (1, "aggregate".to_string())],
        "{}",
        p.render_tree()
    );
    v
}

#[test]
fn failed_chol_keeps_collect_matrix_and_chol_spans() {
    for kind in [EngineKind::Riot, EngineKind::MatNamed] {
        let s = session(kind);
        let a = s
            .matrix_from_fn(N, N, MatrixLayout::Square, indefinite)
            .unwrap();
        let (result, p) = s.profile(|| a.chol().and_then(|l| l.collect()));
        assert!(
            matches!(result, Err(ExecError::NotPositiveDefinite { pivot: 9, .. })),
            "{kind:?}: {result:?}"
        );
        let forcing = &p.root.children;
        assert_eq!(forcing.len(), 1, "{kind:?}:\n{}", p.render_tree());
        assert_eq!(forcing[0].name, "collect_matrix", "{kind:?}");
        let kernels: Vec<&str> = forcing[0]
            .children
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(kernels, ["chol"], "{kind:?}:\n{}", p.render_tree());
        assert_eq!(
            forcing[0].children[0].detail,
            format!("{N}x{N}"),
            "{kind:?}"
        );
        // The failure left the session's span nesting intact.
        assert_eq!(healthy_query(&s), healthy_query(&session(kind)), "{kind:?}");
    }
}

#[test]
fn budget_aborted_query_keeps_its_forcing_span() {
    for kind in [EngineKind::Riot, EngineKind::MatNamed] {
        let s = session(kind);
        let x = s.vector_from_fn(60_000, |i| i as f64).unwrap();
        s.set_limits(ResourceLimits::none().with_max_reads(4));
        let (result, p) = s.profile(|| x.sqrt().collect());
        s.clear_limits();
        assert!(
            matches!(
                result,
                Err(ExecError::BudgetExceeded {
                    resource: "reads",
                    ..
                })
            ),
            "{kind:?}: {result:?}"
        );
        let names: Vec<&str> = p.root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["collect"], "{kind:?}:\n{}", p.render_tree());
        // The span measured the reads the query made before it tripped.
        assert!(p.root.children[0].metrics.reads > 4, "{kind:?}");
        assert_eq!(healthy_query(&s), healthy_query(&session(kind)), "{kind:?}");
    }
}
