//! The per-layer time ledger of one traced run.
//!
//! `Session::profile` hands back a span tree of forcing points and the
//! kernels nested in them. Each span's self time (its duration minus its
//! children's) is summed into a span family; parsing is timed separately
//! through `riot_rlang::parse_program`; what neither covers is the
//! interpreter's own time. The ledger must add back up to the traced
//! wall, and a run whose ring dropped events, whose children outlast
//! their parent, or whose spans outlast the wall fails.

use riot::core::{ProfileNode, QueryProfile};
use riot::trace::EventKind;

/// Where a span's self time is booked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    /// Forcing points and spills: optimizer, plan compile, pipeline drain.
    Force,
    /// Dense transpose.
    Transpose,
    /// Dense matrix multiply.
    Matmul,
    /// Cholesky factorization and triangular solves.
    Factor,
    /// Sparse kernels.
    Sparse,
    /// Any span this ledger does not know yet (reported, never hidden).
    Other,
}

fn family(span: &str) -> Family {
    match span {
        "collect" | "collect_matrix" | "aggregate" | "materialize" | "nnz" => Family::Force,
        "transpose" => Family::Transpose,
        "matmul" => Family::Matmul,
        "chol" | "solve" => Family::Factor,
        "spmm" | "spmdm" | "dmspm" | "sptranspose" => Family::Sparse,
        _ => Family::Other,
    }
}

/// One traced run, split by layer. Times are seconds.
#[derive(Debug, Clone, Copy)]
pub struct Ledger {
    /// Wall time of the traced `Interpreter::run`.
    pub wall_s: f64,
    /// `parse_program` over the script.
    pub parse_s: f64,
    /// The rest: wall − parse − the top-level spans.
    pub interp_self_s: f64,
    /// Self time of forcing-point spans.
    pub force_self_s: f64,
    /// Self time of `transpose`.
    pub transpose_s: f64,
    /// Self time of `matmul`.
    pub matmul_s: f64,
    /// Self time of `chol` and `solve`.
    pub factor_s: f64,
    /// Self time of the sparse kernels.
    pub sparse_s: f64,
    /// Self time of spans of any other name.
    pub other_s: f64,
    /// Top-level spans: one per forcing point.
    pub forcing_points: u64,
    /// Optimizer `Plan` events.
    pub opt_plans: u64,
    /// Rewrites fired, summed over `Rewrite` events.
    pub opt_rewrites: u64,
    /// Events recorded: spans plus typed events.
    pub events: u64,
    /// Events the ring dropped.
    pub dropped: u64,
}

/// Self nanoseconds per family, checking that children fit their parent.
fn book(node: &ProfileNode, acc: &mut [u64; 6]) -> Result<(), String> {
    let kids: u64 = node.children.iter().map(|c| c.dur_ns).sum();
    if kids > node.dur_ns {
        return Err(format!(
            "span '{}' lasted {} ns but its children {} ns",
            node.name, node.dur_ns, kids
        ));
    }
    acc[family(&node.name) as usize] += node.dur_ns - kids;
    node.children.iter().try_for_each(|c| book(c, acc))
}

/// Build and reconcile the ledger of a run that took `wall_ns` inside
/// `profile`, with the script's parse measured at `parse_ns`.
pub fn reconcile(profile: &QueryProfile, wall_ns: u64, parse_ns: u64) -> Result<Ledger, String> {
    if profile.dropped > 0 {
        return Err(format!("trace ring dropped {} events", profile.dropped));
    }
    let top = &profile.root.children;
    let top_ns: u64 = top.iter().map(|c| c.dur_ns).sum();
    if top_ns + parse_ns > wall_ns {
        return Err(format!(
            "spans ({top_ns} ns) plus parse ({parse_ns} ns) exceed the traced wall ({wall_ns} ns)"
        ));
    }
    let mut acc = [0u64; 6];
    // With every child inside its parent, the self times partition the
    // top-level spans, so the ledger lines sum to the wall exactly.
    top.iter().try_for_each(|c| book(c, &mut acc))?;
    let s = |ns: u64| ns as f64 * 1e-9;
    let (mut plans, mut rewrites) = (0, 0);
    for ev in &profile.events {
        match &ev.kind {
            EventKind::Plan { .. } => plans += 1,
            EventKind::Rewrite { count, .. } => rewrites += count,
            _ => {}
        }
    }
    Ok(Ledger {
        wall_s: s(wall_ns),
        parse_s: s(parse_ns),
        interp_self_s: s(wall_ns - top_ns - parse_ns),
        force_self_s: s(acc[Family::Force as usize]),
        transpose_s: s(acc[Family::Transpose as usize]),
        matmul_s: s(acc[Family::Matmul as usize]),
        factor_s: s(acc[Family::Factor as usize]),
        sparse_s: s(acc[Family::Sparse as usize]),
        other_s: s(acc[Family::Other as usize]),
        forcing_points: top.len() as u64,
        opt_plans: plans,
        opt_rewrites: rewrites,
        events: (profile.root.count() - 1 + profile.events.len()) as u64,
        dropped: profile.dropped,
    })
}
