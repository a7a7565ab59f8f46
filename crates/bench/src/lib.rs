//! Shared harness code for the figure-regeneration binaries and benches.

pub mod corpus;

use riot_core::{EngineConfig, EngineKind, Session};
use riot_storage::IoSnapshot;

/// Result of one Example-1 run.
#[derive(Debug, Clone, Copy)]
pub struct Example1Run {
    /// Engine measured.
    pub kind: EngineKind,
    /// Vector length.
    pub n: usize,
    /// I/O attributed to the program (excludes loading x and y).
    pub io: IoSnapshot,
    /// Scalar operations performed by the program.
    pub cpu_ops: u64,
    /// Wall-clock seconds of the in-simulator run.
    pub wall: f64,
}

/// Run the paper's Example 1 under `kind`:
///
/// ```text
/// d <- sqrt((x-xs)^2+(y-ys)^2) + sqrt((x-xe)^2+(y-ye)^2)
/// s <- sample(length(x), 100)
/// z <- d[s]
/// print(z)
/// ```
///
/// `mem_blocks` is the physical-memory cap (the paper's 84 MB `shmat`
/// lockdown, scaled to the experiment); loading of `x`/`y` happens before
/// measurement starts, mirroring the paper's setup where data pre-exists.
pub fn run_example1(kind: EngineKind, n: usize, mem_blocks: usize) -> Example1Run {
    let mut cfg = EngineConfig::new(kind);
    cfg.mem_blocks = mem_blocks;
    let s = Session::new(cfg);

    let x = s
        .vector_from_fn(n, |i| (i as f64 * 0.001).sin() * 100.0)
        .expect("load x");
    let y = s
        .vector_from_fn(n, |i| (i as f64 * 0.001).cos() * 100.0)
        .expect("load y");
    s.drop_caches().expect("cache drop");
    let before = s.io_snapshot();
    let ops_before = s.cpu_ops();
    let start = std::time::Instant::now();

    let (xs, ys, xe, ye) = (0.0, 0.0, 30.0, 40.0);
    let d = ((&x - xs).square() + (&y - ys).square()).sqrt()
        + ((&x - xe).square() + (&y - ye).square()).sqrt();
    let d = s.assign("d", &d).expect("assign d");
    let idx = s.sample(n, 100).expect("sample");
    let idx = s.assign("s", &idx).expect("assign s");
    let z = d.index(&idx);
    let z = s.assign("z", &z).expect("assign z");
    let out = z.collect().expect("print(z)");
    assert_eq!(out.len(), 100);

    Example1Run {
        kind,
        n,
        io: s.io_snapshot() - before,
        cpu_ops: s.cpu_ops() - ops_before,
        wall: start.elapsed().as_secs_f64(),
    }
}

/// One tracing-overhead measurement: the identical `Session` workload run
/// untraced and inside [`Session::profile`] (the fully-enabled path —
/// ring recording, span bracketing, event drain), best-of-`reps` wall
/// clocks so scheduler noise cancels out of both sides.
#[derive(Debug, Clone)]
pub struct TraceOverhead {
    /// Human label for the workload.
    pub workload: &'static str,
    /// Best untraced wall seconds.
    pub disabled_secs: f64,
    /// Best traced wall seconds.
    pub enabled_secs: f64,
    /// Spans in the recorded profile.
    pub spans: usize,
    /// Typed events in the recorded profile.
    pub events: usize,
}

impl TraceOverhead {
    /// Enabled/disabled wall-clock ratio (1.0 = free).
    pub fn ratio(&self) -> f64 {
        self.enabled_secs / self.disabled_secs
    }

    /// The `--test-mode` gate: tracing costs under 5% wall clock. The
    /// small absolute term keeps millisecond-scale CI runs from failing
    /// on a single timer-granularity blip.
    pub fn assert_within_5pct(&self) {
        assert!(
            self.enabled_secs <= self.disabled_secs * 1.05 + 5e-4,
            "tracing overhead {:.2}% exceeds 5% ({:.6}s -> {:.6}s, {} spans / {} events)",
            (self.ratio() - 1.0) * 100.0,
            self.disabled_secs,
            self.enabled_secs,
            self.spans,
            self.events
        );
    }
}

/// Measure tracing overhead for `work` run against a fresh session from
/// `mk` each repetition (fresh sessions keep the two sides' catalog and
/// cache state identical).
pub fn measure_trace_overhead(
    workload: &'static str,
    reps: usize,
    mk: impl Fn() -> Session,
    work: impl Fn(&Session) -> u64,
) -> TraceOverhead {
    let mut disabled_secs = f64::MAX;
    let mut enabled_secs = f64::MAX;
    let mut spans = 0;
    let mut events = 0;
    let mut check = None;
    for _ in 0..reps.max(1) {
        let s = mk();
        let t0 = std::time::Instant::now();
        let plain = work(&s);
        disabled_secs = disabled_secs.min(t0.elapsed().as_secs_f64());

        let s = mk();
        // Warm the tracer: the first enable lazily allocates the event
        // ring, a one-time cost that is not the steady-state overhead
        // this row reports.
        let _ = s.profile(|| 0u64);
        let t0 = std::time::Instant::now();
        let (traced, profile) = s.profile(|| work(&s));
        enabled_secs = enabled_secs.min(t0.elapsed().as_secs_f64());
        spans = profile.root.count() - 1;
        events = profile.events.len();

        assert_eq!(plain, traced, "tracing changed the workload's result");
        if let Some(prev) = check.replace(traced) {
            assert_eq!(prev, traced, "workload is not deterministic");
        }
    }
    TraceOverhead {
        workload,
        disabled_secs,
        enabled_secs,
        spans,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example1_runs_small() {
        let r = run_example1(EngineKind::Riot, 4096, 8);
        assert!(r.io.reads > 0);
        assert_eq!(r.n, 4096);
    }

    #[test]
    fn trace_overhead_measures_and_reconciles() {
        let row = measure_trace_overhead(
            "elementwise",
            2,
            || Session::new(EngineConfig::new(EngineKind::Riot)),
            |s| {
                let x = s.vector_from_fn(2048, |i| i as f64).unwrap();
                (&x * 2.0).sum().unwrap() as u64
            },
        );
        assert!(row.disabled_secs > 0.0 && row.enabled_secs > 0.0);
        assert!(row.spans >= 1, "the sum forcing point spans");
    }
}
