//! Out-of-core factorization kernels: tiled Cholesky and the blocked
//! triangular solve, wall-clock and counted I/O at memory ratios below 1
//! (rows print to stdout; the checked-in `BENCH_pr8.json` records an
//! earlier run).
//!
//! As with the multiplication benches, wall time here reflects CPU work
//! plus simulated-pool overhead; the durable figures are the I/O counts
//! and the two parity contracts asserted on every run: prefetch on/off
//! must not change a single counted read, and any thread count must
//! reproduce the sequential factor bit-for-bit with identical I/O.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, BenchmarkId, Criterion};
use riot_array::{DenseMatrix, MatrixLayout, StorageCtx, TileOrder};
use riot_core::exec::{chol_tiled, chol_tiled_parallel, cholesky_solve};
use riot_storage::testing::FailpointDevice;
use riot_storage::{BufferPool, MemBlockDevice, PoolConfig, ReplacerKind};

fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test-mode")
}

/// Deterministic SPD entries: diagonally dominant, symmetric by
/// construction (value depends only on the unordered index pair).
fn spd(i: usize, j: usize, n: usize) -> f64 {
    let (a, b) = (i.min(j), i.max(j));
    if a == b {
        n as f64 + 2.0 + (a % 5) as f64
    } else {
        (((a * 31 + b * 17) % 13) as f64 - 6.0) / 13.0
    }
}

fn spd_matrix(ctx: &Arc<StorageCtx>, n: usize) -> DenseMatrix {
    DenseMatrix::from_fn(
        ctx,
        n,
        n,
        MatrixLayout::Square,
        TileOrder::RowMajor,
        None,
        move |i, j| spd(i, j, n),
    )
    .unwrap()
}

fn rhs_matrix(ctx: &Arc<StorageCtx>, n: usize, m: usize) -> DenseMatrix {
    DenseMatrix::from_fn(
        ctx,
        n,
        m,
        MatrixLayout::Square,
        TileOrder::RowMajor,
        None,
        |i, j| ((i * 13 + j * 7) % 89) as f64 - 44.0,
    )
    .unwrap()
}

fn bench_kernels(c: &mut Criterion) {
    // Memory ratio 0.75: p = 32 panels over a 64 x 64 operand.
    const N: usize = 64;
    const MEM_ELEMS: usize = 3 * 32 * 32;
    let mut group = c.benchmark_group("factor/64x64");
    group.bench_with_input(BenchmarkId::from_parameter("chol"), &N, |bench, &n| {
        let ctx = StorageCtx::new_mem(8192, 16);
        let a = spd_matrix(&ctx, n);
        bench.iter(|| {
            let (l, flops) = chol_tiled(&a, MEM_ELEMS, None).unwrap();
            l.free().unwrap();
            flops
        })
    });
    group.bench_with_input(BenchmarkId::from_parameter("solve"), &N, |bench, &n| {
        let ctx = StorageCtx::new_mem(8192, 16);
        let a = spd_matrix(&ctx, n);
        let b = rhs_matrix(&ctx, n, 8);
        bench.iter(|| {
            let (x, flops) = cholesky_solve(&a, &b, MEM_ELEMS, 1, None).unwrap();
            x.free().unwrap();
            flops
        })
    });
    group.finish();
}

/// One factor + solve run; returns
/// `(chol_secs, solve_secs, reads, writes, factor, solution)`.
fn timed_factor(
    n: usize,
    mem_elems: usize,
    threads: usize,
) -> (f64, f64, u64, u64, Vec<f64>, Vec<f64>) {
    // Sharded in-memory pool big enough for a, L, b, and x — the regime
    // where parallel and sequential I/O totals must coincide exactly.
    let blocks_per_matrix = (n * n).div_ceil(1024);
    let ctx = StorageCtx::new_mem_sharded(8192, 3 * blocks_per_matrix + 64, 16);
    let a = spd_matrix(&ctx, n);
    let b = rhs_matrix(&ctx, n, 8);
    ctx.pool().flush_all().unwrap();
    ctx.clear_cache().unwrap();
    let before = ctx.io_snapshot();
    let t0 = Instant::now();
    let (l, _) = chol_tiled_parallel(&a, mem_elems, threads, None).unwrap();
    let chol_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (x, _) = cholesky_solve(&a, &b, mem_elems, threads, None).unwrap();
    let solve_secs = t1.elapsed().as_secs_f64();
    ctx.pool().flush_all().unwrap();
    let delta = ctx.io_snapshot() - before;
    let factor = l.to_rows().unwrap();
    let solution = x.to_rows().unwrap();
    (
        chol_secs,
        solve_secs,
        delta.reads,
        delta.writes,
        factor,
        solution,
    )
}

/// Prefetch on/off over a latency-injected device: the per-panel windows
/// declared by the Cholesky schedule must overlap the injected latency
/// without changing a single counted read or result bit.
fn prefetch_report(n: usize, latency: Duration) {
    let run = |depth: usize| {
        let dev = FailpointDevice::new(Box::new(MemBlockDevice::new(8192)));
        dev.handle().set_read_latency(latency);
        let ctx = StorageCtx::from_pool(BufferPool::new(
            Box::new(dev),
            PoolConfig {
                frames: 8192,
                replacer: ReplacerKind::Lru,
                prefetch_depth: depth,
                ..PoolConfig::default()
            },
        ));
        let a = spd_matrix(&ctx, n);
        ctx.pool().flush_all().unwrap();
        ctx.clear_cache().unwrap();
        let before = ctx.io_snapshot();
        let t0 = Instant::now();
        let (l, _) = chol_tiled(&a, 3 * (n / 2) * (n / 2), None).unwrap();
        let secs = t0.elapsed().as_secs_f64();
        ctx.pool().wait_prefetch_idle();
        ctx.pool().flush_all().unwrap();
        let delta = ctx.io_snapshot() - before;
        (
            l.to_rows().unwrap(),
            delta.reads,
            delta.writes,
            secs,
            ctx.pool().pool_stats().prefetch_issued,
        )
    };
    println!("\nprefetch on/off, tiled chol {n}x{n} (injected read latency {latency:?}):");
    let (r_off, reads_off, writes_off, s_off, _) = run(0);
    let (r_on, reads_on, writes_on, s_on, issued) = run(8);
    assert_eq!(r_off, r_on, "prefetch changed the factor");
    assert_eq!(
        (reads_off, writes_off),
        (reads_on, writes_on),
        "prefetch changed I/O totals"
    );
    println!(
        "  off {s_off:.4}s, on {s_on:.4}s ({:.2}x), identical {reads_off} reads / \
         {writes_off} writes, {issued} background loads",
        s_off / s_on
    );
}

/// Sequential vs parallel tiled Cholesky + solve at 512 x 512 with a 0.19
/// memory ratio.
fn factor_report() {
    let n = 512;
    let mem_elems = 3 * 128 * 128; // p = 128: 3p^2 / n^2 ≈ 0.19
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let threads = cores.clamp(4, 8);

    println!("\nparallel tiled chol+solve {n}x{n} (cores available: {cores})");
    let (sc, ss, seq_reads, seq_writes, seq_l, seq_x) = timed_factor(n, mem_elems, 1);
    println!(
        "  1 thread : chol {sc:.3} s + solve {ss:.3} s, {seq_reads} reads / {seq_writes} writes"
    );
    let (pc, ps, par_reads, par_writes, par_l, par_x) = timed_factor(n, mem_elems, threads);
    println!("  {threads} threads: chol {pc:.3} s + solve {ps:.3} s, {par_reads} reads / {par_writes} writes");

    let identical_results = seq_l == par_l && seq_x == par_x;
    let identical_io = (seq_reads, seq_writes) == (par_reads, par_writes);
    let speedup = (sc + ss) / (pc + ps);
    println!("  speedup {speedup:.2}x, identical results: {identical_results}, identical I/O: {identical_io}");
    assert!(
        identical_results,
        "parallel factor diverged from sequential"
    );
    assert!(identical_io, "parallel I/O diverged from sequential");
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_kernels
);

fn main() {
    if test_mode() {
        // CI's bench smoke leg: seconds-scale shapes through the same code
        // paths and parity assertions; criterion sampling and the 512-size
        // report are skipped.
        let (sc, ss, reads, writes, seq_l, seq_x) = timed_factor(96, 3 * 32 * 32, 1);
        let (pc, ps, preads, pwrites, par_l, par_x) = timed_factor(96, 3 * 32 * 32, 2);
        assert_eq!(seq_l, par_l, "test-mode parallel factor diverged");
        assert_eq!(seq_x, par_x, "test-mode parallel solution diverged");
        assert_eq!((reads, writes), (preads, pwrites));
        println!(
            "test-mode tiled chol+solve 96x96: 1 thread {:.4}s, 2 threads {:.4}s",
            sc + ss,
            pc + ps
        );
        prefetch_report(64, Duration::from_micros(150));
        return;
    }
    benches();
    factor_report();
    prefetch_report(256, Duration::from_micros(400));
}
