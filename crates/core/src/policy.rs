//! The four evaluation strategies of the paper's experiments (§4.2), as
//! interchangeable engines over one runtime.
//!
//! | Engine      | Evaluation                | Intermediates            | Named objects        |
//! |-------------|---------------------------|--------------------------|----------------------|
//! | `PlainR`    | eager, per operation      | full vectors on a paging heap | refcounted heap objects |
//! | `Strawman`  | eager, per operation      | `(I,V)` tables on disk   | tables kept alive    |
//! | `MatNamed`  | deferred within statement | pipelined (never stored) | materialized to disk |
//! | `Riot`      | fully deferred            | pipelined                | views (just names)   |
//!
//! The same program runs unmodified under each engine — the paper's
//! transparency claim — and every engine reports I/O through the same
//! counters, which is what the Figure 1 harness tabulates.
//!
//! Every operator checks its operands with the same [`Shape`] rule: the
//! deferred engines when the graph builds the node, the eager ones before
//! they compute. The two eager engines share one body per vector operator,
//! written over a small store interface (`eager_alloc`, `eager_read`,
//! `eager_write`, `eager_get`, `eager_set`, `eager_seal`) that Plain R
//! backs with the paging heap and Strawman with `(I,V)` tables. They keep
//! separate code only for loading and reopening stored objects and for
//! the matrix kernels, where R's element loops on the heap against tiled
//! kernels on tables is the paper's own contrast.

use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use riot_array::{DenseMatrix, DenseVector, MatrixLayout, StorageCtx, TileOrder, VectorWriter};
use riot_sparse::SparseMatrix;
use riot_storage::{DiskModel, IoSnapshot, ObjectKind, PoolStats, ReplacerKind};
use riot_trace::{EventKind, Metrics};
use riot_vm::{PagedHeap, VmConfig, VmId};

use crate::exec::pipeline::{
    drain_agg, drain_partitioned, drain_to_vec, fold_partitioned, governed, materialize, ConstScan,
    CycleScan, GatherPipe, IfElsePipe, LiteralScan, MapPipe, Pipe, Probe, RangeScan, VecScan,
    ZipPipe,
};
use crate::exec::{factor, matmul, sparse as spkernel, ExecError, ExecResult, MatMulKernel};
use crate::expr::{AggOp, BinOp, ExprError, Node, NodeId, SourceRef, UnOp};
use crate::graph::ExprGraph;
use crate::opt::{optimize, OptConfig, RewriteStats};
use crate::shape::Shape;

/// Which of the paper's four strategies an engine implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Eager evaluation on a demand-paged heap: the thrashing baseline.
    PlainR,
    /// Every operation reads and writes relational-style `(I,V)` tables.
    Strawman,
    /// Deferred views, but every named object is materialized.
    MatNamed,
    /// Full RIOT: deferred across statements, optimized, pipelined.
    Riot,
}

impl EngineKind {
    /// All four engines, in the paper's presentation order.
    pub fn all() -> [EngineKind; 4] {
        [
            EngineKind::PlainR,
            EngineKind::Strawman,
            EngineKind::MatNamed,
            EngineKind::Riot,
        ]
    }

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::PlainR => "Plain R",
            EngineKind::Strawman => "RIOT-DB/Strawman",
            EngineKind::MatNamed => "RIOT-DB/MatNamed",
            EngineKind::Riot => "RIOT-DB",
        }
    }
}

/// Engine construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Which strategy to run.
    pub kind: EngineKind,
    /// Block (and VM page) size in bytes.
    pub block_size: usize,
    /// Memory cap in blocks — the paper's `shmat` lockdown.
    pub mem_blocks: usize,
    /// Pipeline chunk size in elements.
    pub chunk_elems: usize,
    /// Buffer-pool replacement policy.
    pub replacer: ReplacerKind,
    /// Optimizer switches (only the `Riot` engine optimizes).
    pub opt: OptConfig,
    /// Kernel for deferred matrix multiplication.
    pub matmul_kernel: MatMulKernel,
    /// Worker threads for the elementwise pipeline, the parallel
    /// aggregation drain, and the sparse kernel family at forcing points.
    /// `1` (the default) runs the classic sequential executor, whose I/O
    /// order the cost-model validation pins down bit-for-bit; higher
    /// values fan work out on scoped worker pools with bit-identical
    /// results (and, in the in-memory regime, identical counted I/O).
    pub threads: usize,
    /// Background prefetch workers for the buffer pool
    /// ([`riot_storage::PoolConfig::prefetch_depth`]). `0` (the default)
    /// keeps the demand-paged I/O order bit-for-bit; positive values let
    /// the kernels' declared access patterns overlap device loads with
    /// compute — changing when reads happen, never how many.
    pub prefetch_depth: usize,
    /// RNG seed for `sample()`.
    pub seed: u64,
}

impl EngineConfig {
    /// Sensible defaults for `kind`: 8 KiB blocks, a 4 MiB memory cap,
    /// LRU replacement, all optimizations on, square-tiled matmul.
    pub fn new(kind: EngineKind) -> Self {
        EngineConfig {
            kind,
            block_size: 8192,
            mem_blocks: 512,
            chunk_elems: 1024,
            replacer: ReplacerKind::Lru,
            opt: OptConfig::default(),
            matmul_kernel: MatMulKernel::SquareTiled,
            threads: 1,
            prefetch_depth: 0,
            seed: R_SEED,
        }
    }
}

const R_SEED: u64 = 20090104; // CIDR 2009, January 4.

/// Internal representation of a vector value under some engine.
#[derive(Clone)]
pub(crate) enum VecRepr {
    /// Deferred engines: a DAG node.
    Node(NodeId),
    /// Plain R: a paging-heap object (refcount managed by the runtime).
    Vm(VmId),
    /// Strawman: a stored `(I,V)` table, freed when the last handle drops.
    Table(Rc<StrawTable>),
}

/// Internal representation of a matrix value.
#[derive(Clone)]
pub(crate) enum MatRepr {
    /// Deferred engines: a DAG node.
    Node(NodeId),
    /// Plain R: row-major data on the paging heap.
    Vm {
        /// Heap object.
        id: VmId,
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
    },
    /// Strawman: a stored matrix.
    Stored(Rc<StrawMat>),
}

/// A fully materialized matrix in either physical representation. The
/// executor's matrix forcing returns this so sparse results can stay
/// sparse through a chain of multiplications.
#[derive(Clone)]
pub(crate) enum MatValue {
    /// Dense, tiled storage.
    Dense(DenseMatrix),
    /// Block-compressed sparse storage.
    Sparse(SparseMatrix),
}

impl MatValue {
    fn shape(&self) -> (usize, usize) {
        match self {
            MatValue::Dense(d) => d.shape(),
            MatValue::Sparse(s) => s.shape(),
        }
    }
}

/// `rows x cols`, as kernel span details print a shape.
fn dims((rows, cols): (usize, usize)) -> String {
    format!("{rows}x{cols}")
}

/// RAII wrapper freeing a strawman table when the last reference dies —
/// the dependency-tracking hook of §4.1 ("to be able to safely drop
/// views, RIOT-DB must track such dependencies").
pub(crate) struct StrawTable {
    /// Anonymous intermediates are owned (freed on drop); named objects
    /// bound through the corpus harness or reopened from a durable catalog
    /// are borrowed — dropping the handle must not delete durable state.
    pub(crate) owned: bool,
    pub(crate) vec: DenseVector,
}

impl Drop for StrawTable {
    fn drop(&mut self) {
        // Freeing is best-effort: a failure here only leaks simulated disk.
        if self.owned {
            let _ = self.vec.clone().free();
        }
    }
}

/// RAII wrapper for strawman matrices.
pub(crate) struct StrawMat {
    /// See [`StrawTable::owned`].
    pub(crate) owned: bool,
    pub(crate) mat: DenseMatrix,
}

impl Drop for StrawMat {
    fn drop(&mut self) {
        if self.owned {
            let _ = self.mat.clone().free();
        }
    }
}

/// A Strawman matrix result: owned, so freed with its last handle.
fn stored(mat: DenseMatrix) -> MatRepr {
    MatRepr::Stored(Rc::new(StrawMat { owned: true, mat }))
}

/// Counter baselines a measured region starts from: a trace span, or a
/// whole [`crate::Session::profile`] region (see [`Runtime::metrics_since`]).
pub(crate) struct Counters {
    io: IoSnapshot,
    ops: u64,
    pool: PoolStats,
}

/// The engine runtime: storage, paging heap, expression graph, caches, and
/// counters. [`crate::session::Session`] wraps this in `Rc<RefCell<..>>`
/// and layers the R-like handle API on top.
pub struct Runtime {
    pub(crate) cfg: EngineConfig,
    pub(crate) graph: ExprGraph,
    pub(crate) ctx: Arc<StorageCtx>,
    pub(crate) heap: PagedHeap,
    pub(crate) vec_sources: HashMap<u32, DenseVector>,
    pub(crate) mat_sources: HashMap<u32, DenseMatrix>,
    pub(crate) sparse_sources: HashMap<u32, SparseMatrix>,
    next_source: u32,
    /// Materialized vector results, keyed by DAG node (MatNamed's named
    /// objects; Riot's spills and shared-subexpression caches).
    pub(crate) materialized: HashMap<NodeId, DenseVector>,
    pub(crate) mat_materialized: HashMap<NodeId, DenseMatrix>,
    pub(crate) sparse_materialized: HashMap<NodeId, SparseMatrix>,
    pub(crate) last_opt_stats: RewriteStats,
    rng: StdRng,
}

impl Runtime {
    /// Build a runtime for `cfg`.
    pub fn new(cfg: EngineConfig) -> Self {
        let ctx = StorageCtx::new_mem_opts(
            cfg.block_size,
            riot_storage::PoolConfig {
                frames: cfg.mem_blocks,
                replacer: cfg.replacer,
                prefetch_depth: cfg.prefetch_depth,
                ..riot_storage::PoolConfig::default()
            },
            1,
        );
        Self::with_ctx(cfg, ctx)
    }

    /// Build a runtime over an existing storage context — the reopen path:
    /// a durable catalog created in one session can be [`StorageCtx::open`]ed
    /// and driven by a fresh runtime, with named objects picked back up via
    /// `Runtime::open_vector`/`Runtime::open_matrix`. The context's block
    /// size must match `cfg.block_size` (object extents are block-addressed).
    pub fn with_ctx(cfg: EngineConfig, ctx: Arc<StorageCtx>) -> Self {
        let heap = PagedHeap::new(VmConfig {
            page_elems: cfg.block_size / 8,
            frames: cfg.mem_blocks,
        });
        // `RIOT_TRACE=1` turns on event collection for the whole runtime
        // (the CI trace leg runs the entire suite this way, proving the
        // enabled path never perturbs counted I/O or results).
        if std::env::var_os("RIOT_TRACE").is_some_and(|v| v != "0" && !v.is_empty()) {
            ctx.tracer().enable();
        }
        // `RIOT_GOVERN=1` engages the governor with empty limits — full
        // checkpoint accounting, nothing to trip — for the whole runtime
        // (the CI governance leg runs the entire suite this way, proving
        // the engaged path never perturbs counted I/O or results).
        if std::env::var_os("RIOT_GOVERN").is_some_and(|v| v != "0" && !v.is_empty()) {
            ctx.governor().engage(riot_storage::ResourceLimits::none());
        }
        Runtime {
            cfg,
            graph: ExprGraph::new(),
            ctx,
            heap,
            vec_sources: HashMap::new(),
            mat_sources: HashMap::new(),
            sparse_sources: HashMap::new(),
            next_source: 0,
            materialized: HashMap::new(),
            mat_materialized: HashMap::new(),
            sparse_materialized: HashMap::new(),
            last_opt_stats: RewriteStats::default(),
            rng: StdRng::seed_from_u64(cfg.seed),
        }
    }

    fn fresh_source(&mut self) -> SourceRef {
        let r = SourceRef(self.next_source);
        self.next_source += 1;
        r
    }

    /// Flush dirty pages and empty the buffer-pool cache, so the next
    /// phase is measured cold — the harness calls this between loading and
    /// querying, like the paper's separate measurement runs. (The Plain R
    /// heap has no disk backing to flush to; its pages *are* the state.)
    pub fn drop_caches(&self) -> ExecResult<()> {
        self.ctx.clear_cache()?;
        Ok(())
    }

    /// Combined I/O across the buffer pool and the paging heap.
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.ctx.io_snapshot() + self.heap.io_stats().snapshot()
    }

    /// Scalar operations performed so far: the flop ledger every kernel
    /// charges through [`riot_storage::QueryGovernor::add_flops`], which the flop
    /// budget is checked against too.
    pub fn cpu_ops(&self) -> u64 {
        self.ctx.governor().flops()
    }

    /// Modeled execution time per Figure 1(b)'s I/O-dominated accounting.
    pub fn modeled_seconds(&self, model: &DiskModel) -> f64 {
        model.modeled_seconds(&self.io_snapshot(), self.cpu_ops())
    }

    // ================= tracing =================

    /// The runtime's tracer (shared with the buffer pool; disabled by
    /// default — one relaxed atomic load per call site when off).
    pub fn tracer(&self) -> &Arc<riot_trace::Tracer> {
        self.ctx.tracer()
    }

    /// Buffer-pool cache-effectiveness counters (hits, misses, evictions,
    /// prefetch traffic) for the session's pool.
    pub fn pool_stats(&self) -> PoolStats {
        self.ctx.pool().pool_stats()
    }

    /// EXPLAIN for a deferred node: under Riot the optimizer runs first —
    /// exactly what the forcing point would execute — then the chosen
    /// logical plan renders as a text tree.
    pub fn explain(&mut self, id: NodeId) -> String {
        let mut root = id;
        if self.cfg.kind == EngineKind::Riot {
            let cfg = self.cfg.opt;
            let (r, stats) = optimize(&mut self.graph, root, &cfg);
            self.last_opt_stats = stats;
            root = r;
        }
        crate::profile::render_plan(&self.graph, root)
    }

    /// Run `f` as one governed query; `Session::query` is the only caller, so
    /// every session operation that can compute is one query and forcing
    /// points nested inside it are plain calls. With the governor disengaged,
    /// or a bracket already open on the shared governor, this is a direct
    /// call. Engaged, it opens the governor's budget bracket, snapshots the
    /// set of live catalog objects, and — if `f` unwinds with a governance
    /// abort (cancel, budget, pin timeout) — releases everything the query
    /// allocated: queued prefetch windows are dropped, cache entries backed
    /// by query-created objects are purged, and the objects themselves are
    /// freed, restoring the catalog to its pre-query state (the *leak-free
    /// abort* pinned invariant).
    pub(crate) fn governed<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> ExecResult<T>,
    ) -> ExecResult<T> {
        let outer = {
            let gov = self.ctx.governor();
            gov.engaged() && !gov.in_query()
        };
        if !outer {
            return f(self);
        }
        let baseline = self.ctx.live_object_ids();
        self.ctx.governor().begin();
        let result = f(self);
        self.ctx.governor().end();
        if let Err(e) = &result {
            if e.is_governance_abort() {
                self.abort_cleanup(&baseline);
            }
        }
        result
    }

    /// Release everything a governance-aborted query allocated (see
    /// [`Runtime::governed`]). `baseline` is the set of live catalog
    /// objects at query start; anything newer is the aborted query's.
    fn abort_cleanup(&mut self, baseline: &[riot_storage::ObjectId]) {
        // Stop queued prefetch windows first: nothing new should load on
        // behalf of a dead query.
        self.ctx.pool().discard_prefetch_queue();
        let base: std::collections::HashSet<riot_storage::ObjectId> =
            baseline.iter().copied().collect();
        // Purge cache entries whose backing object the aborted query
        // created, so no handle survives to a freed object. Entries over
        // pre-query objects (earlier statements' results) stay valid.
        self.materialized.retain(|_, v| base.contains(&v.object()));
        self.mat_materialized
            .retain(|_, m| base.contains(&m.object()));
        self.sparse_materialized
            .retain(|_, s| base.contains(&s.object()));
        // Free the objects themselves: half-built outputs and spills
        // whose handles were consumed by the unwinding error path.
        for id in self.ctx.live_object_ids() {
            if !base.contains(&id) {
                let _ = self.ctx.drop_object(id);
            }
        }
    }

    /// The runtime's storage context (pool, catalog, and governor).
    pub fn storage_ctx(&self) -> Arc<StorageCtx> {
        Arc::clone(&self.ctx)
    }

    /// Snapshot the counters a measured region is attributed from.
    pub(crate) fn counters(&self) -> Counters {
        Counters {
            io: self.io_snapshot(),
            ops: self.cpu_ops(),
            pool: self.pool_stats(),
        }
    }

    /// The counter deltas since `base` as trace metrics, plus the full
    /// pool-counter delta they summarize.
    pub(crate) fn metrics_since(&self, base: &Counters) -> (Metrics, PoolStats) {
        let io = self.io_snapshot() - base.io;
        let pool = self.pool_stats().delta(&base.pool);
        let metrics = Metrics {
            reads: io.reads,
            writes: io.writes,
            seq_reads: io.seq_reads,
            seq_writes: io.seq_writes,
            bytes_read: io.bytes_read,
            bytes_written: io.bytes_written,
            flops: self.cpu_ops() - base.ops,
            threads: self.cfg.threads.max(1) as u64,
            pool_hits: pool.hits,
            pool_misses: pool.misses,
        };
        (metrics, pool)
    }

    /// Run `body` inside the trace span `name`, which records the counter
    /// deltas of everything `body` did. The span closes on every exit,
    /// `?` errors included, so a failed forcing point keeps its span.
    /// `detail` runs at close, and only while tracing is on.
    fn span<T>(
        &mut self,
        name: &'static str,
        detail: impl FnOnce(&Self) -> String,
        body: impl FnOnce(&mut Self) -> ExecResult<T>,
    ) -> ExecResult<T> {
        let token = self.ctx.tracer().begin_span(name);
        if !token.is_active() {
            return body(self);
        }
        let base = self.counters();
        let out = body(self);
        let (metrics, _) = self.metrics_since(&base);
        self.ctx.tracer().end_span(token, detail(self), metrics);
        out
    }

    /// One deferred forcing point: the span `name` around the plan step
    /// on `root` (see [`Runtime::plan`]) and `body` on the planned root.
    /// The span's detail is the planned root's expression.
    fn force<T>(
        &mut self,
        name: &'static str,
        root: NodeId,
        body: impl FnOnce(&mut Self, NodeId) -> ExecResult<T>,
    ) -> ExecResult<T> {
        let planned = Cell::new(root);
        self.span(
            name,
            |rt| rt.detail_of(planned.get()),
            |rt| {
                planned.set(rt.plan(root)?);
                body(rt, planned.get())
            },
        )
    }

    /// The plan step of every deferred forcing point. Under Riot it
    /// optimizes `root`, keeps the rewrite statistics, records the
    /// optimizer's trace events and, for vector and scalar roots, spills
    /// shared subexpressions. It is the identity under MatNamed.
    fn plan(&mut self, root: NodeId) -> ExecResult<NodeId> {
        if self.cfg.kind != EngineKind::Riot {
            return Ok(root);
        }
        let (root, stats) = optimize(&mut self.graph, root, &self.cfg.opt);
        self.last_opt_stats = stats;
        self.record_opt_events(root);
        if !matches!(self.graph.shape(root), Shape::Matrix(..)) {
            self.spill_shared(root)?;
        }
        Ok(root)
    }

    /// Span detail: the node's rendered expression, truncated.
    fn detail_of(&self, id: NodeId) -> String {
        let mut s = self.graph.render(id);
        if s.len() > 120 {
            s.truncate(117);
            s.push_str("...");
        }
        s
    }

    /// Emit the optimizer's decisions for the forcing point that just
    /// optimized `root`: the chosen plan (rendered) and one event per
    /// rewrite rule that fired.
    fn record_opt_events(&self, root: NodeId) {
        let tracer = self.ctx.tracer();
        if !tracer.is_enabled() {
            return;
        }
        tracer.record(EventKind::Plan {
            detail: self.detail_of(root).into_boxed_str(),
        });
        let s = &self.last_opt_stats;
        for (rule, count) in [
            ("mask_to_ifelse", s.mask_to_ifelse),
            ("gathers_pushed", s.gathers_pushed),
            ("folds", s.folds),
            ("chains_reordered", s.chains_reordered),
            ("sparse_kernels", s.sparse_kernels),
            ("sparse_densified", s.sparse_densified),
            ("sparse_transposes", s.sparse_transposes),
            ("transpose_densified", s.transpose_densified),
            ("normal_eq_solves", s.normal_eq_solves),
        ] {
            if count > 0 {
                tracer.record(EventKind::Rewrite { rule, count });
            }
        }
    }

    fn chunk(&self) -> usize {
        self.cfg.chunk_elems
    }

    fn mem_elems(&self) -> usize {
        self.cfg.mem_blocks * (self.cfg.block_size / 8)
    }

    // ================= loading =================

    /// Load a vector produced by `f(i)` for `i in 0..len`. A `name`
    /// registers the stored object in the catalog so a later session can
    /// reopen it ([`Runtime::open_vector`]); Plain R has no catalog-backed
    /// storage, so the name is ignored there.
    pub(crate) fn load_vector(
        &mut self,
        len: usize,
        name: Option<&str>,
        mut f: impl FnMut(usize) -> f64,
    ) -> ExecResult<VecRepr> {
        if !self.deferred() {
            let v = self.eager_build(len, name, |_, at, buf| {
                for (i, x) in buf.iter_mut().enumerate() {
                    *x = f(at + i);
                }
                Ok(())
            })?;
            self.eager_seal(&v)?;
            return Ok(v);
        }
        let src = self.fresh_source();
        let mut writer = VectorWriter::new(&self.ctx, len, name)?;
        let chunk = self.chunk();
        let mut buf = Vec::with_capacity(chunk);
        let mut at = 0;
        while at < len {
            buf.clear();
            let take = chunk.min(len - at);
            for i in 0..take {
                buf.push(f(at + i));
            }
            writer.push_chunk(&buf)?;
            at += take;
        }
        self.vec_sources.insert(src.0, writer.finish()?);
        Ok(VecRepr::Node(self.graph.vec_source(src, len)))
    }

    /// Load a matrix produced by `f(row, col)`. A `name` registers the
    /// stored object for reopening; Plain R ignores it (paging heap only).
    pub(crate) fn load_matrix(
        &mut self,
        rows: usize,
        cols: usize,
        layout: MatrixLayout,
        name: Option<&str>,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> ExecResult<MatRepr> {
        match self.cfg.kind {
            EngineKind::PlainR => {
                let id = self.heap_build(rows * cols, |_, at, buf| {
                    for (i, x) in buf.iter_mut().enumerate() {
                        *x = f((at + i) / cols, (at + i) % cols);
                    }
                    Ok(())
                })?;
                Ok(MatRepr::Vm { id, rows, cols })
            }
            EngineKind::Strawman => {
                let mat = DenseMatrix::from_fn(
                    &self.ctx,
                    rows,
                    cols,
                    MatrixLayout::ColMajor,
                    TileOrder::ColMajor,
                    name,
                    f,
                )?;
                let owned = name.is_none();
                Ok(MatRepr::Stored(Rc::new(StrawMat { owned, mat })))
            }
            EngineKind::MatNamed | EngineKind::Riot => {
                let src = self.fresh_source();
                let order = match layout {
                    MatrixLayout::RowMajor => TileOrder::RowMajor,
                    MatrixLayout::ColMajor => TileOrder::ColMajor,
                    MatrixLayout::Square => TileOrder::RowMajor,
                };
                let mat = DenseMatrix::from_fn(&self.ctx, rows, cols, layout, order, name, f)?;
                self.mat_sources.insert(src.0, mat);
                let node = self.graph.mat_source(src, rows, cols);
                Ok(MatRepr::Node(node))
            }
        }
    }

    /// Load a sparse matrix from COO triplets `(row, col, value)`
    /// (0-based; duplicates sum, zeros drop).
    ///
    /// Deferred engines store the block-compressed format and record the
    /// nnz statistic in the source node for the optimizer's density
    /// estimate. The eager engines have no sparse backend — exactly like
    /// base R, where sparsity is a library concept — so they densify at
    /// load and the same program still runs.
    pub(crate) fn load_sparse(
        &mut self,
        rows: usize,
        cols: usize,
        name: Option<&str>,
        triplets: &[(usize, usize, f64)],
    ) -> ExecResult<MatRepr> {
        match self.cfg.kind {
            EngineKind::PlainR => {
                let id = self.heap_build(rows * cols, |_, _, zeros| {
                    zeros.fill(0.0);
                    Ok(())
                })?;
                for &(r, c, v) in triplets {
                    let idx = r * cols + c;
                    let cur = self.heap.get(id, idx);
                    self.heap.set(id, idx, cur + v);
                }
                Ok(MatRepr::Vm { id, rows, cols })
            }
            EngineKind::Strawman => {
                let mut cells: HashMap<(usize, usize), f64> = HashMap::new();
                for &(r, c, v) in triplets {
                    *cells.entry((r, c)).or_insert(0.0) += v;
                }
                let mat = DenseMatrix::from_fn(
                    &self.ctx,
                    rows,
                    cols,
                    MatrixLayout::ColMajor,
                    TileOrder::ColMajor,
                    name,
                    |i, j| cells.get(&(i, j)).copied().unwrap_or(0.0),
                )?;
                let owned = name.is_none();
                Ok(MatRepr::Stored(Rc::new(StrawMat { owned, mat })))
            }
            EngineKind::MatNamed | EngineKind::Riot => {
                let src = self.fresh_source();
                let sp = SparseMatrix::from_triplets(
                    &self.ctx,
                    rows,
                    cols,
                    MatrixLayout::Square,
                    triplets,
                    name,
                )?;
                let nnz = sp.nnz();
                self.sparse_sources.insert(src.0, sp);
                Ok(MatRepr::Node(
                    self.graph.sp_mat_source(src, rows, cols, nnz),
                ))
            }
        }
    }

    /// Reopen a named stored vector (written by a `load_vector` with a
    /// name, possibly in a previous session over the same durable
    /// storage). Plain R copies it onto the paging heap — eager semantics,
    /// same as loading fresh; Strawman wraps a borrowed (non-owning)
    /// table; the deferred engines register a source node.
    pub(crate) fn open_vector(&mut self, name: &str) -> ExecResult<VecRepr> {
        let vec = DenseVector::open(&self.ctx, name)?;
        match self.cfg.kind {
            EngineKind::PlainR => {
                self.eager_build(vec.len(), None, |_, at, buf| Ok(vec.read_range(at, buf)?))
            }
            EngineKind::Strawman => Ok(VecRepr::Table(Rc::new(StrawTable { owned: false, vec }))),
            EngineKind::MatNamed | EngineKind::Riot => {
                let src = self.fresh_source();
                let len = vec.len();
                self.vec_sources.insert(src.0, vec);
                Ok(VecRepr::Node(self.graph.vec_source(src, len)))
            }
        }
    }

    /// Reopen a named stored matrix, dense or sparse (the catalog header's
    /// object kind disambiguates). Eager engines densify sparse objects on
    /// the way in, mirroring `load_sparse`.
    pub(crate) fn open_matrix(&mut self, name: &str) -> ExecResult<MatRepr> {
        let is_sparse = self
            .ctx
            .find_object(name)
            .and_then(|id| self.ctx.object_header(id).ok().flatten())
            .is_some_and(|h| h.kind == ObjectKind::SparseMatrix);
        if is_sparse {
            let sp = SparseMatrix::open(&self.ctx, name)?;
            let (rows, cols) = sp.shape();
            match self.cfg.kind {
                EngineKind::PlainR => {
                    let id = self.heap.alloc_from(&sp.to_rows()?);
                    Ok(MatRepr::Vm { id, rows, cols })
                }
                EngineKind::Strawman => Ok(stored(sp.to_dense(TileOrder::ColMajor, None)?)),
                EngineKind::MatNamed | EngineKind::Riot => {
                    let src = self.fresh_source();
                    let nnz = sp.nnz();
                    self.sparse_sources.insert(src.0, sp);
                    Ok(MatRepr::Node(
                        self.graph.sp_mat_source(src, rows, cols, nnz),
                    ))
                }
            }
        } else {
            let mat = DenseMatrix::open(&self.ctx, name)?;
            let (rows, cols) = mat.shape();
            match self.cfg.kind {
                EngineKind::PlainR => {
                    let id = self.heap.alloc_from(&mat.to_rows()?);
                    Ok(MatRepr::Vm { id, rows, cols })
                }
                EngineKind::Strawman => {
                    Ok(MatRepr::Stored(Rc::new(StrawMat { owned: false, mat })))
                }
                EngineKind::MatNamed | EngineKind::Riot => {
                    let src = self.fresh_source();
                    self.mat_sources.insert(src.0, mat);
                    Ok(MatRepr::Node(self.graph.mat_source(src, rows, cols)))
                }
            }
        }
    }

    // ================= vector operations =================
    //
    // Each operator below is written once. A deferred operand builds a
    // graph node; an eager one computes at once over the eager store
    // (next section), after the same `Shape` rule the graph applies.

    /// Length of a vector value.
    pub(crate) fn vec_len(&self, v: &VecRepr) -> usize {
        match v {
            VecRepr::Node(id) => self.graph.shape(*id).len(),
            VecRepr::Vm(id) => self.heap.len(*id),
            VecRepr::Table(t) => t.vec.len(),
        }
    }

    /// Shape of an eager vector value.
    fn eager_shape(&self, v: &VecRepr) -> Shape {
        Shape::Vector(self.vec_len(v))
    }

    /// True for the engines that build graph nodes instead of computing.
    fn deferred(&self) -> bool {
        matches!(self.cfg.kind, EngineKind::MatNamed | EngineKind::Riot)
    }

    /// Elementwise binary op between two vector values (R recycling). Every
    /// engine refuses operands [`Shape::zip`] rejects, the eager ones before
    /// they compute anything.
    pub(crate) fn binop(&mut self, op: BinOp, lhs: &VecRepr, rhs: &VecRepr) -> ExecResult<VecRepr> {
        if let (VecRepr::Node(l), VecRepr::Node(r)) = (lhs, rhs) {
            return Ok(VecRepr::Node(self.graph.zip(op, *l, *r)?));
        }
        let n = self
            .eager_shape(lhs)
            .zip(&self.eager_shape(rhs), op.name())?
            .len();
        self.eager_zip(op, lhs, rhs, n)
    }

    /// Elementwise binary op against a scalar. The eager engines store the
    /// scalar as a length-1 vector and recycle it.
    pub(crate) fn binop_scalar(
        &mut self,
        op: BinOp,
        lhs: &VecRepr,
        scalar: f64,
        scalar_on_left: bool,
    ) -> ExecResult<VecRepr> {
        if let VecRepr::Node(l) = lhs {
            let s = self.graph.scalar(scalar);
            let (a, b) = if scalar_on_left { (s, *l) } else { (*l, s) };
            return Ok(VecRepr::Node(self.graph.zip(op, a, b)?));
        }
        let n = self.eager_shape(lhs).zip(&Shape::Scalar, op.name())?.len();
        let s = self.eager_values(&[scalar])?;
        let out = if scalar_on_left {
            self.eager_zip(op, &s, lhs, n)
        } else {
            self.eager_zip(op, lhs, &s, n)
        };
        self.release(&s);
        out
    }

    /// `n` elements of `lhs op rhs`, a governed chunk at a time.
    fn eager_zip(
        &mut self,
        op: BinOp,
        lhs: &VecRepr,
        rhs: &VecRepr,
        n: usize,
    ) -> ExecResult<VecRepr> {
        let site = self.eager_site("plainr.binop.chunk", "strawman.binop.chunk");
        let mut rb = vec![0.0; self.chunk()];
        let dst = self.eager_build(n, None, |rt, at, lb| {
            rt.ctx.governor().checkpoint(site)?;
            rt.ctx.governor().add_flops(lb.len() as u64);
            let rb = &mut rb[..lb.len()];
            rt.eager_read_recycled(lhs, n, at, lb)?;
            rt.eager_read_recycled(rhs, n, at, rb)?;
            for (l, r) in lb.iter_mut().zip(rb.iter()) {
                *l = op.apply(*l, *r);
            }
            Ok(())
        })?;
        self.eager_seal(&dst)?;
        Ok(dst)
    }

    /// Elementwise unary map.
    pub(crate) fn unop(&mut self, op: UnOp, input: &VecRepr) -> ExecResult<VecRepr> {
        if let VecRepr::Node(i) = input {
            return Ok(VecRepr::Node(self.graph.map(op, *i)));
        }
        let site = self.eager_site("plainr.unop.chunk", "strawman.unop.chunk");
        let dst = self.eager_build(self.vec_len(input), None, |rt, at, buf| {
            rt.ctx.governor().checkpoint(site)?;
            rt.ctx.governor().add_flops(buf.len() as u64);
            rt.eager_read(input, at, buf)?;
            for v in buf.iter_mut() {
                *v = op.apply(*v);
            }
            Ok(())
        })?;
        self.eager_seal(&dst)?;
        Ok(dst)
    }

    /// Subscript read `data[index]`.
    pub(crate) fn gather(&mut self, data: &VecRepr, index: &VecRepr) -> ExecResult<VecRepr> {
        if let (VecRepr::Node(d), VecRepr::Node(i)) = (data, index) {
            return Ok(VecRepr::Node(self.graph.gather(*d, *i)?));
        }
        let k = self
            .eager_shape(data)
            .gather(&self.eager_shape(index))?
            .len();
        let len = self.vec_len(data);
        let dst = self.eager_alloc(k, None)?;
        for t in 0..k {
            let i = subscript(self.eager_get(index, t)?, len)?;
            let v = self.eager_get(data, i)?;
            self.eager_set(&dst, t, v)?;
        }
        self.ctx.governor().add_flops(k as u64);
        Ok(dst)
    }

    /// Elementwise conditional `ifelse(cond, yes, no)`.
    pub(crate) fn ifelse(
        &mut self,
        cond: &VecRepr,
        yes: &VecRepr,
        no: &VecRepr,
    ) -> ExecResult<VecRepr> {
        if let (VecRepr::Node(c), VecRepr::Node(y), VecRepr::Node(n)) = (cond, yes, no) {
            return Ok(VecRepr::Node(self.graph.if_else(*c, *y, *n)?));
        }
        let n = self
            .eager_shape(cond)
            .if_else(&self.eager_shape(yes), &self.eager_shape(no))?
            .len();
        self.eager_select(cond, yes, no, n)
    }

    /// Masked functional update `data[mask] <- value`.
    pub(crate) fn mask_assign(
        &mut self,
        data: &VecRepr,
        mask: &VecRepr,
        value: &VecRepr,
    ) -> ExecResult<VecRepr> {
        if let (VecRepr::Node(d), VecRepr::Node(m), VecRepr::Node(v)) = (data, mask, value) {
            return Ok(VecRepr::Node(self.graph.mask_assign(*d, *m, *v)?));
        }
        let n = self
            .eager_shape(data)
            .mask_assign(&self.eager_shape(mask), &self.eager_shape(value))?
            .len();
        self.eager_select(mask, value, data, n)
    }

    /// Masked update against a scalar replacement value.
    pub(crate) fn mask_assign_scalar(
        &mut self,
        data: &VecRepr,
        mask: &VecRepr,
        value: f64,
    ) -> ExecResult<VecRepr> {
        if let (VecRepr::Node(d), VecRepr::Node(m)) = (data, mask) {
            let v = self.graph.scalar(value);
            return Ok(VecRepr::Node(self.graph.mask_assign(*d, *m, v)?));
        }
        let n = self
            .eager_shape(data)
            .mask_assign(&self.eager_shape(mask), &Shape::Scalar)?
            .len();
        let v = self.eager_values(&[value])?;
        let out = self.eager_select(mask, &v, data, n);
        self.release(&v);
        out
    }

    /// `n` elements of `cond[i] != 0 ? yes[i] : no[i]`, every operand
    /// recycled. Each element reads only the branch it takes; results are
    /// written a chunk at a time.
    fn eager_select(
        &mut self,
        cond: &VecRepr,
        yes: &VecRepr,
        no: &VecRepr,
        n: usize,
    ) -> ExecResult<VecRepr> {
        let (cl, yl, nl) = (self.vec_len(cond), self.vec_len(yes), self.vec_len(no));
        let dst = self.eager_build(n, None, |rt, at, buf| {
            for (i, x) in buf.iter_mut().enumerate() {
                let idx = at + i;
                *x = if rt.eager_get(cond, idx % cl)? != 0.0 {
                    rt.eager_get(yes, idx % yl)?
                } else {
                    rt.eager_get(no, idx % nl)?
                };
            }
            Ok(())
        })?;
        self.eager_seal(&dst)?;
        self.ctx.governor().add_flops(n as u64);
        Ok(dst)
    }

    /// A small in-memory vector value (R's `c(...)`). Deferred engines get
    /// a `Literal` node — the optimizer can then see the values, exactly
    /// like RIOT-DB's optimizer sees the small `S` table of Example 1.
    pub(crate) fn literal(&mut self, values: Vec<f64>) -> ExecResult<VecRepr> {
        if self.deferred() {
            return Ok(VecRepr::Node(self.graph.literal(values)));
        }
        self.eager_values(&values)
    }

    /// Functional indexed update `data[index] <- value` (value recycled to
    /// the index length).
    pub(crate) fn sub_assign(
        &mut self,
        data: &VecRepr,
        index: &VecRepr,
        value: &VecRepr,
    ) -> ExecResult<VecRepr> {
        if let (VecRepr::Node(d), VecRepr::Node(i), VecRepr::Node(v)) = (data, index, value) {
            return Ok(VecRepr::Node(self.graph.sub_assign(*d, *i, *v)?));
        }
        let n = self
            .eager_shape(data)
            .sub_assign(&self.eager_shape(index), &self.eager_shape(value))?
            .len();
        let (k, vl) = (self.vec_len(index), self.vec_len(value));
        // Copy-on-write: R duplicates the vector before updating.
        let dst = self.eager_build(n, None, |rt, at, buf| rt.eager_read(data, at, buf))?;
        for t in 0..k {
            let i = subscript(self.eager_get(index, t)?, n)?;
            let v = self.eager_get(value, t % vl)?;
            self.eager_set(&dst, i, v)?;
        }
        self.eager_seal(&dst)?;
        self.ctx.governor().add_flops((n + k) as u64);
        Ok(dst)
    }

    /// `sample(n, k)`: k distinct 1-based indices, deterministic per seed.
    pub(crate) fn sample(&mut self, n: usize, k: usize) -> ExecResult<VecRepr> {
        if k > n {
            return Err(ExecError::Unsupported(format!(
                "sample({n}, {k}): cannot take a sample larger than the population \
                 without replacement"
            )));
        }
        // Partial Fisher-Yates with a sparse swap map.
        let mut swaps: HashMap<usize, usize> = HashMap::new();
        let mut out = Vec::with_capacity(k);
        for i in 0..k {
            let j = self.rng.gen_range(i..n);
            let vi = *swaps.get(&i).unwrap_or(&i);
            let vj = *swaps.get(&j).unwrap_or(&j);
            swaps.insert(j, vi);
            swaps.insert(i, vj);
            out.push((vj + 1) as f64);
        }
        self.literal(out)
    }

    /// The sequence `start:end` (R's `start:end`, descending when
    /// `start > end`).
    pub(crate) fn range(&mut self, start: i64, end: i64) -> ExecResult<VecRepr> {
        let len = (end.abs_diff(start) + 1) as usize;
        let step = if end < start { -1 } else { 1 };
        if self.deferred() {
            return Ok(VecRepr::Node(self.graph.range_step(start, len, step)));
        }
        let data: Vec<f64> = (0..len).map(|i| (start + step * i as i64) as f64).collect();
        self.eager_values(&data)
    }

    /// Reduce a vector to a scalar (forces evaluation on all engines, but
    /// deferred engines stream without materializing).
    pub(crate) fn aggregate(&mut self, op: AggOp, v: &VecRepr) -> ExecResult<f64> {
        if let VecRepr::Node(id) = v {
            let root = self.graph.agg(op, *id);
            return self.force("aggregate", root, |rt, root| match *rt.graph.node(root) {
                Node::Agg { op, input } => rt.aggregate_node(op, input),
                // The optimizer folded the aggregate to a scalar.
                Node::Scalar(c) => Ok(c),
                _ => unreachable!("agg root stays an agg"),
            });
        }
        let site = self.eager_site("plainr.agg.chunk", "strawman.agg.chunk");
        let n = self.vec_len(v);
        let chunk = self.chunk();
        let mut buf = vec![0.0; chunk];
        let mut acc = op.init();
        let mut at = 0;
        while at < n {
            self.ctx.governor().checkpoint(site)?;
            let take = chunk.min(n - at);
            self.ctx.governor().add_flops(take as u64);
            self.eager_read(v, at, &mut buf[..take])?;
            for &x in &buf[..take] {
                acc = op.fold(acc, x);
            }
            at += take;
        }
        if op == AggOp::Mean && n > 0 {
            acc /= n as f64;
        }
        Ok(acc)
    }

    // ================= the eager store =================
    //
    // Plain R keeps a vector's elements on the paging heap (`VecRepr::Vm`),
    // Strawman in an `(I,V)` table (`VecRepr::Table`). These methods are
    // the whole difference between the two for vector operators.

    /// A zeroed eager vector of `len` elements. Strawman registers a
    /// `name` in the catalog; Plain R has no catalog and ignores it.
    fn eager_alloc(&mut self, len: usize, name: Option<&str>) -> ExecResult<VecRepr> {
        if self.cfg.kind == EngineKind::PlainR {
            return Ok(VecRepr::Vm(self.heap.alloc(len)));
        }
        let vec = DenseVector::create_wide(&self.ctx, len, name)?;
        // Named tables are durable catalog residents the session merely
        // references; anonymous intermediates are owned.
        let owned = name.is_none();
        Ok(VecRepr::Table(Rc::new(StrawTable { owned, vec })))
    }

    /// Read `out.len()` elements of `v` starting at `at`.
    fn eager_read(&mut self, v: &VecRepr, at: usize, out: &mut [f64]) -> ExecResult<()> {
        match v {
            VecRepr::Vm(id) => self.heap.read_chunk(*id, at, out),
            VecRepr::Table(t) => t.vec.read_range(at, out)?,
            VecRepr::Node(_) => unreachable!("deferred values have no eager store"),
        }
        Ok(())
    }

    /// Write `data` into `v` starting at `at`.
    fn eager_write(&mut self, v: &VecRepr, at: usize, data: &[f64]) -> ExecResult<()> {
        match v {
            VecRepr::Vm(id) => self.heap.write_chunk(*id, at, data),
            VecRepr::Table(t) => t.vec.write_range(at, data)?,
            VecRepr::Node(_) => unreachable!("deferred values have no eager store"),
        }
        Ok(())
    }

    /// Read element `i` of `v`.
    fn eager_get(&mut self, v: &VecRepr, i: usize) -> ExecResult<f64> {
        Ok(match v {
            VecRepr::Vm(id) => self.heap.get(*id, i),
            VecRepr::Table(t) => t.vec.get(i)?,
            VecRepr::Node(_) => unreachable!("deferred values have no eager store"),
        })
    }

    /// Write element `i` of `v`.
    fn eager_set(&mut self, v: &VecRepr, i: usize, x: f64) -> ExecResult<()> {
        match v {
            VecRepr::Vm(id) => self.heap.set(*id, i, x),
            VecRepr::Table(t) => t.vec.set(i, x)?,
            VecRepr::Node(_) => unreachable!("deferred values have no eager store"),
        }
        Ok(())
    }

    /// Finish writing `v`: a table flushes its blocks in order (one bulky
    /// sequential write); the heap has nothing to flush.
    fn eager_seal(&self, v: &VecRepr) -> ExecResult<()> {
        if let VecRepr::Table(t) = v {
            t.vec.flush()?;
        }
        Ok(())
    }

    /// Read `out.len()` elements of `v` recycled to `n`, from position
    /// `at`: a range read when `v` has all `n` elements, else one element
    /// read each (R's recycling is rare for large operands).
    fn eager_read_recycled(
        &mut self,
        v: &VecRepr,
        n: usize,
        at: usize,
        out: &mut [f64],
    ) -> ExecResult<()> {
        let len = self.vec_len(v);
        if len == n {
            return self.eager_read(v, at, out);
        }
        for (i, x) in out.iter_mut().enumerate() {
            *x = self.eager_get(v, (at + i) % len)?;
        }
        Ok(())
    }

    /// A fresh eager vector of `len` elements, filled a chunk at a time:
    /// `fill(rt, at, buf)` computes elements `at..at + buf.len()` and the
    /// chunk is written. Sealing is left to the caller.
    fn eager_build(
        &mut self,
        len: usize,
        name: Option<&str>,
        mut fill: impl FnMut(&mut Self, usize, &mut [f64]) -> ExecResult<()>,
    ) -> ExecResult<VecRepr> {
        let dst = self.eager_alloc(len, name)?;
        let chunk = self.chunk();
        let mut buf = vec![0.0; chunk];
        let mut at = 0;
        while at < len {
            let take = chunk.min(len - at);
            fill(self, at, &mut buf[..take])?;
            self.eager_write(&dst, at, &buf[..take])?;
            at += take;
        }
        Ok(dst)
    }

    /// [`Runtime::eager_build`] on Plain R's heap, for its matrices.
    fn heap_build(
        &mut self,
        len: usize,
        fill: impl FnMut(&mut Self, usize, &mut [f64]) -> ExecResult<()>,
    ) -> ExecResult<VmId> {
        match self.eager_build(len, None, fill)? {
            VecRepr::Vm(id) => Ok(id),
            _ => unreachable!("Plain R stores on the heap"),
        }
    }

    /// An eager vector holding `values`.
    fn eager_values(&mut self, values: &[f64]) -> ExecResult<VecRepr> {
        let v = self.eager_alloc(values.len(), None)?;
        self.eager_write(&v, 0, values)?;
        Ok(v)
    }

    /// The governance checkpoint label of an eager loop: the engines keep
    /// their own label for the same loop.
    fn eager_site(&self, heap: &'static str, table: &'static str) -> &'static str {
        if self.cfg.kind == EngineKind::PlainR {
            heap
        } else {
            table
        }
    }

    // ================= forcing =================

    /// Materialize node `id` to a stored vector (idempotent).
    pub(crate) fn force_vector_to_disk(&mut self, id: NodeId) -> ExecResult<DenseVector> {
        if let Some(v) = self.materialized.get(&id) {
            return Ok(v.clone());
        }
        // Sources are already on disk.
        if let Node::VecSource { source, .. } = self.graph.node(id) {
            return Ok(self.vec_sources[&source.0].clone());
        }
        self.span(
            "materialize",
            |rt| rt.detail_of(id),
            |rt| {
                let len = rt.graph.shape(id).len();
                let pipe = rt.compile(id, len)?;
                let vec = materialize(pipe, &rt.ctx, None)?;
                vec.flush()?;
                rt.materialized.insert(id, vec.clone());
                Ok(vec)
            },
        )
    }

    /// Fully evaluate a vector value into memory (the `print` forcing
    /// point). Riot optimizes the whole reachable DAG here.
    pub(crate) fn collect(&mut self, v: &VecRepr) -> ExecResult<Vec<f64>> {
        let VecRepr::Node(id) = *v else {
            let mut out = vec![0.0; self.vec_len(v)];
            // Plain R charges the copy out of its heap; a table scan is
            // I/O only.
            if let VecRepr::Vm(_) = v {
                self.ctx.governor().add_flops(out.len() as u64);
            }
            self.eager_read(v, 0, &mut out)?;
            return Ok(out);
        };
        // MatNamed reads a name it already materialized back as is.
        if self.cfg.kind == EngineKind::MatNamed {
            if let Some(vec) = self.materialized.get(&id) {
                return Ok(vec.to_vec()?);
            }
        }
        self.force("collect", id, |rt, root| {
            let len = rt.graph.shape(root).len();
            rt.ctx.governor().add_flops(len as u64);
            if let Some(out) = rt.try_parallel_collect(root, len)? {
                return Ok(out);
            }
            let pipe = governed(rt.compile(root, len)?, &rt.ctx, "pipeline.collect.chunk");
            drain_to_vec(pipe)
        })
    }

    /// §5's materialization decision: a deferred-only engine would
    /// re-compute a subexpression once per reference, because the pipeline
    /// executes the DAG as a tree. Before compiling, materialize every
    /// non-leaf vector node referenced more than once whose size makes
    /// recomputation more expensive than one write+read pass. Spills land
    /// in the `materialized` cache, so later forcing points reuse them —
    /// "materialization complements deferred evaluation".
    fn spill_shared(&mut self, root: NodeId) -> ExecResult<()> {
        let counts = self.graph.ref_counts(&[root]);
        let threshold = 4 * self.chunk();
        // reachable() is children-first, so inner shared nodes spill
        // before any parent that consumes them is materialized.
        for id in self.graph.reachable(&[root]) {
            if id == root || self.graph.node(id).is_leaf() || self.materialized.contains_key(&id) {
                continue;
            }
            let shared = counts.get(&id).copied().unwrap_or(0) >= 2;
            let big = matches!(self.graph.shape(id), Shape::Vector(n) if n >= threshold);
            if shared && big {
                self.force_vector_to_disk(id)?;
            }
        }
        Ok(())
    }

    // ================= aggregation =================

    /// Aggregate node `input` with `op` through the **fixed partition
    /// tree**: the stream is cut at block-aligned boundaries derived only
    /// from its length (never from the thread count), each partition
    /// folds sequentially from `op.init()`, and the partials combine in
    /// partition order — so `sum()` and friends are **bit-identical
    /// across every `EngineConfig::threads` value**, while still fanning
    /// the partition folds out over the worker pool.
    ///
    /// Inputs at most one partition long take the classic single-fold
    /// path (bit-for-bit the pre-tree sequential aggregate, which keeps
    /// small results — and the cross-engine transparency tests built on
    /// them — exactly stable); inputs the partitioner cannot prove
    /// parallel-safe fall back to it too (one sequential fold is the same
    /// value at every thread count).
    fn aggregate_node(&mut self, op: AggOp, input: NodeId) -> ExecResult<f64> {
        let len = self.graph.shape(input).len();
        self.ctx.governor().add_flops(len as u64);
        let epb = self.ctx.elems_per_block();
        let align = self.chunk().max(epb).div_ceil(epb) * epb;
        let part = 4 * align;
        if len <= part || !self.parallel_safe(input, len) {
            let pipe = governed(self.compile(input, len)?, &self.ctx, "pipeline.agg.chunk");
            return drain_agg(pipe, op);
        }
        // Probe restrictability once, so the tree-vs-fallback decision is
        // identical at every thread count (`parallel_safe` is necessary,
        // but `restrict` is the authority; a partially restricted tree
        // must be discarded per the `Pipe::restrict` contract).
        {
            let mut probe = self.compile(input, len)?;
            if !probe.restrict(0, len) {
                let pipe = governed(self.compile(input, len)?, &self.ctx, "pipeline.agg.chunk");
                return drain_agg(pipe, op);
            }
        }
        let spans: Vec<(usize, usize)> = (0..len)
            .step_by(part)
            .map(|s| (s, part.min(len - s)))
            .collect();
        let threads = self.cfg.threads.max(1);
        let partials = if threads <= 1 {
            // One pass over a single pipe with the accumulator reset at
            // partition boundaries: identical partials, and the exact
            // device-I/O sequence of the old sequential drain.
            let mut pipe = governed(self.compile(input, len)?, &self.ctx, "pipeline.agg.chunk");
            let mut partials = Vec::with_capacity(spans.len());
            let mut buf = Vec::new();
            let mut at = 0usize;
            let mut acc = op.init();
            loop {
                let n = pipe.next_into(&mut buf)?;
                if n == 0 {
                    break;
                }
                let mut off = 0usize;
                while off < n {
                    let (s, take) = spans[partials.len()];
                    let span_end = s + take;
                    let step = (span_end - at).min(n - off);
                    for &v in &buf[off..off + step] {
                        acc = op.fold(acc, v);
                    }
                    at += step;
                    off += step;
                    if at == span_end {
                        partials.push(acc);
                        acc = op.init();
                    }
                }
            }
            debug_assert_eq!(at, len, "aggregation consumed the whole stream");
            partials
        } else {
            // One restricted pipe per span, folded on scoped workers.
            let mut pipes = Vec::with_capacity(spans.len());
            for &(s, take) in &spans {
                let mut pipe = self.compile(input, len)?;
                if !pipe.restrict(s, take) {
                    // Unreachable after the probe for every built-in pipe;
                    // kept graceful for future pipes with span-dependent
                    // restriction.
                    let pipe = governed(self.compile(input, len)?, &self.ctx, "pipeline.agg.chunk");
                    return drain_agg(pipe, op);
                }
                pipes.push(governed(pipe, &self.ctx, "pipeline.agg.part"));
            }
            fold_partitioned(pipes, op, threads)?
        };
        let mut acc = partials[0];
        for &p in &partials[1..] {
            acc = op.fold(acc, p);
        }
        if op == AggOp::Mean && len > 0 {
            acc /= len as f64;
        }
        Ok(acc)
    }

    // ================= parallel pipeline =================

    /// True when `id` can be compiled into independently restrictable
    /// partitions whose combined execution is observably identical to the
    /// sequential drain (same elements, same counted I/O, same op count).
    ///
    /// Conservative by design: anything that would run side effects once
    /// per partition-compile (aggregates, scalar folding of non-literal
    /// scalars, recycled operands that drain their short side) falls back
    /// to the sequential path, and so do gathers — their probes touch
    /// blocks shared across partitions, so under out-of-core pressure the
    /// interleaved miss/eviction sequence would diverge from the
    /// sequential one. `SubAssign` is safe because its forced
    /// materialization is memoized (the first compile does the work,
    /// identical to sequential) and then scans like a stored vector.
    fn parallel_safe(&self, id: NodeId, out_len: usize) -> bool {
        match self.graph.shape(id) {
            Shape::Scalar => return matches!(self.graph.node(id), Node::Scalar(_)),
            Shape::Vector(l) if l == out_len => {}
            _ => return false, // recycled operand or matrix value
        }
        if self.materialized.contains_key(&id) {
            return true; // compiles to a restrictable VecScan
        }
        match self.graph.node(id) {
            Node::VecSource { .. } | Node::Literal(_) | Node::Range { .. } => true,
            Node::Map { input, .. } => self.parallel_safe(*input, out_len),
            Node::Zip { lhs, rhs, .. } => {
                self.parallel_safe(*lhs, out_len) && self.parallel_safe(*rhs, out_len)
            }
            Node::IfElse { cond, yes, no } => {
                self.parallel_safe(*cond, out_len)
                    && self.parallel_safe(*yes, out_len)
                    && self.parallel_safe(*no, out_len)
            }
            Node::MaskAssign { data, mask, value } => {
                self.parallel_safe(*data, out_len)
                    && self.parallel_safe(*mask, out_len)
                    && self.parallel_safe(*value, out_len)
            }
            Node::SubAssign { .. } => true, // forced once, then a VecScan
            _ => false,
        }
    }

    /// Attempt a partitioned parallel drain of node `id` (`len` elements):
    /// compile one pipe per chunk-aligned span, restrict each to its span,
    /// and drain them on `cfg.threads` scoped workers into one output
    /// buffer. Returns `None` (and performs no partial work the sequential
    /// path would not) when the plan is not parallel-safe.
    fn try_parallel_collect(&mut self, id: NodeId, len: usize) -> ExecResult<Option<Vec<f64>>> {
        let threads = self.cfg.threads;
        // Partition boundaries must be **block-aligned** (in elements):
        // two partitions sharing a boundary block would each pin it, and
        // under eviction pressure the shared block could be device-read
        // twice, breaking I/O parity with the sequential drain. Chunk
        // alignment additionally keeps per-partition streams starting on
        // chunk boundaries when the chunk is block-sized or larger.
        let epb = self.ctx.elems_per_block();
        let align = self.chunk().max(epb).div_ceil(epb) * epb;
        if threads <= 1 || len < 2 * align || !self.parallel_safe(id, len) {
            return Ok(None);
        }
        let per = len.div_ceil(threads).div_ceil(align) * align;
        let mut spans = Vec::new();
        let mut start = 0;
        while start < len {
            let take = per.min(len - start);
            spans.push((start, take));
            start += take;
        }
        if spans.len() <= 1 {
            return Ok(None);
        }
        let mut out = vec![0.0; len];
        {
            let mut slices: Vec<&mut [f64]> = Vec::new();
            let mut rest: &mut [f64] = &mut out;
            for &(_, take) in &spans {
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
                slices.push(head);
                rest = tail;
            }
            let mut parts: Vec<(Box<dyn Pipe>, &mut [f64])> = Vec::with_capacity(spans.len());
            for (&(s, take), slice) in spans.iter().zip(slices) {
                let mut pipe = self.compile(id, len)?;
                if !pipe.restrict(s, take) {
                    return Ok(None);
                }
                parts.push((governed(pipe, &self.ctx, "pipeline.collect.part"), slice));
            }
            drain_partitioned(parts, threads)?;
        }
        Ok(Some(out))
    }

    // ================= pipeline compilation =================

    /// Compile node `id` into a pipe producing `out_len` elements
    /// (broadcasting scalars and recycling short operands).
    pub(crate) fn compile(&mut self, id: NodeId, out_len: usize) -> ExecResult<Box<dyn Pipe>> {
        let shape = self.graph.shape(id);
        let own_len = shape.len();
        if matches!(shape, Shape::Scalar) {
            let value = self.scalar_value(id)?;
            return Ok(Box::new(ConstScan::new(value, out_len, self.chunk())));
        }
        if own_len != out_len {
            // Recycled operand: materialize the short side in memory.
            debug_assert!(own_len < out_len && out_len % own_len == 0);
            let inner = governed(
                self.compile(id, own_len)?,
                &self.ctx,
                "pipeline.cycle.chunk",
            );
            let data = drain_to_vec(inner)?;
            return Ok(Box::new(CycleScan::new(data, out_len, self.chunk())));
        }
        if let Some(vec) = self.materialized.get(&id) {
            return Ok(Box::new(VecScan::new(vec.clone(), self.chunk())));
        }
        let node = self.graph.node(id).clone();
        let ops = self.ctx.governor().flop_ledger();
        Ok(match node {
            Node::VecSource { source, .. } => Box::new(VecScan::new(
                self.vec_sources[&source.0].clone(),
                self.chunk(),
            )),
            Node::Literal(data) => Box::new(LiteralScan::new(data, self.chunk())),
            Node::Range { start, len, step } => {
                Box::new(RangeScan::with_step(start, len, step, self.chunk()))
            }
            Node::Scalar(_) => unreachable!("handled above"),
            Node::Map { op, input } => {
                let input = self.compile(input, out_len)?;
                Box::new(MapPipe::new(op, input, ops))
            }
            Node::Zip { op, lhs, rhs } => {
                let lhs = self.compile(lhs, out_len)?;
                let rhs = self.compile(rhs, out_len)?;
                Box::new(ZipPipe::new(op, lhs, rhs, ops))
            }
            Node::IfElse { cond, yes, no } => {
                let cond = self.compile(cond, out_len)?;
                let yes = self.compile(yes, out_len)?;
                let no = self.compile(no, out_len)?;
                Box::new(IfElsePipe::new(cond, yes, no, ops))
            }
            Node::Gather { data, index } => {
                let idx_len = self.graph.shape(index).len();
                let index = self.compile(index, idx_len)?;
                let probe = self.compile_probe(data)?;
                Box::new(GatherPipe::new(index, probe, ops))
            }
            Node::SubAssign { data, index, value } => {
                let vec = self.force_subassign(id, data, index, value)?;
                Box::new(VecScan::new(vec, self.chunk()))
            }
            Node::MaskAssign { data, mask, value } => {
                // Present when the optimizer is off (MatNamed or ablation):
                // execute as the equivalent conditional.
                let cond = self.compile(mask, out_len)?;
                let yes = self.compile(value, out_len)?;
                let no = self.compile(data, out_len)?;
                Box::new(IfElsePipe::new(cond, yes, no, ops))
            }
            Node::MatMul { .. }
            | Node::Transpose { .. }
            | Node::SpTranspose { .. }
            | Node::MatSource { .. }
            | Node::SpMatSource { .. }
            | Node::Densify { .. }
            | Node::Sparsify { .. }
            | Node::Chol { .. }
            | Node::Solve { .. } => {
                return Err(ExecError::Unsupported(
                    "matrix values cannot stream through vector pipelines; use collect_matrix"
                        .to_string(),
                ))
            }
            Node::Agg { op, input } => {
                let v = self.aggregate_node(op, input)?;
                Box::new(ConstScan::new(v, out_len, self.chunk()))
            }
        })
    }

    /// Evaluate a scalar-shaped node to its value.
    fn scalar_value(&mut self, id: NodeId) -> ExecResult<f64> {
        match self.graph.node(id).clone() {
            Node::Scalar(c) => Ok(c),
            Node::Agg { op, input } => self.aggregate_node(op, input),
            Node::Map { op, input } => {
                let x = self.scalar_value(input)?;
                self.ctx.governor().add_flops(1);
                Ok(op.apply(x))
            }
            Node::Zip { op, lhs, rhs } => {
                let a = self.scalar_value(lhs)?;
                let b = self.scalar_value(rhs)?;
                self.ctx.governor().add_flops(1);
                Ok(op.apply(a, b))
            }
            Node::IfElse { cond, yes, no } => {
                let c = self.scalar_value(cond)?;
                if c != 0.0 {
                    self.scalar_value(yes)
                } else {
                    self.scalar_value(no)
                }
            }
            other => Err(ExecError::Unsupported(format!(
                "scalar evaluation of {other:?}"
            ))),
        }
    }

    /// Random-access side of a gather: leaves probe directly; anything
    /// else is materialized first (RIOT's "materialization complements
    /// deferred evaluation").
    fn compile_probe(&mut self, id: NodeId) -> ExecResult<Probe> {
        if let Some(vec) = self.materialized.get(&id) {
            return Ok(Probe::Stored(vec.clone()));
        }
        match self.graph.node(id).clone() {
            Node::VecSource { source, .. } => {
                Ok(Probe::Stored(self.vec_sources[&source.0].clone()))
            }
            Node::Literal(data) => Ok(Probe::Mem(data)),
            Node::Range { start, len, step } if step < 0 => Ok(Probe::RangeDown { start, len }),
            Node::Range { start, len, .. } => Ok(Probe::Range { start, len }),
            _ => {
                let vec = self.force_vector_to_disk(id)?;
                Ok(Probe::Stored(vec))
            }
        }
    }

    /// Materialize `data`, then overwrite positions `index` with `value`.
    fn force_subassign(
        &mut self,
        node_id: NodeId,
        data: NodeId,
        index: NodeId,
        value: NodeId,
    ) -> ExecResult<DenseVector> {
        if let Some(v) = self.materialized.get(&node_id) {
            return Ok(v.clone());
        }
        let len = self.graph.shape(data).len();
        let pipe = self.compile(data, len)?;
        let ctx = Arc::clone(&self.ctx);
        let vec = materialize(pipe, &ctx, None)?;
        let idx_len = self.graph.shape(index).len();
        let idx = drain_to_vec(governed(
            self.compile(index, idx_len)?,
            &self.ctx,
            "pipeline.collect.chunk",
        ))?;
        let vals = drain_to_vec(governed(
            self.compile(value, idx_len)?,
            &self.ctx,
            "pipeline.collect.chunk",
        ))?;
        for (&raw, &v) in idx.iter().zip(&vals) {
            vec.set(subscript(raw, vec.len())?, v)?;
        }
        self.ctx.governor().add_flops((len + idx.len()) as u64);
        self.materialized.insert(node_id, vec.clone());
        Ok(vec)
    }

    // ================= matrices =================

    /// Matrix shape `(rows, cols)`.
    pub(crate) fn mat_shape(&self, m: &MatRepr) -> (usize, usize) {
        match m {
            MatRepr::Node(id) => match self.graph.shape(*id) {
                Shape::Matrix(r, c) => (r, c),
                _ => unreachable!("matrix nodes have matrix shapes"),
            },
            MatRepr::Vm { rows, cols, .. } => (*rows, *cols),
            MatRepr::Stored(sm) => sm.mat.shape(),
        }
    }

    /// Matrix shape, as the shape rules take it.
    fn mat_shape_of(&self, m: &MatRepr) -> Shape {
        let (rows, cols) = self.mat_shape(m);
        Shape::Matrix(rows, cols)
    }

    /// Matrix transpose.
    pub(crate) fn transpose(&mut self, m: &MatRepr) -> ExecResult<MatRepr> {
        match m {
            MatRepr::Node(id) => Ok(MatRepr::Node(self.graph.transpose(*id)?)),
            &MatRepr::Vm { id, rows, cols } => {
                let t = self.heap.alloc(rows * cols);
                for i in 0..rows {
                    for j in 0..cols {
                        let v = self.heap.get(id, i * cols + j);
                        self.heap.set(t, j * rows + i, v);
                    }
                }
                self.ctx.governor().add_flops((rows * cols) as u64);
                Ok(MatRepr::Vm {
                    id: t,
                    rows: cols,
                    cols: rows,
                })
            }
            MatRepr::Stored(sm) => {
                let t = sm
                    .mat
                    .transpose(MatrixLayout::ColMajor, TileOrder::ColMajor, None)?;
                Ok(stored(t))
            }
        }
    }

    /// Matrix product. The eager engines check [`Shape::matmul`] before
    /// computing, as the graph does when it builds the node.
    pub(crate) fn matmul(&mut self, lhs: &MatRepr, rhs: &MatRepr) -> ExecResult<MatRepr> {
        if let (MatRepr::Node(l), MatRepr::Node(r)) = (lhs, rhs) {
            return Ok(MatRepr::Node(self.graph.matmul(*l, *r)?));
        }
        self.mat_shape_of(lhs).matmul(&self.mat_shape_of(rhs))?;
        match (lhs, rhs) {
            (
                &MatRepr::Vm {
                    id: a,
                    rows: n1,
                    cols: n2,
                },
                &MatRepr::Vm {
                    id: b, cols: n3, ..
                },
            ) => {
                let t = self.heap.alloc(n1 * n3);
                // R's internal loop (Example 2): j outer, i middle, k inner.
                for j in 0..n3 {
                    self.ctx.governor().checkpoint("plainr.matmul.col")?;
                    for i in 0..n1 {
                        let mut acc = 0.0;
                        for k in 0..n2 {
                            acc += self.heap.get(a, i * n2 + k) * self.heap.get(b, k * n3 + j);
                        }
                        self.heap.set(t, i * n3 + j, acc);
                    }
                    self.ctx.governor().add_flops((n1 * n2) as u64);
                }
                Ok(MatRepr::Vm {
                    id: t,
                    rows: n1,
                    cols: n3,
                })
            }
            (MatRepr::Stored(a), MatRepr::Stored(b)) => {
                Ok(stored(matmul::matmul_naive(&a.mat, &b.mat, None)?.0))
            }
            _ => unreachable!("representation matches engine"),
        }
    }

    /// Cholesky factorization `chol(a)`: the lower-triangular `L` with
    /// `L · Lᵀ = a`. Deferred engines record a [`Node::Chol`]; the eager
    /// engines check [`Shape::chol`] and factor immediately in their own
    /// representation.
    pub(crate) fn mat_chol(&mut self, m: &MatRepr) -> ExecResult<MatRepr> {
        if let MatRepr::Node(id) = m {
            return Ok(MatRepr::Node(self.graph.chol(*id)?));
        }
        self.mat_shape_of(m).chol()?;
        match m {
            &MatRepr::Vm { id, rows, cols } => {
                self.ctx.governor().checkpoint("plainr.chol")?;
                let mut a = self.heap.to_vec(id);
                dense_chol_inplace(&mut a, rows)?;
                self.ctx
                    .governor()
                    .add_flops((rows * rows * rows / 3 + rows * rows) as u64);
                let id = self.heap.alloc_from(&a);
                Ok(MatRepr::Vm { id, rows, cols })
            }
            MatRepr::Stored(sm) => Ok(stored(
                factor::chol_tiled(&sm.mat, self.mem_elems(), None)?.0,
            )),
            MatRepr::Node(_) => unreachable!("handled above"),
        }
    }

    /// Linear solve `solve(a, b)` for symmetric positive definite `a` —
    /// always Cholesky-backed; no engine materializes an inverse. The eager
    /// engines check [`Shape::solve`] first.
    pub(crate) fn mat_solve(&mut self, a: &MatRepr, b: &MatRepr) -> ExecResult<MatRepr> {
        if let (MatRepr::Node(l), MatRepr::Node(r)) = (a, b) {
            return Ok(MatRepr::Node(self.graph.solve(*l, *r)?));
        }
        self.mat_shape_of(a).solve(&self.mat_shape_of(b))?;
        match (a, b) {
            (
                &MatRepr::Vm {
                    id: ia, rows: n, ..
                },
                &MatRepr::Vm {
                    id: ib, cols: m, ..
                },
            ) => {
                self.ctx.governor().checkpoint("plainr.solve")?;
                let mut l = self.heap.to_vec(ia);
                dense_chol_inplace(&mut l, n)?;
                let mut x = self.heap.to_vec(ib);
                dense_cholesky_substitute(&l, &mut x, n, m);
                self.ctx
                    .governor()
                    .add_flops((n * n * n / 3 + 2 * n * n * m) as u64);
                let id = self.heap.alloc_from(&x);
                Ok(MatRepr::Vm {
                    id,
                    rows: n,
                    cols: m,
                })
            }
            (MatRepr::Stored(sa), MatRepr::Stored(sb)) => {
                let mem = self.mem_elems();
                Ok(stored(
                    factor::cholesky_solve(&sa.mat, &sb.mat, mem, 1, None)?.0,
                ))
            }
            _ => unreachable!("representation matches engine"),
        }
    }

    /// Fully evaluate a matrix value to row-major data.
    pub(crate) fn collect_matrix(&mut self, m: &MatRepr) -> ExecResult<(usize, usize, Vec<f64>)> {
        match m {
            &MatRepr::Vm { id, rows, cols } => Ok((rows, cols, self.heap.to_vec(id))),
            MatRepr::Stored(sm) => {
                let (r, c) = sm.mat.shape();
                Ok((r, c, sm.mat.to_rows()?))
            }
            MatRepr::Node(id) => self.force("collect_matrix", *id, |rt, root| {
                Ok(match rt.force_matrix_value(root)? {
                    MatValue::Dense(mat) => {
                        let (r, c) = mat.shape();
                        (r, c, mat.to_rows()?)
                    }
                    MatValue::Sparse(sp) => {
                        let (r, c) = sp.shape();
                        (r, c, sp.to_rows()?)
                    }
                })
            }),
        }
    }

    /// Materialize a matrix node in whichever physical representation the
    /// plan produces, dispatching `MatMul` to the sparse kernels when an
    /// operand is sparse (the optimizer already densified operands above
    /// the density threshold):
    ///
    /// * sparse x sparse (aligned tiles) -> [`spkernel::spmm`], sparse
    /// * sparse x dense -> [`spkernel::spmdm`], dense accumulator tiles
    /// * dense x sparse -> [`spkernel::dmspm`], dense accumulator strips
    /// * dense x dense -> the configured [`MatMulKernel`]
    ///
    /// and `Transpose`/`SpTranspose` to the native [`spkernel::sptranspose`]
    /// whenever the forced operand is sparse — no combination in the
    /// `{sparse, dense}` product/transpose table densifies implicitly.
    pub(crate) fn force_matrix_value(&mut self, id: NodeId) -> ExecResult<MatValue> {
        if let Some(m) = self.mat_materialized.get(&id) {
            return Ok(MatValue::Dense(m.clone()));
        }
        if let Some(s) = self.sparse_materialized.get(&id) {
            return Ok(MatValue::Sparse(s.clone()));
        }
        let out = match self.graph.node(id).clone() {
            Node::MatSource { source, .. } => MatValue::Dense(self.mat_sources[&source.0].clone()),
            Node::SpMatSource { source, .. } => {
                MatValue::Sparse(self.sparse_sources[&source.0].clone())
            }
            Node::Densify { input } => match self.force_matrix_value(input)? {
                MatValue::Sparse(s) => MatValue::Dense(s.to_dense(TileOrder::RowMajor, None)?),
                dense => dense,
            },
            Node::Sparsify { input } => match self.force_matrix_value(input)? {
                MatValue::Dense(d) => MatValue::Sparse(SparseMatrix::from_dense(&d, None)?),
                sparse => sparse,
            },
            Node::MatMul { lhs, rhs } => {
                let a = self.force_matrix_value(lhs)?;
                let b = self.force_matrix_value(rhs)?;
                self.multiply_values(a, b)?
            }
            // Transpose is representation-generic: whatever representation
            // the input forces to, the result keeps it. `SpTranspose` is
            // the optimizer's explicit below-threshold plan; a plain
            // `Transpose` over a sparse value (e.g. under MatNamed, which
            // never optimizes) reaches the same native kernel.
            Node::Transpose { input } | Node::SpTranspose { input } => {
                match self.force_matrix_value(input)? {
                    MatValue::Sparse(s) => self.span(
                        "sptranspose",
                        |_| format!("{} nnz={}", dims(s.shape()), s.nnz()),
                        |_| Ok(MatValue::Sparse(spkernel::sptranspose(&s, None)?.0)),
                    )?,
                    MatValue::Dense(d) => self.span(
                        "transpose",
                        |_| dims(d.shape()),
                        |_| {
                            let t = d.transpose(MatrixLayout::Square, TileOrder::RowMajor, None)?;
                            Ok(MatValue::Dense(t))
                        },
                    )?,
                }
            }
            Node::Chol { input } => {
                let a = self.force_dense_value(input)?;
                self.span(
                    "chol",
                    |_| dims(a.shape()),
                    |rt| {
                        let threads = rt.cfg.threads.max(1);
                        let (l, _) =
                            factor::chol_tiled_parallel(&a, rt.mem_elems(), threads, None)?;
                        Ok(MatValue::Dense(l))
                    },
                )?
            }
            Node::Solve { lhs, rhs } => {
                let a = self.force_dense_value(lhs)?;
                let b = self.force_dense_value(rhs)?;
                self.span(
                    "solve",
                    |_| {
                        let (r, c) = a.shape();
                        format!("{r}x{c} \\ {r}x{}", b.cols())
                    },
                    |rt| {
                        let threads = rt.cfg.threads.max(1);
                        let (x, _) = factor::cholesky_solve(&a, &b, rt.mem_elems(), threads, None)?;
                        Ok(MatValue::Dense(x))
                    },
                )?
            }
            other => {
                return Err(ExecError::Unsupported(format!(
                    "matrix execution of {other:?}"
                )))
            }
        };
        match &out {
            MatValue::Dense(d) => {
                self.mat_materialized.insert(id, d.clone());
            }
            MatValue::Sparse(s) => {
                self.sparse_materialized.insert(id, s.clone());
            }
        }
        Ok(out)
    }

    /// Force a node and densify the result: the factorization kernels are
    /// dense-only (a Cholesky factor of a sparse matrix fills in anyway).
    fn force_dense_value(&mut self, id: NodeId) -> ExecResult<DenseMatrix> {
        Ok(match self.force_matrix_value(id)? {
            MatValue::Dense(d) => d,
            MatValue::Sparse(s) => s.to_dense(TileOrder::RowMajor, None)?,
        })
    }

    /// One multiplication over materialized operands, choosing a kernel by
    /// representation. The sparse kernels fan their independent strips /
    /// output tiles out over `EngineConfig::threads` workers (`1`, the
    /// default, is the bit-for-bit sequential schedule).
    fn multiply_values(&mut self, a: MatValue, b: MatValue) -> ExecResult<MatValue> {
        let threads = self.cfg.threads.max(1);
        let detail = |_: &Self| {
            let (ar, ac) = a.shape();
            format!("{ar}x{ac} * {ac}x{}", b.shape().1)
        };
        match (&a, &b) {
            (MatValue::Sparse(a), MatValue::Sparse(b)) => {
                let (atr, atc) = a.tile_dims();
                if (atr, atc) == b.tile_dims() && atr == atc {
                    self.span("spmm", detail, |_| {
                        let (t, _) = spkernel::spmm_parallel(a, b, threads, None)?;
                        Ok(MatValue::Sparse(t))
                    })
                } else {
                    // Mismatched tilings: fall back to the sparse x dense
                    // kernel on a densified right side.
                    self.span("spmdm", detail, |_| {
                        let bd = b.to_dense(TileOrder::RowMajor, None)?;
                        let (t, _) = spkernel::spmdm_parallel(a, &bd, threads, None)?;
                        Ok(MatValue::Dense(t))
                    })
                }
            }
            (MatValue::Sparse(a), MatValue::Dense(b)) => self.span("spmdm", detail, |_| {
                let (t, _) = spkernel::spmdm_parallel(a, b, threads, None)?;
                Ok(MatValue::Dense(t))
            }),
            (MatValue::Dense(a), MatValue::Sparse(b)) => self.span("dmspm", detail, |_| {
                let (t, _) = spkernel::dmspm_parallel(a, b, threads, None)?;
                Ok(MatValue::Dense(t))
            }),
            (MatValue::Dense(a), MatValue::Dense(b)) => self.span("matmul", detail, |rt| {
                let kernel = rt.cfg.matmul_kernel;
                let (t, _) = matmul::multiply(kernel, a, b, rt.mem_elems(), None)?;
                Ok(MatValue::Dense(t))
            }),
        }
    }

    /// Non-zero count of a matrix value. For a deferred sparse source this
    /// is the catalog statistic (no I/O); anything else is forced and
    /// counted by streaming its tiles.
    pub(crate) fn mat_nnz(&mut self, m: &MatRepr) -> ExecResult<u64> {
        match m {
            MatRepr::Node(id) => {
                if let Node::SpMatSource { nnz, .. } = self.graph.node(*id) {
                    return Ok(*nnz);
                }
                // A forcing point like collect_matrix, so nnz() executes
                // the same physical plan (and records the same stats).
                self.force("nnz", *id, |rt, root| {
                    match rt.force_matrix_value(root)? {
                        MatValue::Sparse(s) => Ok(s.nnz()),
                        MatValue::Dense(d) => {
                            let n = count_dense_nnz(&d)?;
                            rt.ctx.governor().add_flops((d.rows() * d.cols()) as u64);
                            Ok(n)
                        }
                    }
                })
            }
            MatRepr::Vm { id, rows, cols } => {
                let n = rows * cols;
                let mut count = 0u64;
                for i in 0..n {
                    if self.heap.get(*id, i) != 0.0 {
                        count += 1;
                    }
                }
                self.ctx.governor().add_flops(n as u64);
                Ok(count)
            }
            MatRepr::Stored(sm) => {
                let n = count_dense_nnz(&sm.mat)?;
                self.ctx
                    .governor()
                    .add_flops((sm.mat.rows() * sm.mat.cols()) as u64);
                Ok(n)
            }
        }
    }

    /// Convert a matrix value to the sparse representation. Deferred
    /// engines defer the conversion as a `Sparsify` node; eager engines
    /// keep their dense representation (like base R, where sparsity lives
    /// in a library the eager engines do not have).
    pub(crate) fn mat_to_sparse(&mut self, m: &MatRepr) -> ExecResult<MatRepr> {
        match m {
            MatRepr::Node(id) => Ok(MatRepr::Node(self.graph.sparsify(*id)?)),
            other => {
                self.retain_mat(other);
                Ok(other.clone())
            }
        }
    }

    /// Convert a matrix value to the dense representation (`Densify` node
    /// under deferred engines; identity on the eager engines).
    pub(crate) fn mat_to_dense(&mut self, m: &MatRepr) -> ExecResult<MatRepr> {
        match m {
            MatRepr::Node(id) => Ok(MatRepr::Node(self.graph.densify(*id)?)),
            other => {
                self.retain_mat(other);
                Ok(other.clone())
            }
        }
    }

    // ================= reference counting (Plain R) =================

    /// Retain an eager value (R assignment aliases).
    pub(crate) fn retain(&mut self, v: &VecRepr) {
        if let VecRepr::Vm(id) = v {
            self.heap.retain(*id);
        }
    }

    /// Release an eager value (R GC of dead intermediates).
    pub(crate) fn release(&mut self, v: &VecRepr) {
        if let VecRepr::Vm(id) = v {
            self.heap.release(*id);
        }
    }

    /// Retain an eager matrix.
    pub(crate) fn retain_mat(&mut self, m: &MatRepr) {
        if let MatRepr::Vm { id, .. } = m {
            self.heap.retain(*id);
        }
    }

    /// Release an eager matrix.
    pub(crate) fn release_mat(&mut self, m: &MatRepr) {
        if let MatRepr::Vm { id, .. } = m {
            self.heap.release(*id);
        }
    }
}

/// The 0-based position of the 1-based R subscript `raw` in a vector of
/// `len` elements.
fn subscript(raw: f64, len: usize) -> ExecResult<usize> {
    let index = raw as i64;
    if index < 1 || index as usize > len {
        return Err(ExprError::IndexOutOfBounds { index, len }.into());
    }
    Ok(index as usize - 1)
}

/// In-place dense lower Cholesky over a row-major `n x n` buffer: the
/// in-memory engines' reference factorization (zeroes the strict upper
/// triangle). The in-memory path has no tile schedule, so a pivot failure
/// reports panel 0 with the global pivot index.
fn dense_chol_inplace(a: &mut [f64], n: usize) -> ExecResult<()> {
    for j in 0..n {
        let mut d = a[j * n + j];
        for k in 0..j {
            d -= a[j * n + k] * a[j * n + k];
        }
        if !d.is_finite() || d <= 0.0 {
            return Err(ExecError::NotPositiveDefinite { tile: 0, pivot: j });
        }
        let d = d.sqrt();
        a[j * n + j] = d;
        for i in j + 1..n {
            let mut s = a[i * n + j];
            for k in 0..j {
                s -= a[i * n + k] * a[j * n + k];
            }
            a[i * n + j] = s / d;
        }
        for i in j + 1..n {
            a[j * n + i] = 0.0;
        }
    }
    Ok(())
}

/// Forward then backward substitution of `L · Lᵀ · X = B` in place over a
/// row-major `n x m` right-hand side.
fn dense_cholesky_substitute(l: &[f64], x: &mut [f64], n: usize, m: usize) {
    for r in 0..n {
        for k in 0..r {
            let lrk = l[r * n + k];
            for c in 0..m {
                x[r * m + c] -= lrk * x[k * m + c];
            }
        }
        for c in 0..m {
            x[r * m + c] /= l[r * n + r];
        }
    }
    for r in (0..n).rev() {
        for k in r + 1..n {
            let lkr = l[k * n + r];
            for c in 0..m {
                x[r * m + c] -= lkr * x[k * m + c];
            }
        }
        for c in 0..m {
            x[r * m + c] /= l[r * n + r];
        }
    }
}

/// Count the non-zeros of a stored dense matrix by streaming its tiles
/// (in-bounds cells only; boundary padding is ignored).
fn count_dense_nnz(m: &DenseMatrix) -> ExecResult<u64> {
    let mut count = 0u64;
    m.for_each(|_, _, v| {
        if v != 0.0 {
            count += 1;
        }
    })?;
    Ok(count)
}
