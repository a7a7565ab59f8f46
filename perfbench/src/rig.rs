//! Building one engine over one device, binding a workload's inputs,
//! and running its script with counters bracketed around the run.
//!
//! Everything goes through public APIs: the pool is built with
//! `BufferPool::with_tracer` over the device (optionally wrapped in the
//! benchmark's [`TimedDevice`]), handed to `StorageCtx::from_pool`, and
//! driven by an `Interpreter` over `Session::with_ctx`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use riot::array::StorageCtx;
use riot::core::QueryProfile;
use riot::storage::{
    BlockDevice, BufferPool, FileBlockDevice, MemBlockDevice, PoolConfig, ResourceLimits,
};
use riot::trace::Tracer;
use riot::{EngineConfig, EngineKind, Interpreter, IoSnapshot, PoolStats, Session};

use crate::device::{DeviceClock, DeviceTimes, TimedDevice};
use crate::workloads::{Device, Input, Spec, BLOCK_SIZE};

/// Directory (relative to the working directory) holding the backing
/// files of `FileBlockDevice` runs while they exist.
pub const SCRATCH_DIR: &str = ".perfbench_tmp";

/// How to build one rig.
#[derive(Debug, Clone, Copy)]
pub struct RigConfig {
    /// Engine to run the script under.
    pub engine: EngineKind,
    /// Wrap the device in a [`TimedDevice`].
    pub timed_device: bool,
    /// Give the pool a tracer with this ring capacity (else the default).
    pub trace_capacity: Option<usize>,
    /// Engage the query governor with `ResourceLimits::none()`.
    pub governed: bool,
}

impl RigConfig {
    /// The plain RIOT configuration the timed runs use.
    pub fn plain() -> Self {
        RigConfig {
            engine: EngineKind::Riot,
            timed_device: false,
            trace_capacity: None,
            governed: false,
        }
    }
}

/// A device file removed when the rig is dropped.
struct ScratchFile(PathBuf);

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// An interpreter with its inputs bound and the pool emptied.
pub struct Rig {
    /// The interpreter (owns the session, pool and device).
    pub interp: Interpreter,
    /// The timing device's clock, when the device is wrapped.
    clock: Option<Arc<DeviceClock>>,
    // Declared last so the file outlives the pool that writes it.
    _file: Option<ScratchFile>,
}

fn device(kind: Device) -> Result<(Box<dyn BlockDevice>, Option<ScratchFile>), String> {
    match kind {
        Device::Mem => Ok((Box::new(MemBlockDevice::new(BLOCK_SIZE)), None)),
        Device::File => {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let dir = Path::new(SCRATCH_DIR);
            std::fs::create_dir_all(dir).map_err(|e| format!("{SCRATCH_DIR}: {e}"))?;
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("{}-{n}.blk", std::process::id()));
            let file = ScratchFile(path.clone());
            let dev = FileBlockDevice::create(&path, BLOCK_SIZE).map_err(|e| e.to_string())?;
            Ok((Box::new(dev), Some(file)))
        }
    }
}

/// Build the storage context and session for `spec`, bind `inputs`, and
/// empty the pool so the script starts cold. This is what `setup_s` times.
pub fn setup(spec: &Spec, inputs: &[Input], rc: RigConfig) -> Result<Rig, String> {
    let (dev, file) = device(spec.device)?;
    let (dev, clock): (Box<dyn BlockDevice>, _) = if rc.timed_device {
        let (timed, clock) = TimedDevice::new(dev);
        (Box::new(timed), Some(clock))
    } else {
        (dev, None)
    };
    let tracer = Arc::new(
        rc.trace_capacity
            .map_or_else(Tracer::new, Tracer::with_capacity),
    );
    let pool_cfg = PoolConfig {
        frames: spec.frames,
        prefetch_depth: spec.prefetch,
        ..PoolConfig::default()
    };
    let ctx = StorageCtx::from_pool(BufferPool::with_tracer(dev, pool_cfg, 1, tracer));
    let mut cfg = EngineConfig::new(rc.engine);
    cfg.block_size = BLOCK_SIZE;
    cfg.mem_blocks = spec.frames;
    cfg.threads = spec.threads;
    cfg.prefetch_depth = spec.prefetch;
    let session = Session::with_ctx(cfg, ctx);
    if rc.governed {
        session.set_limits(ResourceLimits::none());
    }
    let mut interp = Interpreter::with_session(session);
    for input in inputs {
        let r = match input {
            Input::Scalar(name, v) => {
                interp.bind_scalar(name, *v);
                Ok(())
            }
            Input::Vector(name, v) => interp.bind_vector(name, v.len(), |i| v[i]),
            Input::Matrix(name, rows, cols, v) => {
                interp.bind_matrix(name, *rows, *cols, |i, j| v[i * cols + j])
            }
            Input::Sparse(name, rows, cols, t) => interp.bind_sparse(name, *rows, *cols, t),
        };
        r.map_err(|e| format!("binding {}: {e}", spec.name))?;
    }
    interp
        .session()
        .drop_caches()
        .map_err(|e| format!("dropping caches: {e}"))?;
    Ok(Rig {
        interp,
        clock,
        _file: file,
    })
}

/// What one script run printed and cost.
pub struct Measured {
    /// Everything the script printed.
    pub output: String,
    /// Counted I/O during the script.
    pub io: IoSnapshot,
    /// Scalar operations during the script.
    pub flops: u64,
    /// Pool counter delta during the script.
    pub pool: PoolStats,
    /// Wall seconds of `Interpreter::run`.
    pub wall_s: f64,
    /// Device blocks allocated by the end of the run.
    pub blocks: u64,
    /// The timing device's delta, when the device is wrapped.
    pub device: Option<DeviceTimes>,
    /// The span tree, for a profiled run.
    pub profile: Option<QueryProfile>,
}

/// Run `script` on `rig`, inside `Session::profile` when `profiled`.
pub fn run(rig: &mut Rig, script: &str, profiled: bool) -> Result<Measured, String> {
    let session = rig.interp.session().clone();
    let io0 = session.io_snapshot();
    let ops0 = session.cpu_ops();
    let pool0 = session.pool_stats();
    let dev0 = rig.clock.as_ref().map(|c| c.snapshot());
    let interp = &mut rig.interp;
    let mut timed = || {
        let t0 = Instant::now();
        let out = interp.run(script);
        (out, t0.elapsed().as_secs_f64())
    };
    let ((out, wall_s), profile) = if profiled {
        let (r, p) = session.profile(timed);
        (r, Some(p))
    } else {
        (timed(), None)
    };
    let output = out.map_err(|e| format!("script failed: {e}"))?;
    Ok(Measured {
        output,
        io: session.io_snapshot() - io0,
        flops: session.cpu_ops() - ops0,
        pool: session.pool_stats().delta(&pool0),
        wall_s,
        blocks: session.storage_ctx().pool().device().num_blocks(),
        device: rig
            .clock
            .as_ref()
            .zip(dev0)
            .map(|(c, d0)| c.snapshot() - d0),
        profile,
    })
}
