//! The benchmark's timing device: a [`BlockDevice`] wrapper that clocks
//! every transfer it forwards and counts the successful ones on its own.
//!
//! It delegates [`BlockDevice::stats`] (and every capability flag) to the
//! wrapped device, so the pool above it sees exactly the counters and the
//! prefetch sizing of the bare device: the wrapper may change how long a
//! run takes, never what it reads, writes or prints (the `neutral_device`
//! test pins this). Its own counts are an independent check on the
//! engine's [`riot::IoSnapshot`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use riot::storage::{BlockDevice, BlockId, IoStats, Result};

/// Time and count spent inside the wrapped device, summed over every
/// thread that called it (demand misses and prefetch workers alike).
#[derive(Debug, Default)]
pub struct DeviceClock {
    reads: AtomicU64,
    writes: AtomicU64,
    read_ns: AtomicU64,
    write_ns: AtomicU64,
}

/// A snapshot of a [`DeviceClock`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceTimes {
    /// Successful block reads.
    pub reads: u64,
    /// Successful block writes.
    pub writes: u64,
    /// Nanoseconds spent in `read_block`.
    pub read_ns: u64,
    /// Nanoseconds spent in `write_block`.
    pub write_ns: u64,
}

impl DeviceClock {
    /// The counters so far.
    pub fn snapshot(&self) -> DeviceTimes {
        DeviceTimes {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            read_ns: self.read_ns.load(Ordering::Relaxed),
            write_ns: self.write_ns.load(Ordering::Relaxed),
        }
    }
}

impl std::ops::Sub for DeviceTimes {
    type Output = DeviceTimes;
    fn sub(self, earlier: DeviceTimes) -> DeviceTimes {
        DeviceTimes {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            read_ns: self.read_ns - earlier.read_ns,
            write_ns: self.write_ns - earlier.write_ns,
        }
    }
}

/// Wraps `inner`, recording into a shared [`DeviceClock`].
pub struct TimedDevice<D> {
    inner: D,
    clock: Arc<DeviceClock>,
}

impl<D: BlockDevice> TimedDevice<D> {
    /// Wrap `inner`; read the clock through the returned handle.
    pub fn new(inner: D) -> (Self, Arc<DeviceClock>) {
        let clock = Arc::new(DeviceClock::default());
        let dev = TimedDevice {
            inner,
            clock: Arc::clone(&clock),
        };
        (dev, clock)
    }
}

fn timed<T>(count: &AtomicU64, ns: &AtomicU64, f: impl FnOnce() -> Result<T>) -> Result<T> {
    let t0 = Instant::now();
    let r = f();
    ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    if r.is_ok() {
        count.fetch_add(1, Ordering::Relaxed);
    }
    r
}

impl<D: BlockDevice> BlockDevice for TimedDevice<D> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }
    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<()> {
        let c = &self.clock;
        timed(&c.reads, &c.read_ns, || self.inner.read_block(id, buf))
    }
    fn write_block(&self, id: BlockId, buf: &[u8]) -> Result<()> {
        let c = &self.clock;
        timed(&c.writes, &c.write_ns, || self.inner.write_block(id, buf))
    }
    fn allocate(&self, n: u64) -> Result<BlockId> {
        self.inner.allocate(n)
    }
    fn free(&self, start: BlockId, n: u64) -> Result<()> {
        self.inner.free(start, n)
    }
    fn stats(&self) -> Arc<IoStats> {
        self.inner.stats()
    }
    fn concurrent_io(&self) -> bool {
        self.inner.concurrent_io()
    }
    fn persistent(&self) -> bool {
        self.inner.persistent()
    }
    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
}
