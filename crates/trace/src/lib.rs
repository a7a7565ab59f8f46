//! # riot-trace
//!
//! Structured execution tracing for the RIOT reproduction: spans, typed
//! events, and monotonic timing into a lock-free bounded ring buffer.
//!
//! The paper's experimental method is DTrace-based I/O tracing (Section 2,
//! Figure 1); `riot-storage`'s counters already stand in for the *totals*,
//! and this crate adds the *timeline*: which kernel issued which I/O, when,
//! on which thread, attributed to which plan node. It is deliberately
//! storage-agnostic (zero dependencies — [`Metrics`] is plain `u64`s filled
//! in by the layer that owns the counters), so it sits below every other
//! crate in the workspace.
//!
//! ## Design
//!
//! * **One [`Tracer`] per buffer pool / engine**, shared as `Arc<Tracer>`
//!   by every layer (pool shards, device wrappers, kernels, optimizer).
//! * **Disabled by default, cheap when disabled**: every recording call
//!   starts with one `Relaxed` atomic load and returns; no clock read, no
//!   allocation, no ring traffic. The ring itself is allocated lazily on
//!   first [`Tracer::enable`], so the thousands of short-lived pools the
//!   test suite creates never pay for slots they'll never fill.
//! * **Never perturbs counted I/O**: the tracer only *records*; nothing in
//!   this crate reads or writes blocks, takes pool locks, or changes
//!   scheduling. Events that cannot fit are dropped (newest-first) and
//!   counted in [`Tracer::dropped`], never waited for.
//! * **Spans nest per thread** via a thread-local stack, so a profile can
//!   be reassembled into a per-plan-node tree from the flat event stream.
//!
//! ```
//! use riot_trace::{EventKind, Metrics, Tracer};
//!
//! let t = Tracer::new();
//! t.enable();
//! let tok = t.begin_span("matmul");
//! t.record(EventKind::PoolMiss { block: 7 });
//! t.end_span(tok, "A[4x4] %*% B[4x4]".into(), Metrics { flops: 128, ..Metrics::default() });
//! let events = t.drain();
//! assert_eq!(events.len(), 2);
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

mod ring;
use ring::Ring;

/// Default ring capacity (events), rounded to a power of two.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Storage-agnostic resource counters carried by a completed span.
///
/// The tracing layer itself never measures I/O — the instrumented layer
/// snapshots its own counters around the span and stores the delta here.
/// All fields are deltas over the span's lifetime (inclusive of nested
/// child spans; profile assembly subtracts children to get self-time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Block reads.
    pub reads: u64,
    /// Block writes.
    pub writes: u64,
    /// Sequential block reads (next-block-after-previous).
    pub seq_reads: u64,
    /// Sequential block writes.
    pub seq_writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Floating-point (or generic CPU) operations performed.
    pub flops: u64,
    /// Worker threads the operation fanned over (0 = not recorded).
    pub threads: u64,
    /// Buffer-pool pin requests served from resident frames.
    pub pool_hits: u64,
    /// Buffer-pool pin requests that loaded from the device.
    pub pool_misses: u64,
}

impl Metrics {
    /// Field-wise sum.
    pub fn plus(&self, o: &Metrics) -> Metrics {
        Metrics {
            reads: self.reads + o.reads,
            writes: self.writes + o.writes,
            seq_reads: self.seq_reads + o.seq_reads,
            seq_writes: self.seq_writes + o.seq_writes,
            bytes_read: self.bytes_read + o.bytes_read,
            bytes_written: self.bytes_written + o.bytes_written,
            flops: self.flops + o.flops,
            threads: self.threads.max(o.threads),
            pool_hits: self.pool_hits + o.pool_hits,
            pool_misses: self.pool_misses + o.pool_misses,
        }
    }

    /// Field-wise saturating difference (used to compute a node's self
    /// metrics as inclusive-minus-children).
    pub fn minus(&self, o: &Metrics) -> Metrics {
        Metrics {
            reads: self.reads.saturating_sub(o.reads),
            writes: self.writes.saturating_sub(o.writes),
            seq_reads: self.seq_reads.saturating_sub(o.seq_reads),
            seq_writes: self.seq_writes.saturating_sub(o.seq_writes),
            bytes_read: self.bytes_read.saturating_sub(o.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(o.bytes_written),
            flops: self.flops.saturating_sub(o.flops),
            threads: self.threads,
            pool_hits: self.pool_hits.saturating_sub(o.pool_hits),
            pool_misses: self.pool_misses.saturating_sub(o.pool_misses),
        }
    }

    /// Random (non-sequential) reads.
    pub fn rand_reads(&self) -> u64 {
        self.reads.saturating_sub(self.seq_reads)
    }

    /// Random (non-sequential) writes.
    pub fn rand_writes(&self) -> u64 {
        self.writes.saturating_sub(self.seq_writes)
    }

    /// Pool hit rate over the span, `0.0` when no pins happened.
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }
}

/// Payload of a completed span (one per `begin_span`/`end_span` pair).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanData {
    /// Unique id (per tracer, starting at 1).
    pub id: u64,
    /// Id of the span that was open on this thread at begin time (0 = root).
    pub parent: u64,
    /// Static taxonomy name (e.g. `"collect"`, `"matmul"`, `"spmm"`).
    pub name: &'static str,
    /// Free-form detail (rendered expression, shapes, kernel choice).
    pub detail: Box<str>,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Resource deltas over the span (inclusive of children).
    pub metrics: Metrics,
}

/// A typed trace event. Storage-layer variants carry only plain integers
/// so recording them never allocates on the instrumented hot path.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A completed span.
    Span(SpanData),
    /// Buffer-pool demand miss: the pinned block was not resident (for
    /// freshly allocated blocks the miss claims a frame without a device
    /// read; every other miss loads).
    PoolMiss {
        /// Block id.
        block: u64,
    },
    /// A frame's mapping was dropped so the frame could be reused.
    PoolEvict {
        /// Block id of the outgoing mapping.
        block: u64,
        /// Whether the eviction had to write the frame back first.
        dirty: bool,
    },
    /// A dirty frame was written back (eviction or flush).
    PoolWriteBack {
        /// Block id.
        block: u64,
    },
    /// A pin waited on another thread's in-flight load of the same block
    /// instead of issuing its own read (single-flight coalescing).
    CoalescedLoad {
        /// Block id.
        block: u64,
    },
    /// A background prefetch load was dispatched to the device.
    PrefetchIssued {
        /// Block id.
        block: u64,
    },
    /// A pin was served by a previously prefetched frame.
    PrefetchHit {
        /// Block id.
        block: u64,
    },
    /// A prefetched frame was recycled without ever being pinned.
    PrefetchWasted {
        /// Block id.
        block: u64,
    },
    /// A failed eviction write-back was absorbed by retrying the victim
    /// pass (pool-level containment, distinct from device-level retry).
    WritebackRetry {
        /// Block id of the victim that failed to write back.
        block: u64,
    },
    /// The retry device re-issued a failed read.
    RetryRead {
        /// Block id ([`NO_BLOCK`] for sync barriers).
        block: u64,
        /// 1-based attempt number that failed and is being retried.
        attempt: u32,
    },
    /// The retry device re-issued a failed write (or sync).
    RetryWrite {
        /// Block id ([`NO_BLOCK`] for sync barriers).
        block: u64,
        /// 1-based attempt number that failed and is being retried.
        attempt: u32,
    },
    /// An operation failed at least once and then succeeded on retry.
    RetryRecovered {
        /// Block id ([`NO_BLOCK`] for sync barriers).
        block: u64,
    },
    /// Transient retries were exhausted; the error surfaced to the caller.
    RetryGaveUp {
        /// Block id ([`NO_BLOCK`] for sync barriers).
        block: u64,
    },
    /// A block failed checksum validation (bit rot / torn write detected).
    Corruption {
        /// Logical block id.
        block: u64,
    },
    /// The optimizer committed to a plan for a forcing point.
    Plan {
        /// Rendered optimized plan root.
        detail: Box<str>,
    },
    /// One optimizer rewrite rule fired `count` times for this plan.
    Rewrite {
        /// Rule name (e.g. `"chains_reordered"`, `"sparse_densified"`).
        rule: &'static str,
        /// Times the rule fired.
        count: u64,
    },
}

/// Sentinel block id for events not tied to a block (e.g. sync barriers).
pub const NO_BLOCK: u64 = u64::MAX;

impl EventKind {
    /// Stable label for grouping/counting (also the chrome-trace name for
    /// instant events).
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Span(_) => "span",
            EventKind::PoolMiss { .. } => "pool_miss",
            EventKind::PoolEvict { .. } => "pool_evict",
            EventKind::PoolWriteBack { .. } => "pool_writeback",
            EventKind::CoalescedLoad { .. } => "coalesced_load",
            EventKind::PrefetchIssued { .. } => "prefetch_issued",
            EventKind::PrefetchHit { .. } => "prefetch_hit",
            EventKind::PrefetchWasted { .. } => "prefetch_wasted",
            EventKind::WritebackRetry { .. } => "writeback_retry",
            EventKind::RetryRead { .. } => "retry_read",
            EventKind::RetryWrite { .. } => "retry_write",
            EventKind::RetryRecovered { .. } => "retry_recovered",
            EventKind::RetryGaveUp { .. } => "retry_gave_up",
            EventKind::Corruption { .. } => "corruption",
            EventKind::Plan { .. } => "plan",
            EventKind::Rewrite { .. } => "rewrite",
        }
    }
}

/// One recorded event with timestamp and thread attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Nanoseconds since the tracer's origin (for spans: the start time).
    pub ts_ns: u64,
    /// Small dense per-process thread tag (not the OS tid).
    pub thread: u32,
    /// The typed payload.
    pub kind: EventKind,
}

/// Handle returned by [`Tracer::begin_span`]; pass it back to
/// [`Tracer::end_span`]. An inert token (tracing was disabled at begin
/// time) makes `end_span` a no-op.
#[must_use = "end_span(token, ..) records the span"]
#[derive(Debug)]
pub struct SpanToken {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl SpanToken {
    /// Whether this token will record anything on `end_span`.
    pub fn is_active(&self) -> bool {
        self.id != 0
    }
}

thread_local! {
    /// Stack of open span ids on this thread (parents for nesting).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Dense per-process thread tag, assigned on first use.
    static THREAD_TAG: u32 = NEXT_THREAD_TAG.fetch_add(1, Ordering::Relaxed);
}

static NEXT_THREAD_TAG: AtomicU32 = AtomicU32::new(1);

fn thread_tag() -> u32 {
    THREAD_TAG.with(|t| *t)
}

/// The trace recorder: an enable flag, a monotonic clock origin, and a
/// lazily allocated lock-free ring of [`Event`]s.
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    capacity: usize,
    ring: OnceLock<Ring<Event>>,
    dropped: AtomicU64,
    next_span: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A disabled tracer with the default ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A disabled tracer whose ring will hold `capacity` events (rounded
    /// up to a power of two). The ring is allocated on first `enable`.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            capacity,
            ring: OnceLock::new(),
            dropped: AtomicU64::new(0),
            next_span: AtomicU64::new(1),
        }
    }

    /// Start recording (allocates the ring on first call).
    pub fn enable(&self) {
        self.ring.get_or_init(|| Ring::new(self.capacity));
        self.enabled.store(true, Ordering::Release);
    }

    /// Stop recording. Already-buffered events stay until drained.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Whether recording is on. This is the whole cost of the disabled
    /// path: one `Relaxed` load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since this tracer's creation (monotonic).
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a typed event (no-op when disabled).
    #[inline]
    pub fn record(&self, kind: EventKind) {
        if !self.is_enabled() {
            return;
        }
        self.push(Event {
            ts_ns: self.now_ns(),
            thread: thread_tag(),
            kind,
        });
    }

    /// Open a span named `name`, nested under the span currently open on
    /// this thread. Returns an inert token when disabled.
    pub fn begin_span(&self, name: &'static str) -> SpanToken {
        if !self.is_enabled() {
            return SpanToken {
                id: 0,
                parent: 0,
                name,
                start_ns: 0,
            };
        }
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|s| {
            let mut st = s.borrow_mut();
            let parent = st.last().copied().unwrap_or(0);
            st.push(id);
            parent
        });
        SpanToken {
            id,
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Close a span, recording its detail string and resource metrics.
    /// Inert tokens are ignored. The event is recorded even if tracing was
    /// disabled between begin and end, so a profile stop never truncates
    /// an in-flight span.
    pub fn end_span(&self, token: SpanToken, detail: String, metrics: Metrics) {
        if token.id == 0 {
            return;
        }
        SPAN_STACK.with(|s| {
            let mut st = s.borrow_mut();
            if st.last() == Some(&token.id) {
                st.pop();
            } else {
                // Out-of-order end (shouldn't happen with guard discipline,
                // but never corrupt the stack over it).
                st.retain(|&x| x != token.id);
            }
        });
        let dur_ns = self.now_ns().saturating_sub(token.start_ns);
        self.push(Event {
            ts_ns: token.start_ns,
            thread: thread_tag(),
            kind: EventKind::Span(SpanData {
                id: token.id,
                parent: token.parent,
                name: token.name,
                detail: detail.into_boxed_str(),
                start_ns: token.start_ns,
                dur_ns,
                metrics,
            }),
        });
    }

    fn push(&self, event: Event) {
        let Some(ring) = self.ring.get() else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if ring.push(event).is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drain all buffered events in FIFO order.
    pub fn drain(&self) -> Vec<Event> {
        let Some(ring) = self.ring.get() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        while let Some(e) = ring.pop() {
            out.push(e);
        }
        out
    }

    /// Events lost to a full (or not-yet-allocated) ring since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        t.record(EventKind::PoolMiss { block: 1 });
        let tok = t.begin_span("x");
        assert!(!tok.is_active());
        t.end_span(tok, String::new(), Metrics::default());
        assert!(t.drain().is_empty());
        // record() while disabled is a silent no-op, not a drop.
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn events_carry_timestamps_and_threads() {
        let t = Tracer::new();
        t.enable();
        t.record(EventKind::PoolMiss { block: 3 });
        t.record(EventKind::PoolEvict {
            block: 3,
            dirty: true,
        });
        let ev = t.drain();
        assert_eq!(ev.len(), 2);
        assert!(ev[0].ts_ns <= ev[1].ts_ns);
        assert_eq!(ev[0].thread, ev[1].thread);
        assert_eq!(ev[0].kind, EventKind::PoolMiss { block: 3 });
    }

    #[test]
    fn spans_nest_via_thread_stack() {
        let t = Tracer::new();
        t.enable();
        let outer = t.begin_span("outer");
        let inner = t.begin_span("inner");
        t.end_span(
            inner,
            "i".into(),
            Metrics {
                flops: 5,
                ..Metrics::default()
            },
        );
        t.end_span(outer, "o".into(), Metrics::default());
        let ev = t.drain();
        assert_eq!(ev.len(), 2);
        let spans: Vec<&SpanData> = ev
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Span(s) => Some(s),
                _ => None,
            })
            .collect();
        // Children end (and are recorded) before parents.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[0].start_ns >= spans[1].start_ns);
        assert_eq!(spans[0].metrics.flops, 5);
    }

    #[test]
    fn full_ring_counts_drops_and_keeps_oldest() {
        let t = Tracer::with_capacity(4);
        t.enable();
        for b in 0..10u64 {
            t.record(EventKind::PoolMiss { block: b });
        }
        assert_eq!(t.dropped(), 6);
        let ev = t.drain();
        assert_eq!(ev.len(), 4);
        assert_eq!(ev[0].kind, EventKind::PoolMiss { block: 0 });
    }

    #[test]
    fn enable_disable_cycles() {
        let t = Tracer::new();
        t.record(EventKind::PoolMiss { block: 0 });
        t.enable();
        t.record(EventKind::PoolMiss { block: 1 });
        t.disable();
        t.record(EventKind::PoolMiss { block: 2 });
        let ev = t.drain();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].kind, EventKind::PoolMiss { block: 1 });
    }

    #[test]
    fn concurrent_recording_is_lossless_under_capacity() {
        let t = Arc::new(Tracer::new());
        t.enable();
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        t.record(EventKind::PoolMiss {
                            block: w * 1000 + i,
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.drain().len(), 4000);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn metrics_arithmetic() {
        let a = Metrics {
            reads: 10,
            seq_reads: 6,
            pool_hits: 9,
            pool_misses: 1,
            ..Metrics::default()
        };
        let b = Metrics {
            reads: 4,
            seq_reads: 2,
            ..Metrics::default()
        };
        assert_eq!(a.plus(&b).reads, 14);
        assert_eq!(a.minus(&b).reads, 6);
        assert_eq!(b.minus(&a).reads, 0, "saturating");
        assert_eq!(a.rand_reads(), 4);
        assert!((a.pool_hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(Metrics::default().pool_hit_rate(), 0.0);
    }

    #[test]
    fn span_ids_are_unique_and_monotonic() {
        let t = Tracer::new();
        t.enable();
        let a = t.begin_span("a");
        t.end_span(a, String::new(), Metrics::default());
        let b = t.begin_span("b");
        t.end_span(b, String::new(), Metrics::default());
        let ids: Vec<u64> = t
            .drain()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Span(s) => Some(s.id),
                _ => None,
            })
            .collect();
        assert!(ids[0] < ids[1]);
    }

    #[test]
    fn event_labels_are_stable() {
        assert_eq!(EventKind::PoolMiss { block: 0 }.label(), "pool_miss");
        assert_eq!(
            EventKind::Corruption { block: NO_BLOCK }.label(),
            "corruption"
        );
        assert_eq!(
            EventKind::Rewrite {
                rule: "folds",
                count: 1
            }
            .label(),
            "rewrite"
        );
    }
}
