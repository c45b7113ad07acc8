//! Span-based tracing with bounded buffers.
//!
//! A [`Span`] is a guard: created at a phase boundary with
//! [`Span::enter`], it records `(name, start, duration, parent,
//! fields)` when dropped. Finished spans land in two places:
//!
//! * a **global striped ring** ([`recent`]): a fixed pool of
//!   mutex-striped ring buffers shared by all threads, so
//!   `GET /debug/trace` can show the most recent spans of the whole
//!   process without per-thread registration and with hard-bounded
//!   memory;
//! * the current **[`TraceSink`]**, when one is active: a per-request
//!   collector, so one request's own span tree can be assembled without
//!   scanning the global rings.
//!
//! The trace context — trace id, parent span id, sink — lives in a
//! thread-local and crosses thread boundaries only explicitly:
//! fan-out primitives capture [`current_ctx`] and wrap each job in
//! [`with_ctx`] (as `distvliw_core::par::par_map` does), so spans
//! recorded on a pool thread still attach to the requesting trace.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Per-stripe ring capacity of the global pool.
const RING_CAPACITY: usize = 4096;
/// Stripe count of the global pool (threads hash onto stripes).
const RING_STRIPES: usize = 16;
/// Records a [`TraceSink`] accepts before counting drops instead.
const SINK_CAPACITY: usize = 65_536;

/// One field attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An integer field.
    U64(u64),
    /// A string field.
    Str(String),
}

/// A finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique (process-wide) span id.
    pub id: u64,
    /// The enclosing span's id (0 at the root).
    pub parent: u64,
    /// The trace this span belongs to (0 outside any trace).
    pub trace: u64,
    /// Phase name.
    pub name: &'static str,
    /// Start time in microseconds since process start.
    pub start_us: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// `key=val` fields, in attachment order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl SpanRecord {
    /// The span's end time in microseconds since process start.
    #[must_use]
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_ns / 1_000
    }
}

/// A bounded ring of finished spans: pushing past capacity drops the
/// oldest record.
pub struct SpanRing {
    inner: Mutex<RingInner>,
}

struct RingInner {
    capacity: usize,
    buf: std::collections::VecDeque<SpanRecord>,
}

impl SpanRing {
    /// A ring holding at most `capacity` records.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        SpanRing {
            inner: Mutex::new(RingInner {
                capacity: capacity.max(1),
                buf: std::collections::VecDeque::new(),
            }),
        }
    }

    /// Appends `record`, evicting the oldest past capacity.
    pub fn push(&self, record: SpanRecord) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if inner.buf.len() >= inner.capacity {
            inner.buf.pop_front();
        }
        inner.buf.push_back(record);
    }

    /// The resident records, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .buf
            .iter()
            .cloned()
            .collect()
    }
}

fn pool() -> &'static Vec<SpanRing> {
    static POOL: OnceLock<Vec<SpanRing>> = OnceLock::new();
    POOL.get_or_init(|| {
        (0..RING_STRIPES)
            .map(|_| SpanRing::with_capacity(RING_CAPACITY))
            .collect()
    })
}

/// The process time anchor `start_us` is measured from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Collects one request's spans so its tree can be returned inline
/// (`?trace=1`) and its per-phase totals logged, without scanning the
/// global rings.
pub struct TraceSink {
    trace: u64,
    records: Mutex<Vec<SpanRecord>>,
    dropped: AtomicU64,
}

impl TraceSink {
    /// A fresh sink with a new process-unique trace id.
    #[must_use]
    pub fn new() -> Arc<TraceSink> {
        Arc::new(TraceSink {
            trace: next_id(),
            records: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        })
    }

    /// The sink's trace id.
    #[must_use]
    pub fn trace_id(&self) -> u64 {
        self.trace
    }

    fn push(&self, record: SpanRecord) {
        let mut records = self
            .records
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if records.len() >= SINK_CAPACITY {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            records.push(record);
        }
    }

    /// The collected spans (in completion order) and how many were
    /// dropped past capacity.
    #[must_use]
    pub fn take(&self) -> (Vec<SpanRecord>, u64) {
        let records = std::mem::take(
            &mut *self
                .records
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        (records, self.dropped.load(Ordering::Relaxed))
    }
}

/// The propagable trace context: which trace the current thread is
/// recording into, the current parent span, and the request sink.
#[derive(Clone, Default)]
pub struct TraceCtx {
    trace: u64,
    parent: u64,
    sink: Option<Arc<TraceSink>>,
}

impl TraceCtx {
    /// A context rooted at `sink` (parent 0).
    #[must_use]
    pub fn for_sink(sink: &Arc<TraceSink>) -> TraceCtx {
        TraceCtx {
            trace: sink.trace_id(),
            parent: 0,
            sink: Some(sink.clone()),
        }
    }
}

struct ThreadState {
    ctx: TraceCtx,
    stripe: usize,
}

thread_local! {
    static STATE: std::cell::RefCell<ThreadState> = std::cell::RefCell::new(ThreadState {
        ctx: TraceCtx::default(),
        stripe: next_id() as usize % RING_STRIPES,
    });
}

/// The calling thread's current trace context (cheap clone) — capture
/// before fanning work out to other threads, then re-enter it there
/// with [`with_ctx`].
#[must_use]
pub fn current_ctx() -> TraceCtx {
    STATE.with(|s| s.borrow().ctx.clone())
}

/// Runs `f` with `ctx` installed as the thread's trace context,
/// restoring the previous context afterwards.
pub fn with_ctx<R>(ctx: TraceCtx, f: impl FnOnce() -> R) -> R {
    let prev = STATE.with(|s| std::mem::replace(&mut s.borrow_mut().ctx, ctx));
    struct Restore(Option<TraceCtx>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(prev) = self.0.take() {
                STATE.with(|s| s.borrow_mut().ctx = prev);
            }
        }
    }
    let _restore = Restore(Some(prev));
    f()
}

/// An in-progress span; finishes (and records itself) on drop.
pub struct Span {
    name: &'static str,
    id: u64,
    parent: u64,
    start: Instant,
    start_us: u64,
    fields: Vec<(&'static str, FieldValue)>,
}

impl Span {
    /// Opens a span named `name` under the thread's current parent and
    /// makes itself the parent of spans opened before it drops.
    #[must_use]
    pub fn enter(name: &'static str) -> Span {
        let start = Instant::now();
        let start_us = start.duration_since(epoch()).as_micros() as u64;
        let id = next_id();
        let parent = STATE.with(|s| {
            let mut s = s.borrow_mut();
            std::mem::replace(&mut s.ctx.parent, id)
        });
        Span {
            name,
            id,
            parent,
            start,
            start_us,
            fields: Vec::new(),
        }
    }

    /// Attaches an integer field.
    pub fn field_u64(&mut self, key: &'static str, value: u64) {
        self.fields.push((key, FieldValue::U64(value)));
    }

    /// Attaches a string field.
    pub fn field_str(&mut self, key: &'static str, value: impl Into<String>) {
        self.fields.push((key, FieldValue::Str(value.into())));
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_ns = self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let (trace, sink, stripe) = STATE.with(|s| {
            let mut s = s.borrow_mut();
            // Restore this span's parent as the current one.
            s.ctx.parent = self.parent;
            (s.ctx.trace, s.ctx.sink.clone(), s.stripe)
        });
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            trace,
            name: self.name,
            start_us: self.start_us,
            dur_ns,
            fields: std::mem::take(&mut self.fields),
        };
        if let Some(sink) = sink {
            sink.push(record.clone());
        }
        pool()[stripe].push(record);
    }
}

/// Records an already-measured phase (for phases whose timing is taken
/// before a sink exists, like request parsing, or measured around a
/// blocking wait): attaches to the thread's current context like a
/// dropped [`Span`], but never changes the current parent.
pub fn record(
    name: &'static str,
    start: Instant,
    dur: Duration,
    fields: Vec<(&'static str, FieldValue)>,
) {
    let start_us = start
        .checked_duration_since(epoch())
        .unwrap_or_default()
        .as_micros() as u64;
    let (trace, parent, sink, stripe) = STATE.with(|s| {
        let s = s.borrow();
        (s.ctx.trace, s.ctx.parent, s.ctx.sink.clone(), s.stripe)
    });
    let record = SpanRecord {
        id: next_id(),
        parent,
        trace,
        name,
        start_us,
        dur_ns: dur.as_nanos().min(u128::from(u64::MAX)) as u64,
        fields,
    };
    if let Some(sink) = sink {
        sink.push(record.clone());
    }
    pool()[stripe].push(record);
}

/// The `n` most recently finished spans across all threads, oldest
/// first. Bounded by the global ring pool's capacity.
#[must_use]
pub fn recent(n: usize) -> Vec<SpanRecord> {
    let mut all: Vec<SpanRecord> = pool().iter().flat_map(SpanRing::snapshot).collect();
    all.sort_by_key(|r| (r.end_us(), r.id));
    let skip = all.len().saturating_sub(n);
    all.split_off(skip)
}

/// Touches the process time anchor so `start_us` is measured from
/// program start rather than first span; call early in `main`.
pub fn init() {
    let _ = epoch();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_parents() {
        let sink = TraceSink::new();
        with_ctx(TraceCtx::for_sink(&sink), || {
            let outer = Span::enter("outer");
            {
                let mut inner = Span::enter("inner");
                inner.field_u64("k", 7);
            }
            drop(outer);
        });
        let (records, dropped) = sink.take();
        assert_eq!(dropped, 0);
        assert_eq!(records.len(), 2);
        // Inner finishes first.
        assert_eq!(records[0].name, "inner");
        assert_eq!(records[1].name, "outer");
        assert_eq!(records[0].parent, records[1].id);
        assert_eq!(records[1].parent, 0);
        assert_eq!(records[0].trace, sink.trace_id());
        assert_eq!(records[0].fields, vec![("k", FieldValue::U64(7))]);
    }

    #[test]
    fn ctx_crosses_threads_explicitly() {
        let sink = TraceSink::new();
        let ctx = TraceCtx::for_sink(&sink);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let ctx = ctx.clone();
                scope.spawn(move || {
                    with_ctx(ctx, || {
                        let _span = Span::enter("worker");
                    });
                });
            }
        });
        let (records, _) = sink.take();
        assert_eq!(records.len(), 4);
        assert!(records.iter().all(|r| r.trace == sink.trace_id()));
        // Without with_ctx, a thread records trace 0 and misses the sink.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _span = Span::enter("untraced");
            });
        });
        assert!(sink.take().0.is_empty());
    }

    #[test]
    fn ring_drops_oldest_on_wrap() {
        let ring = SpanRing::with_capacity(3);
        for i in 0..5u64 {
            ring.push(SpanRecord {
                id: i,
                parent: 0,
                trace: 0,
                name: "x",
                start_us: i,
                dur_ns: 0,
                fields: Vec::new(),
            });
        }
        let ids: Vec<u64> = ring.snapshot().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![2, 3, 4], "oldest two evicted, order kept");
    }

    #[test]
    fn recent_returns_latest_in_end_order() {
        // These land in the global pool; just assert our own spans
        // appear and are end-ordered.
        {
            let _a = Span::enter("recent_test_a");
        }
        {
            let _b = Span::enter("recent_test_b");
        }
        let recent = recent(usize::MAX);
        let names: Vec<&str> = recent
            .iter()
            .map(|r| r.name)
            .filter(|n| n.starts_with("recent_test_"))
            .collect();
        let a = names.iter().rposition(|n| *n == "recent_test_a").unwrap();
        let b = names.iter().rposition(|n| *n == "recent_test_b").unwrap();
        assert!(a < b);
        let mut ends: Vec<u64> = recent.iter().map(SpanRecord::end_us).collect();
        let sorted = {
            let mut s = ends.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(std::mem::take(&mut ends), sorted);
    }
}
