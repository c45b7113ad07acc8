//! The event-driven connection layer: a poll(2) readiness loop,
//! per-connection state machines, and a fixed worker pool behind a
//! bounded request queue.
//!
//! This is stage 1 of the ROADMAP's scale-out item. The previous
//! connection layer spawned one thread per accepted socket and kept an
//! unbounded handler vector, so a connection flood grew the process
//! until it died. Here the thread budget is fixed up front —
//! **one** loop thread owning every socket plus `workers` compute
//! threads — and admission is explicit:
//!
//! * connections beyond `max_conns` are answered `503` with
//!   `retry-after` at accept time and closed;
//! * parsed requests land in a bounded [`mpsc::sync_channel`]; when it
//!   is full the loop answers `503 retry-after` immediately instead of
//!   queueing without bound (the connection stays open so the client
//!   can back off and retry).
//!
//! Each connection walks an explicit state machine:
//!
//! ```text
//!           readable              complete request
//!   Idle ───────────▶ Reading ───────────────────▶ Computing
//!    ▲                   │ parse error → 4xx/501        │ worker finishes
//!    │                   ▼                              ▼
//!    └────────────── Writing ◀──────────────────────────┘
//!      response flushed (or close)
//! ```
//!
//! While a connection is `Computing` the loop polls no events for it —
//! pipelined bytes wait in the kernel buffer — so one slow request
//! cannot make the loop busy-spin. Workers hand finished responses back
//! through a completion list and wake the loop via a loopback
//! socketpair (std has no pipes). Responses are rendered with the same
//! [`render_response`] bytes the threaded layer wrote, so warm
//! responses stay byte-identical across the migration.
//!
//! Timeout semantics are preserved from the threaded layer: idle
//! keep-alive connections are reaped after 60 s, a connection stalling
//! mid-request (or mid-response) is closed after 30 s, and shutdown
//! drains — in-flight computations finish and their responses are
//! written before the loop exits.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::endpoints;
use crate::http::{parse_request, render_response, Parse, Request, Response};
use crate::json::Json;

/// Idle keep-alive connections are reaped after this long.
const IDLE_LIMIT: Duration = Duration::from_secs(60);
/// A connection stalled mid-request or mid-response is closed after
/// this long.
const REQUEST_WINDOW: Duration = Duration::from_secs(30);
/// Upper bound on one poll(2) sleep, so an externally-set shutdown
/// flag is noticed within one tick (the threaded layer's read-timeout
/// tick gave the same guarantee).
const MAX_TICK: Duration = Duration::from_millis(500);
/// Consecutive hard accept failures before the loop gives up instead
/// of retrying every `ACCEPT_BACKOFF` forever (a permanently broken
/// listener — e.g. closed out from under us — used to spin the accept
/// loop for the life of the process).
const ACCEPT_FAILURE_LIMIT: u32 = 25;
/// Backoff after one transient accept failure (EMFILE under fd
/// exhaustion recovers; the backoff keeps the loop off 100% CPU).
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);
/// `retry-after` seconds advertised on backpressure 503s.
const RETRY_AFTER_SECS: u32 = 1;

/// Sizing knobs for the connection layer (`serve --workers
/// --max-conns --queue-depth`).
#[derive(Debug, Clone, Copy)]
pub struct EventConfig {
    /// Compute threads pulling parsed requests from the queue.
    pub workers: usize,
    /// Maximum concurrently open connections; excess accepts are
    /// answered 503 and closed.
    pub max_conns: usize,
    /// Bound on parsed requests waiting for a worker; overflow is
    /// answered 503 immediately.
    pub queue_depth: usize,
}

impl Default for EventConfig {
    fn default() -> Self {
        EventConfig {
            workers: std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
            max_conns: 4096,
            queue_depth: 256,
        }
    }
}

/// poll(2) via a minimal hand-rolled FFI declaration — libc is already
/// linked into every std binary, so this adds no dependency. The one
/// `unsafe` block in the workspace lives here.
#[cfg(unix)]
mod sys {
    #![allow(unsafe_code)]

    use std::io;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    /// `struct pollfd` (layout fixed by POSIX).
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    #[cfg(target_os = "linux")]
    type NFds = core::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NFds = core::ffi::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: core::ffi::c_int) -> core::ffi::c_int;
    }

    /// Blocks until an fd is ready or `timeout_ms` elapses. EINTR is
    /// reported as zero ready fds (the loop re-evaluates and re-polls).
    pub fn poll_wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `PollFd` is layout-compatible with `struct pollfd`,
        // the slice stays alive across the call, and the kernel writes
        // only the `revents` fields within its bounds.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(n as usize)
    }

    pub fn raw_fd<T: std::os::unix::io::AsRawFd>(t: &T) -> i32 {
        t.as_raw_fd()
    }
}

/// Degraded fallback where poll(2) is unavailable: a short sleep with
/// every registered fd marked ready. Spurious readiness is safe — all
/// sockets are non-blocking, so a not-actually-ready fd just returns
/// `WouldBlock` — it only costs wasted syscalls, and non-unix targets
/// are not a serving platform for this workspace anyway.
#[cfg(not(unix))]
mod sys {
    use std::io;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub fn poll_wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        let ms = if timeout_ms < 0 { 5 } else { timeout_ms.min(5) };
        std::thread::sleep(std::time::Duration::from_millis(ms as u64));
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
        Ok(fds.len())
    }

    pub fn raw_fd<T>(_t: &T) -> i32 {
        0
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One parsed request in flight to (or inside) the worker pool.
struct Job {
    token: usize,
    generation: u64,
    request: Request,
    /// Close-after-response decision, captured at parse time.
    close: bool,
    parse_start: Instant,
    parse_dur: Duration,
}

/// One finished response on its way back to the loop.
struct Done {
    token: usize,
    generation: u64,
    response: Response,
    close: bool,
}

/// Connection FSM states. `Computing` connections are absent from the
/// poll set entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Between requests, waiting for first bytes (reaped after
    /// [`IDLE_LIMIT`]).
    Idle,
    /// Mid-request: bytes buffered, frame incomplete.
    Reading,
    /// Request handed to the worker pool; no events polled.
    Computing,
    /// Response bytes pending in the out buffer.
    Writing,
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// Unparsed request bytes (bounded by the framing caps: one
    /// request line + headers + body, plus at most one read chunk).
    buf: Vec<u8>,
    out: Vec<u8>,
    out_pos: usize,
    close_after_write: bool,
    /// When the current state was entered (idle reap / stall close).
    since: Instant,
    /// First-byte time of the request currently being read.
    read_started: Option<Instant>,
}

/// Slab slot: `generation` increments on every free, so completions
/// for a connection that died mid-compute can never be written to a
/// reused slot.
struct Slot {
    generation: u64,
    conn: Option<Conn>,
}

/// What to do with a connection after handling one readiness event.
enum After {
    Keep,
    Close,
}

/// Outcome of one write-flush attempt inside [`Loop::pump`].
enum FlushStep {
    /// The socket's send buffer is full; wait for `POLLOUT`.
    Blocked,
    Close,
    /// Out buffer fully flushed; the connection was recycled to
    /// `Idle` and buffered pipelined bytes may be dispatchable.
    Done,
}

/// Outcome of one dispatch attempt inside [`Loop::pump`].
enum DispatchStep {
    /// Nothing further to drive right now: request incomplete, or
    /// handed to the worker pool (`Computing`).
    Wait,
    /// Answer inline — parse error, `/shutdown`, queue-full 503 —
    /// with the given close-after-write flag.
    Respond(Response, bool),
    Close,
}

/// All loop-owned mutable state, factored so helpers can borrow it
/// without fighting the borrow checker over `self`-splitting.
struct Loop {
    slots: Vec<Slot>,
    free: Vec<usize>,
    open: usize,
    job_tx: mpsc::SyncSender<Job>,
    queue_depth: distvliw_obs::Gauge,
    accepted: distvliw_obs::Counter,
    shutdown: Arc<AtomicBool>,
}

impl Loop {
    fn conn_mut(&mut self, token: usize) -> Option<&mut Conn> {
        self.slots.get_mut(token).and_then(|s| s.conn.as_mut())
    }

    fn insert(&mut self, stream: TcpStream) -> usize {
        let conn = Conn {
            stream,
            state: ConnState::Idle,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            close_after_write: false,
            since: Instant::now(),
            read_started: None,
        };
        self.open += 1;
        match self.free.pop() {
            Some(token) => {
                self.slots[token].conn = Some(conn);
                token
            }
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    conn: Some(conn),
                });
                self.slots.len() - 1
            }
        }
    }

    fn close(&mut self, token: usize) {
        if let Some(slot) = self.slots.get_mut(token) {
            if slot.conn.take().is_some() {
                slot.generation += 1;
                self.open -= 1;
                self.free.push(token);
            }
        }
    }

    /// Queues `response` on the connection's write buffer and pumps
    /// the connection (the common case: the whole response fits in the
    /// send buffer and the connection goes straight back to `Idle`
    /// without another poll round-trip).
    fn start_write(&mut self, token: usize, response: &Response, close: bool) {
        self.queue_response(token, response, close);
        if matches!(self.pump(token), After::Close) {
            self.close(token);
        }
    }

    fn queue_response(&mut self, token: usize, response: &Response, close: bool) {
        let Some(conn) = self.conn_mut(token) else {
            return;
        };
        conn.out = render_response(response, close);
        conn.out_pos = 0;
        conn.close_after_write = close;
        conn.state = ConnState::Writing;
        conn.since = Instant::now();
    }

    /// Drives one connection as far as it can go without fresh
    /// readiness: flushes pending response bytes and dispatches
    /// buffered pipelined requests, alternating **iteratively**. Each
    /// inline-answered request (queue-full 503, parse 4xx/501) loops
    /// back here rather than recursing, so a client that pipelines
    /// thousands of tiny requests cannot grow the loop thread's stack
    /// by one frame per buffered request.
    fn pump(&mut self, token: usize) -> After {
        loop {
            let conn_state = match self.conn_mut(token) {
                Some(c) => c.state,
                None => return After::Keep,
            };
            match conn_state {
                ConnState::Writing => match self.flush_step(token) {
                    FlushStep::Blocked => return After::Keep,
                    FlushStep::Close => return After::Close,
                    FlushStep::Done => {}
                },
                ConnState::Idle | ConnState::Reading => match self.dispatch_step(token) {
                    DispatchStep::Wait => return After::Keep,
                    DispatchStep::Respond(resp, close) => {
                        self.queue_response(token, &resp, close);
                    }
                    DispatchStep::Close => return After::Close,
                },
                ConnState::Computing => return After::Keep,
            }
        }
    }

    /// Writes pending out-buffer bytes until done or `WouldBlock`; on
    /// completion the connection is recycled to `Idle`.
    fn flush_step(&mut self, token: usize) -> FlushStep {
        let Some(conn) = self.conn_mut(token) else {
            return FlushStep::Blocked;
        };
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return FlushStep::Close,
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return FlushStep::Blocked,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return FlushStep::Close,
            }
        }
        if conn.close_after_write {
            return FlushStep::Close;
        }
        conn.out.clear();
        conn.out_pos = 0;
        conn.state = ConnState::Idle;
        conn.since = Instant::now();
        conn.read_started = None;
        FlushStep::Done
    }

    /// Drains readable bytes into the connection buffer, then tries to
    /// dispatch a complete request.
    fn handle_readable(&mut self, token: usize) -> After {
        let Some(conn) = self.conn_mut(token) else {
            return After::Keep;
        };
        let mut tmp = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut tmp) {
                Ok(0) => {
                    // Peer closed. Clean between requests; mid-request
                    // there is nobody left to answer anyway.
                    return After::Close;
                }
                Ok(n) => {
                    if conn.state == ConnState::Idle {
                        conn.state = ConnState::Reading;
                        conn.read_started = Some(Instant::now());
                        conn.since = Instant::now();
                    }
                    conn.buf.extend_from_slice(&tmp[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return After::Close,
            }
        }
        self.pump(token)
    }

    /// Parses the front of the connection buffer; on a complete
    /// request, hands it to the worker queue (or asks [`Loop::pump`]
    /// to answer 503/4xx/501 inline). `/shutdown` is handled here at
    /// the connection layer, exactly like the threaded layer did — the
    /// engine stays a pure request → response function.
    fn dispatch_step(&mut self, token: usize) -> DispatchStep {
        let generation = match self.slots.get(token) {
            Some(slot) => slot.generation,
            None => return DispatchStep::Wait,
        };
        let Some(conn) = self.conn_mut(token) else {
            return DispatchStep::Wait;
        };
        let (request, used) = match parse_request(&conn.buf) {
            Ok(Parse::Partial) => {
                // Drain the blank-line prefix parse_request skips
                // (stray CRLFs between pipelined requests): left in
                // place, a client streaming bare CRLFs would grow the
                // buffer for the whole request window and every
                // readiness event would re-scan it from the start.
                let blank = conn
                    .buf
                    .iter()
                    .take_while(|&&b| b == b'\r' || b == b'\n')
                    .count();
                conn.buf.drain(..blank);
                if conn.state == ConnState::Idle && !conn.buf.is_empty() {
                    conn.state = ConnState::Reading;
                    conn.since = Instant::now();
                    conn.read_started = Some(Instant::now());
                }
                return DispatchStep::Wait;
            }
            Ok(Parse::Complete(request, used)) => (request, used),
            Err(e) => {
                let resp = Response::json(
                    e.status,
                    Json::obj(vec![("error", Json::str(e.msg))]).render(),
                );
                return DispatchStep::Respond(resp, true);
            }
        };
        conn.buf.drain(..used);
        let parse_start = conn.read_started.unwrap_or_else(Instant::now);
        let parse_dur = parse_start.elapsed();
        // This request is consumed; the next one (if pipelined) gets
        // its own first-byte clock.
        conn.read_started = None;

        if request.path == "/shutdown" {
            let resp = if request.method == "POST" {
                self.shutdown.store(true, Ordering::SeqCst);
                Response::json(
                    200,
                    Json::obj(vec![("status", Json::str("shutting down"))]).render(),
                )
            } else {
                Response::json(
                    405,
                    Json::obj(vec![("error", Json::str("method not allowed"))]).render(),
                )
            };
            return DispatchStep::Respond(resp, true);
        }

        let close = request.wants_close();
        let job = Job {
            token,
            generation,
            request,
            close,
            parse_start,
            parse_dur,
        };
        // Count the job before the send: the worker decrements after
        // its recv, so incrementing afterwards would let a fast worker
        // (one possibly rendering /metrics for this very request) read
        // the gauge below zero.
        self.queue_depth.add(1);
        match self.job_tx.try_send(job) {
            Ok(()) => {
                if let Some(conn) = self.conn_mut(token) {
                    conn.state = ConnState::Computing;
                    conn.since = Instant::now();
                }
                DispatchStep::Wait
            }
            Err(TrySendError::Full(job)) => {
                // Backpressure: the queue is the admission bound. The
                // threaded layer would have spawned another thread
                // here; instead the front door says "later".
                self.queue_depth.add(-1);
                distvliw_obs::global()
                    .counter_with(
                        "serve_rejected_total",
                        "Requests rejected 503 at the front door, by reason",
                        &[("reason", "queue_full")],
                    )
                    .inc();
                distvliw_obs::logger::event(
                    "warn",
                    "overload_rejected",
                    &[
                        ("reason", "queue_full".into()),
                        ("path", job.request.path.as_str().into()),
                        ("retry_after_secs", u64::from(RETRY_AFTER_SECS).into()),
                    ],
                );
                let resp = Response::overloaded("request queue full", RETRY_AFTER_SECS);
                DispatchStep::Respond(resp, job.close)
            }
            // Workers only exit after the loop drops the sender.
            Err(TrySendError::Disconnected(_)) => {
                self.queue_depth.add(-1);
                DispatchStep::Close
            }
        }
    }
}

/// Creates the loopback waker socketpair (std exposes no pipes): the
/// write end wakes the poll loop from worker threads, the read end
/// sits in the poll set.
fn waker_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let local = tx.local_addr()?;
    // Guard against a foreign connection racing onto the ephemeral
    // port between bind and accept.
    for _ in 0..16 {
        let (rx, peer) = listener.accept()?;
        if peer == local {
            tx.set_nodelay(true)?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            return Ok((tx, rx));
        }
    }
    Err(io::Error::other("could not establish waker socketpair"))
}

fn wake(tx: &TcpStream) {
    // A full send buffer means wakes are already pending; losing this
    // byte is fine.
    let _ = (&*tx).write(&[1u8]);
}

/// What a worker runs for each parsed request: the engine's
/// [`endpoints::serve_request`] in a server. Given the request and its
/// framing read's start and duration.
pub(crate) type Handler = dyn Fn(&Request, Instant, Duration) -> Response + Send + Sync;

/// Runs the event loop until shutdown. Owns the listener and every
/// connection; spawns exactly `config.workers` compute threads, each
/// answering requests with `handler`. A panicking `handler` call is
/// answered `500` and counted in `serve_panics_total`; its worker
/// lives on.
///
/// # Errors
///
/// Propagates listener setup failures and escalated accept failures
/// ([`ACCEPT_FAILURE_LIMIT`] consecutive hard errors).
pub(crate) fn run(
    listener: &TcpListener,
    handler: &Arc<Handler>,
    shutdown: &Arc<AtomicBool>,
    config: &EventConfig,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let (wake_tx, wake_rx) = waker_pair()?;
    let workers = config.workers.max(1);
    let (job_tx, job_rx) = mpsc::sync_channel::<Job>(config.queue_depth.max(1));
    let job_rx = Arc::new(Mutex::new(job_rx));
    let done: Arc<Mutex<Vec<Done>>> = Arc::new(Mutex::new(Vec::new()));

    // Register every family up front, so /metrics lists the same
    // families (at zero) from the first scrape on, whatever code paths
    // (first overload, first sweep, first panic) have run since.
    distvliw_core::register_metrics();
    endpoints::register_metrics();
    let reg = distvliw_obs::global();
    let queue_depth = reg.gauge(
        "serve_queue_depth",
        "Parsed requests waiting in the bounded worker queue",
    );
    let accepted = reg.counter("serve_connections_total", "Connections accepted");
    let reaped = reg.counter(
        "serve_connections_reaped_total",
        "Idle keep-alive connections reaped at the idle limit",
    );
    let accept_errors = reg.counter(
        "serve_accept_errors_total",
        "Accept failures answered with a 20ms backoff",
    );
    let panics = reg.counter(
        "serve_panics_total",
        "Requests whose handler panicked, answered 500",
    );
    for reason in ["queue_full", "max_conns"] {
        let _ = reg.counter_with(
            "serve_rejected_total",
            "Requests rejected 503 at the front door, by reason",
            &[("reason", reason)],
        );
    }
    let state_gauges: Vec<(ConnState, distvliw_obs::Gauge)> = [
        (ConnState::Idle, "idle"),
        (ConnState::Reading, "reading"),
        (ConnState::Computing, "computing"),
        (ConnState::Writing, "writing"),
    ]
    .into_iter()
    .map(|(state, name)| {
        (
            state,
            reg.gauge_with(
                "serve_connections_state",
                "Open connections by FSM state",
                &[("state", name)],
            ),
        )
    })
    .collect();
    let open_gauge = reg.gauge("serve_connections_open", "Currently open connections");

    let mut worker_handles = Vec::with_capacity(workers);
    for i in 0..workers {
        let handler = handler.clone();
        let job_rx = job_rx.clone();
        let done = done.clone();
        let wake_tx = wake_tx.try_clone()?;
        let queue_depth = queue_depth.clone();
        let panics = panics.clone();
        let handle = std::thread::Builder::new()
            .name(format!("serve-worker-{i}"))
            .spawn(move || loop {
                let job = match lock(&job_rx).recv() {
                    Ok(job) => job,
                    Err(_) => break,
                };
                queue_depth.add(-1);
                // The engine's shared state survives an unwind: its locks
                // shrug off poisoning and a panicking cell leader hands
                // its flight to a follower.
                let response = panic::catch_unwind(AssertUnwindSafe(|| {
                    handler(&job.request, job.parse_start, job.parse_dur)
                }))
                .unwrap_or_else(|_| {
                    panics.inc();
                    distvliw_obs::logger::event(
                        "error",
                        "request_panicked",
                        &[("path", job.request.path.as_str().into())],
                    );
                    Response::json(
                        500,
                        Json::obj(vec![("error", Json::str("internal error"))]).render(),
                    )
                });
                lock(&done).push(Done {
                    token: job.token,
                    generation: job.generation,
                    response,
                    close: job.close,
                });
                wake(&wake_tx);
            })?;
        worker_handles.push(handle);
    }

    let mut state = Loop {
        slots: Vec::new(),
        free: Vec::new(),
        open: 0,
        job_tx,
        queue_depth,
        accepted,
        shutdown: shutdown.clone(),
    };
    let mut draining = false;
    let mut accept_failures: u32 = 0;
    let mut fds: Vec<sys::PollFd> = Vec::new();
    // Parallel to `fds`: the slot token each pollfd belongs to plus
    // the slot generation at poll time, so readiness captured for a
    // connection that was closed and its slot reused within the same
    // iteration is never applied to the new occupant.
    let mut tokens: Vec<(usize, u64)> = Vec::new();
    let result = loop {
        if shutdown.load(Ordering::SeqCst) && !draining {
            draining = true;
            // Drain: stop accepting, shed idle/partial connections;
            // Computing and Writing connections finish their exchange.
            for token in 0..state.slots.len() {
                if state
                    .conn_mut(token)
                    .is_some_and(|c| matches!(c.state, ConnState::Idle | ConnState::Reading))
                {
                    state.close(token);
                }
            }
        }
        if draining && state.open == 0 {
            break Ok(());
        }

        for (st, gauge) in &state_gauges {
            let n = state
                .slots
                .iter()
                .filter(|s| s.conn.as_ref().is_some_and(|c| c.state == *st))
                .count();
            gauge.set(n as i64);
        }
        open_gauge.set(state.open as i64);

        // Poll set: waker, listener (while accepting), and every
        // connection with the interest its state implies.
        fds.clear();
        tokens.clear();
        fds.push(sys::PollFd {
            fd: sys::raw_fd(&wake_rx),
            events: sys::POLLIN,
            revents: 0,
        });
        tokens.push((usize::MAX, 0));
        if !draining {
            fds.push(sys::PollFd {
                fd: sys::raw_fd(listener),
                events: sys::POLLIN,
                revents: 0,
            });
            tokens.push((usize::MAX - 1, 0));
        }
        let mut next_deadline: Option<Instant> = None;
        for (token, slot) in state.slots.iter().enumerate() {
            let Some(conn) = &slot.conn else { continue };
            let (events, deadline) = match conn.state {
                ConnState::Idle => (sys::POLLIN, Some(conn.since + IDLE_LIMIT)),
                ConnState::Reading => (sys::POLLIN, Some(conn.since + REQUEST_WINDOW)),
                ConnState::Writing => (sys::POLLOUT, Some(conn.since + REQUEST_WINDOW)),
                ConnState::Computing => (0, None),
            };
            if let Some(d) = deadline {
                next_deadline = Some(next_deadline.map_or(d, |cur| cur.min(d)));
            }
            if events != 0 {
                fds.push(sys::PollFd {
                    fd: sys::raw_fd(&conn.stream),
                    events,
                    revents: 0,
                });
                tokens.push((token, slot.generation));
            }
        }
        let now = Instant::now();
        let timeout =
            next_deadline.map_or(MAX_TICK, |d| d.saturating_duration_since(now).min(MAX_TICK));
        sys::poll_wait(&mut fds, timeout.as_millis() as i32)?;

        // 1. Waker: drain the pending wake bytes.
        if fds[0].revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0 {
            let mut sink = [0u8; 64];
            while matches!((&wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        }

        // 2. Finished computations → start writing responses.
        let finished: Vec<Done> = std::mem::take(&mut *lock(&done));
        for d in finished {
            let live = state
                .slots
                .get(d.token)
                .is_some_and(|s| s.generation == d.generation && s.conn.is_some());
            if live {
                state.start_write(d.token, &d.response, d.close);
            }
        }

        // 3. Accept, bounded by max_conns.
        if !draining {
            let listener_ready = tokens
                .iter()
                .position(|&(t, _)| t == usize::MAX - 1)
                .is_some_and(|i| fds[i].revents != 0);
            if listener_ready {
                match accept_ready(listener, &mut state, config) {
                    // Backlog drained without a hard error: the
                    // listener is healthy, so the consecutive-failure
                    // count starts over (scattered transient failures
                    // across a long uptime must never add up to the
                    // fatal limit).
                    Ok(()) => accept_failures = 0,
                    Err(e) => {
                        accept_failures += 1;
                        accept_errors.inc();
                        distvliw_obs::logger::event(
                            "warn",
                            "accept_error",
                            &[
                                ("error", e.to_string().into()),
                                ("backoff_ms", (ACCEPT_BACKOFF.as_millis() as u64).into()),
                                ("consecutive", u64::from(accept_failures).into()),
                            ],
                        );
                        if accept_failures >= ACCEPT_FAILURE_LIMIT {
                            // A permanent accept failure used to spin
                            // here every 20 ms forever; escalate.
                            distvliw_obs::logger::event(
                                "error",
                                "accept_fatal",
                                &[
                                    ("error", e.to_string().into()),
                                    ("consecutive", u64::from(accept_failures).into()),
                                ],
                            );
                            break Err(e);
                        }
                        std::thread::sleep(ACCEPT_BACKOFF);
                    }
                }
            }
        }

        // 4. Connection readiness.
        for i in 0..fds.len() {
            let (token, generation) = tokens[i];
            if token >= usize::MAX - 1 || fds[i].revents == 0 {
                continue;
            }
            // Steps 2–3 may have closed this connection and reused its
            // slot (completion write that closed, or a fresh accept in
            // this very iteration); the generation pins the captured
            // readiness to the connection it was polled for.
            if state.slots.get(token).map(|s| s.generation) != Some(generation) {
                continue;
            }
            let revents = fds[i].revents;
            if revents & sys::POLLNVAL != 0 {
                state.close(token);
                continue;
            }
            let conn_state = match state.conn_mut(token) {
                Some(c) => c.state,
                None => continue,
            };
            let after = match conn_state {
                ConnState::Idle | ConnState::Reading
                    if revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0 =>
                {
                    state.handle_readable(token)
                }
                ConnState::Writing if revents & (sys::POLLOUT | sys::POLLHUP) != 0 => {
                    state.pump(token)
                }
                ConnState::Writing if revents & sys::POLLERR != 0 => After::Close,
                _ => After::Keep,
            };
            if matches!(after, After::Close) {
                state.close(token);
            }
        }

        // 5. Deadlines: reap idle keep-alives, close stalled requests
        // and stalled writes.
        let now = Instant::now();
        for token in 0..state.slots.len() {
            let Some(conn) = state.conn_mut(token) else {
                continue;
            };
            let expired = match conn.state {
                ConnState::Idle => now.duration_since(conn.since) >= IDLE_LIMIT,
                ConnState::Reading | ConnState::Writing => {
                    now.duration_since(conn.since) >= REQUEST_WINDOW
                }
                ConnState::Computing => false,
            };
            if !expired {
                continue;
            }
            if conn.state == ConnState::Idle {
                reaped.inc();
                distvliw_obs::logger::event(
                    "info",
                    "conn_reaped",
                    &[("idle_secs", IDLE_LIMIT.as_secs().into())],
                );
            }
            state.close(token);
        }
    };

    // Teardown: dropping the sender lets workers drain any queued jobs
    // (their connections are gone; completions are discarded) and exit.
    drop(state.job_tx);
    for handle in worker_handles {
        let _ = handle.join();
    }
    for (_, gauge) in &state_gauges {
        gauge.set(0);
    }
    open_gauge.set(0);
    state.queue_depth.set(0);
    result
}

/// Accepts every pending connection; connections over `max_conns` are
/// answered an immediate 503 with `retry-after` and closed. `Ok(())`
/// means the backlog was drained (accept returned `WouldBlock`);
/// `Err` is a hard accept failure.
fn accept_ready(listener: &TcpListener, state: &mut Loop, config: &EventConfig) -> io::Result<()> {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) => return Err(e),
        };
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        if state.open >= config.max_conns {
            distvliw_obs::global()
                .counter_with(
                    "serve_rejected_total",
                    "Requests rejected 503 at the front door, by reason",
                    &[("reason", "max_conns")],
                )
                .inc();
            distvliw_obs::logger::event(
                "warn",
                "overload_rejected",
                &[
                    ("reason", "max_conns".into()),
                    ("max_conns", (config.max_conns as u64).into()),
                    ("retry_after_secs", u64::from(RETRY_AFTER_SECS).into()),
                ],
            );
            let resp = Response::overloaded("connection table full", RETRY_AFTER_SECS);
            // Best-effort: the few hundred bytes fit the fresh socket
            // buffer; a client that raced a request in may see a reset
            // instead, which it must treat the same as a 503.
            let _ = (&stream).write(&render_response(&resp, true));
            drop(stream);
            continue;
        }
        state.accepted.inc();
        let token = state.insert(stream);
        // Bytes may already be waiting (client sent the request with
        // the SYN-ACK data); read them now rather than next tick.
        if matches!(state.handle_readable(token), After::Close) {
            state.close(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_bounded() {
        let c = EventConfig::default();
        assert!(c.workers >= 1);
        assert!(c.max_conns >= 64);
        assert!(c.queue_depth >= 1);
    }

    #[test]
    fn waker_wakes_poll() {
        let (tx, rx) = waker_pair().unwrap();
        let mut fds = [sys::PollFd {
            fd: sys::raw_fd(&rx),
            events: sys::POLLIN,
            revents: 0,
        }];
        // Nothing pending: poll times out with no readiness.
        sys::poll_wait(&mut fds, 0).unwrap();
        #[cfg(unix)]
        assert_eq!(fds[0].revents & sys::POLLIN, 0);
        wake(&tx);
        let mut fds = [sys::PollFd {
            fd: sys::raw_fd(&rx),
            events: sys::POLLIN,
            revents: 0,
        }];
        sys::poll_wait(&mut fds, 1000).unwrap();
        assert_ne!(fds[0].revents & sys::POLLIN, 0);
    }

    /// The status of a one-shot `GET path`, failing (not hanging) when
    /// no answer comes.
    fn get_status(addr: std::net::SocketAddr, path: &str) -> u16 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n").unwrap();
        let mut text = String::new();
        stream
            .read_to_string(&mut text)
            .unwrap_or_else(|e| panic!("GET {path} got no answer: {e}"));
        text[9..12].parse().unwrap()
    }

    #[test]
    fn a_panicking_request_answers_500_and_its_worker_keeps_serving() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handler: Arc<Handler> = Arc::new(|request: &Request, _, _| {
            assert_ne!(request.path, "/boom", "handler exploded");
            Response::json(200, "{}".to_string())
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        // One worker: the 200 below proves the panicked one survived.
        let config = EventConfig {
            workers: 1,
            ..EventConfig::default()
        };
        let server = {
            let shutdown = shutdown.clone();
            std::thread::spawn(move || run(&listener, &handler, &shutdown, &config))
        };

        assert_eq!(get_status(addr, "/boom"), 500);
        assert_eq!(get_status(addr, "/fine"), 200);
        let panics = distvliw_obs::global().counter(
            "serve_panics_total",
            "Requests whose handler panicked, answered 500",
        );
        assert_eq!(panics.get(), 1);

        shutdown.store(true, Ordering::SeqCst);
        server.join().unwrap().unwrap();
    }
}
